"""Points -> sparse raster."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from batch_geocode_ray.stages.raster import GridSpec, rasterize_points

GRID = GridSpec(nx=360, ny=180)


def points_ds(n=4000, seed=3):
    rng = np.random.RandomState(seed)
    lon = rng.uniform(-179, 179, n)
    lat = rng.uniform(-89, 89, n)
    w = rng.uniform(0, 5, n)
    t = pa.table({"lon": pa.array(lon), "lat": pa.array(lat),
                  "w": pa.array(w)})
    return rd.from_arrow(t).repartition(5), lon, lat, w


def test_rasterize_matches_numpy_histogram():
    ds, lon, lat, w = points_ds()
    out = rasterize_points(ds, GRID, "lon", "lat", weight_col="w").take_all()
    hist = {}
    for x, y, ww in zip(lon, lat, w):
        k = (int(np.floor(x + 180)), int(np.floor(y + 90)))
        c, s = hist.get(k, (0, 0.0))
        hist[k] = (c + 1, s + ww)
    assert len(out) == len(hist)
    for r in out:
        c, s = hist[(r["cell_x"], r["cell_y"])]
        assert r["n_points"] == c
        assert abs(r["weight_sum"] - s) < 1e-9


def test_rasterize_drops_nulls_and_out_of_bounds():
    t = pa.table({
        "lon": pa.array([0.5, None, 500.0], pa.float64()),
        "lat": pa.array([0.5, 1.0, 0.0], pa.float64()),
    })
    out = rasterize_points(rd.from_arrow(t), GRID, "lon", "lat").take_all()
    assert len(out) == 1 and out[0]["n_points"] == 1
