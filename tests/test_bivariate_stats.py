"""grouped_bivariate_stats (stages/aggregates.py): numpy-oracle parity
on both merge plans (collapsed one task, and the bucket exchange forced
by ``SMALL_COLLAPSE_BYTES = 0``), and DuckDB-style NULLs for
zero-variance groups."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.aggregates import grouped_bivariate_stats


def _collect(out):
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")])
    return t.sort_by([("g", "ascending")])


@pytest.fixture(scope="module")
def world():
    rng = np.random.RandomState(3)
    n = 2000
    g = rng.randint(0, 7, n)
    x = rng.randint(1, 500, n).astype(np.float64)
    y = 3.0 * x + rng.randn(n) * 25.0 + 10.0 * g
    return g, x, y


@pytest.mark.parametrize("merge", ["single", "shuffle"])
def test_matches_numpy(ray_session, world, merge, monkeypatch):
    if merge == "shuffle":
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    g, x, y = world
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(g, pa.int64()),
        "x": pa.array(x), "y": pa.array(y)})).repartition(8)
    got = _collect(grouped_bivariate_stats(ds, ["g"], "x", "y"))
    for i, gid in enumerate(got["g"].to_pylist()):
        m = g == gid
        xs, ys = x[m], y[m]
        cov = np.cov(xs, ys, bias=True)[0, 1]
        vx = xs.var()
        slope = cov / vx
        assert got["n_rows"][i].as_py() == int(m.sum())
        assert got["covar_yx"][i].as_py() == pytest.approx(cov, rel=1e-9)
        assert got["slope"][i].as_py() == pytest.approx(slope, rel=1e-9)
        assert got["intercept"][i].as_py() == pytest.approx(
            ys.mean() - slope * xs.mean(), rel=1e-9)
        assert got["corr_yx"][i].as_py() == pytest.approx(
            np.corrcoef(xs, ys)[0, 1], rel=1e-9)


def test_zero_variance_yields_nulls(ray_session, monkeypatch):
    t = pa.table({"g": pa.array([1, 1, 2, 2], pa.int64()),
                  "x": pa.array([5.0, 5.0, 1.0, 2.0]),
                  "y": pa.array([1.0, 2.0, 3.0, 3.0])})
    for distributed in (False, True):
        with monkeypatch.context() as m:
            if distributed:
                m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
            got = _collect(grouped_bivariate_stats(
                ray.data.from_arrow(t), ["g"], "x", "y"))
        # g=1: var(x)=0 -> slope/intercept/corr NULL; g=2: var(y)=0 ->
        # corr NULL but slope defined (0.0)
        assert got["slope"][0].as_py() is None
        assert got["intercept"][0].as_py() is None
        assert got["corr_yx"][0].as_py() is None
        assert got["slope"][1].as_py() == pytest.approx(0.0)
        assert got["corr_yx"][1].as_py() is None
