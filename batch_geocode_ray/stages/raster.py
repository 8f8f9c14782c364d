"""Raster <-> vector operators (north rule: "H3/S2 index,
point-in-polygon, kNN, raster<->vector").

Raster model: a regular lon/lat grid (``GridSpec``), materialized
either LONG (one row per non-empty cell — the sparse form every other
stage composes with) or DENSE (a per-tile 2D float64 array as a
fixed-size-list column — the form map renderers consume).

  * rasterize_points  — points -> per-cell counts/weights: per-batch
    2D histogram partials (NumPy) -> grouped merge; the shuffle carries
    non-empty cells only.
  * raster_to_tiles   — long form -> dense per-tile arrays.
  * vectorize_raster  — dense/long raster -> vector features: connected
    components (union-find over the sparse cells, vectorized row scans)
    with per-component cell count, weight sum, and bbox ring — the
    polygonization direction.
  * zonal_stats       — raster x admin polygons: per-polygon sums by
    probing cell centers through the existing PIP broadcast index
    (composition, no new geometry code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from batch_geocode_ray.stages.aggregates import grouped_aggregate


@dataclass(frozen=True)
class GridSpec:
    """Regular lon/lat grid: [x0, x1) x [y0, y1), nx x ny cells."""

    x0: float = -180.0
    x1: float = 180.0
    y0: float = -90.0
    y1: float = 90.0
    nx: int = 360
    ny: int = 180

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def dy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    def cell_of(self, lon: np.ndarray, lat: np.ndarray):
        """(ix, iy, in_bounds) — clamped indices plus validity mask."""
        ix = np.floor((np.asarray(lon, np.float64) - self.x0) / self.dx)
        iy = np.floor((np.asarray(lat, np.float64) - self.y0) / self.dy)
        ok = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        return (ix.astype(np.int64), iy.astype(np.int64), ok)

    def center_of(self, ix: np.ndarray, iy: np.ndarray):
        return (self.x0 + (ix + 0.5) * self.dx,
                self.y0 + (iy + 0.5) * self.dy)


def rasterize_points(ds: Dataset, grid: GridSpec,
                     lon_col: str, lat_col: str,
                     weight_col: str | None = None) -> Dataset:
    """Point stream -> sparse raster: (cell_x, cell_y, n_points[,
    weight_sum]) for every non-empty cell, sorted by cell. Out-of-bounds
    and null coordinates are dropped."""

    def partial(b: pa.Table) -> pa.Table:
        lon = np.asarray(b[lon_col].to_numpy(zero_copy_only=False), np.float64)
        lat = np.asarray(b[lat_col].to_numpy(zero_copy_only=False), np.float64)
        ok = ~(np.isnan(lon) | np.isnan(lat))
        ix, iy, inb = grid.cell_of(np.where(ok, lon, grid.x0 - 1),
                                   np.where(ok, lat, grid.y0 - 1))
        keep = ok & inb
        cols = {
            "cell_x": pa.array(ix[keep], pa.int64()),
            "cell_y": pa.array(iy[keep], pa.int64()),
        }
        if weight_col is not None:
            w = np.asarray(b[weight_col].to_numpy(zero_copy_only=False),
                           np.float64)
            cols["_w"] = pa.array(w[keep], pa.float64())
        return pa.table(cols)

    cells = ds.map_batches(partial, batch_format="pyarrow")
    specs = [("cell_x", "count", "n_points")]
    if weight_col is not None:
        specs.append(("_w", "sum", "weight_sum"))
    return grouped_aggregate(
        cells, ["cell_x", "cell_y"], specs, sort_keys=["cell_x", "cell_y"])


def raster_to_tiles(long_raster: pa.Table, grid: GridSpec,
                    tile: int = 64, value_col: str = "n_points") -> pa.Table:
    """Sparse long raster -> dense per-tile arrays: one row per non-empty
    ``tile x tile`` tile, pixels as a fixed-size-list (row-major,
    y-then-x within the tile)."""
    ix = np.asarray(long_raster["cell_x"].to_numpy(zero_copy_only=False),
                    np.int64)
    iy = np.asarray(long_raster["cell_y"].to_numpy(zero_copy_only=False),
                    np.int64)
    v = np.asarray(long_raster[value_col].to_numpy(zero_copy_only=False),
                   np.float64)
    tx, ty = ix // tile, iy // tile
    key = tx * np.int64(1 << 32) + ty
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    bounds = np.concatenate([[0], np.nonzero(np.diff(key_s))[0] + 1, [len(key_s)]])
    rows_tx, rows_ty, pixels = [], [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        sel = order[s:e]
        t_x, t_y = int(tx[sel[0]]), int(ty[sel[0]])
        arr = np.zeros((tile, tile), dtype=np.float64)
        arr[iy[sel] - t_y * tile, ix[sel] - t_x * tile] = v[sel]
        rows_tx.append(t_x)
        rows_ty.append(t_y)
        pixels.append(arr.ravel())
    if not pixels:
        return pa.table({"tile_x": pa.array([], pa.int64()),
                         "tile_y": pa.array([], pa.int64()),
                         "pixels": pa.array([], pa.list_(pa.float64()))})
    return pa.table({
        "tile_x": pa.array(rows_tx, pa.int64()),
        "tile_y": pa.array(rows_ty, pa.int64()),
        "pixels": pa.FixedSizeListArray.from_arrays(
            pa.array(np.concatenate(pixels), pa.float64()), tile * tile),
    })


def vectorize_raster(long_raster: pa.Table, grid: GridSpec,
                     value_col: str = "n_points",
                     threshold: float = 1.0) -> pa.Table:
    """Raster -> vector features: 4-connected components of cells with
    value >= threshold. Output one row per component: component_id
    (smallest linear cell id inside), n_cells, value_sum, and the bbox
    ring (lon/lat corners) as ring_lons/ring_lats — consumable by the
    PIP stage's polygon schema."""
    ix = np.asarray(long_raster["cell_x"].to_numpy(zero_copy_only=False),
                    np.int64)
    iy = np.asarray(long_raster["cell_y"].to_numpy(zero_copy_only=False),
                    np.int64)
    v = np.asarray(long_raster[value_col].to_numpy(zero_copy_only=False),
                   np.float64)
    keep = v >= threshold
    ix, iy, v = ix[keep], iy[keep], v[keep]
    n = len(ix)
    if n == 0:
        empty_f = pa.array([], pa.float64())
        return pa.table({
            "component_id": pa.array([], pa.int64()),
            "n_cells": pa.array([], pa.int64()),
            "value_sum": empty_f,
            "ring_lons": pa.array([], pa.list_(pa.float64())),
            "ring_lats": pa.array([], pa.list_(pa.float64())),
        })

    # union-find over sparse cells; neighbors found via sorted lookup
    lin = ix * np.int64(grid.ny + 1) + iy
    order = np.argsort(lin, kind="stable")
    lin_s = lin[order]
    parent = np.arange(n, dtype=np.int64)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for dx_, dy_ in ((1, 0), (0, 1)):
        nb = (ix + dx_) * np.int64(grid.ny + 1) + (iy + dy_)
        pos = np.searchsorted(lin_s, nb)
        pos_c = np.clip(pos, 0, n - 1)
        hit = lin_s[pos_c] == nb
        for i in np.nonzero(hit)[0]:
            union(i, int(order[pos_c[i]]))

    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    comp_ids, inv = np.unique(roots, return_inverse=True)
    m = len(comp_ids)
    n_cells = np.zeros(m, dtype=np.int64)
    np.add.at(n_cells, inv, 1)
    v_sum = np.zeros(m)
    np.add.at(v_sum, inv, v)
    min_x = np.full(m, np.iinfo(np.int64).max)
    min_y = np.full(m, np.iinfo(np.int64).max)
    max_x = np.full(m, np.iinfo(np.int64).min)
    max_y = np.full(m, np.iinfo(np.int64).min)
    np.minimum.at(min_x, inv, ix)
    np.minimum.at(min_y, inv, iy)
    np.maximum.at(max_x, inv, ix)
    np.maximum.at(max_y, inv, iy)
    comp_min_lin = np.full(m, np.iinfo(np.int64).max)
    np.minimum.at(comp_min_lin, inv, lin)

    ring_lons, ring_lats = [], []
    for k in range(m):
        x_lo = grid.x0 + min_x[k] * grid.dx
        x_hi = grid.x0 + (max_x[k] + 1) * grid.dx
        y_lo = grid.y0 + min_y[k] * grid.dy
        y_hi = grid.y0 + (max_y[k] + 1) * grid.dy
        ring_lons.append([x_lo, x_hi, x_hi, x_lo])
        ring_lats.append([y_lo, y_lo, y_hi, y_hi])
    return pa.table({
        "component_id": pa.array(comp_min_lin, pa.int64()),
        "n_cells": pa.array(n_cells, pa.int64()),
        "value_sum": pa.array(v_sum, pa.float64()),
        "ring_lons": pa.array(ring_lons, pa.list_(pa.float64())),
        "ring_lats": pa.array(ring_lats, pa.list_(pa.float64())),
    })


def zonal_stats(long_raster: pa.Table, grid: GridSpec, polygon_index,
                value_col: str = "n_points") -> pa.Table:
    """Per-admin-polygon raster sums: probe each non-empty cell CENTER
    through the broadcast PIP index (existing J3 machinery); cells
    outside every polygon aggregate under admin_id = -1."""
    ix = np.asarray(long_raster["cell_x"].to_numpy(zero_copy_only=False),
                    np.int64)
    iy = np.asarray(long_raster["cell_y"].to_numpy(zero_copy_only=False),
                    np.int64)
    v = np.asarray(long_raster[value_col].to_numpy(zero_copy_only=False),
                   np.float64)
    lon, lat = grid.center_of(ix, iy)
    admin_id, _, _ = polygon_index.assign(lon, lat)
    ids, inv = np.unique(admin_id, return_inverse=True)
    sums = np.zeros(len(ids))
    np.add.at(sums, inv, v)
    counts = np.zeros(len(ids), dtype=np.int64)
    np.add.at(counts, inv, 1)
    return pa.table({
        "admin_id": pa.array(ids, pa.int64()),
        "n_cells": pa.array(counts, pa.int64()),
        "value_sum": pa.array(sums, pa.float64()),
    })
