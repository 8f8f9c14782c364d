"""Points -> raster (north rule: "H3/S2 index, point-in-polygon, kNN,
raster<->vector").

Raster model: a regular lon/lat grid (``GridSpec``) in LONG form, one row
per non-empty cell, the sparse form every other stage composes with.
``rasterize_points`` builds it from a point stream: per-batch cell
partials (NumPy) -> grouped merge, so the shuffle carries non-empty
cells only.
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


def rasterize_points(ds: Dataset, grid: GridSpec,
                     lon_col: str, lat_col: str,
                     weight_col: str | None = None) -> Dataset:
    """Point stream -> sparse raster: (cell_x, cell_y, n_points[,
    weight_sum]) for every non-empty cell, in no set order. Out-of-bounds
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
    return grouped_aggregate(cells, ["cell_x", "cell_y"], specs)
