"""Point-in-polygon broadcast join (SURVEY §2.5 J3).

The admin-polygon side is small (thousands of polygons); the page side
is the 10^12-row stream. So: build a columnar polygon index ONCE on the
driver, ship it inside the fused stage (``stateful_map_batches``), and
probe it inside the stage's tasks — the big side never shuffles.

From-scratch pieces (no shapely/geos in the sandbox):
  * Storage: rings as CSR (``offsets`` + flat ``xs``/``ys``) taken
    straight from the Arrow list arrays, so the index pickles as a
    handful of large buffers and ``ray.get`` maps them zero-copy.
  * Directory: a sparse multi-level uniform lon/lat grid (GeoBlocks,
    EDBT'21, without the interior/boundary cell classes). Each polygon
    registers in the <= 2x2 cells of the power-of-two level at least
    as large as its bbox extent; each level is one sorted
    ``(cell_key, polygon)`` array.
  * Containment: even-odd ray casting over every candidate
    (point, polygon) x edge row at once.

Assignment when polygons nest/overlap (countries contain provinces):
deepest ``admin_level`` wins, ties broken by smallest ``admin_id`` —
deterministic, and oracle-reproducible in plain Python/SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# pair x edge rows ray-cast per chunk: bounds probe memory when a few
# huge rings meet many points
_EDGE_ROWS_PER_CHUNK = 1 << 20
# finest level relative to the data extent: keeps a level's row-major
# cell keys (<= 2^31 cells per axis) inside int64
_MAX_LEVEL_SPAN = 31


def _cells(v, lvl, origin):
    """Cell coordinate of ``v`` at level ``lvl`` (size 2^lvl), relative
    to ``origin``; division by a power of two is exact."""
    return np.floor(np.ldexp(v, -lvl)).astype(np.int64) - origin


class PolygonIndex:
    """Immutable columnar polygon set + grid directory (broadcast).

    ``last_leaf_visits`` is the number of distinct non-empty grid
    cells the most recent :meth:`assign` probed (observability for the
    sublinearity pytest). Rings with fewer than 3 vertices can contain
    no point under even-odd and are dropped; a NaN/inf vertex, or an
    edge (the closing edge included) spanning more than 180 degrees of
    longitude, raises ``ValueError`` naming its ``admin_id``: rings are
    planar in lon/lat, so an antimeridian-crossing ring would contain
    the wrong side of the globe."""

    def __init__(self, admin_table: pa.Table):
        aid = np.asarray(admin_table["admin_id"].to_numpy(zero_copy_only=False), np.int64)
        lons = admin_table["ring_lons"].combine_chunks()
        lats = admin_table["ring_lats"].combine_chunks()
        ox, oy = np.asarray(lons.offsets), np.asarray(lats.offsets)
        n_vert = np.diff(ox)
        if not np.array_equal(n_vert, np.diff(oy)):
            bad = int(np.argmax(n_vert != np.diff(oy)))
            raise ValueError(f"PolygonIndex: admin_id {aid[bad]} has "
                             "ring_lons/ring_lats of different lengths")
        xs = np.asarray(lons.values.to_numpy(zero_copy_only=False)[ox[0]:ox[-1]], np.float64)
        ys = np.asarray(lats.values.to_numpy(zero_copy_only=False)[oy[0]:oy[-1]], np.float64)
        finite = np.isfinite(xs) & np.isfinite(ys)
        if not finite.all():
            bad = np.searchsorted(ox - ox[0], np.argmin(finite), "right") - 1
            raise ValueError(f"PolygonIndex: admin_id {aid[bad]} has a NaN/inf vertex")
        keep = n_vert >= 3
        if not keep.all():
            xs, ys = xs[np.repeat(keep, n_vert)], ys[np.repeat(keep, n_vert)]
        self.offsets = np.concatenate([[0], np.cumsum(n_vert[keep])]).astype(np.int64)
        self.xs, self.ys = xs, ys
        self.admin_id = aid[keep]
        prev = np.arange(len(xs)) - 1
        prev[self.offsets[:-1]] = self.offsets[1:] - 1
        wide = np.abs(xs - xs[prev]) > 180
        if wide.any():
            bad = np.searchsorted(self.offsets, np.argmax(wide), "right") - 1
            raise ValueError(f"PolygonIndex: admin_id {self.admin_id[bad]} crosses the "
                             "antimeridian (an edge spans > 180 degrees of longitude)")
        self.admin_level = np.asarray(admin_table["admin_level"].to_numpy(
            zero_copy_only=False), np.int64)[keep]
        cc = pc.dictionary_encode(admin_table["cc"].combine_chunks().cast(pa.string()))
        self.cc_dict = cc.dictionary
        self.cc_code = np.asarray(pc.fill_null(cc.indices, -1), np.int32)[keep]

        starts = self.offsets[:-1]
        n = len(starts)
        self.bb = np.stack([np.minimum.reduceat(xs, starts), np.maximum.reduceat(xs, starts),
                            np.minimum.reduceat(ys, starts), np.maximum.reduceat(ys, starts)])
        self.extent = ((self.bb[0].min(), self.bb[1].max(), self.bb[2].min(), self.bb[3].max())
                       if n else (np.inf, -np.inf, np.inf, -np.inf))
        # level: smallest power of two >= the bbox extent, so a bbox
        # spans <= 2 cells per axis (clamped up: coarser keeps that)
        mant, ex = np.frexp(np.maximum(self.bb[1] - self.bb[0], self.bb[3] - self.bb[2]))
        lvl = ex - (mant == 0.5)
        if n:
            span = max(self.extent[1] - self.extent[0], self.extent[3] - self.extent[2])
            lvl = np.maximum(lvl, int(np.frexp(span)[1]) - _MAX_LEVEL_SPAN)
        self.grid_levels, k = np.unique(lvl.astype(np.int64), return_inverse=True)
        # per level: origin cell of the extent and cells per column; a
        # cell's key is its row-major index from that origin
        self.lvl_x0 = _cells(self.extent[0], self.grid_levels, 0)
        self.lvl_y0 = _cells(self.extent[2], self.grid_levels, 0)
        self.lvl_ny = _cells(self.extent[3], self.grid_levels, self.lvl_y0) + 1
        x_lo, x_hi = (_cells(self.bb[r], lvl, self.lvl_x0[k]) for r in (0, 1))
        y_lo, y_hi = (_cells(self.bb[r], lvl, self.lvl_y0[k]) for r in (2, 3))
        dx, dy = np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]])
        m = (x_lo + dx <= x_hi) & (y_lo + dy <= y_hi)          # (corner, polygon)
        key = ((x_lo + dx) * self.lvl_ny[k] + y_lo + dy)[m]
        level = np.broadcast_to(k, m.shape)[m]
        order = np.lexsort((key, level))
        self.cell_key = key[order]
        self.cell_poly = np.broadcast_to(np.arange(n), m.shape)[m][order]
        self.lvl_off = np.searchsorted(level[order], np.arange(len(self.grid_levels) + 1))
        self.last_leaf_visits = 0

    def _candidates(self, px, py):
        """All (point, polygon) pairs whose grid cell matches, level by
        level; every point inside a polygon's closed bbox is found.
        Points lie within the extent, so their cells are in range."""
        pts, polys = [], []
        self.last_leaf_visits = 0
        for k, L in enumerate(self.grid_levels):
            keys = self.cell_key[self.lvl_off[k]:self.lvl_off[k + 1]]
            key = _cells(px, L, self.lvl_x0[k]) * self.lvl_ny[k] + _cells(py, L, self.lvl_y0[k])
            lo = np.searchsorted(keys, key, "left")
            cnt = np.searchsorted(keys, key, "right") - lo
            self.last_leaf_visits += len(np.unique(key[cnt > 0]))
            pt = np.repeat(np.arange(len(px)), cnt)
            within = np.arange(len(pt)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            pts.append(pt)
            polys.append(self.cell_poly[self.lvl_off[k] + np.repeat(lo, cnt) + within])
        if not pts:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(pts), np.concatenate(polys)

    def _ray_cast(self, X, Y, poly):
        """Even-odd crossing per (point, polygon) pair, over all its
        edge rows (j = previous vertex, i = vertex). Boundary
        convention: the half-open edge rule of the crossing test."""
        n_e = self.offsets[poly + 1] - self.offsets[poly]
        first = np.cumsum(n_e) - n_e
        row = np.repeat(np.arange(len(poly)), n_e)
        e = np.arange(len(row)) - first[row]
        i = self.offsets[poly][row] + e
        j = np.where(e == 0, i + n_e[row] - 1, i - 1)
        y = Y[row]
        y1, y2 = self.ys[j], self.ys[i]
        c = np.nonzero((y1 > y) != (y2 > y))[0]
        x1, x2 = self.xs[j[c]], self.xs[i[c]]
        cross = np.zeros(len(row), bool)
        cross[c] = X[row[c]] < (x2 - x1) * (y[c] - y1[c]) / (y2[c] - y1[c]) + x1
        return np.bitwise_xor.reduceat(cross, first)

    def assign(self, px: np.ndarray, py: np.ndarray):
        """Deepest-level containing polygon per point.

        Returns (admin_id, admin_level, cc): int64 arrays with -1 and a
        ``pa.string()`` array with null for points outside every
        polygon or with a NaN/inf coordinate.
        """
        px = np.asarray(px, np.float64)
        py = np.asarray(py, np.float64)
        # points outside the data's extent (NaN/inf too) match nothing;
        # dropping them also keeps every cell key far from overflow
        x0, x1, y0, y1 = self.extent
        sel = np.nonzero((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1))[0]
        pt, poly = self._candidates(px[sel], py[sel])
        X, Y = px[sel][pt], py[sel][pt]
        bb = self.bb[:, poly]
        m = (X >= bb[0]) & (X <= bb[1]) & (Y >= bb[2]) & (Y <= bb[3])
        pt, poly, X, Y = pt[m], poly[m], X[m], Y[m]
        hit = np.zeros(len(pt), bool)
        n_e = self.offsets[poly + 1] - self.offsets[poly]
        chunk = (np.cumsum(n_e) - n_e) // _EDGE_ROWS_PER_CHUNK
        cuts = np.flatnonzero(np.diff(chunk, prepend=-1))
        for a, b in zip(cuts, list(cuts[1:]) + [len(pt)]):
            hit[a:b] = self._ray_cast(X[a:b], Y[a:b], poly[a:b])
        pt, poly = pt[hit], poly[hit]
        order = np.lexsort((poly, self.admin_id[poly], -self.admin_level[poly], pt))
        pt, poly = pt[order], poly[order]
        first = np.ones(len(pt), bool)
        first[1:] = pt[1:] != pt[:-1]
        at, poly = sel[pt[first]], poly[first]
        admin_id, admin_level, code = (np.full(len(px), -1, t) for t in (np.int64, np.int64, np.int32))
        admin_id[at], admin_level[at], code[at] = (
            self.admin_id[poly], self.admin_level[poly], self.cc_code[poly])
        cc = pc.take(self.cc_dict, pa.array(code, pa.int32(), mask=code < 0))
        return admin_id, admin_level, cc


class PIPJoin:
    """Fused-stage layer: append admin assignment of each row's
    (best_long, best_lat) point. Null coordinates -> null assignment.
    """

    def __init__(self, polygons: PolygonIndex):
        self.index = polygons

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["best_long"].to_numpy(zero_copy_only=False)
        lat = batch["best_lat"].to_numpy(zero_copy_only=False)
        admin_id, admin_level, cc = self.index.assign(lon, lat)
        batch = batch.append_column("admin_id", pa.array(admin_id, pa.int64()))
        batch = batch.append_column("admin_level", pa.array(admin_level, pa.int64()))
        return batch.append_column("admin_cc", cc)
