"""kNN nearest-facility lookup (SURVEY §2.5 J4, §2.7 T4).

``KNNFacilities`` appends the k nearest facilities by haversine
distance, ties broken by smaller facility_id. The ``FacilityIndex``
is built on the driver and ships inside the fused geocode stage, which
runs as tasks through ``stages/stateful.stateful_map_batches`` and is
loaded once per worker process, so no shuffle runs. Two per-batch
plans, same answer:

  * brute force (default): a points x facilities chord matmul and a
    partial top-k with argpartition. Right while facilities fit in
    worker memory (≤ ~1e6 rows).
  * grid probe (``use_grid=True``): facilities pre-bucketed into
    coarse hex cells; each point probes its cell's k-ring first and
    falls back to brute force only when the neighborhood cannot
    guarantee the exact answer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.cells import hex_cell, hex_kring
from batch_geocode_ray.functions.geo import haversine_km


def _unit_xyz(lon_deg: np.ndarray, lat_deg: np.ndarray) -> np.ndarray:
    """(n, 3) unit sphere vectors; chord distance on these is exactly
    monotone with great-circle distance, so top-k by chord == top-k by
    haversine (same tie sets: equal chord <=> equal haversine)."""
    lon = np.radians(lon_deg)
    lat = np.radians(lat_deg)
    cl = np.cos(lat)
    return np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)],
                    axis=1)


class FacilityIndex:
    """Facility ids and points, bucketed by coarse hex cell. A NaN/inf
    ``lat``/``lon`` raises ``ValueError`` naming its ``facility_id``."""

    def __init__(self, facilities: pa.Table, grid_res: int = 2):
        self.ids = np.asarray(facilities["facility_id"].to_numpy(zero_copy_only=False),
                              dtype=np.int64)
        self.lat = np.asarray(facilities["lat"].to_numpy(zero_copy_only=False), dtype=np.float64)
        self.lon = np.asarray(facilities["lon"].to_numpy(zero_copy_only=False), dtype=np.float64)
        bad = ~(np.isfinite(self.lat) & np.isfinite(self.lon))
        if bad.any():
            raise ValueError(f"FacilityIndex: facility_id "
                             f"{np.unique(self.ids[bad]).tolist()} has a "
                             "NaN/inf lat/lon")
        self.xyz = _unit_xyz(self.lon, self.lat)  # for the matmul plan
        self.grid_res = grid_res
        cells = hex_cell(self.lon, self.lat, grid_res)
        self.buckets: dict[int, np.ndarray] = {}
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        bounds = np.nonzero(np.diff(sorted_cells))[0] + 1
        for chunk in np.split(order, bounds):
            if len(chunk):
                self.buckets[int(cells[chunk[0]])] = chunk


class KNNFacilities:
    """Per-batch callable appending ``knn_ids``/``knn_dists``
    (list<int64> / list<float64>, distance-ordered, id tie-break) of
    each row's (best_long, best_lat) point. Rows with null coordinates,
    and every row when there are no facilities, get empty lists.
    The fused geocode stage builds it on the driver, and each worker
    loads it once (worker-cached tasks via ``stateful_map_batches``, no
    actor pool).
    """

    def __init__(self, facilities: FacilityIndex, k: int = 3, use_grid: bool = False):
        self.index = facilities
        self.k = k
        self.use_grid = use_grid

    def _topk_bruteforce(self, lon: np.ndarray, lat: np.ndarray):
        """(B, k) ids + dists, chunked to bound memory at B*F floats.

        Candidate selection runs on the CHORD metric — one (B, 3) x
        (3, F) BLAS matmul of unit vectors instead of a B x F
        transcendental haversine matrix (chord is exactly monotone with
        great-circle distance, so the selected k and every tie set are
        identical; measured ~20x faster at F=1000). Exact haversine km
        is then computed only for the B x k selected, and the final
        (dist, id) tie-break ordering uses those exact values."""
        idx = self.index
        k = min(self.k, len(idx.ids))
        out_ids = np.empty((len(lon), k), dtype=np.int64)
        out_d = np.empty((len(lon), k), dtype=np.float64)
        pxyz = _unit_xyz(lon, lat)
        chunk = max(1, int(4_000_000 // max(len(idx.ids), 1)))
        for s in range(0, len(lon), chunk):
            e = min(s + chunk, len(lon))
            # negated dot product: ascending order == nearest first
            nd = -(pxyz[s:e] @ idx.xyz.T)
            part = np.argpartition(nd, k - 1, axis=1)[:, :k]
            pd = haversine_km(lon[s:e, None], lat[s:e, None],
                              idx.lon[part], idx.lat[part])
            pids = idx.ids[part]
            order = np.lexsort((pids, pd), axis=1)
            out_ids[s:e] = np.take_along_axis(pids, order, axis=1)
            out_d[s:e] = np.take_along_axis(pd, order, axis=1)
        return out_ids, out_d

    def _topk_grid(self, lon: np.ndarray, lat: np.ndarray):
        """Grid probe with an EXACTNESS guarantee, vectorized per CELL
        GROUP (not per row): rows are bucketed by their coarse hex
        cell; each group multiplies against its ring's few candidates
        only. Ring results are accepted only when the k-th candidate
        distance is within the ring's guaranteed-coverage radius
        (anything outside the 1-ring is at least ~0.7 cell-sizes away;
        km lower-bounded via cos(lat) since longitude degrees shrink
        poleward); every other row falls back to the exact brute-force
        scan — approximate never silently, wrong never."""
        idx = self.index
        n = len(lon)
        k = min(self.k, len(idx.ids))
        cells = hex_cell(lon, lat, idx.grid_res).astype(np.int64)
        size_deg = 10.0 / (np.sqrt(7.0) ** idx.grid_res)
        out_ids = np.empty((n, k), dtype=np.int64)
        out_d = np.empty((n, k), dtype=np.float64)
        resolved = np.zeros(n, dtype=bool)
        pxyz = _unit_xyz(lon, lat)
        guarantee = (0.7 * size_deg * 111.0
                     * np.maximum(np.cos(np.radians(np.abs(lat))), 0.0))

        order = np.argsort(cells, kind="stable")
        sc = cells[order]
        bounds = np.concatenate(
            [[0], np.nonzero(np.diff(sc))[0] + 1, [n]]) if n else [0]
        cache: dict[int, np.ndarray] = {}
        for s, e in zip(bounds[:-1], bounds[1:]):
            c = int(sc[s])
            cand = cache.get(c)
            if cand is None:
                parts = [idx.buckets[b] for b in hex_kring(c, 1)
                         if b in idx.buckets]
                cand = (np.concatenate(parts) if parts
                        else np.empty(0, dtype=np.int64))
                cache[c] = cand
            if len(cand) < k:
                continue  # group falls back to brute force
            rows = order[s:e]
            kk = min(k, len(cand))
            nd = -(pxyz[rows] @ idx.xyz[cand].T)
            part = (np.argpartition(nd, kk - 1, axis=1)[:, :kk]
                    if len(cand) > kk else
                    np.broadcast_to(np.arange(kk), (len(rows), kk)))
            cpart = cand[part]
            d = haversine_km(lon[rows, None], lat[rows, None],
                             idx.lon[cpart], idx.lat[cpart])
            pids = idx.ids[cpart]
            o2 = np.lexsort((pids, d), axis=1)
            d_s = np.take_along_axis(d, o2, axis=1)
            ok = d_s[:, -1] <= guarantee[rows]
            good = rows[ok]
            out_ids[good] = np.take_along_axis(pids, o2, axis=1)[ok]
            out_d[good] = d_s[ok]
            resolved[good] = True

        rest = np.nonzero(~resolved)[0]
        if len(rest):
            out_ids[rest], out_d[rest] = self._topk_bruteforce(
                lon[rest], lat[rest])
        return out_ids, out_d

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["best_long"].to_numpy(zero_copy_only=False), dtype=np.float64)
        lat = np.asarray(batch["best_lat"].to_numpy(zero_copy_only=False), dtype=np.float64)
        k = min(self.k, len(self.index.ids))
        ok = ~(np.isnan(lon) | np.isnan(lat)) & (k > 0)
        if ok.any():
            fn = self._topk_grid if self.use_grid else self._topk_bruteforce
            ids_ok, d_ok = fn(lon[ok], lat[ok])
        else:
            ids_ok = np.empty((0, k), dtype=np.int64)
            d_ok = np.empty((0, k), dtype=np.float64)

        counts = np.where(ok, k, 0).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        # ok rows appear in order, each contributing exactly k entries
        flat_ids = ids_ok.ravel()
        flat_d = d_ok.ravel()
        batch = batch.append_column(
            "knn_ids", pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                                pa.array(flat_ids, pa.int64())))
        batch = batch.append_column(
            "knn_dists", pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                                  pa.array(flat_d, pa.float64())))
        return batch
