"""Gazetteer broadcast state.

One immutable, NumPy-backed index built on the driver, `ray.put` once,
and materialized once per worker when the worker-cached fused stage is
constructed (zero-copy for the numeric arrays via the object store). This replaces the reference's
four per-row HTTP geocoding services (query_funcs.py:293-506) with an
offline lookup; the ``source`` column keeps the multi-provider shape so
the wide output layout survives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.geo import diag_buffer_km

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def normalize_phrase(name: str) -> tuple[str, ...]:
    """Canonical token form shared by gazetteer names and page text:
    [A-Za-z0-9] runs, ASCII-folded like the engine's page tokens
    (``functions/text``), so a non-ASCII letter is a separator on both
    sides even where its Unicode lower case is ASCII ("İzmir" ->
    ``("zmir",)``, never ``("i", "zmir")``)."""
    return tuple(t.lower() for t in _TOKEN_RE.findall(name))


@dataclass
class GazetteerIndex:
    """Columnar gazetteer keyed by dense entry index (== gazetteer_id in
    the fixtures; arbitrary ids are remapped).

    :meth:`from_table` raises ``ValueError`` naming the offending
    ``gazetteer_id``s for a rule the resolver would otherwise break
    silently: a NaN/inf ``lat``/``lon`` (its NaN buffer fails vetting),
    a bbox that is neither all null nor all finite, or a duplicate
    ``gazetteer_id`` (one entry would shadow the other).
    """

    ids: np.ndarray            # int64 original gazetteer_id per entry
    names: list[str]
    lat: np.ndarray
    lon: np.ndarray
    bb_n: np.ndarray           # NaN when the entry is a point
    bb_s: np.ndarray
    bb_e: np.ndarray
    bb_w: np.ndarray
    cc_code: np.ndarray        # int32 index into cc_vocab; -1 = missing
    cc_vocab: list[str]
    types: list[str]
    population: np.ndarray     # int64
    source_idx: np.ndarray     # int32 index into sources
    sources: list[str]
    buffer_km: np.ndarray      # precomputed bbox-diagonal buffer (0 for points)
    phrases: list[tuple[str, ...]] = field(default_factory=list)

    @classmethod
    def from_table(cls, table: pa.Table) -> "GazetteerIndex":
        ids = np.asarray(table["gazetteer_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        names = table["name"].to_pylist()
        lat = np.asarray(table["lat"].to_numpy(zero_copy_only=False), dtype=np.float64)
        lon = np.asarray(table["lon"].to_numpy(zero_copy_only=False), dtype=np.float64)

        def f64(col):
            return np.asarray(table[col].to_numpy(zero_copy_only=False), dtype=np.float64)

        bb_n, bb_s, bb_e, bb_w = f64("bb_n"), f64("bb_s"), f64("bb_e"), f64("bb_w")

        def reject(bad, what):
            if bad.any():
                raise ValueError(f"GazetteerIndex: gazetteer_id "
                                 f"{np.unique(ids[bad]).tolist()} {what}")

        reject(~(np.isfinite(lat) & np.isfinite(lon)), "has a NaN/inf lat/lon")
        box = np.stack([bb_n, bb_s, bb_e, bb_w])
        reject(~np.isnan(box).all(axis=0) & ~np.isfinite(box).all(axis=0),
               "has a bbox that is neither all null nor all finite")
        srt = np.sort(ids)
        reject(np.isin(ids, srt[1:][srt[1:] == srt[:-1]]), "is duplicated")
        ccs = table["cc"].to_pylist()
        cc_vocab = sorted({c for c in ccs if c is not None})
        cc_map = {c: i for i, c in enumerate(cc_vocab)}
        cc_code = np.array([cc_map.get(c, -1) for c in ccs], dtype=np.int32)
        types = table["type"].to_pylist()
        population = np.asarray(table["population"].to_numpy(zero_copy_only=False), dtype=np.int64)
        src = table["source"].to_pylist()
        sources = sorted(set(src))
        src_map = {s: i for i, s in enumerate(sources)}
        source_idx = np.array([src_map[s] for s in src], dtype=np.int32)

        # Entry buffer: bbox diagonal (reference get_diag_buffer,
        # query_funcs.py:272-278); a point entry's bbox is the point -> 0.
        has_box = ~np.isnan(bb_n)
        min_lon = np.where(has_box, bb_w, lon)
        min_lat = np.where(has_box, bb_s, lat)
        max_lon = np.where(has_box, bb_e, lon)
        max_lat = np.where(has_box, bb_n, lat)
        buffer_km = diag_buffer_km(min_lon, min_lat, max_lon, max_lat)

        return cls(
            ids=ids, names=names, lat=lat, lon=lon,
            bb_n=bb_n, bb_s=bb_s, bb_e=bb_e, bb_w=bb_w,
            cc_code=cc_code, cc_vocab=cc_vocab, types=types,
            population=population, source_idx=source_idx, sources=sources,
            buffer_km=buffer_km,
            phrases=[normalize_phrase(n) for n in names],
        )

    def bbox_arrays(self):
        """(min_lon, min_lat, max_lon, max_lat) with point entries
        degenerate at the point."""
        has_box = ~np.isnan(self.bb_n)
        return (
            np.where(has_box, self.bb_w, self.lon),
            np.where(has_box, self.bb_s, self.lat),
            np.where(has_box, self.bb_e, self.lon),
            np.where(has_box, self.bb_n, self.lat),
        )
