"""Gazetteer broadcast state.

One immutable columnar index built on the driver, shipped inside the
fused stage the driver builds from it, and loaded once per worker with
that stage (``stages/stateful.stateful_map_batches``). Every field is a
NumPy or Arrow array (plus the short list of source names), so the
index pickles as a fixed set of out-of-band buffers at any entry count
and each worker maps it zero-copy from the object store. This replaces
the reference's four per-row HTTP geocoding services
(query_funcs.py:293-506) with an offline lookup; the ``source`` column
keeps the multi-provider shape so the wide output layout survives.

Names are tokenized by the page kernel itself
(``functions/text.token_runs``: [A-Za-z0-9] runs, ASCII-folded), so a
non-ASCII letter is a separator on both sides even where its Unicode
lower case is ASCII ("İzmir" is the one token ``zmir``, never
``i zmir``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from batch_geocode_ray.functions.geo import diag_buffer_km
from batch_geocode_ray.functions.text import token_runs


def _encode(col: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(sorted distinct non-null values, int32 code per row; -1 = null)."""
    vocab = pc.drop_null(pc.unique(col))
    vocab = vocab.take(pc.sort_indices(vocab))
    code = pc.index_in(col, value_set=vocab).fill_null(-1)
    return vocab, np.asarray(code.to_numpy(zero_copy_only=False), dtype=np.int32)


@dataclass
class GazetteerIndex:
    """Columnar gazetteer, one entry per row in ``gazetteer_id`` order,
    so an id's entry is ``np.searchsorted(ids, id)``. A point entry's
    bbox extent is degenerate at the point, so the extent and ``n_pts``
    are the one geometry of every entry.

    :meth:`from_table` raises ``ValueError`` naming the offending
    ``gazetteer_id``s for a rule the engine would otherwise break
    silently: a null name or one with no [A-Za-z0-9] token (it could
    never match), a NaN/inf ``lat``/``lon`` (its NaN buffer fails
    vetting), a bbox that is neither all null nor all finite, a null
    ``source`` (it has no output columns), or a duplicate
    ``gazetteer_id`` (one entry would shadow the other).
    """

    ids: np.ndarray            # int64 gazetteer_id per entry, increasing
    name: pa.StringArray
    type: pa.StringArray
    # bbox extent; a point entry's is degenerate at the point
    min_lon: np.ndarray
    min_lat: np.ndarray
    max_lon: np.ndarray
    max_lat: np.ndarray
    n_pts: np.ndarray          # int8 points pooled into best: 2 corners or 1 point
    cc_code: np.ndarray        # int32 index into cc_vocab; -1 = missing
    cc_vocab: pa.StringArray   # sorted
    population: np.ndarray     # int64
    source_idx: np.ndarray     # int32 index into sources
    sources: list[str]         # sorted distinct sources
    buffer_km: np.ndarray      # bbox-diagonal buffer (0 for points)

    @classmethod
    def from_table(cls, table: pa.Table) -> "GazetteerIndex":
        def f64(col):
            return np.asarray(table[col].to_numpy(zero_copy_only=False), dtype=np.float64)

        ids = np.asarray(table["gazetteer_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        if (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids, kind="stable")
            table, ids = table.take(order), ids[order]
        name = table["name"].combine_chunks().cast(pa.string())
        lat, lon = f64("lat"), f64("lon")
        bb_n, bb_s, bb_e, bb_w = f64("bb_n"), f64("bb_s"), f64("bb_e"), f64("bb_w")
        cc_vocab, cc_code = _encode(table["cc"].combine_chunks())
        src_vocab, source_idx = _encode(table["source"].combine_chunks())

        def reject(bad, what):
            if bad.any():
                raise ValueError(f"GazetteerIndex: gazetteer_id "
                                 f"{np.unique(ids[bad]).tolist()} {what}")

        reject(np.diff(token_runs(name).row_first) == 0,
               "has a null name or one with no [A-Za-z0-9] token")
        reject(~(np.isfinite(lat) & np.isfinite(lon)), "has a NaN/inf lat/lon")
        box = np.stack([bb_n, bb_s, bb_e, bb_w])
        reject(~np.isnan(box).all(axis=0) & ~np.isfinite(box).all(axis=0),
               "has a bbox that is neither all null nor all finite")
        reject(source_idx < 0, "has a null source")
        reject(np.r_[False, ids[1:] == ids[:-1]], "is duplicated")

        # Entry buffer: bbox diagonal (reference get_diag_buffer,
        # query_funcs.py:272-278); a point entry's bbox is the point -> 0.
        has_box = ~np.isnan(bb_n)
        min_lon = np.where(has_box, bb_w, lon)
        min_lat = np.where(has_box, bb_s, lat)
        max_lon = np.where(has_box, bb_e, lon)
        max_lat = np.where(has_box, bb_n, lat)

        return cls(
            ids=ids, name=name, type=table["type"].combine_chunks().cast(pa.string()),
            min_lon=min_lon, min_lat=min_lat, max_lon=max_lon, max_lat=max_lat,
            n_pts=np.where(has_box, 2, 1).astype(np.int8),
            cc_code=cc_code, cc_vocab=cc_vocab,
            population=np.asarray(table["population"].to_numpy(zero_copy_only=False),
                                  dtype=np.int64),
            source_idx=source_idx,
            # one Python string per distinct source: they name output columns
            sources=[s.as_py() for s in src_vocab],
            buffer_km=diag_buffer_km(min_lon, min_lat, max_lon, max_lat),
        )
