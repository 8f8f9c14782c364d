"""Mention resolution + vetting + wide projection — vectorized.

Semantics ported (NOT code) from the reference:

  * per-source top-N ranking       — reference keeps the first
    ``results_per_app`` results per service in API order
    (query_funcs.py:376,428,455,494). Offline deterministic analogue:
    distinct gazetteer entries per (page, source) ranked by
    population DESC, gazetteer_id ASC.
  * country filter                 — candidates restricted to the
    page's country prior; a candidate with NO country code is KEPT
    (the reference's OSM keep-unsure rule, query_funcs.py:411-422).
  * vetting + composite best      — WebGeocodingManager.vet
    (query_funcs.py:193-219): drop each result whose bbox-diagonal
    buffer exceeds ``max_buffer``; pool ALL surviving results' points
    (bbox entries contribute their two corners, point entries one
    point); if the pooled bbox diagonal is itself <= max_buffer, emit a
    composite ``best`` with name 'Vetted' and type
    'Composite of {n} geocoded locations'.
  * wide output                   — ``{prefix}_{suffix}`` columns with
    prefix order = case-insensitive sort with 'best' first
    (batch_geocode.py:29-38) and suffixes
    ['name','type','lat','long','buffer'] (utilities.py:42-45); absent
    combinations are null (the reference's reindex-NaN columns), and
    the intermediate bb_n/bb_s/bb_e/bb_w never reach the output.

Everything below is NumPy over flattened Arrow list columns — there is
no per-row Python in this stage, and the resolver keeps no per-entry
array of its own: the index (``state/gazetteer.py``) holds each fact
once. A call finds each mention's entry by one ``searchsorted`` of the
index's increasing ids, maps ``lang`` to its prior row with one
``pc.index_in``, gathers the extent and ``n_pts`` of its surviving top
candidates to derive their pooled points and centroids, and fills each
``{source}{rank}`` prefix with one ``take`` of a per-candidate
``{name, type, lat, long, buffer}`` record batch, so its cost follows
the batch's candidates, not the gazetteer's size. Rows keep their
original ``{source}{rank}`` key even when a higher-ranked result is
vetted out (the reference nulls GM1 but keeps GM2's key, it does not
renumber).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from batch_geocode_ray.config import GEOCODING_SUFFIXES, PipelineConfig
from batch_geocode_ray.functions.geo import diag_buffer_km
from batch_geocode_ray.state.gazetteer import GazetteerIndex


class MentionResolver:
    """Resolve layer of the fused stage: mentions -> vetted wide
    geocode columns (the ``mentions`` column is dropped).

    ``lang_cc_prior``: dict lang -> frozenset of ISO2 codes; a
    candidate passes when its cc is missing, the page lang has no
    prior, or cc ∈ prior[lang] (``{}`` keeps every candidate).
    ``keep_columns`` are the input columns passed through.
    """

    def __init__(self, gazetteer: GazetteerIndex, config: PipelineConfig,
                 lang_cc_prior: dict[str, frozenset[str]],
                 keep_columns: list[str]):
        self.gaz = gaz = gazetteer
        self.cfg = config
        self.keep_columns = keep_columns

        # cc prior as a dense bool matrix (n_langs x n_ccs)
        langs = sorted(lang_cc_prior)
        self.prior_langs = pa.array(langs, pa.string())
        self.prior_matrix = np.zeros((len(langs), len(gaz.cc_vocab)), dtype=bool)
        for li, lang in enumerate(langs):
            cc = pc.index_in(pa.array(sorted(lang_cc_prior[lang]), pa.string()),
                             value_set=gaz.cc_vocab).drop_null()
            self.prior_matrix[li, np.asarray(cc, dtype=np.int64)] = True

        # Static wide layout: prefixes from config (sources x ranks +
        # best), ordered exactly like reference batch_geocode.py:29-34.
        cfg = self.cfg
        self.prefixes = cfg.wide_prefixes()
        # map (source_idx, rank) -> prefix string
        self.source_rank_prefix = {
            (si, r): f"{s}{r + 1}"
            for si, s in enumerate(gaz.sources)
            for r in range(cfg.results_per_app)
        }

    # ------------------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        gaz = self.gaz
        cfg = self.cfg
        n = batch.num_rows

        mentions = batch["mentions"].combine_chunks()
        flat = mentions.flatten()
        row_of_mention = np.asarray(mentions.value_parent_indices())
        gids = np.asarray(flat.field("gazetteer_id"))

        # gazetteer_id -> entry (the index is in gazetteer_id order)
        entry = np.searchsorted(gaz.ids, gids)

        # distinct (row, entry): many occurrences of one place on a page
        # resolve to one candidate (reference: one API result per place)
        key = row_of_mention.astype(np.int64) * np.int64(len(gaz.ids) + 1) + entry
        uniq_key = np.unique(key)
        row_idx = (uniq_key // np.int64(len(gaz.ids) + 1)).astype(np.int64)
        cand = (uniq_key % np.int64(len(gaz.ids) + 1)).astype(np.int64)

        # --- country filter (J2)
        if n > 0:
            lang_idx = np.full(n, -1, dtype=np.int64)
            if "lang" in batch.column_names:
                lang_idx = np.asarray(
                    pc.index_in(batch["lang"], value_set=self.prior_langs)
                    .fill_null(-1).to_numpy(zero_copy_only=False), dtype=np.int64)
            cand_cc = gaz.cc_code[cand]
            li = lang_idx[row_idx]
            keep = (cand_cc < 0) | (li < 0)
            both = (~keep)
            keep[both] = self.prior_matrix[li[both], cand_cc[both]]
            row_idx, cand = row_idx[keep], cand[keep]

        # --- per-(row, source) top-N rank: population DESC, gid ASC
        # (entry order is gid order)
        src = gaz.source_idx[cand].astype(np.int64)
        order = np.lexsort((cand, -gaz.population[cand], src, row_idx))
        row_s, src_s, cand_s = row_idx[order], src[order], cand[order]
        new_group = np.ones(len(order), dtype=bool)
        if len(order) > 1:
            new_group[1:] = (row_s[1:] != row_s[:-1]) | (src_s[1:] != src_s[:-1])
        group_start = np.maximum.accumulate(np.where(new_group, np.arange(len(order)), 0))
        rank = np.arange(len(order)) - group_start
        top = rank < cfg.results_per_app
        row_t, src_t, cand_t, rank_t = row_s[top], src_s[top], cand_s[top], rank[top]

        # --- vet: drop candidates whose own buffer exceeds max_buffer
        buf_t = gaz.buffer_km[cand_t]
        valid = buf_t <= cfg.max_buffer
        row_t, src_t, rank_t, cand_t, buf_t = (
            a[valid] for a in (row_t, src_t, rank_t, cand_t, buf_t))

        # --- pooled composite best over surviving candidates' POINTS
        # (reference pools raw points_list then nanmean / min / max,
        # query_funcs.py:211-217): a bbox entry contributes its two
        # corners, a point entry its degenerate extent's one point; the
        # candidate centroid is their mean (bbox centroid, or the point)
        lo_lon, lo_lat = gaz.min_lon[cand_t], gaz.min_lat[cand_t]
        hi_lon, hi_lat = gaz.max_lon[cand_t], gaz.max_lat[cand_t]
        pts_t = gaz.n_pts[cand_t]
        s_lon = np.where(pts_t == 2, lo_lon + hi_lon, lo_lon)
        s_lat = np.where(pts_t == 2, lo_lat + hi_lat, lo_lat)
        p_min_lon = np.full(n, np.inf); p_min_lat = np.full(n, np.inf)
        p_max_lon = np.full(n, -np.inf); p_max_lat = np.full(n, -np.inf)
        np.minimum.at(p_min_lon, row_t, lo_lon)
        np.minimum.at(p_min_lat, row_t, lo_lat)
        np.maximum.at(p_max_lon, row_t, hi_lon)
        np.maximum.at(p_max_lat, row_t, hi_lat)
        sum_lon = np.bincount(row_t, s_lon, n)
        sum_lat = np.bincount(row_t, s_lat, n)
        n_pts = np.bincount(row_t, pts_t, n)
        num_valid = np.bincount(row_t, minlength=n)

        with np.errstate(invalid="ignore", divide="ignore"):
            best_lon = np.where(n_pts > 0, sum_lon / np.maximum(n_pts, 1), np.nan)
            best_lat = np.where(n_pts > 0, sum_lat / np.maximum(n_pts, 1), np.nan)
        pooled_buffer = np.full(n, np.nan)
        pooled_rows = n_pts > 0
        pooled_buffer[pooled_rows] = diag_buffer_km(
            p_min_lon[pooled_rows], p_min_lat[pooled_rows],
            p_max_lon[pooled_rows], p_max_lat[pooled_rows])
        best_mask = pooled_rows & (pooled_buffer <= cfg.max_buffer)

        # --- wide columns: one take of the surviving candidates' table
        # per prefix, through a row -> candidate index that is null
        # without one
        cands = pa.RecordBatch.from_arrays(
            [gaz.name.take(cand_t), gaz.type.take(cand_t),
             pa.array(s_lat / pts_t), pa.array(s_lon / pts_t), pa.array(buf_t)],
            names=GEOCODING_SUFFIXES)
        out_cols: dict[str, pa.Array] = {}
        for (si, r), prefix in self.source_rank_prefix.items():
            m = np.flatnonzero((src_t == si) & (rank_t == r))
            pick = np.full(n, -1, dtype=np.int64)
            pick[row_t[m]] = m
            cols = cands.take(pa.array(pick, mask=pick < 0))
            for suffix, col in zip(GEOCODING_SUFFIXES, cols.columns):
                out_cols[f"{prefix}_{suffix}"] = col

        # best_type: one "Composite of {n} ..." string per distinct count
        uniq, inv = np.unique(num_valid[best_mask], return_inverse=True)
        composite = pa.array([f"Composite of {int(v)} geocoded locations" for v in uniq],
                             pa.string())
        pick = np.full(n, -1, dtype=np.int64)
        pick[best_mask] = inv
        no_best = ~best_mask
        out_cols["best_name"] = pc.if_else(best_mask, "Vetted", pa.scalar(None, pa.string()))
        out_cols["best_type"] = composite.take(pa.array(pick, mask=pick < 0))
        out_cols["best_lat"] = pa.array(best_lat, pa.float64(), mask=no_best)
        out_cols["best_long"] = pa.array(best_lon, pa.float64(), mask=no_best)
        out_cols["best_buffer"] = pa.array(pooled_buffer, pa.float64(), mask=no_best)

        # assemble: passthrough columns + wide columns in reference order
        result = {c: batch[c] for c in self.keep_columns}
        for prefix in self.prefixes:
            for suffix in GEOCODING_SUFFIXES:
                col = f"{prefix}_{suffix}"
                result[col] = out_cols.get(col, _null_col(n, suffix))
        return pa.table(result)


def _null_col(n: int, suffix: str) -> pa.Array:
    typ = pa.string() if suffix in ("name", "type") else pa.float64()
    return pa.nulls(n, typ)
