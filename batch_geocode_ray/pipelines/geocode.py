"""The flagship end-to-end pipeline (SURVEY §3.4): one fused operator

    read_parquet(pages)
      -> GeocodeFusedStage, per batch:
           html_token_runs per row slice (html bytes -> token runs ->
             vocab codes; no text column)
           -> GazetteerMatcher.sliced_mentions (phrase windows, per batch)
           -> MentionResolver (vet + wide columns)
           -> cell encode (s2_cell + h3-style hex res 7/8/9)
           -> PIPJoin (broadcast polygon index)
           -> [optional] KNNFacilities (broadcast facility grid)
      -> write (page-level parquet) / build_tile_aggregates

The driver builds the stage; it runs as plain tasks, each worker
loading the built stage once (``stages/stateful.py``), so Ray fuses
Read->Map->Write into a single operator and the stage reaches full
cluster parallelism at once (a 30-actor pool measured ~10 s of spin-up:
960k pages ran 15.4 s under actors vs 4.2 s under cached tasks).

All pipeline builders are lazy — they return Datasets; the caller
consumes (write_parquet / iter_batches / to_pandas on small results).
None of them call ray.init().
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from batch_geocode_ray.config import PipelineConfig
from batch_geocode_ray.functions.cells import hex_cell, s2_cell
from batch_geocode_ray.functions.text import html_token_runs, row_slices
from batch_geocode_ray.sources.fixtures import LANG_CC_PRIOR
from batch_geocode_ray.stages.aggregates import tile_aggregate
from batch_geocode_ray.stages.extract import verify_html_tokens
from batch_geocode_ray.stages.knn import FacilityIndex, KNNFacilities
from batch_geocode_ray.stages.matcher import GazetteerMatcher
from batch_geocode_ray.stages.pip import PIPJoin, PolygonIndex
from batch_geocode_ray.stages.resolve import MentionResolver
from batch_geocode_ray.stages.stateful import stateful_map_batches
from batch_geocode_ray.state.gazetteer import GazetteerIndex


def encode_cells_stage(batch: pa.Table, resolutions=(7, 8, 9),
                       s2_level: int = 12) -> pa.Table:
    """Stateless cell encoding of the vetted best point
    (``best_long``/``best_lat``). Only rows with a best point are
    encoded; the others get null cells."""
    lon = np.asarray(batch["best_long"].to_numpy(zero_copy_only=False), dtype=np.float64)
    lat = np.asarray(batch["best_lat"].to_numpy(zero_copy_only=False), dtype=np.float64)
    ok = ~(np.isnan(lon) | np.isnan(lat))
    lon, lat = lon[ok], lat[ok]

    def column(cells: np.ndarray) -> pa.Array:
        out = np.zeros(len(ok), np.int64)
        out[ok] = cells
        return pa.array(out, pa.int64(), mask=~ok)

    for res in resolutions:
        batch = batch.append_column(f"hex_cell_r{res}", column(hex_cell(lon, lat, res)))
    return batch.append_column("s2_cell", column(s2_cell(lon, lat, s2_level)))


class GeocodeFusedStage:
    """The whole per-page chain as one callable:
    extract + match -> resolve/vet -> cells -> PIP -> kNN.

    Extract and match are one pass: the html bytes become token runs
    and then gazetteer codes (``html_token_runs`` ->
    ``GazetteerMatcher.sliced_mentions``), equal to matching the
    extracted ``text`` but without building it. That byte kernel runs
    per zero-copy row slice of at most ``functions/text.SLICE_BYTES``
    html bytes, keeping only each slice's in-vocab runs, so its working
    set is cache-sized at any block size (tokenizing a block whole took
    ~9.3x its html bytes of NumPy memory). The phrase windows and every
    later layer run once per block: each call of them has a fixed cost.
    ``verify_extraction=True`` also extracts ``text`` and checks it
    against the input's and the html tokens against its tokens, slice
    by slice (``stages/extract.verify_html_tokens``); the output is the
    same either way.

    Fusing matters for throughput: with one operator per layer the
    streaming executor juggles six operators and none reaches high
    occupancy (measured ~4x parallelism on 32 CPUs); one fused stage
    gets near-linear scaling and no intermediate object-store round
    trips. Each layer's callable is still usable on its own.

    The driver builds the stage, matcher and resolver tables included,
    and ``stateful_map_batches`` ships it built: each worker loads it
    once from the object store and builds nothing. The page columns
    passed through are ``url``, ``warc_ts`` and ``lang``.
    """

    def __init__(self, gazetteer, config: PipelineConfig, lang_cc_prior,
                 polygons=None, facilities=None,
                 verify_extraction: bool = False, with_knn: bool = False):
        self.cfg = config
        self.verify_extraction = verify_extraction
        self.matcher = GazetteerMatcher(gazetteer)
        self.resolver = MentionResolver(
            gazetteer, config=config, lang_cc_prior=lang_cc_prior,
            keep_columns=["url", "warc_ts", "lang"])
        self.pip = PIPJoin(polygons) if polygons is not None else None
        # grid probe: vectorized per-cell candidate rings with exact
        # brute-force fallback — same output as brute force (pinned in
        # tests), measured 0.5 vs 9.8 us/page at F=1000
        self.knn = (KNNFacilities(facilities, k=config.knn_k, use_grid=True)
                    if with_knn and facilities is not None else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the byte kernel runs per row slice of at most SLICE_BYTES
        slices = map(html_token_runs, row_slices(batch["html"]))
        if self.verify_extraction:   # holds every slice's runs
            slices = list(slices)
            verify_html_tokens(batch, *slices)
        b = batch.drop_columns(["html"]).append_column(
            "mentions", self.matcher.sliced_mentions(slices))
        b = self.resolver(b)
        b = encode_cells_stage(b, self.cfg.hex_resolutions, self.cfg.s2_level)
        if self.pip is not None:
            b = self.pip(b)
        if self.knn is not None:
            b = self.knn(b)
        return b


def _read_num_blocks(paths) -> int | None:
    """Read-block count for the page table: Ray's default plan for
    many-small-file inputs lands on tiny blocks (one or two per file),
    and the fused stage then runs hundreds of ~200ms tasks whose fixed
    overheads cost ~2x throughput at 32 CPUs (measured 154k -> 345k
    pages/s at 960k pages by coarsening 384 -> 96 blocks). Target
    ~32 MB per block with a floor of 3 tasks/CPU so every core still
    gets several waves; None (Ray's default) when the input size can't
    be cheaply known (remote storage globs)."""
    import os

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    try:
        total = 0
        for p in ([paths] if isinstance(paths, str) else list(paths)):
            if os.path.isdir(p):
                for e in os.scandir(p):
                    total += e.stat().st_size
            elif os.path.isfile(p):
                total += os.path.getsize(p)
            else:
                return None
        if total <= 0:
            return None
    except OSError:
        return None
    blocks = total // (32 << 20)
    if blocks >= 3 * cpus:
        return blocks
    # Small input: the 3-tasks/CPU floor would slice it into sub-MB
    # blocks whose fixed task overhead dominates (measured q22 at 30k
    # pages/14MB: 96 blocks ran 1.6s vs ~0.9s at ~1MB blocks). Keep
    # blocks >= ~1MB; tiny inputs then run fewer-but-meatier tasks.
    return max(1, min(3 * cpus, total // (1 << 20)))


def build_geocode_pipeline(pages_path: str | list[str],
                           gazetteer: pa.Table,
                           admin_polygons: pa.Table | None = None,
                           facilities: pa.Table | None = None,
                           cfg: PipelineConfig | None = None,
                           verify_extraction: bool = False,
                           with_knn: bool = False) -> Dataset:
    """Page-level geocode Dataset: url/lang + wide geocode columns +
    cells + admin assignment (+ optional kNN), from one fused stage
    (:class:`GeocodeFusedStage`) run as worker-cached tasks, with the
    ``LANG_CC_PRIOR`` country filter. The wide columns cover the
    gazetteer's own sources whatever ``cfg.sources`` says: the resolver
    ranks by them, so every source that pools into ``best`` also gets
    its ``{source}{rank}_*`` columns."""
    gaz_index = GazetteerIndex.from_table(gazetteer)
    cfg = dataclasses.replace(cfg or PipelineConfig(),
                              sources=list(gaz_index.sources))

    # read only what the stage reads: the oracle `text` column is
    # recomputed from `html` and needed only when verifying extraction
    # (skipping it cuts ~30% of input decode + object-store bytes)
    cols = ["url", "warc_ts", "lang", "html"] + (
        ["text"] if verify_extraction else [])
    ds = rd.read_parquet(pages_path, columns=cols,
                         override_num_blocks=_read_num_blocks(pages_path))
    stage = GeocodeFusedStage(
        gaz_index, cfg, LANG_CC_PRIOR,
        polygons=(PolygonIndex(admin_polygons)
                  if admin_polygons is not None else None),
        facilities=(FacilityIndex(facilities)
                    if with_knn and facilities is not None else None),
        verify_extraction=verify_extraction, with_knn=with_knn)
    # batch_size=None: one batch per read block, which lets Ray fuse
    # ReadParquet->MapBatches->Write into ONE operator — no intermediate
    # object-store round trip (measured ~15% at 32 CPUs, and it is
    # exactly the memory traffic the bandwidth-bound 8->32 pair pays
    # for). Block grain is set by _read_num_blocks (~32 MB), so
    # per-batch memory stays bounded.
    return stateful_map_batches(ds, stage, batch_format="pyarrow",
                                batch_size=None)


def build_tile_aggregates(page_ds: Dataset, res: int = 7) -> Dataset:
    """Choropleth tile stats per hex cell at ``res``, sorted by cell for
    deterministic golden output (:func:`tile_aggregate`: one task for
    small tile counts, a bucket exchange plus a sort for large ones)."""
    import pyarrow.compute as pc

    cell_col = f"hex_cell_r{res}"
    with_cell = page_ds.map_batches(
        lambda b: b.filter(pc.is_valid(b[cell_col])), batch_format="pyarrow")
    return tile_aggregate(with_cell, cell_col)
