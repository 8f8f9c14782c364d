"""The traced run: per-layer numbers, measured from outside the engine.

Fusion hides the six per-page layers inside one Ray Data operator, so
the traced run drives the same page batches in-process through the
layers' public callables, in pipeline order, and records one span per
call (spans of one batch share its id; the fused span is their parent)
plus the counts each layer's returned arrays carry. The chained output
must equal the Ray pipeline's rows. The other layers (read and sink,
checkpoint loop, tile aggregates, exchange queries) are timed around
their public functions; the CLI job's internals are timed by wrapping
``run_resumable`` and ``build_tile_aggregates_from_pages`` while
``batch_geocode_ray.run.main`` runs.

Every traced run measures every layer: the fused layers and the read
and sink over the workload's pages, the CLI job and the exchange queries
over small probe inputs (``PROBE_JOB_SHARDS``, ``PROBE_TABLE_SCALE``).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from workloads import (
    EXCHANGE_QUERIES,
    PROBE_JOB_SHARDS,
    TILE_RESOLUTIONS,
    check_queries,
    job_argv,
    run_job,
    run_pipeline,
    run_query,
)

FUSED_LAYERS = ["extract", "matcher", "resolve", "cells", "pip", "knn"]
IN_PROCESS_BATCH_ROWS = 4096


class SpanLog:
    """Spans kept in memory: name, batch id, parent span, start, end and
    the counts recorded at the same boundary."""

    def __init__(self):
        self.spans: list[dict] = []

    def open(self, name: str, batch: int, parent: int | None = None) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "batch": batch,
                           "parent": parent, "start": time.perf_counter(),
                           "end": None})
        return len(self.spans) - 1

    def close(self, span: int, **counts) -> None:
        self.spans[span]["end"] = time.perf_counter()
        self.spans[span].update(counts)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = (out.get(s["name"], 0.0) + s["end"] - s["start"]
                              - covered.get(s["id"], 0.0))
        return out

    def total(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class FusedLayers:
    """The fused stage's layers, built from the world tables one
    constructor at a time so each build is timed."""

    def __init__(self, world):
        from batch_geocode_ray.config import PipelineConfig
        from batch_geocode_ray.sources.fixtures import LANG_CC_PRIOR
        from batch_geocode_ray.stages.knn import FacilityIndex, KNNFacilities
        from batch_geocode_ray.stages.matcher import GazetteerMatcher
        from batch_geocode_ray.stages.pip import PIPJoin, PolygonIndex
        from batch_geocode_ray.stages.resolve import MentionResolver
        from batch_geocode_ray.state.gazetteer import GazetteerIndex

        gaz, polys, fac = world
        self.build_s = {}
        gaz_index, self.build_s["gazetteer.index_s"] = _timed(
            GazetteerIndex.from_table, gaz)
        self.cfg = PipelineConfig(sources=gaz_index.sources)
        self.matcher, self.build_s["matcher.build_s"] = _timed(
            GazetteerMatcher, gaz_index)
        self.resolver, self.build_s["resolve.build_s"] = _timed(
            MentionResolver, gaz_index, config=self.cfg,
            lang_cc_prior=LANG_CC_PRIOR, keep_columns=["url", "warc_ts", "lang"])
        self.pip, self.build_s["pip.build_s"] = _timed(
            lambda: PIPJoin(PolygonIndex(polys)))
        self.knn, self.build_s["knn.build_s"] = _timed(
            lambda: KNNFacilities(FacilityIndex(fac), k=self.cfg.knn_k, use_grid=True))
        self.gaz_index = gaz_index
        self.lang_cc_prior = LANG_CC_PRIOR

    def fused_stage(self):
        """The engine's own fused callable over the same built indexes."""
        from batch_geocode_ray.pipelines.geocode import GeocodeFusedStage

        return GeocodeFusedStage(self.gaz_index, self.cfg,
                                 lang_cc_prior=self.lang_cc_prior,
                                 polygons=self.pip.index,
                                 facilities=self.knn.index, with_knn=True)

    def traced_call(self, batch: pa.Table, bid: int, log: SpanLog) -> pa.Table:
        from batch_geocode_ray.pipelines.geocode import encode_cells_stage
        from batch_geocode_ray.stages.extract import extract_text_stage

        fused = log.open("fused", bid)
        s = log.open("extract", bid, fused)
        b = extract_text_stage(batch)
        log.close(s, pages=batch.num_rows,
                  html_bytes=pc.sum(pc.binary_length(batch["html"])).as_py() or 0)
        s = log.open("matcher", bid, fused)
        b = self.matcher(b)
        n_mentions = pc.list_value_length(b["mentions"]).fill_null(0)
        log.close(s, mentions=pc.sum(n_mentions).as_py() or 0,
                  pages_with_mentions=pc.sum(pc.greater(n_mentions, 0)).as_py() or 0)
        s = log.open("resolve", bid, fused)
        b = self.resolver(b)
        best = ~np.isnan(b["best_lat"].to_numpy(zero_copy_only=False).astype(np.float64))
        log.close(s, best_pages=int(best.sum()))
        s = log.open("cells", bid, fused)
        b = encode_cells_stage(b, self.cfg.hex_resolutions, self.cfg.s2_level)
        log.close(s, points=len(b["hex_cell_r7"]) - b["hex_cell_r7"].null_count)
        s = log.open("pip", bid, fused)
        b = self.pip(b)
        log.close(s, points=int(best.sum()),
                  hits=pc.sum(pc.greater_equal(b["admin_id"], 0)).as_py() or 0,
                  leaf_visits=self.pip.index.last_leaf_visits)
        s = log.open("knn", bid, fused)
        b = self.knn(b)
        log.close(s, points=pc.sum(pc.greater(
            pc.list_value_length(b["knn_ids"]), 0)).as_py() or 0)
        log.close(fused, pages=batch.num_rows)
        return b


def _page_batches(files: list[str]) -> list[pa.Table]:
    """The pipeline's read columns (no oracle ``text``), in 4096-row batches."""
    table = pa.concat_tables([pq.read_table(f) for f in files]).drop_columns(["text"])
    return [pa.Table.from_batches([rb])
            for rb in table.to_batches(max_chunksize=IN_PROCESS_BATCH_ROWS)]


def _trace_fused(fused: FusedLayers, files: list[str], log: SpanLog,
                 tally) -> tuple[dict, pa.Table]:
    outs = []
    batches = _page_batches(files)
    stage = fused.fused_stage()
    stage(batches[0])  # first-call costs belong to neither side
    # alternate which side runs a batch first, so cache warmth from the
    # other side's call favours neither
    untraced_s = 0.0
    for i, b in enumerate(batches):
        if i % 2:
            chained = fused.traced_call(b, i, log)
        plain, dt = _timed(stage, b)
        untraced_s += dt
        if not i % 2:
            chained = fused.traced_call(b, i, log)
        tally.check(chained.equals(plain),
                    f"traced batch {i} differs from GeocodeFusedStage")
        outs.append(chained)

    self_s = log.self_times()
    pages = log.total("fused", "pages")
    fused_s = sum(s["end"] - s["start"] for s in log.spans if s["name"] == "fused")
    m = {f"{name}.us_per_page": self_s[name] / pages * 1e6 for name in FUSED_LAYERS}
    mentions_pages = log.total("matcher", "pages_with_mentions")
    best_pages = log.total("resolve", "best_pages")
    pip_points = log.total("pip", "points")
    pip_hits = log.total("pip", "hits")
    m.update({
        "extract.html_mb_per_s": log.total("extract", "html_bytes") / 1e6 / self_s["extract"],
        "matcher.mentions": log.total("matcher", "mentions"),
        "matcher.pages_with_mentions": mentions_pages,
        "resolve.best_pages": best_pages,
        "resolve.best_ratio": best_pages / mentions_pages if mentions_pages else 0.0,
        "cells.points": log.total("cells", "points"),
        "pip.points": pip_points,
        "pip.hits": pip_hits,
        "pip.hit_ratio": pip_hits / pip_points if pip_points else 0.0,
        "pip.leaf_visits": log.total("pip", "leaf_visits"),
        "knn.points": log.total("knn", "points"),
        "fused.us_per_page": fused_s / pages * 1e6,
        "trace.layer_coverage": sum(self_s[n] for n in FUSED_LAYERS) / fused_s,
        "trace.overhead_frac": fused_s / untraced_s - 1.0,
    })
    return m, pa.concat_tables(outs)


def _trace_read_write(files: list[str], out: pa.Table, out_dir: str) -> dict:
    import ray.data as rd

    cols = [c for c in pq.read_schema(files[0]).names if c != "text"]
    _, read_s = _timed(lambda: rd.read_parquet(files, columns=cols).materialize())
    shutil.rmtree(out_dir, ignore_errors=True)
    _, write_s = _timed(lambda: rd.from_arrow(out).write_parquet(out_dir))
    write_bytes = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    return {"geocode.read_s": read_s, "geocode.write_s": write_s,
            "geocode.write_mb": write_bytes / 1e6}


@contextlib.contextmanager
def _wrapped(module, name: str, make_wrapper):
    orig = getattr(module, name)
    setattr(module, name, make_wrapper(orig))
    try:
        yield
    finally:
        setattr(module, name, orig)


def _trace_job(argv: list[str], out_dir: str, seed: int, tally) -> dict:
    """The CLI job with its checkpoint loop and tile builds timed."""
    from batch_geocode_ray import run
    from batch_geocode_ray.state import checkpoint

    calls: list[tuple[float, list]] = []
    tiles: list[tuple[int, float, int]] = []

    def timed_resumable(orig):
        def wrapper(*args, **kwargs):
            results, wall = _timed(orig, *args, **kwargs)
            calls.append((wall, results))
            return results
        return wrapper

    def timed_tiles(orig):
        def wrapper(page_ds, res):
            ds, wall = _timed(lambda: orig(page_ds, res).materialize())
            tiles.append((res, wall, ds.count()))
            return ds
        return wrapper

    with _wrapped(checkpoint, "run_resumable", timed_resumable), \
            _wrapped(run, "build_tile_aggregates_from_pages", timed_tiles):
        clean_s, resume_s = run_job(argv, out_dir, seed, tally)
    (_, cleaned), (resume_wall, resumed) = calls
    computed = [r for r in resumed if not r.skipped]
    m = {
        "job.clean_s": clean_s,
        "job.resume_s": resume_s,
        "checkpoint.partition_p50_s": statistics.median(r.wall_s for r in cleaned),
        "checkpoint.partitions_computed": len(computed),
        "checkpoint.partitions_skipped": len(resumed) - len(computed),
        "checkpoint.verify_s": resume_wall - sum(r.wall_s for r in computed),
        "aggregates.tile_rows": sum(n for _, _, n in tiles[:len(TILE_RESOLUTIONS)]),
    }
    for res, wall, _ in tiles[:len(TILE_RESOLUTIONS)]:
        m[f"aggregates.tiles_r{res}_s"] = wall
    return m


def _trace_queries(tables_dir: str, tally) -> dict:
    m, results = {}, {}
    for name in EXCHANGE_QUERIES:
        results[name], m[f"queries.{name}_s"] = _timed(run_query, name, tables_dir)
        m[f"queries.{name}_rows"] = results[name].num_rows
    check_queries(results, tables_dir, tally)
    return m


def trace_run(ctx) -> tuple[dict, list[dict]]:
    """Every per-layer metric for ``ctx.workload``; returns the metrics
    and the span log."""
    wl, inputs = ctx.workload, ctx.inputs
    files = inputs.page_files()
    log = SpanLog()
    fused = FusedLayers(ctx.world)
    m = dict(fused.build_s)
    fused_m, chained = _trace_fused(fused, files, log, ctx.tally)
    m.update(fused_m)

    ray_out = os.path.join(ctx.out_root, "pipeline")
    run_pipeline(files, ctx.world, ray_out)
    ctx.tally.check(chained.sort_by("url").equals(pq.read_table(ray_out).sort_by("url")),
                    "in-process chained rows differ from the Ray pipeline's")
    m.update(_trace_read_write(files, chained, os.path.join(ctx.out_root, "sink")))
    m.update(_trace_job(job_argv(inputs, wl, PROBE_JOB_SHARDS,
                                 os.path.join(ctx.out_root, "job")),
                        os.path.join(ctx.out_root, "job"), ctx.seed, ctx.tally))
    m.update(_trace_queries(ctx.tables_dir, ctx.tally))
    return m, log.spans
