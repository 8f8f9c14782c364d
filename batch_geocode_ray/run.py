"""CLI job entry point — the engine's ``ray job submit`` surface
(SURVEY §3.4):

    ray job submit -- python -m batch_geocode_ray.run \
        --pages /data/pages --gazetteer /data/gazetteer.parquet \
        --polygons /data/admin.parquet --facilities /data/fac.parquet \
        --out /data/out --knn --tiles 7,8

Replaces the reference CLI (``python -m geocode.batch_geocode``,
reference geocode/batch_geocode.py:114-190) — same tunables
(``--results-per-app``/``-r``, ``--max-buffer``/``-b``), but the run is
distributed, checkpointed (per-partition lineage; rerun with the same
--out to resume) and emits Parquet + tile aggregates instead of one
CSV. ``--demo N`` synthesizes an N-page fixture world first.

This script OWNS its Ray session (guarded init), unlike the library.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

import ray

# A module global, not a local import, so the tile build can be wrapped
# by name (run.build_tile_aggregates_from_pages).
from batch_geocode_ray.pipelines.geocode import (
    build_tile_aggregates as build_tile_aggregates_from_pages,
)


def _digest(table: pa.Table | None) -> str:
    """Content digest of a broadcast input table (its Arrow IPC stream),
    so a checkpoint built over other gazetteer, polygon or facility rows
    never resumes."""
    if table is None:
        return "none"
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    return hashlib.sha256(sink.getvalue()).hexdigest()[:16]


# the package whose sources make up the engine digest
_ENGINE_ROOT = os.path.dirname(os.path.abspath(__file__))


def _engine_digest() -> str:
    """Digest of the engine that computes the pages: one sha256 over
    every ``.py`` source of the package (path and bytes, in sorted path
    order), so a checkpoint built by other engine code never resumes."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(_ENGINE_ROOT, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, _ENGINE_ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()[:16]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--pages", help="directory or glob of page parquet shards")
    p.add_argument("--gazetteer")
    p.add_argument("--polygons")
    p.add_argument("--facilities")
    p.add_argument("--out", required=True)
    p.add_argument("--demo", type=int, default=None,
                   help="generate an N-page synthetic world instead of real inputs")
    p.add_argument("-r", "--results-per-app", type=int, default=2)
    p.add_argument("-b", "--max-buffer", type=float, default=15.0)
    p.add_argument("--knn", action="store_true")
    p.add_argument("--tiles", default="7",
                   help="comma-separated hex resolutions for tile aggregates")
    p.add_argument("--files-per-partition", type=int, default=8)
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--csv-out", default=None,
                   help="ALSO write one reference-shaped wide CSV "
                        "(small outputs only; reference utilities.py:21-31)")
    p.add_argument("--query", default=None,
                   help="run ONE registry query (pipelines/queries.py "
                        "name, e.g. q15_ngram_dup_pairs) over --sf-dir "
                        "and write its result parquet to --out")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                   help="table directory for --query mode")
    args = p.parse_args(argv)

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
    from batch_geocode_ray import PipelineConfig, configure_for_throughput
    configure_for_throughput()

    if args.query:
        from batch_geocode_ray.pipelines.queries import QUERIES

        if args.query not in QUERIES:
            raise SystemExit(
                f"unknown query {args.query!r}; choose from "
                f"{', '.join(sorted(QUERIES))}")
        os.makedirs(args.out, exist_ok=True)
        stale = [f for f in os.listdir(args.out) if f.endswith(".parquet")]
        if stale:
            # a reused --out would mix old outputs in and over-count
            # rows; refused before the query, which may already run Ray
            # work while it is built
            raise SystemExit(
                f"--out {args.out!r} already holds {len(stale)} parquet "
                "file(s); pass an empty/new directory")
        QUERIES[args.query](args.sf_dir).write_parquet(args.out)
        n = sum(pq.read_metadata(os.path.join(args.out, f)).num_rows
                for f in os.listdir(args.out) if f.endswith(".parquet"))
        print(json.dumps({"query": args.query, "rows": n,
                          "out": args.out}))
        if owns_ray:
            ray.shutdown()
        return

    from batch_geocode_ray.pipelines.geocode import build_geocode_pipeline
    from batch_geocode_ray.state.checkpoint import load_lineage, run_resumable

    if args.demo is not None:
        from batch_geocode_ray.sources.fixtures import (
            ensure_fixture_dir,
            generate_world,
        )
        d = ensure_fixture_dir(args.demo)
        world = generate_world()
        pages_glob = f"{d}/pages/*.parquet"
        gaz, polys, fac = world.gazetteer, world.admin_polygons, world.facilities
    else:
        if not (args.pages and args.gazetteer):
            p.error("--pages and --gazetteer required (or use --demo N)")
        pages_glob = (args.pages if any(c in args.pages for c in "*?[")
                      else f"{args.pages}/*.parquet")
        gaz = pq.read_table(args.gazetteer)
        polys = pq.read_table(args.polygons) if args.polygons else None
        fac = pq.read_table(args.facilities) if args.facilities else None

    cfg = PipelineConfig(results_per_app=args.results_per_app,
                         max_buffer=args.max_buffer)
    files = sorted(glob.glob(pages_glob))
    if not files:
        p.error(f"no input files match {pages_glob}")

    def build(partition_files):
        return build_geocode_pipeline(
            partition_files, gaz, admin_polygons=polys, facilities=fac,
            cfg=cfg, with_knn=args.knn)

    tag = (f"geocode-v1-r{args.results_per_app}-b{args.max_buffer}-knn{args.knn}"
           f"-g{_digest(gaz)}-p{_digest(polys)}-f{_digest(fac)}"
           f"-e{_engine_digest()}")
    page_out = os.path.join(args.out, "pages")
    results = run_resumable(build, files, page_out, tag,
                            files_per_partition=args.files_per_partition)
    done = sum(1 for r in results if not r.skipped)
    skipped = sum(1 for r in results if r.skipped)
    rows = sum(r.rows_out for r in results)

    # tile aggregates over the checkpointed page output (reads back the
    # columnar result — cells only, not the wide columns)
    import ray.data as rd

    # explicit file list: read_parquet expands a single dir but not a
    # LIST of dirs
    part_files = sorted(glob.glob(os.path.join(page_out, "part-*",
                                               "*.parquet")))
    tile_out = {}
    for res in [int(x) for x in args.tiles.split(",") if x]:
        cols = [f"hex_cell_r{res}", "best_buffer"]
        ds = rd.read_parquet(part_files, columns=cols)
        tiles = build_tile_aggregates_from_pages(ds, res)
        t_dir = os.path.join(args.out, f"tiles_r{res}")
        if os.path.isdir(t_dir):  # tiles are cheap: always rebuilt fresh
            import shutil

            shutil.rmtree(t_dir)
        tiles.write_parquet(t_dir)
        tile_out[res] = t_dir

    csv_rows = None
    if args.csv_out:
        from batch_geocode_ray.sources.writers import write_reference_csv

        csv_rows = write_reference_csv(rd.read_parquet(part_files),
                                       args.csv_out)

    summary = {
        "partitions": len(results),
        "csv_rows": csv_rows,
        "computed": done,
        "skipped_resume": skipped,
        "recomputed_by_cause": dict(Counter(
            r.cause for r in results if not r.skipped)),
        "rows_out": rows,
        "pages_out": page_out,
        "tiles_out": {str(k): v for k, v in tile_out.items()},
        "lineage_records": len(load_lineage(page_out)),
    }
    with open(os.path.join(args.out, "run_summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(summary))
    if owns_ray:
        ray.shutdown()
    return summary


if __name__ == "__main__":
    main()
