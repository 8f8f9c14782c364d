"""The workloads: what one operation of each does, and how its output is
checked against an oracle outside the timed window. The CLI job and the
exchange queries run here too, on probe inputs in the traced run."""

from __future__ import annotations

import contextlib
import glob
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from inputs import TABLE_ROWS

EXCHANGE_QUERIES = [
    "q15_ngram_dup_pairs", "q17_embed_neardup", "q18_minhash_neardup",
    "q27_event_sessions", "q40_price_quantiles", "q43_user_moving_avg",
    "q56_dedup_clusters", "q70_event_transitions",
]
TILE_RESOLUTIONS = (7, 8, 9)
ORACLE_SAMPLE_ROWS = 48

PROBE_JOB_SHARDS = 2       # page shards of the traced run's CLI job
PROBE_TABLE_SCALE = 0.05   # exchange tables of the traced run, x sf0.1 rows


@dataclass(frozen=True)
class Workload:
    name: str
    dense: bool          # the ~10^4-polygon admin layer instead of the world's


WORKLOADS = {w.name: w for w in [
    Workload("flagship_stream", dense=False),
    Workload("admin_dense", dense=True),
]}


class Tally:
    """Operations attempted and failed; every check adds to it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def read_dir(path: str, sort_key: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    table = pa.concat_tables([pq.read_table(f) for f in files],
                             promote_options="default")
    return table.sort_by(sort_key)


# -- geocode pipeline ---------------------------------------------------

def run_pipeline(pages, world, out_dir: str) -> None:
    """read -> fused stage -> parquet write, as the flagship runs it."""
    from batch_geocode_ray.pipelines.geocode import build_geocode_pipeline

    gaz, polys, fac = world
    shutil.rmtree(out_dir, ignore_errors=True)
    build_geocode_pipeline(pages, gaz, admin_polygons=polys, facilities=fac,
                           with_knn=True).write_parquet(out_dir)


def _same_float(v, w) -> bool:
    if v is None or w is None:
        return v is None and w is None
    return math.isclose(v, w, rel_tol=1e-9, abs_tol=1e-9)


def _row_matches(got: dict, want: dict | None) -> bool:
    """One output row against the oracle row, by the rules of
    tests/test_pipeline_oracle.py."""
    if want is None:
        return False
    for col, w in want.items():
        if col in ("url", "knn_ids", "knn_dists"):
            continue
        v = got.get(col)
        if isinstance(v, float) and math.isnan(v):
            v = None
        if isinstance(w, float):
            ok = _same_float(v, w)
        elif col.startswith(("hex_cell", "s2_cell")):
            ok = (v is None and w is None) or (v is not None and w is not None
                                               and int(v) == w)
        else:
            ok = v == w
        if not ok:
            return False
    dists = list(got["knn_dists"] or [])
    return (list(got["knn_ids"] or []) == want["knn_ids"]
            and len(dists) == len(want["knn_dists"])
            and all(_same_float(a, b) for a, b in zip(dists, want["knn_dists"])))


def check_pipeline_output(out: pa.Table, pages: list[str], world, seed: int,
                          tally: Tally) -> None:
    """Row count, then a seeded sample of rows against ``run_oracle``."""
    from batch_geocode_ray.sources.fixtures import LANG_CC_PRIOR
    from tests.oracle import run_oracle

    n_pages = sum(pq.read_metadata(f).num_rows for f in pages)
    tally.check(out.num_rows == n_pages,
                f"pipeline wrote {out.num_rows} rows for {n_pages} pages")
    rng = np.random.RandomState(seed)
    pick = np.sort(rng.choice(out.num_rows, min(ORACLE_SAMPLE_ROWS, out.num_rows),
                              replace=False))
    got = out.take(pick).to_pylist()
    urls = pa.array([g["url"] for g in got])
    page_rows = pa.concat_tables([
        t.filter(pc.is_in(t["url"], urls))
        for t in (pq.read_table(f, columns=["url", "text", "lang"]) for f in pages)])
    gaz, polys, fac = world
    want_rows, _ = run_oracle(page_rows, gaz, _polygons_near(polys, got), fac,
                              LANG_CC_PRIOR)
    want = {r["url"]: r for r in want_rows}
    for g in got:
        tally.check(_row_matches(g, want.get(g["url"])),
                    f"row {g['url']} differs from the oracle")


def _polygons_near(polys: pa.Table, rows: list[dict]) -> pa.Table:
    """Polygons whose bbox holds a sampled row's best point. The oracle's
    point-in-polygon loop is row-at-a-time Python; a row whose oracle
    best point differs from the engine's fails on the point itself."""
    pts = [(r["best_long"], r["best_lat"]) for r in rows
           if r["best_lat"] is not None and not math.isnan(r["best_lat"])]
    keep = []
    for i, (xs, ys) in enumerate(zip(polys["ring_lons"].to_pylist(),
                                     polys["ring_lats"].to_pylist())):
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        if any(x0 <= x <= x1 and y0 <= y <= y1 for x, y in pts):
            keep.append(i)
    return polys.take(keep)


# -- CLI job --------------------------------------------------------------

def job_argv(inputs, wl: Workload, shards: int, out_dir: str) -> list[str]:
    if shards > 10:
        raise ValueError("job shards are selected by a one-digit glob")
    w = inputs.world_dir
    polys = "dense_polygons" if wl.dense else "admin_polygons"
    return ["--pages", os.path.join(inputs.pages_dir,
                                    f"pages-0000[0-{shards - 1}].parquet"),
            "--gazetteer", os.path.join(w, "gazetteer.parquet"),
            "--polygons", os.path.join(w, f"{polys}.parquet"),
            "--facilities", os.path.join(w, "facilities.parquet"),
            "--out", out_dir, "--knn",
            "--tiles", ",".join(map(str, TILE_RESOLUTIONS)),
            "--files-per-partition", "1"]


def _job_outputs(out_dir: str) -> dict[str, pa.Table]:
    outs = {"pages": read_dir(os.path.join(out_dir, "pages"), "url")}
    for res in TILE_RESOLUTIONS:
        outs[f"tiles_r{res}"] = read_dir(os.path.join(out_dir, f"tiles_r{res}"),
                                         f"hex_cell_r{res}")
    return outs


def run_job(argv: list[str], out_dir: str, seed: int, tally: Tally) -> tuple[float, float]:
    """A clean run of ``batch_geocode_ray.run.main``, then a resume run
    after half the partitions' lineage files are removed. Returns the two
    wall times; checks that the resumed outputs equal the clean ones."""
    from batch_geocode_ray import run

    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        run.main(argv)
        clean_s = time.perf_counter() - t0
        clean = _job_outputs(out_dir)
        lineage = sorted(glob.glob(os.path.join(out_dir, "pages", "*.lineage.json")))
        rng = np.random.RandomState(seed)
        for i in rng.choice(len(lineage), max(1, len(lineage) // 2), replace=False):
            os.unlink(lineage[i])
        t0 = time.perf_counter()
        run.main(argv)
        resume_s = time.perf_counter() - t0
    resumed = _job_outputs(out_dir)
    for name, table in clean.items():
        tally.check(resumed[name].equals(table),
                    f"resumed {name} differs from the clean run")
    return clean_s, resume_s


# -- exchange suite -------------------------------------------------------

def run_query(name: str, tables_dir: str) -> pa.Table:
    """One registry query, fully consumed into an Arrow table."""
    from ray.data import Dataset

    from batch_geocode_ray.pipelines.queries import QUERIES

    res = QUERIES[name](tables_dir)
    if isinstance(res, Dataset):
        batches = list(res.iter_batches(batch_format="pyarrow"))
        return (pa.concat_tables(batches, promote_options="default")
                if batches else pa.table({}))
    return res if isinstance(res, pa.Table) else pa.Table.from_pandas(res)


def check_queries(results: dict[str, pa.Table], tables_dir: str, tally: Tally) -> None:
    """Every result against its ORACLE_SQL entry in DuckDB, compared the
    way scripts/selfcheck.py compares them."""
    import duckdb

    from batch_geocode_ray.pipelines.queries import ORACLE_SQL
    from scripts.selfcheck import compare

    con = duckdb.connect()
    try:
        for t in TABLE_ROWS:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"'{os.path.join(tables_dir, t)}.parquet'")
        for name, got in results.items():
            problems = compare(name, got.to_pandas(), con.sql(ORACLE_SQL[name]).df())
            tally.check(not problems, f"{name}: {'; '.join(problems)}")
    finally:
        con.close()

