"""Checkpoint/resume determinism (SURVEY §5.4): interrupt, resume, and
byte-compare against an uninterrupted run."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from batch_geocode_ray.state.checkpoint import (
    load_lineage,
    plan_partitions,
    run_resumable,
)


@pytest.fixture()
def inputs(tmp_path):
    files = []
    for i in range(4):
        t = pa.table({
            "x": pa.array(range(i * 10, i * 10 + 10), pa.int64()),
        })
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(t, p)
        files.append(p)
    return files


def build(files):
    import pyarrow.compute as pc
    import ray.data as rd

    return rd.read_parquet(files).map_batches(
        lambda b: b.append_column("y", pc.multiply(b["x"], 2)),
        batch_format="pyarrow")


def read_all(out_dir):
    rows = []
    for part in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, part)
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                rows.extend(pq.read_table(os.path.join(d, f)).to_pylist())
    return sorted(rows, key=lambda r: r["x"])


def test_plan_partitions_deterministic(inputs):
    a = plan_partitions(inputs, 2)
    b = plan_partitions(list(reversed(inputs)), 2)
    assert a == b
    assert len(a) == 2 and all(len(p) == 2 for p in a)


def test_run_and_resume(inputs, tmp_path):
    out1 = str(tmp_path / "run1")
    res = run_resumable(build, inputs, out1, "v1", files_per_partition=1)
    assert [r.skipped for r in res] == [False] * 4
    full = read_all(out1)
    assert len(full) == 40 and full[0]["y"] == 0

    # second call: everything skipped, nothing recomputed
    res2 = run_resumable(build, inputs, out1, "v1", files_per_partition=1)
    assert [r.skipped for r in res2] == [True] * 4

    # interrupt simulation: delete two partitions (+ one lineage)
    shutil.rmtree(os.path.join(out1, "part-00001"))
    os.unlink(os.path.join(out1, "part-00003.lineage.json"))
    res3 = run_resumable(build, inputs, out1, "v1", files_per_partition=1)
    assert [r.skipped for r in res3] == [True, False, True, False]
    assert read_all(out1) == full  # resumed == uninterrupted

    # attempt counters recorded
    lineage = load_lineage(out1)
    assert [l["attempt"] for l in lineage] == [1, 2, 1, 1]
    assert all(l["rows_in"] == 10 and l["rows_out"] == 10 for l in lineage)


def test_pipeline_tag_invalidates(inputs, tmp_path):
    out = str(tmp_path / "run")
    run_resumable(build, inputs, out, "v1", files_per_partition=2)
    res = run_resumable(build, inputs, out, "v2", files_per_partition=2)
    assert [r.skipped for r in res] == [False, False]  # tag change -> rerun


def test_midrun_failure_then_resume(inputs, tmp_path):
    """A crash mid-run (partition 2 raises) must leave partitions 0-1
    checkpointed; the retry completes only the unfinished ones and the
    final output equals an uninterrupted run."""
    out = str(tmp_path / "run")
    calls = {"n": 0}

    def flaky_build(files):
        calls["n"] += 1
        if calls["n"] == 3:  # third partition build crashes the driver
            raise RuntimeError("simulated crash")
        return build(files)

    with pytest.raises(RuntimeError):
        run_resumable(flaky_build, inputs, out, "v1", files_per_partition=1)
    done = [d for d in os.listdir(out) if d.endswith(".lineage.json")]
    assert len(done) == 2  # partitions 0 and 1 checkpointed

    res = run_resumable(build, inputs, out, "v1", files_per_partition=1)
    assert [r.skipped for r in res] == [True, True, False, False]
    assert len(read_all(out)) == 40


def test_corrupt_lineage_recovers(inputs, tmp_path):
    out = str(tmp_path / "run")
    run_resumable(build, inputs, out, "v1", files_per_partition=2)
    with open(os.path.join(out, "part-00000.lineage.json"), "w") as f:
        f.write("{not json")
    res = run_resumable(build, inputs, out, "v1", files_per_partition=2)
    assert [r.skipped for r in res] == [False, True]
    assert len(read_all(out)) == 40



def test_rewritten_input_file_recomputes_its_partition(inputs, tmp_path):
    """A page file rewritten in place with the same size (so its path
    and size alone cannot tell) re-runs its partition, and only that
    one."""
    out = str(tmp_path / "run")
    run_resumable(build, inputs, out, "v1", files_per_partition=1)
    size, mtime = os.path.getsize(inputs[1]), os.stat(inputs[1]).st_mtime_ns
    pq.write_table(pa.table({"x": pa.array(range(50, 60), pa.int64())}),
                   inputs[1])
    assert os.path.getsize(inputs[1]) == size
    os.utime(inputs[1], ns=(mtime + 10**9, mtime + 10**9))
    res = run_resumable(build, inputs, out, "v1", files_per_partition=1)
    assert [r.skipped for r in res] == [True, False, True, True]
    assert [r["x"] for r in read_all(out)] == [
        *range(0, 10), *range(20, 40), *range(50, 60)]


def test_same_size_same_mtime_rewrite_recomputes_its_partition(inputs,
                                                               tmp_path):
    """A page file rewritten with other values at the same size, its
    mtime then restored (what ``cp -p`` and ``rsync -t`` leave), re-runs
    its partition, and only that one: the key carries the footer."""
    out = str(tmp_path / "run")
    run_resumable(build, inputs, out, "v1", files_per_partition=1)
    st = os.stat(inputs[2])
    pq.write_table(pa.table({"x": pa.array(range(70, 80), pa.int64())}),
                   inputs[2])
    os.utime(inputs[2], ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.path.getsize(inputs[2]) == st.st_size
    assert os.stat(inputs[2]).st_mtime_ns == st.st_mtime_ns
    res = run_resumable(build, inputs, out, "v1", files_per_partition=1)
    assert [r.skipped for r in res] == [True, True, False, True]
    assert [r["x"] for r in read_all(out)] == [
        *range(0, 20), *range(30, 40), *range(70, 80)]


def test_recomputed_partition_names_its_cause(inputs, tmp_path):
    """The lineage stores the key's parts, so each recomputed partition
    says why: a changed tag, a changed input file, an output that lost
    rows, or a missing lineage."""
    out = str(tmp_path / "run")
    res = run_resumable(build, inputs, out, "v1", files_per_partition=1)
    assert [r.cause for r in res] == ["missing"] * 4
    parts = load_lineage(out)[1]["inputs"]
    st = os.stat(inputs[1])
    assert [(p["path"], p["size"], p["mtime_ns"]) for p in parts] == [
        (inputs[1], st.st_size, st.st_mtime_ns)]
    assert len(parts[0]["footer_sha256"]) == 64
    res = run_resumable(build, inputs, out, "v2", files_per_partition=1)
    assert [r.cause for r in res] == ["tag"] * 4

    # input: partition 1's file rewritten at the same size and mtime
    pq.write_table(pa.table({"x": pa.array(range(50, 60), pa.int64())}),
                   inputs[1])
    os.utime(inputs[1], ns=(st.st_atime_ns, st.st_mtime_ns))
    # rows: partition 2's output emptied; missing: partition 3's lineage
    part2 = os.path.join(out, "part-00002")
    for f in os.listdir(part2):
        os.unlink(os.path.join(part2, f))
    os.unlink(os.path.join(out, "part-00003.lineage.json"))
    res = run_resumable(build, inputs, out, "v2", files_per_partition=1)
    assert [r.cause for r in res] == [
        None, f"input:{inputs[1]}", "rows", "missing"]
    assert [r.skipped for r in res] == [True, False, False, False]


class _KilledWrite:
    """Stand-in Dataset of a run killed while it writes: one parquet
    file of ``table`` lands in the partition directory, then the write
    raises."""

    def __init__(self, table: pa.Table):
        self.table = table

    def write_parquet(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
        pq.write_table(self.table, os.path.join(path, "killed.parquet"))
        raise RuntimeError("killed mid-write")


def test_kill_during_another_tags_rewrite_does_not_resume_stale(inputs,
                                                                tmp_path):
    """Tag A completes, a tag-B rerun is killed after writing as many
    rows as A's output holds, and tag A runs again. A's old lineage
    must not vouch for B's rows: the partition recomputes (its lineage
    is gone, so the cause is ``missing``) and the output equals run 1's."""
    out = str(tmp_path / "run")
    run_resumable(build, inputs, out, "A", files_per_partition=4)
    want = read_all(out)
    other = pa.table({"x": pa.array(range(100, 140), pa.int64()),
                      "y": pa.array(range(40), pa.int64())})
    with pytest.raises(RuntimeError, match="killed"):
        run_resumable(lambda files: _KilledWrite(other), inputs, out, "B",
                      files_per_partition=4)
    res = run_resumable(build, inputs, out, "A", files_per_partition=4)
    assert [(r.skipped, r.cause) for r in res] == [(False, "missing")]
    assert read_all(out) == want


def test_torn_output_file_recomputes_with_cause_rows(inputs, tmp_path):
    """An output file cut in half (its footer gone) makes the resume
    recompute that partition with cause ``rows`` instead of raising."""
    out = str(tmp_path / "run")
    run_resumable(build, inputs, out, "v1", files_per_partition=1)
    want = read_all(out)
    part1 = os.path.join(out, "part-00001")
    path = os.path.join(part1, sorted(os.listdir(part1))[0])
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) // 2)
    res = run_resumable(build, inputs, out, "v1", files_per_partition=1)
    assert [r.cause for r in res] == [None, "rows", None, None]
    assert read_all(out) == want


@pytest.mark.parametrize("changed", ["gazetteer", "polygons", "facilities"])
def test_cli_rerun_recomputes_changed_broadcast_input(changed, tmp_path):
    """The CLI's checkpoint tag carries a content digest of the
    gazetteer, polygon and facility tables: rerunning into the same
    --out after one of them changes recomputes every partition, and the
    result equals a clean run. An unchanged rerun skips them all."""
    import glob

    from batch_geocode_ray.run import main
    from batch_geocode_ray.sources.fixtures import generate_pages, generate_world

    world = generate_world(42)
    generate_pages(str(tmp_path / "pages"), 400, rows_per_file=200,
                   world=world)
    tables = {"gazetteer": world.gazetteer, "polygons": world.admin_polygons,
              "facilities": world.facilities}
    args = ["--pages", str(tmp_path / "pages"), "--knn", "--tiles", "",
            "--files-per-partition", "1"]
    for name, t in tables.items():
        pq.write_table(t, str(tmp_path / f"{name}.parquet"))
        args += [f"--{name}", str(tmp_path / f"{name}.parquet")]

    def pages(out):
        parts = sorted(glob.glob(os.path.join(out, "pages", "part-*", "*.parquet")))
        return pa.concat_tables([pq.read_table(p) for p in parts]).sort_by("url")

    out = str(tmp_path / "out")
    assert main(args + ["--out", out])["computed"] == 2
    assert main(args + ["--out", out])["skipped_resume"] == 2
    pq.write_table(tables[changed].slice(1), str(tmp_path / f"{changed}.parquet"))
    s = main(args + ["--out", out])
    assert (s["computed"], s["skipped_resume"]) == (2, 0)
    clean = str(tmp_path / "clean")
    main(args + ["--out", clean])
    assert pages(out).equals(pages(clean))


def test_cli_rerun_recomputes_after_an_engine_change(tmp_path, monkeypatch):
    """The CLI's checkpoint tag carries a digest of the package's ``.py``
    sources: the same sources at another path resume, and one changed
    source byte recomputes every partition."""
    import shutil

    from batch_geocode_ray import run
    from batch_geocode_ray.sources.fixtures import generate_pages, generate_world

    world = generate_world(42)
    generate_pages(str(tmp_path / "pages"), 400, rows_per_file=200,
                   world=world)
    pq.write_table(world.gazetteer, str(tmp_path / "gazetteer.parquet"))
    args = ["--pages", str(tmp_path / "pages"),
            "--gazetteer", str(tmp_path / "gazetteer.parquet"),
            "--tiles", "", "--files-per-partition", "1",
            "--out", str(tmp_path / "out")]
    s = run.main(args)
    assert s["computed"] == 2 and s["recomputed_by_cause"] == {"missing": 2}
    engine = tmp_path / "engine"
    shutil.copytree(run._ENGINE_ROOT, engine,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run, "_ENGINE_ROOT", str(engine))
    assert run.main(args)["skipped_resume"] == 2
    with open(engine / "stages" / "pip.py", "a") as f:
        f.write("\n")
    s = run.main(args)
    assert (s["computed"], s["skipped_resume"]) == (2, 0)
    assert s["recomputed_by_cause"] == {"tag": 2}


# The CLI, on the Ray cluster at argv[2], with its lineage commit (the
# ``os.replace`` in ``run_resumable``) replaced by a self-SIGKILL at the
# partition named by argv[1]: that partition's parquet is written, its
# lineage never is.
_KILL_AT_COMMIT = """
import os, signal, sys

import ray

commits, replace = [], os.replace


def kill_at_commit(src, dst):
    if dst.endswith(".lineage.json"):
        commits.append(dst)
        if len(commits) == int(sys.argv[1]) + 1:
            os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)


os.replace = kill_at_commit
ray.init(address=sys.argv[2])
from batch_geocode_ray.run import main
main(sys.argv[3:])
"""


def test_cli_sigkilled_after_a_parquet_write_resumes_identical(tmp_path):
    """A CLI run SIGKILLed between partition 1's parquet write and its
    lineage commit resumes: the rerun skips partition 0, recomputes
    partition 1 with cause ``missing``, and every page partition and
    the tiles equal a clean run's."""
    import glob
    import signal
    import subprocess
    import sys

    import ray

    from batch_geocode_ray.run import _ENGINE_ROOT, main
    from batch_geocode_ray.sources.fixtures import generate_pages, generate_world

    world = generate_world(42)
    generate_pages(str(tmp_path / "pages"), 400, rows_per_file=200,
                   world=world)
    pq.write_table(world.gazetteer, str(tmp_path / "gazetteer.parquet"))
    args = ["--pages", str(tmp_path / "pages"),
            "--gazetteer", str(tmp_path / "gazetteer.parquet"),
            "--tiles", "7", "--files-per-partition", "1"]
    out, clean = str(tmp_path / "out"), str(tmp_path / "clean")
    root = os.path.dirname(_ENGINE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_AT_COMMIT, "1",
         ray.get_runtime_context().gcs_address, *args, "--out", out],
        cwd=root, env={**os.environ, "PYTHONPATH": root},
        capture_output=True, timeout=600)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()[-3000:]
    pages = os.path.join(out, "pages")
    assert glob.glob(os.path.join(pages, "part-00001", "*.parquet"))
    assert [r["partition"] for r in load_lineage(pages)] == [0]

    s = main(args + ["--out", out])
    assert (s["computed"], s["skipped_resume"]) == (1, 1)
    assert s["recomputed_by_cause"] == {"missing": 1}
    main(args + ["--out", clean])

    def table(run_dir, sub, key):
        files = sorted(glob.glob(os.path.join(run_dir, sub, "*.parquet")))
        return pa.concat_tables([pq.read_table(f) for f in files]).sort_by(key)

    for part in ("part-00000", "part-00001"):
        assert table(out, f"pages/{part}", "url").equals(
            table(clean, f"pages/{part}", "url"))
    tiles = table(clean, "tiles_r7", "hex_cell_r7")
    assert tiles.num_rows and table(out, "tiles_r7", "hex_cell_r7").equals(tiles)
