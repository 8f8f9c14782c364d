"""Per-partition lineage + checkpoint/resume (SURVEY §4, north rule:
"resumable from checkpoint with per-partition lineage + metrics").

Partition identity derives from the INPUT (each file's path, size,
mtime and parquet footer, plus the partition index), never from Ray
task ids — Ray's block assignment is non-deterministic, input sharding
is not. Each completed partition leaves two artifacts next to each
other:

    part-{pid:05d}/           parquet output of that partition
    part-{pid:05d}.lineage.json   input files, row counts in/out,
                                  attempt count, wall seconds, bytes,
                                  pipeline fingerprint and its parts

Resume = skip every partition whose lineage exists, matches the current
(input, pipeline) fingerprint, and whose output row count re-verifies.
A crashed run therefore re-does only unfinished partitions; a changed
pipeline or input invalidates the fingerprint and re-runs everything.
The lineage also stores the fingerprint's parts (the tag, and each
file's path, size, ``mtime_ns`` and footer sha256), so a recomputed
partition names its cause: ``tag``, ``input:<file>``, ``rows`` (the
output no longer holds the recorded rows) or ``missing`` (no readable
lineage or no output).

Each partition is one bounded Dataset execution (fully parallel across
the cluster internally); partitions run in sequence on the driver. On
the 10^12-doc job a partition is a WARC-crawl-sized slice (hundreds of
files), so the outer loop is shallow while each iteration saturates the
cluster.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass

import pyarrow.parquet as pq

from ray.data import Dataset


def _footer(path: str) -> bytes:
    """A parquet file's footer: its metadata block (which holds every
    column chunk's statistics and offsets), length and magic."""
    with open(path, "rb") as f:
        size = f.seek(0, os.SEEK_END)
        f.seek(max(0, size - 8))
        n = int.from_bytes(f.read(4), "little")
        f.seek(max(0, size - 8 - n))
        return f.read()


def _fingerprint(files: list[str], pipeline_tag: str) -> tuple[str, list]:
    """The partition key's digest, and its per-file parts."""
    h = hashlib.sha256()
    h.update(pipeline_tag.encode())
    inputs = []
    for f in sorted(files):
        st = os.stat(f)
        footer = _footer(f)
        h.update(f"{f}\0{st.st_size}\0{st.st_mtime_ns}\0".encode())
        h.update(footer)
        inputs.append({"path": f, "size": st.st_size,
                       "mtime_ns": st.st_mtime_ns,
                       "footer_sha256": hashlib.sha256(footer).hexdigest()})
    return h.hexdigest()[:16], inputs


def _changed_part(lin: dict, pipeline_tag: str, inputs: list) -> str:
    """The first key part that differs from a lineage record's."""
    if lin.get("pipeline_tag") != pipeline_tag:
        return "tag"
    old = {f["path"]: f for f in lin.get("inputs", [])}
    new = {f["path"]: f for f in inputs}
    return next((f"input:{p}" for p in sorted(old.keys() | new.keys())
                 if old.get(p) != new.get(p)), "tag")


def plan_partitions(input_files: list[str], files_per_partition: int) -> list[list[str]]:
    """Deterministic partitioning of the input file list (sorted, then
    chunked) — identical across runs regardless of cluster state."""
    files = sorted(input_files)
    return [files[i:i + files_per_partition]
            for i in range(0, len(files), files_per_partition)]


@dataclass
class PartitionResult:
    pid: int
    skipped: bool
    rows_out: int
    wall_s: float
    attempt: int
    cause: str | None  # why it was recomputed (module doc); None if skipped


def run_resumable(build_fn: Callable[[list[str]], Dataset],
                  input_files: list[str],
                  out_dir: str,
                  pipeline_tag: str,
                  files_per_partition: int = 1) -> list[PartitionResult]:
    """Execute ``build_fn(partition_files) -> Dataset`` per partition,
    writing partitioned parquet + lineage; completed partitions are
    skipped on re-run.

    ``pipeline_tag`` should change whenever pipeline semantics or a
    non-partitioned input change (e.g. a version string + config hash +
    a digest of the broadcast tables) so stale checkpoints never
    masquerade as current output; a rewritten input file changes its
    mtime or its parquet footer (a same-size copy that keeps the mtime,
    as ``cp -p`` makes, still has other column statistics) and re-runs
    its partition. Each recomputed partition's result names its
    ``cause`` (module doc).
    """
    os.makedirs(out_dir, exist_ok=True)
    results: list[PartitionResult] = []
    for pid, files in enumerate(plan_partitions(input_files, files_per_partition)):
        part_dir = os.path.join(out_dir, f"part-{pid:05d}")
        lineage_path = os.path.join(out_dir, f"part-{pid:05d}.lineage.json")
        fp, inputs = _fingerprint(files, pipeline_tag)

        prev_attempt, cause = 0, "missing"
        if os.path.exists(lineage_path):
            try:
                with open(lineage_path) as f:
                    lin = json.load(f)
                prev_attempt = int(lin.get("attempt", 0))
                if lin.get("fingerprint") != fp:
                    cause = _changed_part(lin, pipeline_tag, inputs)
                elif os.path.isdir(part_dir):
                    actual = _count_rows(part_dir)
                    if actual == lin.get("rows_out"):
                        results.append(PartitionResult(
                            pid, True, actual, 0.0, prev_attempt, None))
                        continue
                    cause = "rows"
            except (json.JSONDecodeError, OSError):
                pass  # corrupt lineage -> recompute

        t0 = time.perf_counter()
        ds = build_fn(files)
        rows_in = sum(pq.read_metadata(f).num_rows for f in files)
        # clean any partial previous output before rewriting
        if os.path.isdir(part_dir):
            for f in os.listdir(part_dir):
                os.unlink(os.path.join(part_dir, f))
        ds.write_parquet(part_dir)
        wall = time.perf_counter() - t0
        rows_out = _count_rows(part_dir)
        bytes_out = sum(
            os.path.getsize(os.path.join(part_dir, f))
            for f in os.listdir(part_dir))
        lineage = {
            "partition": pid,
            "fingerprint": fp,
            "input_files": files,
            "rows_in": rows_in,
            "rows_out": rows_out,
            "bytes_out": bytes_out,
            "wall_s": round(wall, 3),
            "attempt": prev_attempt + 1,
            "pipeline_tag": pipeline_tag,
            "inputs": inputs,
        }
        tmp = lineage_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(lineage, f, indent=1)
        os.replace(tmp, lineage_path)  # atomic: lineage appears only complete
        results.append(PartitionResult(pid, False, rows_out, wall,
                                       prev_attempt + 1, cause))
    return results


def _count_rows(part_dir: str) -> int:
    total = 0
    for f in os.listdir(part_dir):
        if f.endswith(".parquet"):
            total += pq.read_metadata(os.path.join(part_dir, f)).num_rows
    return total


def load_lineage(out_dir: str) -> list[dict]:
    """All lineage records in partition order (the run's metrics feed)."""
    out = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".lineage.json"):
            with open(os.path.join(out_dir, name)) as f:
                out.append(json.load(f))
    return out
