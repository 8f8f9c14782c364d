"""The engine's one keyed shuffle and its adaptive plan.

Every stage that co-locates rows by key goes through
:func:`bucket_exchange`; ``_exchange`` holds the package's only
``groupby(...).map_groups(...)``. Around it sit the pieces each
keyed plan shares: the plan's own size estimate
(:func:`estimated_bytes`, scaled by :func:`scaled` where an op's own
map grows its stream), the small-side test (:func:`_probe_small`), the
one-task collapse (:func:`_one_task`), the size-grown bucket count
(:func:`adaptive_bucket_count`), the key hash (:func:`key_hash64`) and
Ray's range-partitioned sort (:func:`distributed_sort`).

Every plan is chosen before anything runs: the estimate reads the
sizes the plan's sources already carry and executes nothing. Rows
never depend on the plan, so a wrong estimate costs speed or memory,
never rows.

The two thresholds, ``SMALL_COLLAPSE_BYTES`` and
``TARGET_BUCKET_BYTES``, are read through this module at call time, so
a test patches them here and every plan sees the patched value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from batch_geocode_ray.functions.hashing import splitmix64, stable_hash64_array


# ---------------------------------------------------------------------------
# adaptive execution: small-side collapse
# ---------------------------------------------------------------------------

# Adaptive threshold (like Spark AQE's shuffle->broadcast conversion):
# a keyed step whose input is estimated below this runs as ONE task
# instead of paying 1-2s of fixed cost per all-to-all operator. Above
# it, or with no estimate, the shuffle plan runs.
SMALL_COLLAPSE_BYTES = 256 << 20

# One coarse bucket = one ``map_groups`` task = the whole bucket
# resident in one worker's heap. A FIXED bucket count therefore puts
# input_bytes / n_buckets in one task — ~100 GB/bucket at 100 TB with
# the old constant 1024. Size the exchange instead: enough buckets that
# a bucket holds ~TARGET_BUCKET_BYTES, floored at 1024 so small inputs
# keep their cheap fan-out.
TARGET_BUCKET_BYTES = 32 << 20


def adaptive_bucket_count(size_bytes: int) -> int:
    """Bucket count for a coarse-bucket exchange over ``size_bytes`` of
    shuffled rows: grows linearly with input so per-bucket residency
    stays ~``TARGET_BUCKET_BYTES`` at any scale (read at call time, so
    tests can patch it)."""
    return max(1024, int(size_bytes or 0) // TARGET_BUCKET_BYTES + 1)


def scaled(ds: Dataset, factor: float) -> Dataset:
    """Mark ``ds``, the output of the caller's own ``map_batches``, as
    ~``factor`` x its input's bytes (below 1 for a map that keeps a
    known share of its rows), so :func:`estimated_bytes` of it and of
    every plan built on it scale by ``factor``: the factor rides on the
    plan's last operator."""
    ds._logical_plan.dag.bgr_growth = factor
    return ds


def estimated_bytes(ds: Dataset) -> int | None:
    """The plan's own size estimate of ``ds``, computed without
    executing anything: on every path of the logical plan down from
    its last operator, the first ``infer_metadata().size_bytes`` found
    (a read's estimate, an ``InputData``'s or a materialized dataset's
    blocks), summed over the inputs and scaled by every :func:`scaled`
    factor on the way. ``None`` when some path has no size."""
    def walk(op) -> int | None:
        size = op.infer_metadata().size_bytes
        if size is None:
            parts = [walk(d) for d in op.input_dependencies]
            if not parts or None in parts:
                return None
            size = sum(parts)
        return int(size * getattr(op, "bgr_growth", 1))

    return walk(ds._logical_plan.dag)


def _probe_small(ds: Dataset) -> bool:
    """Whether ``ds`` fits one task: its :func:`estimated_bytes` is
    known and below ``SMALL_COLLAPSE_BYTES`` (read at call time, so
    tests can patch it)."""
    size = estimated_bytes(ds)
    return size is not None and size < SMALL_COLLAPSE_BYTES


def _one_task(ds: Dataset, fn) -> Dataset:
    """Run ``fn`` over the WHOLE (small) dataset as one task."""
    return ds.repartition(1).map_batches(fn, batch_format="pyarrow",
                                         batch_size=None)


def distributed_sort(ds: Dataset, keys: list) -> Dataset:
    """Ray's range-partitioned ``sort`` by ``keys`` (pyarrow-style: a
    bare name or a ``(name, "ascending" | "descending")`` pair), safe
    for temporal keys. Ray takes only numeric NaN for null when it
    orders its sampled range bounds: a sampled null timestamp leaves
    them out of order, and the range partition then emits some rows
    twice. So sort on integer views of temporal keys, whose nulls Ray
    handles, and drop the views after."""
    keys = [(k, "ascending") if isinstance(k, str) else k for k in keys]
    views = [f"__sort_{k}" for k, _ in keys]

    def add_views(b: pa.Table) -> pa.Table:
        for (k, _), v in zip(keys, views):
            c = b[k]
            if pa.types.is_temporal(c.type):
                c = c.cast(pa.int64() if c.type.bit_width == 64 else pa.int32())
            b = b.append_column(v, c)
        return b

    return (ds.map_batches(add_views, batch_format="pyarrow")
            .sort(views, descending=[o == "descending" for _, o in keys])
            .map_batches(lambda b: b.drop_columns(views), batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# the coarse-bucket exchange
# ---------------------------------------------------------------------------

# the exchange's own bucket column: a reserved name, so callers may key
# or carry any plain column without colliding with it
EXCHANGE_BUCKET = "__bucket_exchange"


def _is_temporal(t: pa.DataType) -> bool:
    return (pa.types.is_timestamp(t) or pa.types.is_date(t)
            or pa.types.is_time(t) or pa.types.is_duration(t))


def _check_key_type(t: pa.DataType, name: str) -> None:
    if not (pa.types.is_integer(t) or _is_temporal(t)
            or pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        raise TypeError(f"bucket key column {name!r} has type {t}; expected "
                        "an integer, temporal, string or binary column")


def key_hash64(col: pa.Array | pa.ChunkedArray, name: str) -> np.ndarray:
    """uint64 bucket hash of key column ``name``: ``splitmix64`` of the
    integers' uint64 view (temporal columns: of their integer physical
    value), ``stable_hash64_array`` of strings and binaries. Other
    types raise ``TypeError`` naming the column."""
    t = col.type
    _check_key_type(t, name)
    if _is_temporal(t):
        col = pc.cast(col, pa.int32() if t.bit_width == 32 else pa.int64())
    if pa.types.is_integer(col.type):
        k = np.asarray(pc.fill_null(col, 0).to_numpy(zero_copy_only=False))
        return splitmix64(k.astype(np.int64, copy=False).view(np.uint64))
    return stable_hash64_array(col)


def _keys_hash64(b: pa.Table, keys: list[str]) -> np.ndarray:
    """Multi-column key hash: ``splitmix64`` combines of the per-column
    :func:`key_hash64` (a one-column key hashes as that column)."""
    h = key_hash64(b[keys[0]], keys[0])
    for k in keys[1:]:
        h = splitmix64(h ^ key_hash64(b[k], k))
    return h


def _exchange(ds: Dataset, key: str | list[str],
              fn) -> tuple[Dataset, bool]:
    """:func:`bucket_exchange`, plus whether it collapsed to one task."""
    keys = [key] if isinstance(key, str) else list(key)
    # a lazy stream may have no schema yet: its batches check instead
    schema = ds.schema(fetch_if_missing=False)
    if schema is not None:
        types = dict(zip(schema.names, schema.types))
        for k in keys:
            if k in types:
                _check_key_type(types[k], k)
    if _probe_small(ds):
        def checked(b: pa.Table) -> pa.Table:
            for k in set(keys) & set(b.column_names):
                _check_key_type(b[k].type, k)
            return fn(b)
        return _one_task(ds, checked), True
    nb = np.uint64(adaptive_bucket_count(estimated_bytes(ds)))

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(EXCHANGE_BUCKET, pa.array(
            (_keys_hash64(b, keys) % nb).astype(np.int64)))

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby(EXCHANGE_BUCKET)
            .map_groups(lambda g: fn(g.drop_columns([EXCHANGE_BUCKET])),
                        batch_format="pyarrow")), False


def bucket_exchange(ds: Dataset, key: str | list[str], fn) -> Dataset:
    """Co-locate every row sharing a ``key`` value (one column or a
    list of columns) and run ``fn`` over each co-located group of rows:
    the repo's one keyed shuffle.

    ``fn`` must be bucket-independent (it lexsorts and segments by key
    internally): when :func:`estimated_bytes` puts the input below
    ``SMALL_COLLAPSE_BYTES`` the whole input runs through it as ONE
    task, skipping the all-to-all (~1-2 s fixed). Otherwise rows hash
    (:func:`key_hash64`, combined per column) into
    :func:`adaptive_bucket_count` coarse buckets of the estimate and
    ``groupby(EXCHANGE_BUCKET).map_groups(fn)`` runs ``fn`` once per
    bucket, never once per key. ``fn`` never sees the bucket column.
    Nothing is materialized to choose the plan."""
    return _exchange(ds, key, fn)[0]
