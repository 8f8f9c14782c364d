"""The driver/task boundary: one collect and one per-worker state cache.

* **Collects** — a Dataset comes back to the driver only through
  :func:`gather`, as one ``pa.Table``.
* **Bounded constants** going out (centroids, a PCA basis, query
  vectors, hot keys) are captured by the UDF or passed
  in ``fn_kwargs``: Ray Data puts each operator's UDF into the object
  store once, so nothing is re-shipped per batch.
* **Input-sized state** going out (a rank table, an eval gram set, an
  LM, a join's right side, the fused geocode stage) is a callable the
  driver has already built, passed to :func:`stateful_map_batches`.
  It is the one ``ray.put`` of the package: the built stage goes into
  the object store once, and each worker loads it with one ``ray.get``
  (NumPy and Arrow buffers map zero-copy), so no worker builds state.

No UDF calls ``ray.get`` itself.

:func:`stateful_map_batches` gives stages the task path instead of Ray
Data's actor pool, whose ~1-2 s-per-actor spin-up dominates short
queries: the stage is loaded once per WORKER PROCESS (memoized by its
ObjectRef) and reused by every task the worker runs. The fused flagship
stage runs this way too. The cache holds at most ``_STATE_CACHE_MAX``
stages per worker and evicts the oldest first: each plan puts a fresh
ref, so an unbounded cache would keep one state copy per plan.
"""

from __future__ import annotations

import pyarrow as pa

import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor

_STATE_CACHE: dict = {}
_STATE_CACHE_MAX = 8


def _cached_call(batch, *, _ref):
    stage = _STATE_CACHE.get(_ref)
    if stage is None:
        stage = ray.get(_ref)
        if len(_STATE_CACHE) >= _STATE_CACHE_MAX:
            _STATE_CACHE.pop(next(iter(_STATE_CACHE)))
        _STATE_CACHE[_ref] = stage
    return stage(batch)


def stateful_map_batches(ds: Dataset, stage, **map_batches_kwargs) -> Dataset:
    """``ds.map_batches(stage, ...)`` for a callable built on the
    driver, as cached TASKS instead of an actor pool: ``stage`` is put
    into the object store once and loaded once per worker."""
    return ds.map_batches(_cached_call, fn_kwargs={"_ref": ray.put(stage)},
                          **map_batches_kwargs)


def gather(ds: Dataset) -> pa.Table:
    """Run ``ds`` once and collect it on the driver as one table. Ray
    keeps no schema for a block a ``filter`` emptied; such blocks are
    skipped. With no rows left the result is a typed empty table when
    a schema survived, else a table with no columns."""
    # not to_arrow_refs: on a lazy Dataset it runs the plan twice
    refs = [r for b in ds.iter_internal_ref_bundles() for r, _ in b.blocks]
    tables = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    parts = [t for t in tables if t.num_columns]
    rows = [t for t in parts if t.num_rows] or parts[:1]
    return (pa.concat_tables(rows, promote_options="default") if rows
            else pa.table({}))
