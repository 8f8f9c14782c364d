"""Broadcast (map-side) joins — the engine's default join strategy.

SURVEY §2.5: the reference's only join is a small left-join
(vet_geocode.py:106-111). At 10^12-row scale the rule is: when one side
fits in memory, `ray.put` it once and probe it inside ``map_batches`` —
the big side never shuffles. Shuffle joins exist in Ray Data
(``Dataset.join``) but every query here keeps the big side streaming.

Lookup structure: sorted key array + ``np.searchsorted`` for integer
keys (zero-copy, cache-friendly), dict fallback for strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from batch_geocode_ray.stages.dedup import _one_task
from batch_geocode_ray.stages.stateful import stateful_map_batches


class _Lookup:
    """Immutable small-side lookup, built once, broadcast via ray.put.

    Precondition (enforced): the small side has UNIQUE keys — dimension
    semantics, one row per key. A duplicate-keyed small side would need
    row multiplication (a real 1:N join); use ``Dataset.join`` there.
    Value columns keep their source Arrow type (probe output is a C++
    ``take``, no string coercion).
    """

    def __init__(self, table: pa.Table, key: str, value_cols: list[str]):
        keys = table[key].combine_chunks() if isinstance(
            table[key], pa.ChunkedArray) else table[key]
        n = table.num_rows
        if n and pc.count_distinct(keys).as_py() != n:
            raise ValueError(
                f"broadcast join small side has duplicate '{key}' keys; "
                "use a shuffle join (Dataset.join) for 1:N semantics")
        self.value_cols = value_cols
        if pa.types.is_integer(keys.type):
            k = np.asarray(keys.to_numpy(zero_copy_only=False), dtype=np.int64)
            order = np.argsort(k, kind="stable")
            self.int_keys = k[order]
            self.set_keys = None
        else:
            order = np.arange(n)
            self.int_keys = None
            self.set_keys = keys  # pc.index_in value set (C++ hash probe)
        take_idx = pa.array(order, pa.int64())
        self.values = {c: (table[c].combine_chunks()
                           if isinstance(table[c], pa.ChunkedArray)
                           else table[c]).take(take_idx)
                       for c in value_cols}

    def probe(self, key_arr: pa.Array | pa.ChunkedArray):
        """Returns (positions, found_mask) into the value arrays."""
        if self.int_keys is not None:
            k = np.asarray(
                key_arr.to_numpy(zero_copy_only=False), dtype=np.int64)
            if len(self.int_keys) == 0:
                return np.zeros(len(k), dtype=np.int64), np.zeros(len(k), bool)
            pos = np.searchsorted(self.int_keys, k)
            pos_c = np.clip(pos, 0, len(self.int_keys) - 1)
            found = self.int_keys[pos_c] == k
            return pos_c, found
        idx = pc.index_in(key_arr, value_set=self.set_keys)
        found = np.asarray(pc.is_valid(idx))
        pos = np.asarray(idx.fill_null(0).to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        return pos, found


class _BroadcastProbe:
    """Per-worker cached probe of one broadcast :class:`_Lookup`."""

    def __init__(self, lookup: _Lookup, key: str, how: str):
        self.lookup, self.key, self.how = lookup, key, how

    def __call__(self, batch: pa.Table) -> pa.Table:
        lk = self.lookup
        pos, found = lk.probe(batch[self.key])
        if self.how == "inner" and not found.all():
            batch = batch.filter(pa.array(found))
            pos = pos[found]
            found = np.ones(len(pos), dtype=bool)
        # positions with a null mask -> Arrow take emits typed nulls for
        # unmatched rows, preserving each value column's source type
        idx = (pa.array(pos, pa.int64()) if found.all()
               else pa.array(pos, pa.int64(), mask=~found))
        for c in lk.value_cols:
            batch = batch.append_column(c, lk.values[c].take(idx))
        return batch


def broadcast_semi_anti(ds: Dataset, small_keys, key: str,
                        anti: bool = False) -> Dataset:
    """Semi (keep rows whose key IS in the small set) or anti (keep rows
    whose key is NOT in it) join against a broadcast key set — the
    filter-shaped joins, no columns added, big side never shuffles.
    ``small_keys``: pa.Array / ChunkedArray / numpy of keys (integer or
    string — strings probe via the C++ ``is_in`` kernel).
    """
    if isinstance(small_keys, pa.ChunkedArray):
        small_keys = small_keys.combine_chunks()
    if isinstance(small_keys, pa.Array) and not pa.types.is_integer(
            small_keys.type):
        ref = ray.put(small_keys.unique())

        def f_str(batch: pa.Table) -> pa.Table:
            found = pc.is_in(batch[key], value_set=ray.get(ref))
            return batch.filter(pc.invert(found) if anti else found)

        return ds.map_batches(f_str, batch_format="pyarrow")

    if isinstance(small_keys, pa.Array):
        small_keys = small_keys.to_numpy(zero_copy_only=False)
    keys_sorted = np.unique(np.asarray(small_keys, dtype=np.int64))
    ref = ray.put(keys_sorted)

    def f(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        k = np.asarray(batch[key].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        pos = np.searchsorted(ks, k)
        pos_c = np.clip(pos, 0, len(ks) - 1)
        found = (ks[pos_c] == k) if len(ks) else np.zeros(len(k), dtype=bool)
        return batch.filter(pa.array(~found if anti else found))

    return ds.map_batches(f, batch_format="pyarrow")


def semi_anti_join(ds: Dataset, keys_ds: Dataset, key: str,
                   right_key: str | None = None, anti: bool = False,
                   num_partitions: int | None = None,
                   size_hint_bytes: int | None = None) -> Dataset:
    """Distributed semi (keep matching) / anti (keep non-matching) join
    of ``ds`` against a KEY DATASET — the scale-safe form of
    :func:`broadcast_semi_anti` for keep-sets that are themselves
    dataset-sized (e.g. dedup survivor ids over 10^12 docs).

    Adaptive plan (size-probed, same knob as dedup's small-collapse):
    a small materialized key set broadcasts — the big side never
    shuffles; a large one marks membership through the coarse-bucket
    lookup exchange (``dedup._bucket_lookup_join``; NOT Ray's
    hash-shuffle join, which crashes when a partition receives zero
    blocks for one side — an outcome any low-cardinality/empty side
    produces) and filters on the mark, so the keep-set never
    concentrates on the driver or any single node.

    Key types are validated BEFORE the plan choice (plan-independent
    semantics): integer keys match exactly on both plans; string keys
    are hashed to stable int64 on both sides, so membership is
    hash-equality (~2^-64 per-pair false match) on EITHER plan; any
    other type raises TypeError regardless of input size.

    ``size_hint_bytes`` (~8-16 B x keep-set rows): at/above the
    collapse threshold the key projection is NEVER materialized — the
    exchange plan is chosen directly, the hint flows into the lookup
    join's bucket sizing, and a 10^12-row survivor set streams
    straight through. Without a hint the probe materializes the
    (narrow) key projection and measures, as before.
    """
    from batch_geocode_ray.stages import dedup as _dd  # single knob

    right_key = right_key or key
    streaming = (size_hint_bytes is not None
                 and size_hint_bytes >= _dd.SMALL_COLLAPSE_BYTES)
    keys_m = keys_ds.select_columns([right_key])
    if not streaming:
        keys_m = keys_m.materialize()
    # validate the key type UP FRONT, before any plan choice — otherwise
    # the same call would pass on a small fixture (broadcast path) and
    # fail only at scale when the probe picks the exchange plan
    sch = keys_m.schema()  # ray Schema: parallel .names/.types lists
    key_type = dict(zip(sch.names, sch.types))[right_key]
    if pa.types.is_string(key_type) or pa.types.is_large_string(key_type):
        # hash string keys to stable int64 on BOTH sides so the
        # broadcast and exchange plans accept identical inputs with
        # identical (hash-equality) semantics: ~2^-64 per-pair false
        # match, plan-independent, instead of a TypeError that only
        # fires past SMALL_COLLAPSE_BYTES
        from batch_geocode_ray.functions.hashing import stable_hash64_array

        def _hash_keys(b: pa.Table, col: str) -> pa.Table:
            h = stable_hash64_array(b[col]).view(np.int64)
            return pa.table({"__sa_hkey": pa.array(h, pa.int64())})

        hashed_keys = keys_m.map_batches(
            lambda b: _hash_keys(b, right_key), batch_format="pyarrow")
        with_h = ds.map_batches(
            lambda b: b.append_column(
                "__sa_hkey",
                pa.array(stable_hash64_array(b[key]).view(np.int64),
                         pa.int64())),
            batch_format="pyarrow")
        out = semi_anti_join(with_h, hashed_keys, "__sa_hkey", anti=anti,
                             num_partitions=num_partitions,
                             size_hint_bytes=size_hint_bytes)
        return out.map_batches(lambda b: b.drop_columns(["__sa_hkey"]),
                               batch_format="pyarrow")
    if not pa.types.is_integer(key_type):
        raise TypeError(
            "semi_anti_join requires integer or string keys (got "
            f"{key_type} for {right_key!r})")
    if not streaming and (keys_m.size_bytes() or 0) < _dd.SMALL_COLLAPSE_BYTES:
        # an empty block may carry no schema at all (Ray passes a
        # 0-row block through map_batches as-is): skip, don't concat it
        parts = [t for t in (ray.get(r) for r in keys_m.to_arrow_refs())
                 if t.num_columns]
        keys = (pa.concat_tables(parts)[right_key].combine_chunks()
                if parts else pa.array([], key_type))
        return broadcast_semi_anti(ds, keys, key, anti=anti)
    flagged = keys_m.map_batches(
        lambda b: pa.table({
            right_key: b[right_key],
            "__sa_flag": pa.array(np.ones(b.num_rows, np.int8)),
        }), batch_format="pyarrow")
    marked = _dd._bucket_lookup_join(ds, key, flagged, right_key,
                                     {"__sa_flag": "__sa_flag"},
                                     missing="null",
                                     size_hint_bytes=size_hint_bytes
                                     if streaming else None)

    def keep(b: pa.Table) -> pa.Table:
        found = pc.is_valid(b["__sa_flag"])
        return b.filter(pc.invert(found) if anti else found) \
                .drop_columns(["__sa_flag"])

    return marked.map_batches(keep, batch_format="pyarrow")


def _int64(col) -> np.ndarray:
    """An integer or timestamp column as int64 (timestamps in µs)."""
    v = np.asarray(col.to_numpy(zero_copy_only=False))
    return (v.astype("datetime64[us]") if v.dtype.kind == "M" else v) \
        .astype(np.int64)


class _KeyedTimes:
    """The small side of a keyed interval probe: its rows sorted by
    (key, ts), so each key owns one run of ascending timestamps."""

    def __init__(self, small: pa.Table, key: str, ts_col: str):
        keys, ts = _int64(small[key]), _int64(small[ts_col])
        self.order = np.lexsort((ts, keys))
        self.ts = ts[self.order]
        self.ukeys, self.starts = np.unique(keys[self.order], return_index=True)
        self.ends = np.append(self.starts[1:], len(keys))

    def search(self, keys: np.ndarray, ts: np.ndarray):
        """(start of each query row's key run, -1 where the key is
        absent; the right insertion point of ``ts`` in that run, as an
        index into the sorted side). One bisection of all rows at once,
        a vector step per halving of the longest run."""
        if not len(self.ukeys):
            return np.full(len(keys), -1), np.zeros(len(keys), np.int64)
        u = np.minimum(np.searchsorted(self.ukeys, keys), len(self.ukeys) - 1)
        found = self.ukeys[u] == keys
        lo = np.where(found, self.starts[u], 0)
        hi = np.where(found, self.ends[u], 0)
        while (active := lo < hi).any():
            mid = (lo + hi) // 2
            le = active & (self.ts[np.minimum(mid, len(self.ts) - 1)] <= ts)
            lo = np.where(le, mid + 1, lo)
            hi = np.where(active & ~le, mid, hi)
        return np.where(found, self.starts[u], -1), lo


class _AsofProbe:
    """Per-worker cached as-of probe of one broadcast small side."""

    def __init__(self, side, key: str, ts_col: str, out_names: tuple):
        self.times, self.values = side
        self.key, self.ts_col, self.out_names = key, ts_col, out_names

    def __call__(self, batch: pa.Table) -> pa.Table:
        start, pos = self.times.search(_int64(batch[self.key]),
                                       _int64(batch[self.ts_col]))
        found = (start >= 0) & (pos > start)
        safe = np.where(found, pos - 1, 0)
        for c, name in self.out_names:
            batch = batch.append_column(name, pa.array(
                self.values[c][safe], from_pandas=True, mask=~found))
        return batch


def broadcast_asof(ds: Dataset, small: pa.Table, key: str, ts_col: str,
                   small_key: str, small_ts: str,
                   value_cols: list[str],
                   out_names: dict[str, str] | None = None) -> Dataset:
    """Backward as-of join: for each big-side row, attach the small-side
    row with the same key and the LATEST ``small_ts`` <= ``ts_col``
    (left-join semantics: no match -> nulls).

    The small side is sorted once by (key, ts) and broadcast; each batch
    bisects all its rows at once, each inside its key's timestamp run
    (no per-row or per-key Python). Among
    small-side ties on (key, ts) the last row in (key, ts) sort order
    wins; emit only tie-unambiguous value columns (e.g. the matched
    timestamp) when the small side can hold duplicates. Value columns
    are numeric or timestamp; any other type raises ``TypeError``.
    """
    for c in value_cols:
        t = small.schema.field(c).type
        if not (pa.types.is_timestamp(t) or pa.types.is_integer(t)
                or pa.types.is_floating(t)):
            raise TypeError(
                f"broadcast_asof value column {c!r} is {t}; only numeric "
                "and timestamp columns are supported")
    times = _KeyedTimes(small, small_key, small_ts)
    values = {c: np.asarray(small[c].to_numpy(zero_copy_only=False))[times.order]
              for c in value_cols}
    names = tuple((c, (out_names or {}).get(c, c)) for c in value_cols)
    return stateful_map_batches(
        ds, _AsofProbe, {"side": ray.put((times, values)), "key": key,
                         "ts_col": ts_col, "out_names": names},
        batch_format="pyarrow")


class _RangeCounts:
    """Per-worker cached partial range counts against one broadcast
    small side."""

    def __init__(self, side, key: str, ts_col: str, small_id: str,
                 window_us: int, count_name: str):
        self.times, self.ids = side
        self.key, self.ts_col, self.small_id = key, ts_col, small_id
        self.window_us, self.count_name = window_us, count_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        bk, ts = _int64(batch[self.key]), _int64(batch[self.ts_col])
        # interval i matches event t iff s_ts[i] <= t < s_ts[i]+w
        # <=> t - w < s_ts[i] <= t
        start, lo = self.times.search(bk, ts - self.window_us)
        _, hi = self.times.search(bk, ts)
        hit = start >= 0
        delta = np.zeros(len(self.ids) + 1, dtype=np.int64)
        np.add.at(delta, lo[hit], 1)
        np.add.at(delta, hi[hit], -1)
        counts = np.cumsum(delta[:-1])
        nz = counts > 0
        return pa.table({
            self.small_id: pa.array(self.ids[nz], pa.int64()),
            self.count_name: pa.array(counts[nz], pa.int64()),
        })


def broadcast_range_count(ds: Dataset, small: pa.Table, key: str,
                          ts_col: str, small_key: str, small_ts: str,
                          small_id: str, window_us: int,
                          count_name: str = "n_events") -> Dataset:
    """Keyed RANGE join, count-aggregated: for every small-side row,
    count big-side rows with the same key and timestamp in
    ``[small_ts, small_ts + window)`` — the interval-join shape Ray
    Data lacks (e.g. "events within 7 days after each order").

    The small side (sorted by key, ts) broadcasts once; each big batch
    binary-searches its events into per-key interval ranges and emits
    per-interval PARTIAL counts (one row per touched interval, not per
    event) — so the shuffle to the final per-interval sum carries
    O(intervals x blocks), never O(events). Only intervals with >= 1
    match appear (inner-join semantics).
    """
    from batch_geocode_ray.stages.aggregates import grouped_aggregate

    times = _KeyedTimes(small, small_key, small_ts)
    ids = np.asarray(small[small_id].to_numpy(zero_copy_only=False),
                     dtype=np.int64)[times.order]
    partials = stateful_map_batches(
        ds, _RangeCounts,
        {"side": ray.put((times, ids)), "key": key, "ts_col": ts_col,
         "small_id": small_id, "window_us": window_us,
         "count_name": count_name},
        batch_format="pyarrow")
    return grouped_aggregate(partials, [small_id],
                             [(count_name, "sum", count_name)],
                             sort_keys=[small_id])


def broadcast_join(ds: Dataset, small: pa.Table, key: str,
                   value_cols: list[str], how: str = "inner") -> Dataset:
    """Join ``small``'s ``value_cols`` onto ``ds`` by ``key`` without
    shuffling ``ds``. The small side is put into the object store ONCE
    (not re-shipped per batch/task).

    Runs as worker-cached TASKS (``stateful_map_batches``) rather than
    an actor pool: actor spin-up is ~1-2 s that short queries pay in
    full, while tasks reach full parallelism instantly and fuse with
    the upstream read (the same lesson as the fused flagship stage).
    State cost per worker is one zero-copy plasma read."""
    ref = ray.put(_Lookup(small, key, value_cols))
    return stateful_map_batches(ds, _BroadcastProbe,
                                {"lookup": ref, "key": key, "how": how},
                                batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-prefiltered anti join
# ---------------------------------------------------------------------------

def _bloom_positions(vals: np.ndarray, m_bits: int,
                     k_hashes: int) -> np.ndarray:
    """(n, k) bit positions via splitmix64 double hashing (Kirsch-
    Mitzenmacher: pos_i = h1 + i*h2 mod m)."""
    from batch_geocode_ray.functions.hashing import splitmix64

    h1 = splitmix64(vals.astype(np.uint64))
    h2 = splitmix64(h1 ^ np.uint64(0x9E3779B97F4A7C15))
    ks = np.arange(k_hashes, dtype=np.uint64)
    return (h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(m_bits)


def build_bloom(keys_ds: Dataset, key: str, m_bits: int = 1 << 23,
                k_hashes: int = 4) -> np.ndarray:
    """Distributed Bloom bitmap over an integer key Dataset: per-batch
    partial bitmaps (mergeable by OR), folded in a two-level tree so no
    single task ever ORs more than ~32 bitmaps and the driver never
    sees more than one."""
    nbytes = m_bits // 8

    def partial(b: pa.Table) -> pa.Table:
        v = np.asarray(b[key].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        bm = np.zeros(nbytes, np.uint8)
        if len(v):
            p = _bloom_positions(v, m_bits, k_hashes).reshape(-1)
            np.bitwise_or.at(
                bm, (p >> np.uint64(3)).astype(np.int64),
                (np.uint8(1) << (p & np.uint64(7)).astype(np.uint8)))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    def orfold(b: pa.Table) -> pa.Table:
        out = np.zeros(nbytes, np.uint8)
        for x in b["bm"]:
            out |= np.frombuffer(x.as_py(), np.uint8)
        return pa.table({"bm": pa.array([out.tobytes()], pa.binary())})

    parts = keys_ds.map_batches(partial, batch_format="pyarrow")
    lvl1 = parts.repartition(32).map_batches(
        orfold, batch_format="pyarrow", batch_size=None)
    [row] = _one_task(lvl1, orfold).take_all()
    return np.frombuffer(row["bm"], np.uint8).copy()


class _BloomSplit:
    """Per-worker cached Bloom probe: keeps the rows whose key is a
    possible hit (``want_possible``) or a definite miss."""

    def __init__(self, lookup: np.ndarray, key: str, m_bits: int,
                 k_hashes: int, want_possible: bool):
        self.bm, self.key = lookup, key
        self.m_bits, self.k_hashes = m_bits, k_hashes
        self.want_possible = want_possible

    def __call__(self, batch: pa.Table) -> pa.Table:
        v = np.asarray(batch[self.key].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        if not len(v):
            return batch
        p = _bloom_positions(v, self.m_bits, self.k_hashes)
        bits = (self.bm[(p >> np.uint64(3)).astype(np.int64)]
                >> (p & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
        possible = bits.all(axis=1)
        return batch.filter(pa.array(possible if self.want_possible
                                     else ~possible))


def bloom_anti_join(ds: Dataset, keys_ds: Dataset, key: str,
                    right_key: str | None = None, m_bits: int = 1 << 23,
                    k_hashes: int = 4) -> Dataset:
    """EXACT anti join (keep ``ds`` rows whose key is NOT in
    ``keys_ds``) with a Bloom prefilter: the bitmap broadcasts once
    (``ray.put`` + per-worker cache), definite misses stream straight
    through (a Bloom filter has no false negatives), and only the
    possible-hit slice — a few % of rows at the default 1 MiB / 4-hash
    sizing — pays the exact :func:`semi_anti_join`. The big side is
    never shuffled for the misses.

    The prefilter map runs twice over the (pruned, columnar) read — one
    pass per branch; at corpus scale that is cheaper than materializing
    the tagged table or shuffling everything into the exact join."""
    right_key = right_key or key
    bm = build_bloom(keys_ds.select_columns([right_key]), right_key,
                     m_bits, k_hashes)
    ref = ray.put(bm)
    common = {"lookup": ref, "key": key, "m_bits": m_bits,
              "k_hashes": k_hashes}
    miss = stateful_map_batches(ds, _BloomSplit,
                                {**common, "want_possible": False},
                                batch_format="pyarrow")
    poss = stateful_map_batches(ds, _BloomSplit,
                                {**common, "want_possible": True},
                                batch_format="pyarrow")
    exact = semi_anti_join(poss, keys_ds, key, right_key=right_key,
                           anti=True)
    return miss.union(exact)
