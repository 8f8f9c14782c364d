"""Joins: one equi-join with two plans, plus as-of, range and Bloom
joins.

SURVEY §2.5: the reference's only join is a small left join
(vet_geocode.py:106-111). At 10^12-row scale the rule is: when one side
fits in memory, broadcast it once (``stateful.stateful_map_batches``)
and probe it inside ``map_batches`` — the big side never shuffles.
:func:`equi_join` (inner, left, semi, anti) has exactly two plans:

* **broadcast** — the plan estimates the right side below
  ``exchange.SMALL_COLLAPSE_BYTES`` (``exchange.estimated_bytes``, from
  the sizes its sources carry; nothing runs to choose): it is gathered
  into one table and probed by :func:`broadcast_join`, the entry point
  for a right side that is already a ``pa.Table``;
* **exchange** — otherwise: :func:`_bucket_lookup_join` co-locates
  both sides' keys in one ``exchange.bucket_exchange``; MinHash
  verify attaches each candidate's text with it too.

There is no Ray ``Dataset.join``: its hash-shuffle partitions crash
when one side delivers them no blocks, as an empty or low-cardinality
side does. Keys are integers (matched exactly) or strings (matched by
stable int64 hash) on both plans, through :func:`join_key64`; the
broadcast lookup is a sorted int64 array probed by ``np.searchsorted``.
A null key matches nothing on either plan, as in SQL: inner and semi
drop its row, left keeps it with null values, anti keeps it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from batch_geocode_ray.functions.hashing import splitmix64, stable_hash64_array
from batch_geocode_ray.stages.aggregates import grouped_aggregate
from batch_geocode_ray.stages.exchange import (
    _one_task,
    _probe_small,
    bucket_exchange,
)
from batch_geocode_ray.stages.stateful import gather, stateful_map_batches

_HOW = ("inner", "left", "semi", "anti")


def join_key64(col: pa.Array | pa.ChunkedArray, name: str) -> np.ndarray:
    """Equi-join key column ``name`` as int64: integers as themselves,
    strings by their stable 64-bit hash (a ~2^-64 per-pair false
    match). Other types raise ``TypeError`` naming the column. A null
    gets an arbitrary value: callers mask null keys out."""
    t = col.type
    if pa.types.is_integer(t):
        return np.asarray(col.fill_null(0).to_numpy(zero_copy_only=False),
                          dtype=np.int64)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return stable_hash64_array(col).view(np.int64)
    raise TypeError(f"join key column {name!r} has type {t}; expected an "
                    "integer or string column")


class _Lookup:
    """Immutable right-side lookup, built once on the driver and
    broadcast inside its :class:`_BroadcastProbe`:
    the distinct keys (:func:`join_key64`) sorted, and each value
    column in that order.

    With value columns the keys must be UNIQUE (one row per key); a
    key set with none (semi/anti) may repeat them. A null key matches
    nothing, on either side. Value columns keep their source Arrow type
    (probe output is a C++ ``take``).
    """

    def __init__(self, table: pa.Table, key: str, value_cols: list[str]):
        table = table.filter(pc.is_valid(table[key]))
        k = join_key64(table[key], key)
        self.keys, first = np.unique(k, return_index=True)
        if value_cols and len(self.keys) != len(k):
            raise ValueError(
                f"join right side has duplicate {key!r} keys; an inner or "
                "left join attaches at most one right row per key")
        self.key, self.value_cols = key, value_cols
        idx = pa.array(first, pa.int64())
        self.values = {c: table[c].combine_chunks().take(idx)
                       for c in value_cols}

    def probe(self, key_arr: pa.Array | pa.ChunkedArray):
        """Returns (positions, found_mask) into the value arrays."""
        if not len(self.keys):
            return (np.zeros(len(key_arr), np.int64),
                    np.zeros(len(key_arr), bool))
        k = join_key64(key_arr, self.key)
        pos = np.minimum(np.searchsorted(self.keys, k), len(self.keys) - 1)
        valid = pc.is_valid(key_arr).to_numpy(zero_copy_only=False)
        return pos, (self.keys[pos] == k) & valid


class _BroadcastProbe:
    """Per-worker cached probe of one broadcast :class:`_Lookup`."""

    def __init__(self, lookup: _Lookup, key: str, how: str):
        self.lookup, self.key, self.how = lookup, key, how

    def __call__(self, batch: pa.Table) -> pa.Table:
        lk = self.lookup
        pos, found = lk.probe(batch[self.key])
        if self.how in ("semi", "anti"):
            return batch.filter(pa.array(found if self.how == "semi"
                                         else ~found))
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


def equi_join(ds: Dataset, right: Dataset, key: str, how: str,
              value_cols: list[str] | tuple = (),
              right_key: str | None = None) -> Dataset:
    """Join ``right`` onto ``ds`` where ``ds[key] == right[right_key]``
    (``right_key`` defaults to ``key``). ``how``:

    * ``inner``/``left`` attach ``value_cols`` (right keys unique; a
      left join's unmatched rows get typed nulls);
    * ``semi``/``anti`` keep the rows whose key is / is not in
      ``right`` and add no columns (right keys may repeat).

    The plan's estimate of the right side picks the plan (module doc);
    the right side is never materialized to choose it. A bad key type
    fails before the plan runs when the right side's schema is known
    without running it, and when its batches are read otherwise. An
    empty right side (with or without a schema) gives the empty join on
    both plans. Output columns: ``ds``'s, then ``value_cols``."""
    if how not in _HOW:
        raise ValueError(f"equi_join how={how!r}; expected one of {_HOW}")
    right_key = right_key or key
    value_cols = list(value_cols)
    m = right.select_columns([right_key] + value_cols)
    small = _probe_small(m)
    table = gather(m) if small else None
    schema = (table.schema if small and table.num_columns
              else right.schema(fetch_if_missing=False))
    # Ray keeps no schema for an empty block: such a right side is
    # empty, its key matches nothing and its values come out null-typed
    types = dict(zip(schema.names, schema.types)) if schema else {}
    key_type = types.get(right_key, pa.int64())
    join_key64(pa.nulls(0, key_type), right_key)  # TypeError on a bad key
    if small:
        # Ray's select_columns passes an empty block through whole
        table = (table.select([right_key] + value_cols) if table.num_columns
                 else pa.schema([(right_key, key_type)]
                                + [(c, types.get(c, pa.null()))
                                   for c in value_cols]).empty_table())
        return broadcast_join(ds, table.rename_columns([key] + value_cols),
                              key, value_cols, how)
    # the right key rides along as the match flag: non-null exactly
    # where a right row matched
    hit = "__join_hit"
    marked = _bucket_lookup_join(
        ds, key, m, right_key,
        {right_key: hit, **{c: c for c in value_cols}}, missing="null")

    def finish(b: pa.Table) -> pa.Table:
        found = pc.is_valid(b[hit])
        if how == "anti":
            b = b.filter(pc.invert(found))
        elif how != "left":
            b = b.filter(found)
        return b.drop_columns([hit])

    return marked.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# bucket-exchange lookup join
# ---------------------------------------------------------------------------

def _bucket_lookup_join(requests: Dataset, req_key: str,
                        source: Dataset, source_key: str,
                        payload: dict[str, str],
                        missing: str = "error") -> Dataset:
    """Attach ``payload`` columns (``{source_col: out_col}``) from
    ``source`` onto every ``requests`` row whose ``req_key`` equals the
    source row's ``source_key`` — an equi-join expressed as one
    :func:`bucket_exchange` on the key instead of ``Dataset.join``.

    Why not the native join: Ray 2.49's hash-shuffle join feeds acero
    per partition and CRASHES ('No match for FieldRef') whenever one
    side delivers zero blocks to a partition — guaranteed for the
    low-cardinality candidate sides these verify steps produce. The
    exchange here shuffles the same O(source + requests) rows once,
    collapses to one task below the small threshold, and is empty-safe.

    Keys follow :func:`join_key64` (integers exactly, strings by stable
    hash); a null key matches nothing. A request key should appear ONCE
    in ``source`` for 1:1 payload semantics (with duplicate source keys
    an arbitrary one attaches — fine for membership flags). Source rows
    without requests emit nothing. ``missing``: "error" raises on a
    request key absent from source; "null" attaches typed nulls (left
    semantics).

    Neither side runs to learn its schema: a carrier row holds only the
    payload columns and a request row only the request columns, and
    the exchange's concatenation fills each side's absent columns with
    typed nulls (Arrow's default schema promotion). A merge task that
    receives no carrier row attaches null-typed payload columns."""
    outs = list(payload.values())

    def as_carrier(b: pa.Table) -> pa.Table:
        if b[source_key].null_count:
            b = b.filter(pc.is_valid(b[source_key]))
        cols = {"__lk_k": pa.array(join_key64(b[source_key], source_key)),
                "__lk_r": pa.array(np.zeros(b.num_rows, np.int8))}
        for sc, oc in payload.items():
            cols[oc] = b[sc]
        return pa.table(cols)

    def as_request(b: pa.Table) -> pa.Table:
        # 1 marks a request, 2 a request with a null key (never matched)
        valid = pc.is_valid(b[req_key]).to_numpy(zero_copy_only=False)
        cols = {"__lk_k": pa.array(join_key64(b[req_key], req_key)),
                "__lk_r": pa.array(np.where(valid, 1, 2).astype(np.int8))}
        for c in b.column_names:
            cols[c] = b[c]
        return pa.table(cols)

    rows = (source.map_batches(as_carrier, batch_format="pyarrow")
            .union(requests.map_batches(as_request,
                                        batch_format="pyarrow")))

    def attach(g: pa.Table) -> pa.Table:
        k = np.asarray(g["__lk_k"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        r = np.asarray(g["__lk_r"].to_numpy(zero_copy_only=False),
                       dtype=np.int8)
        order = np.lexsort((r, k))  # carriers (0) first per key segment
        ks, rs = k[order], r[order]
        g2 = g.take(pa.array(order, pa.int64()))
        seg_start = np.ones(len(ks), dtype=bool)
        seg_start[1:] = ks[1:] != ks[:-1]
        starts = np.nonzero(seg_start)[0]
        req_mask = rs != 0
        seg_id = np.cumsum(seg_start) - 1
        carrier_of = starts[seg_id]
        has_carrier = (rs[starts] == 0)[seg_id]
        req_idx = np.nonzero(req_mask)[0]
        car_idx = carrier_of[req_mask]
        car_ok = has_carrier[req_mask] & (rs[req_mask] == 1)
        if missing == "error" and not car_ok.all():
            raise ValueError(
                "lookup-join request key(s) "
                f"{np.unique(ks[req_idx[~car_ok]])[:5].tolist()} "
                "have no source row")
        req_names = [c for c in g2.column_names
                     if c not in outs and c not in ("__lk_k", "__lk_r")]
        out = {c: g2[c].take(pa.array(req_idx, pa.int64()))
               for c in req_names}
        idx = (pa.array(car_idx, pa.int64()) if car_ok.all()
               else pa.array(car_idx, pa.int64(), mask=~car_ok))
        for oc in outs:
            out[oc] = (g2[oc].take(idx) if oc in g2.column_names
                       else pa.nulls(len(idx)))
        return pa.table(out)

    # the union's estimate sums both sides: O(source + requests)
    return bucket_exchange(rows, "__lk_k", attach)


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
        ds, _AsofProbe((times, values), key=key, ts_col=ts_col,
                       out_names=names),
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
    times = _KeyedTimes(small, small_key, small_ts)
    ids = np.asarray(small[small_id].to_numpy(zero_copy_only=False),
                     dtype=np.int64)[times.order]
    partials = stateful_map_batches(
        ds, _RangeCounts((times, ids), key=key, ts_col=ts_col,
                         small_id=small_id, window_us=window_us,
                         count_name=count_name),
        batch_format="pyarrow")
    return grouped_aggregate(partials, [small_id],
                             [(count_name, "sum", count_name)])


def broadcast_join(ds: Dataset, small: pa.Table, key: str,
                   value_cols: list[str], how: str = "inner") -> Dataset:
    """:func:`equi_join`'s broadcast plan for a right side that is
    already a table: ``small[key]`` against ``ds[key]``, ``how`` one of
    inner/left/semi/anti, without shuffling ``ds``. The lookup is put
    into the object store ONCE (not re-shipped per batch/task).

    Runs as worker-cached TASKS (``stateful_map_batches``) rather than
    an actor pool: actor spin-up is ~1-2 s that short queries pay in
    full, while tasks reach full parallelism instantly and fuse with
    the upstream read (the same lesson as the fused flagship stage).
    State cost per worker is one zero-copy plasma read."""
    if how not in _HOW:
        raise ValueError(f"broadcast_join how={how!r}; expected one of {_HOW}")
    return stateful_map_batches(
        ds, _BroadcastProbe(_Lookup(small, key, value_cols), key=key, how=how),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-prefiltered anti join
# ---------------------------------------------------------------------------

def _bloom_positions(vals: np.ndarray, m_bits: int,
                     k_hashes: int) -> np.ndarray:
    """(n, k) bit positions via splitmix64 double hashing (Kirsch-
    Mitzenmacher: pos_i = h1 + i*h2 mod m)."""
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
    bm = gather(_one_task(lvl1, orfold))["bm"][0].as_py()
    return np.frombuffer(bm, np.uint8).copy()


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
    (``stateful_map_batches``), definite misses stream straight
    through (a Bloom filter has no false negatives), and only the
    possible-hit slice — a few % of rows at the default 1 MiB / 4-hash
    sizing — pays the exact :func:`equi_join` anti join. The big side
    is never shuffled for the misses.

    The prefilter map runs twice over the (pruned, columnar) read — one
    pass per branch; at corpus scale that is cheaper than materializing
    the tagged table or shuffling everything into the exact join."""
    right_key = right_key or key
    bm = build_bloom(keys_ds.select_columns([right_key]), right_key,
                     m_bits, k_hashes)
    miss, poss = (stateful_map_batches(
        ds, _BloomSplit(bm, key=key, m_bits=m_bits, k_hashes=k_hashes,
                        want_possible=want),
        batch_format="pyarrow") for want in (False, True))
    exact = equi_join(poss, keys_ds, key, "anti", right_key=right_key)
    return miss.union(exact)
