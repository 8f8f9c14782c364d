"""Event-stream style operators over a batch table: gap-based
sessionization and per-group top-k.

Ray Data has no native session windows; ``sessionize`` expresses them
as: :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` keyed on
the user (the Python group hook runs once per coarse bucket, not once
per user) -> vectorized NumPy session assignment over the lexsorted
(user, ts) arrays inside each bucket. The other per-key windows here
(moving average, rank, LAG gaps, transitions) share that exchange, and
so do the two Blelloch scans (``sequence_pack_offsets``,
``grouped_token_budget_sample``), keyed on a contiguous range bucket of
the shuffle key.
Partitioning assumption: one user's events fit in one group's memory
(true even for pathological users at billions of events/user — then
pre-split by day).

``grouped_topk`` keeps per-group candidates k-bounded inside every
batch (partial top-k), so the final merge sees at most
k x n_blocks x n_groups rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from batch_geocode_ray.functions.hashing import KNUTH_MULT
from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.aggregates import grouped_aggregate
from batch_geocode_ray.stages.exchange import (
    _one_task,
    _probe_small,
    bucket_exchange,
)
from batch_geocode_ray.stages.stateful import gather


def sessionize(ds: Dataset, user_col: str, ts_col: str, value_col: str,
               order_col: str, gap_seconds: float = 1800.0) -> Dataset:
    """Gap-based sessions per user.

    A new session starts when the time since the previous event of the
    SAME user exceeds ``gap_seconds``. Output one row per session:
    (user_col, session_n [1-based per user], session_start, session_end,
    n_events, sum_value). Ties in ``ts_col`` order by ``order_col``.
    """

    def sessions_in_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        users = np.asarray(g[user_col].to_numpy(zero_copy_only=False),
                           dtype=np.int64)
        ts = np.asarray(g[ts_col].to_numpy(zero_copy_only=False))
        ts_us = ts.astype("datetime64[us]").astype(np.int64)
        val = np.asarray(g[value_col].to_numpy(zero_copy_only=False),
                         dtype=np.float64)
        order_v = np.asarray(g[order_col].to_numpy(zero_copy_only=False),
                             dtype=np.int64)
        order = np.lexsort((order_v, ts_us, users))
        users, ts_us, val = users[order], ts_us[order], val[order]

        gap_us = int(gap_seconds * 1_000_000)
        new_sess = np.ones(n, dtype=bool)
        if n > 1:
            new_sess[1:] = (users[1:] != users[:-1]) | \
                           (ts_us[1:] - ts_us[:-1] > gap_us)
        sess_id = np.cumsum(new_sess) - 1  # global (bucket-local) session idx
        starts = np.nonzero(new_sess)[0]
        ends = np.concatenate([starts[1:], [n]])
        # per-user 1-based numbering: rank of session start within user
        user_of_sess = users[starts]
        m = len(starts)
        new_run = np.ones(m, dtype=bool)
        if m > 1:
            new_run[1:] = user_of_sess[1:] != user_of_sess[:-1]
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(m), 0))
        sess_n = np.arange(m) - run_start + 1
        sums = np.add.reduceat(val, starts)
        counts = (ends - starts).astype(np.int64)
        return pa.table({
            user_col: pa.array(user_of_sess, pa.int64()),
            "session_n": pa.array(sess_n, pa.int64()),
            "session_start": pa.array(
                ts_us[starts].astype("datetime64[us]")),
            "session_end": pa.array(
                ts_us[ends - 1].astype("datetime64[us]")),
            "n_events": pa.array(counts, pa.int64()),
            "sum_value": pa.array(sums, pa.float64()),
        })

    return bucket_exchange(ds, user_col, sessions_in_bucket)


def grouped_moving_avg(ds: Dataset, key_col: str, ts_col: str,
                       order_col: str, value_col: str,
                       window_rows: int = 7) -> Dataset:
    """Per-key moving average over the ``window_rows`` preceding rows
    (inclusive), ordered by (``ts_col``, ``order_col``) — the
    ROWS-window aggregate Ray Data lacks (SQL: AVG(v) OVER (PARTITION
    BY key ORDER BY ts, id ROWS BETWEEN w-1 PRECEDING AND CURRENT
    ROW)).

    Same partitioning shape as :func:`sessionize`: one
    :func:`bucket_exchange` keyed on ``key_col``, lexsort inside the
    bucket, vectorized windowed sums via per-segment cumsum.
    Output: (``order_col``, ``mov_avg``) — one row per input row.
    """

    def avg_in_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        keys = np.asarray(g[key_col].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        ts = np.asarray(g[ts_col].to_numpy(zero_copy_only=False))
        ts_i = ts.astype("datetime64[us]").astype(np.int64) \
            if ts.dtype.kind == "M" else ts.astype(np.int64)
        oid = np.asarray(g[order_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        val = np.asarray(g[value_col].to_numpy(zero_copy_only=False),
                         dtype=np.float64)
        order = np.lexsort((oid, ts_i, keys))
        keys, oid, val = keys[order], oid[order], val[order]
        new_seg = np.ones(n, dtype=bool)
        if n > 1:
            new_seg[1:] = keys[1:] != keys[:-1]
        seg_start = np.maximum.accumulate(
            np.where(new_seg, np.arange(n), 0))
        pos_in_seg = np.arange(n) - seg_start
        # windowed sum by shifted adds, oldest term first (forward
        # accumulation order — same association as a naive running
        # window, keeping float drift vs the SQL oracle at ~7 ulp
        # instead of the cumsum-difference trick's cancellation error)
        acc = np.zeros(n, dtype=np.float64)
        for off in range(window_rows - 1, -1, -1):
            valid = pos_in_seg >= off
            acc[valid] = acc[valid] + val[np.nonzero(valid)[0] - off]
        cnt = np.minimum(pos_in_seg, window_rows - 1) + 1
        avg = acc / cnt
        return pa.table({
            order_col: pa.array(oid, pa.int64()),
            "mov_avg": pa.array(avg, pa.float64()),
        })

    return bucket_exchange(ds, key_col, avg_in_bucket)


def hopping_window_rows(ds: Dataset, ts_col: str, value_cols: list[str],
                        size_minutes: int = 60,
                        hop_minutes: int = 15) -> Dataset:
    """Assign each event to every hopping window covering it (window
    length ``size_minutes``, advancing every ``hop_minutes``) — the
    overlap explode that turns hopping-window aggregation into a plain
    groupby("window_start"). Replication factor = size / hop.
    """
    if size_minutes % hop_minutes:
        raise ValueError("size must be a multiple of hop")
    n_copies = size_minutes // hop_minutes

    def explode(b: pa.Table) -> pa.Table:
        bucket = pc.floor_temporal(b[ts_col], multiple=hop_minutes,
                                   unit="minute")
        bucket_us = np.asarray(bucket.to_numpy(zero_copy_only=False)
                               ).astype("datetime64[us]").astype(np.int64)
        hop_us = hop_minutes * 60_000_000
        outs = []
        for i in range(n_copies):
            cols = {"window_start": pa.array(
                (bucket_us - i * hop_us).astype("datetime64[us]"))}
            for c in value_cols:
                cols[c] = b[c]
            outs.append(pa.table(cols))
        return pa.concat_tables(outs)

    return ds.map_batches(explode, batch_format="pyarrow")


def grouped_topk(ds: Dataset, group_col: str, sort_col: str,
                 tie_col: str, k: int) -> Dataset:
    """Top-k rows per group by ``sort_col`` DESC (ties: ``tie_col``
    ASC), with a 1-based ``rank`` column — the distributed form of the
    reference's per-source top-N (query_funcs.py:376).

    Per-batch partial top-k bounds what the merge sees to
    k x n_groups x n_blocks rows. The merge is one
    :func:`bucket_exchange` keyed on the group: one final task when the
    partials measure small (the summary case: few groups), else one
    task per coarse bucket (per-url top-k at 10^12 rows), segments
    inside the bucket ranked vectorized. ``group_col`` must be an
    integer, temporal, string or binary column.
    """
    cols = list(dict.fromkeys([group_col, sort_col, tie_col]))

    def partial(b: pa.Table) -> pa.Table:
        b = b.select(cols)
        idx = pc.sort_indices(b, sort_keys=[
            (group_col, "ascending"), (sort_col, "descending"),
            (tie_col, "ascending")])
        b = b.take(idx)
        g = np.asarray(b[group_col].to_numpy(zero_copy_only=False))
        new_g = np.ones(len(g), dtype=bool)
        new_g[1:] = g[1:] != g[:-1]
        start = np.maximum.accumulate(np.where(new_g, np.arange(len(g)), 0))
        rank = np.arange(len(g)) - start
        return b.filter(pa.array(rank < k))

    def final(b: pa.Table) -> pa.Table:
        b = partial(b)
        g = np.asarray(b[group_col].to_numpy(zero_copy_only=False))
        new_g = np.ones(len(g), dtype=bool)
        new_g[1:] = g[1:] != g[:-1]
        start = np.maximum.accumulate(np.where(new_g, np.arange(len(g)), 0))
        rank = np.arange(len(g)) - start + 1
        return b.append_column("rank", pa.array(rank, pa.int64()))

    return bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                           group_col, final)


def grouped_rank(ds: Dataset, key_col: str, rank_col: str,
                 tie_cols: list[str], id_col: str) -> Dataset:
    """Per-key ranking windows Ray Data lacks natively — the SQL triple

        ROW_NUMBER() OVER (PARTITION BY key
                           ORDER BY rank_col DESC, *tie_cols)
        RANK()       OVER (PARTITION BY key ORDER BY rank_col DESC)
        DENSE_RANK() OVER (PARTITION BY key ORDER BY rank_col DESC)

    computed under ONE physical ordering (key, -rank_col, *tie_cols).
    ``rank_col`` must be integer-valued (ties are exact, so ranks are
    integers on both engines — no float stabilization needed).

    Same partitioning shape as :func:`sessionize`: one
    :func:`bucket_exchange` keyed on ``key_col``, lexsort inside, then
    vectorized run/segment arithmetic. Output one row per input
    row: (id_col, key_col, rn, rnk, drnk). Partitioning assumption:
    one bucket of keys fits in a group's memory.
    """

    def rank_in_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        keys = np.asarray(g[key_col].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        rv = np.asarray(g[rank_col].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        ties = []
        for c in tie_cols:
            t = np.asarray(g[c].to_numpy(zero_copy_only=False))
            if t.dtype.kind == "M":
                t = t.astype("datetime64[us]").astype(np.int64)
            ties.append(t.astype(np.int64))
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        # lexsort: last key is primary -> (tie_cols reversed, -rank, key)
        order = np.lexsort(tuple(reversed(ties)) + (-rv, keys))
        keys, rv, ids = keys[order], rv[order], ids[order]
        idx = np.arange(n)
        new_key = np.ones(n, dtype=bool)
        if n > 1:
            new_key[1:] = keys[1:] != keys[:-1]
        new_run = new_key.copy()
        if n > 1:
            new_run[1:] |= rv[1:] != rv[:-1]
        key_start = np.maximum.accumulate(np.where(new_key, idx, 0))
        run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
        rn = idx - key_start + 1
        rnk = run_start - key_start + 1
        drun = np.cumsum(new_run)
        drun_at_key = np.maximum.accumulate(np.where(new_key, drun, 0))
        drnk = drun - drun_at_key + 1
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            key_col: pa.array(keys, pa.int64()),
            "rn": pa.array(rn.astype(np.int64)),
            "rnk": pa.array(rnk.astype(np.int64)),
            "drnk": pa.array(drnk.astype(np.int64)),
        })

    return bucket_exchange(ds, key_col, rank_in_bucket)


def interarrival_stats(ds: Dataset, key_col: str, ts_col: str,
                       order_col: str) -> Dataset:
    """Per-key LAG-gap aggregate: order each key's rows by
    (ts_col, order_col), take consecutive timestamp deltas (the SQL
    ``epoch_us(ts) - LAG(epoch_us(ts)) OVER (PARTITION BY key ORDER BY
    ts, order)``) and reduce them per key to (n_gaps, sum_gap_us,
    max_gap_us) — all exact int64, no float stabilization needed.
    Keys with fewer than 2 rows emit nothing (no gap exists), matching
    the SQL ``WHERE gap IS NOT NULL`` filter.

    The reduction happens INSIDE the bucket group fn, so the shuffle
    moves one row per input row once and the output is one row per key.
    """

    def gaps_in_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        keys = np.asarray(g[key_col].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        ts = np.asarray(g[ts_col].to_numpy(zero_copy_only=False))
        ts_us = ts.astype("datetime64[us]").astype(np.int64)
        oid = np.asarray(g[order_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        order = np.lexsort((oid, ts_us, keys))
        keys, ts_us = keys[order], ts_us[order]
        if n < 2:
            return pa.table({key_col: pa.array([], pa.int64()),
                             "n_gaps": pa.array([], pa.int64()),
                             "sum_gap_us": pa.array([], pa.int64()),
                             "max_gap_us": pa.array([], pa.int64())})
        same = keys[1:] == keys[:-1]
        gap = ts_us[1:] - ts_us[:-1]
        gkey = keys[1:][same]
        gval = gap[same]
        if not len(gkey):
            return pa.table({key_col: pa.array([], pa.int64()),
                             "n_gaps": pa.array([], pa.int64()),
                             "sum_gap_us": pa.array([], pa.int64()),
                             "max_gap_us": pa.array([], pa.int64())})
        starts = np.nonzero(np.concatenate(
            [[True], gkey[1:] != gkey[:-1]]))[0]
        ends = np.concatenate([starts[1:], [len(gkey)]])
        return pa.table({
            key_col: pa.array(gkey[starts], pa.int64()),
            "n_gaps": pa.array((ends - starts).astype(np.int64)),
            "sum_gap_us": pa.array(np.add.reduceat(gval, starts)
                                   .astype(np.int64)),
            "max_gap_us": pa.array(np.maximum.reduceat(gval, starts)
                                   .astype(np.int64)),
        })

    return bucket_exchange(ds, key_col, gaps_in_bucket)


def grouped_transition_counts(ds: Dataset, key_col: str, ts_col: str,
                              val_col: str, order_col: str) -> Dataset:
    """Markov transition matrix: count consecutive (prev -> next)
    ``val_col`` pairs within each key's (ts, order)-ordered row
    sequence, summed over all keys — the SQL ``LAG() OVER (PARTITION BY
    key ORDER BY ts, order)`` pair extraction feeding a global GROUP
    BY. The pair extraction and a per-bucket count both happen inside
    the bucket group fn, so the final exchange carries one row per
    (bucket, from, to) — the transition matrix, not the events."""
    def trans_in_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({"from_type": pa.array([], pa.string()),
                          "to_type": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        n = g.num_rows
        if n < 2:
            return empty
        keys = np.asarray(g[key_col].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        ts_us = np.asarray(g[ts_col].to_numpy(zero_copy_only=False)) \
            .astype("datetime64[us]").astype(np.int64)
        oid = np.asarray(g[order_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        order = np.lexsort((oid, ts_us, keys))
        keys_s = keys[order]
        vals = g[val_col].combine_chunks().take(pa.array(order, pa.int64()))
        same = pa.array(keys_s[1:] == keys_s[:-1])
        frm = vals.slice(0, n - 1).filter(same)
        to = vals.slice(1).filter(same)
        if not len(frm):
            return empty
        t = (pa.table({"from_type": frm, "to_type": to})
             .group_by(["from_type", "to_type"])
             .aggregate([("to_type", "count")]))
        return t.rename_columns(["from_type", "to_type", "n"])

    partials = bucket_exchange(ds, key_col, trans_in_bucket)
    return grouped_aggregate(partials, ["from_type", "to_type"],
                             [("n", "sum", "n")])


def _shuffle_narrow_tokens(b: pa.Table, id_col: str, text_col: str,
                           op_name: str,
                           group_col: str | None = None) -> pa.Table:
    """Shared narrow pass behind the Blelloch-scan operators
    (:func:`sequence_pack_offsets`, :func:`grouped_token_budget_sample`):
    (id, [group,] shuffle_key, n_tokens) — the Knuth shuffle key
    ``(id * KNUTH_MULT) mod 2^32`` and the whitespace token count
    (``count(' ') + 1``; SQL parity: ``len(string_split(text, ' '))``).
    ONE definition: both operators' SQL oracles depend on the exact
    same key formula and tokenization."""
    ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    if len(ids) and ids.min() < 0:
        raise ValueError(f"{op_name}: ids must be >= 0")
    key = (ids.astype(np.uint64) * np.uint64(KNUTH_MULT)) \
        & np.uint64(0xFFFFFFFF)
    toks = pc.add(pc.count_substring(
        b[text_col].combine_chunks(), " "), 1).cast(pa.int64())
    cols: dict = {id_col: pa.array(ids, pa.int64())}
    if group_col is not None:
        cols[group_col] = b[group_col]
    cols["shuffle_key"] = pa.array(key.astype(np.int64), pa.int64())
    cols["n_tokens"] = toks
    return pa.table(cols)


def _range_bucket_fn(nb: int):
    """Bucket the uniform 32-bit shuffle-key space into ``nb``
    CONTIGUOUS slices (``(key * nb) >> 32``), as a ``range_bucket``
    column — contiguity is what lets a local scan + per-range-bucket
    base produce exact global prefix sums. The exchange keys on the
    column, so one coarse bucket may hold several range buckets."""
    def add_bucket(b: pa.Table) -> pa.Table:
        key = np.asarray(b["shuffle_key"].to_numpy(zero_copy_only=False),
                         dtype=np.int64).astype(np.uint64)
        bkt = ((key * np.uint64(nb)) >> np.uint64(32)).astype(np.int64)
        return b.append_column("range_bucket", pa.array(bkt, pa.int64()))
    return add_bucket


def _exclusive_scan(tok: np.ndarray, new_seg: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of ``tok`` restarting at every row where
    ``new_seg`` is set (row 0 starts a segment)."""
    cum = np.cumsum(tok) - tok
    seg = np.flatnonzero(new_seg)
    return cum - np.repeat(cum[seg], np.diff(np.append(seg, len(tok))))


def sequence_pack_offsets(ds: Dataset, id_col: str, text_col: str,
                          seq_len: int = 1024,
                          size_hint_bytes: int | None = None) -> Dataset:
    """GPT-style training-sequence packing: a DISTRIBUTED ORDERED PREFIX
    SUM over token counts in a deterministic shuffle order.

    Training pipelines concatenate the (shuffled) corpus into one token
    stream and slice it into fixed ``seq_len`` sequences (GPT-2/3 data
    prep). This operator computes, per document:

    * ``shuffle_key`` — the deterministic shuffle position,
      ``(id * KNUTH_MULT) mod 2^32`` (Knuth multiplicative hash; same
      family as :func:`~batch_geocode_ray.functions.hashing.knuth_bucket100`),
      total order with ``id_col`` as tie-break;
    * ``n_tokens`` — whitespace token count (``count(' ') + 1``;
      SQL parity: ``len(string_split(text, ' '))``);
    * ``start_off`` — EXCLUSIVE prefix sum of ``n_tokens`` in
      (shuffle_key, id) order = the doc's offset in the packed stream;
    * ``first_seq`` / ``last_seq`` — the fixed-size training sequences
      the doc lands in (``start_off // seq_len`` and
      ``(start_off + n_tokens - 1) // seq_len``).

    A global ordered scan is an inherently sequential recurrence; the
    distributed plan decomposes it the textbook way (Blelloch):

    1. one map pass reduces the corpus to narrow (id, key, n_tokens)
       tuples — the text NEVER rides an exchange — and range-buckets
       the uniform 32-bit key space into ``nb`` contiguous slices;
    2. per-bucket token TOTALS (one tiny partial row per batch x
       bucket via :func:`grouped_aggregate`) come back to the driver —
       a bounded ``nb``-row table — where an exclusive scan yields
       per-bucket BASE offsets, which the pass-2 UDF captures;
    3. one :func:`bucket_exchange` keyed on the range bucket
       co-locates each key slice; inside a group the rows lexsort by
       (key, id) and a cumsum restarted per range bucket + that range
       bucket's base gives exact global offsets.

    Below ``SMALL_COLLAPSE_BYTES`` (or without a qualifying
    ``size_hint_bytes``) the whole narrow table sorts and scans in ONE
    task, skipping both all-to-alls. With a hint >= the threshold the
    plan is fully streaming (no materialization); the narrow lineage
    re-executes once per pass (2 pruned reads total).

    Requires non-negative integer ids and non-null text. Offsets are
    int64 (a 100 TB corpus is ~2^44 tokens — 3 orders of magnitude of
    headroom).
    """
    def narrow(b: pa.Table) -> pa.Table:
        return _shuffle_narrow_tokens(b, id_col, text_col,
                                      "sequence_pack_offsets")

    def pack(t: pa.Table, bases: np.ndarray | None = None) -> pa.Table:
        """Offsets in (key, id) order; with ``bases``, each row's range
        bucket adds its base (without, the table is one range)."""
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        key = np.asarray(t["shuffle_key"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        tok = np.asarray(t["n_tokens"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        order = np.lexsort((ids, key))
        ids, key, tok = ids[order], key[order], tok[order]
        start = np.cumsum(tok) - tok
        if bases is not None:
            # range buckets are contiguous key slices: sorted by key
            rb = np.asarray(t["range_bucket"].to_numpy(
                zero_copy_only=False), dtype=np.int64)[order]
            start = bases[rb] + _exclusive_scan(
                tok, np.diff(rb, prepend=np.int64(-1)) != 0)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "shuffle_key": pa.array(key, pa.int64()),
            "n_tokens": pa.array(tok, pa.int64()),
            "start_off": pa.array(start, pa.int64()),
            "first_seq": pa.array(start // seq_len, pa.int64()),
            "last_seq": pa.array((start + tok - 1) // seq_len, pa.int64()),
        })

    narrow_ds = ds.map_batches(narrow, batch_format="pyarrow")
    m, small, approx = _probe_small(narrow_ds,
                                    size_hint_bytes=size_hint_bytes)
    if small:
        return _one_task(m, pack)

    nb = exchange.adaptive_bucket_count(approx)
    bucketed = m.map_batches(_range_bucket_fn(nb), batch_format="pyarrow")

    # pass 1: per-bucket token totals -> driver exclusive scan (nb rows,
    # bounded: nb grows ~linearly at 32 MB/bucket => ~12 MB of totals
    # even at a 10^12-doc corpus)
    totals = grouped_aggregate(
        bucketed.select_columns(["range_bucket", "n_tokens"]),
        ["range_bucket"], [("n_tokens", "sum", "tok_sum")],
        size_hint_bytes=size_hint_bytes)
    tb = gather(totals)
    per_bucket = np.zeros(nb, dtype=np.int64)
    if tb.num_rows:
        per_bucket[np.asarray(
            tb["range_bucket"].to_numpy(zero_copy_only=False),
            dtype=np.int64)] = \
            np.asarray(tb["tok_sum"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
    bases = np.concatenate([[0], np.cumsum(per_bucket)[:-1]]).astype(np.int64)

    # pass 2: co-locate each contiguous key slice, scan locally (the
    # size is >= the collapse threshold here, so nothing is probed)
    return bucket_exchange(bucketed, "range_bucket",
                           lambda g: pack(g, bases), size_hint_bytes=approx)


def grouped_token_budget_sample(ds: Dataset, id_col: str, text_col: str,
                                group_col: str, budget_tokens: int,
                                size_hint_bytes: int | None = None
                                ) -> Dataset:
    """Data-mixture curation: cap every group (source / domain) at a
    token budget, keeping documents in DETERMINISTIC shuffle order —
    the distributed form of "take each source's first N tokens of the
    shuffled corpus" (the subsampling step behind mixture reweighting
    a la DoReMi / The Pile's per-set epochs).

    Per document: the same ``shuffle_key`` order as
    :func:`sequence_pack_offsets`, but the exclusive prefix sum of
    ``n_tokens`` runs PER GROUP (SQL parity:
    ``SUM(n_tokens) OVER (PARTITION BY group ORDER BY key, id)``).
    A doc is kept iff its whole token span fits the budget:
    ``src_off + n_tokens <= budget_tokens``. Output columns:
    (id, group, shuffle_key, n_tokens, src_off) — kept rows only.

    Same Blelloch-scan plan as :func:`sequence_pack_offsets` with the
    pass-1 totals keyed on (range bucket, group) and per-group base
    offsets broadcast as a dict of arrays; the scan restarts per
    (group, range bucket). Partitioning assumption:
    GROUP CARDINALITY IS BOUNDED (mixture sources/domains, ~10^0-10^4)
    — the driver-side totals table is nb x n_groups rows; a
    high-cardinality group key (per-url) needs a different plan (it
    also makes no sense as a mixture axis).
    """
    def narrow(b: pa.Table) -> pa.Table:
        return _shuffle_narrow_tokens(b, id_col, text_col,
                                      "grouped_token_budget_sample",
                                      group_col=group_col)

    def scan(t: pa.Table, bases: dict | None = None) -> pa.Table:
        """Per-group exclusive scan in (key, id) order + budget filter;
        with ``bases``, each (group, range bucket) segment starts at
        ``bases[group][range_bucket]`` (without, at 0)."""
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        key = np.asarray(t["shuffle_key"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        tok = np.asarray(t["n_tokens"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        grp = t[group_col].combine_chunks()
        # stable group codes from the SORTED unique list so the segment
        # order below is deterministic (vectorized: dictionary-encode,
        # then re-rank the dictionary into sorted order)
        de = grp.dictionary_encode()
        dict_vals = de.dictionary
        idx = np.asarray(de.indices, dtype=np.int64)
        si = np.asarray(pc.sort_indices(dict_vals), dtype=np.int64)
        uniq = dict_vals.take(pa.array(si, pa.int64()))
        rank = np.empty(len(si), np.int64)
        rank[si] = np.arange(len(si), dtype=np.int64)
        g = rank[idx]
        order = np.lexsort((ids, key, g))   # group-major, shuffle order
        ids, key, tok, g = ids[order], key[order], tok[order], g[order]
        new_seg = np.diff(g, prepend=np.int64(-1)) != 0
        seg_base = np.zeros(len(g), np.int64)
        if bases is not None:
            # range buckets are contiguous key slices: sorted in a group
            rb = np.asarray(t["range_bucket"].to_numpy(
                zero_copy_only=False), dtype=np.int64)[order]
            new_seg |= np.diff(rb, prepend=np.int64(-1)) != 0
            seg = np.flatnonzero(new_seg)
            seg_base = np.repeat(
                np.array([bases[uniq[c].as_py()][r]
                          for c, r in zip(g[seg], rb[seg])], dtype=np.int64),
                np.diff(np.append(seg, len(g))))
        src_off = seg_base + _exclusive_scan(tok, new_seg)
        keep = src_off + tok <= budget_tokens
        return pa.table({
            id_col: pa.array(ids[keep], pa.int64()),
            group_col: uniq.take(pa.array(g[keep], pa.int64())),
            "shuffle_key": pa.array(key[keep], pa.int64()),
            "n_tokens": pa.array(tok[keep], pa.int64()),
            "src_off": pa.array(src_off[keep], pa.int64()),
        })

    narrow_ds = ds.map_batches(narrow, batch_format="pyarrow")
    m, small, approx = _probe_small(narrow_ds,
                                    size_hint_bytes=size_hint_bytes)
    if small:
        return _one_task(m, scan)

    nb = exchange.adaptive_bucket_count(approx)
    bucketed = m.map_batches(_range_bucket_fn(nb), batch_format="pyarrow")

    # pass 1: (bucket, group) token totals -> driver per-group
    # exclusive scan over buckets (nb x n_groups rows, bounded by the
    # group-cardinality assumption above)
    totals = grouped_aggregate(
        bucketed.select_columns(["range_bucket", group_col, "n_tokens"]),
        ["range_bucket", group_col], [("n_tokens", "sum", "tok_sum")],
        size_hint_bytes=size_hint_bytes)
    tb = gather(totals)
    per: dict[str, np.ndarray] = {}
    if tb.num_rows:
        bks = np.asarray(tb["range_bucket"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ts = np.asarray(tb["tok_sum"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        for bk, gname, tv in zip(bks, tb[group_col].to_pylist(), ts):
            per.setdefault(gname, np.zeros(nb, np.int64))[bk] = tv
    bases = {gname: np.concatenate([[0], np.cumsum(v)[:-1]]).astype(np.int64)
             for gname, v in per.items()}

    return bucket_exchange(bucketed, "range_bucket",
                           lambda g: scan(g, bases), size_hint_bytes=approx)
