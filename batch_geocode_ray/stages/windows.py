"""Event-stream style operators over a batch table: gap-based
sessionization, per-key windows, per-group top-k and the token scan.

Ray Data has no native session windows; ``sessionize`` expresses them
as: :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` keyed on
the user (the Python group hook runs once per coarse bucket, not once
per user) -> vectorized NumPy session assignment over the lexsorted
(user, ts) arrays inside each bucket. The other per-key windows here
(moving average, rank, LAG gaps, transitions) share that exchange and
its one sort-and-segment (:func:`_sort_segments`).
Partitioning assumption: one user's events fit in one group's memory
(true even for pathological users at billions of events/user — then
pre-split by day).

``grouped_topk`` keeps per-group candidates k-bounded inside every
batch (partial top-k), so the final merge sees at most
k x n_blocks x n_groups rows.

``sequence_pack_offsets`` and ``grouped_token_budget_sample`` are thin
wrappers over one Blelloch scan, :func:`_token_offsets`, planned end to
end: its per-range-bucket bases reach their rows inside the plan, so
nothing comes back to the driver and no function carries state sized
by the input.
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
from batch_geocode_ray.stages.joins import _int64


def _first_of_run(keys: np.ndarray) -> np.ndarray:
    """For rows sorted by ``keys``: the mask of each key's first row."""
    new_seg = np.ones(len(keys), dtype=bool)
    new_seg[1:] = keys[1:] != keys[:-1]
    return new_seg


def _pos_in_run(new_seg: np.ndarray) -> np.ndarray:
    """Each row's 0-based position in its run (runs start where
    ``new_seg`` is set)."""
    idx = np.arange(len(new_seg))
    return idx - np.maximum.accumulate(np.where(new_seg, idx, 0))


def _sort_segments(g: pa.Table, key, *by):
    """The per-key windows' one sort-and-segment: ``g``'s rows in
    (``key``, *``by``) order, each a column name (read as int64,
    temporal in µs) or an int64 array. Returns (order, the sorted
    columns, the mask of each key's first row)."""
    cols = [_int64(g[c]) if isinstance(c, str) else c for c in (key, *by)]
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    return order, cols, _first_of_run(cols[0])


def sessionize(ds: Dataset, user_col: str, ts_col: str, value_col: str,
               order_col: str, gap_seconds: float = 1800.0) -> Dataset:
    """Gap-based sessions per user.

    A new session starts when the time since the previous event of the
    SAME user exceeds ``gap_seconds``. Output one row per session:
    (user_col, session_n [1-based per user], session_start, session_end,
    n_events, sum_value). Ties in ``ts_col`` order by ``order_col``.
    """

    def sessions_in_bucket(g: pa.Table) -> pa.Table:
        order, (users, ts_us, _), new_sess = _sort_segments(
            g, user_col, ts_col, order_col)
        val = np.asarray(g[value_col].to_numpy(zero_copy_only=False),
                         dtype=np.float64)[order]
        gap_us = int(gap_seconds * 1_000_000)
        new_sess[1:] |= ts_us[1:] - ts_us[:-1] > gap_us
        starts = np.nonzero(new_sess)[0]
        ends = np.concatenate([starts[1:], [g.num_rows]])
        # per-user 1-based numbering: rank of session start within user
        user_of_sess = users[starts]
        sess_n = _pos_in_run(_first_of_run(user_of_sess)) + 1
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
        order, (_, _, oid), new_seg = _sort_segments(
            g, key_col, ts_col, order_col)
        val = np.asarray(g[value_col].to_numpy(zero_copy_only=False),
                         dtype=np.float64)[order]
        n = g.num_rows
        pos_in_seg = _pos_in_run(new_seg)
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
    plan estimates the partials small (the summary case), else one
    task per coarse bucket (per-url top-k at 10^12 rows), segments
    inside the bucket ranked vectorized. ``group_col`` must be an
    integer, temporal, string or binary column.
    """
    cols = list(dict.fromkeys([group_col, sort_col, tie_col]))

    def ranked(b: pa.Table) -> tuple[pa.Table, np.ndarray]:
        """``b``'s top-k rows per group, in rank order, and their
        0-based ranks."""
        b = b.select(cols)
        b = b.take(pc.sort_indices(b, sort_keys=[
            (group_col, "ascending"), (sort_col, "descending"),
            (tie_col, "ascending")]))
        rank = _pos_in_run(_first_of_run(
            np.asarray(b[group_col].to_numpy(zero_copy_only=False))))
        keep = rank < k
        return b.filter(pa.array(keep)), rank[keep]

    def final(b: pa.Table) -> pa.Table:
        b, rank = ranked(b)
        return b.append_column("rank", pa.array(rank + 1, pa.int64()))

    return bucket_exchange(
        ds.map_batches(lambda b: ranked(b)[0], batch_format="pyarrow"),
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
        order, (keys, neg_rv, *_), new_key = _sort_segments(
            g, key_col, -_int64(g[rank_col]), *tie_cols)
        ids = _int64(g[id_col])[order]
        new_run = new_key.copy()
        new_run[1:] |= neg_rv[1:] != neg_rv[:-1]
        pos_key = _pos_in_run(new_key)
        rn = pos_key + 1
        rnk = pos_key - _pos_in_run(new_run) + 1
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
        _, (keys, ts_us, _), new_key = _sort_segments(
            g, key_col, ts_col, order_col)
        same = ~new_key[1:]
        gkey = keys[1:][same]
        gval = (ts_us[1:] - ts_us[:-1])[same]
        if not len(gkey):
            return pa.table({key_col: pa.array([], pa.int64()),
                             "n_gaps": pa.array([], pa.int64()),
                             "sum_gap_us": pa.array([], pa.int64()),
                             "max_gap_us": pa.array([], pa.int64())})
        starts = np.flatnonzero(_first_of_run(gkey))
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
        order, _, new_key = _sort_segments(g, key_col, ts_col, order_col)
        vals = g[val_col].combine_chunks().take(pa.array(order, pa.int64()))
        same = pa.array(~new_key[1:])
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
    """The token scan's narrow pass: (id, [group,] shuffle_key,
    n_tokens) — the Knuth shuffle key ``(id * KNUTH_MULT) mod 2^32``
    and the whitespace token count (``count(' ') + 1``; SQL parity:
    ``len(string_split(text, ' '))``). A negative id or a null text
    raises ``ValueError`` naming ``op_name``."""
    ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    if len(ids) and ids.min() < 0:
        raise ValueError(f"{op_name}: ids must be >= 0")
    if b[text_col].null_count:
        raise ValueError(f"{op_name}: text must be non-null")
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


def _token_offsets(ds: Dataset, id_col: str, text_col: str, op_name: str,
                   group_col: str | None = None) -> Dataset:
    """The Blelloch scan behind :func:`sequence_pack_offsets` and
    :func:`grouped_token_budget_sample`: (id, [group,] shuffle_key,
    n_tokens, start_off), where ``start_off`` is the EXCLUSIVE prefix
    sum of ``n_tokens`` in (shuffle_key, id) order, restarted per
    ``group_col`` value (one scan over all rows without a group).

    A global ordered scan is an inherently sequential recurrence; the
    distributed plan decomposes it the textbook way (Blelloch):

    1. one map pass reduces the corpus to narrow (id, [group,] key,
       n_tokens) tuples — the text NEVER rides an exchange — and
       range-buckets the uniform 32-bit key space into ``nb``
       contiguous slices;
    2. :func:`grouped_aggregate` sums the tokens per (range bucket[,
       group]); one :func:`bucket_exchange` keyed on the group (with
       no group, one task over the ``nb`` totals) scans each group's
       totals over its range buckets into BASE offsets, each a carrier
       row of its (range bucket[, group]) segment;
    3. one :func:`bucket_exchange` keyed on the range bucket
       co-locates each key slice with its carriers, a union of the
       two streams as in ``joins._bucket_lookup_join``. Inside a group
       a carrier (id and key -1) sorts first in its segment, so one
       exclusive scan restarted at every carrier gives exact global
       offsets.

    Nothing comes back to the driver and no function captures a table:
    the plan runs only when its result is consumed. When the plan
    estimates the input below ``SMALL_COLLAPSE_BYTES`` the whole narrow
    table sorts and scans in ONE task, skipping the all-to-alls. Above
    it the narrow lineage re-executes once per pass (2 pruned reads)
    rather than pinning O(documents) rows.
    """
    def narrow(b: pa.Table) -> pa.Table:
        return _shuffle_narrow_tokens(b, id_col, text_col, op_name,
                                      group_col=group_col)

    def groups(t: pa.Table) -> np.ndarray:
        """Group codes, equal for equal values (all 0 without a group)."""
        if group_col is None:
            return np.zeros(t.num_rows, np.int64)
        return np.asarray(pc.rank(t[group_col], tiebreaker="dense"),
                          dtype=np.int64)

    def carriers(t: pa.Table) -> pa.Table:
        """(range bucket[, group]) token totals -> each segment's base
        (the per-group exclusive scan over range buckets) as a carrier
        row of the narrow schema."""
        order, (_, rb), new_grp = _sort_segments(
            t, groups(t), "range_bucket")
        base = _exclusive_scan(_int64(t["n_tokens"])[order], new_grp)
        none = pa.array(np.full(len(order), -1, np.int64))
        cols: dict = {id_col: none}
        if group_col is not None:
            cols[group_col] = t[group_col].take(pa.array(order, pa.int64()))
        cols["shuffle_key"] = none
        cols["n_tokens"] = pa.array(base, pa.int64())
        cols["range_bucket"] = pa.array(rb, pa.int64())
        return pa.table(cols)

    def scan(t: pa.Table) -> pa.Table:
        """Exclusive scan per group in (range bucket, key, id) order,
        restarted at every carrier; the one-task plan has no range
        buckets and no carriers."""
        rb = ("range_bucket" if "range_bucket" in t.column_names
              else np.zeros(t.num_rows, np.int64))
        order, (_, _, key, ids), new_grp = _sort_segments(
            t, groups(t), rb, "shuffle_key", id_col)
        tok = _int64(t["n_tokens"])[order]
        carrier = ids < 0
        off = _exclusive_scan(tok, new_grp | carrier)
        doc = ~carrier
        cols: dict = {id_col: pa.array(ids[doc], pa.int64())}
        if group_col is not None:
            cols[group_col] = t[group_col].take(
                pa.array(order[doc], pa.int64()))
        cols["shuffle_key"] = pa.array(key[doc], pa.int64())
        cols["n_tokens"] = pa.array(tok[doc], pa.int64())
        cols["start_off"] = pa.array(off[doc], pa.int64())
        return pa.table(cols)

    narrow_ds = ds.map_batches(narrow, batch_format="pyarrow")
    if _probe_small(narrow_ds):
        return _one_task(narrow_ds, scan)

    nb = exchange.adaptive_bucket_count(exchange.estimated_bytes(narrow_ds))
    bucketed = narrow_ds.map_batches(_range_bucket_fn(nb),
                                     batch_format="pyarrow")
    seg = ["range_bucket"] + ([group_col] if group_col else [])
    totals = grouped_aggregate(bucketed.select_columns(seg + ["n_tokens"]),
                               seg, [("n_tokens", "sum", "n_tokens")])
    bases = (bucket_exchange(totals, group_col, carriers) if group_col
             else _one_task(totals, carriers))
    # nb x n_groups carrier rows beside the corpus: the union keeps the
    # narrow stream's estimate, so the pass-2 bucket count is its own
    return bucket_exchange(bucketed.union(exchange.scaled(bases, 0)),
                           "range_bucket", scan)


def sequence_pack_offsets(ds: Dataset, id_col: str, text_col: str,
                          seq_len: int = 1024) -> Dataset:
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

    The scan is :func:`_token_offsets` with no group. Requires
    non-negative integer ids and non-null text (either fault raises
    ``ValueError``). Offsets are int64 (a 100 TB corpus is ~2^44
    tokens — 3 orders of magnitude of headroom).
    """
    def seqs(t: pa.Table) -> pa.Table:
        start = _int64(t["start_off"])
        tok = _int64(t["n_tokens"])
        return (t.append_column("first_seq",
                                pa.array(start // seq_len, pa.int64()))
                .append_column("last_seq", pa.array(
                    (start + tok - 1) // seq_len, pa.int64())))

    return _token_offsets(ds, id_col, text_col, "sequence_pack_offsets") \
        .map_batches(seqs, batch_format="pyarrow")


def grouped_token_budget_sample(ds: Dataset, id_col: str, text_col: str,
                                group_col: str,
                                budget_tokens: int) -> Dataset:
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

    The scan is :func:`_token_offsets` per group: its bases are one row
    per (range bucket, group), scanned by an exchange keyed on the
    group, so any group cardinality plans the same way. Requires
    non-negative integer ids and non-null text (either fault raises
    ``ValueError``).
    """
    def within_budget(t: pa.Table) -> pa.Table:
        keep = pc.less_equal(pc.add(t["start_off"], t["n_tokens"]),
                             budget_tokens)
        return t.filter(keep).rename_columns(
            t.column_names[:-1] + ["src_off"])

    return _token_offsets(ds, id_col, text_col,
                          "grouped_token_budget_sample", group_col) \
        .map_batches(within_budget, batch_format="pyarrow")
