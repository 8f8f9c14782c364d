"""Distributed graph clustering: connected components over an edge
Dataset.

This is the dedup-CLUSTERING step of a training-data pipeline: the pair
emitters in ``stages/dedup.py`` (n-gram Jaccard, MinHash+LSH, SimHash,
fingerprint) produce near-duplicate *pairs*; clustering the pair graph
and keeping one canonical document per component is what actually
shrinks the corpus. The reference (`GISforHealth/batch_geocode`) has no
graph ops — this is engine-new surface mandated by the large-scale
training-data scope.

Two physical plans behind one API (the repo-wide adaptive pattern):

* **collapsed** — when the plan estimates the edge list small
  (below ``exchange.SMALL_COLLAPSE_BYTES``), one task runs a fully
  vectorized NumPy min-label fixpoint (no Python loop over edges).
* **distributed** — hash-to-min label propagation with pointer
  jumping, expressed as one ``exchange.bucket_exchange`` keyed on
  (key, ``_salt``) + a vectorized-segment group fn (not a label-keyed
  self-join, which concentrates skew on the big components' labels).
  Each round
  is exactly TWO all-to-alls — one bucket shuffle that answers every
  "label of key k?" request (neighbor offers AND pointer jumps in the
  same exchange), and one partial-combining min-aggregate — shuffling
  O(edges + nodes) rows. Labels only ever decrease, so ``sum(label)``
  is a monotone convergence witness: one cheap scalar per round.
  Convergence is O(log n) rounds via the jump requests.

Partitioning assumption: requests for one key co-locate in one bucket
segment — so a giga-member component would concentrate its jump
requests on the root's segment (the classic CC hot spot). Mitigated by
**hot-key salting**: on large graphs each round first counts requests
per key (per-batch combined partials -> one small aggregate, skew-free
by construction), and any key with more than ``HOT_REQ_CAP`` requests
has its requests spread by requester id over ``ceil(count /
HOT_REQ_CAP)`` values of the ``_salt`` column (0 for every other row)
with the label carrier REPLICATED once per salt — each (key, salt)
cell hashes to its own bucket, so per-segment residency is bounded by
the cap regardless of component size, at the cost of duplicating a
handful of 24-byte carrier rows. (The
large-star/small-star alternation is the textbook alternative; carrier
replication preserves this file's 2-exchange round unchanged.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from batch_geocode_ray.functions.hashing import splitmix64
from batch_geocode_ray.stages.aggregates import grouped_aggregate
from batch_geocode_ray.stages.exchange import (
    _one_task,
    _probe_small,
    bucket_exchange,
)
from batch_geocode_ray.stages.joins import equi_join
from batch_geocode_ray.stages.stateful import gather

_MAX_ROUNDS = 40  # pointer jumping ⇒ ≥ 2^40 node chains before this binds

# hot-key salting knobs (giant-component mitigation, see module doc).
# HOT_REQ_CAP: max request rows allowed in one (key, salt) cell —
# 2^20 rows ≈ 24 MB of segment residency. HOT_DETECT_MIN_BYTES: the
# per-round count pre-pass (one extra small aggregate) only runs when
# the exchanged rows exceed this; small graphs keep the exact 2-exchange
# round with zero added cost.
HOT_REQ_CAP = 1 << 20
HOT_DETECT_MIN_BYTES = 64 << 20


def _minlabel_fixpoint(nodes: np.ndarray, ia: np.ndarray,
                       ib: np.ndarray) -> np.ndarray:
    """Vectorized min-label fixpoint over compact node indices.

    ``nodes`` is the sorted unique node-id array; ``ia``/``ib`` are
    edge endpoints as indices into it. Returns the component label
    (minimum member node id) per node. Pure NumPy: each round is two
    ``minimum.at`` scatters plus one pointer-jump gather.
    """
    lbl = np.arange(len(nodes), dtype=np.int64)
    while True:
        prev = lbl.copy()
        np.minimum.at(lbl, ia, prev[ib])
        np.minimum.at(lbl, ib, prev[ia])
        lbl = np.minimum(lbl, lbl[lbl])  # pointer jump
        if np.array_equal(lbl, prev):
            break
    return nodes[lbl]


def connected_components(edges: Dataset, a_col: str,
                         b_col: str) -> Dataset:
    """Label every node that appears in ``edges`` with its component id
    (= the minimum node id in the component). Returns a Dataset with
    columns ``node``/``label`` (int64). Nodes with no edges simply
    don't appear — callers label them with their own id (see q56).
    """
    proj = edges.select_columns([a_col, b_col])
    if _probe_small(proj):
        def one(b: pa.Table) -> pa.Table:
            a = np.asarray(b[a_col].to_numpy(zero_copy_only=False),
                           dtype=np.int64)
            c = np.asarray(b[b_col].to_numpy(zero_copy_only=False),
                           dtype=np.int64)
            nodes, inv = np.unique(np.concatenate([a, c]),
                                   return_inverse=True)
            ia, ib = inv[:len(a)], inv[len(a):]
            lab = _minlabel_fixpoint(nodes, ia, ib)
            return pa.table({"node": pa.array(nodes, pa.int64()),
                             "label": pa.array(lab, pa.int64())})
        return _one_task(proj, one)
    return _cc_distributed(proj, a_col, b_col)


def _sym(b: pa.Table, a_col: str, b_col: str) -> pa.Table:
    a = np.asarray(b[a_col].to_numpy(zero_copy_only=False), dtype=np.int64)
    c = np.asarray(b[b_col].to_numpy(zero_copy_only=False), dtype=np.int64)
    return pa.table({"src": pa.array(np.concatenate([a, c]), pa.int64()),
                     "dst": pa.array(np.concatenate([c, a]), pa.int64())})


def _propagate_bucket(g: pa.Table) -> pa.Table:
    """One bucket of the label-lookup exchange. Rows are either label
    carriers (``q == -1``: "key's label is ``lab``") or requests
    (``q >= 0``: "send key's label to node q"). Same-key rows co-locate
    here by construction; sort carriers first per key segment and
    broadcast their label to the segment's requests — all NumPy."""
    key = np.asarray(g["key"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    q = np.asarray(g["q"].to_numpy(zero_copy_only=False), dtype=np.int64)
    lab = np.asarray(g["lab"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    order = np.lexsort((q, key))
    key, q, lab = key[order], q[order], lab[order]
    seg_start = np.ones(len(key), dtype=bool)
    seg_start[1:] = key[1:] != key[:-1]
    starts = np.nonzero(seg_start)[0]
    if not np.array_equal(q[starts], np.full(len(starts), -1)):
        bad = key[starts[q[starts] != -1]][:5]
        raise ValueError(
            "connected_components invariant violated: request for key(s) "
            f"{bad.tolist()} arrived with no label carrier in the bucket "
            "(every requested key must already exist in the label table)")
    seg_id = np.cumsum(seg_start) - 1
    seg_lab = lab[starts]
    mask = q >= 0
    return pa.table({"node": pa.array(q[mask], pa.int64()),
                     "label": pa.array(seg_lab[seg_id[mask]], pa.int64())})


def _hot_request_keys(reqs: Dataset, cap: int):
    """Keys with more than ``cap`` request rows this round, as
    (sorted_keys, split_counts) int64 arrays, or None when none.

    The count runs over per-batch-combined (key, cnt) partials, so the
    aggregate's input is at most one row per (block, key) — skew-free
    even when one key owns every request. The driver-side collect is
    bounded by total_requests / cap entries (a few thousand at 100 TB
    with the default 1M cap)."""
    def partial(b: pa.Table) -> pa.Table:
        k = np.asarray(b["key"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        u, c = np.unique(k, return_counts=True)
        return pa.table({"key": pa.array(u, pa.int64()),
                         "cnt": pa.array(c, pa.int64())})

    counts = grouped_aggregate(
        reqs.map_batches(partial, batch_format="pyarrow"),
        ["key"], [("cnt", "sum", "cnt")])
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater(t["cnt"], cap)),
        batch_format="pyarrow")
    t = gather(hot)
    if t.num_rows == 0:
        return None
    ks = np.asarray(t["key"].to_numpy(zero_copy_only=False), dtype=np.int64)
    cs = np.asarray(t["cnt"].to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.argsort(ks)
    ks, cs = ks[order], cs[order]
    return ks, -(-cs // cap)  # ceil-divide -> sub-bucket splits per key


def _cc_distributed(edges: Dataset, a_col: str, b_col: str) -> Dataset:
    sym = edges.map_batches(
        lambda b: _sym(b, a_col, b_col),
        batch_format="pyarrow").materialize()  # read every round

    def add_salt(b: pa.Table, *, hot) -> pa.Table:
        """Each row's ``_salt``: 0, except that a hot key's requests
        salt by requester id and its label carriers replicate once per
        salt, so each (key, salt) cell is self-contained for
        ``_propagate_bucket`` (duplicate carriers are harmless —
        identical (key, lab) rows)."""
        if hot is None:
            return b.append_column(
                "_salt", pa.array(np.zeros(b.num_rows, np.int64)))
        hk, hs = hot  # sorted hot keys, splits per key
        k = np.asarray(b["key"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        q = np.asarray(b["q"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        pos = np.minimum(np.searchsorted(hk, k), len(hk) - 1)
        s_k = np.where(hk[pos] == k, hs[pos], 1)
        reps = np.where(q == -1, s_k, 1)
        idx = np.repeat(np.arange(len(k)), reps)
        # per-row 0..reps-1 ramp: a carrier copy's salt
        ramp = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        req_salt = (splitmix64(q[idx].astype(np.uint64))
                    % s_k[idx].astype(np.uint64)).astype(np.int64)
        return b.take(pa.array(idx, pa.int64())).append_column(
            "_salt", pa.array(np.where(q[idx] >= 0, req_salt, ramp)))

    def min_by_node(ds: Dataset) -> Dataset:
        return grouped_aggregate(ds, ["node"],
                                 [("label", "min", "label")])

    # partition-count governor: each round unions three datasets, and
    # groupby/aggregate preserve input block counts — left unchecked the
    # label table's block count TRIPLES per round (3 -> 363 blocks in 4
    # rounds, scheduling overhead swamping the tiny shuffles). Cap at a
    # graph-proportional count, floored at the cluster's CPUs (2 to 64).
    cpus = int(ray.cluster_resources().get("CPU", 8))
    part_cap = max(2, min(64, cpus), sym.num_blocks())

    def bounded(ds: Dataset) -> Dataset:
        m = ds.materialize()  # summed, then read by the next round
        if m.num_blocks() > part_cap:
            m = m.repartition(part_cap).materialize()  # fewer blocks
        return m

    labels = bounded(min_by_node(sym.map_batches(
        lambda b: pa.table({"node": b["src"], "label": b["src"]}),
        batch_format="pyarrow")))
    prev_sum = labels.sum("label")

    edge_reqs = sym.map_batches(
        lambda b: pa.table({
            "key": b["src"], "q": b["dst"],
            "lab": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow").materialize()  # read every round

    # giant-component mitigation only pays its count pre-pass on graphs
    # big enough for a hot key to outgrow a task (module doc)
    detect_hot = (edge_reqs.size_bytes() or 0) > HOT_DETECT_MIN_BYTES

    for _ in range(_MAX_ROUNDS):
        carriers = labels.map_batches(
            lambda b: pa.table({
                "key": b["node"],
                "q": pa.array(np.full(b.num_rows, -1, np.int64)),
                "lab": b["label"]}),
            batch_format="pyarrow")
        jump_reqs = labels.map_batches(
            lambda b: pa.table({
                "key": b["label"], "q": b["node"],
                "lab": pa.array(np.zeros(b.num_rows, np.int64))}),
            batch_format="pyarrow")
        rows = carriers.union(edge_reqs).union(jump_reqs)
        hot = (_hot_request_keys(edge_reqs.union(jump_reqs), HOT_REQ_CAP)
               if detect_hot else None)
        salted = rows.map_batches(add_salt, batch_format="pyarrow",
                                  fn_kwargs={"hot": hot})
        cands = bucket_exchange(salted, ["key", "_salt"], _propagate_bucket)
        labels = bounded(min_by_node(labels.union(cands)))
        s = labels.sum("label")
        if s == prev_sum:  # labels only decrease ⇒ fixpoint
            break
        prev_sum = s
    else:
        raise RuntimeError("connected_components did not converge "
                           f"in {_MAX_ROUNDS} rounds")
    return labels


def label_all_nodes(nodes: Dataset, node_col: str,
                    labels: Dataset) -> Dataset:
    """Left-join component labels (``node``/``label``) onto the FULL
    node table as ``cluster_id``; nodes outside any edge keep their own
    id as the label. One :func:`~batch_geocode_ray.stages.joins.equi_join`,
    so the label table broadcasts when small and goes through the bucket
    exchange when not."""
    out = equi_join(nodes, labels, node_col, "left", ["label"],
                    right_key="node")

    def fill(b: pa.Table) -> pa.Table:
        cid = pc.coalesce(pc.cast(b["label"], pa.int64()),
                          pc.cast(b[node_col], pa.int64()))
        return b.drop_columns(["label"]).append_column("cluster_id", cid)

    return out.map_batches(fill, batch_format="pyarrow")
