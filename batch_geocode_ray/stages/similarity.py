"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix rides the UDF
(put into the object store once per operator) and every batch does one
float64 matmul against it; per-batch
partial top-k keeps only k rows per (query, block) so the shuffle to
the final per-query merge is tiny.

Scale path: IVF — deterministic k-means centroids from a sample, vectors
bucketed by nearest centroid, queries probe the nearest few buckets
only. Approximate by design; the baseline is the oracle.

Exact near-duplicate pairs (``cosine_neardup_pairs``) and SemDeDup
(``semantic_dedup``) are keyed self-joins: each runs one
``exchange.bucket_exchange``, with the normalized vectors riding it as a
fixed_size_list column. No plan here addresses blocks by ref or starts
a raw Ray task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.exchange import (
    _one_task,
    _probe_small,
    bucket_exchange,
    key_hash64,
)
from batch_geocode_ray.stages.stateful import gather


def _matrix_of(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(n, d) float64 matrix from a fixed-size/variable list column."""
    col = batch[vec_col].combine_chunks()
    flat = np.asarray(col.flatten().to_numpy(zero_copy_only=False),
                      dtype=np.float64)
    n = batch.num_rows
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(norms > 0, m / norms, 0.0)


def _partial_topk_ties(s: np.ndarray, cand_ids: np.ndarray, kk: int):
    """Indices of the kk best (sim desc, id asc) candidates — tie-aware.

    Plain ``argpartition(-s, kk-1)[:kk]`` can drop the smaller-id member
    of a similarity tie at the block's cutoff, diverging from the
    documented (sim DESC, id ASC) ordering once blocks merge. Keep every
    candidate at or above the partition threshold, then lexsort only
    that (small) slice."""
    part = np.argpartition(-s, kk - 1)[:kk]
    thresh = s[part].min()
    at_or_above = np.nonzero(s >= thresh)[0]
    s2, ids2 = s[at_or_above], cand_ids[at_or_above]
    sel = np.lexsort((ids2, -s2))[:kk]
    return at_or_above[sel]


def _topk_table(candidates, k: int) -> pa.Table:
    """Partial top-k rows (query_id, neighbor_id, sim) of one batch:
    up to ``k`` per query, from ``candidates``, an iterable of (query
    id, candidate sims, candidate ids)."""
    out_q = [np.empty(0, np.int64)]
    out_n = [np.empty(0, np.int64)]
    out_s = [np.empty(0, np.float64)]
    for qid, s, cand_ids in candidates:
        kk = min(k, len(cand_ids))
        if kk == 0:
            continue
        part = _partial_topk_ties(s, cand_ids, kk)
        out_q.append(np.full(kk, qid, dtype=np.int64))
        out_n.append(cand_ids[part])
        out_s.append(s[part])
    return pa.table({
        "query_id": pa.array(np.concatenate(out_q), pa.int64()),
        "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
        "sim": pa.array(np.concatenate(out_s), pa.float64()),
    })


def knn_cosine(ds: Dataset, vec_col: str, id_col: str,
               queries: np.ndarray, query_ids: np.ndarray,
               k: int = 5) -> Dataset:
    """Exact cosine top-k of every query against the whole dataset,
    excluding the query's own id.

    Per batch: one (B x Q) float64 matmul + argpartition partial top-k
    -> shuffle carries k rows per (query, block) -> groupby(query_id)
    final merge. Ties break on smaller neighbor id (deterministic).
    Output: (query_id, neighbor_id, rank) with rank 1..k.
    """
    qmat = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if len(ids) == 0:
            return _topk_table((), k)
        sims = _normalize(_matrix_of(batch, vec_col)) @ qmat.T  # (B, Q)

        def candidates():
            for qi, qid in enumerate(qids):
                other = ids != qid
                yield qid, sims[other, qi], ids[other]

        return _topk_table(candidates(), k)

    return _merge_partial_topk(
        ds.map_batches(partial_topk, batch_format="pyarrow"), k,
        n_queries=qmat.shape[0])


# Above this many queries, the partials (k x Q x n_blocks rows) stop
# being "tiny" and the single-task merge would concentrate them on one
# worker — switch to the bucketed shuffle merge instead.
SHUFFLE_MERGE_QUERIES = 10_000


def _merge_partial_topk(partials: Dataset, k: int,
                        n_queries: int | None = None) -> Dataset:
    """Final per-query top-k over the partials.

    Small query sets (the common broadcast-kNN case): ONE task — the
    partials total k x Q x n_blocks tiny rows, so a groupby(query_id)
    all-to-all (~1-2s fixed) is pure overhead; route them to a single
    task and segment with a lexsort. Output ordered (query_id, rank),
    the oracle order.

    Large query sets (Q > SHUFFLE_MERGE_QUERIES, e.g. per-doc queries):
    unless the plan estimates the partials small enough for that task,
    a :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` keyed on
    query_id merges per coarse bucket in parallel (never one task per
    query — see grouped-aggregate notes), then a distributed sort
    restores the (query_id, rank) order. No single worker ever holds
    more than one bucket of the partials."""

    def merge_one(b: pa.Table) -> pa.Table:
        q = np.asarray(b["query_id"].to_numpy(zero_copy_only=False),
                       np.int64)
        nid = np.asarray(b["neighbor_id"].to_numpy(zero_copy_only=False),
                         np.int64)
        s = np.asarray(b["sim"].to_numpy(zero_copy_only=False))
        order = np.lexsort((nid, -s, q))
        q, nid = q[order], nid[order]
        new_q = np.ones(len(q), dtype=bool)
        new_q[1:] = q[1:] != q[:-1]
        start = np.maximum.accumulate(np.where(new_q, np.arange(len(q)), 0))
        rank = np.arange(len(q)) - start + 1
        keep = rank <= k
        return pa.table({
            "query_id": pa.array(q[keep], pa.int64()),
            "neighbor_id": pa.array(nid[keep], pa.int64()),
            "rank": pa.array(rank[keep], pa.int64()),
        })

    if (n_queries is not None and n_queries > SHUFFLE_MERGE_QUERIES
            and not _probe_small(partials)):
        return (bucket_exchange(partials, "query_id", merge_one)
                .sort(["query_id", "rank"]))
    return _one_task(partials, merge_one)


def _vector_column(m: np.ndarray) -> pa.Array:
    """An (n, d) matrix as a fixed_size_list<double>[d] column."""
    return pa.FixedSizeListArray.from_arrays(pa.array(m.ravel()), m.shape[1])


def cosine_neardup_pairs(ds: Dataset, vec_col: str, id_col: str,
                         threshold: float = 0.4) -> Dataset:
    """All (a < b) vector pairs with cosine >= threshold, exact.
    Output: (d1, d2, cosine), d1 < d2.

    One keyed exchange tiles the triangular self-join. The (id,
    normalized vector) projection is sized by the plan's estimate: it
    is one block when it fits one task, else
    ``B = ceil(size / TARGET_BUCKET_BYTES)`` blocks,
    a row's block being ``key_hash64(id) mod B``. Each row is copied
    once per tile ``(min(b, j), max(b, j))``, j = 0..B-1, and
    :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` co-locates
    each tile. A diagonal tile emits its in-block pairs, an off-diagonal
    tile its cross pairs, so every pair is scored exactly once in
    whatever order the blocks arrive. ``B = 1`` is one diagonal tile,
    which the exchange runs as one task when the input is small. A tile
    is scored in chunks of rows whose similarity matrix holds at most
    ``TARGET_BUCKET_BYTES``. Each vector moves B times; the quadratic
    compute is inherent to an exact similarity join.
    """

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "_id": b[id_col].combine_chunks().cast(pa.int64()),
            "_vec": _vector_column(_normalize(_matrix_of(b, vec_col))),
        })

    proj = ds.map_batches(project, batch_format="pyarrow")
    size = exchange.estimated_bytes(proj)
    n_blocks = (1 if _probe_small(proj) else
                max(1, -(-(size or 0) // exchange.TARGET_BUCKET_BYTES)))

    def to_tiles(b: pa.Table) -> pa.Table:
        blk = (key_hash64(b["_id"], "_id") % np.uint64(n_blocks)).astype(
            np.int64)
        rows = np.repeat(np.arange(b.num_rows), n_blocks)
        other = np.tile(np.arange(n_blocks), b.num_rows)
        own = blk[rows]
        tile = np.minimum(own, other) * n_blocks + np.maximum(own, other)
        return (b.take(pa.array(rows, pa.int64()))
                .append_column("_blk", pa.array(own))
                .append_column("_tile", pa.array(tile)))

    def tile_pairs(g: pa.Table) -> pa.Table:
        ids = np.asarray(g["_id"].to_numpy(zero_copy_only=False), np.int64)
        blk = np.asarray(g["_blk"].to_numpy(zero_copy_only=False), np.int64)
        tile = np.asarray(g["_tile"].to_numpy(zero_copy_only=False),
                          np.int64)
        m = _matrix_of(g, "_vec")
        # id order within a tile: the same matmul in any arrival order
        order = np.lexsort((ids, tile))
        starts = np.flatnonzero(np.diff(tile[order], prepend=-1))
        d1 = [np.empty(0, np.int64)]
        d2 = [np.empty(0, np.int64)]
        cos = [np.empty(0, np.float64)]
        for s, e in zip(starts, np.append(starts[1:], len(order))):
            rows = order[s:e]
            lo, hi = divmod(int(tile[rows[0]]), n_blocks)
            a_all = rows[blk[rows] == lo]
            b = a_all if lo == hi else rows[blk[rows] == hi]
            mb = m[b].T
            # score the tile in chunks of a-rows: one chunk's similarity
            # matrix stays within a bucket's byte budget
            step = max(1, exchange.TARGET_BUCKET_BYTES // (8 * max(1, len(b))))
            for c0 in range(0, len(a_all), step):
                a = a_all[c0:c0 + step]
                sims = m[a] @ mb
                keep = sims >= threshold
                if lo == hi:
                    keep &= ids[a][:, None] < ids[b][None, :]
                r, c = np.nonzero(keep)
                d1.append(np.minimum(ids[a][r], ids[b][c]))
                d2.append(np.maximum(ids[a][r], ids[b][c]))
                cos.append(sims[r, c])
        return pa.table({
            "d1": pa.array(np.concatenate(d1), pa.int64()),
            "d2": pa.array(np.concatenate(d2), pa.int64()),
            "cosine": pa.array(np.concatenate(cos), pa.float64()),
        })

    # each row is copied once per block: the tiles are n_blocks x proj
    tiles = exchange.scaled(
        proj.map_batches(to_tiles, batch_format="pyarrow"), n_blocks)
    return bucket_exchange(tiles, "_tile", tile_pairs)


def _nearest_centroid(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """argmin_j ||x - c_j||^2, candidate-select-then-exact-refine (the
    kNN chord-then-haversine pattern): the BLAS form (-2 x·cT +
    ||c||^2; the x-norm term is constant per row) ranks in O(batch x k)
    memory instead of the O(batch x k x d) broadcast tensor — the
    difference between k=8 and the SemDeDup-scale k~50k both working —
    but its cancellation error (~|x||c|·eps) can flip near-equidistant
    assignments vs the exact difference form, so the top-2 BLAS
    candidates are re-scored exactly (O(batch x 2 x d)) and exact ties
    keep the lower index, matching the naive oracle."""
    k = c.shape[0]
    if k == 1:
        return np.zeros(m.shape[0], dtype=np.int64)
    d2 = -2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
    cand = np.argpartition(d2, 1, axis=1)[:, :2]
    diff0 = m - c[cand[:, 0]]
    diff1 = m - c[cand[:, 1]]
    e0 = (diff0 * diff0).sum(axis=1)
    e1 = (diff1 * diff1).sum(axis=1)
    take1 = (e1 < e0) | ((e1 == e0) & (cand[:, 1] < cand[:, 0]))
    return np.where(take1, cand[:, 1], cand[:, 0]).astype(np.int64)


def _kmeans_sample(ds: Dataset, vec_col: str, id_col: str) -> np.ndarray:
    """The k-means init sample: the vectors of the 2048 rows with the
    smallest ``key_hash64(id)``, in id order. Its rows and their order
    depend on the data only, never on which block finishes first."""
    from batch_geocode_ray.stages.aggregates import global_topk

    def ranked(b: pa.Table) -> pa.Table:
        return pa.table({"_id": b[id_col], vec_col: b[vec_col],
                         "_rank": ~key_hash64(b[id_col], id_col)})

    top = gather(global_topk(ds.map_batches(ranked, batch_format="pyarrow"),
                             "_rank", "_id", 2048))
    return _matrix_of(top.sort_by("_id"), vec_col)


def kmeans_fit(ds: Dataset, vec_col: str, id_col: str, k: int = 8,
               iters: int = 10, seed: int = 11) -> np.ndarray:
    """Distributed Lloyd's k-means over an embedding column.

    Init: deterministic 2048-row sample (:func:`_kmeans_sample`) ->
    local k-means (cheap, seeds quality).
    Each iteration: broadcast centroids, every batch computes assignments
    and PARTIAL per-cluster (sum, count); the driver merges k x d
    numbers and updates. The full dataset streams once per iteration;
    nothing big ever concentrates. Returns (k, d) float64 centroids.
    """
    cent = _kmeans(_kmeans_sample(ds, vec_col, id_col), k, seed=seed)

    def partial(batch: pa.Table, *, c: np.ndarray) -> pa.Table:
        m = _matrix_of(batch, vec_col)
        if m.shape[0] == 0:
            return pa.table({"cluster": pa.array([], pa.int64()),
                             "vsum": pa.array([], pa.list_(pa.float64())),
                             "n": pa.array([], pa.int64())})
        assign = _nearest_centroid(m, c)
        sums = np.zeros_like(c)
        np.add.at(sums, assign, m)
        counts = np.bincount(assign, minlength=len(c))
        live = counts > 0
        return pa.table({
            "cluster": pa.array(np.nonzero(live)[0], pa.int64()),
            "vsum": pa.array(list(sums[live]), pa.list_(pa.float64())),
            "n": pa.array(counts[live], pa.int64()),
        })

    for _ in range(iters):
        parts = gather(ds.map_batches(partial, batch_format="pyarrow",
                                      fn_kwargs={"c": cent}))
        new_cent = cent.copy()
        cl = np.asarray(parts["cluster"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        ns = np.asarray(parts["n"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        vs = np.asarray(parts["vsum"].combine_chunks().flatten()
                        .to_numpy(zero_copy_only=False)).reshape(len(cl), -1)
        tot_n = np.zeros(len(cent), dtype=np.int64)
        tot_s = np.zeros_like(cent)
        np.add.at(tot_n, cl, ns)
        np.add.at(tot_s, cl, vs)
        live = tot_n > 0
        new_cent[live] = tot_s[live] / tot_n[live, None]
        if np.allclose(new_cent, cent, atol=1e-12):
            cent = new_cent
            break
        cent = new_cent
    return cent


def kmeans_assign(ds: Dataset, vec_col: str, id_col: str,
                  centroids: np.ndarray) -> Dataset:
    """Append each vector's nearest-centroid ``cluster`` (int64)."""
    c = np.asarray(centroids, dtype=np.float64)

    def f(batch: pa.Table) -> pa.Table:
        m = _matrix_of(batch, vec_col)
        if m.shape[0] == 0:
            return pa.table({id_col: batch[id_col],
                             "cluster": pa.array([], pa.int64())})
        return pa.table({
            id_col: batch[id_col],
            "cluster": pa.array(_nearest_centroid(m, c)),
        })

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# IVF (scale path, approximate)
# ---------------------------------------------------------------------------

def _kmeans(sample: np.ndarray, n_clusters: int,
            seed: int = 11) -> np.ndarray:
    rng = np.random.RandomState(seed)
    idx = rng.choice(len(sample), size=min(n_clusters, len(sample)),
                     replace=False)
    cent = sample[idx].copy()
    for _ in range(10):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


def ivf_knn(ds: Dataset, vec_col: str, id_col: str,
            queries: np.ndarray, query_ids: np.ndarray,
            k: int = 5) -> Dataset:
    """Approximate top-k: vectors are assigned to their nearest of 16
    k-means centroids (fit on :func:`_kmeans_sample`) in one pass; each
    query searches only its 4 nearest clusters, excluding its own id.
    Same output schema as :func:`knn_cosine` — approximate where
    cluster boundaries cut true neighborhoods."""
    sample = _normalize(_kmeans_sample(ds, vec_col, id_col))
    cent = _normalize(_kmeans(sample, 16))
    qmat = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(qmat @ cent.T), axis=1)[:, :4]

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if len(ids) == 0:
            return _topk_table((), k)
        m = _normalize(_matrix_of(batch, vec_col))
        v_assign = (m @ cent.T).argmax(axis=1)

        def candidates():
            for qi, qid in enumerate(qids):
                in_probe = np.isin(v_assign, probes[qi]) & (ids != qid)
                yield qid, m[in_probe] @ qmat[qi], ids[in_probe]

        return _topk_table(candidates(), k)

    return _merge_partial_topk(
        ds.map_batches(partial, batch_format="pyarrow"), k,
        n_queries=qmat.shape[0])


def pca_project(ds: Dataset, vec_col: str, id_col: str,
                k: int = 2) -> Dataset:
    """Distributed PCA projection — the train-tiny-globally /
    apply-everywhere pattern: every block contributes one mergeable
    (n, sum_vec, X^T X) partial (d + d^2 floats, BLAS), the driver
    eigendecomposes the resulting d x d covariance (trivially small at
    any corpus size), and the top-``k`` components broadcast back for a
    per-batch projection matmul. Nothing corpus-sized ever leaves the
    blocks; the all-reduce payload is blocks x d^2 floats.

    Deterministic: partials are merged in sorted-bytes order (float
    summation order fixed across runs/schedulers) and each component's
    sign is fixed by making its largest-|coordinate| positive.

    Output: (``id_col``, pc1..pck) float64, one row per vector.
    """

    def partial(b: pa.Table) -> pa.Table:
        x = _matrix_of(b, vec_col)
        if x.shape[0] == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.binary()),
                             "g": pa.array([], pa.binary())})
        return pa.table({
            "n": pa.array([x.shape[0]], pa.int64()),
            "s": pa.array([x.sum(axis=0).tobytes()], pa.binary()),
            "g": pa.array([(x.T @ x).tobytes()], pa.binary()),
        })

    def merge_one(t: pa.Table) -> pa.Table:
        # ONE task sums all block partials (deterministic: sorted-bytes
        # order fixes float association across runs/schedulers); the
        # driver then fetches a single (d + d^2)-float blob instead of
        # blocks x d^2 — the assumption is d^2 x 8 B fits a task
        # (d <= ~2000), the same bound q65's Gram merge documents
        if t.num_rows == 0:
            # explicit zero partial: np.sum([], axis=0) is a scalar and
            # would die opaquely here; hand the driver n=0 so its
            # "pca_project: empty input" ValueError fires as designed
            return pa.table({"n": pa.array([0], pa.int64()),
                             "s": pa.array([b""], pa.binary()),
                             "g": pa.array([b""], pa.binary())})
        rows = sorted((t["n"][i].as_py(), t["s"][i].as_py(),
                       t["g"][i].as_py()) for i in range(t.num_rows))
        n_tot = sum(r[0] for r in rows)
        s = np.sum([np.frombuffer(r[1], np.float64) for r in rows],
                   axis=0)
        dd = len(s)
        g = np.sum([np.frombuffer(r[2], np.float64).reshape(dd, dd)
                    for r in rows], axis=0)
        return pa.table({"n": pa.array([n_tot], pa.int64()),
                         "s": pa.array([s.tobytes()], pa.binary()),
                         "g": pa.array([g.tobytes()], pa.binary())})

    merged = gather(_one_task(
        ds.map_batches(partial, batch_format="pyarrow"),
        merge_one)).to_pylist()
    if not merged or merged[0]["n"] == 0:
        raise ValueError("pca_project: empty input")
    n_total = merged[0]["n"]
    s = np.frombuffer(merged[0]["s"], np.float64)
    d = len(s)
    g = np.frombuffer(merged[0]["g"], np.float64).reshape(d, d)
    mean = s / n_total
    cov = g / n_total - np.outer(mean, mean)
    w, v = np.linalg.eigh(cov)          # ascending eigenvalues
    comps = v[:, ::-1][:, :k]           # top-k columns
    flip = comps[np.abs(comps).argmax(axis=0), np.arange(k)] < 0
    comps = comps * np.where(flip, -1.0, 1.0)

    def project(b: pa.Table) -> pa.Table:
        x = _matrix_of(b, vec_col)
        p = (x - mean) @ comps if x.shape[0] else np.zeros((0, k))
        out = {id_col: b[id_col]}
        for j in range(k):
            out[f"pc{j + 1}"] = pa.array(p[:, j], pa.float64())
        return pa.table(out)

    return ds.map_batches(project, batch_format="pyarrow")


def semantic_dedup(ds: Dataset, vec_col: str, id_col: str,
                   threshold: float = 0.9,
                   centroids: np.ndarray | None = None) -> Dataset:
    """SemDeDup-class semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): cluster the embedding space with k-means, then
    WITHIN each cluster flag every item whose cosine similarity to an
    item ranked earlier in the cluster's canonical order reaches
    ``threshold``. The canonical order is (cosine-to-centroid ASC,
    id ASC), so the kept representative of each duplicate chain is the
    member FARTHEST from its centroid — the paper's "keep hard
    examples" rule — and the whole pass is deterministic.

    Distributed shape (the paper's reason for clustering first): the
    O(n^2) pairwise matmul is confined to within-cluster blocks. One
    narrow assign pass appends (cluster, centroid_sim) and the
    NORMALIZED vector as a fixed_size_list column; then ONE
    :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` keyed on
    cluster delivers whole clusters to tasks that lexsort, segment, and
    matmul per cluster. Below the small threshold the exchange collapses
    to one task; above it the plan streams.

    Partitioning assumption (document per the paper: k is chosen so
    clusters average ~n/k items): ONE CLUSTER's members fit one task's
    memory. At corpus scale pick k proportional to n (SemDeDup uses
    50k clusters for LAION-440M); skewed giant clusters would need the
    same salting treatment as connected components — out of scope here
    because k-means clusters are size-bounded by construction far more
    tightly than similarity components.

    Output: one row per input — (id_col, cluster, centroid_sim, kept).
    """
    if centroids is None:
        centroids = kmeans_fit(ds, vec_col, id_col)
    cent = _normalize(np.asarray(centroids, dtype=np.float64))

    def assign(b: pa.Table) -> pa.Table:
        mn = _normalize(_matrix_of(b, vec_col))
        sims = mn @ cent.T if b.num_rows else np.empty((0, len(cent)))
        cl = sims.argmax(axis=1).astype(np.int64)
        return pa.table({id_col: b[id_col].combine_chunks().cast(pa.int64()),
                         "cluster": pa.array(cl),
                         "centroid_sim": pa.array(
                             sims[np.arange(len(cl)), cl], pa.float64()),
                         "_vec": _vector_column(mn)})

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "cluster": pa.array([], pa.int64()),
                      "centroid_sim": pa.array([], pa.float64()),
                      "kept": pa.array([], pa.bool_())})

    def dedup_in_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return empty
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        cl = np.asarray(g["cluster"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        cs = np.asarray(g["centroid_sim"].to_numpy(zero_copy_only=False),
                        dtype=np.float64)
        mat = _matrix_of(g, "_vec")
        # canonical order: (cluster, centroid_sim ASC, id ASC)
        order = np.lexsort((ids, cs, cl))
        ids, cl, cs, mat = ids[order], cl[order], cs[order], mat[order]
        kept = np.ones(n, dtype=bool)
        seg_starts = np.flatnonzero(np.diff(cl, prepend=cl[0] - 1))
        seg_ends = np.append(seg_starts[1:], n)
        for s, e in zip(seg_starts, seg_ends):
            c = e - s
            if c < 2:
                continue
            m = mat[s:e]
            # strict upper triangle of the boolean mask: entry [j, i]
            # (j earlier in canonical order) flags i as a duplicate
            dup = np.triu(m @ m.T >= threshold, k=1)
            kept[s:e] = ~dup.any(axis=0)
        return pa.table({id_col: pa.array(ids),
                         "cluster": pa.array(cl),
                         "centroid_sim": pa.array(cs, pa.float64()),
                         "kept": pa.array(kept)})

    return bucket_exchange(ds.map_batches(assign, batch_format="pyarrow"),
                           "cluster", dedup_in_bucket)
