"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix rides the UDF
(put into the object store once per operator) and every batch does one
float64 matmul against it; per-batch
partial top-k keeps only k rows per (query, block) so the shuffle to
the final per-query merge is tiny.

Scale path: IVF — deterministic k-means centroids from a sample, vectors
bucketed by nearest centroid, queries probe the nearest few buckets
only. Approximate by design; the baseline is the oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from batch_geocode_ray.stages.dedup import (
    _one_task,
    _probe_small,
    bucket_exchange,
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
        m = _normalize(_matrix_of(batch, vec_col))
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        sims = m @ qmat.T  # (B, Q)
        out_q, out_n, out_s = [], [], []
        for qi in range(qmat.shape[0]):
            mask = ids != qids[qi]
            s, cand_ids = sims[mask, qi], ids[mask]
            kk = min(k, len(cand_ids))
            if kk == 0:
                continue
            part = _partial_topk_ties(s, cand_ids, kk)
            out_q.append(np.full(kk, qids[qi], dtype=np.int64))
            out_n.append(cand_ids[part])
            out_s.append(s[part])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

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
    unless the partials measure small enough for that same one task,
    a :func:`~batch_geocode_ray.stages.dedup.bucket_exchange` keyed on
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

    if n_queries is not None and n_queries > SHUFFLE_MERGE_QUERIES:
        partials, small, size = _probe_small(partials)
        if not small:
            return (bucket_exchange(partials, "query_id", merge_one,
                                    size_hint_bytes=size)
                    .sort(["query_id", "rank"]))
    return _one_task(partials, merge_one)


def _pair_table(d1, d2, cos) -> pa.Table:
    return pa.table({
        "d1": pa.array(d1, pa.int64()),
        "d2": pa.array(d2, pa.int64()),
        "cosine": pa.array(cos, pa.float64()),
    })


def _upper_pairs(ids_a, m_a, ids_b, m_b, threshold) -> pa.Table:
    """Above-threshold (a < b) cosine pairs between two id/vector sets
    (inputs pre-normalized)."""
    if len(ids_a) == 0 or len(ids_b) == 0:
        return _pair_table([], [], [])
    sims = m_a @ m_b.T
    keep = (sims >= threshold) & (ids_a[:, None] < ids_b[None, :])
    r, c = np.nonzero(keep)
    return _pair_table(ids_a[r], ids_b[c], sims[r, c])


@ray.remote
def _block_pair_sims(t1: pa.Table, t2: pa.Table | None, vec_col: str,
                     id_col: str, threshold: float) -> pa.Table:
    """One exact block-vs-block similarity tile (t2 None = t1 vs t1)."""
    ids1 = np.asarray(t1[id_col].to_numpy(zero_copy_only=False), np.int64)
    m1 = _normalize(_matrix_of(t1, vec_col))
    if t2 is None:
        return _upper_pairs(ids1, m1, ids1, m1, threshold)
    ids2 = np.asarray(t2[id_col].to_numpy(zero_copy_only=False), np.int64)
    m2 = _normalize(_matrix_of(t2, vec_col))
    return _upper_pairs(ids1, m1, ids2, m2, threshold)


def cosine_neardup_pairs(ds: Dataset, vec_col: str, id_col: str,
                         threshold: float = 0.4) -> Dataset:
    """All (a < b) vector pairs with cosine >= threshold, exact.
    Output: (d1, d2, cosine).

    Physical plans (nothing O(N) ever concentrates on the driver):
      * small input (the (id, vec) projection measures under the dedup
        small-collapse threshold) -> the whole exact join runs in ONE
        task.
      * at scale -> block-pair tiling: the dataset's blocks stay in the
        object store (the projection MUST materialize here — the
        triangular tiling addresses blocks by ref); one Ray task per
        block pair (i <= j) fetches exactly two blocks and emits its
        above-threshold pairs. Exact at ANY threshold; the quadratic
        compute is inherent to an exact similarity join (raw tasks used
        because a triangular self-join has no Dataset-API shape).
    """
    from batch_geocode_ray.stages import dedup as _dd  # shared knob

    # block-pair tiling is ref-addressed: materialization inherent
    proj = ds.select_columns([id_col, vec_col]).materialize()
    if (proj.size_bytes() or 0) < _dd.SMALL_COLLAPSE_BYTES:
        def one(b: pa.Table) -> pa.Table:
            ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                             np.int64)
            m = _normalize(_matrix_of(b, vec_col))
            return _upper_pairs(ids, m, ids, m, threshold)

        return _one_task(proj, one)

    refs = proj.to_arrow_refs()  # O(blocks) refs; data stays put
    tiles = []
    for i in range(len(refs)):
        tiles.append(_block_pair_sims.remote(
            refs[i], None, vec_col, id_col, threshold))
        for j in range(i + 1, len(refs)):
            tiles.append(_block_pair_sims.remote(
                refs[i], refs[j], vec_col, id_col, threshold))
    import ray.data as rd
    return rd.from_arrow_refs(tiles)


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


def kmeans_fit(ds: Dataset, vec_col: str, k: int = 8, iters: int = 10,
               seed: int = 11) -> np.ndarray:
    """Distributed Lloyd's k-means over an embedding column.

    Init: deterministic 2048-row sample -> local k-means (cheap, seeds
    quality).
    Each iteration: broadcast centroids, every batch computes assignments
    and PARTIAL per-cluster (sum, count); the driver merges k x d
    numbers and updates. The full dataset streams once per iteration;
    nothing big ever concentrates. Returns (k, d) float64 centroids.
    """
    sample_t = gather(ds.select_columns([vec_col]).limit(2048))
    cent = _kmeans(_matrix_of(sample_t, vec_col), k, seed=seed)

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
    k-means centroids (fit on a 2048-row sample) in one pass; each
    query searches only its 4 nearest clusters, excluding its own id.
    Same output schema as :func:`knn_cosine` — approximate where
    cluster boundaries cut true neighborhoods."""
    sample_t = gather(ds.select_columns([vec_col]).limit(2048))
    cent = _normalize(_kmeans(_normalize(_matrix_of(sample_t, vec_col)),
                              16))
    qmat = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(qmat @ cent.T), axis=1)[:, :4]

    def partial(batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix_of(batch, vec_col))
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        v_assign = (m @ cent.T).argmax(axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(qmat.shape[0]):
            in_probe = np.isin(v_assign, probes[qi]) & (ids != qids[qi])
            if not in_probe.any():
                continue
            s = m[in_probe] @ qmat[qi]
            cand = ids[in_probe]
            kk = min(k, len(cand))
            part = _partial_topk_ties(s, cand, kk)
            out_q.append(np.full(kk, qids[qi], dtype=np.int64))
            out_n.append(cand[part])
            out_s.append(s[part])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

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
                   centroids: np.ndarray | None = None,
                   size_hint_bytes: int | None = None) -> Dataset:
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
    narrow assign pass appends (cluster, centroid_sim) and packs the
    NORMALIZED vector into a fixed-width binary blob (list<float>
    cannot ride an exchange); then ONE
    :func:`~batch_geocode_ray.stages.dedup.bucket_exchange` keyed on
    cluster delivers whole clusters to tasks that lexsort, segment, and
    matmul per cluster. Below the
    small threshold (or under a small ``size_hint_bytes``) the exchange
    collapses to one task; above it the plan streams — pass
    ``size_hint_bytes`` (input bytes) to skip the size probe entirely.

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
        centroids = kmeans_fit(ds, vec_col)
    cent = _normalize(np.asarray(centroids, dtype=np.float64))

    def assign(b: pa.Table) -> pa.Table:
        mn = _normalize(_matrix_of(b, vec_col))
        n = b.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "centroid_sim": pa.array([], pa.float64()),
                             "_vec": pa.array([], pa.large_binary())})
        sims = mn @ cent.T
        cl = sims.argmax(axis=1).astype(np.int64)
        cs = sims[np.arange(n), cl]
        width = mn.shape[1] * 8
        offsets = (np.arange(n + 1, dtype=np.int64) * width)
        vec_arr = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), n,
            [None, pa.py_buffer(offsets.tobytes()),
             pa.py_buffer(np.ascontiguousarray(mn).tobytes())])
        return pa.table({id_col: b[id_col].combine_chunks().cast(pa.int64()),
                         "cluster": pa.array(cl),
                         "centroid_sim": pa.array(cs, pa.float64()),
                         "_vec": vec_arr})

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
        vcol = g["_vec"].combine_chunks().cast(pa.large_binary())
        bufs = vcol.buffers()
        offs = np.frombuffer(bufs[1], dtype=np.int64)[
            vcol.offset:vcol.offset + n + 1]
        flat = np.frombuffer(bufs[2], dtype=np.float64)
        d = (offs[1] - offs[0]) // 8
        mat = flat[offs[0] // 8: offs[-1] // 8].reshape(n, d)
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
                           "cluster", dedup_in_bucket,
                           size_hint_bytes=size_hint_bytes)
