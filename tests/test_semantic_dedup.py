"""SemDeDup-class semantic dedup (stages/similarity.semantic_dedup):
naive-numpy oracle parity, both-plans (collapsed vs streamed-hint)
equality, and planted-duplicate semantics."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.similarity import _normalize, semantic_dedup


def _naive_semdedup(ids, vecs, centroids, threshold):
    """Single-process reference: same canonical order, same rule."""
    mn = _normalize(np.asarray(vecs, dtype=np.float64))
    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    sims = mn @ cn.T
    cl = sims.argmax(axis=1)
    cs = sims[np.arange(len(ids)), cl]
    kept = {}
    for c in np.unique(cl):
        mask = cl == c
        sub_ids, sub_cs, sub_m = ids[mask], cs[mask], mn[mask]
        order = np.lexsort((sub_ids, sub_cs))
        sub_ids, sub_m = sub_ids[order], sub_m[order]
        for i in range(len(sub_ids)):
            # paper rule: ANY earlier item (kept or not) suppresses
            dup = any((sub_m[i] @ sub_m[j]) >= threshold
                      for j in range(i))
            kept[int(sub_ids[i])] = not dup
    return kept


def _mkds(ids, vecs):
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))


def _collect(out):
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")])
    return {int(i): bool(k)
            for i, k in zip(t["vec_id"].to_pylist(), t["kept"].to_pylist())}


@pytest.fixture(scope="module")
def random_world():
    rng = np.random.RandomState(7)
    n, d = 400, 16
    vecs = rng.randn(n, d)
    # plant 30 exact-duplicate rows and 20 tight near-dups
    for i in range(30):
        vecs[n - 1 - i] = vecs[i]
    for i in range(30, 50):
        vecs[n - 31 - i] = vecs[i] + rng.randn(d) * 1e-3
    ids = np.arange(n, dtype=np.int64)
    centroids = rng.randn(6, d)
    return ids, vecs, centroids


def test_matches_naive_oracle(ray_session, random_world):
    ids, vecs, centroids = random_world
    out = semantic_dedup(_mkds(ids, vecs), "embedding", "vec_id",
                         threshold=0.9, centroids=centroids)
    got = _collect(out)
    want = _naive_semdedup(ids, vecs, centroids, 0.9)
    assert got == want
    assert sum(not v for v in got.values()) >= 30  # planted dups flagged


def test_both_plans_equal(ray_session, random_world, monkeypatch):
    ids, vecs, centroids = random_world
    ds = _mkds(ids, vecs)
    collapsed = _collect(semantic_dedup(
        ds, "embedding", "vec_id", threshold=0.8, centroids=centroids))
    # the exchange plan must also never materialize
    from ray.data import Dataset
    real = Dataset.materialize

    def forbidden(self, *a, **kw):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    monkeypatch.setattr(Dataset, "materialize", forbidden)
    try:
        streamed = _collect(semantic_dedup(
            ds, "embedding", "vec_id", threshold=0.8, centroids=centroids))
    finally:
        monkeypatch.setattr(Dataset, "materialize", real)
    assert collapsed == streamed


def test_planted_duplicate_keeps_farthest_from_centroid(ray_session):
    # one cluster at +x; three colinear vectors (pairwise cos = 1);
    # the kept representative must be the LOWEST centroid_sim member
    # of the chain — ids with smaller centroid_sim sort first.
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    vecs = np.array([
        [1.0, 0.0],     # id 0: cos-to-centroid 1.0
        [2.0, 0.0],     # id 1: same direction, same centroid_sim
        [1.0, 0.2],     # id 2: slightly off-axis, lower centroid_sim
        [0.0, 1.0],     # id 3: other cluster, alone -> kept
    ])
    ids = np.arange(4, dtype=np.int64)
    got = _collect(semantic_dedup(_mkds(ids, vecs), "embedding", "vec_id",
                                  threshold=0.99, centroids=centroids))
    # canonical order in cluster 0: id 2 (sim ~0.98) then id 0 then id 1
    # (sim 1.0, tie -> id). cos(2,0)=cos(2,1)~0.98 < t; cos(0,1)=1 >= t.
    assert got == {0: True, 1: False, 2: True, 3: True}


def test_empty_and_singleton(ray_session):
    ids = np.array([5], dtype=np.int64)
    vecs = np.array([[1.0, 0.0]])
    centroids = np.array([[1.0, 0.0]])
    got = _collect(semantic_dedup(_mkds(ids, vecs), "embedding", "vec_id",
                                  threshold=0.5, centroids=centroids))
    assert got == {5: True}
