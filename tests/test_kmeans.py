"""Distributed k-means: equivalence to a single-process Lloyd run and
clustering sanity on separable data."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from batch_geocode_ray.stages.similarity import kmeans_assign, kmeans_fit


def clustered_data(n_per=60, d=6, seed=4):
    rng = np.random.RandomState(seed)
    centers = rng.randn(3, d) * 8
    pts = np.concatenate([centers[i] + rng.randn(n_per, d)
                          for i in range(3)])
    labels = np.repeat(np.arange(3), n_per)
    t = pa.table({
        "vec_id": pa.array(range(len(pts)), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(pts.ravel(), pa.float64()), d),
    })
    return t, pts, labels


def naive_lloyd(pts, init, iters):
    cent = init.copy()
    for _ in range(iters):
        d2 = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new = cent.copy()
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                new[c] = pts[m].mean(axis=0)
        if np.allclose(new, cent, atol=1e-12):
            return new
        cent = new
    return cent


def test_distributed_kmeans_matches_naive():
    t, pts, labels = clustered_data()
    ds = rd.from_arrow(t).repartition(4)
    cent = kmeans_fit(ds, "embedding", "vec_id", k=3, iters=12)
    # same init path (sample = whole table here), same update rule:
    from batch_geocode_ray.stages.similarity import _kmeans

    init = _kmeans(pts, 3, seed=11)
    want = naive_lloyd(pts, init, 12)
    # distributed partial sums reassociate -> tiny float drift only
    np.testing.assert_allclose(np.sort(cent, axis=0),
                               np.sort(want, axis=0), rtol=1e-8)

    # assignments recover the planted clusters (up to label permutation)
    assigned = kmeans_assign(ds, "embedding", "vec_id", cent).take_all()
    by_id = {r["vec_id"]: r["cluster"] for r in assigned}
    clusters = np.array([by_id[i] for i in range(len(pts))])
    for g in range(3):
        vals, counts = np.unique(clusters[labels == g], return_counts=True)
        assert counts.max() / counts.sum() > 0.95  # near-pure clusters


def test_nearest_centroid_matches_exact_form_on_near_ties():
    """The BLAS distance form alone can flip near-equidistant argmins
    (cancellation ~|x||c|*eps); the top-2 exact refine must reproduce
    the naive difference form everywhere, including large offsets."""
    from batch_geocode_ray.stages.similarity import _nearest_centroid

    rng = np.random.RandomState(17)
    d = 24
    base = rng.randn(d) * 1e6          # large common offset -> worst
    c = base + rng.randn(5, d)         # cancellation for the BLAS form
    # points sampled ON near-bisector planes between random centroid
    # pairs, plus noise at many scales down to 1e-10
    pts = []
    for scale in (1.0, 1e-4, 1e-7, 1e-10):
        i, j = rng.randint(0, 5, 2)
        mid = (c[i] + c[j]) / 2
        pts.append(mid + rng.randn(200, d) * scale)
    m = np.vstack(pts)
    want = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    got = _nearest_centroid(m, c)
    # near-exact ties may legitimately differ only when the top-2 BLAS
    # candidates both beat the naive winner by < refine precision; in
    # that case the exact distances must still be equal to full float64
    diff = got != want
    if diff.any():
        dg = ((m[diff] - c[got[diff]]) ** 2).sum(axis=1)
        dw = ((m[diff] - c[want[diff]]) ** 2).sum(axis=1)
        np.testing.assert_allclose(dg, dw, rtol=1e-12)
    assert (got == want).mean() > 0.99
