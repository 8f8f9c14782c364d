"""HLL and Misra-Gries sketch guarantees."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.functions.sketches import (
    heavy_hitters_with_total,
    hll_estimate,
    hll_merge,
    hll_partial,
    mg_merge,
    mg_partial,
)
from batch_geocode_ray.pipelines.queries import QUERIES


def test_hll_accuracy_and_merge():
    rng = np.random.RandomState(0)
    vals = [f"item-{i}" for i in rng.randint(0, 50_000, size=200_000)]
    true = len(set(vals))
    # split into partials, merge — same answer as one pass
    one = hll_partial(pa.array(vals))
    parts = [hll_partial(pa.array(vals[i::7])) for i in range(7)]
    assert (hll_merge(parts) == one).all()
    est = hll_estimate(one)
    assert abs(est - true) / true < 0.05  # p=12 -> ~1.6% typical error


def test_hll_small_range():
    est = hll_estimate(hll_partial(pa.array([f"x{i}" for i in range(10)])))
    assert abs(est - 10) < 1.5
    assert hll_estimate(hll_partial(pa.array([], pa.string()))) == 0.0


def test_hll_distributed():
    vals = pa.table({"v": pa.array([f"u{i % 1234}" for i in range(20_000)])})
    ds = rd.from_arrow(vals).repartition(6)
    parts = [hll_partial(b["v"]) for b in ds.iter_batches(
        batch_size=None, batch_format="pyarrow")]
    assert len(parts) == 6
    est = hll_estimate(hll_merge(parts))
    assert abs(est - 1234) / 1234 < 0.05


def test_mg_guarantees():
    # stream: one dominant item (40%), few mid, long tail
    rng = np.random.RandomState(1)
    items = (["hot"] * 4000 + ["warm"] * 1000 +
             [f"t{i}" for i in rng.randint(0, 3000, size=5000)])
    rng.shuffle(items)
    n, k = len(items), 10
    parts = [mg_partial(pa.array(items[i::5]), k) for i in range(5)]
    merged = mg_merge(parts, k)
    true_hot = 4000
    # guarantee: any item with freq > n/k survives; count error <= n/k
    assert "hot" in merged
    assert true_hot - merged["hot"] <= n / k * 2  # merge of 5 partials
    assert "warm" in merged


def test_mg_distributed():
    t = pa.table({"v": pa.array(["a"] * 500 + ["b"] * 300 +
                                [f"x{i}" for i in range(200)])})
    hh, n = heavy_hitters_with_total(rd.from_arrow(t).repartition(4), "v", k=8)
    top = [item for item, _ in hh[:2]]
    assert top == ["a", "b"] and n == 1000
    assert hh[0][1] <= 500  # lower bound never over-counts


def test_quantile_sketch_bounds_and_merge():
    """Rank error of the mergeable quantile summary stays ~2/k after a
    partial->merge round, and merging is order-insensitive."""
    import numpy as np

    from batch_geocode_ray.functions.sketches import (
        quantile_merge,
        quantile_partial,
        quantile_query,
    )

    rng = np.random.RandomState(3)
    data = rng.lognormal(3.0, 1.0, 200_000)
    chunks = np.array_split(data, 37)
    parts = [quantile_partial(c) for c in chunks]
    merged = quantile_merge(parts)
    merged_rev = quantile_merge(parts[::-1])
    s = np.sort(data)
    for q in (0.1, 0.5, 0.9, 0.99):
        est = quantile_query(merged, q)
        # rank of the estimate must be within 1% of q
        rank = np.searchsorted(s, est) / len(s)
        assert abs(rank - q) < 0.01, (q, rank)
    for q in (0.25, 0.75):
        a = quantile_query(merged, q)
        b = quantile_query(merged_rev, q)
        ra = np.searchsorted(s, a) / len(s)
        rb = np.searchsorted(s, b) / len(s)
        assert abs(ra - rb) < 0.01


def test_hll_partial_rejects_ambiguous_ndarray():
    import numpy as np
    import pytest

    from batch_geocode_ray.functions.sketches import hll_estimate

    raw = np.arange(1000, dtype=np.int64)
    with pytest.raises(TypeError):
        hll_partial(raw)  # unhashed ints would build a garbage sketch
    # explicit pre-hashed path: uniform hashes estimate ~correctly
    from batch_geocode_ray.functions.hashing import splitmix64

    est = hll_estimate(hll_partial(splitmix64(raw.astype(np.uint64)),
                                   pre_hashed=True))
    assert abs(est - 1000) / 1000 < 0.1


def test_q38_one_global_order_on_both_plans(monkeypatch):
    """q38's (at most k) rows come out in one global order: the
    exchange plan (``SMALL_COLLAPSE_BYTES = 0``) gives the default
    plan's rows in the default plan's order."""
    q38 = QUERIES["q38_heavy_hitters"]
    sf = "/root/testdata/sf0.01"
    want = q38(sf).take_all()
    assert len(want) > 1  # an order to keep
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert q38(sf).take_all() == want
