"""Bloom-prefiltered anti join and grouped collect_set assembly."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.aggregates import (
    global_topk,
    grouped_collect_distinct_sorted,
)
from batch_geocode_ray.stages.joins import bloom_anti_join, equi_join


def _keys_ds(vals):
    return rd.from_arrow(pa.table({"k": pa.array(vals, pa.int64())}))


def test_bloom_anti_join_exact_vs_plain():
    rng = np.random.default_rng(3)
    big_keys = rng.integers(0, 5000, 4000)
    block = rng.choice(np.unique(big_keys), 120, replace=False)
    big = rd.from_arrow(pa.table({
        "k": pa.array(big_keys, pa.int64()),
        "v": pa.array(rng.normal(size=len(big_keys))),
    })).repartition(6)
    want = sorted((r["k"], round(r["v"], 9)) for r in
                  equi_join(big, _keys_ds(block), "k",
                            "anti").take_all())
    got = sorted((r["k"], round(r["v"], 9)) for r in
                 bloom_anti_join(big, _keys_ds(block), "k").take_all())
    assert got == want
    assert len(got) > 0


def test_bloom_anti_join_tiny_bitmap_still_exact():
    # a 256-bit bitmap saturates -> nearly everything becomes a
    # "possible hit" -> the exact-verify path carries the result; the
    # answer must not change
    keys = list(range(400))
    block = list(range(0, 400, 7))
    big = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))
    got = sorted(r["k"] for r in
                 bloom_anti_join(big, _keys_ds(block), "k",
                                 m_bits=256, k_hashes=2).take_all())
    assert got == sorted(set(keys) - set(block))


def test_grouped_collect_distinct_sorted_both_plans(monkeypatch):
    rng = np.random.default_rng(11)
    users = rng.integers(0, 40, 600)
    types = rng.choice(["view", "click", "purchase", "signup", "error"],
                       600)
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(types, pa.string()),
    })).repartition(7)  # adversarial block boundaries

    want = {}
    for u, t in zip(users.tolist(), types.tolist()):
        want.setdefault(u, set()).add(t)
    want = {u: ",".join(sorted(v)) for u, v in want.items()}

    def run():
        return {r["user_id"]: r["event_types"] for r in
                grouped_collect_distinct_sorted(
                    ds, "user_id", "event_type",
                    "event_types").take_all()}

    assert run() == want                       # collapsed plan
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert run() == want                       # bucket-shuffle plan


def test_global_topk_ties_and_bound():
    t = pa.table({
        "token": pa.array([f"t{i:03d}" for i in range(50)], pa.string()),
        "n": pa.array([i % 7 for i in range(50)], pa.int64()),
    })
    ds = rd.from_arrow(t).repartition(5)
    got = [(r["token"], r["n"]) for r in
           global_topk(ds, "n", "token", 10).take_all()]
    want = sorted([(tok, n) for tok, n in
                   zip(t["token"].to_pylist(), t["n"].to_pylist())],
                  key=lambda x: (-x[1], x[0]))[:10]
    assert got == want


def test_gram_partials_merge_equals_full():
    # q65's kernel shape: per-block X^T X partials merged by + must
    # equal the single-shot Gram matrix (pure NumPy, no Ray needed)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 16)).astype(np.float32)
    full = x.astype(np.float64).T @ x.astype(np.float64)
    parts = [x[:37], x[37:61], x[61:]]
    merged = sum(p.astype(np.float64).T @ p.astype(np.float64)
                 for p in parts)
    assert np.allclose(merged, full, rtol=0, atol=1e-9)


def test_transition_counts_both_plans(monkeypatch):
    import datetime
    from batch_geocode_ray.stages.windows import grouped_transition_counts

    rng = np.random.default_rng(21)
    n = 400
    users = rng.integers(0, 25, n)
    ts = [datetime.datetime(2024, 1, 1)
          + datetime.timedelta(seconds=int(s))
          for s in rng.integers(0, 100000, n)]
    types = rng.choice(["a", "b", "c"], n)
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(types, pa.string()),
        "event_id": pa.array(range(n), pa.int64()),
    })).repartition(6)

    def run():
        return sorted((r["from_type"], r["to_type"], r["n"]) for r in
                      grouped_transition_counts(
                          ds, "user_id", "ts", "event_type",
                          "event_id").take_all())

    # pandas reference
    import pandas as pd
    df = pd.DataFrame({"user_id": users, "ts": ts, "event_type": types,
                       "event_id": range(n)})
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["prev"] = df.groupby("user_id")["event_type"].shift(1)
    want = sorted((r.prev, r.event_type, int(r.n)) for r in
                  df.dropna(subset=["prev"])
                  .groupby(["prev", "event_type"]).size()
                  .reset_index(name="n").itertuples())

    assert run() == want
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert run() == want


def test_grouped_collect_distinct_sorted_string_key(monkeypatch):
    """String group keys survive the bucket exchange (the key used to
    be cast through uint64 and came back as int64)."""
    ds = rd.from_arrow(pa.table({
        "lang": pa.array(["en", "de", "en", "fr", "de", "en"],
                         pa.string()),
        "src": pa.array(["a", "b", "a", "c", "b", "c"], pa.string()),
    })).repartition(3)
    want = {"en": "a,c", "de": "b", "fr": "c"}

    def run():
        return {r["lang"]: r["srcs"] for r in
                grouped_collect_distinct_sorted(
                    ds, "lang", "src", "srcs").take_all()}

    assert run() == want
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert run() == want
