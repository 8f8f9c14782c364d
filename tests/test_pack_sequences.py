"""q78 sequence packing: the distributed ordered prefix sum.

Pins (a) both physical plans (single-task collapse vs bucket exchange)
bit-equal to a NumPy scan oracle, (b) the exchange plan never
materializes, (c) the packing invariants (offsets partition the token
stream; sequence ids consistent with seq_len), (d) id validation.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.windows import sequence_pack_offsets


def _corpus(n=257, seed=7):
    rng = np.random.RandomState(seed)
    ids = np.arange(n, dtype=np.int64) * 3 + 1  # sparse, non-negative
    texts = [" ".join(f"w{rng.randint(50)}"
                      for _ in range(int(rng.randint(1, 40))))
             for _ in range(n)]
    return ids, texts


def _numpy_oracle(ids, texts, seq_len):
    key = (ids.astype(np.uint64) * np.uint64(2654435761)) \
        & np.uint64(0xFFFFFFFF)
    tok = np.array([t.count(" ") + 1 for t in texts], dtype=np.int64)
    order = np.lexsort((ids, key.astype(np.int64)))
    ids_o, key_o, tok_o = ids[order], key[order].astype(np.int64), tok[order]
    start = np.cumsum(tok_o) - tok_o
    return pa.table({
        "doc_id": pa.array(ids_o, pa.int64()),
        "shuffle_key": pa.array(key_o, pa.int64()),
        "n_tokens": pa.array(tok_o, pa.int64()),
        "start_off": pa.array(start, pa.int64()),
        "first_seq": pa.array(start // seq_len, pa.int64()),
        "last_seq": pa.array((start + tok_o - 1) // seq_len, pa.int64()),
    }).sort_by("doc_id")


def _collect(ds):
    return pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow")).sort_by("doc_id")


def test_pack_sequences_both_plans_match_oracle(monkeypatch):
    ids, texts = _corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(5)
    want = _numpy_oracle(ids, texts, 64)

    small = _collect(sequence_pack_offsets(ds, "doc_id", "text", seq_len=64))
    assert small.equals(want)

    # 7 range buckets -> 7 base offsets from the exclusive scan
    monkeypatch.setattr(exchange, "adaptive_bucket_count", lambda *a, **k: 7)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    big = _collect(sequence_pack_offsets(ds, "doc_id", "text", seq_len=64))
    assert big.equals(want)


def test_pack_sequences_invariants():
    ids, texts = _corpus(n=100, seed=3)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    t = _collect(sequence_pack_offsets(ds, "doc_id", "text", seq_len=32))
    key = np.asarray(t["shuffle_key"])
    tok = np.asarray(t["n_tokens"])
    start = np.asarray(t["start_off"])
    order = np.lexsort((np.asarray(t["doc_id"]), key))
    # offsets tile the concatenated token stream exactly, no gaps
    assert start[order][0] == 0
    assert np.array_equal(start[order][1:],
                          (start + tok)[order][:-1])
    assert (start + tok)[order][-1] == tok.sum()
    # sequence ids consistent with the fixed length
    assert np.array_equal(np.asarray(t["first_seq"]), start // 32)
    assert np.array_equal(np.asarray(t["last_seq"]), (start + tok - 1) // 32)


def test_pack_sequences_hint_streams(monkeypatch):
    from ray.data import Dataset

    ids, texts = _corpus(n=64, seed=11)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    want = _collect(sequence_pack_offsets(ds, "doc_id", "text", seq_len=64))

    real = Dataset.materialize

    def forbidden(self, *a, **kw):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    monkeypatch.setattr(Dataset, "materialize", forbidden)
    try:
        got = _collect(sequence_pack_offsets(ds, "doc_id", "text",
                                             seq_len=64))
    finally:
        monkeypatch.setattr(Dataset, "materialize", real)
    assert got.equals(want)


def test_pack_sequences_rejects_negative_ids():
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([-1, 2], pa.int64()),
        "text": pa.array(["a b", "c"], pa.string()),
    }))
    with pytest.raises(Exception, match="ids must be >= 0"):
        sequence_pack_offsets(ds, "doc_id", "text").take_all()


# ---------------------------------------------------------------------------
# q79: grouped (per-source) token-budget sampling
# ---------------------------------------------------------------------------

from batch_geocode_ray.stages.windows import grouped_token_budget_sample


def _grouped_corpus(n=240, seed=5, n_groups=6):
    rng = np.random.RandomState(seed)
    ids = np.arange(n, dtype=np.int64) * 7 + 2
    grps = [f"s{int(rng.randint(n_groups))}" for _ in range(n)]
    texts = [" ".join(f"w{rng.randint(30)}"
                      for _ in range(int(rng.randint(1, 25))))
             for _ in range(n)]
    return ids, grps, texts


def _budget_oracle(ids, grps, texts, budget):
    key = ((ids.astype(np.uint64) * np.uint64(2654435761))
           & np.uint64(0xFFFFFFFF)).astype(np.int64)
    tok = np.array([t.count(" ") + 1 for t in texts], dtype=np.int64)
    rows = []
    for gname in sorted(set(grps)):
        sel = np.array([g == gname for g in grps])
        order = np.lexsort((ids[sel], key[sel]))
        i_sel = np.flatnonzero(sel)[order]
        off = 0
        for i in i_sel:
            if off + tok[i] <= budget:
                rows.append((int(ids[i]), gname, int(key[i]),
                             int(tok[i]), off))
            off += tok[i]
    rows.sort()
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "shuffle_key": pa.array([r[2] for r in rows], pa.int64()),
        "n_tokens": pa.array([r[3] for r in rows], pa.int64()),
        "src_off": pa.array([r[4] for r in rows], pa.int64()),
    })


def test_mixture_budget_both_plans_match_oracle(monkeypatch):
    ids, grps, texts = _grouped_corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(grps, pa.string()),
    })).repartition(4)
    want = _budget_oracle(ids, np.array(grps), texts, 120)

    small = _collect(grouped_token_budget_sample(
        ds, "doc_id", "text", "source", 120))
    assert small.equals(want)
    assert 0 < small.num_rows < len(ids)  # budget actually bites

    monkeypatch.setattr(exchange, "adaptive_bucket_count", lambda *a, **k: 5)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    big = _collect(grouped_token_budget_sample(
        ds, "doc_id", "text", "source", 120))
    assert big.equals(want)


def test_mixture_budget_hint_streams(monkeypatch):
    from ray.data import Dataset

    ids, grps, texts = _grouped_corpus(n=80, seed=9, n_groups=3)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(grps, pa.string()),
    })).repartition(3)
    want = _collect(grouped_token_budget_sample(
        ds, "doc_id", "text", "source", 100))

    real = Dataset.materialize

    def forbidden(self, *a, **kw):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    monkeypatch.setattr(Dataset, "materialize", forbidden)
    try:
        got = _collect(grouped_token_budget_sample(
            ds, "doc_id", "text", "source", 100))
    finally:
        monkeypatch.setattr(Dataset, "materialize", real)
    assert got.equals(want)


@pytest.mark.parametrize("op", ["pack", "budget"])
def test_range_buckets_sharing_a_coarse_bucket_match_oracle(op, tmp_path,
                                                            monkeypatch):
    """The distributed scans key the exchange on their range bucket, so
    one coarse bucket can hold several range buckets. Each row must
    still start from its own range bucket's base: the test first sees a
    group fn handed rows of more than one range bucket, then checks the
    result against the NumPy oracle."""
    import json

    ids, grps, texts = _grouped_corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(grps, pa.string()),
    })).repartition(4)
    log = tmp_path / "range_buckets.jsonl"
    real = exchange._exchange

    def spy(ds, key, fn):
        if key != "range_bucket":
            return real(ds, key, fn)

        def logged(g):
            # runs in the worker: append this group's range buckets
            with open(log, "a") as f:
                f.write(json.dumps(sorted(set(
                    g["range_bucket"].to_pylist()))) + "\n")
            return fn(g)
        return real(ds, key, logged)

    monkeypatch.setattr(exchange, "_exchange", spy)
    monkeypatch.setattr(exchange, "adaptive_bucket_count", lambda *a, **k: 16)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    if op == "pack":
        got = _collect(sequence_pack_offsets(ds, "doc_id", "text",
                                             seq_len=64))
        want = _numpy_oracle(ids, texts, 64)
    else:
        got = _collect(grouped_token_budget_sample(
            ds, "doc_id", "text", "source", 300))
        want = _budget_oracle(ids, np.array(grps), texts, 300)
        assert 0 < want.num_rows < len(ids)  # budget actually bites
    groups = [json.loads(line) for line in log.read_text().splitlines()]
    assert max(map(len, groups)) >= 2  # range buckets shared a group
    assert sorted(b for g in groups for b in g) == list(range(16))
    assert got.equals(want)


def _build(op, ds):
    if op == "pack":
        return sequence_pack_offsets(ds, "doc_id", "text", seq_len=64)
    return grouped_token_budget_sample(ds, "doc_id", "text", "source", 300)


def _grouped_ds():
    ids, grps, texts = _grouped_corpus()
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(grps, pa.string()),
    })).repartition(4)


@pytest.mark.parametrize("op", ["pack", "budget"])
def test_token_scan_builds_without_executing(op, monkeypatch):
    """Building either op on the exchange plan runs nothing: the
    range-bucket bases are computed inside the plan, not collected on
    the driver first. ``iter_internal_ref_bundles`` is what a collect
    runs, so it raises while the op is built."""
    from ray.data import Dataset

    ds = _grouped_ds()
    monkeypatch.setattr(exchange, "adaptive_bucket_count", lambda *a, **k: 16)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    real = Dataset.iter_internal_ref_bundles

    def forbidden(self, *a, **kw):
        raise AssertionError("the plan executed while it was built")

    monkeypatch.setattr(Dataset, "iter_internal_ref_bundles", forbidden)
    try:
        built = _build(op, ds)
    finally:
        monkeypatch.setattr(Dataset, "iter_internal_ref_bundles", real)
    ids, grps, texts = _grouped_corpus()
    want = (_numpy_oracle(ids, texts, 64) if op == "pack"
            else _budget_oracle(ids, np.array(grps), texts, 300))
    assert _collect(built).equals(want)


@pytest.mark.parametrize("op", ["pack", "budget"])
def test_token_scan_functions_do_not_grow_with_bucket_count(op, monkeypatch):
    """Every function either op hands to the exchange pickles to the
    same size at 16 and at 256 range buckets: no base table rides in a
    closure."""
    import cloudpickle

    real = exchange._exchange
    sizes: list[int] = []

    def spy(ds, key, fn):
        sizes.append(len(cloudpickle.dumps(fn)))
        return real(ds, key, fn)

    monkeypatch.setattr(exchange, "_exchange", spy)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    ds = _grouped_ds()
    per_nb = []
    for nb in (16, 256):
        monkeypatch.setattr(exchange, "adaptive_bucket_count",
                            lambda *a, _nb=nb, **k: _nb)
        sizes.clear()
        _collect(_build(op, ds))
        per_nb.append(list(sizes))
    assert per_nb[0] and per_nb[0] == per_nb[1], per_nb


@pytest.mark.parametrize("op", ["pack", "budget"])
def test_token_scan_rejects_null_text(op):
    """A null text has no token count: it fails loudly, naming the op,
    rather than turning every later offset into garbage."""
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b", None, "c d e"], pa.string()),
        "source": pa.array(["s", "s", "s"], pa.string()),
    }))
    name = ("sequence_pack_offsets" if op == "pack"
            else "grouped_token_budget_sample")
    with pytest.raises(Exception, match=f"{name}: text must be non-null"):
        _build(op, ds).take_all()


# ---------------------------------------------------------------------------
# q80: exact global integer quantile threshold (mergeable value counts)
# ---------------------------------------------------------------------------

import duckdb

from batch_geocode_ray.stages.aggregates import int_quantile_threshold


def test_int_quantile_threshold_matches_duckdb_quantile_disc():
    rng = np.random.RandomState(13)
    vals = rng.randint(0, 40, size=501).astype(np.int64)  # heavy dups
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.int64())})) \
        .repartition(6)
    for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
        want = duckdb.sql(
            f"select quantile_disc(x, {q}) from "
            f"(select unnest({vals.tolist()}) x)").fetchone()[0]
        got = int_quantile_threshold(ds, "x", q)
        assert got == want, (q, got, want)


def test_int_quantile_threshold_edges():
    ds = rd.from_arrow(pa.table({"x": pa.array([7], pa.int64())}))
    assert int_quantile_threshold(ds, "x", 0.5) == 7
    with pytest.raises(ValueError, match="outside"):
        int_quantile_threshold(ds, "x", 1.5)
    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    with pytest.raises(ValueError, match="empty input"):
        int_quantile_threshold(empty, "x", 0.5)
