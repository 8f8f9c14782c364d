"""Dedup + similarity operators: exactness, LSH recall against the
exact join, and plumbing of the multimodal stubs."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from batch_geocode_ray.stages.dedup import (
    exact_dedup,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_pairs,
)
from batch_geocode_ray.stages.joins import broadcast_join
from batch_geocode_ray.stages.similarity import (
    cosine_neardup_pairs,
    knn_cosine,
)

BASE = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lambda mu nu xi omicron pi rho sigma tau upsilon")


def docs_table():
    texts = [
        BASE,                             # 0
        BASE + " phi",                    # 1: near-dup of 0
        "totally different content here about other things entirely "
        "with many words that do not overlap at all",  # 2
        BASE,                             # 3: exact dup of 0
        "short text",                     # 4
        BASE.replace("gamma", "GAMMA"),   # 5: case-only change = same tokens
    ]
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


@pytest.fixture(scope="module")
def docs_ds():
    return rd.from_arrow(docs_table()).repartition(3)


def test_exact_dedup(docs_ds):
    got = {r["doc_id"]: r["n_copies"]
           for r in exact_dedup(docs_ds, "text", "doc_id").take_all()}
    # docs 0 and 3 are byte-identical -> survivor 0 with 2 copies;
    # doc 5 differs byte-wise (case), so it is NOT an exact dup
    assert got[0] == 2
    assert 3 not in got
    assert got[5] == 1
    assert sum(got.values()) == 6


def test_ngram_jaccard_exact_pairs(docs_ds):
    pairs = ngram_jaccard_pairs(docs_ds, "text", "doc_id",
                                k=3, threshold=0.8).take_all()
    found = {(r["d1"], r["d2"]): r["jaccard"] for r in pairs}
    # tokenization lowercases, so 0/3/5 are identical token streams and
    # 1 shares all of 0's grams
    assert found[(0, 3)] == 1.0
    assert found[(0, 5)] == 1.0
    assert found[(3, 5)] == 1.0
    assert (0, 1) in found and found[(0, 1)] > 0.9
    assert all(d not in (2, 4) for p in found for d in p)


def test_minhash_lsh_finds_exact_pairs(docs_ds):
    exact = {(r["d1"], r["d2"])
             for r in ngram_jaccard_pairs(docs_ds, "text", "doc_id",
                                          k=3, threshold=0.8).take_all()}
    lsh = {(r["d1"], r["d2"])
           for r in minhash_lsh_pairs(docs_ds, "text", "doc_id",
                                      threshold=0.8).take_all()}
    # high-similarity pairs must be recalled; no sub-threshold pair may appear
    assert exact <= lsh or exact == lsh
    for r in minhash_lsh_pairs(docs_ds, "text", "doc_id",
                               threshold=0.8).take_all():
        assert r["jaccard"] >= 0.8


def test_simhash_pairs(docs_ds):
    got = {(r["d1"], r["d2"]): r["hamming"]
           for r in simhash_pairs(docs_ds, "text", "doc_id",
                                  max_hamming=3).take_all()}
    # identical token multisets -> identical simhash -> hamming 0
    assert got[(0, 3)] == 0
    assert got[(0, 5)] == 0
    assert (0, 2) not in got


def test_shuffle_plan_equals_collapsed_plan(docs_ds, monkeypatch):
    """The adaptive small-side collapse is a physical-plan choice only:
    forcing the shuffle plan must give identical answers."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.dedup import edit_distance_pairs
    from batch_geocode_ray.stages.substring import duplicate_substring_pairs

    def run_all():
        return (
            sorted((r["doc_id"], r["n_copies"])
                   for r in exact_dedup(docs_ds, "text", "doc_id").take_all()),
            sorted((r["d1"], r["d2"], round(r["jaccard"], 12))
                   for r in ngram_jaccard_pairs(docs_ds, "text", "doc_id",
                                                k=3, threshold=0.8).take_all()),
            sorted((r["d1"], r["d2"], round(r["jaccard"], 12))
                   for r in minhash_lsh_pairs(docs_ds, "text", "doc_id",
                                              threshold=0.8).take_all()),
            sorted((r["d1"], r["d2"], r["hamming"])
                   for r in simhash_pairs(docs_ds, "text", "doc_id",
                                          max_hamming=3).take_all()),
            sorted((r["d1"], r["d2"])
                   for r in edit_distance_pairs(docs_ds, "text", "doc_id",
                                                max_dist=1).take_all()),
            sorted((r["d1"], r["d2"])
                   for r in duplicate_substring_pairs(
                       docs_ds, "text", "doc_id", L=40).take_all()),
        )

    collapsed = run_all()
    assert all(collapsed), [len(rows) for rows in collapsed]
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    shuffled = run_all()
    assert collapsed == shuffled


def _row_order_hash(ds) -> str:
    """Row-order-sensitive hash of a Dataset's rows."""
    import hashlib

    h = hashlib.sha256()
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        for row in b.to_pylist():
            h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


def test_q12_q19_row_order_is_deterministic(monkeypatch):
    """q12 (exact dedup, ORDER BY doc_id) and q19 (simhash pairs,
    ordered by (d1, d2)) give one row order on every run, with the
    collapsed plan and with the distributed plan forced."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.pipelines.queries import QUERIES
    from tests.test_r3_new_ops import SF as sf

    q12_dedup_exact = QUERIES["q12_dedup_exact"]
    q19_simhash_neardup = QUERIES["q19_simhash_neardup"]

    hashes = {"q12": set(), "q19": set()}
    for collapse in (exchange.SMALL_COLLAPSE_BYTES, 0):
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", collapse)
        for _ in range(3):
            hashes["q12"].add(_row_order_hash(q12_dedup_exact(sf)))
            hashes["q19"].add(_row_order_hash(q19_simhash_neardup(sf)))
    assert {q: len(h) for q, h in hashes.items()} == {"q12": 1, "q19": 1}


def test_broadcast_join_inner_and_left():
    big = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10.0, 20.0, 30.0, 40.0]),
    }))
    small = pa.table({
        "k": pa.array([1, 3], pa.int64()),
        "name": pa.array(["one", "three"], pa.string()),
    })
    inner = broadcast_join(big, small, "k", ["name"]).take_all()
    assert sorted((r["k"], r["name"]) for r in inner) == [(1, "one"), (3, "three")]
    left = broadcast_join(big, small, "k", ["name"], how="left").take_all()
    got = {r["k"]: r["name"] for r in left}
    assert got == {1: "one", 2: None, 3: "three", 4: None}


def embeddings_ds(n=40, d=8, seed=2):
    rng = np.random.RandomState(seed)
    m = rng.randn(n, d)
    m[1] = m[0] + 0.001 * rng.randn(d)  # planted near-dup
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), d),
    })
    return rd.from_arrow(t).repartition(4), m


def test_knn_cosine_matches_numpy():
    ds, m = embeddings_ds()
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = norm @ norm.T
    got = knn_cosine(ds, "embedding", "vec_id",
                     m[:3], np.arange(3), k=4).take_all()
    for q in range(3):
        s = sims[q].copy()
        s[q] = -np.inf  # exclude self
        order = np.lexsort((np.arange(len(s)), -s))[:4]
        want = order.tolist()
        mine = [r["neighbor_id"] for r in got if r["query_id"] == q]
        assert mine == want


def test_knn_shuffle_merge_matches_single_task(monkeypatch):
    """Large-Q plan (bucketed shuffle merge + distributed sort) must
    return exactly the single-task merge's rows in the same order —
    and must not route all partials through one task."""
    from batch_geocode_ray.stages import exchange
    import batch_geocode_ray.stages.similarity as sim

    ds, m = embeddings_ds()
    q, qids = m[:7], np.arange(7)
    want = knn_cosine(ds, "embedding", "vec_id", q, qids, k=4).take_all()
    monkeypatch.setattr(sim, "SHUFFLE_MERGE_QUERIES", 3)  # force shuffle path
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    got = knn_cosine(ds, "embedding", "vec_id", q, qids, k=4).take_all()
    assert [tuple(sorted(r.items())) for r in got] == \
        [tuple(sorted(r.items())) for r in want]


def test_cosine_neardup_pairs():
    ds, m = embeddings_ds()
    pairs = cosine_neardup_pairs(ds, "embedding", "vec_id",
                                 threshold=0.99).take_all()
    assert {(r["d1"], r["d2"]) for r in pairs} == {(0, 1)}


def test_cosine_neardup_block_pair_plan_matches_one_task(monkeypatch):
    """Forcing the at-scale exact plan (block-pair tiling over object
    store refs, no driver materialization) must give identical pairs."""
    from batch_geocode_ray.stages import exchange

    ds, _ = embeddings_ds()
    want = sorted((r["d1"], r["d2"], round(r["cosine"], 12))
                  for r in cosine_neardup_pairs(
                      ds, "embedding", "vec_id", threshold=0.3).take_all())
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    got = sorted((r["d1"], r["d2"], round(r["cosine"], 12))
                 for r in cosine_neardup_pairs(
                     ds, "embedding", "vec_id", threshold=0.3).take_all())
    assert got == want and len(want) > 0


def test_cosine_neardup_blocks_out_of_id_order(monkeypatch):
    """Blocks whose ids descend block by block: both plans give every
    above-threshold pair, each once, as a NumPy all-pairs oracle."""
    from batch_geocode_ray.stages import exchange

    _, m = embeddings_ds()
    t = pa.table({
        "vec_id": pa.array(np.arange(len(m)), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), m.shape[1]),
    })
    ds = rd.from_arrow([t.slice(s, 10) for s in (30, 20, 10, 0)])
    want = _cosine_pairs_oracle(m, 0.3)
    assert _cosine_pairs(ds) == want and len(want) > 40
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    # the projection holds at least 40 x (8 + 8 x 8) bytes: >= 3 blocks
    monkeypatch.setattr(exchange, "TARGET_BUCKET_BYTES", 960)
    assert _cosine_pairs(ds) == want


def _cosine_pairs_oracle(m: np.ndarray, threshold: float) -> list:
    """NumPy all-pairs oracle: (i, j, cosine to 12 digits), i < j."""
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = norm @ norm.T
    r, c = np.nonzero(np.triu(sims >= threshold, k=1))
    return sorted(zip(r.tolist(), c.tolist(),
                      np.round(sims[r, c], 12).tolist()))


def _cosine_pairs(ds) -> list:
    return sorted((p["d1"], p["d2"], round(p["cosine"], 12))
                  for p in cosine_neardup_pairs(
                      ds, "embedding", "vec_id", threshold=0.3).take_all())


def test_cosine_neardup_scores_tiles_in_bounded_chunks(monkeypatch):
    """With the bucket byte budget patched down to a few rows of
    similarities, every tile is scored in many row chunks; both plans
    still equal the NumPy all-pairs oracle."""
    from batch_geocode_ray.stages import exchange

    ds, m = embeddings_ds()
    want = _cosine_pairs_oracle(m, 0.3)
    # 3 rows x 40 columns of float64 per chunk on the one-tile plan
    monkeypatch.setattr(exchange, "TARGET_BUCKET_BYTES", 3 * 40 * 8)
    assert _cosine_pairs(ds) == want and len(want) > 40
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert _cosine_pairs(ds) == want


def test_q21_rows_do_not_depend_on_block_order(tmp_path, monkeypatch):
    """q21 over the same embeddings split into blocks in two different
    orders gives identical rows: its k-means sample is chosen and
    ordered by the data, not by which block finishes first."""
    import batch_geocode_ray.pipelines.queries as qmod

    _, m = embeddings_ds(n=600, d=16, seed=7)
    t = pa.table({
        "vec_id": pa.array(np.arange(len(m)), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), m.shape[1]),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    runs = []
    for starts in ((0, 150, 300, 450), (450, 300, 150, 0)):
        blocks = [t.slice(s, 150) for s in starts]
        monkeypatch.setattr(qmod, "_read",
                            lambda *_, b=blocks, **__: rd.from_arrow(b))
        runs.append(qmod.QUERIES["q21_ivf_knn"](str(tmp_path)).take_all())
    assert runs[0] == runs[1] and len(runs[0]) == 50


def test_semi_anti_join_both_plans(monkeypatch):
    from batch_geocode_ray.stages.joins import equi_join

    big = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "v": pa.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
    })).repartition(3)
    keys = rd.from_arrow(pa.table({"kk": pa.array([2, 4, 4, 6], pa.int64())}))

    def run():
        semi = sorted(r["k"] for r in equi_join(
            big, keys, "k", "semi", right_key="kk").take_all())
        anti = sorted(r["k"] for r in equi_join(
            big, keys, "k", "anti", right_key="kk").take_all())
        return semi, anti

    assert run() == ([2, 4, 6], [1, 3, 5])
    from batch_geocode_ray.stages import exchange
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)  # force the exchange
    assert run() == ([2, 4, 6], [1, 3, 5])


def test_semi_anti_join_skips_schemaless_empty_key_block():
    """A 0-row key block with no schema (what Ray leaves of an empty
    block) must not break the broadcast plan's key concat."""
    from batch_geocode_ray.stages.joins import equi_join

    big = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    keys = rd.from_arrow([pa.table({"kk": pa.array([1, 3], pa.int64())}),
                          pa.table({})])
    got = sorted(r["k"] for r in equi_join(
        big, keys, "k", "semi", right_key="kk").take_all())
    assert got == [1, 3]


def test_ivf_recall_pin():
    """The approximate IVF path may not silently degrade: recall@5
    vs the exact knn_cosine must stay >= 0.9 on the fixture."""
    from batch_geocode_ray.stages.similarity import ivf_knn

    ds, m = embeddings_ds(n=200, d=8, seed=3)
    q = m[:10]
    qids = np.arange(10)
    exact = {(r["query_id"], r["neighbor_id"])
             for r in knn_cosine(ds, "embedding", "vec_id", q, qids,
                                 k=5).take_all()}
    approx = {(r["query_id"], r["neighbor_id"])
              for r in ivf_knn(ds, "embedding", "vec_id", q, qids,
                               k=5).take_all()}
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.9, f"IVF recall@5 degraded to {recall:.3f}"


def test_minhash_trigram_verify_equals_exact_join(docs_ds, monkeypatch):
    """The trigram verify must reproduce the exact n-gram join's pairs
    AND jaccard values (recall 1.0 at these similarities), in both the
    collapsed and the shuffle plan."""
    from batch_geocode_ray.stages import exchange

    exact = sorted((r["d1"], r["d2"], r["jaccard"])
                   for r in ngram_jaccard_pairs(
                       docs_ds, "text", "doc_id", k=3,
                       threshold=0.8).take_all())

    def lsh():
        return sorted((r["d1"], r["d2"], r["jaccard"])
                      for r in minhash_lsh_pairs(
                          docs_ds, "text", "doc_id",
                          threshold=0.8).take_all())

    assert lsh() == exact
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert lsh() == exact


def test_minhash_verify_shingles_each_document_once(tmp_path, monkeypatch):
    """A planted clique of 30 near-duplicate documents makes 435
    candidate pairs. The exact verify must shingle each document at most
    once per task (it used to shingle both sides of every pair) and
    still return every pair at its exact Jaccard, on both plans."""
    import json

    import batch_geocode_ray.stages.dedup as dd
    from batch_geocode_ray.stages import exchange

    texts = [f"{BASE} w{i}" for i in range(30)] + ["short text", "other words here"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)})).repartition(3)
    log = tmp_path / "gram_calls.jsonl"
    real = dd._gram_arrays

    def spy(text_col, k):
        # runs in the worker: verify's closure carries the patched global
        import ray

        with open(log, "a") as f:
            f.write(json.dumps([ray.get_runtime_context().get_task_id(),
                                [str(t) for t in text_col.to_pylist()]]) + "\n")
        return real(text_col, k)

    monkeypatch.setattr(dd, "_gram_arrays", spy)
    # 18 shared trigrams of 20: J = 0.9 for every clique pair
    want = [(i, j, 0.9) for i in range(30) for j in range(i + 1, 30)]
    for small in (exchange.SMALL_COLLAPSE_BYTES, 0):
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", small)
        log.unlink(missing_ok=True)
        got = sorted((r["d1"], r["d2"], round(r["jaccard"], 12)) for r in
                     minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.8).take_all())
        assert got == want
        per_task: dict[str, list[str]] = {}
        for line in log.read_text().splitlines():
            task, docs = json.loads(line)
            per_task.setdefault(task, []).extend(docs)
        assert per_task and sum(map(len, per_task.values())) >= 30
        for docs in per_task.values():
            assert len(docs) == len(set(docs)), "a document shingled twice"


def test_grouped_moving_avg_matches_pandas():
    import pandas as pd

    from batch_geocode_ray.stages.windows import grouped_moving_avg

    rng = np.random.RandomState(9)
    n = 500
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "user_id": pa.array(rng.randint(0, 12, n), pa.int64()),
        "ts": pa.array(
            np.datetime64("2024-01-01") +
            rng.randint(0, 10**6, n).astype("timedelta64[s]")),
        "value": pa.array(rng.uniform(0, 100, n)),
    })
    ds = rd.from_arrow(t).repartition(4)
    got = {r["event_id"]: r["mov_avg"]
           for r in grouped_moving_avg(ds, "user_id", "ts", "event_id",
                                       "value", window_rows=7).take_all()}
    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    want = df.groupby("user_id")["value"].transform(
        lambda s: s.rolling(7, min_periods=1).mean())
    for eid, w in zip(df["event_id"], want):
        assert abs(got[eid] - w) < 1e-9


def test_broadcast_range_count_matches_naive():
    from batch_geocode_ray.stages.joins import broadcast_range_count

    rng = np.random.RandomState(4)
    n_big, n_small = 400, 30
    big = pa.table({
        "k": pa.array(rng.randint(0, 5, n_big), pa.int64()),
        "t": pa.array(rng.randint(0, 1000, n_big), pa.int64()),
    })
    small = pa.table({
        "sid": pa.array(range(n_small), pa.int64()),
        "k": pa.array(rng.randint(0, 6, n_small), pa.int64()),
        "t": pa.array(rng.randint(0, 1000, n_small), pa.int64()),
    })
    w = 100
    got = {r["sid"]: r["n"] for r in broadcast_range_count(
        rd.from_arrow(big).repartition(3), small, "k", "t", "k", "t",
        "sid", window_us=w, count_name="n").take_all()}
    bk = big["k"].to_numpy()
    bt = big["t"].to_numpy()
    for sid, k_, t_ in zip(small["sid"].to_numpy(), small["k"].to_numpy(),
                           small["t"].to_numpy()):
        want = int(((bk == k_) & (bt >= t_) & (bt < t_ + w)).sum())
        assert got.get(sid, 0) == want



def test_broadcast_asof_matches_naive():
    from batch_geocode_ray.stages.joins import broadcast_asof

    rng = np.random.RandomState(5)
    n_big, n_small = 300, 40
    big = pa.table({
        "i": pa.array(range(n_big), pa.int64()),
        "k": pa.array(rng.randint(0, 6, n_big), pa.int64()),
        "t": pa.array(rng.randint(0, 1000, n_big), pa.int64()),
    })
    small = pa.table({
        "k": pa.array(rng.randint(0, 5, n_small), pa.int64()),
        "t": pa.array(rng.randint(0, 1000, n_small), pa.int64()),
        "v": pa.array(rng.rand(n_small), pa.float64()),
    })
    got = {r["i"]: r["last_t"] for r in broadcast_asof(
        rd.from_arrow(big).repartition(3), small, "k", "t", "k", "t",
        ["t"], out_names={"t": "last_t"}).take_all()}
    sk, st_ = small["k"].to_numpy(), small["t"].to_numpy()
    for i, k_, t_ in zip(big["i"].to_numpy(), big["k"].to_numpy(),
                         big["t"].to_numpy()):
        before = st_[(sk == k_) & (st_ <= t_)]
        assert got[i] == (before.max() if len(before) else None)
    with pytest.raises(TypeError, match="'name'"):
        broadcast_asof(rd.from_arrow(big), small.append_column(
            "name", pa.array(["x"] * n_small)), "k", "t", "k", "t", ["name"])

def test_multimodal_stub_plumbing():
    from batch_geocode_ray.pipelines.queries import QUERIES

    q24_image_features = QUERIES["q24_image_features"]
    q25_audio_frames = QUERIES["q25_audio_frames"]

    img = q24_image_features("unused").take_all()
    assert len(img) == 64
    assert len(img[0]["features"]) == 16
    assert "image" not in img[0]  # heavy payload dropped
    # deterministic across runs
    img2 = q24_image_features("unused").take_all()
    assert img[0]["pixel_mean"] == img2[0]["pixel_mean"]

    aud = q25_audio_frames("unused").take_all()
    assert len(aud) == 64 and len(aud[0]["frame_energy"]) == 8


def test_bmp_wav_codecs_round_trip():
    """The 'real' decode path uses actual codecs: BMP encode->decode is
    pixel-exact; WAV encode->decode recovers samples to 16-bit
    quantization."""
    from batch_geocode_ray.stages.multimodal import (
        decode_bmp,
        decode_wav,
        make_bmp,
        make_wav,
    )

    gray = (np.add.outer(np.arange(48), np.arange(64) * 3) % 256
            ).astype(np.uint8)
    assert (decode_bmp(make_bmp(gray)) == gray).all()
    # odd width exercises row padding
    gray2 = gray[:, :61]
    assert (decode_bmp(make_bmp(gray2)) == gray2).all()

    t = np.arange(2048) / 16000.0
    s = 0.25 * np.sin(2 * np.pi * 440 * t)
    back, rate = decode_wav(make_wav(s, 16000))
    assert rate == 16000 and len(back) == 2048
    # 16-bit quantization: truncation + 32767/32768 scale => <=2 LSB
    np.testing.assert_allclose(back, s, atol=2.0 / 32768)

    with pytest.raises(NotImplementedError):
        from batch_geocode_ray.stages.multimodal import _decode_image
        _decode_image(b"\x89PNG....", keep_channels=False)


def test_media_queries_real_decode():
    from batch_geocode_ray.pipelines.queries import QUERIES

    q24_image_features = QUERIES["q24_image_features"]
    q25_audio_frames = QUERIES["q25_audio_frames"]

    img = q24_image_features("unused").take_all()
    assert len(img) == 64 and len(img[0]["features"]) == 16
    # histogram of the known gradient pattern: uniform-ish, sums to 1
    assert abs(sum(img[0]["features"]) - 1.0) < 1e-9
    aud = q25_audio_frames("unused").take_all()
    # frame energy of a 0.5-amplitude sine ~ 0.125
    assert all(abs(e - 0.125) < 0.01 for e in aud[0]["frame_energy"])


def test_fingerprint_dup_pairs_both_plans(monkeypatch):
    """Fingerprint-prefilter exact-dup pairs: equals the naive
    text-equality join, in both the collapsed and shuffle plans."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.dedup import fingerprint_dup_pairs

    texts = ["same text here alpha beta gamma"] * 3 + [
        "other content entirely different words",
        "same text here alpha beta gamma delta",
        "other content entirely different words",
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })).repartition(3)
    want = sorted((i, j) for i in range(len(texts))
                  for j in range(i + 1, len(texts))
                  if texts[i] == texts[j])

    def run():
        return sorted((r["d1"], r["d2"]) for r in
                      fingerprint_dup_pairs(ds, "text", "doc_id").take_all())

    assert run() == want
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert run() == want


# ---------------------------------------------------------------------------
# batch-boundary invariance (hypothesis): the bucketed pair emitters
# rely on groupby co-location, so the pair SET must not depend on how
# rows are split into input blocks.
# ---------------------------------------------------------------------------

def _boundary_corpus() -> pa.Table:
    """24 docs: 3 exact-dup groups, near-dups, and distinct fillers."""
    words = ("apple banana cherry date elder fig grape honey iris juniper "
             "kiwi lemon mango nectar olive peach").split()
    texts = []
    for i in range(24):
        if i % 8 == 0:
            texts.append(BASE)                       # exact dup group A
        elif i % 8 == 1:
            texts.append(BASE + " phi")              # near-dup of A
        elif i % 8 == 2:
            texts.append(" ".join(words))            # exact dup group B
        else:
            texts.append(" ".join(words[j % len(words)]
                                  for j in range(i, i + 12)))
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def _pairs_with_splits(fn, splits: list[int]) -> set:
    t = _boundary_corpus()
    bounds = sorted({0, *splits, t.num_rows})
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])
              if b > a]
    ds = rd.from_arrow(blocks)
    return {(r["d1"], r["d2"]) for r in fn(ds).take_all()}


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=23),
                    min_size=0, max_size=6))
    def test_minhash_pairs_invariant_to_block_boundaries(splits):
        fn = lambda ds: minhash_lsh_pairs(ds, "text", "doc_id",
                                          threshold=0.8)
        assert _pairs_with_splits(fn, splits) == _pairs_with_splits(fn, [])

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=23),
                    min_size=0, max_size=6))
    def test_fingerprint_pairs_invariant_to_block_boundaries(splits):
        from batch_geocode_ray.stages.dedup import fingerprint_dup_pairs

        fn = lambda ds: fingerprint_dup_pairs(ds, "text", "doc_id")
        assert _pairs_with_splits(fn, splits) == _pairs_with_splits(fn, [])
except ImportError:  # pragma: no cover — hypothesis is baked in
    pass


def test_window_ops_shuffle_plan_equals_collapsed(monkeypatch):
    """sessionize / grouped_moving_avg: the adaptive collapse is a
    physical-plan choice only — forcing the bucketed shuffle plan must
    give identical rows."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.windows import (
        grouped_moving_avg,
        sessionize,
    )

    rng = np.random.RandomState(5)
    n = 400
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "user_id": pa.array(rng.randint(0, 20, n), pa.int64()),
        "ts": pa.array((1_600_000_000_000_000
                        + np.sort(rng.randint(0, 3_600_000_000 * 24, n))
                        ).astype("datetime64[us]")),
        "value": pa.array(rng.rand(n)),
    })
    ds = rd.from_arrow(t).repartition(5)

    def run():
        s = sorted(tuple(sorted(r.items())) for r in sessionize(
            ds, "user_id", "ts", "value", "event_id").take_all())
        m = sorted(tuple(sorted(r.items())) for r in grouped_moving_avg(
            ds, "user_id", "ts", "event_id", "value").take_all())
        return s, m

    collapsed = run()
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    shuffled = run()
    assert collapsed == shuffled
