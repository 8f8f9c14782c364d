"""bigram_lm_perplexity (stages/lm.py): hand-computed smoothing math,
both merge plans (collapsed, and distributed by ``SMALL_COLLAPSE_BYTES
= 0``), and short-document exclusion."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.lm import bigram_lm_perplexity


def _mkds(ids, texts):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())}))


def _collect(out):
    t = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    return {int(i): (int(n), float(p)) for i, n, p in
            zip(t["doc_id"].to_pylist(), t["n_pairs"].to_pylist(),
                t["ppl"].to_pylist())}


def test_hand_computed_two_docs(ray_session):
    # corpus pairs: doc1 "a b a" -> (a,b), (b,a); doc2 "a b" -> (a,b)
    # cb: (a,b)=2, (b,a)=1; cu: a=2, b=1; V=2 contexts; k=0.5
    got = _collect(bigram_lm_perplexity(
        _mkds([1, 2], ["a b a", "a b"]), "doc_id", "text", k=0.5))
    p_ab = (2 + 0.5) / (2 + 0.5 * 2)
    p_ba = (1 + 0.5) / (1 + 0.5 * 2)
    want1 = float(np.exp(-(np.log(p_ab) + np.log(p_ba)) / 2))
    want2 = float(np.exp(-np.log(p_ab)))
    assert got[1][0] == 2 and got[1][1] == pytest.approx(want1, rel=1e-12)
    assert got[2][0] == 1 and got[2][1] == pytest.approx(want2, rel=1e-12)


def test_short_docs_emit_no_row(ray_session):
    got = _collect(bigram_lm_perplexity(
        _mkds([1, 2, 3], ["only", "", "two tokens"]), "doc_id", "text"))
    assert set(got) == {3}


def test_merge_plans_agree(ray_session, monkeypatch):
    rng = np.random.RandomState(11)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(2, 30)))
             for _ in range(200)]
    ds = _mkds(list(range(200)), texts).repartition(8)
    single = _collect(bigram_lm_perplexity(ds, "doc_id", "text"))
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    shuffle = _collect(bigram_lm_perplexity(ds, "doc_id", "text"))
    assert single.keys() == shuffle.keys()
    for d in single:
        assert single[d][0] == shuffle[d][0]
        assert single[d][1] == pytest.approx(shuffle[d][1], rel=1e-12)


def test_empty_corpus_raises(ray_session):
    with pytest.raises(ValueError, match="no token pairs"):
        bigram_lm_perplexity(_mkds([1], [""]), "doc_id", "text")
