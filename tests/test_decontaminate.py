"""ngram_decontaminate: train/eval contamination flagging.

Pins (1) counts against a naive per-doc set-intersection oracle,
(2) broadcast plan == bucket-exchange plan, (3) sub-k-token docs never
flagged, (4) empty eval side flags nothing.
"""

import numpy as np
import pyarrow as pa
import ray.data as rd

from batch_geocode_ray.stages.dedup import ngram_decontaminate

from .oracle import ascii_tokens

K = 4  # small k so the fixture stays readable; the operator is k-generic

SHARED = "alpha beta gamma delta"  # one K-gram, verbatim in train+eval
EVAL_DOCS = [
    (0, f"the quiz mentions {SHARED} and nothing else"),
    (17, "zebra yak xylophone walrus vulture"),
]
TRAIN_DOCS = [
    # contains the shared K-gram twice (distinct gram counted ONCE)
    (1, f"intro {SHARED} middle {SHARED} outro"),
    # overlaps eval doc 17 on two overlapping K-grams
    (2, "see zebra yak xylophone walrus here"),
    # clean doc — must not be flagged
    (3, "completely different words without any overlap at all"),
    # shorter than K tokens — has no K-grams, never flagged
    (4, "alpha beta gamma"),
]


def _naive():
    ev = set()
    for _, t in EVAL_DOCS:
        toks = ascii_tokens(t)
        ev |= {tuple(toks[i:i + K]) for i in range(len(toks) - K + 1)}
    out = {}
    for did, t in TRAIN_DOCS:
        toks = ascii_tokens(t)
        grams = {tuple(toks[i:i + K]) for i in range(len(toks) - K + 1)}
        hits = len(grams & ev)
        if hits:
            out[did] = (hits, len(grams))
    return out


def _mk(rows):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in rows], pa.int64()),
        "text": pa.array([t for _, t in rows], pa.string()),
    }))


def _run():
    out = ngram_decontaminate(_mk(TRAIN_DOCS), _mk(EVAL_DOCS),
                              "text", "doc_id", k=K)
    return {r["doc_id"]: (r["n_hit_grams"], r["n_grams"])
            for r in out.take_all()}


def test_matches_naive_oracle():
    got = _run()
    want = _naive()
    assert want, "fixture must plant at least one contaminated doc"
    assert got == want
    assert 3 not in got and 4 not in got  # clean + sub-K docs unflagged


def test_broadcast_plan_equals_exchange_plan(monkeypatch):
    from batch_geocode_ray.stages import exchange

    broadcast = _run()
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)  # force exchange
    exchanged = _run()
    assert broadcast == exchanged == _naive()


def test_empty_eval_flags_nothing():
    out = ngram_decontaminate(
        _mk(TRAIN_DOCS), _mk([(99, "too short")]), "text", "doc_id", k=K)
    assert out.take_all() == []


def test_streams_under_size_hints(monkeypatch):
    """On the exchange plan (``SMALL_COLLAPSE_BYTES = 0``, so both sides
    count as big), plan choice must not materialize anything."""
    from batch_geocode_ray.stages import exchange
    from ray.data import Dataset

    def boom(self, *a, **k):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(Dataset, "materialize", boom)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    out = ngram_decontaminate(_mk(TRAIN_DOCS), _mk(EVAL_DOCS),
                              "text", "doc_id", k=K)
    got = {r["doc_id"]: (r["n_hit_grams"], r["n_grams"])
           for r in out.take_all()}
    assert got == _naive()
