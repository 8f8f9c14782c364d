"""N-gram language-model perplexity scoring — the CCNet-class quality
signal (Wenzek et al. 2020: filter web text by LM perplexity).

Distributed shape, two streaming passes:

1. **Count** — per-batch bigram partial counts (pyarrow C++ hash
   group-by collapses each batch to one row per (w1, w2) before
   anything moves), merged by :func:`grouped_aggregate`. Unigram
   CONTEXT counts and the context-vocabulary size derive from the
   bigram table (``cu(w1) = sum_w2 cb(w1, w2)``), so ONE aggregation
   builds the whole model.
2. **Score** — the model broadcasts once (``stateful_map_batches``)
   as sorted hash arrays; every batch re-tokenizes, hashes its
   adjacent pairs, and looks probabilities up with two
   ``searchsorted`` probes — zero shuffles; per-doc log-prob sums
   reduce inside the batch (documents never span batches).

Size bound, stated: the model is O(distinct bigrams) — vocab-bounded,
NOT corpus-bounded — and must fit the driver + object store to
broadcast (web-scale ~10^8–10^9 bigrams ≈ GBs; prune by min count or
switch the lookup to a bucket exchange against the pair stream when it
doesn't). Hash identity is 64-bit (`stable_hash64_array` + a mixed
pair hash): colliding pairs merge counts with probability ~2^-64 per
pair; lookups on the training corpus itself always hit by
construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from batch_geocode_ray.functions.hashing import (
    splitmix64,
    stable_hash64_array,
)
from batch_geocode_ray.functions.text import flat_tokens
from batch_geocode_ray.stages.stateful import gather, stateful_map_batches

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _pair_hash(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Asymmetric 64-bit combine of two token hashes ((a,b) != (b,a))."""
    with np.errstate(over="ignore"):
        return splitmix64(h1 * _GOLDEN + splitmix64(h2))


def _doc_pairs(b: pa.Table, text_col: str):
    """(w1_tokens, w2_tokens, parent_row_idx) for every adjacent
    same-document token pair in the batch — all Arrow/NumPy slices."""
    flat, parents = flat_tokens(b[text_col])
    if len(flat) < 2:
        return None
    same = parents[1:] == parents[:-1]
    if not same.any():
        return None
    m = pa.array(same)
    return (flat.slice(0, len(flat) - 1).filter(m),
            flat.slice(1).filter(m), parents[1:][same])


def bigram_lm_perplexity(ds: Dataset, id_col: str, text_col: str,
                         k: float = 0.5) -> Dataset:
    """Train an add-k-smoothed bigram LM on ``ds`` and score every
    document's self-perplexity: ``ppl = exp(-mean log P(w2|w1))`` with
    ``P(w2|w1) = (cb + k) / (cu + k·V)`` — cb the bigram count, cu the
    context count, V the context-vocabulary size. Documents with fewer
    than two tokens emit no row (no pairs to score). The bigram counts
    merge through :func:`grouped_aggregate`, which sizes them from the
    plan's estimate: one task when it is small, a bucket exchange when
    the input is large.

    Output: (``id_col``, ``n_pairs`` int64, ``ppl`` float64).
    """
    from batch_geocode_ray.stages.aggregates import grouped_aggregate

    def pair_counts(b: pa.Table) -> pa.Table:
        got = _doc_pairs(b, text_col)
        if got is None:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "cb": pa.array([], pa.int64())})
        w1, w2, _ = got
        t = (pa.table({"w1": w1, "w2": w2})
             .group_by(["w1", "w2"]).aggregate([("w2", "count")]))
        return t.rename_columns(["w1", "w2", "cb"])

    model_t = grouped_aggregate(
        ds.map_batches(pair_counts, batch_format="pyarrow"),
        ["w1", "w2"], [("cb", "sum", "cb")])
    m = gather(model_t)
    if not m.num_rows:
        raise ValueError("bigram_lm_perplexity: no token pairs in input")
    h1 = stable_hash64_array(m["w1"])
    h2 = stable_hash64_array(m["w2"])
    cb = np.asarray(m["cb"].to_numpy(zero_copy_only=False),
                    dtype=np.int64)
    ph = _pair_hash(h1, h2)
    po = np.argsort(ph, kind="stable")
    phs, cbs = ph[po], cb[po]
    o1 = np.argsort(h1, kind="stable")
    h1s = h1[o1]
    ctx, start = np.unique(h1s, return_index=True)
    cu = np.add.reduceat(cb[o1], start)
    vocab_v = len(ctx)
    return stateful_map_batches(
        ds, _BigramScore((phs, cbs, ctx, cu, vocab_v, float(k)),
                         id_col=id_col, text_col=text_col),
        batch_format="pyarrow")


class _BigramScore:
    """Per-worker cached scorer over the broadcast bigram model."""

    def __init__(self, model, id_col: str, text_col: str):
        self.phs, self.cbs, self.ctx, self.cu, self.v, self.k = model
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, b: pa.Table) -> pa.Table:
        got = _doc_pairs(b, self.text_col)
        if got is None:
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64()),
                             "ppl": pa.array([], pa.float64())})
        w1, w2, pdoc = got
        b1 = stable_hash64_array(w1)
        pb = _pair_hash(b1, stable_hash64_array(w2))
        cb_v = self.cbs[np.searchsorted(self.phs, pb)]  # guaranteed hit:
        cu_v = self.cu[np.searchsorted(self.ctx, b1)]   # model trained on ds
        lp = np.log((cb_v + self.k) / (cu_v + self.k * self.v))
        sums = np.bincount(pdoc, weights=lp, minlength=b.num_rows)
        npairs = np.bincount(pdoc, minlength=b.num_rows)
        keep = npairs > 0
        ids = np.asarray(b[self.id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)[keep]
        return pa.table({
            self.id_col: pa.array(ids, pa.int64()),
            "n_pairs": pa.array(npairs[keep], pa.int64()),
            "ppl": pa.array(np.exp(-sums[keep] / npairs[keep]),
                            pa.float64()),
        })
