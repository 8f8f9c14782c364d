"""Deduplication operators over a documents table (SURVEY mandate:
exact, MinHash+LSH, SimHash, n-gram Jaccard, fingerprint).

Every token-based operator takes a batch's tokens with their parent rows
from ``functions/text.flat_tokens`` (the engine's one token rule), and
every pair operator here and in ``stages/substring.py`` enumerates its
candidate pairs with the one kernel :func:`_run_pairs`.

Scale shapes:
  * exact / fingerprint dedup — hash the key in ``map_batches``, shuffle
    only (hash, id) pairs, per-group first. The document payload never
    moves.
  * n-gram Jaccard — inverted-index join: explode distinct (doc, gram)
    pairs, group by gram, emit co-occurrence pairs, count shared grams
    per pair, finalize |∩|/|∪| with a broadcast of per-doc gram counts.
    A gram whose posting list exceeds ``max_posting`` can be dropped
    (stop-gram) — OFF by default because the SQL oracle keeps them; at
    10^12 docs turn it on (standard near-dup practice) and log the drop.
  * MinHash LSH — banded signatures: (band, band_hash) bucket groupby;
    candidate pairs verified by exact trigram Jaccard so the output has
    no false positives (misses are possible by LSH design; band/row
    choice tunes recall).
  * SimHash — 64-bit fingerprints, banded into 4x16-bit blocks; pairs
    sharing a block verified by Hamming distance (any pair within
    Hamming<=3 of each other shares at least one of 4 blocks only when
    differing bits cluster; with <=3 differing bits across 4 blocks, at
    least one block is clean — exact by pigeonhole for max_hamming<=3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from batch_geocode_ray.functions.hashing import (
    hamming64,
    minhash_permutation_params,
    shingle_hashes_batch,
    shingle_sets_batch,
    simhash64_batch,
    splitmix64,
    stable_hash64_array,
)
from batch_geocode_ray.functions.text import SLICE_BYTES, flat_tokens
from batch_geocode_ray.stages import exchange, joins
from batch_geocode_ray.stages.aggregates import grouped_aggregate
from batch_geocode_ray.stages.stateful import gather, stateful_map_batches


# ---------------------------------------------------------------------------
# the candidate-pair kernel
# ---------------------------------------------------------------------------

def _i64(t: pa.Table, name: str) -> np.ndarray:
    """Column ``name`` of ``t`` as an int64 NumPy array."""
    return np.asarray(t[name].to_numpy(zero_copy_only=False), dtype=np.int64)


def _run_pairs(keys: tuple[np.ndarray, ...], ids: np.ndarray,
               cap: int | None = None):
    """The dedup family's one candidate-pair kernel. Rows sharing equal
    values of every array in ``keys`` form a run; the kernel returns
    index arrays ``(ia, ib)`` into ``ids`` for every pair of distinct
    ids in a run, with ``ids[ia] < ids[ib]``, plus ``hot``: the rows of
    every run of more than ``cap`` distinct ids, which emit no pairs. A
    repeated (key, id) row counts once, so a pair comes once per run it
    shares.

    NumPy only, O(rows log rows + pairs), no Python loop per run: each
    row repeats once per later member of its run (``np.repeat``), and
    an in-group ``arange`` names the partner."""
    order = np.lexsort((ids,) + tuple(keys)[::-1])
    new_run = np.zeros(len(order), dtype=bool)
    new_run[:1] = True
    for k in keys:
        k = k[order]
        new_run[1:] |= k[1:] != k[:-1]
    sid = ids[order]
    first = new_run.copy()
    first[1:] |= sid[1:] != sid[:-1]
    rows, new_run = order[first], new_run[first]
    starts = np.flatnonzero(new_run)
    run_of = np.cumsum(new_run) - 1
    run_len = np.diff(np.append(starts, len(rows)))[run_of]
    capped = (np.zeros(len(rows), dtype=bool) if cap is None
              else (run_len > cap) & (run_len > 1))
    later = np.where(capped, 0, run_len - 1 - (np.arange(len(rows))
                                               - starts[run_of]))
    ia = np.repeat(np.arange(len(rows)), later)
    ib = ia + 1 + np.arange(len(ia)) - np.repeat(np.cumsum(later) - later,
                                                 later)
    return rows[ia], rows[ib], rows[capped]


# ---------------------------------------------------------------------------
# exact & fingerprint dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds: Dataset, text_col: str, id_col: str) -> Dataset:
    """Exact dedup: one surviving row per distinct ``text_col`` value —
    the smallest ``id_col`` — plus the copy count.

    Shuffles (hash, id) only — the document payload never moves;
    equivalent to SQL ``SELECT min(id), count(*) GROUP BY text`` (64-bit
    hash collisions are the usual negligible caveat).
    Output: (``id_col``, n_copies), one row per distinct value, in no
    promised order.
    """
    def to_hash(b: pa.Table) -> pa.Table:
        h = stable_hash64_array(b[text_col]).astype(np.int64)
        return pa.table({
            "_h": pa.array(h, pa.int64()),
            id_col: b[id_col],
        })

    return grouped_aggregate(
        ds.map_batches(to_hash, batch_format="pyarrow"), ["_h"],
        [(id_col, "min", id_col), (id_col, "count_rows", "n_copies")]
    ).select_columns([id_col, "n_copies"])


def fingerprint_dup_pairs(ds: Dataset, text_col: str,
                          id_col: str) -> Dataset:
    """Exact-duplicate pairs via the winnowing-fingerprint PREFILTER:
    candidate pairs form only inside a fingerprint bucket, then verify
    by full-text hash equality. Identical texts always share the
    fingerprint (same token stream -> same min window), so recall is
    1.0 BY CONSTRUCTION — the output equals the SQL self-join on text
    equality while the pair space shrinks from O(N^2) to the bucket
    sums. Output: (d1, d2).
    """
    from batch_geocode_ray.functions.text import fingerprint_column

    def to_fp(b: pa.Table) -> pa.Table:
        fp = fingerprint_column(b[text_col]).astype(np.int64)
        th = stable_hash64_array(b[text_col]).astype(np.int64)
        return pa.table({
            "fingerprint": pa.array(fp, pa.int64()),
            "_th": pa.array(th, pa.int64()),
            id_col: b[id_col],
        })

    def pairs_of(b: pa.Table) -> pa.Table:
        # candidates share the fingerprint; verified pairs also share
        # the text hash -> pair on (fp, th) runs
        ids = _i64(b, id_col)
        ia, ib, _ = _run_pairs((_i64(b, "fingerprint"), _i64(b, "_th")), ids)
        return pa.table({"d1": ids[ia], "d2": ids[ib]})

    # co-locate each fingerprint, emit inside
    return exchange.bucket_exchange(
        ds.map_batches(to_fp, batch_format="pyarrow"), "fingerprint",
        pairs_of)


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact) via inverted-index join
# ---------------------------------------------------------------------------

# The gram stream :func:`_doc_grams` emits, in Ray's in-memory bytes,
# against the plan's estimate of its (id, text) input: 3.9x (k=3) and
# 3.2x (k=13) on the sf0.01 and sf0.1 documents (24 B per distinct
# gram). Its plans scale the input's estimate by this.
GRAM_GROWTH = 4


def _doc_grams(b: pa.Table, text_col: str, id_col: str, k: int) -> pa.Table:
    """Explode each doc into its DISTINCT k-token grams, as 64-bit
    rolling hashes (distinct hashes == distinct grams up to a ~1e-7
    collision chance over millions of grams — the shuffle then moves
    8-byte keys instead of strings, and gram construction is ONE
    batch-wide Horner pass + lexsort instead of per-row Python). Docs
    with fewer than k tokens emit nothing (SQL oracle: ``len(t) >=
    k``). The per-doc distinct-gram count rides every gram row: the
    pair stage then knows |A| and |B| WITHOUT a sizes join (8 B/row of
    exchange width buys removing two all-to-all joins — and Ray 2.49's
    hash join crashes outright on an empty/low-cardinality side, which
    a zero-pair corpus produces)."""
    flat, parents = flat_tokens(b[text_col])
    gram, par = shingle_hashes_batch(stable_hash64_array(flat), parents, k)
    if len(gram) == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "gram": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    cnt = np.bincount(par, minlength=b.num_rows)
    return pa.table({
        id_col: pa.array(ids[par], pa.int64()),
        "gram": pa.array(gram.astype(np.int64), pa.int64()),
        "n": pa.array(cnt[par], pa.int64()),
    })


def ngram_jaccard_pairs(ds: Dataset, text_col: str, id_col: str,
                        k: int = 3, threshold: float = 0.8,
                        max_posting: int | None = 4096) -> Dataset:
    """EXACT k-token-gram Jaccard similarity join: all (d1 < d2) pairs
    with ``J = |∩| / |∪| >= threshold``.

    Pipeline: explode distinct grams -> exchange on the gram ->
    pairwise co-occurrence per posting list -> per-pair count through
    :func:`grouped_aggregate` -> finalize with the per-doc gram counts.
    Output: (d1, d2, jaccard), in no promised order.

    Both plans share the kernels: which rows pair is the one pair
    kernel :func:`_run_pairs` over each posting list, and a pair is
    counted and scored by the same ``finalize``. Below
    ``SMALL_COLLAPSE_BYTES`` (the input's estimate x ``GRAM_GROWTH``)
    the emit, the per-pair count and
    ``finalize`` run back to back in one task; above it the exchange
    and :func:`grouped_aggregate` run between them.

    **Hot-gram governor** (``max_posting``, default on): a gram shared
    by P documents emits P(P-1)/2 pair rows — one boilerplate trigram
    over 10^9 docs and the bucket never finishes. Posting lists longer
    than ``max_posting`` emit NO pairs; instead their member docs are
    marked hot and escalated:

      * pairs with at most one hot member keep EXACT counting-path
        semantics — every gram such a pair shares lives in an uncapped
        posting (both docs carry it; a capped gram would make both
        hot), so its shared-count is complete;
      * hot×hot pairs are re-discovered by the MinHash LSH path
        (exact Jaccard recomputed per candidate —
        the q18-vs-q15 equivalence), so values stay exact and recall
        follows the LSH S-curve. The banding is chosen FROM the
        requested threshold (:func:`lsh_banding_for_threshold`), so
        per-pair miss probability stays ≤ 1e-4 at J = threshold at any
        threshold — e.g. 32x4 at 0.8 (miss ≈ 5e-8 at J=0.8, ≈ 1.5e-15
        at J=0.9), 64x2 at 0.5 (miss ≈ 1e-8). A fixed 32x4 would miss
        ~13% of J=0.5 pairs — hence the threshold-scaled banding.

    The governor binds in the DISTRIBUTED plan; the one-task plan
    emits every posting uncapped (its input is bounded by the
    threshold). ``max_posting=None`` disables it: every posting emits
    its pairs.
    """
    grams = exchange.scaled(ds.map_batches(
        lambda b: _doc_grams(b, text_col, id_col, k),
        batch_format="pyarrow"), GRAM_GROWTH)

    def emit_pairs(b: pa.Table, cap: int | None) -> pa.Table:
        """Pair rows (with both docs' gram counts) of every posting
        list; a posting of more than ``cap`` docs emits its member docs
        as hot markers (d2 == -1) instead of O(P^2) pairs. Assumes
        nonnegative doc ids (true of every id column in this repo)."""
        ids, ns = _i64(b, id_col), _i64(b, "n")
        ia, ib, hot = _run_pairs((_i64(b, "gram"),), ids, cap)
        hot = np.unique(ids[hot])
        no_n = np.zeros(len(hot), dtype=np.int64)
        return pa.table({"d1": np.concatenate([ids[ia], hot]),
                         "d2": np.concatenate([ids[ib], no_n - 1]),
                         "_n1": np.concatenate([ns[ia], no_n]),
                         "_n2": np.concatenate([ns[ib], no_n])})

    def finalize(b: pa.Table) -> pa.Table:
        c = _i64(b, "shared")
        j = c * 1.0 / (_i64(b, "_n1") + _i64(b, "_n2") - c)
        keep = j >= threshold
        return pa.table({"d1": _i64(b, "d1")[keep], "d2": _i64(b, "d2")[keep],
                         "jaccard": j[keep]})

    pair_keys = ["d1", "d2", "_n1", "_n2"]
    if exchange._probe_small(grams):
        # the exchange plan's kernels back to back in one task; the input
        # is estimated < SMALL_COLLAPSE_BYTES, so the quadratic emit is
        # memory-bounded and the governor is unnecessary
        def all_pairs(b: pa.Table) -> pa.Table:
            counts = (emit_pairs(b, None)
                      .group_by(pair_keys, use_threads=False)
                      .aggregate([([], "count_all")])
                      .select(pair_keys + ["count_all"]))
            return finalize(counts.rename_columns(pair_keys + ["shared"]))

        return exchange._one_task(grams, all_pairs)

    # bucket_exchange on the gram runs the Python hook once per coarse
    # bucket, NOT once per distinct gram (millions)
    marked = exchange.bucket_exchange(grams, "gram",
                                      lambda g: emit_pairs(g, max_posting))

    if max_posting is not None:
        marked = marked.materialize()  # consumed twice (hot split)

        def hot_of(b: pa.Table) -> pa.Table:
            # batch-local distinct is combiner enough: semi/anti joins
            # below are duplicate-tolerant, no global distinct needed
            h = np.asarray(b.filter(pc.equal(b["d2"], -1))["d1"]
                           .to_numpy(zero_copy_only=False), dtype=np.int64)
            return pa.table({"_hot_id": pa.array(np.unique(h), pa.int64())})

        hot_ids = marked.map_batches(
            hot_of, batch_format="pyarrow").materialize()  # counted, joined
        n_hot = hot_ids.count()
        pair_rows = marked.map_batches(
            lambda b: b.filter(pc.greater_equal(b["d2"], 0)),
            batch_format="pyarrow")
    else:
        n_hot = 0
        pair_rows = marked

    # both doc sizes ride each pair row, so |∩|/|∪| finalizes straight
    # off the (d1, d2) count — no sizes join, no join-skew surface
    pair_counts = grouped_aggregate(
        pair_rows, pair_keys, [("d1", "count_rows", "shared")])

    if n_hot:
        # drop hot×hot pairs from the counting path (their shared-count
        # may be missing capped grams); pairs with <= 1 hot member are
        # complete — see docstring
        d1_cold = joins.equi_join(pair_counts, hot_ids, "d1", "anti",
                                  right_key="_hot_id")
        d1_hot = joins.equi_join(pair_counts, hot_ids, "d1", "semi",
                                 right_key="_hot_id")
        d2_cold = joins.equi_join(d1_hot, hot_ids, "d2", "anti",
                                  right_key="_hot_id")
        pair_counts = d1_cold.union(d2_cold)

    counted = pair_counts.map_batches(finalize, batch_format="pyarrow")
    if not n_hot:
        return counted

    # escalation: hot×hot pairs via MinHash LSH + exact trigram verify
    hot_docs = joins.equi_join(ds.select_columns([id_col, text_col]),
                               hot_ids, id_col, "semi", right_key="_hot_id")
    escalated = minhash_lsh_pairs(hot_docs, text_col, id_col, k=k,
                                  threshold=threshold)
    return counted.union(escalated)


# ---------------------------------------------------------------------------
# train/eval n-gram decontamination
# ---------------------------------------------------------------------------

class _GramFlag:
    """Per-worker cached membership test of each train document's
    k-grams against the sorted eval gram set (the broadcast plan of
    :func:`ngram_decontaminate`)."""

    def __init__(self, eval_set: np.ndarray, id_col: str, text_col: str,
                 k: int):
        self.ev, self.k = eval_set, k
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, b: pa.Table) -> pa.Table:
        # per-doc counts are final because the gram table is built HERE
        # from one text batch: a doc's grams are contiguous by
        # construction. A separate gram stage would NOT guarantee this —
        # Ray 2.49 splits a UDF output block exceeding
        # target_max_block_size at an arbitrary row (reproduced), so a
        # doc straddling the split would emit two partial rows.
        b = _doc_grams(b, self.text_col, self.id_col, self.k)
        ev = self.ev
        g = np.asarray(b["gram"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        pos = np.searchsorted(ev, g)
        pos[pos == len(ev)] = 0
        hit = (ev[pos] == g) if len(ev) else np.zeros(len(g), bool)
        ids = np.asarray(b[self.id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ns = np.asarray(b["n"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        hid, hcnt = np.unique(ids[hit], return_counts=True)
        uids, uidx = np.unique(ids, return_index=True)
        first = uidx[np.searchsorted(uids, hid)]
        return pa.table({
            self.id_col: pa.array(hid, pa.int64()),
            "n_hit_grams": pa.array(hcnt, pa.int64()),
            "n_grams": pa.array(ns[first], pa.int64()),
        })


def ngram_decontaminate(train: Dataset, eval_ds: Dataset, text_col: str,
                        id_col: str, k: int = 13) -> Dataset:
    """Train/eval corpus decontamination by k-token-gram overlap (the
    GPT-3 appendix-C / PaLM class of check, k=13 tokens by convention):
    for every ``train`` document that shares at least one k-gram with
    ANY ``eval_ds`` document, report how many of its distinct k-grams
    are contaminated. Output columns: ``(id_col, n_hit_grams, n_grams)``
    — a caller drops (or span-cuts) flagged docs; ``n_hit_grams /
    n_grams`` is the contamination ratio.

    Plans (chosen by the estimate of the EVAL gram table, never the
    train side — the train corpus only ever streams):

    * **broadcast** (the 100 TB common case — eval benchmarks are
      O(10-100 MB) against an arbitrarily large train corpus): collect
      the eval corpus's distinct gram hashes into ONE sorted int64
      array, broadcast it once (:func:`stateful_map_batches`), and
      stream train batches through a vectorized ``searchsorted``
      membership test. ZERO shuffles; the
      train side is one map pass, exactly like :func:`bloom_anti_join`
      but with an exact membership set and per-doc hit counts.
    * **distributed** (eval side too big to broadcast): the train
      gram rows semi-join the eval grams on the gram hash
      (``joins.equi_join``, whose exchange plan is one bucket
      exchange), then a per-doc count of the hit rows finalizes. The
      per-doc gram totals ride each row (same trick as
      :func:`_doc_grams`' ``n``), so no sizes join.

    Gram identity is the 64-bit rolling hash (the exchange moves 8-byte
    keys, not ~90-char strings). Per-pair collision odds are ~2^-64; at
    a 10^14-distinct-gram train corpus the BIRTHDAY expectation is
    ~10^8 colliding gram pairs — i.e. a ~1e-6 relative inflation of hit
    counts, harmless for a flag-then-drop filter (same framing as
    ``stages/substring.py``; add a text-verify pass like
    :func:`minhash_lsh_pairs`' if exact counts at that scale matter).

    Docs with fewer than k tokens have no k-grams and are never
    flagged (SQL parity: ``len(t) >= k``).
    """
    def grams_of(side: Dataset) -> Dataset:
        return exchange.scaled(side.map_batches(
            lambda b: _doc_grams(b, text_col, id_col, k),
            batch_format="pyarrow"), GRAM_GROWTH)

    eval_grams = grams_of(eval_ds)
    if exchange._probe_small(eval_grams):
        # ---- broadcast plan: eval grams -> one sorted array ----------
        grams = gather(eval_grams)
        eval_set = (np.unique(np.asarray(
            grams["gram"].to_numpy(zero_copy_only=False), dtype=np.int64))
            if grams.num_rows else np.empty(0, np.int64))
        return stateful_map_batches(
            train, _GramFlag(eval_set, id_col=id_col, text_col=text_col,
                             k=k),
            batch_format="pyarrow")

    # ---- distributed plan: semi-join on the gram hash ---------------
    # (block-split-safe: the per-doc finalize below AGGREGATES the hit
    # rows, unlike the broadcast plan's in-UDF contiguity)
    hits = joins.equi_join(grams_of(train), eval_grams, "gram", "semi")
    # a doc's grams hash into many buckets -> count its hit grams;
    # grouping key is the doc id (bounded by #contaminated docs);
    # n is constant per doc, so "max" just carries it through
    return grouped_aggregate(
        hits, [id_col],
        [(id_col, "count_rows", "n_hit_grams"), ("n", "max", "n_grams")])


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

# MinHash signature width: permutations per document
NUM_PERM = 128

# A signature row (~1 KB: NUM_PERM int64s) against the plan's estimate
# of its (id, text) input: 4.1-4.2x with the text riding along, 3.2-3.3x
# without, on the sf0.01 and sf0.1 documents (~310 B of text per
# document; longer documents grow less). The signature plans scale the
# input's estimate by this.
SIG_GROWTH = 5


class MinHashSignatures:
    """Stateful stage: per-doc ``NUM_PERM``-wide MinHash signature over
    k-token shingles. Permutation params are built once per instance
    (deterministic seed), on the driver; ``stateful_map_batches``
    loads the built stage once per worker process."""

    def __init__(self, text_col: str, id_col: str, k: int = 3,
                 include_text: bool = False):
        self.text_col = text_col
        self.id_col = id_col
        self.k = k
        self.include_text = include_text
        self.a, self.b = minhash_permutation_params(NUM_PERM)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from batch_geocode_ray.functions.hashing import _MERSENNE61

        flat, parents = flat_tokens(batch[self.text_col])
        n_rows = batch.num_rows
        gram, par = shingle_sets_batch(stable_hash64_array(flat), parents,
                                       n_rows, self.k)
        # per-(doc, permutation) min over the doc's gram segment —
        # 128 vector passes over the flat gram array instead of one
        # Python iteration per document; empty docs sign all-max
        # (identical elementwise ops to tests/reference.minhash_signature)
        sigs = np.full((n_rows, len(self.a)), _MERSENNE61, dtype=np.uint64)
        if len(gram):
            present, first_idx = np.unique(par, return_index=True)
            x = (gram >> np.uint64(3)) & _MERSENNE61
            with np.errstate(over="ignore"):
                for p in range(len(self.a)):
                    v = (self.a[p] * x + self.b[p]) % _MERSENNE61
                    sigs[present, p] = np.minimum.reduceat(v, first_idx)
        cols = {
            self.id_col: batch[self.id_col],
            "signature": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.astype(np.int64).ravel(), pa.int64()),
                len(self.a)),
        }
        if self.include_text:
            cols[self.text_col] = batch[self.text_col]
        return pa.table(cols)


def _gram_arrays(text_col, k: int) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT k-token-gram rolling hashes of every row (the same
    hashes the inverted-index join shuffles), flat and sorted by (row,
    hash), with each gram's row, for exact Jaccard verification of
    candidate pairs; rows with fewer than k tokens have none."""
    flat, parents = flat_tokens(text_col)
    return shingle_hashes_batch(stable_hash64_array(flat), parents, k)


def _pair_jaccard(gram: np.ndarray, row: np.ndarray, i: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """Exact Jaccard of the gram sets of rows ``i[p]`` and ``j[p]`` for
    every pair p, from :func:`_gram_arrays`' flat ``(gram, row)``; a
    pair of two gram-less rows scores 0.0.

    No call per pair: grams rank densely, so ``row * n_ranks + rank`` is
    one sorted int64 key; each pair's smaller row's grams are looked up
    in the larger row's keys by ``searchsorted`` and the hits counted
    per pair by ``bincount``. A slice of pairs probes at most
    ``SLICE_BYTES // 8`` grams (a larger pair is a slice of its own),
    so the probe arrays stay cache-sized for any clique."""
    uniq, rank = np.unique(gram, return_inverse=True)
    key = row * len(uniq) + rank
    size = np.bincount(row, minlength=max(i.max(initial=-1),
                                          j.max(initial=-1)) + 1)
    start = np.cumsum(size) - size
    small = np.where(size[i] <= size[j], i, j)
    big = i + j - small
    n = size[small]
    cum = np.cumsum(n)
    inter = np.zeros(len(i), np.int64)
    lo = 0
    while lo < len(i):
        done = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, done + SLICE_BYTES // 8,
                                             side="right")))
        m = n[lo:hi]
        pair = np.repeat(np.arange(hi - lo), m)
        pos = (np.repeat(start[small[lo:hi]] - (np.cumsum(m) - m), m)
               + np.arange(len(pair)))
        probe = big[lo:hi][pair] * len(uniq) + rank[pos]
        at = np.minimum(np.searchsorted(key, probe), len(key) - 1)
        inter[lo:hi] = np.bincount(pair[key[at] == probe],
                                   minlength=hi - lo)
        lo = hi
    union = size[i] + size[j] - inter
    return np.divide(inter, union, out=np.zeros(len(i)), where=union > 0)


def lsh_banding_for_threshold(threshold: float) -> tuple[int, int]:
    """Pick (bands, rows_per_band) for banded MinHash LSH so a pair at
    exactly ``threshold`` Jaccard is missed with probability at most
    1e-4: miss = (1 - J^r)^(NUM_PERM // r). Chooses the
    LARGEST rows-per-band meeting the target (fewer, more selective
    bands = fewer false candidates = cheaper verify stage). A fixed
    32x4 banding only holds above J ≈ 0.75 — at J=0.5 it misses ~13%
    of pairs and at 0.4 ~44%; this scales r down (0.5 and 0.4 → r=2:
    miss ~1e-8 and ~1.4e-5) so recall tracks the caller's threshold.
    The 1e-4 target keeps the classic 32x4 at thresholds ≥ 0.75 and
    avoids degenerating to single-row bands (huge candidate buckets)
    at low thresholds."""
    t = min(max(float(threshold), 0.05), 1.0)
    for r in (16, 8, 4, 2, 1):
        b = NUM_PERM // r
        if (1.0 - t ** r) ** b <= 1e-4:
            return b, r
    return NUM_PERM, 1  # r=1: miss = (1-t)^NUM_PERM, the floor


def minhash_lsh_pairs(ds: Dataset, text_col: str, id_col: str,
                      k: int = 3, threshold: float = 0.8) -> Dataset:
    """Near-dup pairs via banded MinHash LSH with EXACT verification.

    signatures -> per-band bucket keys -> groupby(bucket) -> candidate
    pairs -> distinct -> verify. The banding comes from ``threshold``
    via :func:`lsh_banding_for_threshold`, so recall holds at ANY
    requested threshold (0.8 resolves to the classic 32x4: P(miss) ≈
    5e-8 at J=0.8, ≈ 1.5e-15 at J=0.9; 0.5 resolves to 64x2: P(miss) ≈
    1e-8 at J=0.5). Verification recomputes the exact k-token-gram
    Jaccard of each candidate (the same gram hashes the inverted-index
    join uses), so the surviving pairs equal the exact similarity
    join's output whenever banding recall holds. Output (d1, d2,
    jaccard) — SQL-oracle-comparable against the exact join.

    Both plans share the kernels: ``band_keys``, the one pair kernel
    :func:`_run_pairs` over each band bucket, and ``verify_tri``. Below
    ``SMALL_COLLAPSE_BYTES`` (the input's estimate x ``SIG_GROWTH``)
    they run back to back in one task, with a distinct in between and
    each side's text attached by id from the same signature table;
    above it the exchange, a :func:`grouped_aggregate` distinct and two
    lookup joins run between them. That plan streams the signatures
    once, without their text, and the verify texts come from a second
    pruned read of ``ds``: nothing is materialized.
    """
    bands, rows_per_band = lsh_banding_for_threshold(threshold)

    def signatures(include_text: bool) -> Dataset:
        return exchange.scaled(stateful_map_batches(
            ds, MinHashSignatures(text_col=text_col, id_col=id_col, k=k,
                                  include_text=include_text),
            batch_format="pyarrow"), SIG_GROWTH)

    def _empty() -> pa.Table:
        return pa.table({"d1": pa.array([], pa.int64()),
                         "d2": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})

    def band_keys(b: pa.Table) -> pa.Table:
        n = b.num_rows
        sig = np.asarray(
            b["signature"].combine_chunks().flatten().to_numpy(
                zero_copy_only=False)).reshape(n, NUM_PERM).astype(np.uint64)
        ids = _i64(b, id_col)
        out_band: list[np.ndarray] = []
        out_key: list[np.ndarray] = []
        B = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            for band in range(bands):
                block = sig[:, band * rows_per_band:(band + 1) * rows_per_band]
                acc = np.zeros(n, dtype=np.uint64)
                for j in range(rows_per_band):
                    acc = acc * B + block[:, j]
                out_band.append(np.full(n, band, dtype=np.int64))
                out_key.append(acc.astype(np.int64))
        # fold band index into the bucket hash -> ONE int64 exchange key
        combined = (np.concatenate(out_key).astype(np.uint64)
                    ^ splitmix64(np.concatenate(out_band)))
        return pa.table({
            "bkey": pa.array(combined.astype(np.int64), pa.int64()),
            id_col: pa.array(np.tile(ids, bands), pa.int64()),
        })

    def emit_pairs(g: pa.Table) -> pa.Table:
        ids = _i64(g, id_col)
        ia, ib, _ = _run_pairs((_i64(g, "bkey"),), ids)
        return pa.table({"d1": ids[ia], "d2": ids[ib]})

    def verify_tri(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _empty()
        d1, d2 = _i64(b, "d1"), _i64(b, "d2")
        # shingle each distinct document once, not once per pair
        _, first, doc = np.unique(np.concatenate([d1, d2]),
                                  return_index=True, return_inverse=True)
        texts = pa.chunked_array(b["_t1"].chunks + b["_t2"].chunks)
        vals = _pair_jaccard(*_gram_arrays(texts.take(pa.array(first)), k),
                             doc[:len(d1)], doc[len(d1):])
        keep = vals >= threshold
        return pa.table({"d1": d1[keep], "d2": d2[keep], "jaccard": vals[keep]})

    sigs = signatures(include_text=True)
    if exchange._probe_small(sigs):
        def lsh_one(b: pa.Table) -> pa.Table:
            # the exchange plan's kernels back to back in one task:
            # band keys -> pairs -> distinct -> verify, each side's text
            # attached by id from this same table
            cand = (emit_pairs(band_keys(b))
                    .group_by(["d1", "d2"], use_threads=False).aggregate([]))
            ids = _i64(b, id_col)
            by_id = np.argsort(ids, kind="stable")
            for d, t in (("d1", "_t1"), ("d2", "_t2")):
                row = by_id[np.searchsorted(ids, _i64(cand, d), sorter=by_id)]
                cand = cand.append_column(t, b[text_col].take(pa.array(row)))
            return verify_tri(cand)

        return exchange._one_task(sigs, lsh_one)

    # exchange rows = bands x docs; the signature estimate upper-bounds
    # the per-doc row width, so it over- rather than under-buckets
    cand = grouped_aggregate(  # distinct pairs
        exchange.bucket_exchange(
            signatures(include_text=False).map_batches(
                band_keys, batch_format="pyarrow"), "bkey", emit_pairs),
        ["d1", "d2"], [])

    # exact-verify: attach each candidate side's doc text via the
    # bucket-exchange lookup join (Ray's hash join crashes on the
    # low-cardinality candidate side — see joins._bucket_lookup_join),
    # recompute the true k-gram Jaccard per pair — exact output
    # semantics. The texts come from a second pruned read of ds.
    texts = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: pa.table({id_col: b[id_col], "_t": b[text_col]}),
        batch_format="pyarrow")
    joined = joins._bucket_lookup_join(cand, "d1", texts, id_col,
                                       {"_t": "_t1"})
    joined = joins._bucket_lookup_join(joined, "d2", texts, id_col,
                                       {"_t": "_t2"})

    return joined.map_batches(verify_tri, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_pairs(ds: Dataset, text_col: str, id_col: str,
                  max_hamming: int = 3) -> Dataset:
    """Near-dup pairs by 64-bit SimHash within ``max_hamming`` bits.

    4x16-bit block banding: any pair differing in <= 3 bits shares at
    least one clean 16-bit block (pigeonhole), so recall is EXACT for
    max_hamming <= 3. Output: (d1, d2, hamming), one row per pair, in
    no promised order.
    """

    def to_simhash(b: pa.Table) -> pa.Table:
        flat, parents = flat_tokens(b[text_col])
        out = simhash64_batch(stable_hash64_array(flat), parents, b.num_rows)
        return pa.table({
            id_col: b[id_col],
            "simhash": pa.array(out.astype(np.int64), pa.int64()),
        })

    def band_rows(b: pa.Table) -> pa.Table:
        h = _i64(b, "simhash").view(np.uint64)
        band = np.repeat(np.arange(4, dtype=np.int64), len(h))
        block = ((np.tile(h, 4) >> (band.astype(np.uint64) * np.uint64(16)))
                 & np.uint64(0xFFFF))
        return pa.table({"bkey": (block ^ splitmix64(band)).view(np.int64),
                         id_col: np.tile(_i64(b, id_col), 4),
                         "simhash": np.tile(h.view(np.int64), 4)})

    def emit_pairs_bucket(g: pa.Table) -> pa.Table:
        ids, hs = _i64(g, id_col), _i64(g, "simhash").view(np.uint64)
        ia, ib, _ = _run_pairs((_i64(g, "bkey"),), ids)
        hd = hamming64(hs[ia], hs[ib])
        keep = hd <= max_hamming
        return pa.table({"d1": ids[ia][keep], "d2": ids[ib][keep],
                         "hamming": hd[keep]})

    # 4 banded copies of each (id, simhash) row ride the exchange; a
    # pair sharing several clean blocks surfaces once per block
    banded = (ds.map_batches(to_simhash, batch_format="pyarrow")
              .map_batches(band_rows, batch_format="pyarrow"))
    pairs = exchange.bucket_exchange(banded, "bkey", emit_pairs_bucket)
    return grouped_aggregate(pairs, ["d1", "d2"],
                             [("hamming", "min", "hamming")])


# ---------------------------------------------------------------------------
# bounded edit-distance (Levenshtein) join via deletion neighborhoods
# ---------------------------------------------------------------------------

def _lev_leq(a: str, b: str, k: int) -> bool:
    """Exact bounded Levenshtein check: True iff lev(a, b) <= k.
    Banded DP over a (2k+1)-wide diagonal strip — O(k * max(len))."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    if la > lb:                      # keep b the longer string
        a, b, la, lb = b, a, lb, la
    # strip common prefix/suffix (the frequent case for k=1)
    p = 0
    while p < la and a[p] == b[p]:
        p += 1
    s = 0
    while s < la - p and a[la - 1 - s] == b[lb - 1 - s]:
        s += 1
    a, b = a[p:la - s], b[p:lb - s]
    la, lb = len(a), len(b)
    if la == 0:
        return lb <= k
    # banded DP
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [k + 1] * lb
        lo = max(1, i - k)
        hi = min(lb, i + k)
        for j in range(lo, hi + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        if min(cur[max(0, i - k):min(lb, i + k) + 1]) > k:
            return False
        prev = cur
    return prev[lb] <= k


# The deletion-variant stream of :func:`edit_distance_pairs` (one row
# per variant, each carrying its full string: ~L+1 rows per string at
# max_dist=1) against the plan's estimate of its (id, string) input:
# 9.8x and 11.3x on the sf0.01 and sf0.1 supplier names (18 characters).
# Its exchange scales the input's estimate by this.
VARIANT_GROWTH = 12


def edit_distance_pairs(ds: Dataset, text_col: str, id_col: str,
                        max_dist: int = 1) -> Dataset:
    """Fuzzy self-join: all id pairs whose ``text_col`` values are
    within Levenshtein distance ``max_dist`` (SQL:
    ``levenshtein(a.t, b.t) <= max_dist`` over a < self-join).

    Candidate generation is the FastSS deletion-neighborhood scheme:
    every string emits itself plus all variants with up to ``max_dist``
    characters deleted; two strings within distance k share at least
    one variant (substitution at i -> both delete i; indel -> one side
    deletes). Shared-variant candidates are a SUPERSET (e.g. "ab"/"ba"
    share variants at lev 2), so every candidate pair is verified with
    an exact bounded-DP check before emission.

    Scale shape: variants shuffle as (variant-hash bucket, id, text) —
    O(rows * (L choose <=k)) short rows; pairs are emitted and verified
    INSIDE the bucket group fn (texts are co-located there, no second
    join), then distinct-ed by :func:`grouped_aggregate` on (d1, d2).
    Below the small-collapse threshold (the input's estimate x
    ``VARIANT_GROWTH``) each exchange is one task. Assumes
    ``max_dist`` small (1-2) and strings short (names, titles); for
    long documents use minhash/ngram ops instead.
    """
    if max_dist < 1:
        raise ValueError("max_dist must be >= 1")

    def variants_of(s: str) -> set[str]:
        out = {s}
        frontier = {s}
        for _ in range(max_dist):
            nxt = set()
            for v in frontier:
                for i in range(len(v)):
                    nxt.add(v[:i] + v[i + 1:])
            out |= nxt
            frontier = nxt
        return out

    def emit_variants(b: pa.Table) -> pa.Table:
        ids = _i64(b, id_col)
        texts = b[text_col].to_pylist()
        v_ids: list[int] = []
        v_str: list[str] = []
        v_txt: list[str] = []
        # per string: deletion variants have no vectorized form
        for i, t in zip(ids, texts):
            t = t or ""
            for v in variants_of(t):
                v_ids.append(int(i))
                v_str.append(v)
                v_txt.append(t)
        vh = stable_hash64_array(pa.array(v_str, pa.string())) \
            if v_str else np.array([], dtype=np.uint64)
        return pa.table({
            "vkey": pa.array(vh.astype(np.int64), pa.int64()),
            id_col: pa.array(v_ids, pa.int64()),
            "_t": pa.array(v_txt, pa.string()),
        })

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        # candidates share a variant; each distinct pair verifies once
        ids = _i64(g, id_col)
        ia, ib, _ = _run_pairs((_i64(g, "vkey"),), ids)
        first = np.unique(np.stack([ids[ia], ids[ib]]), axis=1,
                          return_index=True)[1]
        ia, ib = ia[first], ib[first]
        ok = np.array([_lev_leq(x, y, max_dist) for x, y in zip(
            g["_t"].take(ia).to_pylist(), g["_t"].take(ib).to_pylist())],
            dtype=bool)
        return pa.table({"d1": ids[ia][ok], "d2": ids[ib][ok]})

    variants = exchange.scaled(
        ds.map_batches(emit_variants, batch_format="pyarrow"),
        VARIANT_GROWTH)
    pairs = exchange.bucket_exchange(variants, "vkey", pairs_in_bucket)
    # the same pair can verify in several buckets -> global distinct
    return grouped_aggregate(pairs, ["d1", "d2"], [])
