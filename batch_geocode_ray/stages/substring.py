"""Substring-level exact dedup — the suffix-array class of
training-data dedup (find character spans shared verbatim across
documents), the one dedup axis `stages/dedup.py`'s document-level
operators don't cover.

The reference (`GISforHealth/batch_geocode`) has no dedup at all
(SURVEY.md §2.8); this is engine-new surface for the large-scale
training-data scope, after Lee et al. 2022 ("Deduplicating Training
Data Makes Language Models Better"), who find exact duplicate
substrings with a distributed suffix-array sort. The Ray Data plan here
is the hashed analogue of that suffix sort:

* one candidate row per CHARACTER position — the honest, irreducible
  cost of substring-exact semantics (Lee et al. sort the same volume);
  each batch reduces its positions to distinct ``(gram_hash, doc,
  n_positions)`` rows before anything moves, so repeated grams within
  a document never widen the exchange;
* ONE :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` keyed on
  the gram hash (bucket count from the plan's estimate x
  ``POSITION_GROWTH``, small-collapse to a single task below the
  threshold) co-locates each gram hash's posting list; cross-document
  segments are found by vectorized lexsort + boundary diff.

Two output semantics:

* :func:`duplicate_position_counts` — per-document count of positions
  whose L-gram appears in ≥ 2 documents (the span-removal signal).
  Output is O(documents): THE scale semantic.
* :func:`duplicate_substring_pairs` — distinct (d1, d2) document pairs
  sharing ≥ 1 exact L-character substring, char-verified. NOTE the
  pair SEMANTIC is inherently quadratic in a boilerplate clique —
  P documents sharing one sentence truly contain P(P-1)/2 answer rows;
  no plan can cap that without changing the answer. Use the position
  counts at corpus scale; the pair form exists for oracle parity and
  small/medium corpora.

Grams are identified by TWO independent 64-bit polynomial rolling
hashes (different odd bases) — ~128-bit effective width. Per-pair
collision odds are ~2^-128, and the aggregate (birthday) expectation at
the module's 100 TB target is what matters: ~10^14 distinct 40-grams
make ~(10^14)^2 / 2 ≈ 5*10^27 pairs, so a SINGLE 64-bit hash would
already collide on ~10^8 of them (5*10^27 / 2^64) — silently inflating
dup-position counts — while the double hash expects ~10^-11 colliding
pairs (5*10^27 / 2^128): zero in practice. The pair path additionally
re-verifies every candidate against the actual texts (no collision
exposure at all); the count paths rely on the 128-bit width instead of
shipping L-byte grams through the exchange.

Grams are UTF-8 BYTE level — identical to SQL's character semantics on
ASCII corpora (all fixture tables are ASCII).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.aggregates import grouped_aggregate
from batch_geocode_ray.stages.dedup import _i64, _run_pairs
from batch_geocode_ray.stages.exchange import bucket_exchange
from batch_geocode_ray.stages.joins import _bucket_lookup_join, equi_join

# odd bases => invertible mod 2^64, so rolling hashes come from O(n)
# prefix sums instead of an O(n*L) sliding window. TWO independent
# bases give each gram a 128-bit identity (see module docstring for
# the birthday math at 100 TB).
_B = np.uint64(1099511628211)
_B2 = np.uint64(0x9E3779B97F4A7C15)  # odd golden-ratio constant


def _inv_u64(x: np.uint64) -> np.uint64:
    """Modular inverse of an odd uint64 mod 2^64 (Newton iteration:
    5 steps double the correct low bits from 5 to 64)."""
    x = np.uint64(x)
    inv = x  # correct to 5 low bits for odd x
    with np.errstate(over="ignore"):
        for _ in range(5):
            inv = inv * (np.uint64(2) - x * inv)
    return inv


_B_INV = _inv_u64(_B)
_B2_INV = _inv_u64(_B2)


def _roll_hashes(by: np.ndarray, L: int, B: np.uint64,
                 B_inv: np.uint64) -> np.ndarray:
    """Length-``L`` polynomial rolling hashes of every window of the
    byte array ``by`` (values pre-offset by +1), base ``B``, via O(n)
    prefix sums: h[i] = (q[i+L] - q[i]) * B^(i+L-1) where
    q[i] = sum_{j<i} by[j] * B^-j (all mod 2^64)."""
    total = len(by)
    npos = total - L + 1
    with np.errstate(over="ignore"):
        inv_pows = np.cumprod(
            np.concatenate([[np.uint64(1)],
                            np.full(total - 1, B_inv, np.uint64)]))
        q = np.concatenate([[np.uint64(0)],
                            np.cumsum(by * inv_pows)])
        pows = np.cumprod(np.concatenate(
            [[np.uint64(1)], np.full(total - 1, B, np.uint64)]))
        return (q[L:L + npos] - q[:npos]) * pows[L - 1:L - 1 + npos]


def _lgram_table(b: pa.Table, text_col: str, id_col: str,
                 L: int, with_positions: bool = False) -> pa.Table:
    """Distinct (h, h2, doc, cnt) rows for every length-``L`` byte gram
    of every document in the batch: ``h``/``h2`` the gram's two
    independent rolling hashes (128-bit identity — module docstring),
    ``cnt`` how many positions of ``doc`` carry it. With
    ``with_positions``, one (h, h2, doc, pos) row per POSITION instead
    (pos is the 0-based byte offset inside the doc) — same exchange
    order for typical text, where repeated within-doc grams are rare.
    Fully vectorized over the column's concatenated UTF-8 data buffer —
    no per-row Python."""
    col = b[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    third = "pos" if with_positions else "cnt"
    empty = pa.table({"h": pa.array([], pa.int64()),
                      "h2": pa.array([], pa.int64()),
                      "doc": pa.array([], pa.int64()),
                      third: pa.array([], pa.int64())})
    n_rows = len(col)
    if n_rows == 0:
        return empty
    col = pc.cast(col, pa.large_string())  # one int64 offsets layout
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64)[
        col.offset:col.offset + n_rows + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    total = int(offs[-1] - offs[0])
    if total < L:
        return empty
    base = offs[0]
    by = data[base:base + total].astype(np.uint64) + np.uint64(1)
    h = _roll_hashes(by, L, _B, _B_INV)
    h2 = _roll_hashes(by, L, _B2, _B2_INV)
    npos = total - L + 1
    # keep positions whose window stays inside one document
    pos = np.arange(npos, dtype=np.int64) + base
    doc_ix = np.searchsorted(offs, pos, side="right") - 1
    valid = pos + L <= offs[doc_ix + 1]
    h, h2 = h[valid], h2[valid]
    doc = ids[doc_ix[valid]]
    if len(h) == 0:
        return empty
    if with_positions:
        rel = (pos[valid] - offs[doc_ix[valid]]).astype(np.int64)
        return pa.table({
            "h": pa.array(h.astype(np.int64), pa.int64()),
            "h2": pa.array(h2.astype(np.int64), pa.int64()),
            "doc": pa.array(doc, pa.int64()),
            "pos": pa.array(rel, pa.int64()),
        })
    order = np.lexsort((h2, h, doc))
    h, h2, doc = h[order], h2[order], doc[order]
    seg = np.ones(len(h), dtype=bool)
    seg[1:] = ((h[1:] != h[:-1]) | (h2[1:] != h2[:-1])
               | (doc[1:] != doc[:-1]))
    starts = np.nonzero(seg)[0]
    cnt = np.diff(np.concatenate([starts, [len(h)]]))
    return pa.table({
        "h": pa.array(h[starts].astype(np.int64), pa.int64()),
        "h2": pa.array(h2[starts].astype(np.int64), pa.int64()),
        "doc": pa.array(doc[starts], pa.int64()),
        "cnt": pa.array(cnt, pa.int64()),
    })


# The per-position gram stream (up to one 32 B (h, h2, doc, cnt|pos)
# row per byte of text) against the plan's estimate of its (id, text)
# input: 25.8x and 26.2x on the sf0.01 and sf0.1 documents. Its
# exchanges scale the input's estimate by this.
POSITION_GROWTH = 27


def _stream(ds: Dataset, text_col: str, id_col: str, L: int,
            with_positions: bool = False) -> Dataset:
    return exchange.scaled(ds.map_batches(
        lambda b: _lgram_table(b, text_col, id_col, L, with_positions),
        batch_format="pyarrow"), POSITION_GROWTH)


def duplicate_position_counts(ds: Dataset, text_col: str, id_col: str,
                              L: int = 40) -> Dataset:
    """Per-document duplicated-position counts: for each document with
    at least one, the number of byte positions whose length-``L`` gram
    occurs in ≥ 2 distinct documents. Output: (``id_col``,
    n_dup_positions), only documents with a positive count, in no set
    order."""
    def emit_counts(g: pa.Table) -> pa.Table:
        h = np.asarray(g["h"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        h2 = np.asarray(g["h2"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        doc = np.asarray(g["doc"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        cnt = np.asarray(g["cnt"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        order = np.lexsort((doc, h2, h))
        h, h2, doc, cnt = h[order], h2[order], doc[order], cnt[order]
        seg = np.ones(len(h), dtype=bool)
        seg[1:] = (h[1:] != h[:-1]) | (h2[1:] != h2[:-1])
        seg_id = np.cumsum(seg) - 1
        # rows per segment == distinct docs per gram (rows are distinct
        # (h, doc) by construction upstream)
        n_docs = np.bincount(seg_id)
        keep = n_docs[seg_id] >= 2
        if not keep.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({id_col: pa.array(doc[keep], pa.int64()),
                         "cnt": pa.array(cnt[keep], pa.int64())})

    partials = bucket_exchange(_stream(ds, text_col, id_col, L), "h",
                               emit_counts)
    return grouped_aggregate(partials, [id_col],
                             [("cnt", "sum", "n_dup_positions")])


def duplicate_substring_pairs(ds: Dataset, text_col: str, id_col: str,
                              L: int = 40) -> Dataset:
    """Distinct (d1, d2) document pairs (d1 < d2) sharing at least one
    exact length-``L`` character substring, re-verified against the
    texts (hash candidates never reach the output unchecked).

    Output size is the semantic's own: a P-document boilerplate clique
    legitimately contains P(P-1)/2 pairs — see the module docstring for
    why corpus-scale callers want :func:`duplicate_position_counts`."""
    def emit_pairs(g: pa.Table) -> pa.Table:
        doc = _i64(g, "doc")
        ia, ib, _ = _run_pairs((_i64(g, "h"), _i64(g, "h2")), doc)
        return pa.table({"d1": doc[ia], "d2": doc[ib]})

    cand = grouped_aggregate(  # distinct pairs
        bucket_exchange(_stream(ds, text_col, id_col, L), "h", emit_pairs),
        ["d1", "d2"], [])

    # exact verify: attach both texts, confirm a shared L-gram by
    # direct byte comparison (hash-set intersection per pair)
    texts = ds.map_batches(
        lambda b: pa.table({id_col: b[id_col], "_t": b[text_col]}),
        batch_format="pyarrow")
    joined = _bucket_lookup_join(cand, "d1", texts, id_col, {"_t": "_t1"})
    joined = _bucket_lookup_join(joined, "d2", texts, id_col, {"_t": "_t2"})

    def verify(b: pa.Table) -> pa.Table:
        out = pa.table({"d1": pa.array([], pa.int64()),
                        "d2": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return out
        t1 = b["_t1"].to_pylist()
        t2 = b["_t2"].to_pylist()
        keep = np.zeros(b.num_rows, dtype=bool)
        for i, (x, y) in enumerate(zip(t1, t2)):
            xb, yb = x.encode(), y.encode()
            if len(xb) < L or len(yb) < L:
                continue
            grams = {xb[j:j + L] for j in range(len(xb) - L + 1)}
            keep[i] = any(yb[j:j + L] in grams
                          for j in range(len(yb) - L + 1))
        kept = b.filter(pa.array(keep))
        return pa.table({"d1": kept["d1"], "d2": kept["d2"]})

    return joined.map_batches(verify, batch_format="pyarrow")


def _emit_dup_positions(g: pa.Table) -> pa.Table:
    """Per h-bucket: the (doc, pos) rows whose (h, h2) gram occurs in
    >= 2 distinct docs — the shared flagging kernel behind
    :func:`duplicate_span_coverage` (measures the cut) and
    :func:`cut_duplicate_spans` (applies it); one definition so the
    flagging rule cannot silently diverge between the two."""
    h = np.asarray(g["h"].to_numpy(zero_copy_only=False),
                   dtype=np.int64)
    h2 = np.asarray(g["h2"].to_numpy(zero_copy_only=False),
                    dtype=np.int64)
    doc = np.asarray(g["doc"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    pos = np.asarray(g["pos"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    order = np.lexsort((doc, h2, h))
    h, h2, doc, pos = h[order], h2[order], doc[order], pos[order]
    seg = np.ones(len(h), dtype=bool)
    seg[1:] = (h[1:] != h[:-1]) | (h2[1:] != h2[:-1])
    seg_id = np.cumsum(seg) - 1
    # distinct docs per gram: count doc-changes inside each segment
    doc_start = seg.copy()
    doc_start[1:] |= doc[1:] != doc[:-1]
    n_docs = np.bincount(seg_id, weights=doc_start).astype(np.int64)
    keep = n_docs[seg_id] >= 2
    return pa.table({"doc": pa.array(doc[keep], pa.int64()),
                     "pos": pa.array(pos[keep], pa.int64())})


def _dup_positions_stream(ds: Dataset, text_col: str, id_col: str,
                          L: int) -> Dataset:
    """(doc, pos) rows of every duplicated L-gram window: per-position
    gram stream -> ONE bucket exchange by gram hash -> shared flagging
    kernel."""

    return bucket_exchange(
        _stream(ds, text_col, id_col, L, with_positions=True), "h",
        _emit_dup_positions)


def duplicate_span_coverage(ds: Dataset, text_col: str, id_col: str,
                            L: int = 40) -> Dataset:
    """Per-document count of characters covered by at least one
    duplicated L-gram window — the quantity a span-CUT pass removes
    (Lee et al. cut the duplicated substrings, not whole documents).
    Output: (``id_col``, n_dup_chars), documents with a positive count.

    Plan: per-position (h, doc, pos) stream -> bucket exchange by h
    marks positions whose gram occurs in >= 2 docs -> second exchange
    by doc unions each doc's [pos, pos+L) intervals with a vectorized
    sweep (coverage = L + sum(min(gap, L)) over consecutive sorted
    starts). Two all-to-alls over O(duplicated positions) rows."""

    dup_pos = _dup_positions_stream(ds, text_col, id_col, L)

    def coverage(g: pa.Table) -> pa.Table:
        doc = np.asarray(g["doc"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        pos = np.asarray(g["pos"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if len(doc) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_dup_chars": pa.array([], pa.int64())})
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        starts = np.ones(len(doc), dtype=bool)
        starts[1:] = doc[1:] != doc[:-1]
        seg_id = np.cumsum(starts) - 1
        # the same position can arrive twice (same gram emitted from
        # two hash buckets can't happen, but a position whose gram is
        # duplicated is emitted once per (h, pos) — drop exact repeats
        rep = np.zeros(len(doc), dtype=bool)
        rep[1:] = (~starts[1:]) & (pos[1:] == pos[:-1])
        doc, pos, seg_id = doc[~rep], pos[~rep], seg_id[~rep]
        starts = starts[~rep]
        gap = np.empty(len(pos), dtype=np.int64)
        gap[0] = L
        gap[1:] = np.minimum(pos[1:] - pos[:-1], L)
        gap[starts] = L  # each doc's first interval contributes L
        n_docs = seg_id[-1] + 1
        cov = np.zeros(n_docs, dtype=np.int64)
        np.add.at(cov, seg_id, gap)
        return pa.table({
            id_col: pa.array(doc[starts.nonzero()[0]], pa.int64()),
            "n_dup_chars": pa.array(cov, pa.int64()),
        })

    return bucket_exchange(dup_pos, "doc", coverage)


def cut_duplicate_spans(ds: Dataset, text_col: str, id_col: str,
                        L: int = 40) -> Dataset:
    """The span-CUT transform itself (Lee et al.'s actual dedup pass):
    every document re-emitted with the characters covered by a
    duplicated L-gram window REMOVED. Output: (``id_col``,
    ``text_cut``) for ALL documents — unaffected docs pass through with
    their full text.

    Plan — the corpus text never rides an exchange:

    1. duplicated (doc, pos) stream + one bucket exchange by doc folds
       each flagged doc's positions into a packed interval blob (int64
       [s, e) pairs, merged while touching) — O(duplicated positions);
    2. the blobs (one narrow row per FLAGGED doc) join their text via
       the bucket lookup join, and a map emits the cut text;
    3. unflagged docs — the overwhelming majority of a real corpus —
       take the :func:`~batch_geocode_ray.stages.joins.equi_join` anti
       path against the flagged-id set and stream through untouched."""
    dup_pos = _dup_positions_stream(ds, text_col, id_col, L)

    def spans_blob(g: pa.Table) -> pa.Table:
        """One row per flagged doc: its merged [s, e) cut intervals as
        an int64-pair blob (lists don't survive acero joins — CLAUDE.md
        pack-around-the-join pattern)."""
        doc = np.asarray(g["doc"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        pos = np.asarray(g["pos"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if len(doc) == 0:
            return pa.table({"doc": pa.array([], pa.int64()),
                             "_spans": pa.array([], pa.binary())})
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        first = np.ones(len(doc), dtype=bool)
        first[1:] = doc[1:] != doc[:-1]
        # drop repeated positions (same position emitted once per
        # duplicated gram hash)
        rep = np.zeros(len(doc), dtype=bool)
        rep[1:] = (~first[1:]) & (pos[1:] == pos[:-1])
        doc, pos, first = doc[~rep], pos[~rep], first[~rep]
        # a new interval starts at a doc boundary or after a gap > L
        new_iv = first.copy()
        new_iv[1:] |= (pos[1:] - pos[:-1]) > L
        iv_id = np.cumsum(new_iv) - 1
        s = pos[new_iv]
        e = np.zeros(len(s), dtype=np.int64)
        np.maximum.at(e, iv_id, pos + L)
        iv_doc = doc[new_iv]
        docs, blobs = [], []
        bounds = np.concatenate(
            [np.nonzero(np.ones_like(iv_doc, dtype=bool)
                        if len(iv_doc) == 0 else
                        np.concatenate([[True], iv_doc[1:] != iv_doc[:-1]])
                        )[0], [len(iv_doc)]])
        for bi in range(len(bounds) - 1):
            lo, hi = bounds[bi], bounds[bi + 1]
            docs.append(iv_doc[lo])
            blobs.append(np.column_stack([s[lo:hi], e[lo:hi]])
                         .astype(np.int64).tobytes())
        return pa.table({"doc": pa.array(docs, pa.int64()),
                         "_spans": pa.array(blobs, pa.binary())})

    # spans is consumed TWICE (text join + anti-membership); without a
    # pin the per-position gram stream and both exchanges would execute
    # twice. It is one narrow row per FLAGGED doc (~24 B + 16 B per
    # interval) — the bounded dedup-artifact class, not the corpus
    spans = bucket_exchange(dup_pos, "doc", spans_blob)
    spans = spans.materialize()  # read by the text join and the anti join

    texts = ds.map_batches(
        lambda b: pa.table({id_col: b[id_col], "_t": b[text_col]}),
        batch_format="pyarrow")
    joined = _bucket_lookup_join(spans, "doc", texts, id_col,
                                 {"_t": "_t"})

    def cut(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "text_cut": pa.array([], pa.string())})
        ids = b["doc"]
        ts = b["_t"].to_pylist()
        blobs = b["_spans"].to_pylist()
        out = []
        for t, blob in zip(ts, blobs):
            iv = np.frombuffer(blob, dtype=np.int64).reshape(-1, 2)
            tb = t.encode()
            if len(tb) != len(t):
                # non-ASCII: the byte-level gram windows can start/end
                # mid-codepoint (a duplicated run may begin at a UTF-8
                # continuation byte); snap each cut OUTWARD to codepoint
                # boundaries so a partially covered character is removed
                # whole and the kept bytes always re-decode. ASCII
                # corpora take the fast path untouched (bytes == chars,
                # which is also what keeps the SQL oracle's substr
                # semantics aligned).
                arr = np.frombuffer(tb, np.uint8)
                starts = np.flatnonzero((arr & 0xC0) != 0x80)
                s_col = starts[np.searchsorted(starts, iv[:, 0],
                                               side="right") - 1]
                hi = np.searchsorted(starts, iv[:, 1], side="left")
                e_col = np.where(hi < len(starts),
                                 starts[np.minimum(hi, len(starts) - 1)],
                                 len(tb))
                iv = np.stack([s_col, e_col], axis=1)
            kept, prev = [], 0
            for s_, e_ in iv:
                kept.append(tb[prev:s_])
                prev = min(max(prev, e_), len(tb))
            kept.append(tb[prev:])
            out.append(b"".join(kept).decode())
        return pa.table({id_col: ids, "text_cut": pa.array(out,
                                                           pa.string())})

    cut_docs = joined.map_batches(cut, batch_format="pyarrow")

    clean = equi_join(
        ds.select_columns([id_col, text_col]),
        spans.select_columns(["doc"]), id_col, "anti",
        right_key="doc").map_batches(
            lambda b: pa.table({id_col: b[id_col],
                                "text_cut": b[text_col]}),
            batch_format="pyarrow")
    return clean.union(cut_docs)
