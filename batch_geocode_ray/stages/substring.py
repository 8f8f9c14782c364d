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

* one candidate row per BYTE position — the honest, irreducible cost
  of substring-exact semantics (Lee et al. sort the same volume); the
  counts path reduces each batch's positions to distinct ``(gram_hash,
  doc, n_positions)`` rows before anything moves;
* ONE :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` keyed on
  the gram hash co-locates each gram's posting list, and one flagging
  kernel (:func:`_shared`) keeps the rows of grams found in ≥ 2 docs.

Four ops sit on that stream:

* :func:`duplicate_position_counts` — per-document count of positions
  whose L-gram appears in ≥ 2 documents. Output is O(documents): THE
  scale semantic.
* :func:`duplicate_span_coverage` and :func:`cut_duplicate_spans` — a
  second exchange by doc runs the one span kernel (:func:`_spans`),
  which merges each doc's duplicated positions into sorted [s, e) byte
  intervals. Coverage sums e - s per doc; the cut carries the intervals
  as ``list<int64>`` columns to the doc's text and removes them in one
  vectorized pass over the batch's bytes (:func:`_cut`).
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
exposure at all); the other paths rely on the 128-bit width instead of
shipping L-byte grams through the exchange.

Grams are UTF-8 BYTE level — identical to SQL's character semantics on
ASCII corpora (all fixture tables are ASCII). On other text the cut
removes every codepoint with a covered byte whole, so it always
re-decodes.
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


def _utf8(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """A string column's row offsets (int64, from 0) into its UTF-8
    bytes, and the bytes; a null row is empty."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.cast(pc.fill_null(col, ""), pa.large_string())
    _, offs, data = col.buffers()
    offs = np.frombuffer(offs, np.int64)[col.offset:col.offset + len(col) + 1]
    data = np.frombuffer(data or b"", np.uint8)
    return offs - offs[0], data[offs[0]:offs[-1]]


def _changes(*keys: np.ndarray) -> np.ndarray:
    """True at row 0 and where any of the sorted ``keys`` changes."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new


def _lgram_table(b: pa.Table, text_col: str, id_col: str,
                 L: int, with_positions: bool = False) -> pa.Table:
    """Distinct (h, h2, doc, cnt) rows for every length-``L`` byte gram
    of every document in the batch: ``h``/``h2`` the gram's two
    independent rolling hashes (128-bit identity — module docstring),
    ``cnt`` how many positions of ``doc`` carry it. With
    ``with_positions``, one (h, h2, doc, pos) row per POSITION instead
    (pos is the 0-based byte offset inside the doc). Fully vectorized
    over the column's concatenated UTF-8 data buffer."""
    offs, data = _utf8(b[text_col])
    ids = _i64(b, id_col)
    third = "pos" if with_positions else "cnt"
    if len(data) < L:
        return pa.table({c: pa.array([], pa.int64())
                         for c in ("h", "h2", "doc", third)})
    by = data.astype(np.uint64) + np.uint64(1)
    h = _roll_hashes(by, L, _B, _B_INV).astype(np.int64)
    h2 = _roll_hashes(by, L, _B2, _B2_INV).astype(np.int64)
    # keep positions whose window stays inside one document
    pos = np.arange(len(h), dtype=np.int64)
    doc_ix = np.searchsorted(offs, pos, side="right") - 1
    valid = pos + L <= offs[doc_ix + 1]
    h, h2, doc_ix = h[valid], h2[valid], doc_ix[valid]
    doc = ids[doc_ix]
    if with_positions:
        return pa.table({"h": h, "h2": h2, "doc": doc,
                         "pos": pos[valid] - offs[doc_ix]})
    order = np.lexsort((h2, h, doc))
    h, h2, doc = h[order], h2[order], doc[order]
    starts = np.flatnonzero(_changes(h, h2, doc))
    return pa.table({"h": h[starts], "h2": h2[starts], "doc": doc[starts],
                     "cnt": np.diff(np.append(starts, len(h)))})


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


def _shared(g: pa.Table, col: str) -> pa.Table:
    """Per h-bucket: the (doc, ``col``) rows whose (h, h2) gram occurs
    in ≥ 2 distinct docs — the one flagging rule, for the counts
    (``col`` = cnt) and the positions (``col`` = pos)."""
    h, h2, doc, v = (_i64(g, c) for c in ("h", "h2", "doc", col))
    order = np.lexsort((doc, h2, h))
    h, h2, doc, v = h[order], h2[order], doc[order], v[order]
    gram = np.cumsum(_changes(h, h2)) - 1
    n_docs = np.bincount(gram, weights=_changes(h, h2, doc))
    keep = n_docs[gram] >= 2
    return pa.table({"doc": doc[keep], col: v[keep]})


def duplicate_position_counts(ds: Dataset, text_col: str, id_col: str,
                              L: int = 40) -> Dataset:
    """Per-document duplicated-position counts: for each document with
    at least one, the number of byte positions whose length-``L`` gram
    occurs in ≥ 2 distinct documents. Output: (``id_col``,
    n_dup_positions), only documents with a positive count, in no set
    order."""
    partials = bucket_exchange(
        _stream(ds, text_col, id_col, L), "h",
        lambda g: _shared(g, "cnt").rename_columns([id_col, "cnt"]))
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


def _spans(g: pa.Table, L: int) -> tuple[np.ndarray, ...]:
    """Per doc bucket: each doc's duplicated (doc, pos) windows merged
    into sorted [s, e) byte intervals — the one span kernel. Intervals
    merge while they touch (a gap of at most ``L``), so a repeated
    position counts once. Returns the docs (ascending), the CSR offsets
    of their intervals, and the interval starts and ends."""
    doc, pos = _i64(g, "doc"), _i64(g, "pos")
    order = np.lexsort((pos, doc))
    doc, pos = doc[order], pos[order]
    first = _changes(doc)
    new = first.copy()
    new[1:] |= pos[1:] - pos[:-1] > L
    last = np.ones_like(new)
    last[:-1] = new[1:]
    return (doc[first], np.append(np.flatnonzero(first[new]), new.sum()),
            pos[new], pos[last] + L)


def _dup_positions(ds: Dataset, text_col: str, id_col: str,
                   L: int) -> Dataset:
    """(doc, pos) rows of every duplicated L-gram window."""
    return bucket_exchange(
        _stream(ds, text_col, id_col, L, with_positions=True), "h",
        lambda g: _shared(g, "pos"))


def duplicate_span_coverage(ds: Dataset, text_col: str, id_col: str,
                            L: int = 40) -> Dataset:
    """Per-document count of characters covered by at least one
    duplicated L-gram window — the quantity a span-CUT pass removes
    (Lee et al. cut the duplicated substrings, not whole documents).
    Output: (``id_col``, n_dup_chars), documents with a positive count.

    Plan: the duplicated (doc, pos) rows, then a second exchange by doc
    runs the span kernel and sums each doc's e - s. Two all-to-alls over
    O(duplicated positions) rows."""
    def coverage(g: pa.Table) -> pa.Table:
        docs, offs, s, e = _spans(g, L)
        c = np.concatenate([np.zeros(1, np.int64), np.cumsum(e - s)])
        return pa.table({id_col: docs,
                         "n_dup_chars": c[offs[1:]] - c[offs[:-1]]})

    return bucket_exchange(_dup_positions(ds, text_col, id_col, L), "doc",
                           coverage)


def _cut(text: pa.ChunkedArray, row: np.ndarray, s: np.ndarray,
         e: np.ndarray) -> pa.Array:
    """``text`` with bytes [s, e) of row ``row`` removed, for every
    interval, in one pass over the batch's bytes: a difference array
    marks the covered bytes, and a codepoint with any covered byte goes
    whole. A null row gives ``''``."""
    offs, data = _utf8(text)
    n = len(data) + 1
    depth = np.cumsum(np.bincount(offs[row] + s, minlength=n)
                      - np.bincount(offs[row] + e, minlength=n))[:-1]
    cp = np.cumsum((data & 0xC0) != 0x80) - 1  # codepoint of each byte
    hit = np.zeros(len(data), dtype=bool)
    hit[cp[depth > 0]] = True
    keep = ~hit[cp]
    kept = np.zeros(n, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return pa.LargeStringArray.from_buffers(
        len(offs) - 1, pa.py_buffer(kept[offs]),
        pa.py_buffer(data[keep]), null_count=0).cast(pa.string())


def cut_duplicate_spans(ds: Dataset, text_col: str, id_col: str,
                        L: int = 40) -> Dataset:
    """The span-CUT transform itself (Lee et al.'s actual dedup pass):
    every document re-emitted with the characters covered by a
    duplicated L-gram window REMOVED. Output: (``id_col``,
    ``text_cut``) for ALL documents — unaffected docs pass through with
    their full text, a null text gives ``''``.

    Plan:

    1. the duplicated (doc, pos) rows + one bucket exchange by doc run
       the span kernel: one row per FLAGGED doc, its intervals as
       ``list<int64>`` columns ``_s`` and ``_e``;
    2. those rows join their text via the bucket lookup join, and one
       vectorized :func:`_cut` per batch emits the cut texts;
    3. unflagged docs — the overwhelming majority of a real corpus —
       take the :func:`~batch_geocode_ray.stages.joins.equi_join` anti
       path against the flagged-id set and pass through untouched.

    Step 2's lookup join shuffles every doc's text as a carrier, and
    so does step 3 when the flagged-id set is too big to broadcast."""
    def as_lists(g: pa.Table) -> pa.Table:
        docs, offs, s, e = _spans(g, L)
        return pa.table({"doc": docs,
                         "_s": pa.LargeListArray.from_arrays(offs, s),
                         "_e": pa.LargeListArray.from_arrays(offs, e)})

    spans = bucket_exchange(_dup_positions(ds, text_col, id_col, L), "doc",
                            as_lists)
    # one narrow row per FLAGGED doc (~24 B + 16 B per interval)
    spans = spans.materialize()  # read by the text join and the anti join

    texts = ds.map_batches(
        lambda b: pa.table({id_col: b[id_col], "_t": b[text_col]}),
        batch_format="pyarrow")
    joined = _bucket_lookup_join(spans, "doc", texts, id_col,
                                 {"_t": "_t"})

    def cut(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:  # a merge task that got no flagged doc
            return pa.table({id_col: pa.array([], pa.int64()),
                             "text_cut": pa.array([], pa.string())})
        row = pc.list_parent_indices(b["_s"]).to_numpy()
        s, e = (pc.list_flatten(b[c]).to_numpy() for c in ("_s", "_e"))
        return pa.table({id_col: b["doc"],
                         "text_cut": _cut(b["_t"], row, s, e)})

    clean = equi_join(
        ds.select_columns([id_col, text_col]),
        spans.select_columns(["doc"]), id_col, "anti",
        right_key="doc").map_batches(
            lambda b: pa.table({id_col: b[id_col],
                                "text_cut": pc.fill_null(b[text_col], "")}),
            batch_format="pyarrow")
    return clean.union(joined.map_batches(cut, batch_format="pyarrow"))
