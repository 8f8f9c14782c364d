"""Gazetteer mention matcher — stateful stage (a worker-cached task
inside the fused flagship stage; see pipelines/geocode).

Replaces the reference's per-row HTTP geocoding fan-out
(query_funcs.py:178-191) with offline matching of gazetteer phrases
against page tokens. One kernel, :meth:`GazetteerMatcher.mentions`,
takes the token runs of a batch (``functions/text.TokenRuns``: byte
offsets into the Arrow data buffer, no token strings) from either

  * ``token_runs(text)`` — :meth:`GazetteerMatcher.__call__`, over a
    text column (q14, the traced chain in perfbench), or
  * ``html_token_runs(html)`` — the fused flagship stage, straight from
    the html bytes with no ``text`` column.

Runs whose length is a vocab token length are read as folded 8-byte
words, hashed, binary-searched against the sorted vocab hashes and
verified word by word, which gives each in-vocab run its code. For
every phrase length L, the windows of L consecutive in-vocab tokens of
one row get a key (the code itself for L = 1, else a splitmix chain),
binary-searched against the sorted keys of the gazetteer's distinct
code tuples and verified code by code (hash collisions cannot emit); a
match emits every entry with that phrase. Only ~15% of tokens are in
the vocab, so the window loop runs over those alone.

Every occurrence of every phrase is emitted (duplicates across sources
included); mention start/end are TOKEN indices within the document.
Tokens are ASCII-folded on both sides (gazetteer phrases through
``state/gazetteer.normalize_phrase``), and the result equals a naive
all-occurrence scan over the same tokens
(``tests/oracle.py:naive_find_all``), spans included.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from batch_geocode_ray.functions.hashing import splitmix64
from batch_geocode_ray.functions.text import TokenRuns, token_runs, word_view
from batch_geocode_ray.state.gazetteer import GazetteerIndex

MENTION_TYPE = pa.struct([
    ("gazetteer_id", pa.int64()),
    ("name", pa.string()),
    ("start", pa.int32()),
    ("end", pa.int32()),
])

_FOLD = np.uint64(0x2020202020202020)
# _LOW[k]: the low k bytes of a word
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _phrase_key(codes: np.ndarray) -> np.ndarray:
    """uint64 key of (L, n) code windows: the code itself for L = 1,
    else a splitmix chain (order-sensitive)."""
    k = codes[0].astype(np.uint64)
    for j in range(1, len(codes)):
        k = splitmix64(k) ^ codes[j].astype(np.uint64)
    return k


def _run_words(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray,
               n_words: int) -> list[np.ndarray]:
    """Each run as ``n_words`` folded little-endian words, zero past its
    end. Run bytes are nonzero, so the words alone pin the bytes."""
    view = word_view(buf)
    out = [(view[starts] | _FOLD) & _LOW[np.minimum(lens, 8)]]
    for k in range(1, n_words):
        # a run shorter than 8k bytes reads word k as 0: clip its index
        w = view[np.minimum(starts + 8 * k, len(view) - 1)]
        out.append((w | _FOLD) & _LOW[np.clip(lens - 8 * k, 0, 8)])
    return out


def _run_keys(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray,
              n_words: int) -> np.ndarray:
    """uint64 lookup key per run: its one word when it fits in 8 bytes
    (exact), else a splitmix hash of its words."""
    key = _run_words(buf, starts, lens, 1)[0]
    long = np.flatnonzero(lens > 8)
    if len(long):
        words = _run_words(buf, starts[long], lens[long], n_words)
        h = splitmix64(words[0])
        for w in words[1:]:
            h = splitmix64(h ^ w)
        key[long] = h
    return key


def _row_of(row_first: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row of each sorted run index: one search per row, not per run."""
    counts = np.diff(np.searchsorted(idx, row_first))
    return np.repeat(np.arange(len(counts)), counts)


class GazetteerMatcher:
    """Callable class for ``map_batches`` (cached task)."""

    def __init__(self, gazetteer):
        """``gazetteer``: a :class:`GazetteerIndex` or its ObjectRef."""
        import ray

        gaz = ray.get(gazetteer) if isinstance(gazetteer, ray.ObjectRef) else gazetteer
        self.gaz: GazetteerIndex = gaz

        vocab: dict[str, int] = {}
        for ph in gaz.phrases:
            for tok in ph:
                vocab.setdefault(tok, len(vocab))
        # vocab tokens as runs over one buffer: the same key/word path
        # the page runs take
        vbytes = [t.encode() for t in vocab]
        vlens = np.array([len(b) for b in vbytes], dtype=np.int64)
        max_len = int(vlens.max()) if len(vlens) else 0
        self.n_words = max(1, -(-max_len // 8))
        self.len_ok = np.zeros(max_len + 2, dtype=bool)
        self.len_ok[vlens] = True
        vbuf = np.frombuffer(b"".join(vbytes) + bytes(16), dtype=np.uint8)
        vstarts = np.concatenate([[0], np.cumsum(vlens)[:-1]]).astype(np.int64)
        vkeys = _run_keys(vbuf, vstarts, vlens, self.n_words)
        if len(np.unique(vkeys)) < len(vkeys):
            raise ValueError("vocab token key collision")
        self.vocab_keys = pa.array(vkeys, pa.uint64())   # index = vocab code
        self.vocab_words = _run_words(vbuf, vstarts, vlens, self.n_words)
        # per phrase length: the distinct code tuples, sorted by key,
        # each with its entries (one phrase in several sources)
        by_len: dict[int, list[int]] = {}
        for e, ph in enumerate(gaz.phrases):
            if ph:
                by_len.setdefault(len(ph), []).append(e)
        self.tables: dict[int, tuple] = {}
        for L, entries in by_len.items():
            codes = np.array([[vocab[t] for t in gaz.phrases[e]] for e in entries],
                             dtype=np.int64)
            tuples, inv = np.unique(codes, axis=0, return_inverse=True)
            keys = _phrase_key(tuples.T)
            order = np.argsort(keys)
            if (np.diff(keys[order]) == 0).any():
                raise ValueError("phrase key collision")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            inv = rank[inv.ravel()]                  # tuple id = key rank
            self.tables[L] = (
                keys[order],                         # sorted tuple keys
                tuples[order].T,                     # (L, n_tuples) codes
                np.concatenate([[0], np.cumsum(np.bincount(inv))]),
                np.array(entries, dtype=np.int64)[np.argsort(inv, kind="stable")])
        self.names = pa.array(gaz.names, pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Append ``mentions`` for the batch's text column."""
        return batch.append_column(
            "mentions", self.mentions(token_runs(batch["text"])))

    def _vocab_codes(self, runs: TokenRuns) -> tuple[np.ndarray, np.ndarray]:
        """(run index, vocab code) of the in-vocab runs, in run order:
        runs of a vocab length are keyed, probed in Arrow's hash set
        of the vocab keys and verified word by word."""
        cand = np.flatnonzero(
            self.len_ok[np.minimum(runs.lens, len(self.len_ok) - 1)])
        starts, lens = runs.starts[cand], runs.lens[cand]
        keys = _run_keys(runs.buf, starts, lens, self.n_words)
        codes = np.asarray(pc.index_in(keys, value_set=self.vocab_keys)
                           .fill_null(-1).to_numpy(zero_copy_only=False))
        hit = np.flatnonzero(codes >= 0)
        codes = codes[hit].astype(np.int64)
        ok = np.ones(len(hit), dtype=bool)
        words = _run_words(runs.buf, starts[hit], lens[hit], self.n_words)
        for w, vw in zip(words, self.vocab_words):
            ok &= w == vw[codes]
        return cand[hit[ok]], codes[ok]

    def mentions(self, runs: TokenRuns) -> pa.Array:
        """The ``mentions`` column (``list<MENTION_TYPE>``, one list per
        row, never null) for a batch's token runs."""
        gaz = self.gaz
        n = len(runs.row_first) - 1
        pos, codes = self._vocab_codes(runs)
        m = len(pos)
        rows = _row_of(runs.row_first, pos)

        hit_first: list[np.ndarray] = []
        hit_entry: list[np.ndarray] = []
        hit_len: list[np.ndarray] = []
        for L, (tkeys, tcodes, toff, tent) in self.tables.items():
            if m < L:
                continue
            # windows of L in-vocab tokens, consecutive within one row
            nwin = m - L + 1
            pos0 = np.flatnonzero((pos[L - 1:] - pos[:nwin] == L - 1)
                                  & (rows[L - 1:] == rows[:nwin]))
            wc = np.stack([codes[pos0 + j] for j in range(L)])
            keys = _phrase_key(wc)
            t = np.minimum(np.searchsorted(tkeys, keys), len(tkeys) - 1)
            hit = np.flatnonzero(tkeys[t] == keys)
            t = t[hit]
            ok = (tcodes[:, t] == wc[:, hit]).all(axis=0)   # exact codes
            t, first = t[ok], pos[pos0[hit[ok]]]
            # every entry of each matched tuple
            n_ent = toff[t + 1] - toff[t]
            total = int(n_ent.sum())
            hit_first.append(np.repeat(first, n_ent))
            hit_entry.append(tent[np.repeat(toff[t] - np.cumsum(n_ent) + n_ent, n_ent)
                                  + np.arange(total)])
            hit_len.append(np.full(total, L))

        if hit_first:
            first = np.concatenate(hit_first)
            entry = np.concatenate(hit_entry)
            # order by (row, start, entry) like a scan would emit: the
            # run index orders (row, start), and each hit list is already
            # sorted by it, so the stable (merge) sort only merges runs
            order = np.argsort(first * len(gaz.ids) + entry, kind="stable")
            first, entry = first[order], entry[order]
            lens = np.concatenate(hit_len)[order]
            rows = _row_of(runs.row_first, first)
            starts = first - runs.row_first[rows]
            ends = starts + lens
        else:
            rows = entry = starts = ends = np.empty(0, dtype=np.int64)

        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(gaz.ids[entry], pa.int64()),
                    pc.take(self.names, pa.array(entry)),
                    pa.array(starts.astype(np.int32), pa.int32()),
                    pa.array(ends.astype(np.int32), pa.int32()),
                ],
                fields=list(MENTION_TYPE),
            ),
        )
