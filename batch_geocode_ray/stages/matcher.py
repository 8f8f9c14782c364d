"""Gazetteer mention matcher — stateful stage (built on the driver and
loaded once per worker, inside the fused flagship stage; see
pipelines/geocode).

Replaces the reference's per-row HTTP geocoding fan-out
(query_funcs.py:178-191) with offline matching of gazetteer phrases
against page tokens. One kernel,
:meth:`GazetteerMatcher.sliced_mentions`, takes a batch as the token
runs of its consecutive row slices (``functions/text.TokenRuns``: byte
offsets into the Arrow data buffer, no token strings), each slice from
``functions/text.row_slices`` (at most ``SLICE_BYTES`` data bytes),
through either

  * ``token_runs(text)`` — :meth:`GazetteerMatcher.__call__`, over a
    text column (q14, the traced chain in perfbench), or
  * ``html_token_runs(html)`` — the fused flagship stage, straight from
    the html bytes with no ``text`` column.

:meth:`GazetteerMatcher.mentions` is the same kernel over one batch's
runs.

The byte-level half runs per slice, so its working set stays
cache-sized whatever the block size (it was ~9.3x the block's html bytes
when a block was tokenized whole): page runs whose length is a vocab
token length are read as folded 8-byte words, keyed, looked up in the
vocab's hash table and verified word by word, which gives each in-vocab
run its code. A slice keeps only its in-vocab run positions, their codes
and its rows' first run index. The phrase windows and mention assembly
run once per batch, like every later layer of the fused stage: their
cost per call is fixed (a prototype that sliced the whole stage at
1 MiB cost +15% CPU).

The gazetteer's names take the same path: ``token_runs`` over the
``name`` column, keyed by the same ``_run_keys``/``_run_words``. The
vocab is the distinct keys of the names' runs, and each name is a row of
vocab codes. The vocab's hash table (a ``pd.Index`` of the keys) is
built once per process, on its first lookup, so a lookup costs the same
at 321 keys as at 10^6 (Arrow's ``index_in`` rebuilds its hash set on
every call).
For every phrase length L, the windows of L consecutive in-vocab tokens
of one row get a key (the code itself for L = 1, else a splitmix
chain), binary-searched against the sorted keys of the gazetteer's
distinct code tuples and verified code by code (hash collisions cannot
emit); a match emits every entry with that phrase. Only ~15% of tokens
are in the vocab, so the window loop runs over those alone.

Every occurrence of every phrase is emitted (duplicates across sources
included); mention start/end are TOKEN indices within the document.
The result equals a scan of each token position against a dict of the
names' token tuples (``tests/oracle.py:naive_mentions``, which
tokenizes names and text with its own regex), spans included.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from batch_geocode_ray.functions.hashing import splitmix64
from batch_geocode_ray.functions.text import (
    TokenRuns,
    row_slices,
    token_runs,
    word_view,
)
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


def _key_groups(keys: np.ndarray):
    """(sorted distinct keys, one member index of each, key index of
    every element); a quicksort unique, half the cost of asking
    ``np.unique`` for first indices."""
    uniq, inv = np.unique(keys, return_inverse=True)
    rep = np.empty(len(uniq), dtype=np.int64)
    rep[inv] = np.arange(len(keys))
    return uniq, rep, inv


def _row_of(row_first: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row of each sorted run index: one search per row, not per run."""
    counts = np.diff(np.searchsorted(idx, row_first))
    return np.repeat(np.arange(len(counts)), counts)


class GazetteerMatcher:
    """Callable class for ``map_batches`` (cached task): appends the
    ``mentions`` of a text column, tokenized per row slice."""

    def __init__(self, gazetteer: GazetteerIndex):
        self.gaz = gaz = gazetteer
        # the names' token runs, keyed like page runs: the vocab is the
        # distinct run keys (code = key rank), verified word by word
        runs = token_runs(gaz.name)
        lens = runs.lens
        max_len = int(lens.max()) if len(lens) else 0
        self.n_words = max(1, -(-max_len // 8))
        self.len_ok = np.zeros(max_len + 2, dtype=bool)
        self.len_ok[lens] = True
        keys = _run_keys(runs.buf, runs.starts, lens, self.n_words)
        vkeys, rep, code = _key_groups(keys)
        words = _run_words(runs.buf, runs.starts, lens, self.n_words)
        if any((w != w[rep][code]).any() for w in words):
            raise ValueError("vocab token key collision")
        # position = vocab code; pandas builds the index's hash table on
        # its first lookup and keeps it, so no later call rebuilds it
        # (pickling drops it: a loaded matcher builds it on first use)
        self.vocab = pd.Index(vkeys)
        self.vocab_words = [w[rep] for w in words]
        # per phrase length L (an entry's run count): the distinct code
        # tuples, sorted by key, each with its entries (one phrase in
        # several sources)
        n_tok = np.diff(runs.row_first)
        self.tables: dict[int, tuple] = {}
        for L in np.unique(n_tok):
            entries = np.flatnonzero(n_tok == L)
            codes = code[runs.row_first[entries, None] + np.arange(L)]
            # tuple id = key rank; one key must mean one code tuple
            keys, first, inv = _key_groups(_phrase_key(codes.T))
            if (codes != codes[first][inv]).any():
                raise ValueError("phrase key collision")
            self.tables[int(L)] = (
                keys,                                # sorted tuple keys
                codes[first].T,                      # (L, n_tuples) codes
                np.concatenate([[0], np.cumsum(np.bincount(inv))]),
                entries[np.argsort(inv, kind="stable")])

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Append ``mentions`` for the batch's text column."""
        return batch.append_column("mentions", self.sliced_mentions(
            token_runs(part) for part in row_slices(batch["text"])))

    def _vocab_codes(self, runs: TokenRuns) -> tuple[np.ndarray, np.ndarray]:
        """(run index, vocab code) of the in-vocab runs, in run order:
        runs of a vocab length are keyed, looked up in the vocab's
        hash table and verified word by word."""
        cand = np.flatnonzero(
            self.len_ok[np.minimum(runs.lens, len(self.len_ok) - 1)])
        starts, lens = runs.starts[cand], runs.lens[cand]
        keys = _run_keys(runs.buf, starts, lens, self.n_words)
        codes = self.vocab.get_indexer(keys)
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
        return self.sliced_mentions([runs])

    def sliced_mentions(self, slices: Iterable[TokenRuns]) -> pa.Array:
        """The ``mentions`` column of a batch given as the token runs of
        consecutive row slices, in row order. Each slice keeps only its
        in-vocab runs (run index offset by the earlier slices' runs) and
        its rows' first run index, so a lazily made slice's byte buffer
        is freed before the next one is read; the phrase windows run
        once per batch."""
        pos, codes, firsts, base = [], [], [], 0
        for runs in slices:
            p, c = self._vocab_codes(runs)
            pos.append(p + base)
            codes.append(c)
            firsts.append(runs.row_first[:-1] + base)
            base += len(runs.starts)
        empty = [np.empty(0, np.int64)]
        pos, codes = np.concatenate(empty + pos), np.concatenate(empty + codes)
        row_first = np.concatenate(firsts + [[base]])
        gaz = self.gaz
        n = len(row_first) - 1
        m = len(pos)
        rows = _row_of(row_first, pos)

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
            rows = _row_of(row_first, first)
            starts = first - row_first[rows]
            ends = starts + lens
        else:
            rows = entry = starts = ends = np.empty(0, dtype=np.int64)

        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(gaz.ids[entry], pa.int64()),
                    pc.take(gaz.name, pa.array(entry)),
                    pa.array(starts.astype(np.int32), pa.int32()),
                    pa.array(ends.astype(np.int32), pa.int32()),
                ],
                fields=list(MENTION_TYPE),
            ),
        )
