"""Text kernels: HTML→text extraction and text-analysis functions.

``extract_text`` is the engine's per-row invariant (driver BASELINE.json
``input_hint``): the distributed pipeline's extracted ``text`` must be
byte-identical per ``url`` to a single-process oracle. To guarantee
that, extraction is defined by ONE set of regex rules implemented twice
with identical semantics:

  * :func:`extract_text_column` — Arrow-vectorized (pyarrow.compute RE2
    kernels): the spec for verify mode and the text queries;
  * :func:`extract_text_py` — plain-Python `re` for the oracle /
    fixture generator.

The rules deliberately stay inside the (documented) intersection of RE2
and Python `re` semantics: no lookahead, no ``(?i)`` (tag names match
ASCII case-insensitively through explicit classes), explicit ASCII
whitespace classes (RE2's ``\\s`` is ASCII-only while Python's is
Unicode — we use ``[ \\t\\n\\r\\f\\v]`` everywhere), fixed entity
table, utf-8 only.

The flagship matches without extracting: :func:`html_token_runs` gives
the tokens of ``extract_text_column(html)`` straight from the html bytes
in one NumPy pass, and :func:`token_runs` the tokens of a text column;
both feed the one matcher kernel (``stages/matcher.py``), one
:func:`row_slices` slice at a time: zero-copy row slices of at most
``SLICE_BYTES`` data bytes, so the kernel's working set (~9x the bytes
it reads) stays cache-sized at any batch size.
:func:`token_runs` is the package's only tokenizer: the text-analysis
functions below, dedup, the bigram LM and the text queries all take its
tokens through :func:`flat_tokens`.

The reference has no HTML handling (it reads CSVs of addresses —
utilities.py:170-197); extraction is new surface implied by the
``html: binary`` input column, SURVEY §2.2 M13.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS = r"[ \t\n\r\f\v]"

# (pattern, replacement) applied in order; all patterns are RE2-safe.
# ONE alternation pass (script | style | comment | any tag, leftmost
# match, first alternative wins at equal start) instead of four
# sequential passes: each full-column regex pass re-materializes every
# string, so fewer passes = less memory traffic (6.3 -> 3.9 us/page
# single-threaded). On well-formed markup the result is identical to
# the sequential rules; on pathologically interleaved blocks
# ("<style>x<script>y</style>z</script>") the leftmost-block rule
# applies — the spec is this single pass, implemented identically in
# the oracle and the Arrow kernel (byte-parity is THE invariant).
#
# Tag names match ASCII case-insensitively through explicit classes, not
# ``(?i)``: both engines' ``(?i)`` fold non-ASCII letters, and not alike
# (Python's folds i to U+0130/U+0131, RE2's does not; both fold s to
# U+017F). With ASCII classes the rule is a pure byte rule, which the
# html token kernel below reproduces.
_EXTRACT_RULES: list[tuple[str, str]] = [
    (r"(?s)<[sS][cC][rR][iI][pP][tT][^>]*>.*?</[sS][cC][rR][iI][pP][tT]>"
     r"|<[sS][tT][yY][lL][eE][^>]*>.*?</[sS][tT][yY][lL][eE]>"
     r"|<!--.*?-->|<[^>]*>", " "),
]
# Fixed entity table (generator emits only these; numeric entities are out
# of scope — documented limitation, not silently wrong output).
_ENTITIES: list[tuple[str, str]] = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&apos;", "'"),
    ("&nbsp;", " "),
    ("&amp;", "&"),  # last, so "&amp;lt;" decodes to "&lt;" not "<"
]
_WS_RUN = re.compile(_WS + "+")
_EXTRACT_RULES_C = [(re.compile(p), r) for p, r in _EXTRACT_RULES]


def extract_text_py(html: bytes | str) -> str:
    """Single-process oracle extraction. utf-8 decode (errors=replace is
    deterministic), strip script/style/comments/tags, decode the fixed
    entity set, collapse ASCII whitespace runs to single spaces, strip.
    """
    s = html.decode("utf-8", errors="replace") if isinstance(html, (bytes, bytearray)) else html
    for pat, rep in _EXTRACT_RULES_C:
        s = pat.sub(rep, s)
    for ent, ch in _ENTITIES:
        s = s.replace(ent, ch)
    # strip ONLY the explicit ASCII set: bare .strip() is Unicode-aware
    # (it would eat \x1c-\x1f etc.) and silently diverges from the
    # RE2/utf8_trim path — found by hypothesis, pinned here.
    return _WS_RUN.sub(" ", s).strip(" \t\n\r\f\v")


def extract_text_column(html_col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Arrow-vectorized extraction over a binary column — same rules as
    :func:`extract_text_py`, executed by RE2 kernels over the whole
    column (no per-row Python).
    """
    if isinstance(html_col, pa.ChunkedArray):
        html_col = html_col.combine_chunks()
    try:
        col = html_col.cast(pa.string())  # fast path: valid utf-8
    except pa.lib.ArrowInvalid:
        # rare path: invalid utf-8 somewhere in the batch — match the
        # oracle's errors="replace" semantics row-wise
        col = pa.array(
            [None if b is None else b.decode("utf-8", errors="replace")
             for b in html_col.to_pylist()],
            type=pa.string(),
        )
    for pat, rep in _EXTRACT_RULES:
        col = pc.replace_substring_regex(col, pattern=pat, replacement=rep)
    for ent, ch in _ENTITIES:
        col = pc.replace_substring(col, pattern=ent, replacement=ch)
    # whitespace-run collapse + trim as trim -> ascii-ws split -> join:
    # provably equal to the regex sub + strip (runs act as one
    # separator, boundary runs vanish) at ~2.5 vs 5.6 us/page — the
    # single hottest pass in the extraction chain
    return pc.binary_join(
        pc.ascii_split_whitespace(
            pc.utf8_trim(col, characters=" \t\n\r\f\v")), " ")


# ---------------------------------------------------------------------------
# Token runs: the byte tokenizer shared by the text and html match paths
# ---------------------------------------------------------------------------
#
# A token is a maximal [A-Za-z0-9] byte run inside one row, folded to
# lower case with ``| 0x20`` (the ASCII fold: a non-ASCII letter is a
# separator even where its Unicode lower case is ASCII, e.g. U+0130 or
# the Kelvin sign). Over extracted text that is the whole rule. Over raw
# html, :func:`html_token_runs` yields the tokens of
# ``extract_text_column(html)`` without building the text, by a
# run-level mask: every delimiter of a removed span (``<``, ``>``, and
# the ``&``/``#``/``;`` of an entity) is a non-alnum byte, so no run
# straddles a span edge, and every decoded entity is a separator.


class TokenRuns(NamedTuple):
    """The token runs of a batch. Run ``i`` is the bytes
    ``buf[starts[i]:starts[i] + lens[i]]`` (case not yet folded); row
    ``r`` owns runs ``row_first[r]:row_first[r + 1]``. ``buf`` ends in
    16 zero bytes, so an 8-byte word can be read at any run start."""

    buf: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    row_first: np.ndarray


_PAD = 16
# data bytes per byte-kernel slice: the kernel's working set (~9x its
# bytes) then stays near one core's L2 cache, whatever the block size
SLICE_BYTES = 384 << 10


def _offsets(col: pa.Array) -> np.ndarray | None:
    """int64 row offsets of a string/binary array (``len + 1``, not
    rebased), or None when it is empty or has no offsets buffer."""
    n = len(col)
    off_buf = col.buffers()[1]
    if n == 0 or off_buf is None:
        return None
    large = pa.types.is_large_binary(col.type) or pa.types.is_large_string(col.type)
    offs = np.frombuffer(off_buf, np.int64 if large else np.int32)
    return offs[col.offset:col.offset + n + 1].astype(np.int64)


def row_slices(col):
    """Zero-copy slices of consecutive rows of a string/binary column,
    each within one chunk and holding at most ``SLICE_BYTES`` data
    bytes (a larger row is a slice of its own), in row order. Rows are
    never split: token runs and spans are row-local."""
    for chunk in (col.chunks if isinstance(col, pa.ChunkedArray) else [col]):
        offs = _offsets(chunk)
        lo, n = 0, len(chunk)
        while lo < n:
            hi = int(np.searchsorted(offs, offs[lo] + SLICE_BYTES, "right")) - 1
            hi = max(hi, lo + 1)
            yield chunk.slice(lo, hi - lo)
            lo = hi


def _padded_bytes(col) -> tuple[np.ndarray, np.ndarray]:
    """(zero-padded copy of a string/binary column's data bytes, int64
    row offsets into it); null rows are empty."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        col = col.fill_null(pa.scalar(b"", col.type))
    n = len(col)
    offs = _offsets(col)
    if offs is None:
        return np.zeros(_PAD, np.uint8), np.zeros(n + 1, np.int64)
    data_buf = col.buffers()[2]
    data = (np.frombuffer(data_buf, np.uint8) if data_buf is not None
            else np.zeros(0, np.uint8))
    m = int(offs[-1] - offs[0])
    buf = np.zeros(m + _PAD, np.uint8)
    buf[:m] = data[offs[0]:offs[-1]]
    return buf, offs - offs[0]


def word_view(buf: np.ndarray) -> np.ndarray:
    """Overlapping little-endian uint64 view: word ``i`` is bytes
    ``buf[i:i + 8]`` (no copy)."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))


def _alnum(buf: np.ndarray, m: int) -> np.ndarray:
    a = buf[:m]
    return ((a | 0x20) - 97 < 26) | (a - 48 < 10)


def _runs(tok: np.ndarray, offs: np.ndarray, buf: np.ndarray) -> TokenRuns:
    """Runs of ``tok`` (a bool byte mask padded by one False at each
    end), cut at the row boundaries ``offs``."""
    edges = np.flatnonzero(tok[1:] != tok[:-1])
    starts, ends = edges[0::2], edges[1::2]
    if len(starts):
        inner = np.unique(offs[1:-1])   # empty rows repeat an offset
        k = np.searchsorted(starts, inner)
        cross = (k > 0) & (ends[np.maximum(k - 1, 0)] > inner)
        if cross.any():  # a run spans a row boundary: split it there
            at, cut = k[cross] - 1, inner[cross]
            starts = np.insert(starts, at + 1, cut)
            ends = np.insert(ends, at, cut)
    return TokenRuns(buf, starts, ends - starts, np.searchsorted(starts, offs))


def token_runs(text_col) -> TokenRuns:
    """Token runs of a string (or binary) column."""
    buf, offs = _padded_bytes(text_col)
    m = int(offs[-1])
    tok = np.zeros(m + 2, bool)
    tok[1:m + 1] = _alnum(buf, m)
    return _runs(tok, offs, buf)


def _pattern(text: bytes, fold: bytes = b"") -> tuple[int, int, int]:
    """(mask, fold bits, value) testing a word for the prefix ``text``:
    ``(w | fold) & mask == value``; letters in ``fold`` match either
    case."""
    n = len(text)
    mask = (1 << 8 * n) - 1
    fbits = sum(0x20 << 8 * i for i, c in enumerate(text) if c in fold)
    return mask, fbits, int.from_bytes(text, "little") | fbits


def _is(words: np.ndarray, pat: tuple[int, int, int]) -> np.ndarray:
    mask, fbits, value = pat
    return ((words | np.uint64(fbits)) & np.uint64(mask)) == np.uint64(value)


_LETTERS = b"scriptyle"
_SCRIPT_OPEN = _pattern(b"<script", _LETTERS)
_STYLE_OPEN = _pattern(b"<style", _LETTERS)
_COMMENT_OPEN = _pattern(b"<!--")
_SCRIPT_CLOSE = _pattern(b"</script", _LETTERS)   # + ">" (9 bytes)
_STYLE_CLOSE = _pattern(b"</style>", _LETTERS)
_COMMENT_CLOSE = _pattern(b"-->")
# (pattern, entity length) of the fixed entity table, case-sensitive
_ENTITY_PATS = [(_pattern(ent.encode()), len(ent)) for ent, _ in _ENTITIES]


def _chain(nxt: np.ndarray) -> np.ndarray:
    """Bool mask of the path ``0 -> nxt[0] -> ...`` where ``nxt[i] > i``
    and ``len(nxt)`` ends it: binary lifting, O(k log k) with no
    per-node Python."""
    k = len(nxt)
    jumps = [np.append(nxt, k)]
    while (1 << len(jumps)) < k:
        j = jumps[-1]
        jumps.append(j[j])
    path = np.zeros(1, np.int64)
    for j in reversed(jumps):
        step = j[path]
        path = np.concatenate([path, step[step < k]])
    on = np.zeros(k, bool)
    on[path] = True
    return on


def _span_mask(buf: np.ndarray, offs: np.ndarray) -> np.ndarray | None:
    """uint8 byte mask (1 = removed) of the spans that
    ``_EXTRACT_RULES`` replaces, or None when there are none.

    Span edges are ``<``/``>`` bytes, so the work runs over the sorted
    delimiter positions ``d``, one flag per gap after a delimiter:

    * A generic tag ends at the next ``>`` of its row, so the gap after
      a ``<`` is inside a tag iff a ``>`` follows in the row (else it is
      plain text), and the gap after a ``>`` is not.
    * A script/style/comment open that starts a span (its previous
      delimiter is a ``>`` or in an earlier row) runs to its first close
      in the row instead. Which opens start a span is leftmost-first: the
      path from the first one over "first open after my close"
      (:func:`_chain`). Their gaps are filled by a cumsum of +1/-1.

    One ``np.repeat`` expands the gap flags to bytes.
    """
    m = int(offs[-1])
    a = buf[:m]
    d = np.flatnonzero((a | 2) == 62)      # '<' (60) and '>' (62)
    K = len(d)
    if K == 0:
        return None
    row = np.repeat(np.arange(len(offs) - 1), np.diff(np.searchsorted(d, offs)))
    row_x = np.append(row, -1)
    is_gt = a[d] == 62
    # next '>' (delimiter index) at or after each delimiter; K = none
    nxt_gt = np.minimum.accumulate(np.where(is_gt, np.arange(K), K)[::-1])[::-1]
    inside = ~is_gt & (row_x[nxt_gt] == row)

    # script/style/comment opens and closes, prefiltered by the byte
    # after '<' ('s', '!', or '/' then 's'), then tested a word at a time
    words = word_view(buf)
    lt = np.flatnonzero(~is_gt)
    b1 = buf[d[lt] + 1] | 0x20
    op = lt[(b1 == 115) | (b1 == 33)]
    wo = words[d[op]]
    opens = op[_is(wo, _SCRIPT_OPEN) | _is(wo, _STYLE_OPEN) | _is(wo, _COMMENT_OPEN)]
    prev = np.maximum(opens - 1, 0)
    opens = opens[inside[opens] & ((opens == 0) | is_gt[prev] | (row[prev] != row[opens]))]
    if not len(opens):
        return _expand(inside, d, m)
    cl = lt[(b1 == 47) & ((buf[d[lt] + 2] | 0x20) == 115)]
    wc = words[d[cl]]
    # a close's '>' is the delimiter right after its '<'
    script_close = cl[_is(wc, _SCRIPT_CLOSE) & (buf[d[cl] + 8] == 62)] + 1
    style_close = cl[_is(wc, _STYLE_CLOSE)] + 1
    gt = np.flatnonzero(is_gt)
    gt = gt[buf[d[gt] - 1] == 45]
    comment_close = gt[_is(words[np.maximum(d[gt] - 2, 0)], _COMMENT_CLOSE)]

    w = words[d[opens]]
    tag_end = nxt_gt[opens]
    ends = np.full(len(opens), -1)
    # (opens of a kind, search from, sorted close keys, close '>' index):
    # a script/style closes at the first close '<' after its tag's '>',
    # a comment at the first '-->' starting 4 bytes or more after '<'
    for is_open, after, keys, close in (
            (_is(w, _SCRIPT_OPEN), tag_end + 1, script_close, script_close),
            (_is(w, _STYLE_OPEN), tag_end + 1, style_close, style_close),
            (_is(w, _COMMENT_OPEN), d[opens] + 6, d[comment_close], comment_close)):
        i = np.flatnonzero(is_open)
        if not len(i) or not len(close):
            continue
        c = np.minimum(np.searchsorted(keys, after[i]), len(close) - 1)
        ok = (keys[c] >= after[i]) & (row_x[close[c]] == row[opens[i]])
        ends[i[ok]] = close[c[ok]]
    block = ends >= 0
    bs, be = opens[block], ends[block]
    if len(bs):
        on = _chain(np.searchsorted(bs, be, side="right"))
        ev = np.zeros(K + 1, np.int8)
        ev[bs[on]] = 1
        ev[be[on]] = -1
        inside |= np.cumsum(ev[:K], dtype=np.int8) > 0
    return _expand(inside, d, m)


def _expand(inside: np.ndarray, d: np.ndarray, m: int) -> np.ndarray:
    """Gap flags (one per delimiter) -> a uint8 byte mask of length m."""
    flags = np.concatenate([[False], inside]).view(np.uint8)
    return np.repeat(flags, np.diff(np.concatenate([[0], d, [m]])))


def html_token_runs(html_col) -> TokenRuns:
    """Token runs of ``extract_text_column(html_col)``, straight from
    the html bytes: alnum runs outside the removed spans, minus the
    inside of each fixed entity, cut at row boundaries. Invalid UTF-8
    needs no decode: the replacement never consumes an ASCII byte."""
    buf, offs = _padded_bytes(html_col)
    m = int(offs[-1])
    tok = np.zeros(m + 2, bool)
    alnum = _alnum(buf, m)
    mask = _span_mask(buf, offs)
    if mask is None:
        tok[1:m + 1] = alnum
    else:
        np.greater(alnum, mask, out=tok[1:m + 1])
    amp = np.flatnonzero(buf[:m] == 38)
    if len(amp):
        w = word_view(buf)[amp]
        row_end = offs[np.searchsorted(offs, amp, side="right")]
        for pat, ln in _ENTITY_PATS:
            hit = amp[_is(w, pat) & (amp + ln <= row_end)]
            # the entity's inside is one whole run: drop it
            tok[(hit[:, None] + np.arange(2, ln)).ravel()] = False
    return _runs(tok, offs, buf)


def _folded(runs: TokenRuns, typ: pa.DataType) -> pa.Array:
    """Every run's bytes, ASCII-folded, as one flat ``typ`` array."""
    total = int(runs.lens.sum())
    tok_offs = np.concatenate([[0], np.cumsum(runs.lens)])
    idx = np.arange(total) + np.repeat(runs.starts - tok_offs[:-1], runs.lens)
    return pa.Array.from_buffers(
        typ, len(runs.starts),
        [None, pa.py_buffer(tok_offs.astype(np.int32).tobytes()),
         pa.py_buffer((runs.buf[idx] | 0x20).tobytes())])


def run_tokens(runs: TokenRuns) -> pa.ListArray:
    """The folded tokens per row, as ``list<binary>``."""
    return pa.ListArray.from_arrays(
        pa.array(runs.row_first, pa.int32()), _folded(runs, pa.binary()))


def flat_tokens(text_col) -> tuple[pa.StringArray, np.ndarray]:
    """(every row's tokens in row order as one flat ``pa.string()``
    array, the int64 row of each token): the :func:`token_runs` rule,
    ASCII-folded. Null and token-less rows own no tokens."""
    runs = token_runs(text_col)
    n = len(runs.row_first) - 1
    return (_folded(runs, pa.string()),
            np.repeat(np.arange(n, dtype=np.int64), np.diff(runs.row_first)))


# ---------------------------------------------------------------------------
# Text analysis (SURVEY mandate: langid, quality, token counts, fingerprint)
# ---------------------------------------------------------------------------

# Marker stopwords per language for the n-gram/stopword language-ID
# heuristic. Deterministic tie-break: alphabetical; no hits -> 'und'.
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "das", "und", "ist"),
    "en": ("the", "a", "and", "of", "to"),
    "es": ("el", "la", "de", "y", "los"),
    "fr": ("le", "la", "les", "et", "des"),
}
STOPWORDS = ("the", "a", "of", "and", "to")

def token_count_column(text_col) -> np.ndarray:
    """Number of word tokens per document (vectorized)."""
    return np.diff(token_runs(text_col).row_first)


def _marker_hits(flat: pa.Array, parents: np.ndarray, n: int,
                 markers: tuple[str, ...]) -> np.ndarray:
    """Per-document count of tokens that are in ``markers``."""
    hit = np.asarray(pc.is_in(flat, value_set=pa.array(markers)))
    return np.bincount(parents[hit], minlength=n)


def langid_table(text_col) -> dict[str, np.ndarray]:
    """Language-ID by ``LANG_MARKERS`` stopword counts. Returns dict
    with ``pred_lang`` (string array) and per-language hit counts
    ``hits_{lang}``. Argmax with alphabetical tie-break; all-zero ->
    'und'.
    """
    flat, parents = flat_tokens(text_col)
    n = len(text_col)
    names = sorted(LANG_MARKERS)  # alphabetical => tie-break = first max
    counts = np.stack([_marker_hits(flat, parents, n, LANG_MARKERS[m])
                       for m in names])  # (L, n)
    best = np.argmax(counts, axis=0)  # first max wins
    total = counts.max(axis=0)
    pred = np.where(total > 0, np.array(names, dtype=object)[best], "und")
    out = {"pred_lang": pred}
    for i, m in enumerate(names):
        out[f"hits_{m}"] = counts[i]
    return out


def quality_table(text_col) -> dict[str, np.ndarray]:
    """Quality-scoring features: token count, average token length,
    stopword ratio, alpha-character ratio. All vectorized.
    """
    flat, parents = flat_tokens(text_col)
    n = len(text_col)
    n_tok = np.bincount(parents, minlength=n)
    sum_len = np.bincount(parents, weights=np.asarray(pc.utf8_length(flat)),
                          minlength=n)
    stop_hits = _marker_hits(flat, parents, n, STOPWORDS)
    n_chars = np.asarray(pc.utf8_length(text_col).cast(pa.int64()))
    alpha = np.asarray(pc.count_substring_regex(pc.utf8_lower(text_col), pattern="[a-z]"))
    with np.errstate(invalid="ignore", divide="ignore"):
        return {
            "n_tokens": n_tok,
            "avg_token_len": np.where(n_tok > 0, sum_len / np.maximum(n_tok, 1), 0.0),
            "stopword_ratio": np.where(n_tok > 0, stop_hits / np.maximum(n_tok, 1), 0.0),
            "alpha_ratio": np.where(n_chars > 0, alpha / np.maximum(n_chars, 1), 0.0),
        }


def fingerprint_column(text_col) -> np.ndarray:
    """Document fingerprint: minimum of the Rabin-Karp rolling hashes of
    all 3-token windows (a 1-value winnowing sketch). Documents sharing
    any 3-gram region often collide -> cheap near-dup prefilter. Returns
    uint64; short docs fingerprint to the hash of their full token
    tuple, token-less ones to 0.
    """
    from batch_geocode_ray.functions.hashing import (
        shingle_sets_batch,
        stable_hash64_array,
    )

    flat, parents = flat_tokens(text_col)
    out = np.zeros(len(text_col), dtype=np.uint64)
    gram, par = shingle_sets_batch(stable_hash64_array(flat), parents,
                                   len(text_col), 3)
    if len(gram):
        present, first = np.unique(par, return_index=True)
        out[present] = np.minimum.reduceat(gram, first)
    return out
