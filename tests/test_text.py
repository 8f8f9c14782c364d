"""Text kernels: the byte-identical extraction invariant, the one token
rule and the text-analysis functions."""

import ast
from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from batch_geocode_ray.functions.text import (
    extract_text_column,
    extract_text_py,
    fingerprint_column,
    flat_tokens,
    langid_table,
    quality_table,
    token_count_column,
)
from batch_geocode_ray.pipelines.queries import _SQL_TOKS, ORACLE_SQL

from .oracle import ascii_tokens

TRICKY_HTML = [
    "<html><body><p>hello world</p></body></html>",
    "<script>var x = 1 < 2;</script>text after script",
    "<style>p { color: red }</style>styled",
    "<!-- comment with <tags> inside -->visible",
    "a &amp; b &lt;c&gt; &quot;d&quot; &#39;e&#39; &nbsp; f",
    "&amp;lt; stays as &lt; literal",  # double-escape ordering
    "   leading \t\n whitespace   runs\f\v   ",
    "<p>unicode café straße</p>",
    "no markup at all",
    "",
    "<b>nested <i>tags</i> close</b><br/>line",
    "<SCRIPT>UPPER case script</SCRIPT>kept",
    # non-ASCII letters never fold into a tag name (Python's (?i) folded
    # U+0130/U+0131 to i, RE2's did not)
    "a<scr\u0130pt>x</script>b",
    "a<scr\u0131pt>x</script>b",
    "a<\u017fcript>x</script>b",
]


def test_extract_vectorized_matches_oracle():
    col = pa.array([h.encode("utf-8") for h in TRICKY_HTML], pa.binary())
    vec = extract_text_column(col).to_pylist()
    oracle = [extract_text_py(h) for h in TRICKY_HTML]
    assert vec == oracle


def test_extract_invalid_utf8_matches_oracle():
    raw = [b"ok text", b"bad \xff\xfe bytes <b>tag</b>"]
    col = pa.array(raw, pa.binary())
    vec = extract_text_column(col).to_pylist()
    oracle = [extract_text_py(b) for b in raw]
    assert vec == oracle


def test_tag_names_fold_ascii_only():
    assert extract_text_py("a<SCRIPT>x</Script>b") == "a b"
    for html in TRICKY_HTML[-3:]:
        assert extract_text_py(html) == "a x b"


def test_entity_decode_order():
    # &amp;lt; must decode to the literal "&lt;", never "<"
    assert extract_text_py("&amp;lt;") == "&lt;"
    assert extract_text_py("&amp;") == "&"
    assert extract_text_py("&lt;b&gt;") == "<b>"


def test_token_counts():
    col = pa.array(["one two three", "", "a-b_c", "UPPER lower 123"])
    counts = token_count_column(col)
    assert counts.tolist() == [3, 0, 3, 3]


def test_langid():
    col = pa.array([
        "the cat and the dog went to a house of cards",
        "el perro y la casa de los amigos",
        "der hund und die katze ist hier",
        "zzz qqq www",  # no markers
    ])
    out = langid_table(col)
    assert out["pred_lang"].tolist() == ["en", "es", "de", "und"]


def test_langid_tie_break_alphabetical():
    # "la" is a marker for both es and fr -> tie resolves alphabetically (es)
    out = langid_table(pa.array(["la la la"]))
    assert out["pred_lang"][0] == "es"


def test_quality_features():
    out = quality_table(pa.array(["the the xyz", ""]))
    assert out["n_tokens"].tolist() == [3, 0]
    assert abs(out["stopword_ratio"][0] - 2 / 3) < 1e-12
    assert out["stopword_ratio"][1] == 0.0
    assert abs(out["avg_token_len"][0] - 3.0) < 1e-12


def test_fingerprint_detects_shared_regions():
    a = "alpha beta gamma delta epsilon zeta eta theta"
    b = "PREFIX " + a  # shares all of a's 3-gram windows
    c = "totally different words here nothing shared at all"
    fp = fingerprint_column(pa.array([a, b, c]))
    assert fp[0] == fp[1]
    assert fp[0] != fp[2]
    # determinism across calls (stable hashes, no process salt)
    fp2 = fingerprint_column(pa.array([a, b, c]))
    assert (fp == fp2).all()


def test_fingerprint_equals_per_row_reference():
    """Per document: the min of its :func:`shingle_hashes` (3-gram
    windows, or the full run of a shorter doc); 0 with no token."""
    from batch_geocode_ray.functions.hashing import stable_hash64_array

    from .reference import shingle_hashes

    texts = ["", None, "one", "two tokens", "exactly three tokens", ",;",
             "a longer document, with many more tokens inside it a longer"]
    toks = [ascii_tokens(t or "") for t in texts]
    want = [int(shingle_hashes(stable_hash64_array(pa.array(tk, pa.string())),
                               3).min()) if tk else 0 for tk in toks]
    assert fingerprint_column(pa.array(texts)).tolist() == want

def test_flat_tokens_shape():
    flat, parents = flat_tokens(pa.array(["Hello, World!", None, "", "a-b"]))
    assert flat.type == pa.string()
    assert flat.to_pylist() == ["hello", "world", "a", "b"]
    assert parents.dtype == np.int64 and parents.tolist() == [0, 0, 3, 3]


# ASCII letters, digits and punctuation, plus non-ASCII characters whose
# Unicode lower case is or holds an ASCII letter (U+0130 I with dot, the
# Kelvin sign, long s), a combining mark, and other letters
_CHARS = st.sampled_from(list("aAzZ09 .,-_'") + [
    "\u0130", "\u212a", "\u017f", "\u0131", "\u0301", "\u00e9", "\u00df"])
_ROWS = st.lists(st.text(_CHARS, max_size=24), max_size=8)


def _rows(flat, parents, n):
    out = [[] for _ in range(n)]
    for t, p in zip(flat.to_pylist(), parents.tolist()):
        out[p].append(t)
    return out


def _duckdb_tokens(texts):
    con = duckdb.connect()
    con.register("documents", pa.table({
        "i": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    got = con.execute(f"SELECT {_SQL_TOKS} FROM documents ORDER BY i").fetchall()
    con.close()
    return [r[0] for r in got]


@settings(max_examples=150, deadline=None)
@given(_ROWS)
def test_flat_tokens_equal_ascii_rule(texts):
    """The engine's tokenizer and the SQL oracles' token fragment both
    follow the ASCII rule of ``oracle.ascii_tokens``."""
    want = [ascii_tokens(t) for t in texts]
    assert _rows(*flat_tokens(pa.array(texts, pa.string())), len(texts)) == want
    assert _duckdb_tokens(texts) == want


def test_non_ascii_letters_are_separators():
    texts = ["\u0130zmir", "\u212aelvin 5", "cafe\u0301s", "stra\u00dfe"]
    want = [["zmir"], ["elvin", "5"], ["cafe", "s"], ["stra", "e"]]
    assert _rows(*flat_tokens(pa.array(texts)), len(texts)) == want
    assert _duckdb_tokens(texts) == want


def _second_tokenizers(src: str) -> list[int]:
    """Lines that tokenize other than by ``token_runs``: a
    ``split_pattern*`` or ``*split_whitespace`` call outside
    ``extract_text_column``, the name ``tokens_column``, or a string
    holding the lower-case-only SQL token class."""
    tree = ast.parse(src)
    allowed = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "extract_text_column"
               for n in ast.walk(f)}
    bad = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and (node.func.attr.startswith("split_pattern")
                     or node.func.attr.endswith("split_whitespace"))
                and id(node) not in allowed):
            bad.append(node.lineno)
        if "tokens_column" in {getattr(node, f, None)
                               for f in ("id", "attr", "name", "asname")}:
            bad.append(node.lineno)
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "[^a-z0-9]+" in node.value):
            bad.append(node.lineno)
    return sorted(bad)


def test_second_tokenizer_guard_is_not_vacuous():
    src = "\n".join([
        "def extract_text_column(c):",
        "    return pc.ascii_split_whitespace(c)",
        "t = pc.split_pattern(c, pattern=' ')",
        "u = pc.utf8_split_whitespace(c)",
        "from x import tokens_column",
        "v = text.tokens_column(c)",
        "SQL = f\"SELECT regexp_replace(lower(t), '[^a-z0-9]+', ' ') {x}\"",
        "w = pc.split_pattern_regex(c, pattern=',')",
    ])
    assert _second_tokenizers(src) == [3, 4, 5, 6, 7, 8]


def test_package_has_one_tokenizer():
    pkg = Path(__file__).resolve().parents[1] / "batch_geocode_ray"
    bad = {p.relative_to(pkg).as_posix(): lines for p in sorted(pkg.rglob("*.py"))
           if (lines := _second_tokenizers(p.read_text()))}
    assert bad == {}
    assert not [q for q, sql in ORACLE_SQL.items() if "[^a-z0-9]+" in sql]
