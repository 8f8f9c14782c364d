"""Text kernels: the byte-identical extraction invariant and the
text-analysis functions."""

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.text import (
    extract_text_column,
    extract_text_py,
    fingerprint_column,
    langid_table,
    quality_table,
    token_count_column,
    tokens_column,
)

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


def test_tokens_column_list_shape():
    toks = tokens_column(pa.array(["Hello, World!"]))
    assert toks.to_pylist() == [["hello", "world"]]
