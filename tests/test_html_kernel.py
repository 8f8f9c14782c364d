"""The fused stage's html token kernel: html bytes -> token runs ->
mentions must equal extraction -> text tokens -> mentions, spans
included, on hostile html (invalid UTF-8, non-ASCII case folds, unclosed
and interleaved blocks, entities, tags and closes cut by row ends)."""

import glob

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from batch_geocode_ray.functions.text import (
    extract_text_column,
    extract_text_py,
    html_token_runs,
    run_tokens,
    token_runs,
)
from batch_geocode_ray.stages.extract import extract_text_stage, verify_html_tokens
from batch_geocode_ray.stages.matcher import GazetteerMatcher
from batch_geocode_ray.state.gazetteer import GazetteerIndex

from .oracle import ascii_tokens, naive_mentions


def _gazetteer(names: list[str]) -> GazetteerIndex:
    n = len(names)
    return GazetteerIndex.from_table(pa.table({
        "gazetteer_id": pa.array(range(n), pa.int64()),
        "name": pa.array(names),
        "lat": pa.array([0.0] * n), "lon": pa.array([0.0] * n),
        "bb_n": pa.array([None] * n, pa.float64()),
        "bb_s": pa.array([None] * n, pa.float64()),
        "bb_e": pa.array([None] * n, pa.float64()),
        "bb_w": pa.array([None] * n, pa.float64()),
        "cc": pa.array([None] * n, pa.string()),
        "type": pa.array(["t"] * n),
        "population": pa.array([1] * n, pa.int64()),
        "source": pa.array(["GM"] * n),
    }))


# every token the pieces below can leave behind, alone and in pairs
GAZ = _gazetteer([
    "x", "y", "word", "w0rd", "amp", "lt", "nbsp", "39", "quot", "script",
    "style", "zmir", "iel", "b", "p", "x word",
    "amp lt", "word word", "lt word", "Word W0rd", "script x",
])
MATCHER = GazetteerMatcher(GAZ)

PIECES = [s.encode() for s in [
    "<script>x</script>", "<SCRIPT>y</ScRiPt>", "<scriptx>x</script>",
    "<script type='a'>", "<script", "</script>", "</script", "<style>y</style>",
    "<StYlE>", "</style>", "<!--", "-->", "<!-->", "<!--->", "<!-- x -->",
    "<b>", "</b>", "<p class='x'>", "<", ">", "/", "!", "-",
    "<style><script></style>", "<script><!--</script>", "<!--<script>-->",
    "&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&apos;", "&nbsp;",
    "&amp;lt;", "&AMP;", "&NBSP;", "&Lt;", "&", ";", "#", "amp", "lt", "nbsp",
    "39", "&#", "\u017f", "\u0130", "\u0131", "\u212a", "<\u017fcript>x</script>",
    "<scr\u0130pt>x</script>", "<scr\u0131pt>y</script>", "<\u212aey>", "\u0130zmir",
    "\u212aIEL", "word", "Word", "W0RD", "x", "y", " ", "\t\n", "\u00e9", "\ufffd",
]] + [b"\xff", b"\x00", b"\xc3", b"\xe2\x84", b"\xc3(", b"\xed\xa0\x80"]

row = st.one_of(st.none(), st.lists(st.sampled_from(PIECES), max_size=10)
                .map(b"".join))


def _check(rows: list[bytes | None]) -> None:
    html = pa.array(rows, pa.binary())
    batch = pa.table({"url": pa.array([f"u{i}" for i in range(len(rows))]),
                      "html": html})
    runs = html_token_runs(html)
    text = extract_text_column(html)
    # token stream: kernel == extraction's tokens == the Python spec
    got = run_tokens(runs)
    assert got.equals(run_tokens(token_runs(text)))
    spec = [[t.encode() for t in ascii_tokens(extract_text_py(r))]
            if r is not None else [] for r in rows]
    assert got.to_pylist() == spec
    # mentions: html path == text path == naive scan, spans included
    mentions = MATCHER.mentions(runs).to_pylist()
    assert mentions == MATCHER(extract_text_stage(batch))["mentions"].to_pylist()
    assert mentions == naive_mentions(text.to_pylist(), GAZ)
    verify_html_tokens(batch, runs)


@settings(max_examples=300, deadline=None)
@given(st.lists(row, min_size=1, max_size=6))
def test_html_mentions_equal_text_path(rows):
    _check(rows)


@pytest.mark.parametrize("rows", [
    # a tag, a block or a close cut by the row end is not one
    [b"a <script>x", b"</script> y"],
    [b"a <b", b"> word"],
    [b"<!-- x", b"--> word"],
    [b"<!--x-", b"-> word"],
    [b"<script>x</scr", b"ipt> y </script> word"],
    [b"word &am", b"p; &lt", b"; x&", b"lt;"],
    # runs are cut at row boundaries
    [b"word", b"word", b"", None, b"w0rd x"],
    # first alternative wins, leftmost span first
    [b"<style>x<script>y</style>word</script>lt"],
    [b"<a <script>x</script>word", b"<!-- <script> -->x</script>word"],
    [b"<script>a</script><script>b</script>x<!-->y-->word"],
    [b"<!-->x--><!--->word-->y"],
    [b"<scriptx>x</script>y<script x>z</SCRIPT>word"],
    [b"<script>never closed x", b"<style>never closed y", b"<!-- never closed"],
    # entities: the seven, case-sensitive, decoded to separators
    [b"x&amp;lt;y&AMP;z&NBSP;word&#39;39&apos;lt&nbsp;nbsp&quot;amp"],
    # non-ASCII: a separator, never folded into a tag name or a token
    [b"a<scr\xc4\xb0pt>x</script>b", b"a<scr\xc4\xb1pt>y</script>b",
     b"<\xc5\xbfcript>x</script>", "\u212aIEL \u0130zmir".encode()],
    [b"\xff<b\xff>word\x00x\xc3<scr\xc3ipt>y"],
    [None, b"", b"<>", b"<<>>", b">x<"],
])
def test_html_kernel_edge_cases(rows):
    _check(rows)


def test_verify_names_the_mismatching_urls():
    html = pa.array([b"<b>x</b> word", b"lt &lt; y"], pa.binary())
    batch = pa.table({"url": ["u0", "u1"], "html": html,
                      "text": ["x word", "lt < z"]})
    with pytest.raises(AssertionError, match=r"extract_text mismatch.*\['u1'\]"):
        verify_html_tokens(batch, html_token_runs(html))
    batch = batch.drop_columns(["text"])
    other = html_token_runs(pa.array([b"x word", b"lt lt y"], pa.binary()))
    with pytest.raises(AssertionError, match=r"token kernel mismatch.*\['u1'\]"):
        verify_html_tokens(batch, other)


# --- the flagship stage ------------------------------------------------------

_WIDE = [f"{p}_{s}" for p in ["best", "FG1", "FG2", "GM1", "GM2", "GN1",
                              "GN2", "OSM1", "OSM2"]
         for s in ["name", "type", "lat", "long", "buffer"]]
_FLOAT = {"lat", "long", "buffer"}
FLAGSHIP_SCHEMA = pa.schema(
    [("url", pa.string()), ("warc_ts", pa.timestamp("us")), ("lang", pa.string())]
    + [(c, pa.float64() if c.rsplit("_", 1)[1] in _FLOAT else pa.string())
       for c in _WIDE]
    + [("hex_cell_r7", pa.int64()), ("hex_cell_r8", pa.int64()),
       ("hex_cell_r9", pa.int64()), ("s2_cell", pa.int64()),
       ("admin_id", pa.int64()), ("admin_level", pa.int64()),
       ("admin_cc", pa.string()), ("knn_ids", pa.list_(pa.int64())),
       ("knn_dists", pa.list_(pa.float64()))])


def _flagship(verify: bool):
    import pyarrow.parquet as pq

    from batch_geocode_ray.config import PipelineConfig
    from batch_geocode_ray.pipelines.geocode import GeocodeFusedStage
    from batch_geocode_ray.sources.fixtures import (
        LANG_CC_PRIOR,
        ensure_fixture_dir,
        generate_world,
    )
    from batch_geocode_ray.stages.knn import FacilityIndex
    from batch_geocode_ray.stages.pip import PolygonIndex

    d = ensure_fixture_dir(300)
    w = generate_world()
    idx = GazetteerIndex.from_table(w.gazetteer)
    stage = GeocodeFusedStage(
        idx, PipelineConfig(sources=idx.sources), lang_cc_prior=LANG_CC_PRIOR,
        polygons=PolygonIndex(w.admin_polygons),
        facilities=FacilityIndex(w.facilities), with_knn=True,
        verify_extraction=verify)
    batch = pq.read_table(sorted(glob.glob(f"{d}/pages/*.parquet"))[0])
    return stage, batch if verify else batch.drop_columns(["text"])


@pytest.mark.parametrize("verify", [False, True])
def test_flagship_output_schema_pinned(verify):
    stage, batch = _flagship(verify)
    out = stage(batch)
    assert out.num_rows == batch.num_rows
    assert [(f.name, f.type) for f in out.schema] == \
        [(f.name, f.type) for f in FLAGSHIP_SCHEMA]


def test_flagship_never_extracts_text_unless_verifying(monkeypatch):
    import batch_geocode_ray.functions.text as text_mod
    import batch_geocode_ray.stages.extract as extract_mod

    calls = []
    real = text_mod.extract_text_column

    def spy(col):
        calls.append(len(col))
        return real(col)

    monkeypatch.setattr(text_mod, "extract_text_column", spy)
    monkeypatch.setattr(extract_mod, "extract_text_column", spy)
    stage, batch = _flagship(False)
    plain = stage(batch)
    assert calls == []
    stage, batch = _flagship(True)
    assert stage(batch).equals(plain)
    assert calls == [batch.num_rows]
