"""Property-based tests (hypothesis) for the pure kernels and the
matcher/resolver semantics — these run without Ray (the stage classes
are plain callables)."""

import math

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from batch_geocode_ray.functions.cells import hex_cell, s2_cell, s2_parent
from batch_geocode_ray.functions.geo import haversine_km
from batch_geocode_ray.functions.text import extract_text_column, extract_text_py

from .reference import hex_decode, s2_cell_center, s2_level_of

coord = st.tuples(st.floats(-179.999, 179.999), st.floats(-89.0, 89.0))


@settings(max_examples=60, deadline=None)
@given(coord, st.integers(2, 24))
def test_s2_parent_center_invariants(pt, level):
    lon, lat = pt
    c = s2_cell(np.array([lon]), np.array([lat]), level)
    assert int(s2_level_of(c)[0]) == level
    # center re-encodes to the same cell
    clon, clat = s2_cell_center(c)
    assert int(s2_cell(clon, clat, level)[0]) == int(c[0])
    # parent chain is consistent
    for pl in range(1, level, 5):
        p = s2_parent(c, pl)
        assert int(s2_level_of(p)[0]) == pl
        assert int(s2_parent(p, pl)[0]) == int(p[0])


@settings(max_examples=60, deadline=None)
@given(coord, st.integers(0, 12))
def test_hex_roundtrip_property(pt, res):
    lon, lat = pt
    c = hex_cell(np.array([lon]), np.array([lat]), res)
    dres, clon, clat = hex_decode(c)
    assert int(dres[0]) == res
    assert int(hex_cell(clon, clat, res)[0]) == int(c[0])


@settings(max_examples=60, deadline=None)
@given(coord, coord)
def test_haversine_metric_properties(a, b):
    d_ab = float(haversine_km(a[0], a[1], b[0], b[1]))
    d_ba = float(haversine_km(b[0], b[1], a[0], a[1]))
    assert d_ab >= 0.0
    assert math.isclose(d_ab, d_ba, rel_tol=1e-12, abs_tol=1e-9)  # symmetry
    assert d_ab <= math.pi * 6371.0088 + 1e-6  # bounded by half-circumference
    assert float(haversine_km(a[0], a[1], a[0], a[1])) == 0.0


html_piece = st.one_of(
    st.text(alphabet="abc <>&;xyz\t\n\"'é/=", max_size=25),
    st.sampled_from([
        "<b>", "</b>", "<script>var x=1<2;</script>", "<style>p{}</style>",
        "<!-- c -->", "&amp;", "&lt;", "&gt;", "&nbsp;", "&#39;", "&amp;lt;",
        "<p class='x'>", "</p>", "  ", "\t\n",
        # the html token kernel's hostile pieces (tests/test_html_kernel.py)
        "\u017f", "\u0130", "\u0131", "\u212a", "<\u017fcript>x</script>",
        "<scr\u0130pt>x</script>", "<scr\u0131pt>x</script>", "<SCRIPT>",
        "</ScRiPt>", "<scriptx>", "<script", "</script>", "<style>",
        "</style>", "<!--", "-->", "<!-->", "<!--->", "&AMP;", "&NBSP;",
        "\x00", "\ufffd",
    ]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(html_piece, max_size=12))
def test_extract_vectorized_equals_python(pieces):
    html = "".join(pieces)
    vec = extract_text_column(
        pa.array([html.encode("utf-8")], pa.binary())).to_pylist()[0]
    assert vec == extract_text_py(html)


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=60))
def test_extract_arbitrary_bytes(raw):
    # even invalid utf-8 must match the oracle path byte-for-byte
    vec = extract_text_column(pa.array([raw], pa.binary())).to_pylist()[0]
    assert vec == extract_text_py(raw)


# --- grouped_aggregate (collapsed and forced-distributed) == pandas --------

@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4),
              st.floats(-100, 100, allow_nan=False)),
    min_size=1, max_size=120))
def test_grouped_aggregate_matches_pandas(rows):
    import pandas as pd
    import ray.data as rd

    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.aggregates import grouped_aggregate

    t = pa.table({
        "k": pa.array([r[0] for r in rows], pa.int64()),
        "v": pa.array([r[1] for r in rows], pa.float64()),
    })
    want = (t.to_pandas().groupby("k")["v"]
            .agg(["sum", "min", "max", "mean", "count"]).reset_index()
            .sort_values("k").reset_index(drop=True))
    for merge in ("single", "shuffle"):
        ds = rd.from_arrow(t).repartition(3)
        with pytest.MonkeyPatch.context() as m:
            if merge == "shuffle":
                m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
            got = grouped_aggregate(
                ds, ["k"],
                [("v", "sum", "sum"), ("v", "min", "min"),
                 ("v", "max", "max"), ("v", "mean", "mean"),
                 ("v", "count", "count")],
                sort_keys=["k"],
            ).to_pandas()
        # unsorted comparison: sort_keys holds on both plans
        assert got["k"].tolist() == want["k"].tolist(), merge
        for c in ("sum", "min", "max", "mean"):
            np.testing.assert_allclose(got[c], want[c], rtol=1e-9,
                                       atol=1e-9, err_msg=f"{merge}:{c}")
        assert got["count"].tolist() == want["count"].tolist()


# --- vectorized matcher == naive token-window scan on random worlds --------

_WORDS = ["alfa", "bravo", "cota", "delta", "eko"]
_name = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(
    lambda ws: " ".join(ws))


@settings(max_examples=50, deadline=None)
@given(st.lists(_name, min_size=1, max_size=6),
       st.lists(st.sampled_from(_WORDS + ["zed", "yom"]),
                min_size=0, max_size=25))
def test_matcher_engines_equivalent(names, doc_words):
    from batch_geocode_ray.stages.matcher import GazetteerMatcher
    from batch_geocode_ray.state.gazetteer import GazetteerIndex
    from .oracle import naive_mentions

    n = len(names)
    gaz = pa.table({
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
    })
    idx = GazetteerIndex.from_table(gaz)
    batch = pa.table({"text": pa.array([" ".join(doc_words), ""])})
    got = GazetteerMatcher(idx)(batch)["mentions"].to_pylist()
    assert got == naive_mentions(batch["text"].to_pylist(), idx)


# --- resolver semantics vs the naive oracle on random worlds ----------------

_PLACES = ["Arbor Vale", "Brim", "Cedar Point", "Arbor", "Delta"]
_CCS = ["US", "FR", None]
_SRCS = ["GM", "OSM"]

gaz_entry = st.tuples(
    st.sampled_from(_PLACES),
    st.floats(-60, 60),            # lat
    st.floats(-170, 170),          # lon
    st.booleans(),                 # has bbox
    st.floats(0.001, 2.0),         # bbox half-size (deg)
    st.sampled_from(_CCS),
    st.integers(1, 10**6),         # population
    st.sampled_from(_SRCS),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(gaz_entry, min_size=1, max_size=6),
       st.lists(st.sampled_from(_PLACES + ["noise", "words"]),
                min_size=0, max_size=8),
       st.sampled_from(["en", "fr", "xx"]))
def test_resolver_matches_oracle_on_random_worlds(entries, words, lang):
    from batch_geocode_ray.config import GEOCODING_SUFFIXES, PipelineConfig
    from batch_geocode_ray.stages.matcher import GazetteerMatcher
    from batch_geocode_ray.stages.resolve import MentionResolver
    from batch_geocode_ray.state.gazetteer import GazetteerIndex

    from .oracle import OracleGazetteer, geocode_page

    gaz = pa.table({
        "gazetteer_id": pa.array(range(len(entries)), pa.int64()),
        "name": pa.array([e[0] for e in entries]),
        "lat": pa.array([e[1] for e in entries], pa.float64()),
        "lon": pa.array([e[2] for e in entries], pa.float64()),
        "bb_n": pa.array([e[1] + e[4] if e[3] else None for e in entries],
                         pa.float64()),
        "bb_s": pa.array([e[1] - e[4] if e[3] else None for e in entries],
                         pa.float64()),
        "bb_e": pa.array([e[2] + e[4] if e[3] else None for e in entries],
                         pa.float64()),
        "bb_w": pa.array([e[2] - e[4] if e[3] else None for e in entries],
                         pa.float64()),
        "cc": pa.array([e[5] for e in entries], pa.string()),
        "type": pa.array(["t"] * len(entries)),
        "population": pa.array([e[6] for e in entries], pa.int64()),
        "source": pa.array([e[7] for e in entries]),
    })
    prior = {"en": frozenset({"US"}), "fr": frozenset({"FR"})}
    text = " and ".join(words)

    idx = GazetteerIndex.from_table(gaz)
    cfg = PipelineConfig(sources=idx.sources)
    batch = pa.table({"url": pa.array(["u"]), "text": pa.array([text]),
                      "lang": pa.array([lang])})
    out = MentionResolver(idx, config=cfg, lang_cc_prior=prior,
                          keep_columns=["url"])(
        GazetteerMatcher(idx)(batch)).to_pylist()[0]

    ogaz = OracleGazetteer(gaz)
    ocfg = PipelineConfig(sources=ogaz.sources)
    want = geocode_page(text, lang, ogaz, prior, ocfg)
    for p in ocfg.wide_prefixes():
        for sfx in GEOCODING_SUFFIXES:
            col = f"{p}_{sfx}"
            w = want.get(col)
            g = out.get(col)
            if isinstance(w, float):
                assert g is not None and math.isclose(g, w, rel_tol=1e-9,
                                                      abs_tol=1e-9), col
            else:
                assert g == w, (col, g, w)
