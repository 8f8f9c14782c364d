"""Targeted parity tests for the reference's vetting/ranking semantics
(query_funcs.py:193-219, :376; batch_geocode.py:29-38) on handcrafted
inputs where the expected answer is computed by hand."""

import math

import numpy as np
import pyarrow as pa
import pytest

from batch_geocode_ray.config import PipelineConfig
from batch_geocode_ray.functions.geo import haversine_km
from batch_geocode_ray.stages.matcher import GazetteerMatcher
from batch_geocode_ray.stages.resolve import MentionResolver
from batch_geocode_ray.state.gazetteer import GazetteerIndex

from .oracle import OracleGazetteer, geocode_page


def gaz_table(rows):
    cols = {
        "gazetteer_id": pa.array([r[0] for r in rows], pa.int64()),
        "name": pa.array([r[1] for r in rows], pa.string()),
        "lat": pa.array([r[2] for r in rows], pa.float64()),
        "lon": pa.array([r[3] for r in rows], pa.float64()),
        "bb_n": pa.array([r[4] for r in rows], pa.float64()),
        "bb_s": pa.array([r[5] for r in rows], pa.float64()),
        "bb_e": pa.array([r[6] for r in rows], pa.float64()),
        "bb_w": pa.array([r[7] for r in rows], pa.float64()),
        "cc": pa.array([r[8] for r in rows], pa.string()),
        "type": pa.array([r[9] for r in rows], pa.string()),
        "population": pa.array([r[10] for r in rows], pa.int64()),
        "source": pa.array([r[11] for r in rows], pa.string()),
    }
    return pa.table(cols)


def run(pages_text, gaz, langs=None, prior=None, cfg=None):
    idx = GazetteerIndex.from_table(gaz)
    cfg = cfg or PipelineConfig(sources=idx.sources)
    batch = pa.table({
        "url": pa.array([f"u{i}" for i in range(len(pages_text))]),
        "text": pa.array(pages_text),
        "lang": pa.array(langs or ["en"] * len(pages_text)),
    })
    matched = GazetteerMatcher(idx)(batch)
    return MentionResolver(idx, config=cfg, lang_cc_prior=prior or {},
                           keep_columns=["url"])(matched).to_pylist()


def test_oversized_buffer_vetted_out():
    # one admin area with a huge bbox (diag >> 15km) -> its prefix is null
    gaz = gaz_table([
        (0, "Bigland", 10.0, 10.0, 12.0, 8.0, 12.0, 8.0, "US", "admin_area", 100, "GM"),
    ])
    (row,) = run(["a story about Bigland today"], gaz)
    assert row["GM1_name"] is None
    assert row["best_name"] is None


def test_small_bbox_admin_survives_and_is_best():
    # bbox diag well under 15 km
    gaz = gaz_table([
        (0, "Tinytown", 10.0, 10.0, 10.02, 9.98, 10.02, 9.98, "US", "admin_area", 100, "GM"),
    ])
    (row,) = run(["news from Tinytown"], gaz)
    assert row["GM1_name"] == "Tinytown"
    assert row["GM1_lat"] == 10.0  # bbox centroid
    assert row["best_name"] == "Vetted"
    assert row["best_type"] == "Composite of 1 geocoded locations"


def test_two_agreeing_sources_composite_best():
    gaz = gaz_table([
        (0, "Sametown", 10.0, 10.0, None, None, None, None, "US", "populated_place", 100, "GM"),
        (1, "Sametown", 10.001, 10.001, None, None, None, None, "US", "populated_place", 100, "OSM"),
    ])
    (row,) = run(["Sametown bulletin"], gaz)
    assert row["GM1_name"] == "Sametown" and row["OSM1_name"] == "Sametown"
    assert row["best_type"] == "Composite of 2 geocoded locations"
    assert abs(row["best_lat"] - 10.0005) < 1e-12
    # best buffer = haversine across the pooled 2-point bbox
    expect = float(haversine_km(10.0, 10.0, 10.001, 10.001))
    assert abs(row["best_buffer"] - expect) < 1e-12


def test_disagreeing_sources_no_best():
    # two far-apart survivors pool to a huge bbox -> no composite best,
    # but both per-source results remain (reference keeps them)
    gaz = gaz_table([
        (0, "Splitville", 10.0, 10.0, None, None, None, None, "US", "populated_place", 100, "GM"),
        (1, "Splitville", 40.0, 40.0, None, None, None, None, "US", "populated_place", 100, "OSM"),
    ])
    (row,) = run(["Splitville report"], gaz)
    assert row["GM1_name"] == "Splitville" and row["OSM1_name"] == "Splitville"
    assert row["best_name"] is None


def test_per_source_topn_population_rank():
    # three same-source candidates; results_per_app=2 keeps the two most
    # populous; rank 1 = biggest population
    gaz = gaz_table([
        (0, "Alpha", 10.0, 10.0, None, None, None, None, "US", "populated_place", 50, "GM"),
        (1, "Beta", 11.0, 11.0, None, None, None, None, "US", "populated_place", 500, "GM"),
        (2, "Gamma", 12.0, 12.0, None, None, None, None, "US", "populated_place", 5, "GM"),
    ])
    (row,) = run(["Alpha then Beta then Gamma"], gaz)
    assert row["GM1_name"] == "Beta"
    assert row["GM2_name"] == "Alpha"
    # Gamma fell off the top-2; and no renumbering happened
    assert "GM3_name" not in row


def test_country_filter_keep_unsure():
    prior = {"en": frozenset({"US"})}
    gaz = gaz_table([
        # wrong-country candidate -> filtered
        (0, "Duoville", 10.0, 10.0, None, None, None, None, "FR", "populated_place", 100, "GM"),
        # no-cc candidate -> kept (OSM keep-unsure rule)
        (1, "Duoville", 20.0, 20.0, None, None, None, None, None, "populated_place", 90, "OSM"),
    ])
    (row,) = run(["Duoville times"], gaz, langs=["en"], prior=prior)
    assert row["GM1_name"] is None
    assert row["OSM1_name"] == "Duoville"


def test_unknown_lang_keeps_everything():
    prior = {"en": frozenset({"US"})}
    gaz = gaz_table([
        (0, "Duoville", 10.0, 10.0, None, None, None, None, "FR", "populated_place", 100, "GM"),
    ])
    (row,) = run(["Duoville gazette"], gaz, langs=["xx"], prior=prior)
    assert row["GM1_name"] == "Duoville"


def test_wide_column_order_reference_rule():
    # case-insensitive sorted prefixes with best first, x suffixes
    # (reference batch_geocode.py:29-38 + utilities.py:42-45)
    cfg = PipelineConfig(sources=["GM", "OSM", "GN", "FG"], results_per_app=2)
    prefixes = cfg.wide_prefixes()
    assert prefixes == ["best", "FG1", "FG2", "GM1", "GM2", "GN1", "GN2",
                        "OSM1", "OSM2"]
    cols = cfg.wide_columns()
    assert cols[:5] == ["best_name", "best_type", "best_lat", "best_long", "best_buffer"]
    assert len(cols) == 9 * 5


def test_no_mentions_all_null_columns_present():
    gaz = gaz_table([
        (0, "Somewhere", 10.0, 10.0, None, None, None, None, "US", "populated_place", 100, "GM"),
    ])
    (row,) = run(["no places are mentioned here"], gaz)
    cfg = PipelineConfig(sources=["GM"])
    for p in cfg.wide_prefixes():
        for s in ("name", "type", "lat", "long", "buffer"):
            assert row[f"{p}_{s}"] is None


def test_multiple_occurrences_resolve_once():
    gaz = gaz_table([
        (0, "Echo City", 10.0, 10.0, None, None, None, None, "US", "populated_place", 100, "GM"),
    ])
    (row,) = run(["Echo City again Echo City and Echo City"], gaz)
    assert row["GM1_name"] == "Echo City"
    assert row["GM2_name"] is None  # not duplicated into rank 2
    assert row["best_type"] == "Composite of 1 geocoded locations"


# --- one geometry per entry: the bbox extent, degenerate at a point ---------

def _wide_like_oracle(text, gaz, want):
    """``run`` over one page, checked against ``tests/oracle.geocode_page``
    column by column and against the hand values ``want``."""
    (row,) = run([text], gaz)
    ogaz = OracleGazetteer(gaz)
    cfg = PipelineConfig(sources=ogaz.sources)
    oracle = geocode_page(text, "en", ogaz, None, cfg)
    for col in cfg.wide_columns():
        w, g = oracle.get(col), row[col]
        if isinstance(w, float):
            assert g is not None and math.isclose(g, w, rel_tol=1e-12), col
        else:
            assert g == w, (col, g, w)
    for col, w in want.items():
        if isinstance(w, float):
            assert math.isclose(row[col], w, rel_tol=1e-12), (col, row[col], w)
        else:
            assert row[col] == w, (col, row[col], w)
    return row


def test_bbox_entry_reports_its_box_not_its_point():
    """A bbox entry's lat/lon lie far from its box: it still reports the
    box centre, and pools its two corners (not its centre, not its
    point) with a point entry into ``best``."""
    gaz = gaz_table([
        (0, "Boxford", 30.0, -40.0, 10.02, 9.98, 20.04, 19.96, "US", "admin_area", 100, "GM"),
        (1, "Pointon", 10.01, 20.01, None, None, None, None, "US", "populated_place", 90, "OSM"),
    ])
    _wide_like_oracle("Boxford meets Pointon", gaz, {
        "GM1_lat": 10.0, "GM1_long": 20.0,
        "GM1_buffer": float(haversine_km(19.96, 9.98, 20.04, 10.02)),
        "OSM1_lat": 10.01, "OSM1_long": 20.01,
        "best_type": "Composite of 2 geocoded locations",
        "best_lat": (9.98 + 10.02 + 10.01) / 3,
        "best_long": (19.96 + 20.04 + 20.01) / 3,
        "best_buffer": float(haversine_km(19.96, 9.98, 20.04, 10.02)),
    })


def test_zero_extent_bbox_pools_two_points():
    """A bbox with ``bb_n == bb_s`` and ``bb_e == bb_w`` at A is still a
    bbox: it pools A twice, so with a point entry at B the composite is
    (2A + B) / 3, though its extent equals a point's."""
    a_lat, a_lon, b_lat, b_lon = 10.0, 20.0, 10.03, 20.03
    gaz = gaz_table([
        (0, "Flatbox", 50.0, 50.0, a_lat, a_lat, a_lon, a_lon, "US", "admin_area", 100, "GM"),
        (1, "Pointon", b_lat, b_lon, None, None, None, None, "US", "populated_place", 90, "OSM"),
    ])
    _wide_like_oracle("Flatbox and Pointon", gaz, {
        "GM1_lat": a_lat, "GM1_long": a_lon, "GM1_buffer": 0.0,
        "best_name": "Vetted",
        "best_type": "Composite of 2 geocoded locations",
        "best_lat": (2 * a_lat + b_lat) / 3,
        "best_long": (2 * a_lon + b_lon) / 3,
        "best_buffer": float(haversine_km(a_lon, a_lat, b_lon, b_lat)),
    })


# --- gazetteer rows the resolver would mis-answer silently -------------------

_ALPHA = (0, "Alpha", 10.0, 10.0, None, None, None, None, "US", "populated_place", 100, "GM")


@pytest.mark.parametrize("col,bad", [(2, np.nan), (2, np.inf), (3, -np.inf), (3, np.nan)],
                         ids=["nan_lat", "inf_lat", "inf_lon", "nan_lon"])
def test_non_finite_coordinate_raises(col, bad):
    # a NaN buffer fails vetting, so the entry would drop out unnoticed
    # and the page would gain a composite best of the others
    row = list(_ALPHA)
    row[0], row[col] = 3, bad
    with pytest.raises(ValueError, match=r"gazetteer_id \[3\] has a NaN/inf lat/lon"):
        GazetteerIndex.from_table(gaz_table([_ALPHA, tuple(row)]))


@pytest.mark.parametrize("box", [
    (10.1, 9.9, 10.1, None),                # partly null
    (10.1, 9.9, np.inf, 9.9),               # non-finite
    (np.inf, None, None, None),             # non-finite, rest null
], ids=["partly_null", "inf", "inf_rest_null"])
def test_inconsistent_bbox_raises(box):
    row = (5, "Boxed", 10.0, 10.0, *box, "US", "admin_area", 100, "GM")
    with pytest.raises(ValueError, match=r"gazetteer_id \[5\] has a bbox"):
        GazetteerIndex.from_table(gaz_table([_ALPHA, row]))


def test_duplicate_gazetteer_id_raises():
    # one id -> entry map would keep only the last: "Alpha" would vanish
    gaz = gaz_table([
        (7, "Alpha", 10.0, 10.0, None, None, None, None, "US", "populated_place", 100, "GM"),
        (7, "Beta", 10.01, 10.01, None, None, None, None, "US", "populated_place", 50, "GM"),
        (8, "Gamma", 11.0, 11.0, None, None, None, None, "US", "populated_place", 10, "GM"),
    ])
    with pytest.raises(ValueError, match=r"gazetteer_id \[7\] is duplicated"):
        GazetteerIndex.from_table(gaz)


def test_empty_gazetteer_yields_null_rows():
    from batch_geocode_ray.pipelines.geocode import GeocodeFusedStage

    cfg = PipelineConfig(sources=["GM"])
    stage = GeocodeFusedStage(GazetteerIndex.from_table(gaz_table([])), cfg,
                              lang_cc_prior={})
    out = stage(pa.table({
        "url": ["u0", "u1"], "warc_ts": ["t", "t"], "lang": ["en", None],
        "html": ["<p>We visited Alpha and Beta</p>", ""],
    }))
    assert out.num_rows == 2
    for col in cfg.wide_columns() + ["hex_cell_r7", "s2_cell"]:
        assert out[col].null_count == 2, col


def test_pipeline_wide_columns_follow_gazetteer_sources(tmp_path):
    """The CLI passes a config built from -r/-b only, so its sources are
    the defaults; a gazetteer source outside them still gets its
    ``{src}{rank}_*`` columns, as it pools into ``best``."""
    import pyarrow.parquet as pq

    from batch_geocode_ray.pipelines.geocode import build_geocode_pipeline

    gaz = gaz_table([
        (1, "Alpha", 10.0, 10.0, None, None, None, None, None,
         "populated_place", 100, "WOF"),
        (2, "Beta", 10.01, 10.01, None, None, None, None, None,
         "populated_place", 50, "GN"),
    ])
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({
        "url": ["u0"], "warc_ts": ["t"], "lang": ["en"],
        "html": ["<p>Alpha and Beta</p>"],
    }), path)
    cfg = PipelineConfig(results_per_app=2, max_buffer=15.0)  # as run.py
    (row,) = build_geocode_pipeline(path, gaz, cfg=cfg).take_all()
    named = {c for c, v in row.items()
             if c.endswith("_name") and c != "best_name" and v is not None}
    assert named == {"GN1_name", "WOF1_name"}
    assert row["best_name"] == "Vetted"
