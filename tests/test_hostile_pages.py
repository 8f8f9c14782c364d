"""Hostile pages never leak into their neighbours: schema-valid pages
with NUL bytes, invalid UTF-8, an unclosed ``<script``, ``<!--`` or
tag, null ``html``/``url``/``lang``, empty html and malformed entities
are mixed into batches of fixture pages, and every row's
``GeocodeFusedStage`` output must equal the output of that row run
alone, with ``verify_extraction`` off and on. (The 50 MB page is left
to its own test: it is too slow for a property test.)"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from batch_geocode_ray.config import PipelineConfig
from batch_geocode_ray.functions.text import extract_text_column
from batch_geocode_ray.pipelines.geocode import GeocodeFusedStage
from batch_geocode_ray.sources.fixtures import (
    LANG_CC_PRIOR,
    generate_pages,
    generate_world,
)
from batch_geocode_ray.stages.knn import FacilityIndex
from batch_geocode_ray.stages.pip import PolygonIndex
from batch_geocode_ray.state.gazetteer import GazetteerIndex

HOSTILE = [
    b"\x00", b"a\x00b", b"\xff\xfe", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80",
    b"<script>var s = '", b"<script", b"<!--", b"<!-- a -", b"<div class=\"",
    b"<p", b"</", b"<", b">", b"&", b"&amp", b"&#", b"&#x;", b"&#xZZ;",
    b"&#99999999;", b"&#0;", b"&;", b"&nbsp", b"&unknown;", b"]]>",
    b"<style>p{", b"<![CDATA[",
]
BENIGN = [b" ", b"<p>", b"</p>", b" near ", b" from ", b"<b>", b"</b>"]


@pytest.fixture(scope="module")
def world():
    w = generate_world()
    return w, GazetteerIndex.from_table(w.gazetteer)


@pytest.fixture(scope="module")
def stages(world):
    w, idx = world
    return {verify: GeocodeFusedStage(
        idx, PipelineConfig(sources=idx.sources), lang_cc_prior=LANG_CC_PRIOR,
        polygons=PolygonIndex(w.admin_polygons),
        facilities=FacilityIndex(w.facilities), with_knn=True,
        verify_extraction=verify) for verify in (False, True)}


@pytest.fixture(scope="module")
def pages(tmp_path_factory, world):
    d = tmp_path_factory.mktemp("hostile_pages")
    files = generate_pages(str(d), 200, seed=17, world=world[0])
    return pa.concat_tables([pq.read_table(f) for f in files])


def hostile_page(names: list[bytes]):
    """A schema-valid page row: html built from hostile and benign
    pieces and gazetteer names (so some rows have mentions), or null;
    ``url`` and ``lang`` sometimes null."""
    piece = st.sampled_from(HOSTILE + BENIGN + names)
    html = st.one_of(st.none(), st.just(b""),
                     st.lists(piece, max_size=12).map(b"".join))
    return st.fixed_dictionaries({
        "html": html,
        "url": st.one_of(st.none(), st.just("http://hostile.example/p")),
        "lang": st.one_of(st.none(), st.sampled_from(["en", "fr", "xx"])),
    })


def _batch(pages: pa.Table, picks: list[int], hostile: list[dict],
           at: list[int]) -> pa.Table:
    """The fixture pages ``picks`` with each hostile row inserted at its
    position; ``text`` is each row's extraction (what the verifying
    stage checks against)."""
    rows = pages.take(pa.array(picks, pa.int64())).to_pylist()
    ts = pages["warc_ts"][0].as_py()
    for h, i in zip(hostile, at):
        rows.insert(i % (len(rows) + 1), {**h, "warc_ts": ts, "text": None})
    t = pa.Table.from_pylist(rows, schema=pages.schema)
    return t.set_column(t.schema.get_field_index("text"), "text",
                        extract_text_column(t["html"]))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_rows_equal_themselves_alone(stages, pages, world, data):
    names = sorted({n.encode() for n in
                    world[0].gazetteer["name"].to_pylist()[:40]})
    picks = data.draw(st.lists(st.integers(0, pages.num_rows - 1),
                               min_size=1, max_size=8))
    hostile = data.draw(st.lists(hostile_page(names), min_size=1,
                                 max_size=5))
    at = data.draw(st.lists(st.integers(0, 20), min_size=len(hostile),
                            max_size=len(hostile)))
    batch = _batch(pages, picks, hostile, at)
    for verify, stage in stages.items():
        whole = stage(batch)
        assert whole.num_rows == batch.num_rows
        for i in range(batch.num_rows):
            alone = stage(batch.slice(i, 1))
            assert whole.slice(i, 1).equals(alone), (verify, i,
                                                     batch["html"][i])
