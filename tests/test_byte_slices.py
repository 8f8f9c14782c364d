"""The byte kernel runs per row slice: the fused stage and
``GazetteerMatcher.__call__`` tokenize and look up the vocab over
zero-copy row slices of at most ``functions/text.SLICE_BYTES`` data
bytes, then run the phrase windows and every later layer once per
block. Slicing must not change a byte of output, must bound the block's
NumPy working set, and the vocab lookup must not be rebuilt per call."""

import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import batch_geocode_ray.functions.text as text
from batch_geocode_ray.config import PipelineConfig
from batch_geocode_ray.functions.text import (
    extract_text_column,
    extract_text_py,
    html_token_runs,
    row_slices,
)
from batch_geocode_ray.pipelines.geocode import GeocodeFusedStage
from batch_geocode_ray.sources.fixtures import (
    LANG_CC_PRIOR,
    generate_pages,
    generate_world,
)
from batch_geocode_ray.stages.knn import FacilityIndex
from batch_geocode_ray.stages.matcher import GazetteerMatcher
from batch_geocode_ray.stages.pip import PolygonIndex
from batch_geocode_ray.state.gazetteer import GazetteerIndex

from .oracle import naive_mentions


@pytest.fixture(scope="module")
def world():
    w = generate_world()
    idx = GazetteerIndex.from_table(w.gazetteer)
    return w, idx


def _stage(world, verify: bool) -> GeocodeFusedStage:
    w, idx = world
    return GeocodeFusedStage(
        idx, PipelineConfig(sources=idx.sources), lang_cc_prior=LANG_CC_PRIOR,
        polygons=PolygonIndex(w.admin_polygons),
        facilities=FacilityIndex(w.facilities), with_knn=True,
        verify_extraction=verify)


@pytest.fixture(scope="module")
def pages(tmp_path_factory, world):
    d = tmp_path_factory.mktemp("pages201")
    files = generate_pages(str(d), 10_000, seed=201, world=world[0])
    return pa.concat_tables([pq.read_table(f) for f in files])


def _hostile_batch(pages: pa.Table) -> pa.Table:
    """400 fixture pages plus a null, an empty and a tag-only html row
    and one row of 60 pages' html, as three html chunks; ``text`` is
    the extraction of each row."""
    t = pages.slice(0, 400)
    html = t["html"].to_pylist()
    html[7], html[8], html[9] = None, b"", b"<b></b>"
    html[200] = b" ".join(pages["html"].to_pylist()[1000:1060])
    html = pa.array(html, pa.binary())
    t = t.set_column(t.schema.get_field_index("html"), "html", html)
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     extract_text_column(html))
    return pa.Table.from_batches(t.to_batches(max_chunksize=150))


def _between_row_sizes(col: pa.ChunkedArray) -> int:
    """A budget of about three typical rows, below the largest row."""
    sizes = np.asarray(pc.binary_length(col).fill_null(0))
    budget = 3 * int(np.median(sizes))
    assert budget < sizes.max()
    return budget


def test_row_slices_are_zero_copy_and_within_budget(pages, monkeypatch):
    col = _hostile_batch(pages)["html"]
    assert col.num_chunks == 3
    for budget in (1, _between_row_sizes(col), 1 << 30):
        monkeypatch.setattr(text, "SLICE_BYTES", budget)
        parts = list(row_slices(col))
        assert pa.chunked_array(parts).equals(col)
        chunk_data = {c.buffers()[2].address for c in col.chunks}
        for p in parts:
            size = pc.sum(pc.binary_length(p)).as_py() or 0
            assert len(p) == 1 or size <= budget
            # a view into one chunk's data buffer, not a copy
            assert p.buffers()[2].address in chunk_data
        if budget == 1 << 30:
            assert len(parts) == col.num_chunks


@pytest.mark.parametrize("verify", [False, True])
def test_fused_stage_equal_at_any_budget(world, pages, verify, monkeypatch):
    batch = _hostile_batch(pages)
    if not verify:
        batch = batch.drop_columns(["text"])
    stage = _stage(world, verify)
    want = stage(batch)
    assert want["best_name"].null_count < batch.num_rows - 50
    largest = int(pc.max(pc.binary_length(batch["html"])).as_py())
    for budget in (1, _between_row_sizes(batch["html"])):
        monkeypatch.setattr(text, "SLICE_BYTES", budget)
        seen = []
        real = text._padded_bytes

        def spy(col):
            buf, offs = real(col)
            seen.append(int(offs[-1]))
            return buf, offs

        monkeypatch.setattr(text, "_padded_bytes", spy)
        assert stage(batch).equals(want)
        # every byte-kernel call copies one slice, never the column
        assert len(seen) > 3 and max(seen) <= max(budget, largest)
        monkeypatch.setattr(text, "_padded_bytes", real)


def test_matcher_equal_at_any_budget_and_to_naive_scan(world, pages, monkeypatch):
    idx = world[1]
    matcher = GazetteerMatcher(idx)
    batch = _hostile_batch(pages).drop_columns(["html"])
    want = matcher(batch)["mentions"]
    texts = [None if h is None else extract_text_py(h)
             for h in _hostile_batch(pages)["html"].to_pylist()]
    assert want.to_pylist() == naive_mentions(texts, idx)
    assert sum(map(len, want.to_pylist())) > 50
    stage_mentions = []

    class Probe(GazetteerMatcher):
        def sliced_mentions(self, slices):
            out = super().sliced_mentions(slices)
            stage_mentions.append(out)
            return out

    for budget in (1, _between_row_sizes(_hostile_batch(pages)["html"])):
        monkeypatch.setattr(text, "SLICE_BYTES", budget)
        assert matcher(batch)["mentions"].equals(want)
        # the fused stage's html path gives the text path's mentions
        stage = _stage(world, False)
        stage.matcher = Probe(idx)
        stage(_hostile_batch(pages).drop_columns(["text"]))
        assert stage_mentions[-1].equals(want.combine_chunks())


def test_verify_names_the_same_urls_across_slices(world, pages, monkeypatch):
    batch = _hostile_batch(pages)
    wrong = batch["text"].to_pylist()
    bad = [20, 210, 390]   # one in each html chunk
    for i in bad:
        wrong[i] = "not the extraction"
    batch = batch.set_column(batch.schema.get_field_index("text"), "text",
                             pa.array(wrong))
    stage = _stage(world, True)
    urls = [batch["url"][i].as_py() for i in bad]
    for budget in (1 << 30, 1, _between_row_sizes(batch["html"])):
        monkeypatch.setattr(text, "SLICE_BYTES", budget)
        with pytest.raises(AssertionError) as err:
            stage(batch)
        assert f"extract_text mismatch vs oracle for urls: {urls}" in str(err.value)


def test_stage_numpy_peak_bounded_by_html_bytes(world, pages):
    """On a block of >= 20 MB of html the stage's NumPy peak stays
    within 4x the html bytes (whole-block tokenizing took ~9.3x)."""
    block = pa.concat_tables([pages.drop_columns(["text"])] * 4).combine_chunks()
    html_bytes = pc.sum(pc.binary_length(block["html"])).as_py()
    assert html_bytes >= 20e6
    stage = _stage(world, False)
    stage(block.slice(0, 100))
    tracemalloc.start()
    try:
        out = stage(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_rows == block.num_rows
    assert peak <= 4 * html_bytes, (peak / 1e6, html_bytes / 1e6)


def _index_in_calls(monkeypatch) -> list[int]:
    """Spy on ``pc.index_in``/``pc.is_in``: the value-set size of each call."""
    calls: list[int] = []
    for name in ("index_in", "is_in"):
        real = getattr(pc, name)

        def spy(values, *args, _real=real, **kwargs):
            vs = kwargs.get("value_set", args[0] if args else None)
            calls.append(len(vs) if vs is not None else -1)
            return _real(values, *args, **kwargs)

        monkeypatch.setattr(pc, name, spy)
    return calls


def test_mentions_never_hand_the_vocab_to_arrow(world, pages, monkeypatch):
    """The vocab lookup is a hash table built once in ``__init__``: no
    call passes the vocab to Arrow's ``index_in``/``is_in``, which
    rebuild their hash set on every call."""
    matcher = GazetteerMatcher(world[1])
    batch = _hostile_batch(pages)
    calls = _index_in_calls(monkeypatch)
    got = matcher(batch.drop_columns(["html"]))["mentions"]
    html = matcher.sliced_mentions(map(html_token_runs, row_slices(batch["html"])))
    assert html.equals(matcher.mentions(html_token_runs(batch["html"])))
    assert sum(map(len, got.to_pylist())) > 50
    assert calls == []


def test_vocab_guard_is_not_vacuous(world, pages, monkeypatch):
    """The spy above flags a matcher that probes Arrow's hash set of
    the vocab keys on every call."""
    base = GazetteerMatcher(world[1])

    class ArrowLookup(GazetteerMatcher):
        def _vocab_codes(self, runs):
            keys = pa.array(np.asarray(self.vocab), pa.uint64())
            pc.index_in(pa.array([], pa.uint64()), value_set=keys)
            return super()._vocab_codes(runs)

    probe = ArrowLookup(world[1])
    calls = _index_in_calls(monkeypatch)
    probe(_hostile_batch(pages).drop_columns(["html"]))
    assert calls and set(calls) == {len(base.vocab)}
