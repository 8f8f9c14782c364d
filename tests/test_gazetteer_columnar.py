"""The columnar gazetteer at scale: a seeded ~10^5-entry gazetteer
(names of 1-6 tokens over a shared vocabulary, homonyms across
countries and sources) matches and resolves like the naive oracle; the
index pickles as a fixed set of buffers; names that fold to no token
are rejected; and the fused path builds no Python object per row."""

import ast
import dataclasses
import math
import pathlib
import pickle

import numpy as np
import pyarrow as pa
import pytest

from batch_geocode_ray.config import GEOCODING_SUFFIXES, PipelineConfig
from batch_geocode_ray.sources.fixtures import LANG_CC_PRIOR
from batch_geocode_ray.stages.matcher import GazetteerMatcher
from batch_geocode_ray.stages.resolve import MentionResolver
from batch_geocode_ray.state.gazetteer import GazetteerIndex

from .oracle import OracleGazetteer, geocode_page, naive_mentions

_LANGS = sorted(LANG_CC_PRIOR) + ["xx"]
_CCS = sorted(set().union(*LANG_CC_PRIOR.values()))[:12] + ["ZZ", None]
_SOURCES = ["FG", "GM", "GN", "OSM"]


def _vocab(rng, n):
    """Distinct lowercase tokens of 2-19 bytes (past 8 bytes a token is
    keyed by its hash), some with digits."""
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
    out = set()
    while len(out) < n:
        k = int(rng.integers(2, 20))
        out.add("".join(alpha[rng.integers(0, 26 if rng.random() < 0.8 else 36, k)]))
    return sorted(out)


def big_gazetteer(n, seed=7):
    """A seeded gazetteer of ``n`` entries, its shared token vocabulary,
    and a filler vocabulary no name uses. One entry in four is a
    homonym: an earlier entry's name with its own place, country and
    source. The others are 1-6 tokens over a shared vocabulary of ~n/30
    tokens, except one in ten built of tokens no other name has, in
    mixed case with punctuation between tokens."""
    rng = np.random.default_rng(seed)
    n_shared = max(50, n // 30)
    words = _vocab(rng, n_shared + 500 + n // 3 + 30)
    rng.shuffle(words)
    vocab, filler, own = words[:n_shared], words[n_shared:n_shared + 500], \
        iter(words[n_shared + 500:])
    names, unique = [], []
    for _ in range(n):
        if names and rng.random() < 0.25:
            names.append(names[int(rng.integers(len(names)))])
            continue
        if rng.random() < 0.1:
            unique.append(len(names))
            toks = [next(own) for _ in range(int(rng.integers(1, 4)))]
        else:
            toks = [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 7)))]
        toks = [t.capitalize() if rng.random() < 0.3 else t for t in toks]
        names.append(str(rng.choice([" ", "-", ", "])).join(toks))
    lat = rng.uniform(-60, 60, n)
    lon = rng.uniform(-170, 170, n)
    box = rng.random(n) < 0.4
    half = rng.choice([0.01, 0.05, 0.3], n)   # 0.3 deg boxes fail vetting
    bb = [np.where(box, v, np.nan) for v in (lat + half, lat - half, lon + half, lon - half)]
    table = pa.table({
        "gazetteer_id": pa.array(rng.permutation(n) * 7 + 3, pa.int64()),
        "name": pa.array(names, pa.string()),
        "lat": lat, "lon": lon,
        "bb_n": pa.array(bb[0], from_pandas=True), "bb_s": pa.array(bb[1], from_pandas=True),
        "bb_e": pa.array(bb[2], from_pandas=True), "bb_w": pa.array(bb[3], from_pandas=True),
        "cc": pa.array([_CCS[i] for i in rng.integers(0, len(_CCS), n)], pa.string()),
        "type": pa.array([f"t{i}" for i in rng.integers(0, 5, n)], pa.string()),
        "population": pa.array(rng.integers(0, 50, n), pa.int64()),   # many ties
        "source": pa.array([_SOURCES[i] for i in rng.integers(0, 4, n)], pa.string()),
    })
    return table, vocab, filler, unique


def _pages(gaz, vocab, filler, unique, n_pages, seed=11):
    """Half the pages mix filler and shared tokens with 0-4 gazetteer
    names; the other half plant one name of unshared tokens in filler,
    so their candidates can pool into a vetted best."""
    rng = np.random.default_rng(seed)
    names = gaz["name"].to_pylist()
    texts = []
    for p in range(n_pages):
        words = [filler[i] for i in rng.integers(0, len(filler), int(rng.integers(5, 40)))]
        if p % 2:
            planted = [names[unique[int(rng.integers(len(unique)))]]]
        else:
            words += [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(0, 10)))]
            rng.shuffle(words)
            planted = [names[int(rng.integers(len(names)))]
                       for _ in range(int(rng.integers(0, 5)))]
        for name in planted:
            at = int(rng.integers(0, len(words) + 1))
            words.insert(at, name.upper() if rng.random() < 0.2 else name)
        texts.append(" ".join(words) + ".")
    langs = [_LANGS[i] for i in rng.integers(0, len(_LANGS), n_pages)]
    return texts, langs


def test_hundred_thousand_entries_match_and_resolve_like_oracle():
    gaz, *vocabs = big_gazetteer(100_000)
    idx = GazetteerIndex.from_table(gaz)
    texts, langs = _pages(gaz, *vocabs, 300)
    batch = pa.table({"url": pa.array([f"u{i}" for i in range(len(texts))]),
                      "text": pa.array(texts), "lang": pa.array(langs)})

    matched = GazetteerMatcher(idx)(batch)
    got = matched["mentions"].to_pylist()
    assert got == naive_mentions(texts, idx)
    assert sum(map(len, got)) > 500
    assert any(m["end"] - m["start"] == 6 for ms in got for m in ms)

    cfg = PipelineConfig(sources=idx.sources)
    out = MentionResolver(idx, config=cfg, lang_cc_prior=LANG_CC_PRIOR,
                          keep_columns=["url"])(matched).to_pylist()
    ogaz = OracleGazetteer(gaz)
    assert ogaz.sources == idx.sources
    n_best = 0
    for text, lang, row in zip(texts, langs, out):
        want = geocode_page(text, lang, ogaz, LANG_CC_PRIOR, cfg)
        n_best += "best_lat" in want
        for p in cfg.wide_prefixes():
            for sfx in GEOCODING_SUFFIXES:
                col = f"{p}_{sfx}"
                w, g = want.get(col), row[col]
                if isinstance(w, float):
                    assert g is not None and math.isclose(g, w, rel_tol=1e-9,
                                                          abs_tol=1e-9), col
                else:
                    assert g == w, (col, g, w)
    assert n_best > 30


def test_pickle_is_a_fixed_set_of_buffers():
    """The index reaches workers zero-copy: its protocol-5 pickle is a
    set of out-of-band buffers whose count does not grow with the
    entry count (a per-entry Python list pickles in band, in full)."""
    counts = []
    for n in (100, 10_000):
        idx = GazetteerIndex.from_table(big_gazetteer(n)[0])
        bufs = []
        data = pickle.dumps(idx, protocol=5, buffer_callback=bufs.append)
        counts.append(len(bufs))
        assert len(data) < 4096, len(data)
        back = pickle.loads(data, buffers=bufs)
        text = pa.table({"text": idx.name.slice(0, 20)})
        assert (GazetteerMatcher(back)(text).equals(GazetteerMatcher(idx)(text)))
    assert counts[0] == counts[1], counts


def _oob_bytes(obj) -> int:
    bufs = []
    pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    return sum(b.raw().nbytes for b in bufs)


def test_resolver_ships_no_per_entry_array():
    """The index holds each per-entry fact once: one bbox extent (no
    ``lat``/``lon`` beside it), and the resolver ships nothing per entry
    beyond its index, so its out-of-band bytes past the index's are the
    same at any entry count."""
    fields = {f.name for f in dataclasses.fields(GazetteerIndex)}
    assert not fields & {"lat", "lon"}, fields
    own = []
    for n in (100, 10_000):
        idx = GazetteerIndex.from_table(big_gazetteer(n)[0])
        res = MentionResolver(idx, config=PipelineConfig(sources=idx.sources),
                              lang_cc_prior=LANG_CC_PRIOR, keep_columns=["url"])
        own.append(_oob_bytes(res) - _oob_bytes(idx))
    assert own[0] == own[1], own


def test_index_is_in_gazetteer_id_order():
    """``from_table`` orders the entries by ``gazetteer_id``, so a
    row-shuffled copy of the table builds the same index, field by
    field, and matches and resolves the same pages alike."""
    gaz, *vocabs = big_gazetteer(10_000)
    shuffled = gaz.take(np.random.default_rng(3).permutation(gaz.num_rows))
    a, b = GazetteerIndex.from_table(gaz), GazetteerIndex.from_table(shuffled)
    assert (np.diff(a.ids) > 0).all()
    for f in dataclasses.fields(GazetteerIndex):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif isinstance(x, pa.Array):
            assert x.equals(y), f.name
        else:
            assert x == y, f.name

    texts, langs = _pages(gaz, *vocabs, 200)
    batch = pa.table({"url": pa.array([f"u{i}" for i in range(len(texts))]),
                      "text": pa.array(texts), "lang": pa.array(langs)})
    out = []
    for idx in (a, b):
        matched = GazetteerMatcher(idx)(batch)
        out.append((matched, MentionResolver(
            idx, config=PipelineConfig(sources=idx.sources),
            lang_cc_prior=LANG_CC_PRIOR, keep_columns=["url"])(matched)))
    assert out[0][0].equals(out[1][0])
    assert out[0][1].equals(out[1][1])
    assert out[0][1]["best_lat"].null_count < len(texts)


def _gaz_table(names):
    n = len(names)
    return pa.table({
        "gazetteer_id": pa.array(range(10, 10 + n), pa.int64()),
        "name": pa.array(names, pa.string()),
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


def test_name_without_a_token_is_rejected():
    """A name with no [A-Za-z0-9] run could never match, and a null name
    has no tokens at all: both are named, not skipped."""
    with pytest.raises(ValueError, match=r"gazetteer_id \[11, 13\] has a null name "
                                         r"or one with no \[A-Za-z0-9\] token"):
        GazetteerIndex.from_table(_gaz_table(["Tokyo", "東京", "Köln", None]))


def test_null_source_is_rejected():
    """A null source has no ``{source}{rank}`` columns to fill."""
    gaz = _gaz_table(["Tokyo", "Kyoto"])
    gaz = gaz.set_column(gaz.schema.get_field_index("source"), "source",
                         pa.array(["GM", None]))
    with pytest.raises(ValueError, match=r"gazetteer_id \[11\] has a null source"):
        GazetteerIndex.from_table(gaz)


def test_fixture_gazetteers_all_have_tokens():
    from batch_geocode_ray.pipelines.queries import _DOC_GAZETTEER
    from batch_geocode_ray.sources.fixtures import generate_world

    for seed in (1, 42, 201):
        GazetteerIndex.from_table(generate_world(seed).gazetteer)
    GazetteerIndex.from_table(_gaz_table(_DOC_GAZETTEER))


# --- no per-row Python on the fused path -------------------------------------

_PKG = pathlib.Path(__file__).resolve().parents[1] / "batch_geocode_ray"
_FUSED_PATH = ["state/gazetteer.py", "stages/matcher.py", "stages/resolve.py",
               "stages/pip.py", "stages/knn.py", "pipelines/geocode.py"]


def _per_row_python(src: str) -> list[int]:
    """Lines of ``.to_pylist()``/``.tolist()`` calls outside a ``raise``
    statement, and of ``dtype=object``."""
    tree = ast.parse(src)
    in_raise = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise)
                for n in ast.walk(r)}
    bad = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_pylist", "tolist")
                and id(node) not in in_raise):
            bad.append(node.lineno)
        if (isinstance(node, ast.keyword) and node.arg == "dtype"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            bad.append(node.value.lineno)
    return sorted(bad)


def test_per_row_python_guard_is_not_vacuous():
    src = "\n".join([
        "a = col.to_pylist()",
        "b = np.array(x, dtype=object)",
        "if bad.any():",
        "    raise ValueError(f'{ids[bad].tolist()}')",
        "c = arr.tolist()",
        "d = np.full(3, None, dtype=object)",
    ])
    assert _per_row_python(src) == [1, 2, 5, 6]


@pytest.mark.parametrize("rel", _FUSED_PATH)
def test_fused_path_builds_no_per_row_python(rel):
    assert _per_row_python((_PKG / rel).read_text()) == [], rel


def test_windows_builds_no_per_row_python():
    """The per-key windows and the token scan stay vectorized too."""
    src = (_PKG / "stages/windows.py").read_text()
    assert _per_row_python(src) == []
    assert ".as_py(" not in src and "gather" not in src


def test_span_cut_builds_no_per_row_python():
    """q74's coverage and q77's cut stay vectorized: both ops and the
    kernels they run (``duplicate_substring_pairs``' verify is out of
    scope), and no interval is packed into bytes."""
    src = (_PKG / "stages/substring.py").read_text()
    fns = {n.name: ast.get_source_segment(src, n)
           for n in ast.parse(src).body if isinstance(n, ast.FunctionDef)}
    for name in ("duplicate_span_coverage", "cut_duplicate_spans",
                 "_shared", "_spans", "_cut", "_utf8", "_lgram_table"):
        assert _per_row_python(fns[name]) == [], name
        assert "tobytes" not in fns[name], name
