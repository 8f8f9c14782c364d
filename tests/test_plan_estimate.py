"""Keyed plans are sized from the plan itself.

Pins (a) ``exchange.estimated_bytes`` on Ray's plan objects: a read's
estimate survives ``map_batches`` + ``filter`` + ``select_columns``, a
``union`` sums its sides, a materialized dataset gives its exact
``size_bytes()``, ``from_arrow`` its table's bytes, a :func:`scaled`
map multiplies what is below it, and a source with no size gives
``None``; (b) the estimate executes nothing (a raising UDF in the chain
is never called), so a Ray upgrade that changes the plan objects fails
here loudly; (c) each growth constant matches its stream's measured
ratio, and the edit-distance variant stream scales its plan; (d)
structural guards: ``exchange.py`` calls no
``.materialize()``, every ``.materialize()`` in the package carries a
same-line ``#`` reason, and no function in the package has a parameter
whose name contains ``size_hint`` (each rule with a snippet that shows
it is not vacuous).
"""

import ast
import io
import pathlib
import tokenize

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from batch_geocode_ray.stages import exchange


@pytest.fixture()
def docs(tmp_path):
    t = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                  "text": pa.array([f"document {i} " * 8 for i in range(300)])})
    path = str(tmp_path / "docs.parquet")
    pq.write_table(t, path)
    return rd.read_parquet(path)


def _read_estimate(ds) -> int:
    size = ds._logical_plan.dag.infer_metadata().size_bytes
    assert isinstance(size, int) and size > 0
    return size


def test_estimate_passes_through_maps_filters_and_projections(docs):
    chain = (docs.map_batches(lambda b: b, batch_format="pyarrow")
             .filter(lambda r: r["doc_id"] % 2 == 0)
             .select_columns(["doc_id"]))
    assert exchange.estimated_bytes(chain) == _read_estimate(docs)


def test_estimate_sums_a_union(docs):
    small = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                                    "text": pa.array(["a", "b"])}))
    assert exchange.estimated_bytes(docs.union(small)) == \
        _read_estimate(docs) + exchange.estimated_bytes(small)


def test_estimate_of_materialized_and_from_arrow(docs):
    m = docs.map_batches(lambda b: b.slice(0, 10),
                         batch_format="pyarrow").materialize()
    assert exchange.estimated_bytes(m) == m.size_bytes() > 0
    t = pa.table({"a": pa.array(range(100), pa.int64())})
    assert exchange.estimated_bytes(rd.from_arrow(t)) == t.nbytes


def test_scaled_multiplies_every_plan_built_on_it(docs):
    grown = exchange.scaled(
        docs.map_batches(lambda b: b, batch_format="pyarrow"), 8)
    later = grown.map_batches(lambda b: b, batch_format="pyarrow")
    assert exchange.estimated_bytes(later) == 8 * _read_estimate(docs)
    assert exchange.estimated_bytes(docs) == _read_estimate(docs)
    # a map that keeps a known share of its rows shrinks the estimate
    kept = exchange.scaled(
        docs.map_batches(lambda b: b, batch_format="pyarrow"), 1 / 17)
    assert exchange.estimated_bytes(kept) == int(_read_estimate(docs) / 17)


class _Unsized(Datasource):
    """A source that reports no size."""

    def estimate_inmemory_data_size(self):
        return None

    def get_read_tasks(self, parallelism, **kwargs):
        meta = BlockMetadata(num_rows=1, size_bytes=None, input_files=None,
                             exec_stats=None)
        return [ReadTask(lambda: [pa.table({"k": [1]})], meta)]


def test_unknown_size_is_none_and_runs_the_exchange(monkeypatch):
    ds = rd.read_datasource(_Unsized())
    assert exchange.estimated_bytes(ds) is None
    assert not exchange._probe_small(ds)
    sized = []
    monkeypatch.setattr(exchange, "adaptive_bucket_count",
                        lambda n: sized.append(n) or 4)
    rows = exchange.bucket_exchange(ds, "k", lambda g: g).take_all()
    assert rows == [{"k": 1}] and sized == [None]


def test_estimate_executes_nothing(docs):
    def boom(b):
        raise RuntimeError("the estimate ran the plan")

    chain = docs.map_batches(boom, batch_format="pyarrow").filter(
        lambda r: True)
    assert exchange.estimated_bytes(chain) == _read_estimate(docs)
    with pytest.raises(Exception, match="the estimate ran the plan"):
        chain.take_all()


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------

def _doc_streams():
    from batch_geocode_ray.stages import dedup, substring
    from batch_geocode_ray.stages.stateful import stateful_map_batches

    return {
        "grams": (dedup.GRAM_GROWTH, lambda d: d.map_batches(
            lambda b: dedup._doc_grams(b, "text", "doc_id", 3),
            batch_format="pyarrow")),
        "signatures": (dedup.SIG_GROWTH, lambda d: stateful_map_batches(
            d, dedup.MinHashSignatures(text_col="text", id_col="doc_id",
                                       k=3, include_text=True),
            batch_format="pyarrow")),
        "positions": (substring.POSITION_GROWTH, lambda d: d.map_batches(
            lambda b: substring._lgram_table(b, "text", "doc_id", 40),
            batch_format="pyarrow")),
    }


@pytest.mark.parametrize("stream", ["grams", "signatures", "positions"])
def test_growth_constant_matches_the_stream(stream):
    """Each growth constant is the measured ratio of its stream's
    in-memory bytes to the plan's estimate of the (id, text) read it
    grows from, rounded up: the ratio on the sample documents lies in
    (constant - 1.5, constant]."""
    from batch_geocode_ray.pipelines.queries import _read
    from tests.test_order_contract import SF

    docs = _read(SF, "documents", ["doc_id", "text"])
    growth, build = _doc_streams()[stream]
    ratio = build(docs).materialize().size_bytes() / \
        exchange.estimated_bytes(docs)
    assert growth - 1.5 < ratio <= growth, ratio


def test_edit_distance_sizes_its_variant_stream(monkeypatch):
    """The deletion-variant stream is ~VARIANT_GROWTH x its input: with
    the input estimated below SMALL_COLLAPSE_BYTES but the variant
    stream above it, the exchange plan runs, with the same rows as the
    one-task plan."""
    from batch_geocode_ray.stages import dedup

    t = pa.table({"id": pa.array(range(60), pa.int64()),
                  "name": [f"Supplier#{i % 30:07d}{'x' * (i % 2)}"
                           for i in range(60)]})
    ds = rd.from_arrow(t)
    est = exchange.estimated_bytes(ds)

    def pairs():
        rows = dedup.edit_distance_pairs(ds, "name", "id").take_all()
        return sorted((r["d1"], r["d2"]) for r in rows)

    one_task = pairs()
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES",
                        est * dedup.VARIANT_GROWTH // 2)
    sized = []
    real = exchange.adaptive_bucket_count
    monkeypatch.setattr(exchange, "adaptive_bucket_count",
                        lambda n: sized.append(n) or real(n))
    assert exchange._probe_small(ds)
    assert pairs() == one_task and len(one_task) > 30
    assert sized[0] == est * dedup.VARIANT_GROWTH


# ---------------------------------------------------------------------------
# structural guards
# ---------------------------------------------------------------------------

PKG = pathlib.Path(exchange.__file__).resolve().parents[1]


def _sources():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG).as_posix(), path.read_text()


def materialize_calls(src: str) -> list[int]:
    """Line numbers of every ``.materialize(`` call."""
    return [node.lineno for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "materialize"]


def unexplained_materializes(src: str) -> list[int]:
    """Lines holding a ``.materialize(`` with no ``#`` comment on the
    same line."""
    toks = list(tokenize.generate_tokens(io.StringIO(src).readline))
    commented = {t.start[0] for t in toks if t.type == tokenize.COMMENT}
    return [b.start[0] for a, b, c in zip(toks, toks[1:], toks[2:])
            if a.string == "." and b.string == "materialize"
            and c.string == "(" and b.start[0] not in commented]


def size_hint_params(src: str) -> list[str]:
    """``line name`` of every parameter whose name contains
    ``size_hint``."""
    out = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for p in (a.posonlyargs + a.args + a.kwonlyargs
                      + [x for x in (a.vararg, a.kwarg) if x]):
                if "size_hint" in p.arg:
                    out.append(f"{node.lineno} {p.arg}")
    return out


def test_exchange_calls_no_materialize():
    assert materialize_calls((PKG / "stages/exchange.py").read_text()) == []


def test_every_materialize_says_why():
    offenders = [f"{rel}:{line}" for rel, src in _sources()
                 for line in unexplained_materializes(src)]
    assert offenders == [], ", ".join(offenders)


def test_no_size_hint_parameter():
    offenders = [f"{rel}:{p}" for rel, src in _sources()
                 for p in size_hint_params(src)]
    assert offenders == [], ", ".join(offenders)


def test_guards_are_not_vacuous():
    src = (
        "def _probe_small(ds, size_hint_bytes=None):\n"
        "    m = ds.materialize()\n"
        "    return m, (m.size_bytes() or 0) < 1\n"
        "def use(ds, *, eval_size_hint_bytes):\n"
        "    k = ds.map_batches(f).materialize()  # read twice below\n"
        "    return (lambda size_hint=0: k)()\n")
    assert materialize_calls(src) == [2, 5]
    assert unexplained_materializes(src) == [2]
    assert size_hint_params(src) == ["1 size_hint_bytes",
                                     "4 eval_size_hint_bytes",
                                     "6 size_hint"]
