"""exchange.bucket_exchange: the one keyed shuffle.

Pins (a) the collapsed one-task plan and the forced distributed plan
give the same rows for integer, string, large_string, timestamp and
multi-column keys, (b) an unsupported key type raises TypeError naming
the column on both plans, (c) the group fn never sees the exchange's
bucket column, also when the rows carry their own ``_bucket``, (d)
forcing ``SMALL_COLLAPSE_BYTES = 0`` really reaches the shuffle, (e)
``.groupby(`` and ``.map_groups(`` appear in the package only inside
``exchange._exchange``, (f) no package module binds a copy of the
exchange thresholds with ``from ... import``, (g) no function in the
package takes or passes a ``merge`` plan option: every grouped merge
measures its input through the exchange, and (h) no Ray sort-based
aggregate remains: keyed combines go through
``aggregates.grouped_aggregate``.
"""

import ast
import datetime as dt
import pathlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from batch_geocode_ray.stages import exchange


def per_key(g: pa.Table) -> pa.Table:
    """Bucket-independent group fn: one row per key, plus the columns
    the fn was handed."""
    out = g.group_by("k").aggregate([("v", "sum"), ("v", "count")])
    return out.append_column(
        "seen", pa.array([",".join(g.column_names)] * out.num_rows))


def null_first(row):
    """Sort key for rows whose first field may be null."""
    return (row[0] is not None,) + tuple(row)


def run(ds, monkeypatch, distributed: bool):
    """Rows of ``bucket_exchange(ds, "k", per_key)`` and whether the
    run sized a shuffle."""
    calls = []
    real = exchange.adaptive_bucket_count

    def spy(size_bytes, *a, **kw):
        calls.append(size_bytes)
        return real(size_bytes, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(exchange, "adaptive_bucket_count", spy)
        if distributed:
            m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
        rows = sorted(((r["k"], r["v_sum"], r["v_count"], r["seen"])
                       for r in exchange.bucket_exchange(ds, "k", per_key)
                       .take_all()), key=null_first)
    return rows, bool(calls)


def _check_both_plans(keys, key_type, monkeypatch):
    rng = np.random.RandomState(5)
    v = rng.randint(0, 100, len(keys))
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, key_type),
        "v": pa.array(v, pa.int64()),
    })).repartition(6)  # every key spans several input blocks

    collapsed, shuffled_c = run(ds, monkeypatch, distributed=False)
    distributed, shuffled_d = run(ds, monkeypatch, distributed=True)
    assert not shuffled_c and shuffled_d
    assert collapsed == distributed
    # one output row per key means every key's rows met in one group
    want = {}
    for k, x in zip(keys, v.tolist()):
        s, c = want.get(k, (0, 0))
        want[k] = (s + x, c + 1)
    assert [(k, s, c) for k, s, c, _ in distributed] == \
        sorted(((k, s, c) for k, (s, c) in want.items()), key=null_first)
    assert {seen for *_, seen in collapsed + distributed} == {"k,v"}


def test_int64_keys_both_plans(monkeypatch):
    base = [-(2 ** 62), -7, -1, 0, 1, 2 ** 53 + 1, 2 ** 62 + 3,
            2 ** 63 - 1, -(2 ** 63)]
    keys = [base[i % len(base)] for i in range(300)]
    _check_both_plans(keys, pa.int64(), monkeypatch)


@pytest.mark.parametrize("key_type", [pa.string(), pa.large_string()])
def test_string_keys_both_plans(key_type, monkeypatch):
    words = ["en", "de", "fr", "", "ja", "a longer key", "zz"]
    keys = [words[(i * 5) % len(words)] for i in range(200)]
    _check_both_plans(keys, key_type, monkeypatch)


def test_timestamp_keys_both_plans(monkeypatch):
    base = dt.datetime(2024, 3, 1)
    keys = [None if i % 11 == 0 else base + dt.timedelta(minutes=15 * (i % 9))
            for i in range(250)]
    _check_both_plans(keys, pa.timestamp("us"), monkeypatch)


def per_pair(g: pa.Table) -> pa.Table:
    out = g.group_by(["a", "_bucket"]).aggregate([("v", "sum")])
    return out.append_column(
        "seen", pa.array([",".join(g.column_names)] * out.num_rows))


def test_list_key_both_plans(monkeypatch):
    """A (string, int64) key co-locates each PAIR, also when the rows
    carry a column of their own named ``_bucket``."""
    rng = np.random.RandomState(8)
    a = rng.choice(["x", "y", "z"], 400)
    bk = rng.randint(0, 5, 400)
    v = rng.randint(0, 50, 400)
    ds = rd.from_arrow(pa.table({
        "a": pa.array(a), "_bucket": pa.array(bk, pa.int64()),
        "v": pa.array(v, pa.int64())})).repartition(6)

    def rows(distributed):
        with monkeypatch.context() as m:
            if distributed:
                m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
            return sorted(tuple(r.values()) for r in exchange.bucket_exchange(
                ds, ["a", "_bucket"], per_pair).take_all())

    collapsed, distributed = rows(False), rows(True)
    assert collapsed == distributed
    want = {}
    for x, y, z in zip(a.tolist(), bk.tolist(), v.tolist()):
        want[(x, y)] = want.get((x, y), 0) + z
    assert [(x, y, s) for x, y, s, _ in distributed] == \
        sorted((x, y, s) for (x, y), s in want.items())
    assert {seen for *_, seen in distributed} == {"a,_bucket,v"}


@pytest.mark.parametrize("distributed", [False, True])
@pytest.mark.parametrize("col", [
    pa.array([0.5, 1.5, 0.5], pa.float64()),
    pa.array([[1], [2], [1]], pa.list_(pa.int64())),
])
def test_unsupported_key_type_raises(col, distributed, monkeypatch):
    if distributed:
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    ds = rd.from_arrow(pa.table({"score": col, "v": [1, 2, 3]}))
    with pytest.raises(TypeError, match="'score'"):
        exchange.bucket_exchange(ds, "score", lambda g: g).take_all()


# ---------------------------------------------------------------------------
# structural guards: one exchange implementation
# ---------------------------------------------------------------------------

PKG = pathlib.Path(exchange.__file__).resolve().parents[1]

# the exchange's thresholds: read through the module, never bound
THRESHOLDS = {"SMALL_COLLAPSE_BYTES", "TARGET_BUCKET_BYTES"}


def _shuffle_sites(tree: ast.Module):
    """(top-level function, line) of every ``.groupby(`` and
    ``.map_groups(`` call."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("groupby", "map_groups")):
                yield getattr(top, "name", "<module>"), node.lineno


def test_only_exchange_writes_bucket_exchanges():
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for fn, line in _shuffle_sites(ast.parse(path.read_text())):
            if (rel, fn) != ("stages/exchange.py", "_exchange"):
                offenders.append(f"{rel}:{line} ({fn})")
    assert offenders == [], (
        "hand-written shuffle; use exchange.bucket_exchange: "
        + ", ".join(offenders))


def test_guard_detects_the_exchange_itself():
    """The detector is not vacuous: it finds the exchange's own
    ``groupby`` + ``map_groups`` in ``exchange._exchange``."""
    tree = ast.parse((PKG / "stages/exchange.py").read_text())
    assert [fn for fn, _ in _shuffle_sites(tree)] == ["_exchange"] * 2


def _bound_thresholds(tree: ast.Module):
    """Line numbers of every ``from ... import`` of a threshold."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
                a.name in THRESHOLDS for a in node.names):
            yield node.lineno


def test_thresholds_are_read_through_the_module():
    """A module that binds ``SMALL_COLLAPSE_BYTES`` or
    ``TARGET_BUCKET_BYTES`` with ``from ... import`` keeps its own copy
    and ignores a patched threshold: every package module reads them as
    ``exchange.<name>`` at call time."""
    offenders = [f"{path.relative_to(PKG).as_posix()}:{line}"
                 for path in sorted(PKG.rglob("*.py"))
                 for line in _bound_thresholds(ast.parse(path.read_text()))]
    assert offenders == [], ", ".join(offenders)
    snippet = """
from batch_geocode_ray.stages.exchange import SMALL_COLLAPSE_BYTES
from batch_geocode_ray.stages.exchange import _one_task
from .exchange import (bucket_exchange, TARGET_BUCKET_BYTES)
"""
    assert list(_bound_thresholds(ast.parse(snippet))) == [2, 4]


def test_no_merge_plan_option():
    """No function in the package declares a ``merge`` parameter and no
    call passes ``merge=``: grouped merges measure their input through
    ``bucket_exchange`` instead of taking a hand-set plan."""
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "merge" in names:
                    offenders.append(f"{rel}:{node.lineno} declares merge")
            elif isinstance(node, ast.Call) and any(
                    k.arg == "merge" for k in node.keywords):
                offenders.append(f"{rel}:{node.lineno} passes merge=")
    assert offenders == [], ", ".join(offenders)


# Ray Dataset aggregations a ``.groupby(...)`` may not chain into;
# pyarrow's ``Table.group_by`` is a different spelling and stays allowed
RAY_AGGREGATES = {"aggregate", "count", "sum", "min", "max", "mean", "std"}


def _ray_aggregate_sites(tree: ast.Module):
    """Line numbers of every ``ray.data.aggregate`` import and every
    ``.groupby(...).<aggregation>(`` chain."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("ray.data.aggregate"):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("ray.data.aggregate")
                   for a in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in RAY_AGGREGATES
              and isinstance(node.func.value, ast.Call)
              and isinstance(node.func.value.func, ast.Attribute)
              and node.func.value.func.attr == "groupby"):
            yield node.lineno


def test_no_ray_groupby_aggregate():
    """Every keyed combine goes through ``grouped_aggregate``: no Ray
    ``groupby(...).aggregate(...)`` (or its shorthands) and no
    ``ray.data.aggregate`` import anywhere in the package."""
    offenders = [f"{path.relative_to(PKG).as_posix()}:{line}"
                 for path in sorted(PKG.rglob("*.py"))
                 for line in _ray_aggregate_sites(
                     ast.parse(path.read_text()))]
    assert offenders == [], (
        "Ray sort-based aggregate; use aggregates.grouped_aggregate: "
        + ", ".join(offenders))


def test_ray_aggregate_guard_is_not_vacuous():
    snippet = """
from ray.data.aggregate import Count
import ray.data.aggregate
ds.groupby("k").aggregate(Count())
ds.groupby(["a", "b"]).count()
ds.groupby("k").max("v")
t.group_by("k").aggregate([("v", "max")])
ds.groupby("_bucket").map_groups(fn)
"""
    assert sorted(_ray_aggregate_sites(ast.parse(snippet))) == [2, 3, 4, 5, 6]
