"""equi_join: both plans against a naive oracle, empty right sides and
null keys included, and an ast guard that keeps the package to those
two plans; ``stateful.gather`` and the guard that keeps every collect
and broadcast read on the one driver/task boundary."""

import ast
import uuid
from pathlib import Path

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.graph import label_all_nodes
from batch_geocode_ray.stages.joins import equi_join
from batch_geocode_ray.stages.stateful import gather

ROOT = Path(__file__).resolve().parents[1]

LEFT_K = [1, 2, 2, 3, 5, 8, 8, 13, 21, 34, 55, 3, None]


def _keys(keys, key_type):
    return keys if key_type == "int" else [
        None if k is None else f"u{k}" for k in keys]


def _left(key_type):
    keys = _keys(LEFT_K, key_type)
    return rd.from_arrow(pa.table({
        "k": pa.array(keys),
        "v": pa.array(range(len(LEFT_K)), pa.int64()),
    })).repartition(3)


def _right(key_type, side, how):
    # a key set (semi/anti) may repeat keys; a value side may not
    keys = [2, 3, 8, 13, 99, None] + (
        [3, 99, None] if how in ("semi", "anti") else [])
    t = pa.table({
        "rk": pa.array(_keys(keys, key_type)),
        "name": pa.array([f"n{k}" for k in keys], pa.string()),
    })
    if side == "rows":
        return rd.from_arrow(t).repartition(2)
    if side == "empty_from_arrow":
        return rd.from_arrow(t.slice(0, 0))
    return rd.from_arrow(t).filter(lambda r: False)  # no schema survives


def _naive(left, right, how):
    """SQL semantics: a null key matches nothing."""
    names = {r["rk"]: r["name"] for r in right if r["rk"] is not None}
    out = []
    for row in left:
        hit = row["k"] in names
        if how == "left" or (how == "inner" and hit):
            out.append({**row, "name": names.get(row["k"])})
        elif (how == "semi" and hit) or (how == "anti" and not hit):
            out.append(row)
    return out


def _rows(ds):
    return sorted((tuple(r.items()) for r in ds.take_all()), key=repr)


CASES = ([(how, "int") for how in ("inner", "left", "semi", "anti")]
         + [(how, "str") for how in ("semi", "anti")])


@pytest.mark.parametrize("side", ["rows", "empty_from_arrow",
                                  "empty_after_filter"])
@pytest.mark.parametrize("how,key_type", CASES)
def test_equi_join_plans_match_naive(how, key_type, side, monkeypatch):
    """Each ``how`` on the broadcast plan and on the exchange plan
    (forced by ``SMALL_COLLAPSE_BYTES = 0``) equals a naive Python
    join, for a right side with rows, empty from ``from_arrow``, and
    empty after a ``filter`` (no schema)."""
    value_cols = ["name"] if how in ("inner", "left") else []
    right = _right(key_type, side, how)
    want = _naive(_left(key_type).take_all(),
                  right.take_all() if side == "rows" else [], how)
    want = sorted((tuple(r.items()) for r in want), key=repr)
    if side == "rows":
        assert want  # the join has something to find
    for collapse in (exchange.SMALL_COLLAPSE_BYTES, 0):
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", collapse)
        got = equi_join(_left(key_type), right, "k", how, value_cols,
                        right_key="rk")
        assert _rows(got) == want, (how, key_type, side, collapse)


def test_equi_join_empty_left_side(monkeypatch):
    """A left side emptied by a filter carries no schema; each ``how``
    gives no rows on both plans."""
    left = _left("int").filter(lambda r: False)
    for collapse in (exchange.SMALL_COLLAPSE_BYTES, 0):
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", collapse)
        for how in ("inner", "left", "semi", "anti"):
            right = _right("int", "rows", how)
            assert equi_join(left, right, "k", how, right_key="rk") \
                .take_all() == []


def test_equi_join_rejects_bad_how_and_key_type(monkeypatch):
    left = rd.from_arrow(pa.table({"k": pa.array([1.5, 2.5])}))
    right = rd.from_arrow(pa.table({"k": pa.array([1.5])}))
    with pytest.raises(ValueError, match="how"):
        equi_join(left, right, "k", "outer")
    for collapse in (exchange.SMALL_COLLAPSE_BYTES, 0):
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", collapse)
        with pytest.raises(TypeError, match="integer or string"):
            equi_join(left, right, "k", "semi")


@pytest.mark.parametrize("side", ["empty_from_arrow", "empty_after_filter"])
def test_label_all_nodes_empty_labels_both_plans(side, monkeypatch):
    """No labelled node: every node is labelled with itself on both
    plans (the exchange plan used to be Ray's hash join, which raised
    ``ArrowInvalid: No match for FieldRef`` on an empty side)."""
    t = pa.table({"node": pa.array([], pa.int64()),
                  "label": pa.array([], pa.int64())})
    labels = rd.from_arrow(t)
    if side == "empty_after_filter":
        labels = labels.filter(lambda r: False)  # no schema survives
    nodes = rd.from_arrow(pa.table({"doc_id": pa.array(range(7),
                                                       pa.int64())}))
    for collapse in (exchange.SMALL_COLLAPSE_BYTES, 0):
        monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", collapse)
        got = label_all_nodes(nodes, "doc_id", labels).take_all()
        assert sorted((r["doc_id"], r["cluster_id"]) for r in got) == \
            [(i, i) for i in range(7)]
        assert list(got[0]) == ["doc_id", "cluster_id"]


# -- the package keeps one equi-join --------------------------------------

_GONE_NAMES = {"broadcast_semi_anti", "semi_anti_join", "join_partitions"}
_NATIVE_JOIN_KWARGS = {"on", "right_on", "num_partitions"}


def second_join_sites(tree: ast.Module, rel: str) -> list[str]:
    """Sites in ``tree`` (file ``rel``) that go round :func:`equi_join`:
    a ``.join(`` call with a native-join keyword, and a name of the
    deleted join APIs."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and any(
                    k.arg in _NATIVE_JOIN_KWARGS for k in node.keywords)):
            out.append(f"{rel}:{node.lineno} native Dataset.join")
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name, a.asname) if n]
        out += [f"{rel}:{node.lineno} {n}" for n in names
                if n.rpartition(".")[2] in _GONE_NAMES]
    return out


# -- the package keeps one driver/task boundary ----------------------------

def _nine():
    return pa.table({"k": pa.array(range(9), pa.int64())})


def test_gather_skips_a_filter_emptied_block():
    """A ``filter`` that empties one block leaves a block with no
    schema among typed ones; ``gather`` skips it."""
    ds = rd.from_arrow(_nine()).repartition(3).filter(lambda r: r["k"] >= 3)
    blocks = ray.get(ds.materialize().to_arrow_refs())
    assert [b.num_columns for b in blocks].count(0) == 1  # the case exists
    got = gather(ds)
    assert got.schema == _nine().schema
    assert sorted(got["k"].to_pylist()) == list(range(3, 9))


def test_gather_no_rows_left():
    """Every row filtered out: a typed empty table when Ray kept a
    schema, a table with no columns when it kept none."""
    for ds in (rd.from_arrow(_nine().slice(0, 0)),
               rd.from_arrow(_nine()).map_batches(
                   lambda b: b.slice(0, 0), batch_format="pyarrow")):
        got = gather(ds)
        assert (got.num_rows, got.schema) == (0, _nine().schema)
    got = gather(rd.from_arrow(_nine()).filter(lambda r: False))
    assert (got.num_rows, got.num_columns) == (0, 0)


def test_gather_runs_its_input_once(tmp_path):
    def mark(b: pa.Table) -> pa.Table:
        (tmp_path / uuid.uuid4().hex).touch()
        return b

    ds = rd.from_arrow(_nine()).repartition(3).map_batches(
        mark, batch_format="pyarrow", batch_size=None)
    assert sorted(gather(ds)["k"].to_pylist()) == list(range(9))
    assert len(list(tmp_path.iterdir())) == 3  # one call per block


_COLLECTS = {"to_arrow_refs", "iter_batches", "take_all"}
# (file, enclosing def, call) pairs allowed outside stages/stateful.py
_BOUNDARY_EXCEPTIONS = {
    # fixture shards are generated by plain Ray tasks, not a Dataset
    ("batch_geocode_ray/sources/fixtures.py", "generate_pages", "ray.get"),
    ("batch_geocode_ray/sources/fixtures.py", "generate_pages", "ray.put"),
    ("batch_geocode_ray/sources/fixtures.py", "generate_pages", "ray.remote"),
}


def boundary_sites(tree: ast.Module, rel: str) -> list[str]:
    """Sites in ``tree`` (file ``rel``) that cross the driver/task
    boundary outside ``stages/stateful.py``: a ``ray.get``, a
    ``ray.put`` or a ``ray.remote`` (as a decorator or a call, under any
    alias of ``ray``) and a Dataset collect other than ``gather``."""
    if rel.endswith("stages/stateful.py"):
        return []
    ray_names = {a.asname or a.name for n in ast.walk(tree)
                 if isinstance(n, ast.Import) for a in n.names
                 if a.name == "ray"}
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and fn is None:
            fn = node.name  # the top-level def names the site
        call = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if f.attr in _COLLECTS:
                call = f.attr
            elif (f.attr in ("get", "put") and isinstance(f.value, ast.Name)
                  and f.value.id in ray_names):
                call = f"ray.{f.attr}"
        elif (isinstance(node, ast.Attribute) and node.attr == "remote"
              and isinstance(node.value, ast.Name)
              and node.value.id in ray_names):
            call = "ray.remote"  # bare, called, or as a decorator
        if call and (rel, fn, call) not in _BOUNDARY_EXCEPTIONS:
            out.append(f"{rel}:{node.lineno} {call} in {fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def test_package_has_one_equi_join():
    sites = []
    for path in sorted((ROOT / "batch_geocode_ray").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        sites += second_join_sites(ast.parse(path.read_text()), rel)
    assert sites == [], "\n".join(sites)


def test_package_has_one_driver_task_boundary():
    """Collects go through ``stateful.gather``, no UDF ``ray.get``s, state
    goes out only as a stage ``stateful_map_batches`` puts, and no plan
    starts raw tasks: ``ray.get``, ``ray.put``, ``.to_arrow_refs(``,
    ``.iter_batches(`` and ``.take_all(`` occur only in
    ``stages/stateful.py`` and ``ray.remote`` nowhere, except in the
    fixture fan-out."""
    sites = []
    for path in sorted((ROOT / "batch_geocode_ray").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        sites += boundary_sites(ast.parse(path.read_text()), rel)
    assert sites == [], "\n".join(sites)


def test_second_join_guard_is_not_vacuous():
    src = (
        "import ray as _ray\n"
        "import pyarrow as pa\n"
        "from batch_geocode_ray.stages.joins import semi_anti_join as s\n"
        "def join_partitions():\n"
        "    return 8\n"
        "def f(a, b, keys, ds):\n"
        "    a.join(b, 'inner', on=('k',))\n"
        "    a.join(b, 'left_outer', num_partitions=4)\n"
        "    a.join(b, right_on=('k',))\n"
        "    ', '.join(keys)\n"
        "    dd.broadcast_semi_anti(a, keys, 'k')\n"
        "    ref = _ray.put(keys)\n"
        "    def per_batch(batch):\n"
        "        return batch.filter(_ray.get(ref))\n"
        "    a.map_batches(per_batch)\n"
        "    return pa.concat_tables(ds.iter_batches(batch_format='pyarrow'))\n"
        "def cosine_neardup_pairs(ds):\n"
        "    return ds.to_arrow_refs()\n"
        "@_ray.remote\n"
        "def tile(a, b):\n"
        "    return _ray.remote(num_cpus=1)(f)\n"
        "def generate_pages(fn):\n"
        "    return _ray.get(_ray.remote(fn).remote())\n")
    tree = ast.parse(src)
    assert len(second_join_sites(tree, "batch_geocode_ray/stages/x.py")) == 6
    got = boundary_sites(tree, "batch_geocode_ray/stages/x.py")
    assert [g.split(" ", 1)[1] for g in got] == [
        "ray.put in f", "ray.get in f", "iter_batches in f",
        "to_arrow_refs in cosine_neardup_pairs",
        "ray.remote in tile", "ray.remote in tile",
        "ray.get in generate_pages", "ray.remote in generate_pages"], got
    got = boundary_sites(tree, "batch_geocode_ray/stages/similarity.py")
    assert [g.split(" ", 1)[1] for g in got] == [
        "ray.put in f", "ray.get in f", "iter_batches in f",
        "to_arrow_refs in cosine_neardup_pairs",
        "ray.remote in tile", "ray.remote in tile",
        "ray.get in generate_pages", "ray.remote in generate_pages"], got
    # the named exception holds in its own file only
    got = boundary_sites(tree, "batch_geocode_ray/sources/fixtures.py")
    assert [g.split(" ", 1)[1] for g in got] == [
        "ray.put in f", "ray.get in f", "iter_batches in f",
        "to_arrow_refs in cosine_neardup_pairs",
        "ray.remote in tile", "ray.remote in tile"], got
    assert boundary_sites(tree, "batch_geocode_ray/stages/stateful.py") == []
