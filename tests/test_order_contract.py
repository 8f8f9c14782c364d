"""ONE order contract (pipelines/queries.py): the registry orders every
query result by the keys its entry declares, on both plans.

A registry-wide sweep runs every entry on sf0.001 once on the default
plan and once with the distributed plan forced
(``SMALL_COLLAPSE_BYTES = 0``). Each oracled entry equals its DuckDB
oracle in row order (``selfcheck.compare`` with ``canon``'s row sort
switched off), and each rows-only entry gives one row-order hash across
the two plans. An ast guard keeps the per-query final sorts out."""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import duckdb
import pytest

ROOT = Path(__file__).resolve().parents[1]
QUERIES_PY = ROOT / "batch_geocode_ray" / "pipelines" / "queries.py"
SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def sweeps():
    """plan -> entry name -> its result table: every registry entry run
    once per plan."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.pipelines.queries import QUERIES
    from batch_geocode_ray.stages.stateful import gather

    out = {}
    for plan, collapse in (("default", exchange.SMALL_COLLAPSE_BYTES),
                           ("forced", 0)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exchange, "SMALL_COLLAPSE_BYTES", collapse)
            out[plan] = {name: gather(fn(SF)) for name, fn in QUERIES.items()}
    return out


def _row_order_hash(t) -> str:
    h = hashlib.sha256()
    for row in t.to_pylist():
        h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("plan", ["default", "forced"])
def test_oracled_entries_equal_their_oracle_in_row_order(sweeps, plan):
    from batch_geocode_ray.pipelines.queries import ORACLE_SQL, _flagship_dir
    from scripts.selfcheck import TABLES, row_order_problems

    _flagship_dir()  # q46-q49 oracles read the page fixture by path
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    bad = {}
    for name, sql in ORACLE_SQL.items():
        problems = row_order_problems(name, sweeps[plan][name].to_pandas(),
                                      con.sql(sql).df())
        if problems:
            bad[name] = problems
    assert len(ORACLE_SQL) == 76
    assert sorted(bad) == [], bad


def test_rows_only_entries_give_one_row_order_across_plans(sweeps):
    from batch_geocode_ray.pipelines.queries import ORACLE_SQL, QUERIES

    rows_only = [n for n in QUERIES if n not in ORACLE_SQL]
    assert len(rows_only) == 9
    differ = [n for n in rows_only
              if _row_order_hash(sweeps["default"][n])
              != _row_order_hash(sweeps["forced"][n])]
    assert differ == []
    assert all(sweeps["default"][n].num_rows for n in rows_only)


# -- the guard: query functions do not order their own results -----------

def order_sites(tree: ast.Module) -> list[str]:
    """Sites in a ``queries.py`` tree that order a result outside the
    registry: a ``_sort_adaptive`` call outside ``_ordered``, and inside
    a query function (``qNN_*``) a ``_sort_single`` call, a ``.sort(``
    call or a ``sort_keys=`` keyword."""
    out = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        query = fn.name[:1] == "q" and fn.name[1:3].isdigit()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else None
            what = []
            if name == "_sort_adaptive" and fn.name != "_ordered":
                what.append("_sort_adaptive")
            if query and name == "_sort_single":
                what.append("_sort_single")
            if query and isinstance(f, ast.Attribute) and f.attr == "sort":
                what.append(".sort(")
            if query and any(k.arg == "sort_keys" for k in node.keywords):
                what.append("sort_keys=")
            out += [f"{node.lineno} {w} in {fn.name}" for w in what]
    return out


def test_query_functions_do_not_order_their_results():
    assert order_sites(ast.parse(QUERIES_PY.read_text())) == []


def test_order_guard_is_not_vacuous():
    """Excerpts of the per-query final sorts this contract replaced."""
    src = (
        "def _sort_single(ds, keys):\n"
        "    return _one_task(ds, lambda b: b.sort_by(keys))\n"
        "def _sort_adaptive(ds, keys, size_hint_bytes=None):\n"
        "    return _sort_single(ds, keys)\n"
        "def q01_pricing_summary(sf_dir):\n"
        "    return grouped_aggregate(ds, ['f'], specs, sort_keys=['f'])\n"
        "def q09_doc_tokens(sf_dir):\n"
        "    return _sort_adaptive(docs.map_batches(f), 'doc_id')\n"
        "def q18_minhash_neardup(sf_dir):\n"
        "    return _sort_single(out, ['d1', 'd2'])\n"
        "def q40_price_quantiles(sf_dir):\n"
        "    return grouped_quantiles(li, 'f', 'p').sort('l_returnflag')\n"
        "def _ordered(fn, keys):\n"
        "    return lambda sf_dir: _sort_adaptive(fn(sf_dir), keys)\n")
    got = [s.split(" ", 1)[1] for s in order_sites(ast.parse(src))]
    assert got == ["sort_keys= in q01_pricing_summary",
                   "_sort_adaptive in q09_doc_tokens",
                   "_sort_single in q18_minhash_neardup",
                   ".sort( in q40_price_quantiles"], got
