"""Every top-level def in the package is reachable from a real entry
point, and every defaulted parameter is passed by one.

A pure-ast scan (no Ray). Roots are every module-level statement in
``batch_geocode_ray/`` (this covers the ``QUERIES``/``ORACLE_SQL``
registries and ``run.main`` through its ``__main__`` block) and every
non-test ``.py`` file of the repo (``bench.py``, ``__ray_entry__.py``,
``perfbench/``, ``scripts/``). A reached region reaches:

- same-module defs it names;
- names it uses that ``from batch_geocode_ray.X import n`` binds, lazy
  imports inside functions included (an unused import reaches nothing);
- ``module.attr`` through an imported package module;
- any def whose name equals a string constant in it, which covers
  registry keys and ``getattr``.

A reached def or class is itself a region, so a reachable class keeps all
of its methods. Code that only tests reach is deleted with its tests; a
per-row or inverse reference that tests check a kernel against lives in
``tests/reference.py``, so ``EXEMPT`` is empty.

The parameter scan (below) uses the same roots. A defaulted parameter
that no root call passes is a constant: inline it, or exempt it in
``EXEMPT_PARAMS`` with a reason.

``python tests/test_reachability.py`` prints the unreachable defs with a
line total, then the unpassed parameters.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "batch_geocode_ray"

# (file, def) -> why a def no entry point reaches stays
EXEMPT: dict[tuple[str, str], str] = {}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(rel: Path) -> str:
    parts = rel.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse_package():
    """(module name -> (file, tree), (module, name) -> def node)."""
    modules, defs = {}, {}
    for path in sorted((ROOT / PKG).rglob("*.py")):
        rel = path.relative_to(ROOT)
        tree = ast.parse(path.read_text())
        mod = _module_name(rel)
        modules[mod] = (rel.as_posix(), tree)
        for node in tree.body:
            if isinstance(node, _DEF):
                defs[(mod, node.name)] = node
    return modules, defs


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted package name it binds, from every import
    in ``tree`` (lazy imports inside functions included)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.name.split(".")[0]
                if head == PKG:
                    out[a.asname or head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == PKG):
            for a in node.names:
                out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _root_files():
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        if rel.parts[0] not in (PKG, "tests") and not any(
                p.startswith(".") for p in rel.parts):
            yield path


def scan():
    """Unreachable defs as sorted (file, line, name, n_lines)."""
    modules, defs = _parse_package()
    imports = {mod: _imports(tree) for mod, (_, tree) in modules.items()}
    by_name: dict[str, list] = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)

    def target(dotted: str):
        """The def a qualified name denotes, through re-exports."""
        mod, _, name = dotted.rpartition(".")
        if (mod, name) in defs:
            return (mod, name)
        alias = imports.get(mod, {}).get(name)
        return target(alias) if alias else None

    def edges(region, mod, local):
        """Defs that ``region`` reaches; ``mod`` is its module, None for
        a root file, and ``local`` its import bindings."""
        for node in ast.walk(region):
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = _dotted(node)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                if (mod, head) in defs:
                    yield (mod, head)
                elif head in local:
                    key = target(local[head] + ("." + rest if rest else ""))
                    if key:
                        yield key
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from by_name.get(node.value, ())

    reached: set = set()
    todo = []

    def visit(region, mod, local):
        for key in edges(region, mod, local):
            if key not in reached:
                reached.add(key)
                todo.append(key)

    for path in _root_files():
        tree = ast.parse(path.read_text())
        visit(tree, None, _imports(tree))
    for mod, (_, tree) in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, _DEF):
                visit(stmt, mod, imports[mod])
    while todo:
        mod, name = todo.pop()
        visit(defs[(mod, name)], mod, imports[mod])

    out = []
    for (mod, name), node in defs.items():
        if (mod, name) not in reached:
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            out.append((modules[mod][0], first, name,
                        node.end_lineno - first + 1))
    return sorted(out)


def _fmt(rows) -> list[str]:
    return [f"{f}:{line} {name} ({n} lines)" for f, line, name, n in rows]


def test_every_package_def_is_reachable():
    dead = [r for r in scan() if (r[0], r[2]) not in EXEMPT]
    assert dead == [], (
        "defs no entry point reaches (delete them with their tests, or "
        "exempt a test reference with a reason):\n" + "\n".join(_fmt(dead)))


def test_exemptions_are_current():
    """An exemption names a def that exists and that nothing reaches."""
    _, defs = _parse_package()
    unreachable = {(f, name) for f, _, name, _ in scan()}
    stale = []
    for f, name in EXEMPT:
        mod = _module_name(Path(f))
        if (mod, name) not in defs:
            stale.append(f"{f} {name}: no such def")
        elif (f, name) not in unreachable:
            stale.append(f"{f} {name}: now reachable")
    assert stale == [], "stale exemptions:\n" + "\n".join(stale)


# -- parameters ---------------------------------------------------------
#
# One level down: a defaulted parameter of a reachable def that no root
# call passes has one value in use, so it is a constant. A call matches a
# def by its terminal name (the class name for ``__init__``), through
# ``import ... as`` aliases. A call with ``*args``/``**kw`` passes every
# parameter. ``stateful_map_batches(ds, Cls, kwargs)`` passes the keys of
# ``kwargs`` (a dict literal, or a name bound to one in the same
# function) to ``Cls``; ``map_batches(Cls, fn_constructor_args=...,
# fn_constructor_kwargs=...)`` passes those. A def's calls to itself do
# not count: a recursive call only forwards what a root call passed.
# Nested closures are not scanned (their defaults bind loop variables),
# nor are ``EXEMPT`` defs.

# (file, def, parameter) -> why a defaulted parameter no root call passes
# stays; ``def`` is ``Class.method`` for a method. A parameter stays only
# as a correctness check, a resource guard, a path, or when a test sets
# it to reach at fixture scale a path the default reaches at corpus scale.
_HINT = ("corpus-scale no-materialize hint "
         "(test_size_hint_skips_materialize_everywhere)")
EXEMPT_PARAMS = {
    ("batch_geocode_ray/stages/dedup.py", "fingerprint_dup_pairs",
     "size_hint_bytes"): _HINT,
    ("batch_geocode_ray/stages/dedup.py", "edit_distance_pairs",
     "size_hint_bytes"): _HINT,
    ("batch_geocode_ray/stages/graph.py", "connected_components",
     "size_hint_bytes"): _HINT,
    ("batch_geocode_ray/stages/graph.py", "label_all_nodes",
     "size_hint_bytes"): _HINT,
    ("batch_geocode_ray/stages/similarity.py", "semantic_dedup",
     "size_hint_bytes"): _HINT,
    ("batch_geocode_ray/pipelines/geocode.py", "build_geocode_pipeline",
     "verify_extraction"):
        "correctness check: html kernel against the extracted text",
    ("batch_geocode_ray/sources/writers.py", "write_reference_csv",
     "max_driver_rows"): "driver-memory guard",
    ("batch_geocode_ray/sources/fixtures.py", "ensure_fixture_dir",
     "base"): "a path",
    ("batch_geocode_ray/stages/dedup.py", "ngram_jaccard_pairs",
     "max_posting"):
        "tests cap it to reach the hot-gram governor at fixture scale",
    ("batch_geocode_ray/stages/knn.py", "FacilityIndex.__init__",
     "grid_res"):
        "tests refine it to reach the grid probe's fallback at fixture scale",
    ("batch_geocode_ray/stages/joins.py", "bloom_anti_join", "m_bits"):
        "tests shrink it to reach Bloom false positives at fixture scale",
    ("batch_geocode_ray/stages/joins.py", "bloom_anti_join", "k_hashes"):
        "tests shrink it to reach Bloom false positives at fixture scale",
}

_FN = (ast.FunctionDef, ast.AsyncFunctionDef)
_ALL = "*"


def _defaulted(fn, skip: int):
    """(name, positional index or None) of each defaulted parameter;
    ``skip`` leading positionals are bound implicitly (self/cls)."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    for i, a in enumerate(pos):
        if i >= first:
            yield a.arg, i - skip
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _param_defs(tree: ast.Module, rel: str):
    """(file, owner, call name, node, implicit positionals) of each
    module-level def and class method in ``tree``."""
    for node in tree.body:
        if isinstance(node, _FN):
            if (rel, node.name) not in EXEMPT:
                yield rel, node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and (rel, node.name) not in EXEMPT:
            for fn in node.body:
                if not isinstance(fn, _FN):
                    continue
                static = any(_dotted(d) == "staticmethod"
                             for d in fn.decorator_list)
                call = node.name if fn.name == "__init__" else fn.name
                yield (rel, f"{node.name}.{fn.name}", call, fn,
                       0 if static else 1)


def _aliases(tree: ast.Module) -> dict[str, str]:
    """``import x as y`` local name -> imported terminal name."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if a.asname:
                    out[a.asname] = a.name.rpartition(".")[2]
    return out


def _terminal(node, aliases) -> str | None:
    name = (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)
    return aliases.get(name, name)


def _dict_keys(node, scope):
    """Keys a kwargs expression passes: a set of names, or ``_ALL``."""
    if isinstance(node, ast.Name):
        bound = [s.value for s in ast.walk(scope)
                 if isinstance(s, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == node.id
                         for t in s.targets)]
        node = bound[0] if len(bound) == 1 else None
    if not isinstance(node, ast.Dict) or None in node.keys or not all(
            isinstance(k, ast.Constant) for k in node.keys):
        return _ALL
    return {k.value for k in node.keys}


def _calls(tree: ast.Module):
    """(call name, positional count, keyword names or ``_ALL``) of every
    call in ``tree``, constructor calls through Ray's kwargs included."""
    aliases = _aliases(tree)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FN)]
    owner = {}
    for scope in scopes:  # innermost function wins: walked last
        for n in ast.walk(scope):
            owner[n] = scope
    recursive = {n for f in scopes[1:] for n in ast.walk(f)
                 if isinstance(n, ast.Call)
                 and _terminal(n.func, aliases) == f.name}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in recursive:
            continue
        name = _terminal(node.func, aliases)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            yield name, 0, _ALL
        else:
            yield name, len(node.args), {k.arg for k in node.keywords}
        kw = {k.arg: k.value for k in node.keywords}
        if name == "stateful_map_batches" and len(node.args) >= 2:
            arg = node.args[2] if len(node.args) > 2 else kw.get("kwargs")
            yield (_terminal(node.args[1], aliases), 0,
                   _dict_keys(arg, owner[node]) if arg else set())
        elif name == "map_batches" and node.args and (
                "fn_constructor_args" in kw
                or "fn_constructor_kwargs" in kw):
            args = kw.get("fn_constructor_args")
            kwargs = kw.get("fn_constructor_kwargs")
            yield (_terminal(node.args[0], aliases),
                   len(args.elts) if isinstance(args, ast.Tuple) else
                   (1 << 30) if args else 0,
                   _dict_keys(kwargs, owner[node]) if kwargs else set())


def _unpassed(def_trees, call_trees):
    """Defaulted parameters of the defs in ``def_trees`` ((file, tree)
    pairs) that no call in ``call_trees`` passes, as sorted
    (file, line, owner, parameter)."""
    calls: dict[str, list] = {}
    for tree in call_trees:
        for name, n, kws in _calls(tree):
            calls.setdefault(name, []).append((n, kws))
    out = []
    for rel, tree in def_trees:
        for _, owner, call, fn, skip in _param_defs(tree, rel):
            for param, i in _defaulted(fn, skip):
                if not any(kws is _ALL or param in kws
                           or (i is not None and n > i)
                           for n, kws in calls.get(call, ())):
                    out.append((rel, fn.lineno, owner, param))
    return sorted(out)


def param_scan():
    """Defaulted parameters of the package that no root call passes."""
    pkg = [(path.relative_to(ROOT).as_posix(), ast.parse(path.read_text()))
           for path in sorted((ROOT / PKG).rglob("*.py"))]
    roots = [ast.parse(path.read_text()) for path in _root_files()]
    return _unpassed(pkg, [tree for _, tree in pkg] + roots)


def _fmt_params(rows) -> list[str]:
    return [f"{f}:{line} {owner}({param})" for f, line, owner, param in rows]


def test_every_defaulted_parameter_is_passed():
    dead = [r for r in param_scan()
            if (r[0], r[2], r[3]) not in EXEMPT_PARAMS]
    assert dead == [], (
        "defaulted parameters no entry point passes (inline the default "
        "and delete the branches only another value selects, or exempt "
        "with a reason):\n" + "\n".join(_fmt_params(dead)))


def test_param_scan_flags_unpassed_defaults():
    """Non-vacuity: a default no call passes is flagged; one passed
    through a ``stateful_map_batches`` kwargs dict is not; one only a
    recursive forwarder passes is flagged."""
    tree = ast.parse(
        "class Stage:\n"
        "    def __init__(self, a, b=1, c=2):\n"
        "        pass\n"
        "def f(x, y=0):\n"
        "    pass\n"
        "def g(x, parts=None):\n"
        "    def inner(b):\n"
        "        return g(b, parts=parts)\n"
        "    return inner(x) if x else g(x, parts=parts)\n"
        "def build(ds):\n"
        "    kwargs = {'b': 3}\n"
        "    f(1)\n"
        "    g(ds)\n"
        "    return stateful_map_batches(ds, Stage, kwargs)\n")
    got = {(owner, p) for _, _, owner, p in _unpassed([("m.py", tree)], [tree])}
    assert got == {("Stage.__init__", "c"), ("f", "y"), ("g", "parts")}


def test_param_exemptions_are_current():
    """An exemption names a defaulted parameter that no root call passes."""
    unpassed = {(f, owner, p) for f, _, owner, p in param_scan()}
    stale = [f"{f} {owner}({p})" for f, owner, p in EXEMPT_PARAMS
             if (f, owner, p) not in unpassed]
    assert stale == [], "stale parameter exemptions:\n" + "\n".join(stale)


if __name__ == "__main__":
    rows = scan()
    dead = [r for r in rows if (r[0], r[2]) not in EXEMPT]
    exempt = [r for r in rows if (r[0], r[2]) in EXEMPT]
    print("\n".join(_fmt(dead)))
    print(f"unreachable: {len(dead)} defs, {sum(r[3] for r in dead)} lines")
    print(f"exempt: {len(exempt)} defs, {sum(r[3] for r in exempt)} lines")
    prows = param_scan()
    pdead = [r for r in prows if (r[0], r[2], r[3]) not in EXEMPT_PARAMS]
    print("\n".join(_fmt_params(pdead)))
    print(f"unpassed: {len(pdead)} parameters, "
          f"exempt: {len(prows) - len(pdead)}")
