"""Every top-level def in the package is reachable from a real entry point.

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
of its methods. Code that only tests reach is deleted with its tests,
except the reference implementations in ``EXEMPT``.

``python tests/test_reachability.py`` prints the unreachable defs with a
line total.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "batch_geocode_ray"

# (file, def) -> why a def no entry point reaches stays
EXEMPT = {
    ("batch_geocode_ray/functions/hashing.py", "minhash_signature"):
        "per-row reference for MinHashSignatures' batch kernel",
    ("batch_geocode_ray/functions/hashing.py", "simhash64"):
        "per-row reference for simhash64_batch",
    ("batch_geocode_ray/functions/cells.py", "s2_cell_center"):
        "inverse of s2_cell: the encoder's round-trip oracle",
    ("batch_geocode_ray/functions/cells.py", "_st_to_uv"):
        "s2_cell_center's projection step",
    ("batch_geocode_ray/functions/cells.py", "s2_level_of"):
        "inverse of s2_parent's level: the encoder's round-trip oracle",
    ("batch_geocode_ray/functions/cells.py", "hex_decode"):
        "inverse of hex_cell: the encoder's round-trip oracle",
    ("batch_geocode_ray/sources/xlsx.py", "read_xlsx"):
        "reader that checks write_xlsx's round trip",
    ("batch_geocode_ray/sources/xlsx.py", "_ref_to_col"):
        "read_xlsx's cell-reference decoder",
}

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


if __name__ == "__main__":
    rows = scan()
    dead = [r for r in rows if (r[0], r[2]) not in EXEMPT]
    exempt = [r for r in rows if (r[0], r[2]) in EXEMPT]
    print("\n".join(_fmt(dead)))
    print(f"unreachable: {len(dead)} defs, {sum(r[3] for r in dead)} lines")
    print(f"exempt: {len(exempt)} defs, {sum(r[3] for r in exempt)} lines")
