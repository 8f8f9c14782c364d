"""The dedup family's one candidate-pair kernel, ``dedup._run_pairs``:
a property test against a brute-force Python oracle, and an ast guard
that no second pair enumeration (``triu_indices``) grows back. Also
MinHash verify's all-pairs Jaccard kernel, ``dedup._pair_jaccard``,
against Python sets."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import batch_geocode_ray.stages.dedup as dd
from batch_geocode_ray.stages.dedup import _run_pairs

PKG = Path(__file__).resolve().parents[1] / "batch_geocode_ray"


def _oracle(keys, ids, cap):
    """(key, id1, id2) of every distinct-id pair per run of equal keys,
    and the ids of runs of more than ``cap`` distinct ids."""
    runs: dict = {}
    for i in range(len(ids)):
        runs.setdefault(tuple(int(k[i]) for k in keys), set()).add(int(ids[i]))
    pairs, hot = [], set()
    for key, members in runs.items():
        if cap is not None and len(members) > max(cap, 1):
            hot |= {(key, m) for m in members}
            continue
        pairs += [(key, a, b) for a, b in itertools.combinations(
            sorted(members), 2)]
    return sorted(pairs), hot


def _check(keys, ids, cap):
    ia, ib, hot = _run_pairs(keys, ids, cap)
    want_pairs, want_hot = _oracle(keys, ids, cap)
    for a, b in zip(ia, ib):
        assert all(k[a] == k[b] for k in keys) and ids[a] < ids[b]
    got = sorted((tuple(int(k[a]) for k in keys), int(ids[a]), int(ids[b]))
                 for a, b in zip(ia, ib))
    assert got == want_pairs
    got_hot = [(tuple(int(k[h]) for k in keys), int(ids[h])) for h in hot]
    assert len(got_hot) == len(set(got_hot)) and set(got_hot) == want_hot


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n_keys: st.lists(
           st.tuples(*[st.integers(0, 4)] * n_keys, st.integers(-3, 9)),
           max_size=40).map(lambda rows: (n_keys, rows))),
       st.one_of(st.none(), st.integers(0, 6)))
def test_run_pairs_matches_brute_force(keyed_rows, cap):
    """Random keys over a small range (one-row runs and long runs),
    repeated ids and repeated (key, id) rows, one or two key arrays, no
    cap or a cap that binds."""
    n_keys, rows = keyed_rows
    cols = np.array(rows, dtype=np.int64).reshape(len(rows), n_keys + 1)
    _check(tuple(cols[:, j] for j in range(n_keys)), cols[:, -1], cap)


def test_run_pairs_edge_cases():
    empty = np.empty(0, np.int64)
    ia, ib, hot = _run_pairs((empty,), empty)
    assert len(ia) == len(ib) == len(hot) == 0
    # one-row runs pair with nothing; a repeated (key, id) row is one row
    _check((np.array([1, 2, 3, 3]),), np.array([5, 5, 7, 7]), None)
    # a run of 4 distinct ids under cap 3 is hot; the 2-id run still pairs
    keys = (np.array([9, 9, 9, 9, 9, 4, 4]),)
    ids = np.array([1, 2, 3, 4, 4, 1, 2])
    ia, ib, hot = _run_pairs(keys, ids, 3)
    assert list(zip(ids[ia], ids[ib])) == [(1, 2)]
    assert sorted(ids[hot]) == [1, 2, 3, 4] and set(keys[0][hot]) == {9}
    _check(keys, ids, 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcde"), max_size=10),
                min_size=1, max_size=10),
       st.integers(1, 4), st.data(), st.sampled_from([8, 64, dd.SLICE_BYTES]))
def test_pair_jaccard_matches_python_sets(docs, k, data, slice_bytes):
    """Exact k-gram Jaccard of every pair in one call equals Python set
    arithmetic: empty docs and docs shorter than k included (a pair of
    two gram-less docs scores 0.0), repeated and self pairs, and pair
    slices down to one probe."""
    n = len(docs)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=30))
    i = np.array([a for a, _ in pairs], np.int64)
    j = np.array([b for _, b in pairs], np.int64)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dd, "SLICE_BYTES", slice_bytes)
        got = dd._pair_jaccard(*dd._gram_arrays(
            pa.array([" ".join(d) for d in docs]), k), i, j)
    sets = [{tuple(d[s:s + k]) for s in range(len(d) - k + 1)} for d in docs]
    want = [len(sets[a] & sets[b]) / len(sets[a] | sets[b])
            if sets[a] | sets[b] else 0.0 for a, b in pairs]
    assert got.tolist() == want


def _triu_sites(tree: ast.Module):
    """(top-level def, line) of every ``triu_indices`` reference."""
    for top in tree.body:
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    None)
            if name == "triu_indices" or (
                    isinstance(node, ast.alias) and node.name == "triu_indices"):
                yield getattr(top, "name", "<module>"), node.lineno


def test_pairs_are_enumerated_only_by_the_kernel():
    """Every candidate-pair site calls ``dedup._run_pairs``: no
    ``triu_indices`` outside it anywhere in the package."""
    offenders = [f"{path.relative_to(PKG).as_posix()}:{line} ({fn})"
                 for path in sorted(PKG.rglob("*.py"))
                 for fn, line in _triu_sites(ast.parse(path.read_text()))
                 if (path.relative_to(PKG).as_posix(), fn)
                 != ("stages/dedup.py", "_run_pairs")]
    assert offenders == [], ("a second pair enumeration; call "
                             "dedup._run_pairs: " + ", ".join(offenders))


def test_pair_guard_is_not_vacuous():
    snippet = """
import numpy as np
from numpy import triu_indices
def pairs_of(seg):
    a, b = np.triu_indices(len(seg), k=1)
    return seg[a], seg[b]
def ok(m):
    return np.triu(m, k=1)
"""
    assert sorted(_triu_sites(ast.parse(snippet))) == [
        ("<module>", 3), ("pairs_of", 5)]
