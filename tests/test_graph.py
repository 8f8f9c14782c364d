"""Connected components (stages/graph.py): both physical plans vs a
naive union-find reference, and full-table labeling of singletons."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.graph import (
    connected_components,
    label_all_nodes,
)


def naive_components(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def random_edges(seed=7, n_nodes=240, n_edges=180):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges, dtype=np.int64)
    b = rng.integers(0, n_nodes, n_edges, dtype=np.int64)
    keep = a != b
    return list(zip(a[keep].tolist(), b[keep].tolist()))


def run_cc(edges):
    ds = rd.from_arrow(pa.table({
        "d1": pa.array([e[0] for e in edges], pa.int64()),
        "d2": pa.array([e[1] for e in edges], pa.int64()),
    })).repartition(5)  # adversarial block boundaries
    out = connected_components(ds, "d1", "d2")
    return {r["node"]: r["label"] for r in out.take_all()}


def test_cc_matches_union_find_both_plans(monkeypatch):
    edges = random_edges()
    want = naive_components(edges)
    assert run_cc(edges) == want                  # collapsed plan
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert run_cc(edges) == want                  # distributed plan


def test_cc_path_graph_distributed(monkeypatch):
    # a long path is the worst case for plain min-propagation; pointer
    # jumping must converge it well inside the round cap
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    edges = [(i, i + 1) for i in range(60)]
    got = run_cc(edges)
    assert set(got.values()) == {0}
    assert len(got) == 61


def test_label_all_nodes_singletons():
    edges = [(1, 2), (2, 3), (7, 8)]
    labels = connected_components(
        rd.from_arrow(pa.table({
            "d1": pa.array([e[0] for e in edges], pa.int64()),
            "d2": pa.array([e[1] for e in edges], pa.int64()),
        })), "d1", "d2")
    nodes = rd.from_arrow(pa.table({"doc_id": pa.array(range(10),
                                                       pa.int64())}))
    out = label_all_nodes(nodes, "doc_id", labels)
    got = {r["doc_id"]: r["cluster_id"] for r in out.take_all()}
    assert got == {0: 0, 1: 1, 2: 1, 3: 1, 4: 4, 5: 5, 6: 6, 7: 7,
                   8: 7, 9: 9}
