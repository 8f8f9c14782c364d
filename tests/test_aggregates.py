"""Tile aggregation correctness (skew-resistance must not change
answers — SURVEY §5.5)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from batch_geocode_ray.stages.aggregates import (
    cell_partial_aggregate,
    tile_aggregate,
)


def make_ds(n=5000, n_cells=7, seed=0, hot_frac=0.5):
    rng = np.random.RandomState(seed)
    cells = rng.randint(1, n_cells + 1, size=n).astype(np.int64)
    cells[rng.rand(n) < hot_frac] = 1  # hot key
    buf = rng.uniform(0, 20, size=n)
    buf[rng.rand(n) < 0.1] = np.nan
    t = pa.table({
        "hex_cell_r7": pa.array(cells, pa.int64()),
        "best_buffer": pa.array(buf, pa.float64(), from_pandas=True),
    })
    return rd.from_arrow(t).repartition(8), t


def test_tile_aggregate_matches_pandas():
    ds, t = make_ds()
    got = tile_aggregate(ds, "hex_cell_r7").to_pandas().sort_values("hex_cell_r7").reset_index(drop=True)
    df = t.to_pandas()
    want = df.groupby("hex_cell_r7").agg(
        pages=("hex_cell_r7", "size"),
        mean_buffer=("best_buffer", "mean"),
        min_buffer=("best_buffer", "min"),
        max_buffer=("best_buffer", "max"),
    ).reset_index()
    assert got["hex_cell_r7"].tolist() == want["hex_cell_r7"].tolist()
    assert got["pages"].tolist() == want["pages"].tolist()
    np.testing.assert_allclose(got["mean_buffer"], want["mean_buffer"], rtol=1e-9)
    np.testing.assert_allclose(got["min_buffer"], want["min_buffer"], rtol=1e-12)
    np.testing.assert_allclose(got["max_buffer"], want["max_buffer"], rtol=1e-12)


def test_partial_aggregate_collapses_hot_cell():
    _, t = make_ds(n=1000)
    part = cell_partial_aggregate(t, "hex_cell_r7")
    # one row per distinct cell regardless of skew -> shuffle carries
    # O(cells) rows per block, not O(pages)
    assert part.num_rows == len(set(t["hex_cell_r7"].to_pylist()))
    assert part["pages"].to_pylist() and sum(part["pages"].to_pylist()) == 1000


def test_grouped_topk_merge_plans_agree(monkeypatch):
    """grouped_topk: the single-task merge and the coarse-bucketed
    shuffle merge (for huge group counts) must give identical rows."""
    import ray.data as rd2

    import batch_geocode_ray.stages.dedup as dd
    from batch_geocode_ray.stages.windows import grouped_topk

    monkeypatch.setattr(dd, "SMALL_COLLAPSE_BYTES", 0)  # reach the shuffle

    rng = np.random.RandomState(11)
    t = pa.table({
        "g": pa.array(rng.randint(0, 40, 3000), pa.int64()),
        "v": pa.array(rng.uniform(0, 100, 3000)),
        "id": pa.array(np.arange(3000), pa.int64()),
    })
    ds = rd2.from_arrow(t).repartition(5)

    def run(merge):
        return sorted((r["g"], r["rank"], r["id"]) for r in grouped_topk(
            ds, "g", "v", "id", k=3, merge=merge).take_all())

    single = run("single")
    shuffle = run("shuffle")
    assert single == shuffle and len(single) == 40 * 3


def test_sort_adaptive_shuffle_plan_equals_collapsed(monkeypatch):
    """_sort_adaptive is a physical-plan choice only: forcing the
    distributed sort must give the same row order."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    import batch_geocode_ray.stages.dedup as dd
    from batch_geocode_ray.pipelines.queries import _sort_adaptive

    rng = np.random.RandomState(3)
    t = pa.table({"k": pa.array(rng.permutation(500), pa.int64()),
                  "v": pa.array(rng.rand(500))})
    ds = rd.from_arrow(t).repartition(4)
    want = _sort_adaptive(ds, "k").take_all()
    monkeypatch.setattr(dd, "SMALL_COLLAPSE_BYTES", 0)
    got = _sort_adaptive(ds, "k").take_all()
    assert [r["k"] for r in got] == [r["k"] for r in want] == list(range(500))


def test_cube_aggregate_matches_pandas():
    import numpy as np
    import pandas as pd
    from batch_geocode_ray.stages.aggregates import cube_aggregate

    rng = np.random.default_rng(9)
    a = rng.choice(["x", "y", "z"], 300)
    b = rng.choice(["p", "q"], 300)
    v = rng.integers(0, 100, 300)
    ds = rd.from_arrow(pa.table({
        "a": pa.array(a, pa.string()), "b": pa.array(b, pa.string()),
        "v": pa.array(v, pa.int64()),
    })).repartition(4)
    out = cube_aggregate(ds, ["a", "b"],
                         [("v", "sum", "sv"), ("v", "count", "nv")])
    got = sorted((r["a"], r["b"], r["sv"], r["nv"])
                 for r in out.take_all())

    df = pd.DataFrame({"a": a, "b": b, "v": v})
    want = []
    for keys in [["a", "b"], ["a"], ["b"], []]:
        if keys:
            g = df.groupby(keys)["v"].agg(["sum", "count"]).reset_index()
        else:
            g = pd.DataFrame({"sum": [df["v"].sum()],
                              "count": [len(df)]})
        for _, row in g.iterrows():
            want.append((row.get("a", "ALL"), row.get("b", "ALL"),
                         int(row["sum"]), int(row["count"])))
    assert got == sorted(want)
