"""Tile aggregation correctness (skew-resistance must not change
answers — SURVEY §5.5)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

import batch_geocode_ray.stages.aggregates as ag
from batch_geocode_ray.stages.aggregates import tile_aggregate


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


def test_partial_aggregate_collapses_hot_cell(monkeypatch):
    """What tile_aggregate hands to the exchange for a 50%-hot cell:
    per-batch partials, at most one row per (cell, input block) —
    O(cells) rows per block, not O(pages) — whose ``pages`` still sum
    to the input row count."""
    ds, t = make_ds(n=5000, hot_frac=0.5)
    n_blocks = ds.materialize().num_blocks()
    seen = []
    real = ag._exchange

    def spy(partials, keys, fn, *a, **kw):
        partials = partials.materialize()
        seen.append(pa.concat_tables(
            partials.iter_batches(batch_format="pyarrow")))
        return real(partials, keys, fn, *a, **kw)

    monkeypatch.setattr(ag, "_exchange", spy)
    assert tile_aggregate(ds, "hex_cell_r7").count() == 7
    [part] = seen
    n_cells = len(set(t["hex_cell_r7"].to_pylist()))
    assert n_cells == 7 and n_blocks == 8
    assert part.num_rows <= n_cells * n_blocks
    assert sum(part["pages"].to_pylist()) == t.num_rows


def test_grouped_topk_merge_plans_agree(monkeypatch):
    """grouped_topk: the collapsed single-task merge and the
    coarse-bucketed exchange (for huge group counts, forced by
    ``SMALL_COLLAPSE_BYTES = 0``) must give identical rows."""
    import ray.data as rd2

    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.windows import grouped_topk

    rng = np.random.RandomState(11)
    t = pa.table({
        "g": pa.array(rng.randint(0, 40, 3000), pa.int64()),
        "v": pa.array(rng.uniform(0, 100, 3000)),
        "id": pa.array(np.arange(3000), pa.int64()),
    })
    ds = rd2.from_arrow(t).repartition(5)

    def run():
        return sorted((r["g"], r["rank"], r["id"]) for r in grouped_topk(
            ds, "g", "v", "id", k=3).take_all())

    single = run()
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)  # reach the shuffle
    shuffle = run()
    assert single == shuffle and len(single) == 40 * 3


def test_sort_adaptive_shuffle_plan_equals_collapsed(monkeypatch):
    """_sort_adaptive is a physical-plan choice only: forcing the
    distributed sort must give the same row order."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.pipelines.queries import _sort_adaptive

    rng = np.random.RandomState(3)
    t = pa.table({"k": pa.array(rng.permutation(500), pa.int64()),
                  "v": pa.array(rng.rand(500))})
    ds = rd.from_arrow(t).repartition(4)
    want = _sort_adaptive(ds, "k").take_all()
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
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


def _aggregate_both_plans(ds, keys, sort_keys, monkeypatch):
    """grouped_aggregate rows (in output order) collapsed, then with
    the exchange forced distributed (``SMALL_COLLAPSE_BYTES = 0``)."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.aggregates import grouped_aggregate

    specs = [("v", "sum", "sv"), ("v", "count", "nv"),
             ("v", "mean", "mv"), ("v", "min", "lo"), ("v", "max", "hi"),
             (None, "count_rows", "rows")]
    out = []
    for distributed in (False, True):
        with monkeypatch.context() as m:
            if distributed:
                m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
            out.append([tuple(r.values()) for r in grouped_aggregate(
                ds, keys, specs, sort_keys=sort_keys).take_all()])
    return out


def _null_last(v):
    return (v is None, v if v is not None else 0)


def test_grouped_aggregate_string_int_key_plans_agree(monkeypatch):
    """(string, int64) key: both plans give the pandas answer, and
    ``sort_keys`` (here NOT the key order) orders the output on the
    distributed plan too."""
    rng = np.random.RandomState(12)
    n = 3000
    s = rng.choice(["en", "de", "fr", "ja"], n)
    i = rng.randint(-3, 6, n)
    v = rng.uniform(-5, 5, n)
    ds = rd.from_arrow(pa.table({"s": pa.array(s),
                                 "i": pa.array(i, pa.int64()),
                                 "v": pa.array(v)})).repartition(6)
    collapsed, distributed = _aggregate_both_plans(
        ds, ["s", "i"], ["i", "s"], monkeypatch)
    want = (pd.DataFrame({"s": s, "i": i, "v": v})
            .groupby(["s", "i"])["v"]
            .agg(["sum", "count", "mean", "min", "max", "size"])
            .reset_index().sort_values(["i", "s"]))
    for got in (collapsed, distributed):
        assert [r[:2] for r in got] == list(zip(want["s"], want["i"]))
        np.testing.assert_allclose([r[2] for r in got], want["sum"],
                                   rtol=1e-9)
        assert [r[3] for r in got] == want["count"].tolist()
        assert [r[7] for r in got] == want["size"].tolist()
        np.testing.assert_allclose([r[4:7] for r in got],
                                   want[["mean", "min", "max"]], rtol=1e-9)


def test_grouped_aggregate_timestamp_key_with_nulls(monkeypatch):
    """Timestamp key with null keys (their own group, sorted last) and
    null values: both plans agree, row for row in sort order."""
    import datetime as dt

    rng = np.random.RandomState(13)
    n = 2000
    base = dt.datetime(2024, 5, 1)
    ts = [None if j % 23 == 0 else base + dt.timedelta(hours=int(h))
          for j, h in enumerate(rng.randint(0, 40, n))]
    v = rng.uniform(0, 1, n)
    v[rng.rand(n) < 0.05] = np.nan
    ds = rd.from_arrow(pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "v": pa.array(v, pa.float64(), from_pandas=True)})).repartition(6)
    collapsed, distributed = _aggregate_both_plans(
        ds, ["ts"], ["ts"], monkeypatch)
    keys = [r[0] for r in distributed]
    assert keys == sorted(set(ts), key=_null_last)
    assert keys[-1] is None
    for a, b in zip(collapsed, distributed):
        assert a[0] == b[0] and a[2] == b[2] and a[6] == b[6]
        np.testing.assert_allclose(a[1:], b[1:], rtol=1e-12)
    assert distributed[-1][6] == sum(t is None for t in ts)


def test_sort_adaptive_timestamp_key_with_nulls(monkeypatch):
    """The distributed final sort (``queries._sort_adaptive`` forced
    past the probe) over a timestamp key that holds nulls returns each
    row exactly once, non-null keys ascending. Ray's own sort emitted
    some rows twice whenever it sampled a null key, so repeat it."""
    import datetime as dt

    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.pipelines.queries import _sort_adaptive

    rng = np.random.RandomState(5)
    n = 400
    base = dt.datetime(2024, 5, 1)
    ts = [None if j % 4 == 0 else base + dt.timedelta(minutes=int(m))
          for j, m in enumerate(rng.randint(0, 10000, n))]
    ds = rd.from_arrow(pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "i": pa.array(range(n), pa.int64())})).repartition(6)
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    for _ in range(6):
        got = _sort_adaptive(ds, "ts").take_all()
        assert sorted(r["i"] for r in got) == list(range(n))
        keys = [r["ts"] for r in got if r["ts"] is not None]
        assert keys == sorted(keys)
        assert list(got[0]) == ["ts", "i"]


def test_grouped_aggregate_bit_identical_under_block_order(monkeypatch):
    """Float sums whose value depends on summation order (1e16 + 1 ==
    1e16) come out bit-identical whatever order the input blocks, and
    so the partials, arrive in, on both plans: a resumed job must
    rebuild the same tiles as a clean one."""
    from batch_geocode_ray.stages import exchange
    from batch_geocode_ray.stages.aggregates import grouped_aggregate

    vals = [1e16, 1.0, -1e16, 3.0, 0.5, -7.25, 2e15, -2e15]
    blocks = [pa.table({"g": pa.array([g], pa.int64()),
                        "v": pa.array([v])})
              for v in vals for g in (1, 2)]
    specs = [("v", "sum", "s"), ("v", "mean", "m")]
    for distributed in (False, True):
        with monkeypatch.context() as m:
            if distributed:
                m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
            got = [grouped_aggregate(rd.from_arrow(bs), ["g"], specs,
                                     sort_keys=["g"]).take_all()
                   for bs in (blocks, blocks[::-1], blocks[3:] + blocks[:3])]
        assert got[0] == got[1] == got[2], distributed
