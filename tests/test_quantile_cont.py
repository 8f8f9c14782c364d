"""grouped_quantile_cont (stages/aggregates.py): numpy-oracle parity
(np.percentile 'linear' IS the percentile_cont h=(n-1)q semantics),
hand-computed interpolation, null handling, and validation errors."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from batch_geocode_ray.stages.aggregates import grouped_quantile_cont


def _collect(out):
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")])
    return t.sort_by([("g", "ascending")])


def test_matches_numpy_percentile(ray_session):
    rng = np.random.RandomState(7)
    n = 3000
    g = rng.randint(0, 5, n)
    v = rng.randint(1, 400, n)
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(g, pa.int64()),
        "v": pa.array(v, pa.int64())})).repartition(8)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9]
    got = _collect(grouped_quantile_cont(ds, ["g"], "v", qs))
    assert got.column_names == ["g", "p10", "p25", "p50", "p75", "p90"]
    for i, gid in enumerate(got["g"].to_pylist()):
        vs = v[g == gid]
        for q, nm in zip(qs, ["p10", "p25", "p50", "p75", "p90"]):
            want = np.percentile(vs, q * 100, method="linear")
            assert got[nm][i].as_py() == pytest.approx(want, abs=1e-9), \
                (gid, q)


def test_hand_computed_interpolation(ray_session):
    # group 1: values [10, 20, 30, 40] -> p25 at h=0.75: 10+0.75*10=17.5
    # group 2: single value -> every quantile is that value
    t = pa.table({"g": pa.array([1, 1, 1, 1, 2], pa.int64()),
                  "v": pa.array([40, 10, 30, 20, 99], pa.int64())})
    got = _collect(grouped_quantile_cont(
        ray.data.from_arrow(t), ["g"], "v", [0.25, 0.5, 0.75]))
    assert got["p25"][0].as_py() == pytest.approx(17.5)
    assert got["p50"][0].as_py() == pytest.approx(25.0)
    assert got["p75"][0].as_py() == pytest.approx(32.5)
    assert [got[c][1].as_py() for c in ("p25", "p50", "p75")] == [99.0] * 3


def test_repeated_values_and_nulls(ray_session):
    # duplicates collapse into counts; nulls are ignored like SQL
    t = pa.table({"g": pa.array([1] * 6, pa.int64()),
                  "v": pa.array([5, 5, 5, 9, None, 9], pa.int64())})
    got = _collect(grouped_quantile_cont(
        ray.data.from_arrow(t), ["g"], "v", [0.5],
        out_names=["med"]))
    # non-null sorted: [5,5,5,9,9]; h=2 -> exactly 5
    assert got["med"][0].as_py() == pytest.approx(5.0)


def test_multi_key_string_groups(ray_session):
    # composite (string, int) grouping: segments split on EITHER key
    rng = np.random.RandomState(11)
    n = 800
    s = np.array(["web", "wiki", "code"])[rng.randint(0, 3, n)]
    k2 = rng.randint(0, 2, n)
    v = rng.randint(1, 100, n)
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array(s), "k2": pa.array(k2, pa.int64()),
        "v": pa.array(v, pa.int64())})).repartition(6)
    out = grouped_quantile_cont(ds, ["src", "k2"], "v", [0.5], ["med"])
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")])
    t = t.sort_by([("src", "ascending"), ("k2", "ascending")])
    assert t.num_rows == 6
    for i in range(6):
        src, kk = t["src"][i].as_py(), t["k2"][i].as_py()
        vs = v[(s == src) & (k2 == kk)]
        assert t["med"][i].as_py() == pytest.approx(
            np.percentile(vs, 50, method="linear"), abs=1e-9)


def test_validation_errors(ray_session):
    t = pa.table({"g": pa.array([1], pa.int64()),
                  "v": pa.array([1], pa.int64())})
    ds = ray.data.from_arrow(t)
    with pytest.raises(ValueError, match="no quantiles"):
        grouped_quantile_cont(ds, ["g"], "v", [])
    with pytest.raises(ValueError, match="outside"):
        grouped_quantile_cont(ds, ["g"], "v", [1.5])
    with pytest.raises(ValueError, match="length mismatch"):
        grouped_quantile_cont(ds, ["g"], "v", [0.5], out_names=["a", "b"])


def test_all_null_group_emits_null_row(ray_session):
    # SQL GROUP BY keeps a group whose values are all null and gives it
    # a NULL percentile_cont; it must not vanish from the output
    t = pa.table({"g": pa.array([1, 1, 2, 2, 3], pa.int64()),
                  "v": pa.array([4, 8, None, None, 5], pa.int64())})
    got = _collect(grouped_quantile_cont(
        ray.data.from_arrow(t).repartition(2), ["g"], "v", [0.25, 0.5]))
    assert got["g"].to_pylist() == [1, 2, 3]
    assert got["p25"].to_pylist() == [5.0, None, 5.0]
    assert got["p50"].to_pylist() == [6.0, None, 5.0]


def test_int64_beyond_2_53_at_integer_rank(ray_session):
    # h = 0.5 * (3 - 1) = 1 is an integer rank: the quantile is the
    # middle value itself, not a float interpolation between neighbours
    big = [2 ** 62 + 1024, 2 ** 62 + 2048, 2 ** 62 + 4096]
    t = pa.table({"g": pa.array([1, 1, 1, 2], pa.int64()),
                  "v": pa.array(big + [2 ** 53 + 1], pa.int64())})
    got = _collect(grouped_quantile_cont(
        ray.data.from_arrow(t), ["g"], "v", [0.0, 0.5, 1.0]))
    assert [got[c][0].as_py() for c in ("p00", "p50", "p100")] == \
        [float(x) for x in big]
    assert int(got["p50"][0].as_py()) == big[1]
    assert got["p50"][1].as_py() == float(2 ** 53 + 1)


# --- one value->count kernel for disc and cont, on both exchange plans ----

def _both_plans(make, monkeypatch):
    """Rows of ``make()`` collapsed and with the exchange forced
    distributed (``SMALL_COLLAPSE_BYTES = 0``)."""
    from batch_geocode_ray.stages import exchange

    out = []
    for distributed in (False, True):
        with monkeypatch.context() as m:
            if distributed:
                m.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
            t = pa.concat_tables(make().iter_batches(batch_format="pyarrow"))
        out.append(sorted(tuple(r.values()) for r in t.to_pylist()))
    return out


def test_grouped_quantiles_matches_duckdb_quantile_disc(ray_session,
                                                         monkeypatch):
    """Float values with heavy ties (and one null, which SQL ignores)
    against DuckDB quantile_disc, on both exchange plans."""
    import duckdb

    from batch_geocode_ray.stages.aggregates import grouped_quantiles

    rng = np.random.RandomState(4)
    n = 2500
    g = rng.choice(["A", "N", "R"], n)
    v = np.round(rng.uniform(0, 50, n), 1)     # ~500 distinct: many ties
    v[:300] = 12.5                             # one value dominates
    t = pa.table({"g": pa.array(g),
                  "v": pa.array(np.where(np.arange(n) == 7, np.nan, v),
                                from_pandas=True)})
    ds = ray.data.from_arrow(t).repartition(7)
    qs = [0.0, 0.1, 0.5, 0.95, 1.0]
    names = ["q0", "q10", "q50", "q95", "q100"]
    collapsed, distributed = _both_plans(
        lambda: grouped_quantiles(ds, "g", "v", qs, names), monkeypatch)
    assert collapsed == distributed
    sel = ", ".join(f"quantile_disc(v, {q}) AS {nm}"
                    for q, nm in zip(qs, names))
    want = duckdb.sql(f"SELECT g, {sel} FROM t GROUP BY g ORDER BY g") \
        .fetchall()
    assert collapsed == [tuple(r) for r in want]


def test_multi_key_all_null_group_both_plans(ray_session, monkeypatch):
    """(string, int64) groups, one of them all-null: its quantile row is
    NULL on both plans, the others match numpy."""
    rng = np.random.RandomState(9)
    n = 1200
    s = rng.choice(["en", "de"], n)
    k = rng.randint(0, 3, n)
    v = rng.randint(0, 90, n).astype(object)
    v[(s == "de") & (k == 2)] = None           # the all-null group
    ds = ray.data.from_arrow(pa.table({
        "s": pa.array(s), "k": pa.array(k, pa.int64()),
        "v": pa.array(list(v), pa.int64())})).repartition(5)
    collapsed, distributed = _both_plans(
        lambda: grouped_quantile_cont(ds, ["s", "k"], "v", [0.25, 0.5]),
        monkeypatch)
    assert collapsed == distributed
    assert [r[:2] for r in collapsed] == [
        (a, b) for a in ("de", "en") for b in range(3)]
    for si, ki, p25, p50 in collapsed:
        vs = np.array([x for x in v[(s == si) & (k == ki)] if x is not None],
                      dtype=np.int64)
        if not len(vs):
            assert (si, ki, p25, p50) == ("de", 2, None, None)
            continue
        assert p25 == pytest.approx(np.percentile(vs, 25), abs=1e-9)
        assert p50 == pytest.approx(np.percentile(vs, 50), abs=1e-9)
