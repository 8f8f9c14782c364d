"""global_percent_rank (stages/aggregates.py): SQL RANK-tie semantics
against a naive numpy oracle, single-row zero, null rejection, and
empty-input error."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from batch_geocode_ray.stages.aggregates import global_percent_rank


def _collect(out):
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")])
    return t.sort_by([("i", "ascending")])


def test_matches_naive_rank_cdf(ray_session):
    rng = np.random.RandomState(5)
    v = rng.randint(0, 50, 1200)  # heavy ties: 50 distinct over 1200 rows
    ds = ray.data.from_arrow(pa.table({
        "i": pa.array(np.arange(len(v)), pa.int64()),
        "v": pa.array(v, pa.int64())})).repartition(7)
    got = _collect(global_percent_rank(ds, "v", "pct"))
    # naive oracle: pct = (count strictly below) / (n - 1), ties share
    want = np.array([(v < x).sum() for x in v]) / (len(v) - 1)
    np.testing.assert_allclose(
        np.array(got["pct"].to_pylist()), want, rtol=0, atol=0)
    # schema: input columns preserved, pct appended
    assert got.column_names == ["i", "v", "pct"]


def test_single_row_is_zero(ray_session):
    t = pa.table({"i": pa.array([0], pa.int64()),
                  "v": pa.array([42], pa.int64())})
    got = _collect(global_percent_rank(ray.data.from_arrow(t), "v", "pct"))
    assert got["pct"][0].as_py() == 0.0


def test_nulls_rejected(ray_session):
    t = pa.table({"i": pa.array([0, 1], pa.int64()),
                  "v": pa.array([1, None], pa.int64())})
    with pytest.raises(ValueError, match="null values"):
        global_percent_rank(ray.data.from_arrow(t), "v")


def test_empty_input_raises(ray_session):
    t = pa.table({"i": pa.array([], pa.int64()),
                  "v": pa.array([], pa.int64())})
    with pytest.raises(ValueError, match="empty input"):
        global_percent_rank(ray.data.from_arrow(t), "v")


def test_float_column_rejected(ray_session):
    """Float scores would be truncated to int64 and ranked wrong."""
    t = pa.table({"i": pa.array([0, 1], pa.int64()),
                  "v": pa.array([0.25, 0.75], pa.float64())})
    with pytest.raises(TypeError, match="not an integer type"):
        global_percent_rank(ray.data.from_arrow(t), "v")
