"""Reference-shaped CSV writer + column-order parity + kNN grid path."""

import csv
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from batch_geocode_ray.sources.writers import (
    reference_column_order,
    write_reference_csv,
)


def test_reference_column_order():
    cols = ["url", "lang", "GM1_name", "GM1_lat", "GM1_long", "GM1_type",
            "GM1_buffer", "best_name", "best_type", "best_lat", "best_long",
            "best_buffer", "OSM1_name", "OSM1_type", "OSM1_lat", "OSM1_long",
            "OSM1_buffer"]
    order = reference_column_order(cols)
    assert order[:2] == ["url", "lang"]          # meta first, input order
    assert order[2:7] == ["best_name", "best_type", "best_lat",
                          "best_long", "best_buffer"]  # best forced first
    assert order[7].startswith("GM1")            # then case-insensitive sort


def test_reference_column_order_adds_missing():
    # a prefix missing some suffixes still gets all 5 slots (reindex)
    order = reference_column_order(["url", "GM1_name"])
    assert [c for c in order if c.startswith("GM1")] == [
        "GM1_name", "GM1_type", "GM1_lat", "GM1_long", "GM1_buffer"]


def test_write_reference_csv(tmp_path):
    ds = rd.from_arrow(pa.table({
        "url": pa.array(["u1", "u2"]),
        "GM1_name": pa.array(["A", None]),
        "GM1_lat": pa.array([1.0, None]),
    }))
    out = str(tmp_path / "out.csv")
    n = write_reference_csv(ds, out)
    assert n == 2
    with open(out) as f:
        rows = list(csv.reader(f))
    header = rows[0]
    assert header[0] == "url"
    assert header[1:6] == ["best_name", "best_type", "best_lat",
                           "best_long", "best_buffer"]
    assert "GM1_type" in header  # null-materialized missing column
    assert rows[1][header.index("GM1_name")] == "A"


def test_write_reference_csv_row_guard(tmp_path):
    ds = rd.from_arrow(pa.table({"url": pa.array(["a"] * 10)}))
    with pytest.raises(ValueError):
        write_reference_csv(ds, str(tmp_path / "x.csv"), max_driver_rows=5)


def test_knn_grid_matches_bruteforce():
    from batch_geocode_ray.stages.knn import FacilityIndex, KNNFacilities

    rng = np.random.RandomState(9)
    fac = pa.table({
        "facility_id": pa.array(range(300), pa.int64()),
        "name": pa.array([f"f{i}" for i in range(300)]),
        "lat": pa.array(rng.uniform(-60, 60, 300)),
        "lon": pa.array(rng.uniform(-170, 170, 300)),
        "facility_type": pa.array(["c"] * 300),
    })
    idx = FacilityIndex(fac)
    batch = pa.table({
        "best_long": pa.array(rng.uniform(-170, 170, 50)),
        "best_lat": pa.array(rng.uniform(-60, 60, 50)),
    })
    brute = KNNFacilities(idx, k=3)(batch)
    grid = KNNFacilities(idx, k=3, use_grid=True)(batch)
    for a, b in zip(brute["knn_ids"].to_pylist(), grid["knn_ids"].to_pylist()):
        assert a == b


def test_knn_grid_exact_under_sparsity_and_high_latitude():
    # adversarial: few facilities, finer grid, high-|lat| query points —
    # the ring often holds >=k candidates that are NOT the true top-k,
    # exercising the guarantee-radius fallback
    from batch_geocode_ray.stages.knn import FacilityIndex, KNNFacilities

    rng = np.random.RandomState(17)
    nf = 40
    fac = pa.table({
        "facility_id": pa.array(range(nf), pa.int64()),
        "name": pa.array([f"f{i}" for i in range(nf)]),
        "lat": pa.array(rng.uniform(55, 75, nf)),
        "lon": pa.array(rng.uniform(-30, 30, nf)),
        "facility_type": pa.array(["c"] * nf),
    })
    idx = FacilityIndex(fac, grid_res=4)
    batch = pa.table({
        "best_long": pa.array(rng.uniform(-30, 30, 80)),
        "best_lat": pa.array(rng.uniform(55, 75, 80)),
    })
    brute = KNNFacilities(idx, k=5)(batch)
    grid = KNNFacilities(idx, k=5, use_grid=True)(batch)
    assert brute["knn_ids"].to_pylist() == grid["knn_ids"].to_pylist()


def _facilities(lat, lon):
    n = len(lat)
    return pa.table({
        "facility_id": pa.array(range(1, n + 1), pa.int64()),
        "name": pa.array([f"f{i}" for i in range(n)], pa.string()),
        "lat": pa.array(lat, pa.float64()),
        "lon": pa.array(lon, pa.float64()),
        "facility_type": pa.array(["c"] * n, pa.string()),
    })


def test_knn_empty_facilities_gives_empty_lists():
    from batch_geocode_ray.stages.knn import FacilityIndex, KNNFacilities

    idx = FacilityIndex(_facilities([], []))
    batch = pa.table({"best_long": pa.array([10.0, None, -3.0]),
                      "best_lat": pa.array([50.0, None, 40.0])})
    for use_grid in (False, True):
        out = KNNFacilities(idx, k=3, use_grid=use_grid)(batch)
        assert out["knn_ids"].to_pylist() == [[], [], []], use_grid
        assert out["knn_dists"].to_pylist() == [[], [], []], use_grid


def test_facility_index_rejects_non_finite_coordinates():
    from batch_geocode_ray.stages.knn import FacilityIndex

    fac = _facilities([50.0, np.nan, 51.0, 52.0], [10.0, 10.0, np.inf, 11.0])
    with pytest.raises(ValueError, match=r"facility_id \[2, 3\]"):
        FacilityIndex(fac)


def test_query_mode_writes_the_registry_rows_and_refuses_a_used_out(
        tmp_path, monkeypatch):
    """``run.py --query`` writes as many rows as the registry entry
    returns; a second run into the same --out is refused before the
    query function is called (some queries run Ray work while they
    are built)."""
    import pyarrow.parquet as pq

    from batch_geocode_ray.pipelines import queries
    from batch_geocode_ray.run import main

    from .test_order_contract import SF as sf
    name = "q01_pricing_summary"
    out = tmp_path / "q01"
    main(["--query", name, "--sf-dir", sf, "--out", str(out)])
    written = sum(pq.read_metadata(str(f)).num_rows
                  for f in out.glob("*.parquet"))
    assert written == queries.QUERIES[name](sf).count() > 0

    calls = []
    monkeypatch.setitem(queries.QUERIES, name,
                        lambda sf_dir: calls.append(sf_dir))
    with pytest.raises(SystemExit, match="already holds"):
        main(["--query", name, "--sf-dir", sf, "--out", str(out)])
    assert calls == []
