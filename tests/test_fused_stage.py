"""The fused flagship stage's physical plan: stage state is built on the
driver and only loaded by the workers, per-worker state stays bounded
across builds, read blocks are sized for the cluster, and the bench
world keeps the plan its scaling record was measured on. Its output is
checked against tests/oracle.py in test_pipeline_oracle.py."""

import pyarrow as pa

from batch_geocode_ray.pipelines.geocode import build_geocode_pipeline
from batch_geocode_ray.sources.fixtures import ensure_fixture_dir, generate_world


def _live_fused_states(batch: pa.Table) -> pa.Table:
    """Probe fused after the stage: live fused states in this worker."""
    import gc
    import os

    from batch_geocode_ray.pipelines.geocode import GeocodeFusedStage

    gc.collect()
    live = sum(isinstance(o, GeocodeFusedStage) for o in gc.get_objects())
    return pa.table({"pid": [os.getpid()], "live": [live]})


class _BuiltIn:
    """Stage that records the pid of the process that constructed it,
    and of the process that runs each batch."""

    def __init__(self):
        import os

        self.pid = os.getpid()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import os

        n = batch.num_rows
        return pa.table({"built": pa.array([self.pid] * n, pa.int64()),
                         "ran": pa.array([os.getpid()] * n, pa.int64())})


def test_stage_state_is_built_on_the_driver():
    """``stateful_map_batches`` takes a stage the driver has built: over
    more blocks than there are workers, every batch runs in a worker and
    carries the driver's pid as its builder's, so no worker built it."""
    import os

    import ray
    import ray.data as rd

    from batch_geocode_ray.stages.stateful import gather, stateful_map_batches

    blocks = 3 * int(ray.cluster_resources().get("CPU", 4))
    ds = rd.range(blocks * 5, override_num_blocks=blocks)
    out = gather(stateful_map_batches(ds, _BuiltIn(), batch_format="pyarrow",
                                      batch_size=None))
    assert out.num_rows == blocks * 5
    assert set(out["built"].to_pylist()) == {os.getpid()}
    assert os.getpid() not in set(out["ran"].to_pylist())


def test_fused_state_per_worker_bounded():
    """Every build broadcasts fresh ObjectRefs, so every build constructs
    a new fused state in each worker that runs it. Over more builds than
    the workers have cache slots in total, some worker runs more than
    _STATE_CACHE_MAX builds; it must still hold at most that many live
    states (an unbounded cache kept one per build)."""
    import ray

    from batch_geocode_ray.stages.stateful import _STATE_CACHE_MAX

    d = ensure_fixture_dir(300)
    w = generate_world()
    workers = int(ray.cluster_resources().get("CPU", 4))
    peak: dict[int, int] = {}
    for _ in range(_STATE_CACHE_MAX * workers + 1):
        ds = build_geocode_pipeline(
            f"{d}/pages", w.gazetteer, admin_polygons=w.admin_polygons,
            facilities=w.facilities, with_knn=True)
        probe = ds.map_batches(_live_fused_states, batch_format="pyarrow",
                               batch_size=None)
        for t in probe.iter_batches(batch_format="pyarrow"):
            for pid, live in zip(t["pid"].to_pylist(), t["live"].to_pylist()):
                peak[pid] = max(peak.get(pid, 0), live)
    assert peak and min(peak.values()) >= 1
    assert max(peak.values()) <= _STATE_CACHE_MAX, peak


def test_read_num_blocks_sizing(tmp_path):
    """Read-block sizing: ~32MB blocks with a 3-tasks/CPU floor for big
    inputs, but never sub-MB blocks for small inputs (the floor once
    sliced a 14MB fixture into 96 tiny blocks — 2x slower)."""
    import ray

    from batch_geocode_ray.pipelines.geocode import _read_num_blocks

    cpus = int(ray.cluster_resources().get("CPU", 4))
    p = tmp_path / "small.bin"
    p.write_bytes(b"x" * (14 << 20))  # 14MB
    n = _read_num_blocks(str(p))
    assert n is not None and n <= 14  # >= ~1MB per block
    big = tmp_path / "big.bin"
    big.write_bytes(b"x" * (64 << 20))
    big_total = 100 * (64 << 20)  # simulate via many paths
    n_big = _read_num_blocks([str(big)] * 100)
    assert n_big == max(3 * cpus, big_total // (32 << 20))
    assert _read_num_blocks(str(tmp_path / "missing")) is None


def test_bench_world_flagship_plan_unchanged_by_r5():
    """Scaling-record inheritance witness (BASELINE.md round-5): the
    flagship's Ray physical plan is still one ReadParquet feeding one
    fused MapBatches of worker-cached tasks, its only plan, so the
    measured r3 clean-window scaling record applies to this build.
    The columnar grid PolygonIndex replaced the R-tree INSIDE that
    fused task: it changes the per-batch PIP kernel, not the plan."""
    d = ensure_fixture_dir(300)
    w = generate_world()
    ds = build_geocode_pipeline(
        f"{d}/pages", w.gazetteer, admin_polygons=w.admin_polygons,
        facilities=w.facilities, with_knn=True)
    chain, op = [], ds._logical_plan.dag
    while op is not None:
        chain.append(op.name)
        op = op.input_dependencies[0] if op.input_dependencies else None
    assert chain == ["MapBatches(_cached_call)", "ReadParquet"]
