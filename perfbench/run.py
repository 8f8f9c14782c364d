"""Repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload flagship_stream --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Inputs are generated from ``--seed``
and cached under ``.pbcache/``; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``). Spans, samples and the weather stamp go to
``.pbcache/results/``. See perfbench/README.md for the definitions.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".pbcache")

MIN_OPS = 3   # operations timed per run even when --seconds is short
SETUPS = 3    # set-ups per run; setup_s is their median


class Context:
    def __init__(self, workload, inputs, seed: int):
        from workloads import Tally

        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.tally = Tally()
        self.out_root = os.path.join(CACHE, "out", workload.name)
        self.tables_dir = None
        self.world = None
        self.rss_mb = 0.0

    def sample_rss(self) -> None:
        from session import peak_rss_mb

        self.rss_mb = max(self.rss_mb, peak_rss_mb())


def set_up(ctx, cpus: int) -> float:
    """Ray up, world tables loaded, one warm-up shard through the fused
    stage; returns its wall time."""
    from session import start_ray
    from workloads import run_pipeline

    t0 = time.perf_counter()
    start_ray(CACHE, cpus)
    ctx.world = ctx.inputs.world_tables(dense=ctx.workload.dense)
    run_pipeline(ctx.inputs.warm_path, ctx.world, os.path.join(ctx.out_root, "warm"))
    return time.perf_counter() - t0


def _warm_up(ctx) -> None:
    """Before a traced run: an untimed pass of the job's and the queries'
    cold paths (shuffles, per-query code) on small probe inputs. An
    untraced run needs none: its first operation is the cold one, and
    it is left out of the result."""
    from workloads import EXCHANGE_QUERIES, Tally, job_argv, run_job, run_query

    out = os.path.join(ctx.out_root, "job_warm")
    run_job(job_argv(ctx.inputs, ctx.workload, 1, out), out, ctx.seed, Tally())
    probe_tables = ctx.inputs.ensure_tables(0.01, "warm_tables")
    for name in EXCHANGE_QUERIES:
        run_query(name, probe_tables)


def measure(ctx, seconds: float) -> dict:
    """Run the pipeline over the seed's pages for ``seconds`` (at least
    MIN_OPS times), then check the last output. Returns the throughput
    at the median time of the warm operations (all but the first), every
    operation's time and the host's CPU steal over the timed window."""
    from session import cpu_ticks, steal_frac
    from workloads import check_pipeline_output, read_dir, run_pipeline

    tally = ctx.tally
    pages = ctx.inputs.page_files()
    n_pages = sum(_rows(f) for f in pages)
    out_dir = os.path.join(ctx.out_root, "pipeline")
    samples, n_ops = [], 0
    ticks = cpu_ticks()
    t_end = time.perf_counter() + seconds
    while n_ops < MIN_OPS or time.perf_counter() < t_end:
        n_ops += 1
        try:
            t0 = time.perf_counter()
            run_pipeline(pages, ctx.world, out_dir)
            samples.append(time.perf_counter() - t0)
            tally.check(True, "")
        except Exception:  # a raised operation is a counted failure
            traceback.print_exc()
            tally.check(False, "pipeline operation raised")
        if n_ops <= MIN_OPS:  # a fixed amount of work, whatever the speed
            ctx.sample_rss()
    steal = steal_frac(ticks, cpu_ticks())
    if not samples:
        raise RuntimeError("every pipeline operation failed")

    check_pipeline_output(read_dir(out_dir, "url"), pages, ctx.world, ctx.seed, tally)
    # the first operation pays the workers' first-use costs (several
    # times the time of the next ones); the median of the rest rides out
    # operations slowed by a burst of CPU steal on the host
    op_s = statistics.median(samples[1:] or samples)
    return {"pages": n_pages, "op_s": op_s, "pages_per_s": n_pages / op_s,
            "samples": samples, "steal_frac": steal}


def _rows(path: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (the smoke test runs at 0.05)")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "batch_geocode_ray")):
        print(f"perfbench: no batch_geocode_ray package in {ROOT}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    # the JSON line is the only thing on stdout: everything else printed
    # to fd 1 (Ray, the CLI job's summary) goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path[:0] = [ROOT, HERE]
    cpus = len(os.sched_getaffinity(0))
    # Ray runs one worker per CPU, so every process stays single-threaded
    os.environ["OMP_NUM_THREADS"] = "1"
    import pyarrow as pa

    pa.set_cpu_count(1)
    # tempfile and Ray's helper files stay inside the checkout
    os.environ["TMPDIR"] = os.path.join(CACHE, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    import ray  # noqa: F401  (import cost belongs to set-up)

    import layers
    from inputs import InputSet
    from session import stop_ray, weather
    from workloads import PROBE_TABLE_SCALE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    inputs = InputSet(CACHE, args.seed, args.scale)
    ctx = Context(wl, inputs, args.seed)
    inputs.ensure_world()

    try:
        setups = []
        for i in range(SETUPS):
            if i:
                stop_ray()
            setups.append(set_up(ctx, cpus))
        setup_s = import_s + statistics.median(setups)
        inputs.ensure_pages()  # untimed; Ray tasks when missing
        stamp = weather()
        if args.trace:
            ctx.tables_dir = inputs.ensure_tables(PROBE_TABLE_SCALE, "probe_tables")
            _warm_up(ctx)
            metrics_raw, spans = layers.trace_run(ctx)
            result = {"per_layer": metrics_raw}
        else:
            result = measure(ctx, args.seconds)
            spans = []
    finally:
        stop_ray()

    tally = ctx.tally
    if args.trace:
        raw = {**metrics_raw, "run.cpus": cpus, "box.memcpy_gbps": stamp["memcpy_gbps"],
               "error_rate": tally.failed / tally.attempted}
        units = _layer_units()
        metrics = {name: _metric(float(v), units[name]) for name, v in raw.items()}
    else:
        metrics = {
            "pages_per_s": _metric(result["pages_per_s"], "pages/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(ctx.rss_mb, "MB"),
        }
    side = {"workload": wl.name, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "cpus": cpus, "weather": stamp,
            "import_s": import_s, "setups_s": setups, "setup_s": setup_s,
            "failures": tally.notes,
            "result": result, "spans": spans}
    os.makedirs(os.path.join(CACHE, "results"), exist_ok=True)
    side_path = os.path.join(CACHE, "results",
                             f"{wl.name}-s{args.seed}-t{args.trace}.json")
    with open(side_path, "w") as f:
        json.dump(side, f, indent=1, default=float)
    print(f"perfbench: {wl.name} seed={args.seed} cpus={cpus} "
          f"weather={stamp} details in {side_path}", file=sys.stderr)

    line = json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})
    os.write(result_fd, (line + "\n").encode())
    os.close(result_fd)
    return 0


def _layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
