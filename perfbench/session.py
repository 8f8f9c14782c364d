"""Ray session, process memory and box-weather helpers for the benchmark."""

from __future__ import annotations

import os
import shutil
import sys

# Ray's AF_UNIX sockets live under <temp_dir>/session_<stamp>_<pid>/sockets/
# and Linux caps a socket path at 107 bytes; that suffix takes up to ~64.
_MAX_RAY_TEMP_DIR = 43


def start_ray(cache_root: str, cpus: int) -> None:
    """A local Ray cluster of ``cpus`` CPUs whose session files stay in
    the checkout when its path is short enough for Ray's sockets."""
    import ray

    from batch_geocode_ray import configure_for_throughput

    kwargs = {}
    temp_dir = os.path.join(cache_root, "ray")
    _prune_sessions(temp_dir)
    if len(temp_dir) <= _MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = temp_dir
        os.environ["RAY_TMPDIR"] = temp_dir
    else:
        print(f"perfbench: {temp_dir} is too long for Ray's socket paths; "
              "using Ray's default session directory", file=sys.stderr)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             log_to_driver=False, object_store_memory=768 << 20, **kwargs)
    configure_for_throughput()


def _prune_sessions(temp_dir: str, keep: int = 8) -> None:
    """Drop all but the newest ``keep`` Ray session directories (~1 MB of
    logs each)."""
    if not os.path.isdir(temp_dir):
        return
    sessions = sorted(n for n in os.listdir(temp_dir) if n.startswith("session_2"))
    for name in sessions[:-keep]:
        shutil.rmtree(os.path.join(temp_dir, name), ignore_errors=True)


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def _descendants(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                # the command name may hold spaces; ppid follows its ')'
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, stack = [], [root_pid]
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, []))
    return out


def peak_rss_mb() -> float:
    """Highest peak resident set (VmHWM) of this process or any process
    it started, Ray's workers included, in MiB."""
    peak_kb = 0
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def cpu_ticks() -> list[int]:
    """The machine-wide CPU tick counters of /proc/stat (user, nice,
    system, idle, iowait, irq, softirq, steal)."""
    with open("/proc/stat") as f:
        return [int(t) for t in f.readline().split()[1:9]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of the CPU time between two ``cpu_ticks`` readings that the
    host gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def weather() -> dict:
    """The repository's memcpy/spin gauge (``bench.weather_gauge``): a
    stamp that lets a spread be traced to the box, not the code."""
    import bench

    return bench.weather_gauge()

