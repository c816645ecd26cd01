"""Small helpers shared by the batch and serve halves of the benchmark."""

from __future__ import annotations

import os
import signal
import subprocess


class BenchError(Exception):
    """The benchmark could not run (not a wrong output: those are
    reported through the result's ``correct`` flag)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, as ``repro loadtest`` reports it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "makespan_cycles": "cycles",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
}

#: per-layer metrics (``--trace 1``) and their units
PER_LAYER = {
    "asm.parse_s": "s",
    "cfg.partition_s": "s",
    "dag.build_s": "s",
    "dag.comparisons": "count",
    "dag.table_probes": "count",
    "dag.bitmap_ops": "count",
    "dag.arcs_added": "count",
    "dag.cache_hit_ratio": "ratio",
    "heuristics.pass_s": "s",
    "scheduling.schedule_s": "s",
    "scheduling.timing_s": "s",
    "verify.check_s": "s",
    "verify.blocks_checked": "count",
    "verify.blocks_unchecked": "count",
    "runner.batch_s": "s",
    "runner.overhead_s": "s",
    "runner.attempts_per_block": "ratio",
    "runner.wasted_work": "count",
    "runner.jobs_speedup": "ratio",
    "runner.worker_restarts": "count",
    "serve.expand_ms": "ms",
    "serve.engine_ms": "ms",
    "serve.codec_us": "us",
    "serve.wal_append_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.queue_depth_max": "count",
    "serve.rejected": "count",
    "serve.overload_max_level": "level",
    "trace.overhead_s": "s",
}


def with_units(values: dict, units: dict) -> tuple[dict, list[str]]:
    """Every metric of ``units`` as ``{"value", "unit"}``.

    A metric the workload does not exercise (a layer off its path)
    reads 0; the names are returned so the run can say so.
    """
    absent = [name for name in units if name not in values]
    return ({name: {"value": values.get(name, 0), "unit": unit}
             for name, unit in units.items()}, absent)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds process ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_env(src: str) -> dict:
    """Environment for a child process that must import the
    checkout's own ``repro`` and nothing installed elsewhere."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONSTARTUP", None)
    return env


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one vCPU.

    The work clock's probe reads the speed of the vCPU it runs on, and
    the host's vCPUs slow down independently of each other, so the
    timed work must run where the probe does.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(argv: list[str], env: dict, timeout: float,
              pin: bool = False) -> str:
    """Run a child in its own process group; return its stdout.

    With ``pin`` the child runs on one vCPU (``pin_to_one_cpu``).

    However the child ends -- exit, timeout, or this process being
    interrupted -- whatever is left of its group (pool workers
    included) is killed and the child is waited for, so nothing the
    benchmark started outlives it.
    """
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=pin_to_one_cpu if pin else None)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} timed out after {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return out
