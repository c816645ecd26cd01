"""Batch workloads: whole Table 3 programs compiled by ``run_batch``.

Each compile runs in a fresh process (``batch_child.py``), so its
setup time and peak RSS are its own.  The untimed runs repeat the
compile for ``--seconds``; the traced run splits one compile into its
layers.  Every run is checked: all schedules of a run must be
identical, and every block's schedule must pass ``verify_schedule``
(up to the workload's stated size cap).
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median
from time import perf_counter

import inputs
import layers
from common import child_env, percentile, run_child

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "batch_child.py")

#: fewest compiles one untraced run measures, however long they take
MIN_COMPILES = 3
#: fewest process start-ups one run measures for setup_s
MIN_SETUPS = 9
#: a single child may not take longer than this
CHILD_TIMEOUT_S = 150.0
#: share of the replay's wall its layer spans must cover
COVERAGE = 0.95


class Spawner:
    """Starts ``batch_child.py`` processes and times their set-up."""

    def __init__(self, src: str, input_path: str, jobs: int,
                 verify: bool) -> None:
        self.env = child_env(src)
        self.jobs = jobs
        self.args = ["--input", input_path, "--jobs", str(jobs)]
        if verify:
            self.args.append("--verify")
        self.setups: list[float] = []
        self.setup_walls: list[float] = []

    def __call__(self, mode: str) -> dict:
        # A serial compile runs on one vCPU, where its work clock's
        # probe runs; a parallel one needs them all.  Set-up is counted
        # only from children started on one vCPU, for the same reason.
        pin = mode == "setup" or self.jobs == 1
        t_spawn = perf_counter()
        doc = json.loads(run_child(
            [sys.executable, CHILD, mode, *self.args], self.env,
            CHILD_TIMEOUT_S, pin))
        if pin:
            self.setups.append(doc["setup_s"])
            self.setup_walls.append(doc["t_ready"] - t_spawn)
        return doc


def run(spec: dict, seed: int, seconds: float, trace: bool,
        workdir: str, src: str) -> tuple[list[str], int, int, dict]:
    from repro.cli import MACHINES

    machine = MACHINES["sparc"]()
    text = inputs.batch_source(spec["profiles"], seed)
    input_path = os.path.join(workdir, "input.s")
    with open(input_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    spawn = Spawner(src, input_path, spec["jobs"], spec["verify_in_run"])
    problems: list[str] = []

    if trace:
        untraced = spawn("compile")
        traced = spawn("traced")
        compiles = [untraced]
    else:
        compiles = []
        t_loop = perf_counter()
        while True:
            t = perf_counter()
            compiles.append(spawn("compile"))
            last = perf_counter() - t
            if len(compiles) >= MIN_COMPILES and \
                    perf_counter() - t_loop + last > seconds:
                break
    while len(spawn.setups) < MIN_SETUPS:
        spawn("setup")

    first = compiles[0]
    for k, doc in enumerate(compiles[1:], 2):
        if doc["digest"] != first["digest"]:
            problems.append(f"compile {k} schedules differ from compile 1")

    checked, unchecked, failures = layers.verify_lines(
        layers.parse_blocks(text), first["lines"], machine,
        spec["verify_gate_cap"])
    problems.extend(failures)
    print(f"# {first['blocks']} blocks, {first['instructions']} "
          f"instructions, max block {first['max_block']}; verified "
          f"{checked} blocks, {unchecked} above the cap of "
          f"{spec['verify_gate_cap']} unchecked")

    attempted = sum(doc["blocks"] for doc in compiles)
    failed = sum(doc["failed"] + doc["check_failed"] for doc in compiles) \
        + len(failures)
    if trace:
        metrics = _layer_metrics(traced, untraced, checked, unchecked,
                                 spec["jobs"], problems)
    else:
        times = [doc["compile_s"] for doc in compiles]
        compile_s = median(times)
        if spec["jobs"] == 1:
            # One block is one request.  Every compile of a run has the
            # same input, so their blocks pool into one sample and the
            # tail rests on more of them.
            latencies = [gap for doc in compiles for gap in doc["block_ms"]]
            per_s = first["blocks"] / compile_s
        else:
            # Outcomes from a pool arrive in bursts: the gap before one
            # block measures how the workers' results happen to
            # interleave, not a request's wait (its p99 spread 16-21%
            # over 10 seeds).  One compile is one request.
            latencies = [t * 1e3 for t in times]
            per_s = len(times) / sum(times)
        print(f"# compile_s samples: {_listing(times)}")
        print(f"# raw wall samples:  "
              f"{_listing([doc['wall_s'] for doc in compiles])}")
        print(f"# setup_s samples:   {_listing(spawn.setups)}")
        print(f"# raw setup walls:   {_listing(spawn.setup_walls)}")
        metrics = {
            "setup_s": median(spawn.setups),
            "compile_s": compile_s,
            "makespan_cycles": first["makespan"],
            "ok_frac": 1.0 - failed / max(1, attempted),
            "peak_rss_mb": median([doc["rss_mb"] for doc in compiles]),
            "req_p50_ms": percentile(latencies, 0.50),
            "req_p99_ms": percentile(latencies, 0.99),
            "req_per_s": per_s,
        }
    return problems, attempted, failed, metrics


def _listing(values: list[float]) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def _layer_metrics(traced: dict, untraced: dict, checked: int,
                   unchecked: int, jobs: int, problems: list[str]) -> dict:
    """Per-layer metrics of the traced run, with its faithfulness checks."""
    rep = traced["replay"]
    if traced["digest"] != untraced["digest"]:
        problems.append("traced run's schedules differ from the untraced "
                        "compile's")
    if traced["replay_digest"] != traced["digest"]:
        problems.append("layer-by-layer replay's schedules differ from "
                        "run_batch's")
    if rep["makespan"] != traced["makespan"]:
        problems.append(f"replay makespan {rep['makespan']} != run_batch "
                        f"makespan {traced['makespan']}")
    if rep["counters"] != traced["build_stats"]:
        problems.append(f"replay build counters {rep['counters']} != "
                        f"run_batch's {traced['build_stats']}")
    if jobs > 1 and traced["serial_digest"] != traced["digest"]:
        problems.append("serial run_batch schedules differ from jobs="
                        f"{jobs}")
    inner = sum(rep["layers"].values())
    if inner < COVERAGE * rep["wall_s"]:
        problems.append(f"layer spans cover {inner:.3f}s of the replay's "
                        f"{rep['wall_s']:.3f}s")
    # runner.overhead_s is the residual of run_batch over its layers, so
    # parse + partition + layers + overhead is the traced wall exactly;
    # the coverage check above is what shows the layers miss nothing.
    overhead = traced["batch_s"] - inner
    lookups = rep["cache_hits"] + rep["cache_misses"]
    return {
        "asm.parse_s": traced["parse_s"],
        "cfg.partition_s": traced["partition_s"],
        "dag.cache_hit_ratio": (rep["cache_hits"] / lookups
                                if lookups else 0.0),
        **{f"dag.{c}": rep["counters"][c] for c in layers.COUNTERS},
        **rep["layers"],
        "verify.blocks_checked": checked,
        "verify.blocks_unchecked": unchecked,
        "runner.batch_s": traced["batch_s"],
        "runner.overhead_s": overhead,
        "runner.attempts_per_block": traced["attempts"]
        / max(1, traced["blocks"]),
        "runner.wasted_work": traced["wasted_work"],
        "runner.jobs_speedup": (traced["serial_batch_s"]
                                / traced["batch_s"] if jobs > 1 else 1.0),
        "runner.worker_restarts": traced["worker_restarts"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
