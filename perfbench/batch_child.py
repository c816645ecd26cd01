"""One batch compile in a fresh process, as ``repro schedule`` runs it.

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``; prints one JSON object on stdout.  Modes:

* ``setup``    -- interpreter start, import and machine model only
  (every mode reports their CPU time as ``setup_s``);
* ``compile``  -- untraced: source text -> parse -> partition ->
  ``run_batch`` with the sparc model, the default fallback chain and a
  fresh ``PairwiseCache``, exactly as ``repro schedule`` does;
* ``traced``   -- the same pipeline with a span around each public
  call, then the layer-by-layer replay of ``layers.replay``.

Peak RSS is read right after the compile, so it is this process's own
high-water mark for one compile and nothing else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

from repro import cli
from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks, pin_delay_slot_occupants
from repro.dag.builders import PairwiseCache
from repro.runner import DEFAULT_CHAIN, run_batch
from repro.runner.fallback import BUILDER_CLASSES

MACHINE = cli.MACHINES["sparc"]()
T_READY = perf_counter()
SETUP_CPU_S = sum(resource.getrusage(resource.RUSAGE_SELF)[:2])

import layers  # noqa: E402  (benchmark helper, not part of set-up)
from workclock import WorkClock, at_reference  # noqa: E402


def _batch(blocks, jobs: int, verify: bool, on_block=None):
    return run_batch(blocks, MACHINE, chain=DEFAULT_CHAIN,
                     cache=PairwiseCache(), verify=verify, jobs=jobs,
                     on_block=on_block)


def _lines(result, blocks) -> list[str]:
    """Per-block schedule lines of a ``run_batch`` result.

    Issue times come from the accepted attempt's DAG; outcomes computed
    in a worker process carry none, so their DAG is rebuilt here with
    the accepted builder (after timing stopped).
    """
    by_index = {block.index: block for block in blocks}
    lines = []
    for outcome in result.outcomes:
        times = None
        if not outcome.degraded:
            if outcome.dag_stats_outcome is not None:
                dag = outcome.dag_stats_outcome.dag
            else:
                dag = BUILDER_CLASSES[outcome.builder](MACHINE).build(
                    by_index[outcome.index]).dag
            times = layers.issue_times(dag, outcome.order, MACHINE)
        lines.append(layers.schedule_line(
            outcome.index, outcome.builder, outcome.order,
            outcome.makespan, times))
    return lines


def _summary(result) -> dict:
    attempts = sum(len(o.attempts) for o in result.outcomes)
    check_failed = sum(1 for o in result.outcomes
                       for a in o.attempts if a.stage == "verify")
    return {
        "blocks": result.n_blocks,
        "instructions": result.n_instructions,
        "makespan": result.total_makespan,
        "failed": sum(1 for o in result.outcomes
                      if o.degraded or o.quarantined),
        "check_failed": check_failed,
        "attempts": attempts,
        "wasted_work": result.wasted_work,
        "max_block": max((len(o.order) for o in result.outcomes),
                         default=0),
        "build_stats": {c: getattr(result.build_stats, c)
                        for c in layers.COUNTERS},
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compile_once(text: str, jobs: int, verify: bool) -> dict:
    """Source text to schedules, untraced.

    ``block_ms`` holds, per block, the wait from the previous block's
    outcome to this one's as ``run_batch`` hands them out in program
    order -- the latency a caller streaming the schedules sees.  Both
    it and ``compile_s`` are in reference seconds (``workclock``);
    ``wall_s`` is the raw wall time.
    """
    stamps: list[float] = []
    with WorkClock() as clock:
        w0 = perf_counter()
        t0 = clock.now()
        blocks = layers.parse_blocks(text)
        t1 = clock.now()
        result = _batch(blocks, jobs, verify,
                        on_block=lambda outcome: stamps.append(clock.now()))
        t2 = clock.now()
        wall = perf_counter() - w0
    rss = _rss_mb()
    lines = _lines(result, blocks)
    gaps = [clock.seconds(a, b) * 1e3 for a, b in zip([t1] + stamps, stamps)]
    return {"compile_s": clock.seconds(t0, t2), "wall_s": wall,
            "rss_mb": rss, "block_ms": gaps,
            "digest": layers.digest(lines), "lines": lines,
            **_summary(result)}


def traced(text: str, jobs: int, verify: bool) -> dict:
    """The same compile with a span around each public call, then the
    layer-by-layer replay of its blocks."""
    t0 = perf_counter()
    program = parse_asm(text, "input.s")
    t1 = perf_counter()
    blocks = pin_delay_slot_occupants(
        apply_window(partition_blocks(program), None))
    t2 = perf_counter()
    result = _batch(blocks, jobs, verify)
    t3 = perf_counter()
    doc = {"wall_s": t3 - t0, "parse_s": t1 - t0, "partition_s": t2 - t1,
           "batch_s": t3 - t2, "digest": layers.digest(_lines(result, blocks)),
           "worker_restarts": (result.supervisor_stats.restarts
                               if result.supervisor_stats else 0),
           **_summary(result)}
    # Each run's DAGs are dropped before the next starts: a larger live
    # heap makes every garbage collection slower and would bias the
    # comparison between the runs.
    del result
    if jobs > 1:
        t = perf_counter()
        serial = _batch(blocks, 1, verify)
        doc["serial_batch_s"] = perf_counter() - t
        doc["serial_digest"] = layers.digest(_lines(serial, blocks))
        del serial
    cache = PairwiseCache()
    rep = layers.replay(blocks, MACHINE, DEFAULT_CHAIN, cache, verify)
    doc["replay"] = {k: v for k, v in rep.items() if k != "lines"}
    doc["replay"].update(cache_hits=cache.hits, cache_misses=cache.misses)
    doc["replay_digest"] = layers.digest(rep["lines"])
    return doc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "compile", "traced"))
    parser.add_argument("--input")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()
    doc: dict = {"t_ready": T_READY, "setup_s": at_reference(SETUP_CPU_S)}
    if args.mode != "setup":
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
        run = compile_once if args.mode == "compile" else traced
        doc.update(run(text, args.jobs, args.verify))
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
