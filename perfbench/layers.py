"""Layer-by-layer replay, schedule digests and the verification gate.

The replay calls each layer's public function directly, block by
block, with the same builder chain, machine and cache policy as
``run_batch``, and times every call from here -- no span is recorded
inside the program.  Its schedules must equal ``run_batch``'s, which
is what makes the per-layer split a faithful decomposition of the
real run.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks, pin_delay_slot_occupants
from repro.errors import ReproError
from repro.heuristics.passes import backward_pass
from repro.pipeline import SECTION6_PRIORITY
from repro.runner.fallback import BUILDER_CLASSES
from repro.scheduling.list_scheduler import schedule_forward
from repro.scheduling.timing import simulate, verify_order
from repro.verify import verify_schedule
from repro.verify.checker import degraded_timing

#: layers timed inside the scheduling of one block, in call order
BLOCK_LAYERS = ("dag.build_s", "heuristics.pass_s",
                "scheduling.schedule_s", "scheduling.timing_s",
                "verify.check_s")

#: build work counters reported per workload (BuildStats field names)
COUNTERS = ("comparisons", "table_probes", "bitmap_ops", "arcs_added")


def parse_blocks(text: str):
    """Assembly text to the blocks ``repro schedule`` schedules: parse,
    partition, no window, delay-slot occupants pinned."""
    return pin_delay_slot_occupants(
        apply_window(partition_blocks(parse_asm(text, "input.s")), None))


def issue_times(dag, order: list[int], machine) -> tuple[int, ...]:
    """Issue cycle of every instruction of a schedule, by simulation
    of ``order`` (block positions) over the block's DAG."""
    nodes = {node.id: node for node in dag.real_nodes()}
    return simulate([nodes[p] for p in order], machine).issue_times


def schedule_line(index: int, builder: str | None, order: list[int],
                 makespan: int, times) -> str:
    """One block's schedule as a line: what every run must agree on."""
    return json.dumps([index, builder, list(order), makespan,
                       list(times) if times is not None else None],
                      separators=(",", ":"))


def digest(lines: list[str]) -> str:
    """Digest of a whole run's per-block lines, in program order."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def replay(blocks, machine, chain: tuple[str, ...], cache,
           verify: bool) -> dict:
    """Schedule ``blocks`` one layer call at a time.

    Per block, chain entries are tried in order exactly as the runner
    does: a :class:`~repro.errors.ReproError` in any layer moves on to
    the next builder; a block no builder survives keeps its original
    order.

    Returns:
        ``{"layers": {name: seconds}, "wall_s": seconds of the whole
        replay loop, "counters": {...}, "lines": [schedule lines],
        "makespan": int, "attempts": int, "blocks": int}``.
    """
    layers = dict.fromkeys(BLOCK_LAYERS, 0.0)
    counters = dict.fromkeys(COUNTERS, 0)
    kept = []
    attempts = 0
    t_start = perf_counter()
    for block in blocks:
        if not block.instructions:
            continue
        accepted = None
        for name in chain:
            attempts += 1
            layer = "dag.build_s"
            t = perf_counter()
            try:
                built = BUILDER_CLASSES[name](machine, cache=cache) \
                    .build(block)
                now = perf_counter()
                layers[layer] += now - t
                t, layer = now, "heuristics.pass_s"
                backward_pass(built.dag, require_est=False)
                now = perf_counter()
                layers[layer] += now - t
                t, layer = now, "scheduling.schedule_s"
                sched = schedule_forward(built.dag, machine,
                                         SECTION6_PRIORITY)
                now = perf_counter()
                layers[layer] += now - t
                t, layer = now, "scheduling.timing_s"
                verify_order(sched.order, built.dag)
                simulate(list(built.dag.real_nodes()), machine)
                now = perf_counter()
                layers[layer] += now - t
                if verify:
                    t, layer = now, "verify.check_s"
                    verify_schedule(
                        block, sched.order, machine,
                        claimed_issue_times=sched.timing.issue_times,
                        approach=name, cache=cache).raise_if_failed()
                    layers[layer] += perf_counter() - t
            except ReproError:
                layers[layer] += perf_counter() - t
                continue
            accepted = (name, built, sched)
            break
        kept.append((block, accepted))
    wall = perf_counter() - t_start

    lines: list[str] = []
    makespan = 0
    for block, accepted in kept:
        if accepted is None:
            fallback = degraded_timing(block, machine)
            makespan += fallback
            lines.append(schedule_line(
                block.index, None, list(range(len(block.instructions))),
                fallback, None))
            continue
        name, built, sched = accepted
        for counter in COUNTERS:
            counters[counter] += getattr(built.stats, counter)
        order = [node.id for node in sched.order]
        makespan += sched.timing.makespan
        lines.append(schedule_line(
            block.index, name, order, sched.timing.makespan,
            issue_times(built.dag, order, machine)))
    return {"layers": layers, "wall_s": wall, "counters": counters,
            "lines": lines, "makespan": makespan, "attempts": attempts,
            "blocks": len(kept)}


def verify_lines(blocks, lines: list[str], machine,
                 cap: int | None) -> tuple[int, int, list[str]]:
    """The correctness gate: ``verify_schedule`` on every scheduled block.

    Dependence order, timing against the claimed issue times, and
    interpreter semantics are checked against dependences re-derived
    by the independent ``n**2`` reference, and the claimed makespan
    against the claimed issue times.  Blocks larger than ``cap``
    instructions are counted as unchecked, never skipped silently.

    Returns:
        ``(checked, unchecked, failures)``.
    """
    by_index = {block.index: block for block in blocks}
    checked = unchecked = 0
    failures: list[str] = []
    seen = set()
    for line in lines:
        index, builder, order, makespan, times = json.loads(line)
        seen.add(index)
        block = by_index.get(index)
        if block is None:
            failures.append(f"block {index}: not in the input")
            continue
        if cap is not None and len(block.instructions) > cap:
            unchecked += 1
            continue
        checked += 1
        try:
            scheduled = [block.instructions[p] for p in order]
            verify_schedule(block, scheduled, machine,
                            claimed_issue_times=times,
                            approach=builder or "original-order"
                            ).raise_if_failed()
        except (ReproError, IndexError) as exc:
            failures.append(f"block {index}: {exc}")
            continue
        if times is not None:
            finish = max(t + machine.execution_time(instr)
                         for t, instr in zip(times, scheduled))
            if finish != makespan:
                failures.append(f"block {index}: makespan {makespan} but "
                                f"the issue times finish at {finish}")
    missing = sorted(b.index for b in blocks
                     if b.instructions and b.index not in seen)
    if missing:
        failures.append(f"no schedule for blocks {missing[:10]}")
    return checked, unchecked, failures
