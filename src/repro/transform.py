"""Whole-program scheduling: parse -> schedule -> re-emit.

The library's end-user transformation: take a parsed
:class:`~repro.asm.program.Program`, schedule every basic block with a
chosen algorithm, optionally fill branch delay slots and propagate
inherited latencies between consecutive blocks, and produce a new
``Program`` whose text can be written back out.

This is the programmatic counterpart of ``python -m repro schedule``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.asm.program import Program
from repro.cfg import (
    apply_window,
    partition_blocks,
    pin_delay_slot_occupants,
)
from repro.dag.builders.base import DagBuilder
from repro.dag.builders.table_forward import TableForwardBuilder
from repro.errors import ReproError
from repro.heuristics.passes import backward_pass, forward_pass
from repro.isa.instruction import Instruction
from repro.machine.model import MachineModel
from repro.pipeline import SECTION6_PRIORITY
from repro.scheduling.delay_slots import fill_delay_slot
from repro.scheduling.interblock import (
    ResidualLatency,
    apply_inherited,
    residual_latencies,
)
from repro.scheduling.list_scheduler import (
    ScheduleResult,
    schedule_forward,
)
from repro.scheduling.timing import simulate, verify_order
from repro.verify.checker import BlockFailure, degraded_timing


@dataclass
class TransformReport:
    """What the whole-program transformation achieved.

    Attributes:
        n_blocks: blocks scheduled.
        original_cycles: summed makespans of the original block orders.
        scheduled_cycles: summed makespans of the produced schedule.
        delay_slots_filled: branch delay slots filled with useful work.
        nops_removed: nop instructions deleted because a filled slot
            made them redundant.
        degraded_cycles: the portion of both cycle totals contributed
            by failed blocks (charged identically to both sides).
        failures: per-block failure records for blocks emitted in
            their original order (empty on a clean run).
    """

    n_blocks: int = 0
    original_cycles: int = 0
    scheduled_cycles: int = 0
    delay_slots_filled: int = 0
    nops_removed: int = 0
    degraded_cycles: int = 0
    failures: list[BlockFailure] = field(default_factory=list)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of processed blocks emitted in original order."""
        if self.n_blocks == 0:
            return 0.0
        return len(self.failures) / self.n_blocks

    @property
    def speedup(self) -> float:
        """Original over scheduled cycles, over the blocks that were
        actually scheduled (degraded blocks excluded; explicitly 1.0
        when every block degraded)."""
        scheduled = self.scheduled_cycles - self.degraded_cycles
        if scheduled <= 0:
            return 1.0
        return (self.original_cycles - self.degraded_cycles) / scheduled


def schedule_program(
        program: Program,
        machine: MachineModel,
        builder_factory: Callable[[], DagBuilder] | None = None,
        priority: Callable | None = None,
        window: int | None = None,
        fill_slots: bool = True,
        inherit_latencies: bool = False,
        strict: bool = False,
) -> tuple[Program, TransformReport]:
    """Schedule every basic block of ``program``.

    Args:
        program: the parsed input program (not mutated).
        machine: timing model.
        builder_factory: DAG construction algorithm (default: table
            forward).
        priority: forward-scheduling priority (default: the section 6
            critical-path winnowing).
        window: optional maximum block size.
        fill_slots: move a safe instruction into each delayed
            terminator's slot and delete the following nop it replaces.
        inherit_latencies: propagate residual operation latencies into
            the next block (straight-line approximation; see
            :mod:`repro.scheduling.interblock`).
        strict: re-raise the first per-block
            :class:`~repro.errors.ReproError`.  When False (the
            default) a block whose construction or scheduling fails is
            emitted in its *original* instruction order -- always
            correct, never faster -- and recorded in
            ``report.failures``.

    Returns:
        ``(new_program, report)``.
    """
    if builder_factory is None:
        builder_factory = lambda: TableForwardBuilder(machine)
    if priority is None:
        priority = SECTION6_PRIORITY

    blocks = pin_delay_slot_occupants(
        apply_window(partition_blocks(program), window))
    report = TransformReport()
    out_instructions: list[Instruction] = []
    residuals: list[ResidualLatency] = []
    pending_slot_filled = False
    # Original index of each block's first instruction -> the block's
    # start position in the output (labels re-anchor to block starts).
    block_starts: dict[int, int] = {}

    def next_block_starts_with_nop(position: int) -> bool:
        """Is the current delay-slot occupant a removable nop?

        Filling a slot is only sound when the instruction currently
        sitting in it (the first instruction of the following block)
        is a nop: a *useful* slot instruction executes on both paths
        of the branch, and pushing it out of the slot would drop it
        from the taken path.
        """
        for later in blocks[position + 1:]:
            if later.instructions:
                return later.instructions[0].opcode.mnemonic == "nop"
        return False

    for block_position, block in enumerate(blocks):
        if not block.instructions:
            continue
        block_starts[block.instructions[0].index] = len(out_instructions)
        body = block.instructions
        # If the previous block's delay slot was filled, the leading
        # nop of this block (the old slot occupant) is now dead.
        if pending_slot_filled and body \
                and body[0].opcode.mnemonic == "nop":
            body = body[1:]
            report.nops_removed += 1
        pending_slot_filled = False
        if not body:
            continue

        from repro.cfg.basic_block import BasicBlock
        work_block = BasicBlock(block.index, list(body), block.label)
        try:
            outcome = builder_factory().build(work_block)
            dag = outcome.dag
            if inherit_latencies:
                # The pseudo entry node's arcs shift EST, so the
                # forward pass must see them before the backward one.
                apply_inherited(dag, residuals)
                forward_pass(dag)
            backward_pass(dag, require_est=False)
            result = schedule_forward(dag, machine, priority)
            verify_order(result.order, dag)
        except ReproError as exc:
            if strict:
                raise
            # Degrade: the original order is always a correct
            # schedule.  Charge it on both sides of the ratio and drop
            # any inherited residuals (conservative for reporting; the
            # emitted code is unchanged so correctness is unaffected).
            report.failures.append(BlockFailure(
                block.index, block.label, "schedule", str(exc)))
            cycles = degraded_timing(work_block, machine)
            report.n_blocks += 1
            report.original_cycles += cycles
            report.scheduled_cycles += cycles
            report.degraded_cycles += cycles
            residuals = []
            out_instructions.extend(body)
            continue

        order = result.order
        if fill_slots and next_block_starts_with_nop(block_position):
            order, filler = fill_delay_slot(order, dag)
            if filler is not None:
                report.delay_slots_filled += 1
                pending_slot_filled = True

        original = simulate(list(dag.real_nodes()), machine)
        timing = simulate(order, machine)
        report.n_blocks += 1
        report.original_cycles += original.makespan
        report.scheduled_cycles += timing.makespan
        if inherit_latencies:
            residuals = residual_latencies(
                ScheduleResult(order, timing), machine)

        for node in order:
            assert node.instr is not None
            out_instructions.append(node.instr)

    # Re-anchor labels to the new start of the block they named; the
    # instruction-level label attribute moves accordingly (the original
    # first instruction may have been scheduled away from the front).
    new_labels: dict[str, int] = {}
    label_at: dict[int, str] = {}
    for name, old_index in program.labels.items():
        new_index = block_starts.get(old_index, len(out_instructions))
        new_labels[name] = new_index
        label_at.setdefault(new_index, name)

    new_program = Program(program.name + ".scheduled")
    for pos, instr in enumerate(out_instructions):
        new_program.instructions.append(
            Instruction(pos, instr.opcode, instr.operands,
                        label=label_at.get(pos), annulled=instr.annulled,
                        source_line=instr.source_line))
    for name, new_index in new_labels.items():
        new_program.add_label(name, new_index)
    return new_program, report
