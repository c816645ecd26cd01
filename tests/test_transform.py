"""Tests for the whole-program scheduling transformation."""

import hashlib

import pytest

from repro.asm import parse_asm, render_program
from repro.cfg import partition_blocks
from repro.machine import generic_risc, sparcstation2_like
from repro.transform import schedule_program
from repro.workloads import (
    generate_program,
    get_profile,
    kernel_source,
    scaled_profile,
)

SOURCE = """
entry:
    ld [%fp-8], %o0
    add %o0, 1, %o1
    st %o1, [%fp-16]
    cmp %o0, 5
    bl entry
    nop
    mov 0, %o0
    retl
    nop
"""


class TestScheduleProgram:
    def test_produces_same_multiset_of_instructions(self):
        program = parse_asm(kernel_source("daxpy"))
        scheduled, report = schedule_program(program, generic_risc(),
                                             fill_slots=False)
        assert sorted(i.render() for i in program) == \
            sorted(i.render() for i in scheduled)

    def test_report_counts(self):
        program = parse_asm(SOURCE)
        _, report = schedule_program(program, generic_risc())
        assert report.n_blocks >= 2
        assert report.scheduled_cycles <= report.original_cycles
        assert report.speedup >= 1.0

    def test_delay_slot_filled_and_nop_removed(self):
        program = parse_asm(SOURCE)
        scheduled, report = schedule_program(program, generic_risc(),
                                             fill_slots=True)
        assert report.delay_slots_filled >= 1
        assert report.nops_removed >= 1
        assert len(scheduled) == len(program) - report.nops_removed

    def test_slot_filling_can_be_disabled(self):
        program = parse_asm(SOURCE)
        scheduled, report = schedule_program(program, generic_risc(),
                                             fill_slots=False)
        assert report.delay_slots_filled == 0
        assert len(scheduled) == len(program)

    def test_branch_stays_before_its_slot(self):
        program = parse_asm(SOURCE)
        scheduled, report = schedule_program(program, generic_risc())
        mnemonics = [i.opcode.mnemonic for i in scheduled]
        bl_pos = mnemonics.index("bl")
        # Exactly one instruction (the filled slot) follows the branch
        # before the next block's label position.
        assert scheduled.labels["entry"] == 0
        assert bl_pos + 1 < len(scheduled)

    def test_labels_reanchored_to_block_starts(self):
        program = parse_asm(SOURCE)
        scheduled, _ = schedule_program(program, generic_risc())
        assert scheduled.labels["entry"] == 0
        first = scheduled.instructions[0]
        assert first.label == "entry"

    def test_round_trip_parses(self):
        program = parse_asm(SOURCE)
        scheduled, _ = schedule_program(program, generic_risc())
        text = render_program(scheduled)
        reparsed = parse_asm(text)
        assert len(reparsed) == len(scheduled)

    def test_blocks_do_not_interleave(self):
        # Every output block must contain exactly the input block's
        # instructions (scheduling is block-local).
        program = parse_asm(SOURCE)
        scheduled, _ = schedule_program(program, generic_risc(),
                                        fill_slots=False)
        original_blocks = partition_blocks(program)
        scheduled_blocks = partition_blocks(scheduled)
        assert len(original_blocks) == len(scheduled_blocks)
        for a, b in zip(original_blocks, scheduled_blocks):
            assert sorted(i.render() for i in a) == \
                sorted(i.render() for i in b)

    def test_synthetic_program_end_to_end(self):
        program = generate_program(scaled_profile("grep", 0.05))
        scheduled, report = schedule_program(program, generic_risc())
        assert report.n_blocks > 10
        assert report.speedup >= 1.0
        # Still parseable after rendering.
        parse_asm(render_program(scheduled))

    def test_window_option(self):
        program = generate_program(scaled_profile("linpack", 0.05))
        _, unwindowed = schedule_program(program, generic_risc())
        _, windowed = schedule_program(program, generic_risc(), window=8)
        assert windowed.n_blocks >= unwindowed.n_blocks

    def test_inherit_latencies_never_worse(self):
        program = generate_program(scaled_profile("lloops", 0.1))
        machine = generic_risc()
        _, local = schedule_program(program, machine,
                                    inherit_latencies=False)
        _, inherited = schedule_program(program, machine,
                                        inherit_latencies=True)
        # Same blocks scheduled; the inherited variant reports its
        # (inheritance-aware) cycles -- both must be valid reports.
        assert inherited.n_blocks == local.n_blocks

    def test_empty_program(self):
        program = parse_asm("")
        scheduled, report = schedule_program(program, generic_risc())
        assert len(scheduled) == 0
        assert report.n_blocks == 0
        assert report.speedup == 1.0


#: sha256 of the rendered program and (original, scheduled) cycle
#: totals for ``inherit_latencies=True`` on the sparc model, frozen
#: from the incremental-repair implementation the full passes replaced
INHERITED_GOLDEN = {
    ("nasa7", 0): ("da5cb22359aee15cd6bcb842dc2bb69a"
                   "7ff27e5649e76acf4076256d1e475202", 24082, 20271),
    ("nasa7", 1): ("75236283fdb5c0fd6dccb524f6bd0094"
                   "d8acb5e6ce0c637fb67d0870f342a832", 24427, 20471),
    ("nasa7", 2): ("305cd29073118b9beca66fb46cb17c20"
                   "02fc4e3648c0632b1d265df88f7397f7", 24468, 20417),
    ("tomcatv", 0): ("52afb7ecd68a1c4b2d6ca82dd225b3fd"
                     "0824748a128021157f5b84f687e785ba", 4890, 3989),
    ("tomcatv", 1): ("84fd5a44fddcff894819420b51c550c7"
                     "b9fa0ace887e3f9dac04792bbdec1d68", 4683, 3841),
    ("tomcatv", 2): ("31b7e329fc5bb04a7d2e6daa736732ba"
                     "2851927d9ed21e99e450c3cd0624aaf5", 4805, 3905),
}


class TestInheritLatenciesGolden:
    @pytest.mark.parametrize("name,seed", sorted(INHERITED_GOLDEN))
    def test_emitted_program_and_cycles_pinned(self, name, seed):
        program = generate_program(get_profile(name), seed=seed)
        scheduled, report = schedule_program(
            program, sparcstation2_like(), inherit_latencies=True)
        digest = hashlib.sha256(
            render_program(scheduled).encode()).hexdigest()
        assert (digest, report.original_cycles,
                report.scheduled_cycles) == INHERITED_GOLDEN[name, seed]
        assert not report.failures
