"""Tests for the synthetic workload generators."""

import pytest

from repro.cfg import partition_blocks
from repro.errors import WorkloadError
from repro.workloads import (
    KERNELS,
    generate_blocks,
    generate_program,
    get_profile,
    kernel_blocks,
    kernel_source,
    scaled_profile,
)
from repro.workloads.profiles import PROFILES, TABLE_ORDER, WorkloadProfile
from repro.asm import parse_asm


SMALL = scaled_profile("linpack", 0.2)


class TestProfiles:
    def test_all_nine_benchmarks_present(self):
        assert set(TABLE_ORDER) <= set(PROFILES)
        assert len(TABLE_ORDER) == 9

    def test_table3_figures_recorded(self):
        grep = get_profile("grep")
        assert (grep.n_blocks, grep.total_insts, grep.max_block) \
            == (730, 1739, 34)
        fpppp = get_profile("fpppp")
        assert (fpppp.n_blocks, fpppp.total_insts, fpppp.max_block) \
            == (662, 25545, 11750)

    def test_avg_block(self):
        grep = get_profile("grep")
        assert grep.avg_block == pytest.approx(2.38, abs=0.01)

    def test_unknown_profile_raises(self):
        with pytest.raises(WorkloadError):
            get_profile("doom")

    def test_fp_benchmarks_flagged(self):
        for name in ("linpack", "lloops", "tomcatv", "nasa7", "fpppp"):
            assert get_profile(name).fp_fraction > 0
        for name in ("grep", "regex", "dfa", "cccp"):
            assert get_profile(name).fp_fraction == 0

    def test_fpppp_mem_at_end(self):
        assert get_profile("fpppp").mem_at_end

    def test_invalid_profile_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile("bad", n_blocks=2, total_insts=10, max_block=5,
                            giant_blocks=(4,), typical_cap=4,
                            mem_max_per_block=1, mem_avg_per_block=0.1,
                            fp_fraction=0.0)

    def test_scaled_profile_keeps_giants(self):
        scaled = scaled_profile("fpppp", 0.1)
        assert scaled.max_block == 11750
        assert scaled.n_blocks < 662

    def test_scaled_profile_bounds(self):
        with pytest.raises(WorkloadError):
            scaled_profile("grep", 0.0)
        assert scaled_profile("grep", 1.0) is get_profile("grep")


class TestGenerateBlocks:
    def test_block_count_exact(self):
        blocks = generate_blocks(SMALL)
        assert len(blocks) == SMALL.n_blocks

    def test_instruction_total_exact(self):
        blocks = generate_blocks(SMALL)
        assert sum(b.size for b in blocks) == SMALL.total_insts

    def test_max_block_exact(self):
        blocks = generate_blocks(SMALL)
        assert max(b.size for b in blocks) == SMALL.max_block

    def test_deterministic(self):
        a = generate_blocks(SMALL)
        b = generate_blocks(SMALL)
        assert [i.render() for blk in a for i in blk] == \
            [i.render() for blk in b for i in blk]

    def test_seed_changes_stream(self):
        a = generate_blocks(SMALL, seed=1)
        b = generate_blocks(SMALL, seed=2)
        assert [i.render() for blk in a for i in blk] != \
            [i.render() for blk in b for i in blk]

    def test_indices_global_and_sequential(self):
        blocks = generate_blocks(SMALL)
        indices = [i.index for blk in blocks for i in blk]
        assert indices == list(range(len(indices)))

    def test_mem_expr_budget_respected(self):
        blocks = generate_blocks(SMALL)
        assert all(len(b.unique_memory_exprs()) <= SMALL.mem_max_per_block
                   for b in blocks)

    def test_mem_expr_average_near_target(self):
        profile = get_profile("lloops")
        blocks = generate_blocks(profile)
        avg = sum(len(b.unique_memory_exprs()) for b in blocks) / len(blocks)
        assert avg == pytest.approx(profile.mem_avg_per_block, rel=0.35)

    def test_fp_mix_present_for_fp_profiles(self):
        blocks = generate_blocks(SMALL)
        fp = sum(1 for b in blocks for i in b if i.opcode.is_float)
        assert fp > 0.2 * SMALL.total_insts

    def test_integer_profiles_have_no_fp(self):
        blocks = generate_blocks(scaled_profile("grep", 0.3))
        assert not any(i.opcode.is_float for b in blocks for i in b)

    def test_terminators_only_at_block_ends(self):
        blocks = generate_blocks(SMALL)
        for block in blocks:
            for instr in block.instructions[:-1]:
                assert not instr.opcode.ends_block

    def test_fpppp_concentrates_memory_at_end(self):
        profile = scaled_profile("fpppp", 0.05)
        blocks = generate_blocks(profile)
        giant = max(blocks, key=lambda b: b.size)
        n = giant.size
        first = sum(1 for i in giant.instructions[:n // 2]
                    if i.opcode.is_memory)
        second = sum(1 for i in giant.instructions[n // 2:]
                     if i.opcode.is_memory)
        assert second > first


class TestGenerateProgram:
    def test_round_trip_through_partitioner(self):
        profile = scaled_profile("grep", 0.1)
        direct = generate_blocks(profile)
        program = generate_program(profile)
        reparsed = partition_blocks(program)
        assert [b.size for b in reparsed] == [b.size for b in direct]

    def test_program_parseable_after_rendering(self):
        from repro.asm import render_program
        profile = scaled_profile("dfa", 0.05)
        program = generate_program(profile)
        text = render_program(program)
        reparsed = parse_asm(text)
        assert len(reparsed) == len(program)


class TestKernels:
    def test_all_kernels_parse(self):
        for name in KERNELS:
            program = parse_asm(kernel_source(name), name)
            assert len(program) > 0

    def test_unknown_kernel_raises(self):
        with pytest.raises(WorkloadError):
            kernel_source("missing")

    def test_figure1_is_three_instructions(self):
        assert len(parse_asm(kernel_source("figure1"))) == 3

    def test_kernels_form_expected_blocks(self):
        blocks = partition_blocks(parse_asm(kernel_source("daxpy")))
        # Body block (ending in bg) + delay-slot nop block.
        assert len(blocks) == 2
        assert blocks[0].terminator is not None


class TestKernelBlocks:
    @staticmethod
    def _rendered(blocks):
        return [(b.index, [i.render() for i in b.instructions])
                for b in blocks]

    def test_deterministic(self):
        assert self._rendered(kernel_blocks(2)) == self._rendered(
            kernel_blocks(2))
        assert len(kernel_blocks(3)) == 4 * 3

    def test_indices_are_global_and_copies_identical(self):
        blocks = kernel_blocks(3)
        assert [b.index for b in blocks] == list(range(12))
        for kernel in range(4):
            copies = blocks[3 * kernel:3 * kernel + 3]
            bodies = {tuple(i.render() for i in b.instructions)
                      for b in copies}
            assert len(bodies) == 1

    def test_rejects_zero_copies(self):
        with pytest.raises(WorkloadError):
            kernel_blocks(0)
