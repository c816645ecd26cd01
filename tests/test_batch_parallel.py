"""Tests for --jobs batch runs and work accounting."""

import json

import pytest

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.dag.builders import CompareAllBuilder, PairwiseCache
from repro.errors import ReproError
from repro.runner import (
    Attempt,
    Budget,
    DEFAULT_CHAIN,
    RunJournal,
    resolve_chain,
    run_batch,
    run_fingerprint,
    schedule_block_resilient,
)
from repro.workloads import KERNELS, kernel_source

COUNTERS = ("comparisons", "table_probes", "alias_checks",
            "arcs_added", "arcs_merged", "arcs_suppressed",
            "bitmap_ops")


@pytest.fixture
def blocks():
    source = "\n".join(kernel_source(k) for k in sorted(KERNELS))
    program = parse_asm(source, name="all-kernels")
    return apply_window(partition_blocks(program), 16)


def records(result):
    return [json.dumps(o.to_record(), sort_keys=True)
            for o in result.outcomes]


class TestParallelBatch:
    def test_jobs_matches_serial(self, machine, blocks):
        serial = run_batch(blocks, machine, verify=True)
        parallel = run_batch(blocks, machine, verify=True, jobs=2)
        assert records(serial) == records(parallel)
        for c in COUNTERS:
            assert getattr(serial.build_stats, c) \
                == getattr(parallel.build_stats, c)
        assert serial.dag_stats.as_row() == parallel.dag_stats.as_row()
        assert serial.n_blocks == parallel.n_blocks
        assert serial.total_makespan == parallel.total_makespan

    def test_jobs_with_cache_matches_serial(self, machine, blocks):
        serial = run_batch(blocks, machine, verify=True)
        parallel = run_batch(blocks, machine, verify=True, jobs=2,
                             cache=PairwiseCache())
        assert records(serial) == records(parallel)

    def test_jobs_journal_identical_modulo_wall_clock(
            self, machine, blocks, tmp_path):
        # Journal lines are byte-identical between serial and parallel
        # runs except for the volatile per-block wall_s field, which is
        # host/load-dependent by nature (but must be present in both).
        fp = run_fingerprint("src", "generic", list(DEFAULT_CHAIN))
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        with RunJournal.open_fresh(str(serial_path), fp) as journal:
            run_batch(blocks, machine, verify=True, journal=journal)
        with RunJournal.open_fresh(str(parallel_path), fp) as journal:
            run_batch(blocks, machine, verify=True, journal=journal,
                      jobs=2)

        def canonical(path):
            from repro.runner.journal import parse_record_line
            out = []
            for line in path.read_text().splitlines():
                record, kind, _ = parse_record_line(line)
                assert kind is None, kind
                if record.get("type") == "block":
                    assert isinstance(record.pop("wall_s"), float)
                out.append(json.dumps(record, sort_keys=True))
            return out

        assert canonical(serial_path) == canonical(parallel_path)

    def test_jobs_resume_replays_and_matches(self, machine, blocks,
                                             tmp_path):
        fp = run_fingerprint("src", "generic", list(DEFAULT_CHAIN))
        path = tmp_path / "resume.jsonl"
        with RunJournal.open_fresh(str(path), fp) as journal:
            run_batch(blocks[:1], machine, verify=True, journal=journal)
        with RunJournal.open_resume(str(path), fp) as journal:
            resumed = run_batch(blocks, machine, verify=True,
                                journal=journal, jobs=2)
        assert resumed.n_replayed == 1
        reference = run_batch(blocks, machine, verify=True)
        assert records(resumed) == records(reference)

    def test_jobs_rejects_custom_priority(self, machine, blocks):
        with pytest.raises(ReproError, match="jobs"):
            run_batch(blocks, machine, jobs=2,
                      priority=lambda state, node: 0)

    def test_jobs_rejects_injected_factories(self, machine, blocks):
        factories = [("n2", lambda: CompareAllBuilder(machine))]
        with pytest.raises(ReproError, match="jobs"):
            run_batch(blocks, machine, jobs=2,
                      chain_factories=factories)

    def test_jobs_below_one_rejected(self, machine, blocks):
        with pytest.raises(ReproError, match="jobs"):
            run_batch(blocks, machine, jobs=0)

    def test_on_block_in_program_order(self, machine, blocks):
        seen = []
        run_batch(blocks, machine, jobs=2,
                  on_block=lambda outcome: seen.append(outcome.index))
        assert seen == sorted(seen)


class TestAttemptWorkAccounting:
    def test_each_attempt_gets_fresh_budget(self, machine, blocks):
        # Chain of two builders under one per-attempt budget sized so
        # the n**2 reference trips but the table builder fits: if the
        # first attempt's spent work leaked into the second, the
        # second would trip too and the block would degrade.
        block = blocks[0]
        base = CompareAllBuilder(machine).build(block).stats
        n2_work = (base.comparisons + base.table_probes
                   + base.alias_checks + base.bitmap_ops)
        budget = Budget(max_work=n2_work - 1)
        chain = resolve_chain(("n2", "table-forward"), machine)
        outcome = schedule_block_resilient(block, machine, chain,
                                           budget=budget)
        assert not outcome.degraded
        assert outcome.builder == "table-forward"
        first, second = outcome.attempts[0], outcome.attempts[1]
        assert first.stage == "timeout"
        # The failed attempt's spent work is recorded, not reset...
        assert first.work is not None and first.work >= n2_work - 1
        # ...and the successful attempt was charged only its own work.
        assert second.stage == "ok"
        assert second.work is not None
        assert second.work <= n2_work - 1

    def test_work_survives_record_round_trip(self):
        attempt = Attempt("n2", "timeout", "budget", work=123)
        assert Attempt.from_record(attempt.to_record()) == attempt

    def test_old_records_without_work_tolerated(self):
        attempt = Attempt.from_record(
            {"builder": "n2", "stage": "ok", "error": None})
        assert attempt.work is None

    def test_wasted_work_counts_failed_attempts_only(self, machine,
                                                     blocks):
        clean = run_batch(blocks, machine)
        assert clean.wasted_work == 0
        block = blocks[0]
        base = CompareAllBuilder(machine).build(block).stats
        n2_work = (base.comparisons + base.table_probes
                   + base.alias_checks + base.bitmap_ops)
        result = run_batch([block], machine,
                           chain=("n2", "table-forward"),
                           budget=Budget(max_work=n2_work - 1))
        assert result.failures == []
        assert result.wasted_work >= n2_work - 1
