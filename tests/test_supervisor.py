"""Tests for the supervised worker pool: retry policy, crash
recovery, quarantine, and graceful interruption."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import BatchInterrupted
from repro.runner import (
    DEFAULT_CHAIN,
    RetryPolicy,
    RunJournal,
    run_batch,
    run_fingerprint,
)
from repro.runner.chaos import ChaosConfig
from repro.workloads.kernels import kernel_blocks, straightline_source


def records(result):
    return [json.dumps(o.to_record(), sort_keys=True)
            for o in result.outcomes]


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.0)
        assert policy.delay(0, 1) == pytest.approx(0.1)
        assert policy.delay(0, 2) == pytest.approx(0.2)
        assert policy.delay(0, 3) == pytest.approx(0.4)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.25, jitter=0.0)
        assert policy.delay(0, 10) == pytest.approx(0.25)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=3)
        first = policy.delay(7, 1)
        assert first == policy.delay(7, 1)  # seeded, reproducible
        assert 0.1 <= first <= 0.1 * 1.5
        # Different (block, attempt) pairs draw different jitter.
        draws = {policy.delay(i, a) for i in range(4)
                 for a in range(1, 4)}
        assert len(draws) > 1


class TestSupervisedCrashRecovery:
    def test_clean_supervised_run_matches_serial(self, machine):
        blocks = kernel_blocks(1)
        serial = run_batch(blocks, machine)
        supervised = run_batch(blocks, machine, jobs=3)
        assert records(serial) == records(supervised)
        assert supervised.supervisor_stats is not None
        assert supervised.supervisor_stats.crashes == 0
        assert supervised.supervisor_stats.quarantined == 0

    def test_crashed_blocks_are_retried_then_match_serial(self, machine):
        blocks = kernel_blocks(1)
        serial = run_batch(blocks, machine)
        chaos = ChaosConfig(seed=5, exit_rate=0.5,
                            max_injected_attempts=1)
        crashed = run_batch(blocks, machine, jobs=3, chaos=chaos,
                            retry=RetryPolicy(base_delay=0.01,
                                              max_delay=0.05))
        assert records(serial) == records(crashed)
        assert crashed.supervisor_stats.crashes > 0
        assert crashed.supervisor_stats.retries > 0
        assert crashed.supervisor_stats.quarantined == 0

    def test_poisoned_block_is_quarantined_with_reproducer(
            self, machine, tmp_path):
        blocks = kernel_blocks(1)
        chaos = ChaosConfig(seed=1, poison=frozenset({2}))
        result = run_batch(
            blocks, machine, jobs=2, chaos=chaos,
            retry=RetryPolicy(max_retries=1, base_delay=0.01),
            quarantine_dir=str(tmp_path))
        quarantined = [o for o in result.outcomes if o.quarantined]
        assert [o.index for o in quarantined] == [2]
        outcome = quarantined[0]
        assert outcome.degraded
        assert outcome.order == list(
            range(len(blocks[2].instructions)))
        assert outcome.reproducer is not None
        assert os.path.exists(outcome.reproducer)
        text = open(outcome.reproducer).read()
        assert "quarantine reproducer" in text
        # Every attempt is on the record: crashes then the verdict.
        assert outcome.attempts[-1].stage == "quarantined"
        assert all(a.stage == "crash" for a in outcome.attempts[:-1])

    def test_quarantined_record_resumes_without_recomputation(
            self, machine, tmp_path):
        blocks = kernel_blocks(1)
        chaos = ChaosConfig(seed=1, poison=frozenset({0}))
        fp = run_fingerprint("chaos", "generic", list(DEFAULT_CHAIN))
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, fp) as journal:
            first = run_batch(
                blocks, machine, jobs=2, chaos=chaos, journal=journal,
                retry=RetryPolicy(max_retries=1, base_delay=0.01))
        # The journal round-trips the quarantined verdict ...
        _, completed = RunJournal.load(path)
        assert completed[0].quarantined
        # ... and a resumed run replays it instead of re-crashing.
        with RunJournal.open_resume(path, fp) as journal:
            resumed = run_batch(blocks, machine, journal=journal)
        assert resumed.n_replayed == len(first.outcomes)
        assert records(resumed) == records(first)
        assert resumed.outcomes[0].quarantined


class TestGracefulInterrupt:
    def _interrupt_run(self, tmp_path, sig):
        """Start a journaled CLI run, signal it mid-batch, and return
        (returncode, stdout, journal_path)."""
        source = tmp_path / "big.s"
        source.write_text(straightline_source("daxpy", 400))
        journal = tmp_path / "run.jsonl"
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "schedule", str(source),
             "--window", "12", "--journal", str(journal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        deadline = time.monotonic() + 60
        # Wait for real progress: the header plus a few block records.
        while time.monotonic() < deadline:
            if journal.exists() \
                    and len(journal.read_text().splitlines()) >= 4:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        assert proc.poll() is None, \
            "workload finished before it could be interrupted"
        proc.send_signal(sig)
        stdout, _ = proc.communicate(timeout=60)
        return proc.returncode, stdout, journal

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_interrupt_exits_130_with_resumable_journal(
            self, tmp_path, sig):
        returncode, stdout, journal = self._interrupt_run(tmp_path, sig)
        assert returncode == 130
        assert "interrupted" in stdout
        # Every journaled line but (at most) the in-flight final one
        # is a complete, CRC-clean frame: the interrupt flushed
        # cleanly.
        from repro.runner.journal import parse_record_line
        lines = journal.read_text().splitlines()
        assert len(lines) >= 4
        for line in lines[:-1]:
            record, kind, _ = parse_record_line(line)
            assert kind is None, kind
        header, completed = RunJournal.load(str(journal))
        assert completed  # at least one block checkpointed

    def test_batch_interrupted_carries_resume_context(self, machine):
        blocks = kernel_blocks(1)
        boom = {"count": 0}

        def interrupt_soon(outcome):
            boom["count"] += 1
            if boom["count"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(BatchInterrupted) as excinfo:
            run_batch(blocks, machine, on_block=interrupt_soon)
        assert excinfo.value.n_completed == 2
        assert excinfo.value.n_total == len(blocks)
