"""Tests for the chaos harness: seeded fault injection, clean-run
identity for healthy blocks, accounting, and the resilience report."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.machine.presets import generic_risc
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_markdown, report_from
from repro.runner import (
    DEFAULT_CHAIN,
    ChaosConfig,
    RetryPolicy,
    RunJournal,
    run_batch,
    run_chaos,
    run_fingerprint,
)
from repro.workloads import kernel_blocks


class TestChaosConfig:
    def test_plan_is_deterministic(self):
        config = ChaosConfig(seed=3, exit_rate=0.3, kill_rate=0.3)
        plans = [config.plan(i, a) for i in range(20)
                 for a in range(3)]
        again = [config.plan(i, a) for i in range(20)
                 for a in range(3)]
        assert plans == again
        assert any(p is not None for p in plans)

    def test_poisoned_blocks_always_crash(self):
        config = ChaosConfig(seed=0, poison=frozenset({5}))
        for attempt in range(10):
            assert config.plan(5, attempt) == ("exit", 23)
        assert config.plan(4, 0) is None  # rates are all zero

    def test_injection_stops_past_the_attempt_bound(self):
        config = ChaosConfig(seed=0, exit_rate=1.0,
                             max_injected_attempts=2)
        assert config.plan(1, 0) is not None
        assert config.plan(1, 1) is not None
        assert config.plan(1, 2) is None

    def test_rates_partition_one_roll(self):
        config = ChaosConfig(seed=9, exit_rate=0.25, kill_rate=0.25,
                             delay_rate=0.25, corrupt_rate=0.25)
        kinds = {config.plan(i, 0)[0] for i in range(60)}
        assert kinds == {"exit", "kill", "delay", "corrupt"}


class TestChaosDeterminism:
    def test_chaotic_parallel_run_matches_clean_serial(self, machine):
        # The acceptance-criteria scenario: kill/exit injection well
        # above 10%, jobs=4, every healthy block byte-identical to a
        # clean jobs=1 run and every block accounted for.
        config = ChaosConfig(seed=11, exit_rate=0.15, kill_rate=0.15,
                             delay_rate=0.05, corrupt_rate=0.05,
                             delay_s=0.01, poison=frozenset({1}))
        report = run_chaos(machine, config, copies=2, jobs=4,
                           expect_quarantined=frozenset({1}))
        assert report.ok, report.mismatches
        assert report.accounted
        assert report.crashes > 0
        assert report.retries > 0
        assert report.quarantined_indices == [1]

    def test_same_seed_same_quarantine_set(self, machine):
        config = ChaosConfig(seed=4, poison=frozenset({0, 3}))
        first = run_chaos(machine, config, copies=1, jobs=2,
                          retry=RetryPolicy(max_retries=1,
                                            base_delay=0.01))
        second = run_chaos(machine, config, copies=1, jobs=2,
                           retry=RetryPolicy(max_retries=1,
                                             base_delay=0.01))
        assert first.quarantined_indices == [0, 3]
        assert first.quarantined_indices == second.quarantined_indices

    def test_corrupted_payloads_are_survived(self, machine):
        blocks = kernel_blocks(1)
        serial = run_batch(blocks, machine)
        config = ChaosConfig(seed=2, corrupt_rate=0.7,
                             max_injected_attempts=1)
        corrupted = run_batch(blocks, machine, jobs=2, chaos=config,
                              retry=RetryPolicy(base_delay=0.01))
        assert ([json.dumps(o.to_record(), sort_keys=True)
                 for o in serial.outcomes]
                == [json.dumps(o.to_record(), sort_keys=True)
                    for o in corrupted.outcomes])
        stats = corrupted.supervisor_stats
        assert stats.crash_kinds.get("task-error", 0) > 0

    def test_chaos_requires_the_supervised_pool(self, machine):
        with pytest.raises(ReproError, match="jobs >= 2"):
            run_chaos(machine, ChaosConfig(), jobs=1)

    def test_oom_deaths_are_attributed_under_memory_ceiling(
            self, machine):
        # Satellite: with a per-worker RLIMIT_AS ceiling, an injected
        # allocation burst dies as a MemoryError inside the worker --
        # an *attributed* "oom" crash, not an anonymous SIGKILL --
        # and the block still recovers on retry.
        metrics = MetricsRegistry()
        config = ChaosConfig(seed=0, alloc_rate=1.0,
                             alloc_bytes=1 << 30,
                             max_injected_attempts=1)
        report = run_chaos(machine, config, copies=1, jobs=2,
                           metrics=metrics, mem_limit_mb=256)
        assert report.ok, report.mismatches
        assert report.crash_kinds.get("oom", 0) > 0
        assert "kill" not in report.crash_kinds
        snap = metrics.snapshot()["volatile"]
        values = snap["repro_worker_crashes_total"]["values"]
        assert values.get("kind=oom", 0) == report.crash_kinds["oom"]

    def test_alloc_without_ceiling_is_survivable(self, machine):
        # The same burst with no ceiling is just a brief allocation:
        # no crash, outcomes identical to clean.
        config = ChaosConfig(seed=0, alloc_rate=1.0,
                             alloc_bytes=1 << 20,
                             max_injected_attempts=1)
        report = run_chaos(machine, config, copies=1, jobs=2)
        assert report.ok, report.mismatches
        assert report.crash_kinds.get("oom", 0) == 0


class TestResilienceReport:
    def test_report_accounts_for_every_block(self, machine, tmp_path):
        config = ChaosConfig(seed=1, exit_rate=0.3,
                             poison=frozenset({0}))
        registry = MetricsRegistry()
        fp = run_fingerprint("chaos", "generic", list(DEFAULT_CHAIN))
        path = str(tmp_path / "run.jsonl")
        blocks = kernel_blocks(1)
        with RunJournal.open_fresh(path, fp) as journal:
            run_batch(blocks, machine, jobs=3, chaos=config,
                      retry=RetryPolicy(max_retries=1,
                                        base_delay=0.01),
                      journal=journal, metrics=registry)
        from repro.obs.report import load_journal_blocks
        journal_blocks = load_journal_blocks(path)
        assert len(journal_blocks) == len(blocks)
        doc = report_from(journal_blocks, registry.snapshot())
        resilience = doc["resilience"]
        accounting = resilience["accounting"]
        assert accounting["accounted"]
        assert accounting["total"] == len(blocks)
        assert accounting["quarantined"] == 1
        assert (accounting["scheduled"] + accounting["degraded"]
                + accounting["quarantined"]) == accounting["total"]
        assert resilience["quarantined blocks"] == 1
        assert sum(resilience["worker crashes"].values()) > 0
        markdown = render_markdown(doc)
        assert "## Resilience" in markdown
        assert "Quarantined blocks" in markdown

    def test_clean_run_report_has_no_resilience_section(self, machine):
        registry = MetricsRegistry()
        result = run_batch(kernel_blocks(1), machine, metrics=registry)
        doc = report_from(
            [o.to_record(volatile=True) for o in result.outcomes],
            registry.snapshot())
        assert doc["resilience"] is None
        assert "## Resilience" not in render_markdown(doc)

    def test_volatile_metrics_stay_out_of_the_stable_section(
            self, machine):
        registry = MetricsRegistry()
        config = ChaosConfig(seed=1, exit_rate=0.4,
                             max_injected_attempts=1)
        run_batch(kernel_blocks(1), machine, jobs=2, chaos=config,
                  retry=RetryPolicy(base_delay=0.01),
                  metrics=registry)
        snapshot = registry.snapshot()
        for name in ("repro_worker_crashes_total",
                     "repro_retries_total",
                     "repro_worker_restarts_total"):
            assert name not in snapshot["stable"]


class TestChaosCli:
    def test_quick_chaos_smoke_exits_clean(self, tmp_path):
        lines = []
        status = main(["chaos", "--quick", "--seed", "7",
                       "--quarantine-dir", str(tmp_path / "q")],
                      out=lines.append)
        assert status == 0
        text = "\n".join(lines)
        assert "accounting:" in text
        assert "identical to clean serial run: True" in text

    def test_chaos_writes_metrics_snapshot(self, tmp_path):
        metrics_path = tmp_path / "chaos-metrics.json"
        status = main(["chaos", "--quick", "--seed", "7",
                       "--quarantine-dir", str(tmp_path / "q"),
                       "--metrics", str(metrics_path)],
                      out=lambda line: None)
        assert status == 0
        snapshot = json.loads(metrics_path.read_text())
        assert "repro_worker_crashes_total" in snapshot["volatile"]
        assert "repro_quarantined_blocks_total" in snapshot["volatile"]
