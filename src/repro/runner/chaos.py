"""Chaos harness: seeded fault injection against the supervised pool.

The supervised pool's whole contract is that worker death is
recoverable and invisible to healthy blocks.  This harness *proves* it
on demand: it runs the deterministic repeated-kernel workload twice --
once clean and serial, once parallel with faults injected at seeded
rates -- and asserts that

* the batch completes (no abort, no lost blocks);
* every non-quarantined block's outcome record is byte-identical to
  the clean serial run's;
* quarantined blocks are exactly the poisoned ones (blocks configured
  to crash on *every* attempt), each carrying a reproducer;
* the journal accounts for every block:
  scheduled + degraded + quarantined = total.

Injected faults cover the real failure modes: ``os._exit`` (a worker
dying with an exit code, e.g. a fatal runtime error), SIGKILL (the
OOM killer), delays (slow blocks / scheduling jitter), and corrupted
task payloads (a poisoned queue entry).  Everything is seeded: the
same configuration injects the same faults into the same (block,
attempt) pairs every run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry
from repro.runner.batch import run_batch
from repro.runner.supervisor import RetryPolicy
from repro.workloads.kernels import kernel_blocks

#: directive kinds plan() can return, in roll order
INJECTION_KINDS = ("exit", "kill", "delay", "corrupt", "alloc")


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection plan for the supervised pool.

    The pool calls :meth:`plan` once per (block, attempt) dispatch;
    the directive rides on the task message and is executed inside the
    worker (after the ``start`` heartbeat, so crash attribution is
    exercised exactly like a real mid-block death).

    Attributes:
        seed: injection seed; same seed, same faults.
        exit_rate: probability of the worker dying via ``os._exit``.
        kill_rate: probability of the worker dying via SIGKILL.
        delay_rate: probability of sleeping ``delay_s`` before the
            block runs (exercises backlog and hang-detector margins).
        corrupt_rate: probability of the task payload being replaced
            with garbage (the worker survives and reports an error).
        alloc_rate: probability of the worker allocating
            ``alloc_bytes`` before the block runs -- under a
            ``--worker-mem-mb`` ceiling this trips an attributed
            ``"oom"`` crash (a ``MemoryError``); without a ceiling it
            is a real, brief allocation.
        alloc_bytes: injected allocation size, bytes.
        delay_s: injected delay duration, seconds.
        max_injected_attempts: faults are only injected while a
            block's attempt number is below this, so every non-poisoned
            block succeeds within the default retry budget -- the
            quarantined set is then exactly ``poison``.
        poison: block indices that crash on *every* attempt,
            guaranteeing they exhaust the retry budget and exercise
            quarantine end to end.
    """

    seed: int = 0
    exit_rate: float = 0.0
    kill_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    alloc_rate: float = 0.0
    alloc_bytes: int = 1 << 28
    delay_s: float = 0.02
    max_injected_attempts: int = 2
    poison: frozenset[int] = frozenset()

    def plan(self, index: int, attempt: int) -> tuple | None:
        """The fault (or None) for this (block, attempt) dispatch."""
        if index in self.poison:
            return ("exit", 23)
        if attempt >= self.max_injected_attempts:
            return None
        rng = random.Random(
            f"repro-chaos:{self.seed}:{index}:{attempt}")
        roll = rng.random()
        for kind, rate in (("exit", self.exit_rate),
                           ("kill", self.kill_rate),
                           ("delay", self.delay_rate),
                           ("corrupt", self.corrupt_rate),
                           ("alloc", self.alloc_rate)):
            if roll < rate:
                if kind == "exit":
                    return ("exit", 11)
                if kind == "kill":
                    return ("kill",)
                if kind == "delay":
                    return ("delay", self.delay_s)
                if kind == "alloc":
                    return ("alloc", self.alloc_bytes)
                return ("corrupt",)
            roll -= rate
        return None


@dataclass
class ChaosReport:
    """What one chaos run observed and verified.

    Attributes:
        n_blocks: blocks in the workload.
        n_scheduled: non-degraded, non-quarantined outcomes.
        n_degraded: degraded (but not quarantined) outcomes.
        n_quarantined: quarantined outcomes.
        quarantined_indices: which blocks were quarantined.
        mismatches: per-block descriptions of any healthy-block
            outcome that differs from the clean serial run (must be
            empty).
        crashes / restarts / retries: supervisor statistics.
        crash_kinds: crash count by kind.
        wall_s: wall-clock seconds of the chaos batch.
    """

    n_blocks: int
    n_scheduled: int
    n_degraded: int
    n_quarantined: int
    quarantined_indices: list[int] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    crashes: int = 0
    restarts: int = 0
    retries: int = 0
    crash_kinds: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def accounted(self) -> bool:
        """Does every block have exactly one verdict?"""
        return (self.n_scheduled + self.n_degraded
                + self.n_quarantined == self.n_blocks)

    @property
    def ok(self) -> bool:
        """Did the run complete with clean-run-identical healthy
        blocks and full accounting?"""
        return self.accounted and not self.mismatches


def run_chaos(machine: MachineModel,
              config: ChaosConfig,
              copies: int = 2,
              jobs: int = 4,
              expect_quarantined: frozenset[int] | None = None,
              quarantine_dir: str | None = None,
              metrics: MetricsRegistry | None = None,
              retry: RetryPolicy | None = None,
              task_timeout: float | None = 60.0,
              mem_limit_mb: int | None = None) -> ChaosReport:
    """Run the kernel workload clean, then under chaos, and compare.

    Args:
        machine: timing model.
        config: the fault-injection plan.
        copies: kernel-workload size multiplier
            (:func:`repro.workloads.kernels.kernel_blocks`).
        jobs: supervised workers for the chaos run.
        expect_quarantined: when given, the quarantined set must equal
            it exactly (the CLI passes the poison set).
        quarantine_dir: directory for reproducer files.
        metrics: optional registry observing the chaos run.
        retry: retry policy for the chaos run (default: fast backoff
            so the harness does not spend its time sleeping).
        task_timeout: hang-detector margin for the chaos run.
        mem_limit_mb: opt-in per-worker address-space ceiling for the
            chaos run's workers (pairs with ``config.alloc_rate`` to
            exercise attributed OOM crashes).

    Returns:
        The populated :class:`ChaosReport`.

    Raises:
        ReproError: for ``jobs < 2`` (chaos needs the supervised
            pool).
    """
    if jobs < 2:
        raise ReproError(
            f"chaos runs need the supervised pool (jobs >= 2), "
            f"got jobs={jobs}")
    blocks = kernel_blocks(copies)
    clean = run_batch(blocks, machine, jobs=1)
    baseline = {o.index: o.to_record() for o in clean.outcomes}

    if retry is None:
        retry = RetryPolicy(base_delay=0.01, max_delay=0.1,
                            seed=config.seed)
    t0 = time.perf_counter()
    chaotic = run_batch(
        blocks, machine, jobs=jobs, chaos=config, retry=retry,
        task_timeout=task_timeout, quarantine_dir=quarantine_dir,
        metrics=metrics, mem_limit_mb=mem_limit_mb)
    wall_s = time.perf_counter() - t0

    quarantined = [o for o in chaotic.outcomes if o.quarantined]
    healthy = [o for o in chaotic.outcomes if not o.quarantined]
    mismatches = []
    for outcome in healthy:
        expected = baseline.get(outcome.index)
        if expected != outcome.to_record():
            mismatches.append(
                f"block {outcome.index}: chaos outcome differs from "
                f"clean serial run")
    if len(chaotic.outcomes) != len(blocks):
        mismatches.append(
            f"lost blocks: {len(blocks) - len(chaotic.outcomes)} "
            f"of {len(blocks)} have no verdict")
    if expect_quarantined is not None:
        got = frozenset(o.index for o in quarantined)
        if got != expect_quarantined:
            mismatches.append(
                f"quarantined set {sorted(got)} != expected "
                f"{sorted(expect_quarantined)}")
    for outcome in quarantined:
        if quarantine_dir is not None and not outcome.reproducer:
            mismatches.append(
                f"block {outcome.index}: quarantined without a "
                f"reproducer file")

    stats = getattr(chaotic, "supervisor_stats", None)
    report = ChaosReport(
        n_blocks=len(blocks),
        n_scheduled=len([o for o in healthy if not o.degraded]),
        n_degraded=len([o for o in healthy if o.degraded]),
        n_quarantined=len(quarantined),
        quarantined_indices=sorted(o.index for o in quarantined),
        mismatches=mismatches,
        wall_s=wall_s)
    if stats is not None:
        report.crashes = stats.crashes
        report.restarts = stats.restarts
        report.retries = stats.retries
        report.crash_kinds = dict(sorted(stats.crash_kinds.items()))
    return report
