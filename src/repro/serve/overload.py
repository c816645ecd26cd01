"""Adaptive overload control: pressure sentinel + degradation ladder.

The daemon's binary defenses (occupancy bound, token buckets,
deadline sheds) either admit a request at full quality or reject it
outright.  This module adds the middle ground the paper's Section 6
argues for -- cheaper construction modes exist precisely so a
scheduler can trade quality for throughput when conditions demand it:

* :class:`OverloadMonitor` periodically samples pressure signals --
  process RSS, event-loop lag, admission occupancy against its bound,
  the :class:`~repro.obs.expo.RollingWindow`'s sliding-window p99 and
  queue depth, and the WAL's in-flight backlog -- and folds them into
  one scalar *pressure score* (the max over per-signal budget
  fractions, so the dominant signal names itself).
* :class:`DegradationLadder` is a hysteresis state machine over five
  ordered levels:

  - **L0 normal** -- full service.
  - **L1 shed-optional** -- drop optional work: warm caches clamp to
    :attr:`OverloadConfig.shed_cache_entries` and per-request trace
    detail is dropped.
  - **L2 brownout** -- admitted requests run the cheaper
    :attr:`OverloadConfig.brownout_chain` (client chain preferences
    are overridden).
  - **L3 prioritized-shed** -- best-effort tenants are rejected with
    the typed ``overload`` reason and an honest ``retry_after_s``;
    ``priority`` tenants keep flowing.
  - **L4 emergency** -- nothing is admitted, in-flight requests
    finish, warm caches are released.

  Each level has a distinct *enter* threshold (score at or above
  which the ladder may ascend into it) and a lower *exit* threshold
  (score at or below which it may descend out of it), plus minimum
  dwell times in both directions, so a score oscillating inside the
  hysteresis band produces **zero** transitions and even a worst-case
  oscillation transitions at a rate bounded by the dwells -- the
  ladder never flaps.

Every transition is a typed :class:`Transition` event: counted into
the metrics registry, stamped into the server tracer, exported as the
``repro_overload_level`` gauge on the Prometheus endpoint, shown by
``repro top``, and summarized in the ``repro report`` Overload
section.  The clock is injectable everywhere, so transition sequences
are byte-reproducible in tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError

#: the ladder's ordered levels, least to most degraded
LEVEL_NAMES = ("normal", "shed-optional", "brownout",
               "prioritized-shed", "emergency")

L_NORMAL = 0
L_SHED_OPTIONAL = 1
L_BROWNOUT = 2
L_PRIORITIZED_SHED = 3
L_EMERGENCY = 4

#: per-level ascend thresholds (pressure score >= enter[L] may enter
#: L).  Occupancy alone saturates at 1.0, so a merely-full queue can
#: reach prioritized shed but never emergency -- L4 needs a signal
#: (p99, RSS, loop lag, backlog) running 30% past its budget.
DEFAULT_ENTER = (0.0, 0.70, 0.85, 1.00, 1.30)

#: per-level descend thresholds (score <= exit[L] may leave L).
#: Strictly below the matching enter threshold: the gap is the
#: hysteresis band.
DEFAULT_EXIT = (0.0, 0.55, 0.70, 0.85, 1.10)

#: minimum seconds the ladder must sit at each level before it may
#: descend out of it
DEFAULT_DWELL_S = (0.0, 1.0, 1.0, 1.5, 2.0)

#: how many recent transitions a ladder retains for its snapshot
RECENT_TRANSITIONS = 16

#: tenants whose name carries this prefix are priority class even
#: without explicit registration (a namespace convention, like queue
#: names)
PRIORITY_TENANT_PREFIX = "priority"


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning for the monitor, the ladder, and the degradations.

    Attributes:
        interval_s: seconds between monitor samples.
        p99_budget_s: sliding-window p99 latency that counts as a
            pressure score of 1.0.
        lag_budget_s: event-loop lag that counts as 1.0.
        rss_budget_mb: process RSS that counts as 1.0 (None = the RSS
            signal is ignored).
        backlog_budget: WAL in-flight keys that count as 1.0.
        enter / exit: per-level ascend/descend score thresholds (see
            module docstring); ``exit[L] < enter[L]`` for L >= 1.
        dwell_s: per-level minimum residence before descending.
        dwell_up_s: minimum seconds between consecutive ascents.
        brownout_chain: builder fallback chain admitted requests run
            at L2+ (overrides both the server default and the
            client's request chain).
        shed_cache_entries: warm-cache LRU clamp at L1+.
        priority_tenants: tenant names explicitly in the priority
            class; names starting with
            :data:`PRIORITY_TENANT_PREFIX` are priority regardless.
    """

    interval_s: float = 0.25
    p99_budget_s: float = 2.0
    lag_budget_s: float = 0.25
    rss_budget_mb: float | None = None
    backlog_budget: int = 64
    enter: tuple[float, ...] = DEFAULT_ENTER
    exit: tuple[float, ...] = DEFAULT_EXIT
    dwell_s: tuple[float, ...] = DEFAULT_DWELL_S
    dwell_up_s: float = 0.25
    brownout_chain: tuple[str, ...] = ("table-forward",)
    shed_cache_entries: int = 64
    priority_tenants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(LEVEL_NAMES)
        if len(self.enter) != n or len(self.exit) != n \
                or len(self.dwell_s) != n:
            raise ReproError(
                f"overload thresholds need {n} levels, got "
                f"enter={len(self.enter)} exit={len(self.exit)} "
                f"dwell={len(self.dwell_s)}")
        for lvl in range(1, n):
            if self.enter[lvl] <= self.enter[lvl - 1]:
                raise ReproError(
                    "overload enter thresholds must be strictly "
                    f"increasing, got {self.enter}")
            if self.exit[lvl] >= self.enter[lvl]:
                raise ReproError(
                    f"overload exit[{lvl}]={self.exit[lvl]} must sit "
                    f"below enter[{lvl}]={self.enter[lvl]} (the "
                    f"hysteresis band)")
        if self.interval_s <= 0 or self.dwell_up_s < 0:
            raise ReproError(
                f"overload interval must be positive and dwell_up "
                f"non-negative, got interval={self.interval_s} "
                f"dwell_up={self.dwell_up_s}")


@dataclass
class OverloadSignals:
    """One sample of every pressure signal the monitor reads.

    Attributes:
        occupancy: admitted requests running or queued right now.
        capacity: the admission bound (``max_active + max_queued``).
        queue_depth: the window's deepest recent occupancy -- a
            latched saturation marker that catches floods shorter
            than the sampling interval; scaled to 0.9 in the score
            so it can drive brownout but never prioritized shed.
        p99_s: sliding-window p99 request latency (None = no
            requests in the window).
        loop_lag_s: how late the monitor's periodic tick fired -- a
            direct measure of event-loop starvation.
        rss_mb: process resident set size (None = unknown platform).
        wal_backlog: accepted-but-unfinished idempotency keys.
    """

    occupancy: int = 0
    capacity: int = 1
    queue_depth: int = 0
    p99_s: float | None = None
    loop_lag_s: float = 0.0
    rss_mb: float | None = None
    wal_backlog: int = 0

    def to_dict(self) -> dict:
        return {
            "occupancy": self.occupancy,
            "capacity": self.capacity,
            "queue_depth": self.queue_depth,
            "p99_s": self.p99_s,
            "loop_lag_s": round(self.loop_lag_s, 6),
            "rss_mb": (round(self.rss_mb, 3)
                       if self.rss_mb is not None else None),
            "wal_backlog": self.wal_backlog,
        }


def pressure_score(signals: OverloadSignals,
                   config: OverloadConfig) -> tuple[float, str]:
    """Fold one signal sample into ``(score, dominant_signal)``.

    Each signal is normalised against its budget (1.0 = at budget);
    the score is the max, so one saturated signal is enough to climb
    and the dominant signal names itself in every transition event.
    Ties break alphabetically for determinism.
    """
    capacity = max(1, signals.capacity)
    parts: dict[str, float] = {
        "occupancy": signals.occupancy / capacity,
        # A latched saturation marker (the window's recent max
        # occupancy): a flood shorter than the sampling interval
        # still stamps it, so short bursts reliably reach brownout
        # (0.9 >= enter[2]).  Scaled to 0.9 so the latch alone can
        # never drive prioritized shed or emergency -- L3+ takes a
        # *live* signal (occupancy at bound, p99, RSS, lag,
        # backlog).  It decays with its short window horizon, which
        # bounds how long a past burst can hold the ladder up.
        "queue-depth": 0.9 * signals.queue_depth / capacity,
        "loop-lag": signals.loop_lag_s / config.lag_budget_s,
        "wal-backlog": signals.wal_backlog
        / max(1, config.backlog_budget),
    }
    if signals.p99_s is not None:
        parts["p99"] = signals.p99_s / config.p99_budget_s
    if signals.rss_mb is not None \
            and config.rss_budget_mb is not None:
        parts["rss"] = signals.rss_mb / config.rss_budget_mb
    dominant = max(sorted(parts), key=lambda k: parts[k])
    return (parts[dominant], dominant)


@dataclass(frozen=True)
class Transition:
    """One typed ladder transition (what gets counted and traced)."""

    at_s: float
    from_level: int
    to_level: int
    score: float
    dominant: str

    @property
    def direction(self) -> str:
        return "ascend" if self.to_level > self.from_level \
            else "descend"

    def to_dict(self) -> dict:
        return {
            "at_s": round(self.at_s, 6),
            "from_level": self.from_level,
            "from": LEVEL_NAMES[self.from_level],
            "to_level": self.to_level,
            "to": LEVEL_NAMES[self.to_level],
            "direction": self.direction,
            "score": round(self.score, 4),
            "dominant": self.dominant,
        }


class DegradationLadder:
    """The hysteresis state machine over L0..L4.

    :meth:`observe` is the only mutator: feed it one signal sample
    per monitor tick and it returns the :class:`Transition` it made,
    or None.  Ascents may jump straight to the highest level whose
    enter threshold the score clears (a sudden storm does not climb
    one rung per tick), but must be ``dwell_up_s`` apart; descents
    step one level at a time and only after the current level's
    ``dwell_s`` has elapsed *and* the score has fallen to its exit
    threshold.  With an injectable clock the transition sequence for
    a fixed signal trace is byte-reproducible.
    """

    def __init__(self, config: OverloadConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[Transition], None]
                 | None = None) -> None:
        self.config = config or OverloadConfig()
        self._clock = clock
        self._on_transition = on_transition
        self.level = L_NORMAL
        self.max_level = L_NORMAL
        self._since = clock()
        self._last_score = 0.0
        self._last_dominant = "occupancy"
        self.transitions_total = 0
        self.ascents_total = 0
        self.descents_total = 0
        self.recent: list[Transition] = []

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]

    @property
    def score(self) -> float:
        """The most recently observed pressure score."""
        return self._last_score

    @property
    def dominant(self) -> str:
        """The signal that produced the most recent score."""
        return self._last_dominant

    def _move(self, to_level: int, now: float,
              score: float, dominant: str) -> Transition:
        event = Transition(at_s=now, from_level=self.level,
                           to_level=to_level, score=score,
                           dominant=dominant)
        self.level = to_level
        self.max_level = max(self.max_level, to_level)
        self._since = now
        self.transitions_total += 1
        if event.direction == "ascend":
            self.ascents_total += 1
        else:
            self.descents_total += 1
        self.recent.append(event)
        del self.recent[:-RECENT_TRANSITIONS]
        if self._on_transition is not None:
            self._on_transition(event)
        return event

    def observe(self, signals: OverloadSignals) -> Transition | None:
        """Fold one sample in; return the transition made, if any."""
        now = self._clock()
        score, dominant = pressure_score(signals, self.config)
        self._last_score = score
        self._last_dominant = dominant
        cfg = self.config
        target = self.level
        for lvl in range(len(LEVEL_NAMES) - 1, self.level, -1):
            if score >= cfg.enter[lvl]:
                target = lvl
                break
        if target > self.level:
            if now - self._since >= cfg.dwell_up_s:
                return self._move(target, now, score, dominant)
            return None
        if self.level > L_NORMAL and score <= cfg.exit[self.level] \
                and now - self._since >= cfg.dwell_s[self.level]:
            return self._move(self.level - 1, now, score, dominant)
        return None

    def snapshot(self) -> dict:
        """Ladder state for the ``stats``/``health`` endpoints."""
        now = self._clock()
        return {
            "enabled": True,
            "level": self.level,
            "level_name": self.level_name,
            "score": round(self._last_score, 4),
            "dominant": self._last_dominant,
            "since_s": round(now - self._since, 3),
            "max_level": self.max_level,
            "transitions_total": self.transitions_total,
            "ascents_total": self.ascents_total,
            "descents_total": self.descents_total,
            "recent_transitions": [t.to_dict() for t in self.recent],
        }


def process_rss_mb() -> float | None:
    """Current process resident set size in MiB, or None.

    Reads ``/proc/self/statm`` (present on Linux; the only platform
    the daemon targets).  Falls back to ``resource.getrusage``'s
    *peak* RSS where procfs is absent -- a conservative overestimate
    is the right failure mode for an overload sentinel.  Returns None
    rather than raising when neither source exists.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource
        return resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except (ImportError, OSError, ValueError):  # pragma: no cover
        return None


class OverloadMonitor:
    """Samples pressure signals and drives the ladder.

    The monitor is synchronous and host-agnostic: the server's async
    loop (or a test) calls :meth:`tick` once per ``interval_s``.  The
    event-loop-lag signal is measured *here* -- each tick records when
    the next one is due, and the overshoot on arrival is exactly how
    starved the loop was.

    Args:
        ladder: the state machine to feed.
        sample: callable returning a fresh :class:`OverloadSignals`
            (``loop_lag_s`` and ``rss_mb`` may be left at their
            defaults; the monitor fills them in).
        interval_s: expected tick period (lag baseline).
        clock: injectable monotonic clock.
        rss: RSS sampler (injectable; None disables the signal).
    """

    def __init__(self, ladder: DegradationLadder,
                 sample: Callable[[], OverloadSignals],
                 interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic,
                 rss: Callable[[], float | None]
                 | None = process_rss_mb) -> None:
        self.ladder = ladder
        self._sample = sample
        self.interval_s = interval_s
        self._clock = clock
        self._rss = rss
        self._due: float | None = None
        self.last_signals = OverloadSignals()
        self.ticks = 0

    def tick(self) -> Transition | None:
        """One sampling round; returns the ladder transition, if any."""
        now = self._clock()
        lag = max(0.0, now - self._due) if self._due is not None \
            else 0.0
        self._due = now + self.interval_s
        signals = self._sample()
        signals.loop_lag_s = lag
        if signals.rss_mb is None and self._rss is not None:
            signals.rss_mb = self._rss()
        self.last_signals = signals
        self.ticks += 1
        return self.ladder.observe(signals)

    def snapshot(self) -> dict:
        """Monitor state: ladder snapshot plus the latest signals."""
        doc = self.ladder.snapshot()
        doc["signals"] = self.last_signals.to_dict()
        doc["ticks"] = self.ticks
        doc["interval_s"] = self.interval_s
        return doc


def is_priority_tenant(tenant: str,
                       priority_tenants: frozenset[str]
                       | tuple[str, ...] = ()) -> bool:
    """Tenant priority classification (see
    :attr:`OverloadConfig.priority_tenants`)."""
    return tenant in priority_tenants \
        or tenant.startswith(PRIORITY_TENANT_PREFIX)
