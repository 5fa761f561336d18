"""Node observability: counters, state-transition log, health report.

Everything the acceptance tests assert about node behaviour — breaker
trips, served-stale counts, answer ages, degradation transitions — is
recorded here, deterministically (plain dict counters, timestamps from
the injected clock).  :meth:`NodeMetrics.snapshot` returns a sorted
plain-python mapping so campaign results serialise byte-identically
across repeat runs of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["HealthReport", "NodeMetrics", "Transition"]


@dataclass(frozen=True)
class Transition:
    """One recorded state change (node state or breaker state)."""

    at: float
    subject: str
    old: str
    new: str
    reason: str = ""


class NodeMetrics:
    """Deterministic counters plus the transition journal."""

    __slots__ = ("_counters", "transitions", "_age_sum", "_age_count", "_age_max")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self.transitions: List[Transition] = []
        self._age_sum = 0.0
        self._age_count = 0
        self._age_max = 0.0

    def incr(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def record_transition(
        self, at: float, subject: str, old: str, new: str, reason: str = ""
    ) -> None:
        self.transitions.append(Transition(at, subject, old, new, reason))

    def observe_age(self, age: float) -> None:
        """Record one served answer's age (now − coherence time)."""
        self._age_sum += age
        self._age_count += 1
        if age > self._age_max:
            self._age_max = age

    @property
    def mean_age(self) -> float:
        return self._age_sum / self._age_count if self._age_count else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Sorted counters + age stats, ready for JSON."""
        out: Dict[str, float] = {
            name: float(value) for name, value in sorted(self._counters.items())
        }
        out["answer_age_mean"] = round(self.mean_age, 9)
        out["answer_age_max"] = round(self._age_max, 9)
        out["answers_aged"] = float(self._age_count)
        return out


@dataclass(frozen=True)
class HealthReport:
    """One ``CacheNode.health()`` snapshot (all fields JSON-friendly)."""

    state: str
    tlb: float
    last_report_at: float | None
    pending_validation: bool
    breakers: Dict[str, str] = field(default_factory=dict)
    breaker_trips: int = 0
    served_stale: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    transitions: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "tlb": self.tlb,
            "last_report_at": self.last_report_at,
            "pending_validation": self.pending_validation,
            "breakers": dict(sorted(self.breakers.items())),
            "breaker_trips": self.breaker_trips,
            "served_stale": self.served_stale,
            "counters": self.counters,
            "transitions": self.transitions,
        }
