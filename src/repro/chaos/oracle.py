"""The hard safety oracle: strict staleness, liveness and bit accounting.

Three guarantees, promoted from telemetry to enforcement:

* **Safety** — under ``SystemParams.strict_staleness`` any stale cache
  hit (an answer the client's own certification history cannot justify)
  raises :class:`StalenessViolation` at the hit site, carrying the full
  diagnostic trace: which client, which item, the entry's provenance,
  the certifying knowledge (``Tlb``/floor), the server incarnation epoch
  the client was synchronized to, and the ground-truth update times that
  convict it.  The simulation dies loudly at the first unsafe answer
  instead of averaging it into a counter.
* **Liveness** — :func:`account_liveness` audits a finished run: every
  issued query was answered, abandoned with a recorded cause
  (``client.fetch_failures``), or still pending at the horizon — and at
  most one query per client can be pending.  A query that silently
  vanished (a hung waiter, a lost wakeup) breaks the balance.
* **Bit accounting** — :func:`balance_ledger` audits every channel of a
  finished run: a bit counted twice or never breaks the balance.

This module is import-light (no :mod:`repro.sim` imports) so the client
actor can raise :class:`StalenessViolation` without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class StalenessViolation(AssertionError):
    """A client answered a query from a provably stale cache entry.

    Raised only in strict mode; inherits :class:`AssertionError` because
    it marks a broken protocol invariant, not an operational error.
    """

    def __init__(
        self,
        *,
        client_id: int,
        item: int,
        entry_version: int,
        entry_ts: float,
        effective_ts: float,
        tlb: float,
        certified_floor: float,
        epoch: int,
        now: float,
        update_times: Sequence[float] = (),
    ):
        self.client_id = client_id
        self.item = item
        self.entry_version = entry_version
        self.entry_ts = entry_ts
        self.effective_ts = effective_ts
        self.tlb = tlb
        self.certified_floor = certified_floor
        self.epoch = epoch
        self.now = now
        self.update_times = tuple(update_times)
        convicting = ", ".join(f"{t:.3f}" for t in self.update_times) or "?"
        super().__init__(
            f"stale cache hit at t={now:.3f}: client {client_id} served item "
            f"{item} (version {entry_version}, coherent at {entry_ts:.3f}, "
            f"effective {effective_ts:.3f}) while certified up to "
            f"Tlb={tlb:.3f} (floor {certified_floor:.3f}, server epoch "
            f"{epoch}); ground truth updated it at [{convicting}]"
        )


@dataclass(frozen=True)
class LivenessReport:
    """Outcome of auditing one finished run's query accounting."""

    generated: int
    answered: int
    abandoned_fetches: int
    pending: int
    n_clients: int
    ok: bool
    reason: str = ""

    def __str__(self):
        verdict = "balanced" if self.ok else f"BROKEN ({self.reason})"
        return (
            f"liveness {verdict}: {self.generated} issued = "
            f"{self.answered} answered + {self.pending} pending "
            f"(<= {self.n_clients} clients; "
            f"{self.abandoned_fetches} fetches abandoned with cause)"
        )


def account_liveness(result, n_clients: int) -> LivenessReport:
    """Audit *result* (a ``SimulationResult``): no query may vanish.

    Each client issues queries strictly sequentially, so at the horizon
    ``generated - answered`` must be a whole number of in-flight queries
    in ``[0, n_clients]``.  Abandoned item fetches are *not* abandoned
    queries — a failed fetch leaves its item unserved but the query still
    terminates — so they are reported as a cause count, not subtracted.
    """
    generated = int(result.counter("queries.generated"))
    answered = int(result.counter("queries.answered"))
    abandoned = int(result.counter("client.fetch_failures"))
    pending = generated - answered
    ok = 0 <= pending <= n_clients
    reason = ""
    if pending < 0:
        reason = "more answers than issued queries"
    elif pending > n_clients:
        reason = (
            f"{pending} queries unanswered at the horizon but only "
            f"{n_clients} clients can hold one in flight"
        )
    return LivenessReport(
        generated=generated,
        answered=answered,
        abandoned_fetches=abandoned,
        pending=pending,
        n_clients=n_clients,
        ok=ok,
        reason=reason,
    )


class LedgerViolation(AssertionError):
    """A channel's bit ledger does not balance at the end of a run."""


def balance_ledger(channels: Iterable) -> None:
    """Per channel and message kind, require bits sent = bits delivered
    + bits of the messages the channel still holds (queued, preempted or
    on the air).  Exact for whole-bit sizes, as the model's are; the
    tolerance absorbs float rounding of fractional ones.
    """
    for channel in channels:
        sent, delivered = channel.stats.sent_bits, channel.stats.delivered_bits
        held = channel.undelivered_bits()
        for kind in {**sent, **delivered, **held}:
            s, d, u = sent.get(kind, 0.0), delivered.get(kind, 0.0), held.get(kind, 0.0)
            if not math.isclose(s, d + u, rel_tol=1e-9):
                raise LedgerViolation(
                    f"channel {channel.name}, {kind}: sent {s!r} bits != "
                    f"delivered {d!r} + undelivered {u!r}"
                )


def oracle_verdict(result, n_clients: Optional[int] = None) -> str:
    """One-token verdict for sweep/bench rows.

    ``SAFE`` — zero stale answers and (when ``n_clients`` is known or the
    run recorded its own liveness audit) a balanced query ledger;
    ``STALE(n)`` — n provably stale answers served;
    ``STUCK(p)`` — p queries beyond the per-client bound vanished.
    """
    stale = int(result.counter("cache.stale_hits"))
    if stale:
        return f"STALE({stale})"
    if n_clients is not None:
        if not account_liveness(result, n_clients).ok:
            pending = int(result.counter("queries.generated")) - int(
                result.counter("queries.answered")
            )
            return f"STUCK({pending})"
    elif result.raw.get("oracle.liveness_ok", 1.0) != 1.0:
        return f"STUCK({int(result.counter('oracle.queries_pending'))})"
    return "SAFE"
