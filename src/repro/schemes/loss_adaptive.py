"""Loss-adaptive broadcasting: estimate IR loss, widen the window.

The paper's window schemes assume the broadcast channel delivers every
invalidation report; the fault layer (:mod:`repro.net.faults`) shows what
happens when it does not.  This module closes the loop on the server
side:

* a :class:`LossEstimator` aggregates the cell's loss evidence — explicit
  IR-gap NACK hints from listening clients (``client.ir_gaps`` made
  visible to the server) plus salvage ``Tlb`` traffic (clients that fell
  out of the window, a weaker signal since disconnection also causes it)
  — into an EWMA-smoothed estimated IR-loss rate in ``[0, 1]``;
* :func:`effective_window_intervals` turns that estimate into a widened
  window ``w_eff in [w, w_max]``: a client that misses up to ``k``
  consecutive reports (the tolerance :func:`consecutive_loss_tolerance`
  derives from the estimate) can still validate precisely from a later
  report instead of paying the fragile two-round salvage handshake — or
  a full cache drop — that a lost rescue report would force;
* the per-cell :class:`LossAdaptiveController` packages both for the
  server actor, which advertises ``effective_window_seconds`` to the
  window-based scheme policies each broadcast tick.

Everything here is pure bookkeeping — no event-loop coupling — so the
control law is directly unit- and property-testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LossAdaptationConfig:
    """Knob group for loss-adaptive broadcasting (default: off entirely —
    ``SystemParams.loss_adaptation`` is ``None`` unless set).

    Attributes
    ----------
    w_max:
        Upper bound on the effective window, in broadcast intervals.
        Must be >= the scheme's base ``window_intervals`` (validated by
        :class:`repro.sim.SystemParams`).
    alpha:
        EWMA smoothing factor for the loss estimate, in ``(0, 1]``.
    salvage_weight:
        Weight of one salvage ``Tlb`` upload relative to one NACKed
        missed report.  Salvage traffic is ambiguous (long disconnection
        also causes it), so it counts for less than an explicit gap.
    target_residual:
        Acceptable probability that a client's loss streak outruns even
        the widened window (drives the consecutive-loss tolerance).
    repeat:
        Report repetition factor ``r``: each IR is broadcast ``r`` times
        back-to-back, every copy priced at full size on the downlink.
        ``r = 1`` is bit-identical to no repetition.
    nack:
        Whether clients upload an IR-gap NACK hint when they detect
        missed reports (the estimator's primary signal).
    """

    w_max: int = 40
    alpha: float = 0.3
    salvage_weight: float = 0.5
    target_residual: float = 0.01
    repeat: int = 1
    nack: bool = True

    def __post_init__(self):
        if self.w_max < 1:
            raise ValueError("w_max must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.salvage_weight < 0.0:
            raise ValueError("salvage_weight must be >= 0")
        if not 0.0 < self.target_residual < 1.0:
            raise ValueError("target_residual must be in (0, 1)")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")


class LossEstimator:
    """EWMA estimate of the IR-loss rate from per-interval loss evidence.

    Per broadcast interval the server accumulates gap NACKs (each worth
    the number of reports the client provably missed) and salvage
    uploads (down-weighted by ``salvage_weight``), normalises by the
    expected listener count, clips to ``[0, 1]``, and folds the result
    into an exponentially weighted moving average.

    Invariants (property-tested): the estimate always lies in ``[0, 1]``
    and is monotone non-decreasing in the observed gap count of any
    single interval, all else equal.
    """

    def __init__(self, alpha: float = 0.3, salvage_weight: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if salvage_weight < 0.0:
            raise ValueError("salvage_weight must be >= 0")
        self.alpha = alpha
        self.salvage_weight = salvage_weight
        self.estimate = 0.0
        self._gaps = 0
        self._salvage = 0

    def observe_gaps(self, n_missed: int):
        """A client NACKed *n_missed* provably lost reports."""
        if n_missed < 0:
            raise ValueError("n_missed must be >= 0")
        self._gaps += n_missed

    def observe_salvage(self):
        """A ``Tlb`` salvage upload arrived (weak loss evidence)."""
        self._salvage += 1

    def interval_raw(self, expected_listeners: int) -> float:
        """The current interval's raw (unsmoothed) loss sample."""
        signal = self._gaps + self.salvage_weight * self._salvage
        return min(1.0, signal / max(1, expected_listeners))

    def end_interval(self, expected_listeners: int) -> float:
        """Fold the interval's evidence into the EWMA and reset it."""
        raw = self.interval_raw(expected_listeners)
        self.estimate += self.alpha * (raw - self.estimate)
        self._gaps = 0
        self._salvage = 0
        return self.estimate


def consecutive_loss_tolerance(loss_rate: float, target_residual: float) -> int:
    """Smallest ``k`` with ``loss_rate ** (k + 1) <= target_residual``.

    A client survives ``k`` consecutive lost reports and still validates
    from the ``k+1``-th; independent losses at *loss_rate* outrun that
    tolerance with probability ``loss_rate ** (k+1)``, which this bounds
    by *target_residual*.  Monotone non-decreasing in *loss_rate*.
    """
    if not 0.0 < target_residual < 1.0:
        raise ValueError("target_residual must be in (0, 1)")
    if loss_rate <= 0.0:
        return 0
    if loss_rate >= 1.0:
        raise ValueError("loss_rate must be < 1 (use the w_max cap)")
    return max(0, math.ceil(math.log(target_residual) / math.log(loss_rate)) - 1)


def effective_window_intervals(
    w: int, w_max: int, est_loss: float, target_residual: float = 0.01
) -> int:
    """The widened window ``w_eff in [w, w_max]`` for an estimated loss.

    Zero estimated loss keeps the paper-exact ``w_eff == w``.  Otherwise
    each unit of consecutive-loss tolerance ``k`` buys one extra base
    window of direct coverage — a client whose salvage handshake would
    have to survive ``k`` lossy rounds instead validates straight from
    the widened report — capped at ``w_max``.  Monotone non-decreasing
    in *est_loss*.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if w_max < w:
        raise ValueError("w_max must be >= w")
    if est_loss <= 0.0:
        return w
    if est_loss >= 1.0:
        return w_max
    k = consecutive_loss_tolerance(est_loss, target_residual)
    return min(w_max, w + k * w)


class LossAdaptiveController:
    """Per-cell control loop the server actor drives once per interval.

    Wires a :class:`LossEstimator` to the window law and exposes the
    current ``w_eff`` (and its wall-clock span) for the scheme policies.
    """

    def __init__(
        self,
        config: LossAdaptationConfig,
        window_intervals: int,
        broadcast_interval: float,
    ):
        if config.w_max < window_intervals:
            raise ValueError("w_max must be >= window_intervals")
        self.config = config
        self.window_intervals = window_intervals
        self.broadcast_interval = broadcast_interval
        self.estimator = LossEstimator(config.alpha, config.salvage_weight)
        self.w_eff = window_intervals

    def observe_nack(self, n_missed: int):
        self.estimator.observe_gaps(n_missed)

    def observe_salvage(self):
        self.estimator.observe_salvage()

    @property
    def estimate(self) -> float:
        """The smoothed IR-loss estimate in ``[0, 1]``."""
        return self.estimator.estimate

    @property
    def effective_window_seconds(self) -> float:
        """``w_eff * L``: the span the widened reports cover."""
        return self.w_eff * self.broadcast_interval

    def tick(self, listeners: int) -> int:
        """Advance one broadcast interval; returns the new ``w_eff``.

        *listeners* is how many clients could have sent this interval's
        evidence: the cell's associated clients at the tick.
        """
        est = self.estimator.end_interval(listeners)
        self.w_eff = effective_window_intervals(
            self.window_intervals,
            self.config.w_max,
            est,
            self.config.target_residual,
        )
        return self.w_eff
