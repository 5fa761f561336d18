"""Point-to-point wired links between cell base stations.

The inter-cell backbone is nothing like the cell's air interface: links
are dedicated (no queueing between cells), carry small control payloads
(deltas, pull requests, salvage asks) whose serialisation time is
negligible next to the propagation latency, and fail by *losing whole
messages* rather than corrupting bits.  So an :class:`InterCellLink` is
deliberately lean — a latency, an optional seeded Bernoulli loss draw,
and counters — instead of a second :class:`~repro.net.channel.Channel`.

Delivery is callback-based and O(1) per message: one timeout event per
send, no process.  Loss is judged at send time from the link's own named
random stream, so lossy-backbone runs stay reproducible and never
perturb any other component's draws.
"""

from __future__ import annotations

from typing import Any, Callable

from ..des import Environment

Handler = Callable[[Any, float], None]


class InterCellLink:
    """One direction-agnostic wired link between two base stations."""

    __slots__ = ("env", "latency", "loss_prob", "stream", "sent", "lost")

    def __init__(
        self,
        env: Environment,
        latency: float,
        loss_prob: float = 0.0,
        stream=None,
    ):
        if latency <= 0:
            raise ValueError("link latency must be positive")
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if loss_prob > 0.0 and stream is None:
            raise ValueError("a lossy link needs a random stream")
        self.env = env
        self.latency = float(latency)
        self.loss_prob = float(loss_prob)
        self.stream = stream
        self.sent = 0
        self.lost = 0

    def __repr__(self):
        return f"<InterCellLink {self.latency}s loss={self.loss_prob}>"

    def send(self, handler: Handler, payload: Any) -> bool:
        """Deliver ``handler(payload, now)`` after the link latency.

        Returns False when the link loses the message (telemetry only —
        a real sender cannot observe the loss, so protocol logic must
        never branch on it; timeouts do the detecting).
        """
        self.sent += 1
        if self.loss_prob > 0.0 and self.stream.bernoulli(self.loss_prob):
            self.lost += 1
            return False
        event = self.env.timeout(self.latency)
        event.callbacks.append(_Delivery(handler, payload))  # type: ignore[union-attr]
        return True


class _Delivery:
    """One queued link delivery (cheaper than a closure per message)."""

    __slots__ = ("handler", "payload")

    def __init__(self, handler: Handler, payload: Any):
        self.handler = handler
        self.payload = payload

    def __call__(self, event) -> None:
        self.handler(self.payload, event.env.now)
