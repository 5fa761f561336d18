"""Exception types used by the discrete-event simulation kernel."""

from __future__ import annotations

from typing import Any


class StopSimulation(Exception):
    """Internal control-flow exception used by ``Environment.run(until=...)``.

    Raised when the *until* event is processed so the run loop can unwind.
    Carries the value of the event that terminated the run.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value
