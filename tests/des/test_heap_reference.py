"""The event heap against a reference model.

:class:`~repro.des.Environment` keeps its schedule as a C-``heapq`` of
``(when, priority, eid, payload)`` tuples.  Eids are unique, so
``(when, priority, eid)`` is a strict total order and every schedule has
exactly one correct pop sequence.  This test replays random scripts of
interleaved schedules and steps and checks each pop against the minimum
of the pending ``(when, priority, eid)`` keys, a model that knows
nothing of the kernel's internals.  Nothing cancels a scheduled entry:
every popped entry is dispatched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import EmptySchedule, Environment

# Small value pools force (when, prio) collisions so the eid tie-break
# actually decides orderings instead of almost never firing.
whens = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16)
prios = st.sampled_from([0, 1, 5, 9])


@st.composite
def schedule_ops(draw):
    """A mixed script: ``(delay, priority)`` schedules a timeout, None steps."""
    n = draw(st.integers(min_value=1, max_value=80))
    return [
        (draw(whens), draw(prios)) if draw(st.booleans()) else None
        for _ in range(n)
    ]


@given(ops=schedule_ops())
@settings(max_examples=200)
def test_environment_pops_in_sorted_schedule_order(ops):
    env = Environment()
    pending = []  # reference: (when, priority, eid) of every unpopped entry
    fired = []

    def record(event):
        fired.append(event.value)

    for op in ops:
        if op is not None:
            delay, prio = op
            key = (env.now + delay, prio, env.scheduled_events + 1)
            env.timeout(delay, value=key, priority=prio).callbacks.append(record)
            assert env.scheduled_events == key[2]
            pending.append(key)
        elif pending:
            expected = min(pending)
            pending.remove(expected)
            assert env.peek() == expected[0]
            env.step()
            assert fired[-1] == expected
            assert env.now == expected[0]
        else:
            with pytest.raises(EmptySchedule):
                env.step()
    popped = len(fired)
    env.run()
    assert fired[popped:] == sorted(pending)
