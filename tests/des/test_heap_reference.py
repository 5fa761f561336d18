"""The event heap against a reference model.

:class:`~repro.des.Environment` keeps its schedule as a C-``heapq`` of
``(when, priority, eid, payload)`` tuples.  Eids are unique, so
``(when, priority, eid)`` is a strict total order and every schedule has
exactly one correct pop sequence.  This test replays random scripts of
interleaved schedules and pops.  A pop runs the kernel up to the event
holding the minimum of the pending ``(when, priority, eid)`` keys (a
model that knows nothing of the kernel's internals) with
``run(until=event)`` and checks that exactly that entry fired on the
way.  Nothing cancels a scheduled entry: every popped entry is
dispatched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment

# Small value pools force (when, prio) collisions so the eid tie-break
# actually decides orderings instead of almost never firing.
whens = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16)
prios = st.sampled_from([0, 1, 5, 9])


@st.composite
def schedule_ops(draw):
    """A mixed script: ``(delay, priority)`` schedules a timeout, None pops."""
    n = draw(st.integers(min_value=1, max_value=80))
    return [
        (draw(whens), draw(prios)) if draw(st.booleans()) else None
        for _ in range(n)
    ]


@given(ops=schedule_ops())
@settings(max_examples=200)
def test_environment_pops_in_sorted_schedule_order(ops):
    env = Environment()
    pending = {}  # reference: (when, priority, eid) -> event, every unpopped entry
    fired = []

    def record(event):
        fired.append(event.value)

    for op in ops:
        if op is not None:
            delay, prio = op
            key = (env.now + delay, prio, env.scheduled_events + 1)
            event = env.timeout(delay, value=key, priority=prio)
            event.callbacks.append(record)
            assert env.scheduled_events == key[2]
            pending[key] = event
        elif pending:
            expected = min(pending)
            assert env.peek() == expected[0]
            popped = len(fired)
            assert env.run(until=pending.pop(expected)) == expected
            assert fired[popped:] == [expected]
            assert env.now == expected[0]
        else:
            now = env.now
            assert env.run() is None  # an empty schedule: nothing to pop
            assert env.now == now
    popped = len(fired)
    env.run()
    assert fired[popped:] == sorted(pending)
