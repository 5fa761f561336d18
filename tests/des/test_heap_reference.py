"""The event heap against reference models.

:class:`~repro.des.Environment` keeps its schedule as a C-``heapq`` of
``(when, priority, eid, payload)`` tuples.  Eids are unique, so
``(when, priority, eid)`` is a strict total order and every schedule has
exactly one correct pop sequence.  These tests replay random scripts and
compare the kernel with models that know nothing of its internals:

* the pop order of interleaved schedules and steps, against the minimum
  of the pending ``(when, priority, eid)`` keys;
* the dispatch layer's cancellation protocol (stale wakeup entries
  skipped by eid generation; the heap itself has no tombstones), against
  a trace computed from the sleep delays alone;
* :class:`~repro.des.queues.PriorityStore`'s keyed heap, where full key
  ties ARE possible, against sorting.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import EmptySchedule, Environment, PriorityItem, PriorityStore

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


@given(delays=st.lists(st.tuples(whens, st.booleans()), min_size=1, max_size=30))
@settings(max_examples=100)
def test_interrupted_sleepers_match_reference_trace(delays):
    """Cancellation is dispatch-level: interrupting a sleeping process
    disarms its wakeup token and the stale heap entry is skipped on pop.

    Reference: every sleeper starts at 0 and the canceller wakes at 0.5,
    after any sleeper due at 0.5 (their sleeps were scheduled first).  So
    a sleeper is interrupted at 0.5 iff it was cancelled and its delay
    exceeds 0.5; every other sleeper wakes at its delay, in
    ``(delay, index)`` order, and interrupts land after the 0.5 wakes in
    index order.
    """
    env = Environment()
    trace = []

    def sleeper(env, i, d):
        try:
            yield d
            trace.append(("woke", i, env.now))
        except Exception:
            trace.append(("interrupted", i, env.now))

    procs = [env.process(sleeper(env, i, d)) for i, (d, _) in enumerate(delays)]

    def canceller(env):
        yield 0.5
        for proc, (_, cancel) in zip(procs, delays):
            if cancel and proc.is_alive and proc.target is not None:
                proc.interrupt()

    env.process(canceller(env))
    env.run()

    interrupted = {i for i, (d, cancel) in enumerate(delays) if cancel and d > 0.5}
    expected = sorted(
        (0.5, 1, i, "interrupted") if i in interrupted else (d, 0, i, "woke")
        for i, (d, _) in enumerate(delays)
    )
    assert trace == [(kind, i, when) for when, _, i, kind in expected]
    # Stale entries are still popped (and skipped), so the clock reaches
    # the latest scheduled sleep even when its sleeper was interrupted.
    assert env.now == max(0.5, max(d for d, _ in delays))
    # Per process: kick-off, one sleep, completion; plus one per interrupt.
    assert env.scheduled_events == 3 * (len(delays) + 1) + len(interrupted)


priority_keys = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)


@given(keys=st.lists(priority_keys, min_size=1, max_size=40))
@settings(max_examples=200)
def test_priority_store_drains_in_key_order(keys):
    """Full ``(priority, seq)`` ties are legal here (the kernel never
    produces them, but the API allows it): the drain is nondecreasing
    in key, loses and duplicates nothing, and equals sorting whenever
    the keys are distinct."""
    store = PriorityStore(Environment())
    for i, (prio, seq) in enumerate(keys):
        store.put_nowait(PriorityItem(priority=prio, seq=seq, item=i))
    drained = [store.get().value for _ in keys]

    drained_keys = [(it.priority, it.seq) for it in drained]
    assert drained_keys == sorted(drained_keys)
    assert Counter((it.priority, it.seq, it.item) for it in drained) == Counter(
        (prio, seq, i) for i, (prio, seq) in enumerate(keys)
    )
    if len(set(keys)) == len(keys):
        assert [it.item for it in drained] == sorted(
            range(len(keys)), key=keys.__getitem__
        )
    assert len(store) == 0
