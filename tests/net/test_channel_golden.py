"""Golden change-detector for one channel's transmission schedule.

Each case replays a script of sends on a single :class:`Channel` and
pins what the schedule produced: a sha256 of the delivery log
``(time, message id, kind)``, the kernel's ``scheduled_events`` (so every
event the transmitter schedules is pinned, not only its deliveries),
``stats.preemptions``, utilization, ``undelivered_bits()`` and the clock.

A script has four sources of sends:

* ``early``: events at ``t = 0`` scheduled *before* the channel exists,
  so they pop ahead of its transmitter's first event;
* ``direct``: sends right after construction, before the run starts;
* ``timed``: events at ``(time, event priority)``, each sending several
  messages in one instant;
* ``echo``: a receiver that sends on the same channel during delivery
  (the next message of its list on every ``echo_every``-th delivery).

The hand-written cases each aim at one edge of the schedule; the seeded
random ones mix all of them, with every ``preempt_threshold`` from -1 to
2, zero-size messages, a bandwidth that keeps all times exact (most
scripts, so sends land on completion instants) or not, and a horizon
that may cut a transmission.

Regenerate after an intentional change with:

    PYTHONPATH=src python -m tests.net.test_channel_golden
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.des import HIGH, LOW, NORMAL, URGENT, Environment
from repro.net import BROADCAST, SERVER_ID, Channel, Message, MessageKind

GOLDEN_PATH = Path(__file__).with_name("golden_channel.json")
N_RANDOM = 150

IR = MessageKind.INVALIDATION_REPORT.value
CHECK = MessageKind.VALIDITY_REPORT.value
TLB = MessageKind.TLB_UPLOAD.value
DATA = MessageKind.DATA_ITEM.value
REQUEST = MessageKind.DATA_REQUEST.value

#: Case name -> script.  Sizes are in bits; at 100 bps, 100 bits is 1 s.
CASES = {
    # Every kind of send before the transmitter's first event: an early
    # event at each priority, then direct sends, a zero-size one included.
    "before-first-event": dict(
        bandwidth=100.0,
        early=[[URGENT, [[DATA, 100]]], [NORMAL, [[IR, 50], [CHECK, 0]]]],
        direct=[[DATA, 0], [CHECK, 100], [IR, 25]],
        timed=[[0.0, LOW, [[IR, 50]]], [0.0, URGENT, [[DATA, 100]]]],
    ),
    # Several senders in one instant while a transmission is on the air.
    "one-instant": dict(
        bandwidth=100.0,
        direct=[[DATA, 300]],
        timed=[
            [1.0, HIGH, [[DATA, 100], [CHECK, 50]]],
            [1.0, NORMAL, [[IR, 50], [DATA, 0], [REQUEST, 25]]],
            [1.0, LOW, [[CHECK, 0], [IR, 100]]],
            [1.0, URGENT, [[TLB, 25]]],
        ],
    ),
    # Two preempting sends in one event, a third one later in the same
    # instant: one preemption.  Then a second preemption of the resumed
    # message.
    "two-preemptions-one-instant": dict(
        bandwidth=100.0,
        direct=[[DATA, 1000]],
        timed=[
            [2.0, NORMAL, [[IR, 100], [IR, 50]]],
            [2.0, LOW, [[IR, 25], [DATA, 50]]],
            [5.5, NORMAL, [[IR, 100]]],
        ],
    ),
    # A preempting send at the exact instant a transmission completes:
    # before the completion (HIGH) it preempts with nothing left to send;
    # after it (LOW) it finds the channel idle.
    "preempt-at-completion": dict(
        bandwidth=100.0,
        direct=[[DATA, 200], [DATA, 150]],
        timed=[[2.0, HIGH, [[IR, 50]]], [4.0, LOW, [[IR, 50]]]],
    ),
    # The same instant at a bandwidth whose times are not exact.
    "preempt-at-completion-inexact": dict(
        bandwidth=1000.0 / 3,
        direct=[[DATA, 777.7]],
        timed=[[777.7 / (1000.0 / 3), HIGH, [[IR, 10]]]],
    ),
    # Receivers sending on the same channel during delivery: preempting,
    # zero-size and data messages.
    "echo": dict(
        bandwidth=100.0,
        direct=[[DATA, 200], [DATA, 100]],
        timed=[[0.5, NORMAL, [[IR, 50]]]],
        echo=[[IR, 50], [DATA, 0], [CHECK, 25], [DATA, 100], [IR, 0]],
        echo_every=1,
    ),
    # A horizon mid-transmission with a preempted message queued.
    "horizon-mid-transmission": dict(
        bandwidth=100.0,
        direct=[[DATA, 500], [DATA, 50]],
        timed=[[1.0, NORMAL, [[IR, 200]]]],
        horizon=2.5,
    ),
}
for _threshold in (-1, 0, 1, 2):
    CASES[f"threshold{_threshold:+d}"] = dict(
        bandwidth=100.0,
        threshold=_threshold,
        direct=[[DATA, 400], [REQUEST, 100]],
        timed=[
            [1.0, NORMAL, [[CHECK, 100]]],
            [1.5, NORMAL, [[IR, 50]]],
            [2.25, NORMAL, [[DATA, 50], [TLB, 50]]],
        ],
    )

KINDS = [kind.value for kind in MessageKind]
EVENT_PRIORITIES = (URGENT, HIGH, NORMAL, LOW)
#: Random scripts take these in turn; 0 (only reports preempt) is the
#: model's setting.
THRESHOLDS = (0, -1, 0, 1, 0, 2)


def random_script(seed):
    """A seeded mix of every source of sends."""
    rnd = random.Random(seed)
    exact = rnd.random() < 0.7
    bandwidth = 100.0 if exact else rnd.choice([64.0, 97.0, 1000.0 / 3])

    def spec():
        kind = IR if rnd.random() < 0.3 else rnd.choice(KINDS)
        if rnd.random() < 0.12:
            return [kind, 0]
        if exact:
            return [kind, 25 * rnd.randint(1, 16)]
        return [kind, round(rnd.uniform(1.0, 400.0), 3)]

    def specs(most):
        return [spec() for _ in range(rnd.randint(1, most))]

    def when():
        if exact:
            return 0.25 * rnd.randint(0, 60)
        return round(rnd.uniform(0.0, 15.0), 4)

    script = dict(
        bandwidth=bandwidth,
        threshold=THRESHOLDS[seed % len(THRESHOLDS)],
        early=[
            [rnd.choice(EVENT_PRIORITIES), specs(2)] for _ in range(rnd.randint(0, 2))
        ],
        direct=[spec() for _ in range(rnd.randint(0, 3))],
        timed=[
            [when(), rnd.choice(EVENT_PRIORITIES), specs(3)]
            for _ in range(rnd.randint(1, 14))
        ],
    )
    if rnd.random() < 0.5:
        script["echo"] = [spec() for _ in range(rnd.randint(1, 6))]
        script["echo_every"] = rnd.randint(1, 4)
    if rnd.random() < 0.4:
        script["horizon"] = when()
    return script


def replay(script):
    """Run *script* on one channel; return the pins."""
    env = Environment()
    ids = iter(range(10**6))

    def message(spec):
        kind, size = spec
        return Message(
            kind=MessageKind(kind),
            size_bits=size,
            src=SERVER_ID,
            dest=BROADCAST,
            payload=next(ids),
        )

    channel = None

    def sender(specs):
        def send(_event):
            for spec in specs:
                channel.send(message(spec))

        return send

    for priority, specs in script.get("early", ()):
        env.timeout(0.0, priority=priority).callbacks.append(sender(specs))
    channel = Channel(
        env,
        script["bandwidth"],
        name="golden",
        preempt_threshold=script.get("threshold", 0),
    )
    log = []
    channel.attach(lambda m, now: log.append((now, m.payload, m.kind.value)))
    echo = list(script.get("echo", ()))
    if echo:
        every = script["echo_every"]
        seen = [0]

        def echo_receiver(m, now):
            seen[0] += 1
            if echo and seen[0] % every == 0:
                channel.send(message(echo.pop(0)))

        channel.attach(echo_receiver)
    for spec in script.get("direct", ()):
        channel.send(message(spec))
    for when, priority, specs in script.get("timed", ()):
        env.timeout(when, priority=priority).callbacks.append(sender(specs))
    horizon = script.get("horizon")
    env.run(until=horizon)
    digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()
    return dict(
        log_sha256=digest,
        deliveries=len(log),
        scheduled_events=env.scheduled_events,
        preemptions=channel.stats.preemptions,
        utilization=channel.stats.utilization(env.now),
        undelivered_bits={
            kind.value: bits for kind, bits in channel.undelivered_bits().items()
        },
        now=env.now,
    )


def all_scripts():
    scripts = dict(CASES)
    for seed in range(N_RANDOM):
        scripts[f"random-{seed:03d}"] = random_script(seed)
    return scripts


SCRIPTS = all_scripts()


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_channel_golden(name):
    assert replay(SCRIPTS[name]) == load_golden()[name]


def test_cases_reach_their_edges():
    """The hand-written cases do what their names say."""
    golden = load_golden()
    assert golden["two-preemptions-one-instant"]["preemptions"] == 2
    assert golden["preempt-at-completion"]["preemptions"] == 1
    assert golden["preempt-at-completion-inexact"]["preemptions"] == 1
    assert golden["horizon-mid-transmission"]["undelivered_bits"] == {
        DATA: 550,
        IR: 200,
    }
    assert [golden[f"threshold{t:+d}"]["preemptions"] for t in (-1, 0, 1, 2)] == [
        0,
        1,
        2,
        2,
    ]
    random_pins = [golden[f"random-{seed:03d}"] for seed in range(N_RANDOM)]
    assert sum(pin["preemptions"] for pin in random_pins) >= 100
    assert sum(1 for pin in random_pins if pin["undelivered_bits"]) >= 30


if __name__ == "__main__":
    table = {name: replay(script) for name, script in SCRIPTS.items()}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
