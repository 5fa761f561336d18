"""Microbenchmarks of the discrete-event kernel.

The whole evaluation rides on this substrate; these benches make kernel
performance regressions visible (events/second, channel transmissions,
broadcast fan-out).

Run as a script to refresh the persisted baseline::

    PYTHONPATH=src python benchmarks/bench_des_kernel.py --out BENCH_kernel.json
"""

from repro.des import Environment
from repro.net import BROADCAST, Channel, Message, MessageKind, SERVER_ID


def pump_timeouts(n_events: int):
    env = Environment()

    def ticker(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return env.now


def test_event_throughput(benchmark):
    result = benchmark(pump_timeouts, 20_000)
    assert result == 20_000


def pump_sleep_fast_lane(n_events: int):
    """The timeout fast lane: a bare delay yield allocates no Event."""
    env = Environment()

    def ticker(env):
        for _ in range(n_events):
            yield 1.0

    env.process(ticker(env))
    env.run()
    return env.now


def test_sleep_fast_lane_throughput(benchmark):
    result = benchmark(pump_sleep_fast_lane, 20_000)
    assert result == 20_000


def pump_channel(n_messages: int):
    env = Environment()
    channel = Channel(env, bandwidth_bps=1e6)
    delivered = []
    channel.attach(lambda msg, now: delivered.append(msg))
    for i in range(n_messages):
        channel.send(
            Message(
                kind=MessageKind.DATA_ITEM,
                size_bits=100,
                src=SERVER_ID,
                dest=BROADCAST,
                payload=i,
            )
        )
    env.run()
    return len(delivered)


def test_channel_throughput(benchmark):
    assert benchmark(pump_channel, 5_000) == 5_000


def pump_broadcast(n_messages: int, n_receivers: int = 100, dozing: int = 50):
    """Broadcast fan-out dispatch: a cell-sized receiver population.

    Half the receivers doze (``set_listening(False)``) — the dispatch
    must skip them without per-receiver work, the shape of a real cell
    where disconnected clients power the radio down.
    """
    env = Environment()
    channel = Channel(env, bandwidth_bps=1e6)
    delivered = [0]

    def make_receiver(i):
        def receiver(msg, now):
            delivered[0] += 1

        return receiver

    receivers = [make_receiver(i) for i in range(n_receivers)]
    for i, receiver in enumerate(receivers):
        channel.attach(receiver, dest=i)
    for receiver in receivers[:dozing]:
        channel.set_listening(receiver, False)
    for i in range(n_messages):
        channel.send(
            Message(
                kind=MessageKind.INVALIDATION_REPORT,
                size_bits=1_000,
                src=SERVER_ID,
                dest=BROADCAST,
                payload=i,
            )
        )
    env.run()
    return delivered[0]


def test_broadcast_dispatch_throughput(benchmark):
    delivered = benchmark(pump_broadcast, 1_000)
    # Every message reaches exactly the 50 listening receivers.
    assert delivered == 1_000 * 50


def run_small_cell():
    from repro.sim import SystemParams, UNIFORM, run_simulation

    params = SystemParams(
        simulation_time=2_000.0,
        n_clients=20,
        db_size=1_000,
        disconnect_prob=0.1,
        disconnect_time_mean=200.0,
        seed=1,
    )
    return run_simulation(params, UNIFORM, "aaw")


def test_full_cell_simulation(benchmark):
    """End-to-end cost of one small cell-simulation (the sweep unit)."""
    result = benchmark(run_small_cell)
    assert result.queries_answered > 0


# -- persisted baseline (BENCH_kernel.json) --------------------------------

#: name -> (fn, arg, expected result, unit count per run).  The expected
#: result is a hard correctness gate: the baseline refuses to persist
#: timings for a kernel that miscounts its own events.
KERNEL_BENCHES = {
    "timeout_events": (pump_timeouts, 20_000, 20_000, 20_000),
    "sleep_fast_lane_events": (pump_sleep_fast_lane, 20_000, 20_000, 20_000),
    "channel_messages": (pump_channel, 5_000, 5_000, 5_000),
    "broadcast_100rx_deliveries": (pump_broadcast, 1_000, 50_000, 50_000),
}


def collect_kernel_baseline(scale: float = 1.0, repeats: int = 3) -> dict:
    """Time every kernel bench; returns the ``results`` mapping.

    *scale* shrinks the workloads (CI smoke runs at 0.1); the hard
    event-count assertions scale with it.
    """
    from perf_baseline import measure

    results = {}
    for name, (fn, arg, expected, units) in KERNEL_BENCHES.items():
        n = max(1, int(arg * scale))
        result, wall, cpu = measure(fn, n, repeats=repeats)
        scaled_expected = expected * n // arg
        assert result == scaled_expected, (
            f"{name}: produced {result}, expected {scaled_expected}"
        )
        count = units * n // arg
        results[name] = {
            "n": n,
            "wall_s": round(wall, 6),
            "cpu_s": round(cpu, 6),
            "per_sec_cpu": round(count / cpu, 1) if cpu else None,
        }
    return results


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    from perf_baseline import baseline_envelope, write_baseline

    results = collect_kernel_baseline(scale=args.scale, repeats=args.repeats)
    payload = baseline_envelope(
        "kernel",
        results,
        config={"scale": args.scale, "repeats": args.repeats},
    )
    print(f"wrote {write_baseline(args.out, payload)}")
    for name, row in results.items():
        print(f"  {name:>28s}  cpu {row['cpu_s']:.4f}s  {row['per_sec_cpu']:.0f}/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

