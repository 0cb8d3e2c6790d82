"""Event-runtime overhead: RuntimeSimulator vs NetworkSimulator.

Two questions for the perf record:

1. What does the discrete-event machinery itself cost?  On a lossless
   network both simulators do identical crypto work (the lossless
   parity test pins identical op counters), so the wall-clock delta is
   pure scheduler + transport overhead.
2. What do retransmissions cost as loss grows?  The sweep runs the
   same configuration at increasing per-hop loss rates; crypto work is
   *roughly* constant (subsets shrink slightly), so the growth is the
   ARQ paying for the lossy links.

Run with::

    PYTHONPATH=src pytest benchmarks/test_runtime_overhead.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator

N = 64
EPOCHS = 16
SEED = 2011


def _protocol_stack():
    protocol = SIESProtocol(N, seed=SEED)
    tree = build_complete_tree(N, fanout=4)
    workload = DomainScaledWorkload(N, scale=100, seed=SEED)
    return protocol, tree, workload


def _fresh_runtime(loss_rate: float) -> RuntimeSimulator:
    protocol, tree, workload = _protocol_stack()
    config = RuntimeConfig(
        num_epochs=EPOCHS,
        plan=FaultPlan.lossless() if loss_rate == 0.0 else FaultPlan.uniform_loss(loss_rate),
        seed=SEED,
    )
    return RuntimeSimulator(protocol, tree, workload, config)


# ----------------------------------------------------------------------
# Lossless: the price of the event loop itself
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="runtime-overhead")
def test_network_simulator_baseline(benchmark) -> None:
    state: dict = {}

    def setup():
        protocol, tree, workload = _protocol_stack()
        state["sim"] = NetworkSimulator(
            protocol, tree, workload, SimulationConfig(num_epochs=EPOCHS)
        )
        return (), {}

    metrics = benchmark.pedantic(lambda: state["sim"].run(), setup=setup, rounds=3, iterations=1)
    assert metrics.all_verified()


@pytest.mark.benchmark(group="runtime-overhead")
def test_runtime_simulator_lossless(benchmark) -> None:
    state: dict = {}

    def setup():
        state["sim"] = _fresh_runtime(0.0)
        return (), {}

    metrics = benchmark.pedantic(lambda: state["sim"].run(), setup=setup, rounds=3, iterations=1)
    assert metrics.acceptance_rate() == 1.0
    assert metrics.traffic.total("retransmissions") == 0
    benchmark.extra_info["events_processed"] = metrics.events_processed


# ----------------------------------------------------------------------
# The retransmission-cost sweep
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="runtime-loss-sweep")
@pytest.mark.parametrize("loss_rate", [0.0, 0.05, 0.2, 0.4])
def test_retransmission_cost(benchmark, loss_rate: float) -> None:
    state: dict = {}

    def setup():
        state["sim"] = _fresh_runtime(loss_rate)
        return (), {}

    metrics = benchmark.pedantic(lambda: state["sim"].run(), setup=setup, rounds=3, iterations=1)
    assert metrics.num_epochs == EPOCHS
    benchmark.extra_info["loss_rate"] = loss_rate
    benchmark.extra_info["retransmissions"] = metrics.traffic.total("retransmissions")
    benchmark.extra_info["delivery_rate"] = metrics.delivery_rate()
    benchmark.extra_info["events_processed"] = metrics.events_processed
