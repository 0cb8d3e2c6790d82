"""Per-run isolation of the measured traffic ledger (regression).

Before the ``Channel.begin_run`` split, a simulator reused across runs
accumulated measured frame bytes forever: a bare ``run_epoch`` after
a ``run`` inherited the whole previous ledger, so the *measured* bytes
silently disagreed with the *analytic* model for the run at hand.  Every
measured entry point must start from a fresh ledger — and earlier runs'
metrics objects must keep their own snapshots.
"""

from __future__ import annotations

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.network.channel import EdgeClass
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree

N = 8


def _simulator(num_epochs: int = 2) -> NetworkSimulator:
    return NetworkSimulator(
        SIESProtocol(N, seed=11),
        build_complete_tree(N, 2),
        DomainScaledWorkload(N, scale=100, seed=11),
        SimulationConfig(num_epochs=num_epochs),
    )


def test_run_epoch_after_run_does_not_inherit_frame_bytes() -> None:
    sim = _simulator()
    sim.run()
    after_run = sim.channel.ledger.total("frame_bytes")
    assert after_run > 0

    sim.run_epoch(10)
    single = sim.channel.ledger
    # One epoch's ledger, not one epoch stacked on two.
    assert 0 < single.total("frame_bytes") < after_run
    assert single.edge(EdgeClass.SOURCE_TO_AGGREGATOR).messages == N


def test_repeated_runs_produce_identical_ledgers() -> None:
    sim = _simulator()
    first = sim.run()
    second = sim.run()
    assert first.traffic.as_dict() == second.traffic.as_dict()
    assert first.traffic.total("frame_bytes") > 0
    # Distinct ledgers: the first run's snapshot was not mutated.
    assert first.traffic is not second.traffic


def test_begin_run_preserves_the_previous_snapshot() -> None:
    sim = _simulator()
    sim.run_epoch(1)
    old = sim.channel.ledger
    old_total = old.total("frame_bytes")
    fresh = sim.channel.begin_run()
    assert fresh is sim.channel.ledger and fresh is not old
    assert fresh.total("frame_bytes") == 0 and fresh.by_class == {}
    assert old.total("frame_bytes") == old_total
