"""Cross-module integration: full deployments, all protocols, one file."""

from __future__ import annotations

import pytest

from repro import (
    NetworkSimulator,
    SimulationConfig,
    available_protocols,
    build_complete_tree,
    build_random_tree,
    create_protocol,
)
from repro.baselines.secoa.sketch import SketchStrategy
from repro.datasets.workload import DomainScaledWorkload, UniformWorkload
from repro.network.channel import EdgeClass

N = 27  # deliberately not a power of any fanout


def _protocol(name: str, n: int = N):
    kwargs = {"seed": 1}
    if name.startswith("secoa"):
        kwargs["rsa_bits"] = 512
    if name == "secoa_s":
        kwargs["num_sketches"] = 6
        kwargs["strategy"] = SketchStrategy.CLOSED_FORM
    return create_protocol(name, n, **kwargs)


@pytest.mark.parametrize("name", ["sies", "cmt", "secoa_s", "secoa_m"])
@pytest.mark.parametrize("fanout", [2, 5])
def test_every_protocol_runs_on_irregular_trees(name: str, fanout: int) -> None:
    protocol = _protocol(name)
    tree = build_complete_tree(N, fanout)
    workload = UniformWorkload(N, 5, 60, seed=2)
    metrics = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=2)).run()
    for em in metrics.epochs:
        assert em.security_failure is None
        assert em.result is not None
        if name == "sies" or name == "cmt":
            assert em.result.value == sum(workload(s, em.epoch) for s in range(N))
        elif name == "secoa_m":
            assert em.result.value == max(workload(s, em.epoch) for s in range(N))
        if protocol.provides_integrity:
            assert em.result.verified


def test_all_protocols_registered() -> None:
    assert set(available_protocols()) == {"sies", "cmt", "secoa_m", "secoa_s"}


def test_sies_on_random_topology_20_epochs_paper_workload() -> None:
    """The paper's experimental discipline: 20 epochs, domain ×100."""
    n = 50
    protocol = create_protocol("sies", n, seed=3)
    tree = build_random_tree(n, max_fanout=6, seed=4)
    workload = DomainScaledWorkload(n, scale=100, seed=5)
    metrics = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=20)).run()
    assert metrics.num_epochs == 20
    assert metrics.all_verified()
    for em in metrics.epochs:
        assert em.result.value == sum(workload(s, em.epoch) for s in range(n))
    # constant 32-byte messages everywhere
    for edge in EdgeClass:
        assert metrics.traffic.per_message("payload_bytes", edge) == 32.0


def test_sies_and_cmt_agree_on_the_sum() -> None:
    workload = UniformWorkload(N, 1, 1000, seed=6)
    tree = build_complete_tree(N, 4)
    results = {}
    for name in ("sies", "cmt"):
        metrics = NetworkSimulator(
            _protocol(name), tree, workload, SimulationConfig(num_epochs=3)
        ).run()
        results[name] = [em.result.value for em in metrics.epochs]
    assert results["sies"] == results["cmt"]


def test_secoa_s_estimate_tracks_magnitude_over_epochs() -> None:
    n = 16
    protocol = create_protocol(
        "secoa_s", n, seed=7, rsa_bits=512, num_sketches=32,
        strategy=SketchStrategy.CLOSED_FORM,
    )
    workload = UniformWorkload(n, 500, 1000, seed=8)
    tree = build_complete_tree(n, 4)
    metrics = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=2)).run()
    for em in metrics.epochs:
        truth = sum(workload(s, em.epoch) for s in range(n))
        assert em.result.verified and not em.result.exact
        assert truth / 8 < em.result.value < truth * 8  # J=32: loose bound


def test_wire_size_comparison_matches_table5_ordering() -> None:
    """SIES (32 B) and CMT (20 B) vs SECOA_S (KBs) on the same network."""
    workload = UniformWorkload(N, 5, 60, seed=9)
    tree = build_complete_tree(N, 4)
    sizes = {}
    for name in ("sies", "cmt", "secoa_s"):
        metrics = NetworkSimulator(
            _protocol(name), tree, workload, SimulationConfig(num_epochs=1)
        ).run()
        sizes[name] = metrics.traffic.per_message(
            "payload_bytes", EdgeClass.SOURCE_TO_AGGREGATOR
        )
    assert sizes["cmt"] == 20
    assert sizes["sies"] == 32
    # at test scale (J=6, 512-bit SEALs) the gap is ~13x; at the paper's
    # J=300 / 1024-bit it is 3 orders of magnitude (Table V benchmark)
    assert sizes["secoa_s"] == 6 * 1 + 6 * 64 + 20
    assert sizes["secoa_s"] > 10 * sizes["sies"]


def test_epoch_zero_reserved_but_usable_directly() -> None:
    protocol = _protocol("sies")
    psrs = [protocol.create_source(i).initialize(0, 1) for i in range(N)]
    final = protocol.create_aggregator().merge(0, psrs)
    assert protocol.create_querier().evaluate(0, final).value == N
