"""Cross-cutting integration: pure hash backend end-to-end, and
failure handling across every integrity-providing protocol."""

from __future__ import annotations

import pytest

from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.core.protocol import SIESProtocol
from repro.crypto.hashes import get_default_backend, set_default_backend
from repro.datasets.workload import UniformWorkload
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree

N = 16


@pytest.fixture(autouse=True)
def _restore_backend():
    original = get_default_backend()
    yield
    set_default_backend(original)


def test_full_sies_network_on_pure_backend() -> None:
    """The from-scratch SHA implementations carry a whole deployment."""
    set_default_backend("pure")
    protocol = SIESProtocol(N, seed=21)
    workload = UniformWorkload(N, 1, 100, seed=22)
    metrics = NetworkSimulator(
        protocol, build_complete_tree(N, 4), workload, SimulationConfig(num_epochs=2)
    ).run()
    assert metrics.all_verified()
    for em in metrics.epochs:
        assert em.result.value == sum(workload(s, em.epoch) for s in range(N))


def test_backend_switch_mid_deployment_is_transparent() -> None:
    """PSRs made on one backend verify on the other (same functions).

    A source derives on its key material's PRFs, whose backend is fixed
    when the protocol (and so the material) is built.  Two protocols with
    the same seed hold the same keys: the sources come from one built on
    the pure backend, the aggregator and querier from one built on hashlib.
    """
    set_default_backend("pure")
    pure = SIESProtocol(N, seed=23)
    set_default_backend("hashlib")
    native = SIESProtocol(N, seed=23)
    assert pure.keys.source_keys == native.keys.source_keys
    for i in range(N):
        bundle = pure.keys.keys_for_source(i)
        for prf in (bundle.master_prf, bundle.pad_prf, bundle.share_prf):
            assert "backend='pure'" in repr(prf)
        assert "backend='hashlib'" in repr(native.keys.keys_for_source(i).pad_prf)
    psrs = [pure.create_source(i).initialize(1, 7) for i in range(N)]
    final = native.create_aggregator().merge(1, psrs)
    result = native.create_querier().evaluate(1, final)
    assert result.value == 7 * N and result.verified


def test_secoa_s_with_reported_failures() -> None:
    """The failure-handling path of SECOA_S: the querier rebuilds its
    reference SEAL and certificates over the reporting subset only."""
    protocol = SECOASumProtocol(N, num_sketches=6, rsa_bits=512, seed=24)
    workload = UniformWorkload(N, 50, 400, seed=25)
    sim = NetworkSimulator(
        protocol, build_complete_tree(N, 4), workload, SimulationConfig(num_epochs=2)
    )
    sim.fail_source_at(2, [1])
    sim.fail_source_at(9, [1])
    metrics = sim.run()
    for em in metrics.epochs:
        assert em.security_failure is None, em.security_failure
        assert em.result is not None and em.result.verified
    assert metrics.epochs[0].sources_reporting == N - 2
    assert metrics.epochs[1].sources_reporting == N


def test_sies_failures_on_random_and_chain_trees() -> None:
    from repro.network.topology import build_chain_tree, build_random_tree

    workload = UniformWorkload(12, 1, 30, seed=26)
    for tree in (build_random_tree(12, max_fanout=3, seed=27), build_chain_tree(12)):
        sim = NetworkSimulator(
            SIESProtocol(12, seed=28), tree, workload, SimulationConfig(num_epochs=1)
        )
        sim.fail_source_at(0, [1])
        em = sim.run_epoch(1)
        expected = sum(workload(s, 1) for s in range(1, 12))
        assert em.result.value == expected and em.result.verified
