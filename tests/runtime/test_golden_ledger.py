"""The runtime's and the cluster's run records, pinned byte for byte.

Each case runs one seeded configuration and compares the SHA-256 of its
JSON record (``sort_keys=True``) with the digest recorded before the
ARQ's hot path was last reworked.  The runtime's
:meth:`~repro.runtime.metrics.RunMetrics.ledger` covers every epoch's
verdict and survivors, the op ledgers, the full per-edge traffic ledger
and ``events_processed``, so an optimisation of the event scheduler,
the fault oracle or the transport that adds, drops or reorders a single
event, verdict or counter fails here.  The cluster's
:meth:`~repro.runtime.metrics.RunMetrics.deterministic_ledger` is its
seed-determined slice.  A digest changes only with a deliberate change
of behaviour, such as a new fault schedule version.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.topology import build_complete_tree
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator

N = 16
FANOUT = 4
SEED = 1
EPOCHS = 8


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def workload() -> UniformWorkload:
    return UniformWorkload(N, 0, 500, seed=SEED)


RUNTIME_CASES = {
    "lossless": (
        dict(plan=FaultPlan.lossless()),
        "a6f1c595cedd939a7d4599ac23515957200733a0f901b4b458c9d88bb34637e4",
    ),
    "loss20": (
        dict(plan=FaultPlan.uniform_loss(0.2)),
        "4a3971327722768dd82e16ffd38ade23e45b31e419a6a29a826cdf4c0425705f",
    ),
    "loss55-dup30": (
        dict(plan=FaultPlan.uniform_loss(0.55, duplicate_rate=0.3)),
        "5e390e640e659ee2e2e452729ff5e27e12c7fcff9c77ed20361c9728b2af49f5",
    ),
    "hold20-loss40": (
        dict(plan=FaultPlan.uniform_loss(0.4), hold_time=20.0),
        "447a522b099c63ac63e1bdf2f12f16bf9d9c9d33d956b8450971bcc9dfb8d6d8",
    ),
}


@pytest.mark.runtime
@pytest.mark.parametrize("case", sorted(RUNTIME_CASES))
def test_the_runtime_ledger_is_pinned(case: str) -> None:
    config, expected = RUNTIME_CASES[case]
    metrics = RuntimeSimulator(
        SIESProtocol(num_sources=N, seed=SEED),
        build_complete_tree(N, fanout=FANOUT),
        workload(),
        RuntimeConfig(num_epochs=EPOCHS, seed=SEED, **config),
    ).run()
    assert metrics.events_processed > 0
    assert digest(metrics.ledger()) == expected


@pytest.mark.cluster
def test_the_cluster_deterministic_ledger_is_pinned() -> None:
    metrics = run_cluster(
        SIESProtocol(num_sources=N, seed=SEED),
        build_complete_tree(N, fanout=FANOUT),
        workload(),
        ClusterConfig(num_epochs=EPOCHS, seed=SEED, plan=FaultPlan.uniform_loss(0.2)),
    )
    assert digest(metrics.deterministic_ledger()) == (
        "91423662ec5bee0c2e342a1a52e5cff9508cbfc2bafb50c1cfccb21ec5ef710f"
    )
