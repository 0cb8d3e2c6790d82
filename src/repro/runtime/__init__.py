"""Fault-injecting discrete-event runtime (deployable-network model).

Where :mod:`repro.network` executes epochs as a lossless function-call
chain, this package drives them through a deterministic event scheduler
over faulty links: keyed per-edge loss/latency/duplication, epoch-windowed
bursts and node outages (:mod:`repro.runtime.faults`), the per-hop
ACK/retransmission with exponential backoff
(:mod:`repro.runtime.transport`),
aggregator merge deadlines and querier settlement
(:mod:`repro.runtime.epoch`), and a recovery path that converts
undelivered subtrees into the paper's reported-failure subset so the
querier answers the exact SUM over the survivors
(:mod:`repro.runtime.recovery`).  The TCP cluster runs the same ARQ
driver, epoch machine and fault oracle.

Quick start::

    from repro import SIESProtocol, build_complete_tree
    from repro.datasets import DomainScaledWorkload
    from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator

    protocol = SIESProtocol(num_sources=64, seed=7)
    config = RuntimeConfig(num_epochs=20, plan=FaultPlan.uniform_loss(0.2), seed=7)
    workload = DomainScaledWorkload(64, scale=100, seed=7)
    metrics = RuntimeSimulator(
        protocol, build_complete_tree(64, fanout=4), workload, config
    ).run()
    print(metrics.delivery_rate(), metrics.traffic.total("retransmissions"))
"""

from repro.network.ledger import EdgeCounters, HopLedger
from repro.runtime.events import EventScheduler, ScheduledEvent
from repro.runtime.faults import (
    BurstLoss,
    FaultPlan,
    KeyedFaultInjector,
    KeyedVerdict,
    LinkProfile,
    NodeOutage,
)
from repro.runtime.epoch import EpochDriver, EpochPlan, EpochPlanner, HoldAndWait, QuerierEpochs
from repro.runtime.metrics import EpochRecord, RunMetrics
from repro.runtime.recovery import EpochRecovery
from repro.runtime.simulator import RuntimeConfig, RuntimeSimulator
from repro.runtime.transport import Parcel, ReliableTransport, RetransmitPolicy

__all__ = [
    "EventScheduler",
    "ScheduledEvent",
    "LinkProfile",
    "BurstLoss",
    "NodeOutage",
    "FaultPlan",
    "KeyedVerdict",
    "KeyedFaultInjector",
    "RetransmitPolicy",
    "Parcel",
    "EdgeCounters",
    "HopLedger",
    "ReliableTransport",
    "EpochPlan",
    "EpochPlanner",
    "EpochDriver",
    "HoldAndWait",
    "QuerierEpochs",
    "EpochRecovery",
    "EpochRecord",
    "RunMetrics",
    "RuntimeConfig",
    "RuntimeSimulator",
]
