"""The aggregation tree over real sockets: an asyncio TCP cluster.

Runs the same Initialization → Merging → Evaluation process as the
logical-clock runtimes, but with every tree node a real TCP endpoint on
localhost (a server on each aggregator and the querier, an uplink on
each child) and every PSR crossing a real socket inside a
:mod:`repro.cluster.envelope` frame.  Every hop runs the event
runtime's per-hop ARQ (:mod:`repro.runtime.transport`) over the same keyed
fault oracle (:class:`repro.runtime.faults.KeyedFaultInjector`), with loss
injected at the stream layer; recovery is the paper's reported-failure
subset, and the traffic ledger proves zero silent drops.  See ``docs/cluster.md``.
"""

from repro.cluster.envelope import (
    CLUSTER_ACK_WIRE_ID,
    CLUSTER_DATA_WIRE_ID,
    AckEnvelope,
    DataEnvelope,
    decode_envelope,
    encode_ack,
    encode_data,
)
from repro.cluster.framing import DEFAULT_MAX_PAYLOAD, FrameAssembler
from repro.cluster.node import ClusterNode
from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator, run_cluster

__all__ = [
    "CLUSTER_ACK_WIRE_ID",
    "CLUSTER_DATA_WIRE_ID",
    "AckEnvelope",
    "DataEnvelope",
    "decode_envelope",
    "encode_ack",
    "encode_data",
    "DEFAULT_MAX_PAYLOAD",
    "FrameAssembler",
    "ClusterNode",
    "ClusterConfig",
    "EpochOrchestrator",
    "run_cluster",
]
