"""Epoch-driven aggregation-network simulator.

Models the paper's system architecture (Section III-A): sources at the
leaves of an aggregation tree, aggregators at internal nodes, a querier
attached to the root (the sink).  The simulator executes the push-based
query model — every epoch each source produces a PSR, aggregators fuse
PSRs bottom-up, the querier evaluates — in zero time on the epoch
machine of :mod:`repro.runtime.epoch`, while accounting byte-exact
traffic per edge class, primitive-operation counts, and (optionally)
radio energy.  Channels expose adversary interception hooks used by
:mod:`repro.attacks`.
"""

from repro.network.broadcast import MuTeslaBroadcaster, MuTeslaReceiver
from repro.network.channel import Channel, EdgeClass
from repro.network.energy import EnergyModel, FirstOrderRadioModel
from repro.network.messages import BroadcastPacket, DataMessage
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import AggregationTree, TreeNode, build_complete_tree, build_random_tree
from repro.runtime.metrics import RunMetrics

__all__ = [
    "AggregationTree",
    "TreeNode",
    "build_complete_tree",
    "build_random_tree",
    "DataMessage",
    "BroadcastPacket",
    "Channel",
    "EdgeClass",
    "NetworkSimulator",
    "SimulationConfig",
    "RunMetrics",
    "EnergyModel",
    "FirstOrderRadioModel",
    "MuTeslaBroadcaster",
    "MuTeslaReceiver",
]
