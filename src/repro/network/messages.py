"""Wire messages exchanged in the simulated network.

Two message kinds exist:

* :class:`DataMessage` — a PSR travelling up the aggregation tree
  during an epoch.  Its accounted size is the PSR payload size — the
  quantity the paper's Table V reports (it deliberately excludes
  MAC-layer headers, which are identical across schemes).  On the
  :class:`~repro.network.channel.Channel` the PSR does not travel as
  an object: it is encoded into a real byte frame
  (:mod:`repro.wire`) for the hop and decoded at the receiver, with the
  measured ``len(frame)`` accounted separately from this analytic size.
* :class:`BroadcastPacket` — a μTesla-authenticated packet travelling
  down the tree during query dissemination (setup phase).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.protocols.base import PartialStateRecord

__all__ = ["QUERIER_NODE_ID", "Workload", "DataMessage", "BroadcastPacket"]

#: Sentinel node id for the querier (it is not part of the sensor tree).
QUERIER_NODE_ID = -1

#: A workload maps (source_id, epoch) to the source's integer reading.
Workload = Callable[[int, int], int]


@dataclass
class DataMessage:
    """A PSR in flight from *sender* to *receiver* at *epoch*.

    *manifest* is the survivor manifest travelling with the PSR: the
    source ids whose contributions it carries (empty where the driver
    does not track survivors, as on the analytic simulator).
    """

    sender: int
    receiver: int
    epoch: int
    psr: PartialStateRecord
    manifest: frozenset[int] = frozenset()

    def wire_size(self) -> int:
        """Payload bytes on the radio — the Table V quantity."""
        return self.psr.wire_size()


@dataclass
class BroadcastPacket:
    """One μTesla packet: payload + MAC now, key disclosed later.

    ``disclosed_key`` is ``None`` while the packet is in its silence
    window and is filled in by the broadcaster's later disclosure
    packet; receivers buffer the packet until then.
    """

    interval: int
    payload: bytes
    mac: bytes
    disclosed_key: bytes | None = None
    #: Free-form metadata (e.g. the query spec carried by the packet).
    headers: dict[str, object] = field(default_factory=dict)

    def wire_size(self) -> int:
        size = len(self.payload) + len(self.mac) + 4  # 4-byte interval index
        if self.disclosed_key is not None:
            size += len(self.disclosed_key)
        return size
