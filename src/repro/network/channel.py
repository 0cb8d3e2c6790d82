"""The (insecure) wireless channel with adversary hooks.

Every PSR hop, on every substrate, goes through a :class:`Channel`,
split at the wire into a sender half and a receiver half:

* :meth:`Channel.emit` (sender) counts the attempt into the run's
  :class:`~repro.network.ledger.HopLedger` under its edge class
  (source→aggregator, aggregator→aggregator, aggregator→querier) — the
  exact quantities of the paper's Table V and communication analysis —
  **encodes the PSR into its real byte frame** with the protocol's
  :class:`~repro.wire.codec.PSRCodec` and passes the frame through the
  frame-level interceptors (bit flips, truncation, header forgery);
* :meth:`Channel.accept` (receiver) decodes the frame — a malformed
  frame is *dropped with a typed* :class:`~repro.errors.WireDecodeError`
  and counted, exactly how a real receiver discards an unparseable
  packet — and passes the decoded message, survivor manifest included,
  through the PSR-level *interceptors* in order.

An interceptor models an adversary (or a lossy link): it may return the
frame or message unchanged, a modified one, or ``None`` to drop it.
The analytic simulator, which has no ARQ and loses no attempt, calls
both halves at once (:meth:`Channel.transmit`).  On the event runtime
and the TCP cluster the per-hop ARQ
(:class:`~repro.runtime.transport.ReliableTransport`) calls them, under
one interceptor contract:

* frame interceptors run **per attempt, at the sender** (``emit``).  A
  frame they drop never reaches the link: ``drops_channel``, no ACK,
  and the sender retransmits;
* decoding and the PSR interceptors run **once, on the first copy that
  lands** (``accept``; duplicates are suppressed before any decode).
  A first copy that does not decode, or that a PSR interceptor drops,
  is ``decode_failures`` and is ACKed: the ARQ sits below the codec and
  SIES frames carry no link checksum, so the transport did deliver it.

So an adversary acts on what a receiver actually hears, and is the same
experiment on both ARQ substrates.

The sender half reads only the PSR, so it takes the PSR, not a
message: :meth:`~Channel.transmit` takes the hop's parts, and the one
:class:`~repro.network.messages.DataMessage` of an analytic hop is the
one :meth:`~Channel.accept` builds around the decoded PSR.  The codec
decodes each frame once (:meth:`~repro.wire.codec.PSRCodec.decode`,
one ``struct`` unpack for SIES and CMT).

Each attempt counts one message and its bytes twice:
``payload_bytes`` is the paper's *analytic* payload (``psr.wire_size()``,
the Table V quantity), ``frame_bytes`` the **measured** ``len(frame)``.
The two are cross-checked once per frame, so the analytic model can
never silently drift from the bytes actually sent: a frame the channel
encodes is checked by :meth:`~repro.wire.codec.PSRCodec.encode` itself,
and a frame handed in from outside (the ARQ layer's per-parcel
encoding) by :meth:`~repro.wire.codec.PSRCodec.checked_frame_size`.

The channel is where the threat model lives: the paper's adversary "may
… infiltrate the wireless channel", so attacks in :mod:`repro.attacks`
are implemented purely as interceptors — protocols cannot tell the
difference, exactly as in a real deployment.  The channel only answers
whether a hop arrived; its drivers report that answer as trace events
(:func:`repro.runtime.transport.emit_hop`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import WireDecodeError
from repro.network.ledger import EdgeClass, HopLedger
from repro.network.messages import DataMessage

if TYPE_CHECKING:
    from repro.protocols.base import PartialStateRecord
    from repro.wire.codec import PSRCodec

__all__ = [
    "EdgeClass",
    "Channel",
    "Interceptor",
    "FrameInterceptor",
]


#: A PSR-level interceptor sees each decoded message and may modify or
#: drop it (the post-decode adversary surface).
Interceptor = Callable[[DataMessage, EdgeClass], DataMessage | None]

#: A frame-level interceptor sees the raw frame bytes in flight and may
#: return them unchanged, corrupted, or ``None`` to drop the frame.
FrameInterceptor = Callable[[bytes, EdgeClass], "bytes | None"]


class Channel:
    """Delivers :class:`DataMessage`s, counting traffic and applying attacks.

    Every transmission is a real encode → (frame interceptors) → decode
    → (PSR interceptors) round trip through *codec*.
    """

    def __init__(self, codec: "PSRCodec") -> None:
        self.codec = codec
        self.ledger = HopLedger()
        self._interceptors: list[Interceptor] = []
        self._frame_interceptors: list[FrameInterceptor] = []

    def begin_run(self) -> HopLedger:
        """Install a fresh ledger for a new measured run.

        Simulator entry points call this so every run's ledger —
        including the measured ``frame_bytes`` — starts from zero
        instead of silently accumulating traffic from earlier runs on
        the same simulator.  The previous ledger is left untouched (a
        caller holding it keeps a consistent snapshot); reads through
        ``channel.ledger`` see the new run.
        """
        self.ledger = HopLedger()
        return self.ledger

    # -- interceptor management -----------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Attach an adversary/fault model; order of attachment = order applied."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)

    def add_frame_interceptor(self, interceptor: FrameInterceptor) -> None:
        """Attach a byte-level adversary; order of attachment = order applied."""
        self._frame_interceptors.append(interceptor)

    def remove_frame_interceptor(self, interceptor: FrameInterceptor) -> None:
        self._frame_interceptors.remove(interceptor)

    def clear_interceptors(self) -> None:
        """Detach every adversary, at both the frame and the PSR layer."""
        self._interceptors.clear()
        self._frame_interceptors.clear()

    # -- transmission ----------------------------------------------------

    def emit(
        self, psr: PartialStateRecord, edge_class: EdgeClass, frame: bytes | None = None
    ) -> bytes | None:
        """Sender half: count one attempt of *psr* and put its frame on the air.

        Traffic is accounted for the legitimate transmission (the sender
        spent that energy regardless of what the adversary later does),
        once per call — the ARQ substrates call it once per attempt.
        The PSR is encoded to its byte frame, or *frame* is sent verbatim
        when given (the ARQ layer passes its per-parcel encoding so
        retransmissions are byte-identical), then attacked at the byte
        level.  The size contract is checked once per frame: by the
        codec's ``encode`` for a fresh frame, by ``checked_frame_size``
        for a given one.  Returns the frame the receiver gets, or
        ``None`` if a frame interceptor dropped it.
        """
        counters = self.ledger.edge(edge_class)
        counters.messages += 1
        counters.payload_bytes += psr.wire_size()
        if frame is None:
            frame = self.codec.encode(psr)  # raises unless the size contract holds
            counters.frame_bytes += len(frame)
        else:
            counters.frame_bytes += self.codec.checked_frame_size(psr, frame)
        attacked: bytes | None = frame
        for frame_interceptor in self._frame_interceptors:
            attacked = frame_interceptor(attacked, edge_class)
            if attacked is None:
                return None
        return attacked

    def accept(
        self,
        frame: bytes,
        sender: int,
        receiver: int,
        edge_class: EdgeClass,
        manifest: frozenset[int] = frozenset(),
    ) -> DataMessage | None:
        """Receiver half: decode *frame* from *sender* and run the PSR interceptors.

        *manifest* is the survivor manifest the transport carried with
        the frame.  The delivered message's epoch is the frame header's,
        which is attacker-controlled: drivers route by their transport
        epoch, never by this one.  Returns the possibly-modified
        message, or ``None`` if the frame did not decode (counted) or an
        interceptor dropped it.
        """
        try:
            psr = self.codec.decode(frame)
        except WireDecodeError:
            # A real receiver discards what it cannot parse; the typed
            # error family is the *only* thing a malformed frame may
            # raise (fuzzed in tests/wire/test_fuzz.py).
            self.ledger.edge(edge_class).channel_decode_failures += 1
            return None
        delivered: DataMessage | None = DataMessage(sender, receiver, psr.epoch, psr, manifest)
        for interceptor in self._interceptors:
            delivered = interceptor(delivered, edge_class)
            if delivered is None:
                return None
        return delivered

    def transmit(
        self, sender: int, receiver: int, edge_class: EdgeClass, psr: PartialStateRecord
    ) -> DataMessage | None:
        """Both halves in one call, the analytic hop: :meth:`emit`, then :meth:`accept`.

        Returns the message as the receiver gets it — the one
        :class:`DataMessage` of the hop, built by :meth:`accept`, with an
        empty manifest — or ``None`` if it was dropped on the way.
        """
        attacked = self.emit(psr, edge_class)
        if attacked is None:
            return None
        return self.accept(attacked, sender, receiver, edge_class)
