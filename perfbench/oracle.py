"""What the keyed fault schedule predicts, computed before any run.

Both lossy workloads draw link verdicts from
:class:`repro.runtime.faults.KeyedFaultInjector`, a pure function of the
seed and the attempt coordinate ``(sender, receiver, uid = epoch,
attempt)``.  Replaying each parcel's ARQ with
:func:`repro.cluster.faults.parcel_fate`, bottom-up through the tree,
gives every epoch's survivor set and the number of attempts a sender
makes when every ACK beats its timeout.  The benchmark uses the walk
twice:

* to pick a fault seed under which no epoch loses its final PSR, so no
  attempted epoch fails by design, and some epoch loses a source, so the
  querier's reported-failure-subset path runs (:func:`screen_fault_seed`);
* as the denominator of ``cluster.spurious_attempts_ratio``: measured
  ARQ attempts over oracle attempts, minus one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.cluster.faults import parcel_fate
from repro.network.channel import EdgeClass
from repro.network.simulator import QUERIER_NODE_ID
from repro.network.topology import AggregationTree
from repro.runtime.faults import FaultPlan, KeyedFaultInjector
from repro.runtime.transport import RetransmitPolicy

__all__ = ["EpochFate", "walk_epoch", "screen_fault_seed"]

#: Candidate fault seeds tried per benchmark seed.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class EpochFate:
    """The schedule's prediction for one epoch."""

    survivors: frozenset[int]
    #: ARQ attempts over every parcel sent, with timely ACKs.
    attempts: int
    #: Parcels sent: every source, and every aggregator that got anything.
    parcels: int


def _uplink(tree: AggregationTree, node_id: int) -> tuple[int, EdgeClass]:
    parent = tree.parent(node_id)
    if parent is None:
        return QUERIER_NODE_ID, EdgeClass.AGGREGATOR_TO_QUERIER
    if tree.node(node_id).is_source:
        return parent, EdgeClass.SOURCE_TO_AGGREGATOR
    return parent, EdgeClass.AGGREGATOR_TO_AGGREGATOR


def walk_epoch(
    tree: AggregationTree,
    injector: KeyedFaultInjector,
    policy: RetransmitPolicy,
    epoch: int,
) -> EpochFate:
    """Replay one epoch bottom-up: an aggregator forwards the union of
    the manifests its children delivered, and sends nothing when that
    union is empty."""
    inbox: dict[int, set[int]] = {}
    attempts = parcels = 0

    def send(node_id: int, manifest: set[int]) -> None:
        nonlocal attempts, parcels
        receiver, edge = _uplink(tree, node_id)
        delivered, tries = parcel_fate(injector, policy, node_id, receiver, edge, epoch)
        attempts += tries
        parcels += 1
        if delivered:
            inbox.setdefault(receiver, set()).update(manifest)

    for sid in tree.source_ids:
        send(sid, {sid})
    for aid in tree.bottom_up_aggregators():
        manifest = inbox.pop(aid, None)
        if manifest:
            send(aid, manifest)
    return EpochFate(frozenset(inbox.get(QUERIER_NODE_ID, ())), attempts, parcels)


def screen_fault_seed(
    tree: AggregationTree,
    plan: FaultPlan,
    policy: RetransmitPolicy,
    seed: int,
    epochs: Iterable[int],
) -> tuple[int, list[EpochFate]]:
    """The first fault seed derived from *seed* under which every epoch
    delivers a final PSR and some epoch loses a source, with that seed's
    per-epoch fates."""
    epochs = list(epochs)
    sources = len(tree.source_ids)
    for offset in range(SEED_STRIDE):
        candidate = seed * SEED_STRIDE + offset
        injector = KeyedFaultInjector(plan, seed=candidate)
        fates = [walk_epoch(tree, injector, policy, epoch) for epoch in epochs]
        if all(fate.survivors for fate in fates) and any(
            len(fate.survivors) < sources for fate in fates
        ):
            return candidate, fates
    raise RuntimeError(f"no fault seed derived from {seed} fits the workload")
