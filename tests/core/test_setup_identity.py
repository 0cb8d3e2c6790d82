"""Set-up is byte-identical to a recorded reference.

The seeded key bytes, a tree's three orders and the epoch planner's
uplink table and merge offsets are pinned by SHA-256 digests.  A change
to how any set-up structure is built must reproduce them exactly: the
key bytes fix every PSR, the post-order is the merge schedule (the
order of ``plan.expected``, of the armed deadlines and so of the
frames an interceptor sees), and the uplink table routes every hop.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.keys import SIESKeyMaterial
from repro.core.params import SIESParams
from repro.core.protocol import SIESProtocol
from repro.network.topology import (
    AggregationTree,
    build_chain_tree,
    build_complete_tree,
    build_random_tree,
)
from repro.runtime.epoch import EpochPlanner
from repro.runtime.faults import FaultPlan

P = SIESParams(num_sources=16).p

#: SHA-256 of ``K ∥ k_0 ∥ … ∥ k_{N-1}`` for ``SIESProtocol(N, seed=seed)``.
KEY_DIGESTS = {
    (4, 1): "06362c561871daf8e2a23b7d9d5eaff59ad1e010c506d01a10e1becc05ed642c",
    (4, 7): "aa04b1c0cd2580b8d80b938527699a864009342e06d50f76e994be77cf57bfbe",
    (16, 1): "c460adb4e0b2afb24ff80945ccc2a905d3c529273a5868b0f5c47798f4275cd9",
    (16, 7): "20b96690dfc507a7290faa0c36b7fe99a8a203eb0f7bd0b85528bf76d61feeac",
    (64, 1): "0b139cf9366dfc3ac2588db56a305198436185a8410cc2988fc3a6afa34a9014",
    (64, 7): "4f32701411c27963a8821842d7425392e83a7754ddd851254f64a510c582daf2",
    (1024, 1): "66fc12fd2b097d3003239c7a546f57168d3b0530a698b3415dee784c65aabec3",
    (1024, 7): "8775b61da7e1bb52febe624bedaeea55cf960bc2be083a584c3675c629eb0637",
}

#: The same for ``SIESKeyMaterial.generate(N, p, key_bytes=w, seed=seed)`` at
#: widths where draws repeat (1 byte) or are not a whole number of words.
NARROW_KEY_DIGESTS = {
    (100, 1, 1): "dd96e625d07e2596f6fd21be7b3944c9ec63a6e58e22fa9fafacf033c3ce03e5",
    (250, 1, 7): "20c3243b7b8c5af699290b1bcbb9378db41ecc58b3708ae5a881ccbdb3b34e10",
    (64, 7, 1): "81f847047952024cae434d358add09165d8568a7654c25130e2f50df04a2a037",
}

TREES = {
    "complete-n1024-f4": lambda: build_complete_tree(1024, 4),
    "chain-n12": lambda: build_chain_tree(12),
    "random-n200-f5-seed9": lambda: build_random_tree(200, max_fanout=5, seed=9),
}

#: SHA-256 of the tree's orders and its planner's tables (:func:`_tree_record`).
TREE_DIGESTS = {
    "complete-n1024-f4": "33bb796bb81bd0f37c6d54582eacd42178db730f0a9540037ac64c8cf3b782e5",
    "chain-n12": "4cefe52ab9cec05ddb3798f619f73737045d4cbed3e13c69259426596a93f6ba",
    "random-n200-f5-seed9": "d544c54cbf730dbbe0df1c15b91d69bd569279f95e6671b89cbd90e96756312a",
}


def _key_digest(num_sources: int, seed: int) -> str:
    keys = SIESProtocol(num_sources, seed=seed).keys
    return hashlib.sha256(keys.master_key + b"".join(keys.source_keys)).hexdigest()


def _narrow_key_digest(num_sources: int, key_bytes: int, seed: int) -> str:
    keys = SIESKeyMaterial.generate(num_sources, P, key_bytes=key_bytes, seed=seed)
    return hashlib.sha256(keys.master_key + b"".join(keys.source_keys)).hexdigest()


def _tree_record(tree: AggregationTree) -> str:
    """The orders and tables as canonical JSON, dict entries in their own order."""
    planner = EpochPlanner(
        tree,
        hold_time=7.0,
        querier_slack=3.0,
        failed_sources=frozenset(),
        faults=FaultPlan(),
    )
    record = {
        "source_ids": list(tree.source_ids),
        "aggregator_ids": list(tree.aggregator_ids),
        "bottom_up": tree.bottom_up_aggregators(),
        "uplink": [[node, receiver, edge.name] for node, (receiver, edge) in planner.uplink.items()],
        "merge_offset": [[aid, offset] for aid, offset in planner.merge_offset.items()],
        "querier_offset": planner.querier_offset,
    }
    return json.dumps(record, separators=(",", ":"))


@pytest.mark.parametrize(("num_sources", "seed"), sorted(KEY_DIGESTS))
def test_seeded_key_bytes_are_pinned(num_sources: int, seed: int) -> None:
    assert _key_digest(num_sources, seed) == KEY_DIGESTS[(num_sources, seed)]


@pytest.mark.parametrize(("num_sources", "key_bytes", "seed"), sorted(NARROW_KEY_DIGESTS))
def test_narrow_key_draws_are_pinned(num_sources: int, key_bytes: int, seed: int) -> None:
    digest = _narrow_key_digest(num_sources, key_bytes, seed)
    assert digest == NARROW_KEY_DIGESTS[(num_sources, key_bytes, seed)]


@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_orders_and_planner_tables_are_pinned(name: str) -> None:
    record = _tree_record(TREES[name]())
    assert hashlib.sha256(record.encode()).hexdigest() == TREE_DIGESTS[name]
