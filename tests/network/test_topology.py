"""Aggregation-tree construction and validation."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.network.topology import (
    AggregationTree,
    TreeNode,
    build_chain_tree,
    build_complete_tree,
    build_random_tree,
)


def test_complete_tree_paper_defaults() -> None:
    tree = build_complete_tree(1024, 4)
    assert tree.num_sources == 1024
    assert tree.source_ids == tuple(range(1024))
    assert tree.depth() == 5  # 4^5 = 1024
    # every aggregator has exactly 4 children in the perfect case
    assert all(tree.fanout(a) == 4 for a in tree.aggregator_ids)
    assert tree.num_aggregators == 256 + 64 + 16 + 4 + 1


@pytest.mark.parametrize("n,f", [(1, 4), (2, 2), (5, 2), (7, 3), (100, 4), (64, 6)])
def test_complete_tree_arbitrary_sizes(n: int, f: int) -> None:
    tree = build_complete_tree(n, f)
    assert tree.num_sources == n
    assert all(tree.node(s).is_source for s in tree.source_ids)
    assert not tree.node(tree.root_id).is_source or n == 0
    assert all(1 <= tree.fanout(a) <= f for a in tree.aggregator_ids)
    assert sorted(tree.leaves_under(tree.root_id)) == list(range(n))


def test_single_source_still_has_a_sink() -> None:
    tree = build_complete_tree(1, 4)
    assert tree.num_sources == 1
    assert tree.num_aggregators == 1
    assert tree.parent(0) == tree.root_id


def test_bottom_up_order_children_before_parents() -> None:
    tree = build_complete_tree(64, 4)
    order = tree.bottom_up_aggregators()
    position = {aid: i for i, aid in enumerate(order)}
    for aid in tree.aggregator_ids:
        for child in tree.children(aid):
            if tree.node(child).is_aggregator:
                assert position[child] < position[aid]
    assert order[-1] == tree.root_id
    assert len(order) == tree.num_aggregators


def test_path_to_root() -> None:
    tree = build_complete_tree(16, 4)
    path = tree.path_to_root(0)
    assert path[0] == 0 and path[-1] == tree.root_id
    assert len(path) == tree.depth() + 1


def test_leaves_under_partitions_sources() -> None:
    tree = build_complete_tree(16, 4)
    children = tree.children(tree.root_id)
    all_leaves = sorted(leaf for c in children for leaf in tree.leaves_under(c))
    assert all_leaves == list(range(16))


def test_random_tree_valid_and_deterministic() -> None:
    t1 = build_random_tree(50, max_fanout=5, seed=3)
    t2 = build_random_tree(50, max_fanout=5, seed=3)
    assert t1.num_sources == 50
    assert [t1.parent(i) for i in range(50)] == [t2.parent(i) for i in range(50)]
    t3 = build_random_tree(50, max_fanout=5, seed=4)
    assert [t1.parent(i) for i in range(50)] != [t3.parent(i) for i in range(50)]


def test_random_tree_respects_max_fanout_loosely() -> None:
    tree = build_random_tree(200, max_fanout=4, seed=9)
    # the lone-leftover rule may push one group to max_fanout + 1
    assert all(tree.fanout(a) <= 5 for a in tree.aggregator_ids)
    assert sorted(tree.leaves_under(tree.root_id)) == list(range(200))


# ----------------------------------------------------------------------
# Structural validation
# ----------------------------------------------------------------------


def _node(nid, is_source, parent, children=()):
    return TreeNode(node_id=nid, is_source=is_source, parent_id=parent, children=list(children))


def test_rejects_duplicate_ids() -> None:
    with pytest.raises(TopologyError, match="duplicate"):
        AggregationTree([_node(0, True, 1), _node(0, True, 1), _node(1, False, None, [0])])


def test_rejects_multiple_roots() -> None:
    with pytest.raises(TopologyError, match="root"):
        AggregationTree([_node(0, False, None, [1]), _node(1, True, 0), _node(2, False, None, [3]), _node(3, True, 2)])


def test_rejects_source_with_children() -> None:
    with pytest.raises(TopologyError, match="leaf"):
        AggregationTree([_node(2, False, None, [0]), _node(0, True, 2, [1]), _node(1, True, 0)])


def test_rejects_childless_aggregator() -> None:
    with pytest.raises(TopologyError, match="no children"):
        AggregationTree([_node(0, False, None, [1]), _node(1, False, 0)])


def test_rejects_dangling_child_reference() -> None:
    with pytest.raises(TopologyError, match="missing child"):
        AggregationTree([_node(0, False, None, [1, 9]), _node(1, True, 0)])


def test_rejects_parent_pointer_mismatch() -> None:
    nodes = [_node(0, False, None, [1]), _node(1, True, 5)]
    with pytest.raises(TopologyError):
        AggregationTree(nodes)


def test_rejects_unreachable_nodes() -> None:
    nodes = [
        _node(0, False, None, [1]),
        _node(1, True, 0),
        _node(2, True, 3),
        _node(3, False, 2, [2]),  # cycle island: 2 <-> 3
    ]
    with pytest.raises(TopologyError):
        AggregationTree(nodes)


def test_node_lookup_errors() -> None:
    tree = build_complete_tree(4, 2)
    with pytest.raises(TopologyError):
        tree.node(999)


def test_iteration_and_len() -> None:
    tree = build_complete_tree(8, 2)
    assert len(tree) == 8 + tree.num_aggregators
    assert {n.node_id for n in tree} == set(range(len(tree)))
    assert tree.max_fanout() == 2


# ----------------------------------------------------------------------
# Orders kept at construction
# ----------------------------------------------------------------------


def _reference_post_order(tree: AggregationTree) -> list[int]:
    """The merge schedule as an iterative post-order from the root, walked on every call."""
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(tree.root_id, False)]
    while stack:
        nid, expanded = stack.pop()
        node = tree.node(nid)
        if node.is_source:
            continue
        if expanded:
            order.append(nid)
        else:
            stack.append((nid, True))
            for child in node.children:
                stack.append((child, False))
    return order


TREE_SHAPES = [
    *(
        ("complete", n, f, 0)
        for n, f in [(1, 4), (2, 2), (5, 2), (7, 3), (64, 4), (100, 4), (1024, 4), (300, 7)]
    ),
    *(("chain", n, 2, 0) for n in (1, 2, 3, 12, 40)),
    *(("random", n, f, seed) for n in (2, 17, 200) for f in (2, 3, 5) for seed in (0, 1, 9)),
]


def _shape(kind: str, n: int, f: int, seed: int) -> AggregationTree:
    if kind == "complete":
        return build_complete_tree(n, f)
    if kind == "chain":
        return build_chain_tree(n)
    return build_random_tree(n, max_fanout=f, seed=seed)


@pytest.mark.parametrize(("kind", "n", "f", "seed"), TREE_SHAPES)
def test_kept_post_order_is_the_reference_walk(kind: str, n: int, f: int, seed: int) -> None:
    tree = _shape(kind, n, f, seed)
    assert tree.bottom_up_aggregators() == _reference_post_order(tree)
    assert tree.aggregator_ids == tuple(node.node_id for node in tree if node.is_aggregator)
    assert tree.source_ids == tuple(sorted(node.node_id for node in tree if node.is_source))
    assert tree.num_aggregators == len(tree.aggregator_ids)


def test_each_call_returns_a_fresh_list() -> None:
    tree = build_complete_tree(64, 4)
    first = tree.bottom_up_aggregators()
    second = tree.bottom_up_aggregators()
    assert first == second and first is not second
    first.reverse()
    first.append(-1)
    assert tree.bottom_up_aggregators() == second


def test_aggregator_ids_is_built_once() -> None:
    tree = build_random_tree(50, max_fanout=4, seed=2)
    assert tree.aggregator_ids is tree.aggregator_ids
    assert tree.source_ids is tree.source_ids


def _fault_nodes(*specs):
    return [_node(*spec) for spec in specs]


#: Trees with two faults each, and the message of the one that wins: the
#: empty tree, the root count and a source root first; then, node by node
#: in table order, a source with children, a childless aggregator, a
#: missing child and a child that does not point back; then a cycle, then
#: unreachable nodes.
TWO_FAULTS = {
    "duplicate-and-two-roots": (
        [(0, True, 1), (0, True, None), (1, False, None, [0])],
        "duplicate node id 0",
    ),
    "two-roots-and-leaf-with-children": (
        [(0, False, None, [1]), (1, True, 0, [2]), (2, True, 1), (3, False, None)],
        "tree must have exactly one root, found 2",
    ),
    "source-root-and-childless-aggregator": (
        [(0, True, None), (1, False, 0)],
        "root must be an aggregator in multi-node trees",
    ),
    "missing-child-before-leaf-with-children": (
        [(2, False, None, [0, 7]), (0, True, 2, [1]), (1, True, 0)],
        "node 2 references missing child 7",
    ),
    "leaf-with-children-before-missing-child": (
        [(0, True, 2, [1]), (2, False, None, [0, 7]), (1, True, 0)],
        "source 0 must be a leaf",
    ),
    "back-pointer-before-missing-child": (
        [(0, False, None, [1, 2]), (1, True, 5), (2, False, 0, [9])],
        "child 1 does not point back to parent 0",
    ),
    "missing-child-before-back-pointer-child": (
        [(0, False, None, [9, 1]), (1, True, 5)],
        "node 0 references missing child 9",
    ),
    "cycle-and-unreachable": (
        [(0, False, None, [1, 1]), (1, True, 0), (2, True, 3), (3, False, 2, [2])],
        "cycle detected at node 1",
    ),
    "unreachable-childless-and-duplicate-child": (
        [(0, False, None, [1, 1]), (1, True, 0), (4, False, 0)],
        "aggregator 4 has no children",
    ),
    "unreachable-leaf-with-children": (
        [(0, False, None, [1]), (1, True, 0), (5, True, 0, [1])],
        "source 5 must be a leaf",
    ),
    "duplicate-child-and-unreachable": (
        [(0, False, None, [1, 1]), (1, True, 0), (2, True, 0)],
        "cycle detected at node 1",
    ),
    "aggregator-reached-twice-and-unreachable": (
        [
            (0, False, None, [1]),
            (1, False, 0, [2, 2]),
            (2, False, 1, [3]),
            (3, True, 2),
            (4, True, 1),
        ],
        "cycle detected at node 2",
    ),
    "root-as-child-and-unreachable": (
        [(0, False, None, [1]), (1, False, 0, [0]), (2, True, 7)],
        "child 0 does not point back to parent 1",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_the_first_fault_in_check_order_is_raised(case: str) -> None:
    specs, message = TWO_FAULTS[case]
    with pytest.raises(TopologyError) as raised:
        AggregationTree(_fault_nodes(*specs))
    assert str(raised.value) == message


def test_an_empty_tree_is_rejected() -> None:
    with pytest.raises(TopologyError, match="tree has no nodes"):
        AggregationTree([])
