"""Aggregation-tree topologies.

The paper assumes "the sensors are organized into a tree topology, with
the sources being the leaves and the aggregators representing the
internal nodes" (Section III-A), and its experiments use a *complete*
tree of fanout ``F`` over ``N`` sources (Section VI).  Topology
construction/maintenance is declared orthogonal to the scheme, so this
module provides deterministic builders and structural validation but no
routing dynamics.

Node identifiers: sources are ``0 … N-1`` (matching protocol source
ids); aggregators get ids ``N, N+1, …`` assigned bottom-up.

A tree is organised once, as in the paper: :class:`AggregationTree`
validates its node table in one pass plus one walk from the root, and
that walk also records the aggregator post-order — the merge schedule.
The tree keeps its source ids, aggregator ids and post-order, so no
caller re-walks or rescans it, and it must not be mutated after
construction: neither a node's ``parent_id`` nor its ``children`` list.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import NoReturn

from repro.errors import TopologyError
from repro.utils.rng import DeterministicRandom
from repro.utils.validation import check_positive_int

__all__ = [
    "TreeNode",
    "AggregationTree",
    "build_complete_tree",
    "build_random_tree",
    "build_chain_tree",
]


@dataclass
class TreeNode:
    """One vertex of the aggregation tree."""

    node_id: int
    is_source: bool
    parent_id: int | None = None
    children: list[int] = field(default_factory=list)
    #: Distance to parent in meters (for the radio energy model).
    link_distance_m: float = 10.0

    @property
    def is_aggregator(self) -> bool:
        return not self.is_source


class AggregationTree:
    """A validated rooted tree with source leaves and aggregator internals.

    The root aggregator is the *sink* — the only node the querier talks
    to.  Construction validates the structural invariants the protocols
    rely on: exactly one root, every source is a leaf, every aggregator
    has at least one child, no cycles, all nodes reachable from the root.

    Validation is one pass over the node table and one walk from the
    root; the walk also records the aggregator post-order.  The tree
    keeps :attr:`source_ids`, :attr:`aggregator_ids` and that order
    (:meth:`bottom_up_aggregators`), so it must not be mutated after
    construction.
    """

    def __init__(self, nodes: Sequence[TreeNode]) -> None:
        table = {node.node_id: node for node in nodes}
        if len(table) != len(nodes):
            seen: set[int] = set()
            for node in nodes:
                if node.node_id in seen:
                    raise TopologyError(f"duplicate node id {node.node_id}")
                seen.add(node.node_id)
        self._nodes = table
        self._validate()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def root_id(self) -> int:
        return self._root_id

    @property
    def num_sources(self) -> int:
        return len(self._source_ids)

    @property
    def num_aggregators(self) -> int:
        return len(self._aggregator_ids)

    @property
    def source_ids(self) -> tuple[int, ...]:
        """Source ids in ascending order."""
        return self._source_ids

    @property
    def aggregator_ids(self) -> tuple[int, ...]:
        """Aggregator ids in node-table order (built once, at construction)."""
        return self._aggregator_ids

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"no node with id {node_id}") from None

    def children(self, node_id: int) -> tuple[int, ...]:
        return tuple(self.node(node_id).children)

    def parent(self, node_id: int) -> int | None:
        return self.node(node_id).parent_id

    def fanout(self, node_id: int) -> int:
        return len(self.node(node_id).children)

    def max_fanout(self) -> int:
        return max((len(n.children) for n in self._nodes.values()), default=0)

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        best = 0
        stack = [(self._root_id, 0)]
        while stack:
            nid, d = stack.pop()
            best = max(best, d)
            for child in self._nodes[nid].children:
                stack.append((child, d + 1))
        return best

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self._nodes.values())

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def bottom_up_aggregators(self) -> list[int]:
        """Aggregator ids ordered so children always precede parents.

        This is the merge schedule the simulator executes each epoch:
        the post-order from the root, each node's children taken last
        first, recorded once at construction.  Each call returns a fresh
        list.
        """
        return list(self._bottom_up)

    def leaves_under(self, node_id: int) -> list[int]:
        """Source ids in the subtree rooted at *node_id*."""
        sources: list[int] = []
        stack = [node_id]
        while stack:
            nid = stack.pop()
            node = self._nodes[nid]
            if node.is_source:
                sources.append(nid)
            else:
                stack.extend(node.children)
        return sources

    def path_to_root(self, node_id: int) -> list[int]:
        """Node ids from *node_id* up to (and including) the root."""
        path = [node_id]
        current = self.node(node_id)
        while current.parent_id is not None:
            path.append(current.parent_id)
            current = self.node(current.parent_id)
        return path

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        """One pass over the node table, then one walk from the root.

        The walk checks every node it reaches (a source is a leaf, an
        aggregator has children, each child exists and points back) and
        records the pre-order with children taken first to last; its
        reverse is the post-order with children taken last to first,
        the merge schedule.  A tree is valid iff the walk reaches every
        node once and flags nothing.  Otherwise :func:`_raise_fault`
        runs the checks one by one and raises the first that fails, so
        the message and its precedence do not depend on the walk.
        """
        table = self._nodes
        roots: list[int] = []
        aggregators: list[int] = []
        for nid, node in table.items():
            if node.parent_id is None:
                roots.append(nid)
            if not node.is_source:
                aggregators.append(nid)
        if len(roots) != 1:
            _raise_fault(table)
        root_id = roots[0]
        root = table[root_id]
        sources: list[int] = []
        preorder: list[int] = []
        if root.is_source:
            if len(table) > 1 or root.children:
                _raise_fault(table)
            sources.append(root_id)
        else:
            limit = len(aggregators)
            stack = [root]
            while stack:
                node = stack.pop()
                nid = node.node_id
                children = node.children
                preorder.append(nid)
                if not children or len(preorder) > limit:
                    _raise_fault(table)  # childless, or reached twice
                for child_id in reversed(children):
                    child = table.get(child_id)
                    if child is None or child.parent_id != nid:
                        _raise_fault(table)
                    if not child.is_source:
                        stack.append(child)
                    elif child.children:
                        _raise_fault(table)
                    else:
                        sources.append(child_id)
        reached = len(preorder) + len(sources)
        if reached != len(table) or len(set(preorder).union(sources)) != reached:
            _raise_fault(table)
        self._root_id = root_id
        self._source_ids = tuple(sorted(sources))
        self._aggregator_ids = tuple(aggregators)
        preorder.reverse()
        self._bottom_up = tuple(preorder)


def _raise_fault(table: dict[int, TreeNode]) -> NoReturn:
    """Raise the first structural fault of *table*, in check order.

    Empty tree, root count, a source as root; then per node in table
    order: a source with children, a childless aggregator, a missing
    child, a child that does not point back; then a cycle, then nodes
    unreachable from the root.
    """
    if not table:
        raise TopologyError("tree has no nodes")
    roots = [n.node_id for n in table.values() if n.parent_id is None]
    if len(roots) != 1:
        raise TopologyError(f"tree must have exactly one root, found {len(roots)}")
    root_id = roots[0]
    if table[root_id].is_source:
        if len(table) > 1:
            raise TopologyError("root must be an aggregator in multi-node trees")

    for node in table.values():
        if node.is_source and node.children:
            raise TopologyError(f"source {node.node_id} must be a leaf")
        if node.is_aggregator and not node.children:
            raise TopologyError(f"aggregator {node.node_id} has no children")
        for child in node.children:
            if child not in table:
                raise TopologyError(f"node {node.node_id} references missing child {child}")
            if table[child].parent_id != node.node_id:
                raise TopologyError(
                    f"child {child} does not point back to parent {node.node_id}"
                )

    # Reachability / acyclicity: BFS from root must visit all nodes once.
    seen: set[int] = set()
    queue = [root_id]
    while queue:
        nid = queue.pop()
        if nid in seen:
            raise TopologyError(f"cycle detected at node {nid}")
        seen.add(nid)
        queue.extend(table[nid].children)
    orphans = sorted(set(table) - seen)
    # Every fault the one-pass validation flags fails one check above.
    raise TopologyError(f"nodes unreachable from root: {orphans[:5]}")


def build_complete_tree(
    num_sources: int, fanout: int, *, link_distance_m: float = 10.0
) -> AggregationTree:
    """The paper's experimental topology: an (as-)complete fanout-``F`` tree.

    Sources ``0 … N-1`` form the leaf level; aggregators are created
    level by level, grouping up to ``F`` nodes under each parent, until a
    single root (the sink) remains.  When ``N`` is a power of ``F`` this
    is the complete F-ary tree of the paper; otherwise the last parent of
    each level takes the remainder.
    """
    check_positive_int("num_sources", num_sources)
    check_positive_int("fanout", fanout)
    if fanout < 2 and num_sources > 1:
        raise TopologyError("fanout must be at least 2 for multi-source trees")

    # Group each level's ids, bottom-up, until one root remains (even a
    # single source reports through one aggregator, the sink); aggregator
    # ``N + k`` takes group ``k``.  The groups cover ids ``0 … root-1`` in
    # order, which gives every parent id; then each node is built once.
    groups: list[list[int]] = []
    first, end = 0, num_sources
    while not groups or end - first > 1:
        level = list(range(first, end))
        groups += [level[start : start + fanout] for start in range(0, len(level), fanout)]
        first, end = end, num_sources + len(groups)
    parents: list[int | None] = [
        parent for parent, group in enumerate(groups, num_sources) for _ in group
    ]
    parents.append(None)  # the root
    nodes = [TreeNode(i, True, parents[i], [], link_distance_m) for i in range(num_sources)]
    nodes += [
        TreeNode(aggregator_id, False, parents[aggregator_id], group, link_distance_m)
        for aggregator_id, group in enumerate(groups, num_sources)
    ]
    return AggregationTree(nodes)


def build_chain_tree(num_sources: int, *, link_distance_m: float = 10.0) -> AggregationTree:
    """The deepest legal topology: a chain of aggregators.

    Aggregator ``i`` has two children — source ``i`` and aggregator
    ``i+1`` — except the deepest, which holds the last source alone.
    Depth is ``num_sources``, the worst case for multi-hop effects;
    used to stress-test depth-independence of the protocols (SIES PSRs
    stay 32 bytes no matter how deep the merge chain is).
    """
    check_positive_int("num_sources", num_sources)
    if num_sources == 1:
        return build_complete_tree(1, 2, link_distance_m=link_distance_m)
    nodes: dict[int, TreeNode] = {
        i: TreeNode(node_id=i, is_source=True, link_distance_m=link_distance_m)
        for i in range(num_sources)
    }
    first_aggregator = num_sources
    for depth in range(num_sources - 1):
        aggregator_id = first_aggregator + depth
        source_child = depth
        children = [source_child]
        if depth < num_sources - 2:
            children.append(aggregator_id + 1)
        else:
            children.append(num_sources - 1)  # deepest aggregator takes 2 sources
            nodes[num_sources - 1].parent_id = aggregator_id
        nodes[source_child].parent_id = aggregator_id
        nodes[aggregator_id] = TreeNode(
            node_id=aggregator_id,
            is_source=False,
            parent_id=aggregator_id - 1 if depth > 0 else None,
            children=children,
            link_distance_m=link_distance_m,
        )
    return AggregationTree(list(nodes.values()))


def build_random_tree(
    num_sources: int,
    *,
    max_fanout: int = 4,
    seed: int = 0,
    link_distance_m: float = 10.0,
) -> AggregationTree:
    """A random aggregation tree (the paper allows arbitrary topologies).

    Builds bottom-up like :func:`build_complete_tree` but with random
    group sizes in ``[2, max_fanout]``, producing irregular trees for
    robustness tests.
    """
    check_positive_int("num_sources", num_sources)
    if max_fanout < 2:
        raise TopologyError("max_fanout must be at least 2")
    rng = DeterministicRandom(seed, "random-tree")

    nodes: dict[int, TreeNode] = {
        i: TreeNode(node_id=i, is_source=True, link_distance_m=link_distance_m)
        for i in range(num_sources)
    }
    next_id = num_sources
    level = list(range(num_sources))
    rng.shuffle(level)
    if num_sources == 1:
        return build_complete_tree(1, max_fanout, link_distance_m=link_distance_m)

    while len(level) > 1:
        parents: list[int] = []
        index = 0
        while index < len(level):
            size = rng.randint(2, max_fanout)
            group = level[index : index + size]
            if len(group) == 1 and parents:
                # Attach a lone leftover to the previous parent instead of
                # creating a single-child aggregator chain.
                nodes[parents[-1]].children.append(group[0])
                nodes[group[0]].parent_id = parents[-1]
                index += size
                continue
            parent = TreeNode(node_id=next_id, is_source=False, link_distance_m=link_distance_m)
            parent.children = list(group)
            for child in group:
                nodes[child].parent_id = next_id
            nodes[next_id] = parent
            parents.append(next_id)
            next_id += 1
            index += size
        level = parents
    return AggregationTree(list(nodes.values()))
