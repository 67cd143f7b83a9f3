"""Rooted ternary trees on dense integer ids, subtree statistics, heavy paths."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional


class TreeError(ValueError):
    """Structurally invalid tree or bad construction argument."""


@dataclass(frozen=True)
class TernaryTree:
    """Rooted tree where every node has at most 3 ordered child slots.

    Node ids are dense integers 0..n-1 (preorder by convention, though any
    dense labeling is accepted). ``children[v]`` lists the children of v in
    slot order. Instances are immutable after construction and safe for
    concurrent reads.
    """

    children: tuple[tuple[int, ...], ...]
    root: int = 0

    def __post_init__(self) -> None:
        n = len(self.children)
        if n == 0:
            raise TreeError("tree must have at least one node")
        if not 0 <= self.root < n:
            raise TreeError("root id out of range")
        parent = [-1] * n
        for v, kids in enumerate(self.children):
            if len(kids) > 3:
                raise TreeError(f"node {v} has {len(kids)} children (max 3)")
            for c in kids:
                if not 0 <= int(c) < n:
                    raise TreeError(f"child id {c} out of range")
                if c == self.root or parent[c] != -1:
                    raise TreeError(f"node {c} has two parents or is the root")
                parent[c] = v
        # connectivity: every node must be reachable from the root
        stack = [self.root]
        topo = []
        while stack:
            v = stack.pop()
            topo.append(v)
            stack.extend(self.children[v])
        if len(topo) != n:
            raise TreeError("tree is not connected")
        object.__setattr__(self, "_parent", tuple(parent))
        object.__setattr__(self, "_topo", tuple(topo))

    @property
    def n(self) -> int:
        return len(self.children)

    def parent(self, v: int) -> Optional[int]:
        p = self._parent[v]  # type: ignore[attr-defined]
        return None if p == -1 else p

    def topo_order(self) -> tuple[int, ...]:
        """Nodes in an order where every parent precedes its children."""
        return self._topo  # type: ignore[attr-defined]

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]


@dataclass(frozen=True)
class HeavyOrder:
    """Per-node ordering of child subtrees by non-increasing size.

    ``heaviest[v]`` / ``second[v]`` / ``lightest[v]`` hold child ids or None
    when the node has fewer than 1/2/3 children. Ties broken by smaller
    child-slot index, so the order is deterministic across runs.
    """

    heaviest: tuple[Optional[int], ...]
    second: tuple[Optional[int], ...]
    lightest: tuple[Optional[int], ...]


@lru_cache(maxsize=None)
def complete_tree(h: int) -> TernaryTree:
    """Complete ternary tree where every root-to-leaf path has h nodes, ids in
    preorder: node v at depth d has children v+1, v+1+s and v+1+2s, where
    s = (3^(h-d-1) - 1) / 2 is the size of each child subtree."""
    if h < 1:
        raise TreeError("complete_tree requires h >= 1")
    n = (3 ** h - 1) // 2
    kids = [()] * n
    level = [0]  # the ids at depth d
    for d in range(h - 1):
        s = (3 ** (h - d - 1) - 1) // 2
        for v in level:
            kids[v] = (v + 1, v + 1 + s, v + 1 + 2 * s)
        level = [c for v in level for c in kids[v]]
    return TernaryTree(tuple(kids))


def subtree_sizes(t: TernaryTree) -> list[int]:
    """size[v] = 1 + sum of the children's subtree sizes."""
    size = [1] * t.n
    for v in reversed(t.topo_order()):
        for c in t.children[v]:
            size[v] += size[c]
    return size


def heavy_order(t: TernaryTree, sizes: Optional[list[int]] = None) -> HeavyOrder:
    if sizes is None:
        sizes = subtree_sizes(t)
    heaviest: list[Optional[int]] = [None] * t.n
    second: list[Optional[int]] = [None] * t.n
    lightest: list[Optional[int]] = [None] * t.n
    for v, kids in enumerate(t.children):
        if len(kids) > 1:
            # stable sort, also when reversed: equal sizes keep slot order
            kids = sorted(kids, key=sizes.__getitem__, reverse=True)
            second[v] = kids[1]
            if len(kids) > 2:
                lightest[v] = kids[2]
        if kids:
            heaviest[v] = kids[0]
    return HeavyOrder(tuple(heaviest), tuple(second), tuple(lightest))


def heavy_path(t: TernaryTree, start: int, order: Optional[HeavyOrder] = None) -> list[int]:
    """Path from ``start`` following heaviest-child links down to a leaf."""
    if order is None:
        order = heavy_order(t)
    path = [start]
    v = start
    while order.heaviest[v] is not None:
        v = order.heaviest[v]  # type: ignore[assignment]
        path.append(v)
    return path


def random_ternary_tree(n: int, seed: int) -> TernaryTree:
    """Random rooted ternary tree: node i attaches to a uniformly random
    existing node that still has a free child slot (``random.Random(seed)``).
    """
    if n < 1:
        raise TreeError("random_ternary_tree requires n >= 1")
    rng = random.Random(seed)
    children: list[list[int]] = [[] for _ in range(n)]
    open_nodes = [0]
    for v in range(1, n):
        i = rng.randrange(len(open_nodes))
        u = open_nodes[i]
        children[u].append(v)
        if len(children[u]) == 3:
            open_nodes[i] = open_nodes[-1]
            open_nodes.pop()
        open_nodes.append(v)
    return TernaryTree(tuple(tuple(c) for c in children))


def complete_height(t: TernaryTree) -> Optional[int]:
    """Number of nodes on every root-to-leaf path if t is a complete ternary
    tree, else None."""
    depth = [0] * t.n
    leaf_depth = None
    for v in t.topo_order():
        kids = t.children[v]
        if kids:
            if len(kids) != 3:
                return None
            for c in kids:
                depth[c] = depth[v] + 1
        else:
            if leaf_depth is None:
                leaf_depth = depth[v]
            elif leaf_depth != depth[v]:
                return None
    assert leaf_depth is not None
    return leaf_depth + 1


def is_complete(t: TernaryTree) -> bool:
    return complete_height(t) is not None


def tree_to_json(t: TernaryTree) -> dict:
    return {"n": t.n, "root": t.root, "children": [list(c) for c in t.children]}


def require_json_ints(values, what: str) -> None:
    """Reject, not coerce, floats and bools (which Python counts as ints)."""
    if not all(type(v) is int for v in values):
        raise ValueError(f"{what} must be JSON integers")


def tree_from_json(obj: dict) -> TernaryTree:
    """Parse {"n", "root", "children"}; "n" and "root" are optional."""
    if not isinstance(obj, dict):
        raise TreeError("a tree must be a JSON object")
    children = tuple(tuple(kids) for kids in obj["children"])
    require_json_ints((c for kids in children for c in kids), "child ids")
    n, root = obj.get("n"), obj.get("root", 0)
    require_json_ints([root] if n is None else [root, n], "root and n")
    if n is not None and n != len(children):
        raise TreeError("declared node count does not match children table")
    return TernaryTree(children, root)
