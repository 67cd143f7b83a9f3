"""Rooted ternary trees on dense integer ids, and their subtree sizes.

A tree is stored as an (n, 3) int64 child table padded with -1 and a parent
array, built and validated once by numpy passes, never node by node."""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import chain
from operator import index
from typing import Optional

import numpy as np


class TreeError(ValueError):
    """Structurally invalid tree or bad construction argument."""


class TernaryTree:
    """Rooted tree where every node has at most 3 ordered child slots.

    Node ids are dense integers 0..n-1 (preorder by convention, though any
    dense labeling is accepted). ``children`` lists each node's children in
    slot order, or is an (n, 3) integer table with -1 in the empty slots after
    them. The tree keeps it as ``table`` and each node's parent (-1 for the
    root) as ``parents``, read-only int64 arrays. Trees compare by value,
    unhashable."""

    def __init__(self, children, root: int = 0) -> None:
        if isinstance(children, np.ndarray):
            if not np.can_cast(children.dtype, np.int64):  # no float, uint64, object or str
                raise TreeError("child ids must be integers in 0..n-1")
            table = children.astype(np.int64)
        else:
            ids = list(chain.from_iterable(children))
            if not all(t is not bool and issubclass(t, (int, np.integer)) for t in set(map(type, ids))):
                ids = [None]  # no True, 1.0 or [1]: an object array, refused after the counts
            table = child_table(np.fromiter(map(len, children), np.int64), np.array(ids or np.zeros(0, np.int64)))
        n, root, filled = len(table), index(root), table >= 0
        if n == 0 or table.shape[1:] != (3,) or not 0 <= root < n:
            raise TreeError("a tree needs an (n, 3) child table, n >= 1, and a root in it")
        if (table.min() < -1 or table.max() >= n or np.any(filled[:, 1] & ~filled[:, 0])
                or np.any(filled[:, 2] & ~filled[:, 1])):
            raise TreeError("child ids must be in 0..n-1, then -1 in the empty slots")
        at = np.flatnonzero(filled)
        kids = table.ravel()[at]
        parents = np.full(n, -1)
        parents[kids] = at // 3
        if parents[root] >= 0 or np.count_nonzero(parents >= 0) < len(kids):
            raise TreeError("a node has two parents, or the root is a child")
        # one parent per node but the root: connected unless ancestors cycle
        up = np.where(parents < 0, root, parents)
        for _ in range(n.bit_length()):
            if np.array_equal(jump := up[up], up):
                break
            up = jump
        if len(kids) != n - 1 or np.any(up != root):
            raise TreeError("tree is not connected")
        self.table, self.parents, self.root, self.n = *_frozen(table, parents), root, n

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TernaryTree) and self.root == other.root
                and np.array_equal(self.table, other.table))

    @cached_property
    def size(self) -> np.ndarray:
        """Each node's subtree size, read-only int64."""
        (size,) = self.reduce_subtrees(np.add, np.ones((1, self.n), np.int64))
        return _frozen(size)[0]

    def reduce_subtrees(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over each subtree, for every row of the (k, n) ``values``:
        entry v of a row of the result reduces that row over v's subtree.

        Doubling over ancestors: ``up`` starts as the parents, with n above
        the root, and each pass scatters every row's starting copy onto
        ``up`` and then jumps ``up`` to ``up[up]``. After pass j a node holds
        its descendants fewer than 2^(j + 1) levels down, each once, so
        ``np.add`` counts every node once. The passes stop once every entry
        of ``up`` is n: ceil(log2(depth + 1)) passes. Column n only ever
        receives values, so it never leaks into a real node."""
        n = self.n
        rows = np.zeros((len(values), n + 1), values.dtype)
        rows[:, :n] = values
        up = np.append(self.parents, n)
        up[self.root] = n
        while up.min() < n:
            for row in rows:  # one 1-D ufunc.at per row: numpy's fast path
                ufunc.at(row, up, row.copy())
            up = up[up]
        return rows[:, :n]

    @cached_property
    def complete_height(self) -> Optional[int]:
        """Number of nodes on every root-to-leaf path if the tree is a
        complete ternary tree, else None. Its levels are walked from the
        root: each must be all inner nodes (three children each) until one
        is all leaves, and the levels must hold all n nodes. The walk stops
        at the first level that is neither, so it reads at most
        log3(2n + 1) levels and never the subtree sizes."""
        level, seen, h = np.array([self.root]), 0, 1
        while True:
            seen += len(level)
            rows = self.table.take(level, axis=0)
            if np.all(rows[:, 0] < 0):  # all leaves
                return h if seen == self.n else None
            if np.any(rows[:, 2] < 0):  # a leaf or a node with 1 or 2 children
                return None
            level, h = rows.ravel(), h + 1


def child_table(counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The (n, 3) child table, -1 in its empty slots, of n lists of counts[v]
    ids each, given in order: at most 3 ids per list, each an integer >= 0."""
    if len(counts) and counts.max() > 3:
        raise TreeError(f"node {counts.argmax()} has {counts.max()} children (max 3)")
    if ids.dtype.kind != "i" or np.any(ids < 0):  # no -1 or 2**63
        raise TreeError("child ids must be integers in 0..n-1")
    table = np.full((len(counts), 3), -1)
    table[np.arange(3) < counts[:, None]] = ids
    return table


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def complete_tree(h: int) -> TernaryTree:
    """Complete ternary tree where every root-to-leaf path has h nodes, ids in
    preorder: node v at depth d has children v+1, v+1+s and v+1+2s, where
    s = (3^(h-d-1) - 1) / 2 is the size of each child subtree. T_h is a root
    over copies of T_{h-1} at ids 1, 1+m and 1+2m (m = |T_{h-1}|), so its
    sizes are built from T_{h-1}'s, then its table from the sizes."""
    if not 1 <= h <= 39:  # before 3 ** h: at h = 40 the child table's 3n indices pass int64
        raise TreeError("complete_tree requires 1 <= h <= 39")
    size, m = np.ones(n := (3 ** h - 1) // 2, np.int64), 1
    while m < n:  # [:m] holds T_{j-1}'s sizes
        size[1:1 + 3 * m] = np.tile(size[:m], 3)
        size[0] = m = 3 * m + 1
    inner = np.flatnonzero(size > 1)
    K, parents = np.full((n, 3), -1), np.full(n, -1)
    step = (size[inner] - 1) // 3
    for slot in range(3):
        K[inner, slot] = kids = inner + 1 + slot * step
        parents[kids] = inner
    t = TernaryTree.__new__(TernaryTree)  # a tree by construction: nothing to check
    t.table, t.parents, t.size, t.root, t.n = *_frozen(K, parents, size), 0, len(K)
    t.complete_height = h
    return t


def level_order(t: TernaryTree) -> np.ndarray:
    """A complete tree's ids by level: the root, then each level's children in slot order."""
    levels = [np.array([t.root])]
    while len(levels) < t.complete_height:
        levels.append(t.table[levels[-1]].ravel())
    return np.concatenate(levels)


def random_ternary_tree(n: int, seed: int) -> TernaryTree:
    """Random rooted ternary tree: node i attaches to a uniformly random
    existing node that still has a free child slot (``random.Random(seed)``).

    The open nodes sit in a list, each as the flat table index of its next
    free slot; a full node is swap-removed and the new node appended. The
    index into that list is ``rng.randrange(len)`` drawn inline, as CPython's
    ``_randbelow_with_getrandbits`` draws it: ``getrandbits(len.bit_length())``
    until it is below len, so the trees are those of ``randrange``."""
    if n < 1:
        raise TreeError("random_ternary_tree requires n >= 1")
    getrandbits = random.Random(seed).getrandbits
    table = np.full(3 * n, -1)
    slots = memoryview(table)  # Python-speed item writes into the array
    free, size, bits = [0], 1, 1
    for v in range(1, n):
        i = getrandbits(bits)
        while i >= size:
            i = getrandbits(bits)
        s = free[i]
        slots[s] = v
        if s % 3 == 2:  # full: the last open node moves to i, then v is appended
            free[i] = free[-1]
            free[-1] = 3 * v
        else:
            free[i] = s + 1
            free.append(3 * v)
            size += 1
            bits = size.bit_length()
    return TernaryTree(table.reshape(n, 3))


def tree_to_json(t: TernaryTree) -> dict:
    rows = t.table.tolist()
    for row, k in zip(rows, (t.table >= 0).sum(axis=1).tolist()):
        del row[k:]  # in place: one list per node
    return {"n": t.n, "root": t.root, "children": rows}


def tree_from_json(obj: dict) -> TernaryTree:
    """Parse {"n", "root", "children"}, no other key, or raise TreeError.
    "n" (default: the number of lists) and "root" (default 0) must be JSON
    integers, and every child id a JSON integer in 0..n-1 (-1 is no empty slot)."""
    if not isinstance(obj, dict) or not obj.keys() <= {"n", "root", "children"}:
        raise TreeError('a tree must be a JSON object with no key but "n", "root" and "children"')
    root, children = obj.get("root", 0), obj.get("children")
    if type(children) is not list or not set(map(type, children)) <= {list}:
        raise TreeError("children must be a list of child-id lists")
    if type(root) is not int or type(n := obj.get("n", len(children))) is not int:  # no float, bool or null
        raise TreeError("root and n must be JSON integers")
    if n != len(children):
        raise TreeError("declared node count does not match children table")
    return TernaryTree(children, root)
