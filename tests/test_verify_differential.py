"""build_report's five verdicts and six extents against an independent
oracle, on drawings at the sizes the CLI is run at and on mutants of them.

The oracle is perfbench/check.py's, imported unchanged, written without the
package: ``_tree_levels`` for the tree, ``_lattice_points`` and
``_subtree_boxes_disjoint``. An orthogonal grid drawing is planar exactly
when no two of its nodes and edge-interior lattice points coincide, and
top-visible when none of them lies above the root on its column; their
distinct columns and rows give the extents. Each mutant plants one fault at
a place drawn from a seeded generator, and must show it in the oracle's
verdicts before the two are compared."""

import importlib
from functools import partial
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from ternarydraw.geometry import GridDrawing
from ternarydraw.layout_complete import draw_c1_only, draw_golden
from ternarydraw.layout_general import draw_general
from ternarydraw.tree import random_ternary_tree, tree_to_json
from ternarydraw.verify import build_report

from conftest import min_area_drawing, path_tree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PLANAR, ORTHOGONAL, ON_GRID, TOP_VISIBLE, SEPARATED = range(5)


def staircase_path(n):
    """A path of n nodes drawn down and to the right in steps of 2, so that
    every edge has a lattice point inside it and half the edges are vertical."""
    k = np.arange(n)
    return GridDrawing(path_tree(n), np.stack([2 * ((k + 1) // 2), 2 * (k // 2)], axis=1))


DRAWINGS = {
    "general-200000-1": lambda: draw_general(random_ternary_tree(200_000, 1)),
    "general-200000-2": lambda: draw_general(random_ternary_tree(200_000, 2)),
    "c1-10": lambda: draw_c1_only(10),
    "golden-narrow-10": lambda: draw_golden(10)[0],
    "pareto-min-10": lambda: min_area_drawing(10),
    "path-131073": lambda: staircase_path(2 ** 17 + 1),
}


def distinct(L):
    """No two rows of the (m, 2) array L are equal."""
    key = (L[:, 0] - L[:, 0].min()) * (np.ptp(L[:, 1]) + 1) + (L[:, 1] - L[:, 1].min())
    key.sort()
    return not np.any(key[1:] == key[:-1])


def oracle(check, P, root, tree):
    """The five verdicts, and on an orthogonal grid drawing the extents
    (width, height, left width, right width, top height, bottom height): the
    lattice points' distinct columns and rows, split at the root's."""
    parent, kids, counts, levels = tree
    e = np.flatnonzero(parent >= 0)
    step = P[e] - P[parent[e]]
    on_grid = distinct(P)
    orthogonal = bool(np.all((step[:, 0] == 0) != (step[:, 1] == 0)))
    planar = top = False
    extents = None
    if on_grid and orthogonal:
        L = check._lattice_points(P, parent)
        planar = distinct(L)
        top = not np.any((L[:, 0] == P[root, 0]) & (L[:, 1] < P[root, 1]))
        (x, y), (rx, ry) = (np.unique(c) for c in L.T), P[root]
        extents = (len(x), len(y), int(np.sum(x < rx)), int(np.sum(x > rx)),
                   int(np.sum(y < ry)), int(np.sum(y > ry)))
    # a tree in which no node has two children has no subtrees to separate
    separated = counts.max() < 2 or check._subtree_boxes_disjoint(P, parent, kids, counts, levels)
    return (planar, orthogonal, on_grid, top, bool(separated)), extents


# Each mutant edits P, a copy of the positions, in place. It is given the
# tree as _tree_levels returns it, the generator, and L, the unmutated
# drawing's nodes and edge-interior lattice points. It returns the index of
# the verdict it breaks, or None if the drawing has no place for it.


def leaf_on_an_edge(P, tree, rng, L):
    """A leaf moved strictly inside another edge, at a point on its parent's
    row or column, so that its own edge stays axis-parallel."""
    parent, _, counts, _ = tree
    e = np.flatnonzero(parent >= 0)
    lo, hi = np.minimum(P[e], P[parent[e]]), np.maximum(P[e], P[parent[e]])
    for v in rng.permutation(np.flatnonzero((counts == 0) & (parent >= 0))):
        p = P[parent[v]]
        for k in (0, 1):  # edges along axis k, at a fixed coordinate on axis 1 - k
            j = 1 - k
            along = (lo[:, j] == hi[:, j]) & (hi[:, k] - lo[:, k] > 1) & (e != v)
            on_line = along & (lo[:, j] == p[j])
            across = along & (lo[:, k] < p[k]) & (p[k] < hi[:, k])
            hits = np.flatnonzero(on_line | across)
            if len(hits):
                i = rng.choice(hits)
                P[v, j] = lo[i, j]
                P[v, k] = p[k] if across[i] else rng.integers(lo[i, k] + 1, hi[i, k])
                return PLANAR
    return None


def two_on_one_point(P, tree, rng, L):
    u, v = rng.choice(len(P), 2, replace=False)
    P[v] = P[u]
    return ON_GRID


def sibling_boxes_touching(P, tree, rng, L, nearest_the_root=False):
    """A child's subtree shifted along its edge from the parent until its box
    touches a sibling subtree's box, for a random pair of siblings or one as
    near the root as any (whose boxes are the deepest reductions); None if
    no node has two children."""
    parent, kids, counts, levels = tree
    if counts.max() < 2:
        return None
    depth = np.zeros(len(P), int)
    for d, level in enumerate(levels):
        depth[level] = d
    box = np.concatenate([P, P], axis=1)  # xmin, ymin, xmax, ymax
    for level in reversed(levels[1:]):
        for col, fold in ((0, np.minimum), (1, np.minimum), (2, np.maximum), (3, np.maximum)):
            fold.at(box[:, col], parent[level], box[level, col])
    starts, a, b = np.cumsum(counts) - counts, [], []
    for i, j in permutations(range(3), 2):  # the i-th and j-th child of each node that has both
        owners = np.flatnonzero(counts > max(i, j))
        a.append(kids[starts[owners] + i])
        b.append(kids[starts[owners] + j])
    a, b = np.concatenate(a), np.concatenate(b)
    k = (P[b, 1] != P[parent[b], 1]).astype(int)  # the axis b's edge runs along
    j = 1 - k
    meet = (box[a, j] <= box[b, j + 2]) & (box[b, j] <= box[a, j + 2])
    beyond, before = box[b, k] > box[a, k + 2], box[b, k + 2] < box[a, k]
    hits = np.flatnonzero(meet & (beyond | before))
    if nearest_the_root:
        hits = hits[depth[b[hits]] == depth[b[hits]].min()]
    i = rng.choice(hits)
    shift = box[a[i], k[i] + 2] - box[b[i], k[i]] if beyond[i] else box[a[i], k[i]] - box[b[i], k[i] + 2]
    inside = np.zeros(len(P), bool)
    inside[b[i]] = True
    for level in levels[depth[b[i]] + 1:]:
        inside[level] = inside[parent[level]]
    P[inside, k[i]] += shift
    return SEPARATED


def node_above_the_root(P, tree, rng, L):
    """A leaf moved onto the root's column above the root: onto its parent's
    row when the parent is above the root's row, so that its edge stays
    axis-parallel, else one row above the top."""
    parent, _, counts, levels = tree
    leaves = np.flatnonzero((counts == 0) & (parent >= 0))
    x, y = P[levels[0][0]]
    up = leaves[(P[parent[leaves], 1] < y) & (P[parent[leaves], 0] != x)]
    if len(up):
        v = rng.choice(up)
        P[v] = x, P[parent[v], 1]
    else:
        P[rng.choice(leaves)] = x, P[:, 1].min() - 1
    return TOP_VISIBLE


def leaf_across_an_edge(P, tree, rng, L):
    """A leaf moved along its parent's row or column to the point just past
    an edge across that line, a point no edge or node holds, with no node
    inside its new edge: the two edges cross, and no node lies inside an
    edge, so only the crossing search can see it. None if no leaf can be
    moved so."""
    parent, _, counts, _ = tree
    e = np.flatnonzero(parent >= 0)
    lo, hi = np.minimum(P[e], P[parent[e]]), np.maximum(P[e], P[parent[e]])
    for v in rng.permutation(np.flatnonzero((counts == 0) & (parent >= 0)))[:200]:
        p = P[parent[v]]
        for k in rng.permutation(2):  # the new edge runs along axis k
            j = 1 - k
            across = (lo[:, k] == hi[:, k]) & (lo[:, j] < p[j]) & (p[j] < hi[:, j])
            held = L[(L[:, j] == p[j]) & np.any(L != P[v], axis=1), k]  # v leaves its point
            nodes = P[(P[:, j] == p[j]) & (np.arange(len(P)) != v), k]
            for c in rng.permutation(np.unique(lo[across, k])):
                q = c + np.sign(c - p[k])
                if q not in held and not np.any((min(p[k], q) < nodes) & (nodes < max(p[k], q))):
                    P[v, j], P[v, k] = p[j], q
                    return PLANAR
    return None


MUTANTS = {
    "leaf_on_an_edge": leaf_on_an_edge,
    "leaf_across_an_edge": leaf_across_an_edge,
    "two_on_one_point": two_on_one_point,
    "sibling_boxes_touching": sibling_boxes_touching,
    "sibling_boxes_touching_near_the_root": partial(sibling_boxes_touching, nearest_the_root=True),
    "node_above_the_root": node_above_the_root,
}
# one crossing is found in one block of the crossing search's dyadic split:
# each planting tries another
PLANTINGS = {"leaf_across_an_edge": 5}
# a path has no siblings, and no edge of the staircase crosses another's line
NOT_PLANTED = {"path-131073": ["leaf_across_an_edge", "sibling_boxes_touching",
                               "sibling_boxes_touching_near_the_root"]}


@pytest.mark.parametrize("case", DRAWINGS)
def test_report_matches_the_lattice_oracle_on_drawings_and_mutants(monkeypatch, case):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    check = importlib.import_module("check")
    d = DRAWINGS[case]()
    t = d.tree
    tree = check._tree_levels(tree_to_json(t)["children"], t.root)  # the mutants keep the tree
    rng = np.random.default_rng(list(DRAWINGS).index(case))

    def report(P, extents):
        """build_report's verdicts, and its extents where the oracle has them."""
        r = build_report(GridDrawing(t, P))
        e = r.extents
        return ((r.planar, r.orthogonal, r.on_grid, r.top_visible, r.subtree_separated),
                extents and (e.width, e.height, e.left_width, e.right_width,
                             e.top_height, e.bottom_height))

    expected = oracle(check, d.pos, t.root, tree)
    assert report(d.pos, expected[1]) == expected
    assert expected[0][:4] == (True,) * 4
    L = check._lattice_points(d.pos, tree[0])  # the drawing's nodes and edge interiors
    not_planted = []
    for name, mutant in MUTANTS.items():
        for _ in range(PLANTINGS.get(name, 1)):
            P = d.pos.copy()
            broken = mutant(P, tree, rng, L)
            if broken is None:
                not_planted.append(name)
                break
            expected = oracle(check, P, t.root, tree)
            assert not expected[0][broken], name
            assert report(P, expected[1]) == expected, name
    assert not_planted == NOT_PLANTED.get(case, [])
