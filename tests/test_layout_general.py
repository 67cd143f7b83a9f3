import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import caterpillar_tree, path_tree
from ternarydraw import cli, layout_general
from ternarydraw.geometry import GridDrawing, extents
from ternarydraw.layout_general import draw_general, frame_stats, heavy_paths, max_rows
from ternarydraw.tree import TernaryTree, complete_tree, random_ternary_tree
from ternarydraw.verify import (check_on_grid, check_orthogonal, check_planar,
                                check_top_visibility)


def assert_drawing_ok(t):
    d = draw_general(t)
    assert check_on_grid(d) and check_orthogonal(d)
    assert check_planar(d)
    assert check_top_visibility(d)
    e = extents(d)
    assert e.width <= t.n
    assert e.height <= max_rows(t.n)
    return d, e


def test_params_validation():
    assert layout_general.P == 9.956
    assert 0.5 < layout_general.C < 1
    assert abs(layout_general.C - 0.576) < 1e-3  # the exponent is quoted rounded up
    assert [max_rows(n) for n in (1, 2, 3, 1000)] == [1, 1, 2, 105]


def test_single_node():
    d, e = assert_drawing_ok(complete_tree(1))
    assert (e.width, e.height) == (1, 1)


def test_path_draws_on_one_row():
    for n in (2, 3, 17, 200):
        d, e = assert_drawing_ok(path_tree(n))
        assert (e.width, e.height) == (n, 1)


def test_path_turn_index_undefined():
    d = decompose(path_tree(12))
    assert d.x is None
    assert d.Q == ()
    assert len(d.P) == 12
    assert not d.top and not d.bottom


def test_complete_tree_turns_immediately():
    d = decompose(complete_tree(4))
    assert d.x == 1
    assert d.P == ()


def _sized_example():
    """Root with subtrees of 30/3/2 nodes; the heavy child splits 10/10/9."""
    children = [[] for _ in range(36)]

    def chain(start, length):
        for i in range(start, start + length - 1):
            children[i].append(i + 1)

    children[0] = [1, 31, 34]
    children[1] = [2, 12, 22]
    chain(2, 10)
    chain(12, 10)
    chain(22, 9)
    chain(31, 3)
    chain(34, 2)
    return TernaryTree(tuple(tuple(c) for c in children))


def test_turn_index_two():
    t = _sized_example()
    d = decompose(t)
    assert d.x == 2
    # the root's second-heaviest and lightest subtrees both run along the
    # upper rail, so the root keeps a free column above and below itself
    assert d.P[len(d.rho)] == t.root
    assert t.root not in d.top and t.root not in d.bottom
    assert_drawing_ok(t)


def test_single_node_has_no_frames():
    assert len(frame_stats(complete_tree(1)).m) == 0


def test_rails_are_tree_paths():
    t = random_ternary_tree(400, 3)
    d = decompose(t)
    for rail in (d.P, d.Q):
        for u, v in zip(rail, rail[1:]):
            assert t.parents[v] == u or t.parents[u] == v


def test_stats_on_path_are_zero():
    s = frame_stats(path_tree(9))
    assert [x.tolist() for x in s] == [[0], [0], [9], [0], [0], [0], [0]]


def test_stats_absent_for_small_turn_index():
    s = frame_stats(complete_tree(4))
    assert s.a[0] == s.b[0] == -1
    s = frame_stats(_sized_example())
    assert s.a[0] == s.b[0] == -1


def test_stats_inequalities_complete_tree():
    s = frame_stats(complete_tree(5))
    p, g = 9.956, s.a >= 0  # the frames with a general P part
    m = s.m[g]
    assert np.all(s.a[g] < m / p) and np.all(s.b[g] < m / p)
    assert np.all(s.s[g] <= (m - s.a[g] - s.b[g]) / 3)
    assert np.all(s.r + s.s <= 2 * (p - 1) * s.m / (3 * p))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.integers(0, 10 ** 6))
def test_random_trees_draw_and_bound(n, seed):
    assert_drawing_ok(random_ternary_tree(n, seed))


def test_promise_holds_on_larger_trees():
    """Planar, orthogonal and top-visible, at most n columns and at most
    floor(2 n^c - 1) rows."""
    trees = [random_ternary_tree(n, seed) for n in (2000, 20000) for seed in (1, 2, 3)]
    for t in (*trees, complete_tree(7)):
        assert_drawing_ok(t)


@pytest.mark.parametrize("p", [4.2, 5, 30])
def test_promise_holds_at_other_p_on_larger_trees(p):
    """The promise at a p other than the library's 9.956, on the test-side
    oracle layout, which keeps its own p: planar, orthogonal and top-visible,
    at most n columns and at most floor(2 n^c - 1) rows, with the c of this p."""
    c = 1 / math.log2(3 / (1 - 1 / p))
    trees = [random_ternary_tree(n, seed) for n in (2000, 20000) for seed in (1, 2, 3)]
    for t in (*trees, complete_tree(7)):
        d = GridDrawing(t, oracle_positions(t, p))
        assert check_on_grid(d) and check_orthogonal(d)
        assert check_planar(d)
        assert check_top_visibility(d)
        e = extents(d)
        assert e.width <= t.n
        assert e.height <= max(1, math.floor(2 * t.n ** c - 1))


def test_caterpillars():
    for spine in (1, 2, 10, 80):
        assert_drawing_ok(caterpillar_tree(spine))


def test_determinism():
    t = random_ternary_tree(500, 11)
    assert draw_general(t) == draw_general(t)


def test_complete_h3_height_bound():
    _, e = assert_drawing_ok(complete_tree(3))
    assert e.height <= 7


def test_all_decompositions_cover_tree():
    t = random_ternary_tree(300, 4)
    covered = set()
    for dec in batched_decompositions(t):
        covered.update(dec.P)
        covered.update(dec.Q)
    leaves = set(np.flatnonzero(t.table[:, 0] < 0).tolist())
    assert covered | leaves == set(range(t.n))


# The per-frame views of the decompositions, as lists, tuples and dicts of
# node ids: the batched levels read into them, and the per-root
# decomposition the batched one replaced, which walks each heavy path node
# by node. They are the oracle for every field of every decomposition and
# for frame_stats, and the recursive layout oracle below decomposes with the
# per-root one.

@dataclass
class RailDecomposition:
    """Rails and attachments for one recursion level rooted at ``root``.

    ``x`` is the turn index (None when the heavy path never turns down).
    ``top``/``bottom`` map a rail node to the root of its attached subtree;
    top subtrees are drawn rotated 180° above the rail, bottom subtrees
    upright below it.
    """

    root: int
    n: int
    x: Optional[int]
    pi: tuple[int, ...]
    rho: tuple[int, ...] = ()
    sigma: tuple[int, ...] = ()
    tau: tuple[int, ...] = ()
    P: tuple[int, ...] = ()
    Q: tuple[int, ...] = ()
    top: dict[int, int] = field(default_factory=dict)
    bottom: dict[int, int] = field(default_factory=dict)


def rail_decompositions(t, level):
    """One batched level's decompositions, as RailDecompositions."""
    (_, start, length, hp), size = heavy_paths(t), t.size

    def path(v):
        return () if v < 0 else tuple(hp[start[v]:start[v] + length[v]].tolist())

    top, bottom = [{} for _ in level.roots], [{} for _ in level.roots]
    frame_of = np.searchsorted(level.offs, level.at, side="right") - 1
    for f, v, c, s in zip(frame_of.tolist(), level.rail[level.at].tolist(),
                          level.sub.tolist(), level.sign.tolist()):
        (top if s < 0 else bottom)[f][v] = c
    rail, offs, kP = level.rail.tolist(), level.offs.tolist(), level.kP.tolist()
    for f, (r, k, turn, ends) in enumerate(zip(level.roots.tolist(), level.k.tolist(),
                                               level.turn.tolist(), level.ends.tolist())):
        P = offs[f] + kP[f]
        yield RailDecomposition(r, int(size[r]), turn + 1 if turn < k else None, path(r),
                                *map(path, ends), tuple(rail[offs[f]:P]),
                                tuple(rail[P:offs[f + 1]]), top[f], bottom[f])


def batched_decompositions(t):
    """Every decomposition the layout performs, top-down, read from its
    batched levels."""
    for level in layout_general._levels(t):
        yield from rail_decompositions(t, level)


def decompose(t):
    """The decomposition of the root frame."""
    return next(batched_decompositions(t))


def decomposition_stats(d, t):
    """Attachment-size maxima (a, b, r, s) of ``d``, a decomposition of the
    tree ``t``: a/b over top/bottom subtrees of P, r/s over those of Q; a and
    b are None when x < 3."""
    sizes, p_set = t.size, set(d.P)

    def attach_max(mapping, on_p):
        vals = [c for v, c in mapping.items() if (v in p_set) == on_p]
        return int(sizes[vals].max(initial=0))

    general = d.x is None or d.x >= 3
    a = attach_max(d.top, True) if general else None
    b = attach_max(d.bottom, True) if general else None
    return a, b, attach_max(d.top, False), attach_max(d.bottom, False)


def oracle_heavy_path(order, start):
    path = [start]
    while order[path[-1]][0] >= 0:
        path.append(order[path[-1]][0])
    return path


def _turn_index(pi, sizes, order, threshold):
    """Smallest 1-based i such that pi_i has at least two subtrees with at
    least ``threshold`` nodes each, that is, its second-heaviest has."""
    for i, v in enumerate(pi, start=1):
        c = order[v][1]
        if c >= 0 and sizes[c] >= threshold:
            return i
    return None


def _decompose(t, root, sizes, order, p):
    n = sizes[root]
    pi = tuple(oracle_heavy_path(order, root))
    x = _turn_index(pi, sizes, order, n / p)
    k = len(pi)

    def hp_of(child):
        return () if child < 0 else tuple(oracle_heavy_path(order, child))

    rho = sigma = tau = ()
    exception = None  # rail node whose lightest subtree goes top

    if x == 1:
        tau = hp_of(order[pi[0]][1])
        P = ()
        Q = tuple(reversed(pi)) + tau
    elif x == 2:
        # the root plays both ends of P: its lightest subtree takes the
        # leftward rail slot the second-heaviest normally gets, while the
        # second-heaviest runs straight to the right
        rho = hp_of(order[pi[0]][2])
        sigma = hp_of(order[pi[0]][1])
        P = tuple(reversed(rho)) + (pi[0],) + sigma
        tau = hp_of(order[pi[1]][1])
        Q = tuple(reversed(pi[1:])) + tau
    else:
        x_eff = k + 1 if x is None else x
        rho = hp_of(order[pi[0]][1])
        sigma = hp_of(order[pi[x_eff - 2]][1])
        P = tuple(reversed(rho)) + pi[: x_eff - 1] + sigma
        if x is not None:
            tau = hp_of(order[pi[x_eff - 1]][1])
            Q = tuple(reversed(pi[x_eff - 1:])) + tau
            exception = pi[x_eff - 2]
        else:
            Q = ()

    rail = set(P) | set(Q)
    top = {}
    bottom = {}
    for v in rail:  # a rail node has at most one top and one bottom child
        for c in order[v]:
            if c < 0 or c in rail:
                continue
            if c == order[v][2] and v != exception:
                bottom[v] = c
            else:
                top[v] = c
    return RailDecomposition(root, n, x, pi, rho, sigma, tau, P, Q, top, bottom)




def oracle_decompositions(t):
    """Every decomposition of the layout recursion by its root, and each
    root's frame level."""
    sizes, order = t.size.tolist(), heavy_paths(t)[0].tolist()
    found, level, stack = {}, {}, [(t.root, 0)]
    while stack:
        v, i = stack.pop()
        if order[v][0] >= 0:  # not a leaf
            found[v] = d = _decompose(t, v, sizes, order, 9.956)
            level[v] = i
            stack.extend((c, i + 1) for c in (*d.top.values(), *d.bottom.values()))
    return found, level


FIELDS = ("n", "x", "pi", "rho", "sigma", "tau", "P", "Q", "top", "bottom")


def assert_decompositions_match_oracle(t):
    oracle, level = oracle_decompositions(t)
    got = list(batched_decompositions(t))
    assert sorted(d.root for d in got) == sorted(oracle)
    for d in got:
        for name in FIELDS:
            assert getattr(d, name) == getattr(oracle[d.root], name), (d.root, name)
    stats = frame_stats(t)
    assert all(x.dtype == np.int64 for x in stats)
    assert stats.root.tolist() == [d.root for d in got]
    for root, *row in zip(*(x.tolist() for x in stats)):
        a, b, r, s = decomposition_stats(oracle[root], t)
        want = [level[root], oracle[root].n, -1 if a is None else a, -1 if b is None else b, r, s]
        assert row == want, root


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10 ** 6))
def test_batched_decompositions_match_oracle(n, seed):
    assert_decompositions_match_oracle(random_ternary_tree(n, seed))


def test_batched_decompositions_match_oracle_on_paths_caterpillars_complete_trees():
    for n in (1, 2, 3, 17, 200):
        assert_decompositions_match_oracle(path_tree(n))
    for spine in (1, 2, 10, 80):
        assert_decompositions_match_oracle(caterpillar_tree(spine))
    for h in range(1, 8):
        assert_decompositions_match_oracle(complete_tree(h))
    assert_decompositions_match_oracle(_sized_example())  # x = 2


def _two_path_example(second):
    """A root over a path of 2488 - second nodes and one of second nodes:
    2489 nodes, and 2489 / 9.956 is exactly 250.0 in floats."""
    heavy = 2488 - second
    children = [[1, 1 + heavy]] + [[v + 1] for v in range(1, 2488)] + [[]]
    children[heavy] = children[2488] = []  # the two paths' last nodes
    return TernaryTree(tuple(tuple(c) for c in children))


@pytest.mark.parametrize("second, x", [(250, 1), (249, None)])
def test_turn_index_threshold_is_inclusive(second, x):
    # the root's second-heaviest subtree turns the path when it has n/p
    # nodes or more: 250 >= 250.0 turns at once, 249 never turns
    t = _two_path_example(second)
    assert t.n == 2489 and 2489 / 9.956 == 250.0
    assert decompose(t).x == x
    assert_decompositions_match_oracle(t)


def relabeled(t, perm):
    """t with each node v renamed perm[v]."""
    table = np.full((t.n, 3), -1)
    table[perm] = np.where(t.table >= 0, perm[t.table], -1)
    return TernaryTree(table, int(perm[t.root]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.integers(0, 10 ** 6), st.randoms(use_true_random=False))
def test_relabeled_trees_with_nonzero_root_draw_the_same(n, seed, rnd):
    t = random_ternary_tree(n, seed)
    perm = np.array(rnd.sample(range(n), n))
    if perm[0] == 0:
        perm = np.roll(perm, 1)
    u = relabeled(t, perm)
    assert u.root != 0
    assert np.array_equal(draw_general(u).pos[perm], draw_general(t).pos)
    assert_matches_oracle(u)
    assert_decompositions_match_oracle(u)


# The recursive layout the two-pass draw_general replaced: every recursion
# level copies and shifts the position dicts of the levels below. It is kept
# here as the oracle the two passes must match node for node.

class _Cluster:
    """A rail node plus its attached subtree drawings, in coordinates
    relative to the rail node at (0, 0)."""

    __slots__ = ("node", "pos", "lo", "hi", "ymax")

    def __init__(self, node):
        self.node = node
        self.pos = {node: (0, 0)}
        self.lo = self.hi = 0
        self.ymax = 0

    def attach(self, child, sub, top):
        if top:
            sub = {u: (-px, -py) for u, (px, py) in sub.items()}
        cx, cy = sub[child]
        dx = -cx
        if top:
            dy = -1 - max(py for _, py in sub.values())
        else:
            dy = 1 - min(py for _, py in sub.values())
        for u, (px, py) in sub.items():
            qx, qy = px + dx, py + dy
            self.pos[u] = (qx, qy)
            self.lo = min(self.lo, qx)
            self.hi = max(self.hi, qx)
            self.ymax = max(self.ymax, qy)


def _layout(t, root, sizes, order, p):
    if order[root][0] < 0:  # a leaf
        return {root: (0, 0)}
    d = _decompose(t, root, sizes, order, p)

    def cluster(v):
        c = _Cluster(v)
        if v in d.top:
            c.attach(d.top[v], _layout(t, d.top[v], sizes, order, p), top=True)
        if v in d.bottom:
            c.attach(d.bottom[v], _layout(t, d.bottom[v], sizes, order, p), top=False)
        return c

    pos = {}

    def emit(c, col, row):
        for u, (px, py) in c.pos.items():
            pos[u] = (px + col, py + row)

    p_clusters = [cluster(v) for v in d.P]
    cols = {}
    col = 0
    for i, c in enumerate(p_clusters):
        if i > 0:
            prev = p_clusters[i - 1]
            col = cols[prev.node] + prev.hi - c.lo + 1
        cols[c.node] = col
        emit(c, col, 0)

    if not d.Q:
        return pos

    y_q = max((c.ymax for c in p_clusters), default=-1) + 1
    q_clusters = [cluster(v) for v in d.Q]
    xi = len(d.Q) - len(d.tau) - 1
    px_cluster = q_clusters[xi]
    cols[px_cluster.node] = cols[d.P[-1 - len(d.sigma)]] if d.P else 0
    emit(px_cluster, cols[px_cluster.node], y_q)

    guarded = p_clusters + [px_cluster]
    left_min = min(cols[c.node] + c.lo for c in guarded)
    right_max = max(cols[c.node] + c.hi for c in guarded)
    for i in range(xi - 1, -1, -1):
        c = q_clusters[i]
        if i == xi - 1:
            col = left_min - 1 - c.hi
        else:
            nxt = q_clusters[i + 1]
            col = cols[nxt.node] + nxt.lo - c.hi - 1
        cols[c.node] = col
        emit(c, col, y_q)
    for i in range(xi + 1, len(q_clusters)):
        c = q_clusters[i]
        if i == xi + 1:
            col = right_max + 1 - c.lo
        else:
            prev = q_clusters[i - 1]
            col = cols[prev.node] + prev.hi - c.lo + 1
        cols[c.node] = col
        emit(c, col, y_q)
    return pos


def oracle_positions(t, p=9.956):
    raw = _layout(t, t.root, t.size.tolist(), heavy_paths(t)[0].tolist(), p)
    rx, ry = raw[t.root]
    return tuple((raw[v][0] - rx, raw[v][1] - ry) for v in range(t.n))


def assert_matches_oracle(t):
    assert tuple(map(tuple, draw_general(t).pos.tolist())) == oracle_positions(t)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10 ** 6))
def test_two_passes_match_oracle_on_random_trees(n, seed):
    assert_matches_oracle(random_ternary_tree(n, seed))


def test_two_passes_match_oracle_on_paths_caterpillars_complete_trees():
    for n in (1, 2, 3, 17, 200):
        assert_matches_oracle(path_tree(n))
    for spine in (1, 2, 10, 80):
        assert_matches_oracle(caterpillar_tree(spine))
    for h in range(1, 8):
        assert_matches_oracle(complete_tree(h))


@pytest.mark.parametrize("tree, case", [
    (complete_tree(5), 1),
    (_sized_example(), 2),
    (random_ternary_tree(100, 3), 3),  # x = 4
    (path_tree(30), None),
])
def test_two_passes_match_oracle_in_each_turn_index_case(tree, case):
    x = decompose(tree).x
    assert x == case if case is None or case < 3 else x >= 3
    assert_matches_oracle(tree)


def test_draw_general_decomposes_each_frame_once(monkeypatch):
    """One batched _decompose call per frame level, each frame root in
    exactly one of them, all reading one build of the heavy paths."""
    t = random_ternary_tree(3000, 5)
    stats = frame_stats(t)
    calls, built = [], []
    decompose_ = layout_general._decompose
    monkeypatch.setattr(layout_general, "_decompose", lambda t, heavy, roots:
                        calls.append(roots.tolist()) or decompose_(t, heavy, roots))
    monkeypatch.setattr(layout_general, "heavy_paths",
                        lambda t: built.append(t) or heavy_paths(t))
    draw_general(t)
    assert built == [t]
    assert sorted(r for roots in calls for r in roots) == sorted(stats.root.tolist())
    assert len(set(stats.root.tolist())) == len(stats.root)
    assert len(calls) == stats.level.max() + 1 > 2


# sha256 of `ternarydraw draw <spec> --algo general` stdout, recorded before
# the layout became two passes
GOLDEN_GENERAL_STDOUT = {
    "random:5000:7": "12d2e8033de0b4a8781ef6e4ec44fcf8d5ce964cfe9649821a4b200af6804eea",
    "random:200000:1": "5b2ca68f4be36ee73684a57d47e3dbca1747348f4ac8b9af8f8b0d19a4a932d9",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_GENERAL_STDOUT))
def test_general_draw_stdout_golden(spec, capsys):
    assert cli.main(["draw", spec, "--algo", "general"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GENERAL_STDOUT[spec]
