import importlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ternarydraw.geometry import (Extents, GridDrawing, drawing_to_json, edge_arrays,
                                  edge_segments, extents)
from ternarydraw.layout_complete import (draw_c1_only, draw_c2_only, draw_golden,
                                         draw_upper_1149)
from ternarydraw.layout_general import draw_general
from ternarydraw.pareto import levels, reconstruct_drawing
from ternarydraw.tree import TernaryTree, complete_tree, random_ternary_tree
from ternarydraw.verify import (VerificationError, build_report, check_on_grid,
                                check_orthogonal, check_planar,
                                check_subtree_separation,
                                check_top_visibility, fib_lower_bound,
                                leg_arm_lengths, report_to_json)

from conftest import min_area_drawing
from report_oracle import (brute_subtree_separation, naive_check_planar,
                           oracle_leg_arm_lengths, oracle_report, parents_first,
                           segment_extents)


def random_orthogonal_drawing(n, seed):
    """Random axis-parallel drawing (usually non-planar): each node lands a
    random distance up/down/left/right of its parent, skipping occupied
    points."""
    rng = random.Random(seed)
    t = random_ternary_tree(n, seed)
    pos = [None] * n
    pos[t.root] = (0, 0)
    used = {(0, 0)}
    for v in parents_first(t)[1:]:  # parents first, the root first of all
        px, py = pos[t.parents[v]]
        while True:
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            step = rng.randint(1, 6)
            cand = (px + dx * step, py + dy * step)
            if cand not in used:
                break
        used.add(cand)
        pos[v] = cand
    return GridDrawing(t, tuple(pos))


def test_on_grid_and_orthogonal_basics():
    t = TernaryTree(((1,), ()))
    d = GridDrawing(t, ((0, 0), (2, 0)))
    assert check_on_grid(d) and check_orthogonal(d)
    assert not check_orthogonal(GridDrawing(t, ((0, 0), (1, 1))))
    # duplicate positions
    assert not check_on_grid(GridDrawing(t, ((0, 0), (0, 0))))


def test_planar_requires_orthogonal():
    t = TernaryTree(((1,), ()))
    d = GridDrawing(t, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        check_planar(d)
    with pytest.raises(ValueError):
        naive_check_planar(d)


def test_forced_crossing_detected():
    # edges (0,0)-(2,0) and (1,1)-(1,-1) cross at (1,0)
    t = TernaryTree(((1, 2), (), (3,), (4,), ()))
    d = GridDrawing(t, ((1, 1), (1, -1), (0, 1), (0, 0), (2, 0)))
    assert not check_planar(d)
    assert not naive_check_planar(d)


def test_node_on_edge_interior_detected():
    t = TernaryTree(((1, 2), (), ()))
    d = GridDrawing(t, ((0, 0), (2, 0), (1, 0)))
    assert not check_planar(d)
    assert not naive_check_planar(d)


def test_collinear_overlap_detected():
    # two children drawn past each other on the same row
    t = TernaryTree(((1, 2), (), ()))
    d = GridDrawing(t, ((0, 0), (3, 0), (2, 0)))
    assert not check_planar(d)
    assert not naive_check_planar(d)


def test_touching_endpoints_are_fine():
    d = draw_c1_only(4)
    assert check_planar(d)
    assert naive_check_planar(d)


def test_top_visibility_cases():
    single = GridDrawing(complete_tree(1), ((0, 0),))
    assert check_top_visibility(single)
    t = TernaryTree(((1,), ()))
    above = GridDrawing(t, ((0, 0), (0, -2)))
    assert not check_top_visibility(above)
    below = GridDrawing(t, ((0, 0), (0, 2)))
    assert check_top_visibility(below)
    # a path over the root's column: diagonal edges reach a node on it, and
    # a horizontal edge crosses it
    path = TernaryTree(((1,), (2,), ()))
    assert not check_top_visibility(GridDrawing(path, ((0, 0), (1, -1), (0, -2))))
    hook = GridDrawing(TernaryTree(((1,), (2,), (3,), ())), ((0, 0), (1, 0), (1, -1), (-1, -1)))
    assert check_planar(hook) and not check_top_visibility(hook)
    assert not build_report(hook).top_visible


def test_subtree_separation_violation():
    # node 2 sits inside the box of its sibling's subtree {1, 3}
    t = TernaryTree(((1, 2), (3,), (), ()), root=0)
    d = GridDrawing(t, ((0, 0), (0, 1), (1, 1), (2, 1)))
    assert not check_subtree_separation(d)
    assert not brute_subtree_separation(d)


def test_separation_sees_every_descendant():
    # move each leaf of a 1-2 drawing onto the sibling subtree of one of its
    # root's children: only that leaf's own subtree boxes grow
    d = draw_c1_only(5)
    t = d.tree
    a, b = t.table[t.root, :2].tolist()
    assert check_subtree_separation(d)
    for v in range(t.n):
        if t.table[v, 0] >= 0:  # not a leaf
            continue
        u = v
        while t.parents[u] != t.root:
            u = t.parents[u]
        pos = list(d.pos)
        pos[v] = d.pos[b if u == a else a]
        moved = GridDrawing(t, tuple(pos))
        assert not check_subtree_separation(moved)
        if v % 9 == 0:
            assert not brute_subtree_separation(moved)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10 ** 6))
def test_local_separation_matches_global_oracle(n, seed):
    d = random_orthogonal_drawing(n, seed)
    assert check_subtree_separation(d) == brute_subtree_separation(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.integers(0, 10 ** 6))
def test_sweep_agrees_with_naive_oracle(n, seed):
    d = random_orthogonal_drawing(n, seed)
    assert check_planar(d) == naive_check_planar(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 150), st.integers(0, 10 ** 6))
def test_sweep_agrees_on_planar_outputs(n, seed):
    d = draw_general(random_ternary_tree(n, seed))
    assert check_planar(d)
    assert naive_check_planar(d)


def test_fib_lower_bound_values():
    assert [fib_lower_bound(h) for h in range(1, 10)] == [1, 2, 3, 5, 8, 13,
                                                          21, 34, 55]
    with pytest.raises(ValueError):
        fib_lower_bound(0)


def test_leg_arm_lengths_base_cases():
    assert leg_arm_lengths(GridDrawing(complete_tree(1), ((0, 0),))) == (1, 1, 1)
    assert leg_arm_lengths(draw_c1_only(2)) == (2, 2, 2)


def test_leg_arm_lengths_c2_h3():
    gamma, lam, rho = leg_arm_lengths(draw_c2_only(3))
    assert gamma == 4
    assert lam == rho == 3


def test_leg_arm_lengths_respect_lower_bound():
    for h in range(1, 9):
        for d in (draw_c1_only(h), draw_c2_only(h), *draw_golden(h)):
            gamma, lam, rho = leg_arm_lengths(d)
            assert min(gamma, lam, rho) >= fib_lower_bound(h)


def test_leg_arm_lengths_requires_complete_tree():
    d = draw_general(random_ternary_tree(10, 0))
    with pytest.raises(VerificationError):
        leg_arm_lengths(d)


# the eight symmetries of the grid, as matrices acting on (x, y) rows
SYMMETRIES = [np.array(m) * s for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]])
              for s in ([1, 1], [1, -1], [-1, 1], [-1, -1])]


def one_two_drawings(h_max):
    """Every 1-2 drawing the package builds for T_1..T_h_max: both
    constructions alone, both golden drawings, upper1149, and the
    reconstruction of every frontier pair."""
    for h in range(1, h_max + 1):
        yield from (draw_c1_only(h), draw_c2_only(h), *draw_golden(h), draw_upper_1149(h))
        fronts = list(levels(h))
        yield from (reconstruct_drawing(fronts, pair) for pair in fronts[-1].pairs)


def test_leg_arm_lengths_match_the_oracle_in_every_symmetry():
    # a leg on the root's row, not its column, only in the turned symmetries
    count = 0
    for d in one_two_drawings(8):
        for m in SYMMETRIES:
            turned = GridDrawing(d.tree, d.pos @ m)
            legs = leg_arm_lengths(turned)
            assert legs == oracle_leg_arm_lengths(turned)
            assert all(type(v) is int for v in legs)
            count += 1
    assert count == 1336


_ARMS_ON_ONE_SIDE = GridDrawing(complete_tree(2), ((0, 0), (-1, 0), (0, 1), (-2, 0)))


@pytest.mark.parametrize("pos", [_ARMS_ON_ONE_SIDE.pos, _ARMS_ON_ONE_SIDE.pos * (-1, 1)],
                         ids=["left", "mirrored"])
def test_arms_on_one_side_of_the_root_raise_verification_error(pos):
    # the oracle raises KeyError on the first and VerificationError on its mirror image
    with pytest.raises(VerificationError):
        leg_arm_lengths(GridDrawing(complete_tree(2), pos))


def test_a_child_on_the_root_point_raises_verification_error():
    # off the grid: the oracle measured a leg from the root to itself
    d = GridDrawing(complete_tree(2), ((0, 0), (0, 0), (0, 1), (5, 5)))
    assert oracle_leg_arm_lengths(d) == (1, 1, 1)
    with pytest.raises(VerificationError):
        leg_arm_lengths(d)


_STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@st.composite
def complete_tree_drawings(draw):
    """Drawings of T_2..T_4: a 1-2 drawing in one of its symmetries with up
    to three nodes moved by at most two lines, or every node a short step
    along an axis from its parent, which leaves children on the root's
    lines, arms on one side and points drawn twice."""
    h = draw(st.integers(2, 4))
    t, n = complete_tree(h), (3 ** h - 1) // 2
    if draw(st.booleans()):
        d = draw(st.sampled_from([draw_c1_only, draw_c2_only, draw_upper_1149,
                                  lambda h: draw_golden(h)[0], lambda h: draw_golden(h)[1]]))(h)
        P = d.pos @ draw(st.sampled_from(SYMMETRIES))
        for _ in range(draw(st.integers(0, 3))):
            P[draw(st.integers(0, n - 1))] += draw(st.tuples(*[st.integers(-2, 2)] * 2))
        return GridDrawing(t, P)
    P = np.zeros((n, 2), dtype=np.int64)
    for v in parents_first(t)[1:]:  # parents first
        dx, dy = draw(st.sampled_from(_STEPS))
        step = draw(st.integers(1, 3))
        P[v] = P[t.parents[v]] + (dx * step, dy * step)
    return GridDrawing(t, P)


@settings(max_examples=400, deadline=None)
@given(complete_tree_drawings())
@example(_ARMS_ON_ONE_SIDE)
def test_leg_arm_lengths_match_the_oracle_on_moved_nodes(d):
    try:
        want = oracle_leg_arm_lengths(d)
    except (KeyError, VerificationError):
        want = VerificationError
    kids = d.tree.table[d.tree.root]
    if np.any(np.all(d.pos[kids] == d.pos[d.tree.root], axis=1)):
        want = VerificationError  # a child on the root's point, off the grid
    try:
        got = leg_arm_lengths(d)
    except VerificationError:
        got = VerificationError
    assert got == want


def test_report_json_shape():
    d = draw_c2_only(3)
    report = build_report(d)
    payload = json.loads(report_to_json(report))
    assert payload["planar"] and payload["topVisible"]
    assert payload["area"] == extents(d).area
    assert payload["legLength"] == 4
    assert list(payload)[:5] == ["planar", "orthogonal", "onGrid",
                                 "topVisible", "subtreeSeparated"]


def test_large_drawing_planarity_speed():
    d = draw_general(random_ternary_tree(100000, 9))
    assert check_planar(d)


def reference_extents(d):
    """Extents by listing the covered grid lines without merging intervals:
    every node's line, plus each gap between consecutive node lines that
    some edge of positive span along that axis spans whole, a diagonal edge
    included (an edge ends at nodes, so it covers a gap whole or not at
    all)."""
    segs = edge_segments(d)
    rx, ry = d.root_pos()

    def counts(lines, spans, pivot):
        lines = sorted(set(lines))
        covered = [(c, c) for c in lines]
        covered += [(a + 1, b - 1) for a, b in zip(lines, lines[1:])
                    if b - a > 1 and any(lo <= a and b <= hi for lo, hi in spans)]
        return (sum(hi - lo + 1 for lo, hi in covered),
                sum(hi - lo + 1 for lo, hi in covered if hi < pivot),
                sum(hi - lo + 1 for lo, hi in covered if lo > pivot))

    w, lw, rw = counts([x for x, _ in d.pos], [(min(x1, x2), max(x1, x2))
                       for x1, _, x2, _ in segs if x1 != x2], rx)
    h, th, bh = counts([y for _, y in d.pos], [(min(y1, y2), max(y1, y2))
                       for _, y1, _, y2 in segs if y1 != y2], ry)
    return w, h, lw, rw, th, bh


@st.composite
def drawings(draw):
    """Valid drawings (general layouts, 1-2 drawings) and invalid ones:
    random axis-parallel drawings (crossings, nodes inside edges) and random
    points of a small box (diagonal and zero-length edges, duplicates)."""
    kind = draw(st.sampled_from(["general", "one-two", "orthogonal", "scattered"]))
    n, seed = draw(st.integers(1, 60)), draw(st.integers(0, 10 ** 6))
    if kind == "general":
        return draw_general(random_ternary_tree(n, seed))
    if kind == "one-two":
        return draw(st.sampled_from([draw_c1_only, draw_c2_only, lambda h: draw_golden(h)[0]]))(
            draw(st.integers(1, 4)))
    if kind == "orthogonal":
        return random_orthogonal_drawing(n, seed)
    point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return GridDrawing(random_ternary_tree(n, seed),
                       tuple(draw(st.lists(point, min_size=n, max_size=n))))


_T3 = TernaryTree(((1, 2), (), ()))
_PATH3 = TernaryTree(((1,), (2,), ()))
_BIG = 2 ** 40


@settings(max_examples=150, deadline=None)
@given(drawings())
@example(GridDrawing(_T3, ((0, 0), (1, 1), (-2, 0))))  # diagonal edge
@example(GridDrawing(_T3, ((0, 0), (0, 0), (0, 2))))  # zero-length edge
@example(GridDrawing(_T3, ((0, 0), (2, 0), (2, 0))))  # duplicate positions
@example(GridDrawing(_T3, ((0, 0), (2, 0), (1, 0))))  # node inside an edge
@example(GridDrawing(TernaryTree(((1, 2), (), (3,), (4,), ())),
                     ((1, 1), (1, -1), (0, 1), (0, 0), (2, 0))))  # crossing
@example(GridDrawing(TernaryTree(((1, 2), (), (3,), (4,), ())),
                     ((0, 0), (2, 0), (0, 2), (1, 2), (1, 0))))  # vertical ends inside a horizontal
@example(GridDrawing(_PATH3, ((0, 0), (2, 0), (2, 2))))  # vertical ends at a horizontal's end
@example(GridDrawing(_PATH3, ((0, 0), (2, 0), (4, 0))))  # collinear runs abut at a node
@example(GridDrawing(TernaryTree(((1, 2), (), (3,), (4,), (5,), ())),
                     ((0, 0), (2, 0), (0, -1), (3, -1), (3, 0), (1, 0))))  # overlap by one unit
@example(GridDrawing(_T3, ((0, 0), (-2, 0), (3, 0))))  # horizontal edges only
@example(GridDrawing(_T3, ((0, 0), (0, -2), (0, 3))))  # vertical edges only
@example(GridDrawing(TernaryTree(((),)), ((0, 0),)))  # a single node
@example(GridDrawing(TernaryTree(((1, 2, 3), (), (), ())),
                     ((0, 0), (-_BIG, 0), (_BIG, 0), (0, _BIG))))  # spread to 2**40
@example(GridDrawing(TernaryTree(((1, 2), (3,), (), ())),
                     ((0, 0), (0, -_BIG), (0, _BIG), (_BIG, -_BIG))))  # spread to 2**40, not top-visible
def test_report_matches_standalone_checks(d):
    r = build_report(d)
    on_grid, orthogonal = check_on_grid(d), check_orthogonal(d)
    valid = on_grid and orthogonal
    assert (r.on_grid, r.orthogonal) == (on_grid, orthogonal)
    assert on_grid == (len(set(map(tuple, d.pos.tolist()))) == len(d.pos))
    assert r.planar == (valid and naive_check_planar(d))
    assert r.planar == (valid and check_planar(d))
    assert r.top_visible == (valid and check_top_visibility(d))
    assert r.subtree_separated == check_subtree_separation(d)
    if d.tree.n <= 60:
        assert r.subtree_separated == brute_subtree_separation(d)
    assert r.extents == extents(d)
    e = r.extents
    assert (e.width, e.height, e.left_width, e.right_width,
            e.top_height, e.bottom_height) == reference_extents(d)
    legs = (None, None, None)
    if r.planar:
        try:
            legs = leg_arm_lengths(d)
        except VerificationError:
            pass
    assert (r.leg_length, r.left_arm_length, r.right_arm_length) == legs
    fields = (r.planar, r.orthogonal, r.on_grid, r.top_visible, r.subtree_separated)
    assert all(type(f) is bool for f in fields)
    assert all(type(v) is int for v in (*vars(e).values(), *legs) if v is not None)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# drawings at the sizes the CLI is run at: (build, algorithm, complete height)
LATTICE_CASES = {
    "general-200000-1": (lambda: draw_general(random_ternary_tree(200_000, 1)), "general", None),
    "general-200000-2": (lambda: draw_general(random_ternary_tree(200_000, 2)), "general", None),
    "c1-10": (lambda: draw_c1_only(10), "c1", 10),
    "golden-narrow-10": (lambda: draw_golden(10)[0], "golden-narrow", 10),
    "pareto-min-10": (lambda: min_area_drawing(10), "pareto-min", 10),
}


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_report_extents_match_the_benchmark_lattice_count(monkeypatch, case):
    # perfbench/check.py counts the distinct columns and rows of the nodes
    # and of every lattice point inside an edge, without the package
    monkeypatch.syspath_prepend(str(PERFBENCH))
    check = importlib.import_module("check")
    build, algo, h = LATTICE_CASES[case]
    d = build()
    dims = check.check_drawing(drawing_to_json(d), n=d.tree.n, algo=algo, complete_h=h)
    e = build_report(d).extents
    assert (e.width, e.height) == (dims.width, dims.height)


def test_report_on_a_path_drawn_on_one_row():
    # height n: a check that looped over tree levels would take n passes
    n = 200_000
    t = TernaryTree(tuple((v + 1,) for v in range(n - 1)) + ((),))
    r = build_report(GridDrawing(t, tuple((v, 0) for v in range(n))))
    assert (r.planar, r.orthogonal, r.on_grid, r.top_visible, r.subtree_separated) == (True,) * 5
    assert r.extents == Extents(n, 1, 0, n - 1, 0, 0)
    assert (r.leg_length, r.left_arm_length, r.right_arm_length) == (None, None, None)


@pytest.mark.parametrize("c", [2 ** 62, -2 ** 62 - 1, 2 ** 63, 2 ** 64, float("nan")])
def test_out_of_range_coordinates_raise(c):
    # no drawing with such a coordinate exists, so no check can meet one
    with pytest.raises(ValueError):
        GridDrawing(TernaryTree(((1,), ())), ((0, 0), (c, 0)))


_EDGE = 2 ** 62 - 1


def _stretched(d):
    """d with each axis's least and greatest values moved out to -(2**62 - 1)
    and 2**62 - 1; every other value stays, so order and equality hold."""
    P = d.pos.copy()
    for c in P.T:
        lo, hi = c.min(), c.max()
        if lo < hi:
            c[c == lo], c[c == hi] = -_EDGE, _EDGE
    return GridDrawing(d.tree, P)


@st.composite
def ranked_drawings(draw):
    """Drawings for the shared-rank verifier: random axis-parallel ones,
    general layouts with one node moved onto the row of one node and the
    column of another (diagonals, duplicate points, nodes inside edges,
    crossings), ones stretched to +-(2**62 - 1), and ones with no vertical
    or no horizontal edge."""
    kind = draw(st.sampled_from(["orthogonal", "moved", "stretched", "rows", "columns"]))
    n, seed = draw(st.integers(1, 80)), draw(st.integers(0, 10 ** 6))
    if kind in ("rows", "columns"):  # distinct x values: no vertical edge
        rng = random.Random(seed)
        rows = draw(st.integers(1, 3))
        P = [(x, rng.randrange(rows)) for x in rng.sample(range(-2 * n, 2 * n), n)]
        return GridDrawing(random_ternary_tree(n, seed), P if kind == "rows" else [p[::-1] for p in P])
    if kind == "moved":
        d = draw_general(random_ternary_tree(n, seed))
        P = d.pos.copy()
        v, i, j = (draw(st.integers(0, n - 1)) for _ in range(3))
        P[v] = P[i, 0] + draw(st.integers(-1, 1)), P[j, 1] + draw(st.integers(-1, 1))
        return GridDrawing(d.tree, P)
    d = random_orthogonal_drawing(n, seed)
    return _stretched(d) if kind == "stretched" else d


_ONE = TernaryTree(((),))
_TWO = TernaryTree(((1,), ()))


@settings(max_examples=300, deadline=None)
@given(ranked_drawings())
@example(GridDrawing(_ONE, ((_EDGE, -_EDGE),)))
@example(GridDrawing(_TWO, ((0, 0), (0, 0))))  # n = 2, one point
@example(GridDrawing(_TWO, ((-_EDGE, 0), (_EDGE, 0))))  # n = 2, width 2**63 - 1
@example(GridDrawing(_TWO, ((0, _EDGE), (0, -_EDGE))))  # n = 2, not top-visible
@example(GridDrawing(_T3, ((0, 0), (0, 2), (0, 1))))  # node inside a vertical edge
@example(GridDrawing(_T3, ((0, 0), (0, 3), (0, 2))))  # vertical edges past each other
@example(GridDrawing(_T3, ((0, 0), (-2, 0), (2, 0))))  # no vertical edge
@example(GridDrawing(TernaryTree(((1, 2), (), (3,), (4,), ())),
                     ((1, 1), (1, -1), (0, 1), (0, 0), (2, 0))))  # crossing
def test_report_matches_sort_based_oracle(d):
    r = build_report(d)
    assert r == oracle_report(d)
    assert r.planar == (r.on_grid and r.orthogonal and naive_check_planar(d))
    if d.tree.n <= 60:
        assert r.subtree_separated == brute_subtree_separation(d)
    assert r.extents == extents(d) == segment_extents(d.pos, d.tree.root, *edge_arrays(d.tree))


def test_collinear_overlap_needs_no_pass_of_its_own():
    # two runs on one line sharing more than a point, from different nodes
    # (a path) or from one node (a star): check_planar, which has no overlap
    # pass, rejects them as the all-pairs oracle does
    path, star = TernaryTree(((1,), (2,), (3,), ())), TernaryTree(((1, 2), (), ()))
    for t, xs in ((path, (0, 3, 1, 4)), (path, (0, 4, 1, 2)), (star, (0, 3, 4)), (star, (0, -3, -1))):
        for pos in ([(x, 0) for x in xs], [(0, x) for x in xs]):
            d = GridDrawing(t, pos)
            assert not naive_check_planar(d) and not check_planar(d)
            assert build_report(d) == oracle_report(d)
