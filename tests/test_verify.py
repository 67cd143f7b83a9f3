import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ternarydraw.geometry import GridDrawing, edge_segments, extents
from ternarydraw.layout_complete import draw_c1_only, draw_c2_only, draw_golden
from ternarydraw.layout_general import draw_general
from ternarydraw.tree import TernaryTree, complete_tree, random_ternary_tree
from ternarydraw.verify import (VerificationError, brute_subtree_separation,
                                build_report, check_on_grid, check_orthogonal,
                                check_orthogonal_grid, check_planar,
                                check_subtree_separation,
                                check_top_visibility, fib_lower_bound,
                                leg_arm_lengths, naive_check_planar,
                                report_to_json)


def random_orthogonal_drawing(n, seed):
    """Random axis-parallel drawing (usually non-planar): each node lands a
    random distance up/down/left/right of its parent, skipping occupied
    points."""
    rng = random.Random(seed)
    t = random_ternary_tree(n, seed)
    pos = [None] * n
    pos[t.root] = (0, 0)
    used = {(0, 0)}
    for v in t.topo_order():
        if v == t.root:
            continue
        px, py = pos[t.parent(v)]
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
    assert check_orthogonal_grid(GridDrawing(t, ((0, 0), (2, 0))))
    assert not check_orthogonal(GridDrawing(t, ((0, 0), (1, 1))))
    assert not check_on_grid(GridDrawing(t, ((0, 0), (0.5, 0))))
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


def test_subtree_separation_violation():
    # node 2 sits inside the box of its sibling's subtree {1, 3}
    t = TernaryTree(((1, 2), (3,), (), ()), root=0)
    d = GridDrawing(t, ((0, 0), (0, 1), (1, 1), (2, 1)))
    assert not check_subtree_separation(d)
    assert not brute_subtree_separation(d)


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
    """Extents by listing every covered grid line: nodes, plus every integer
    point of each positive-length horizontal/vertical edge; a diagonal edge
    covers only its endpoints."""
    cols = {x for x, _ in d.pos}
    rows = {y for _, y in d.pos}
    for x1, y1, x2, y2 in edge_segments(d):
        if y1 == y2:
            cols.update(range(min(x1, x2), max(x1, x2) + 1))
        elif x1 == x2:
            rows.update(range(min(y1, y2), max(y1, y2) + 1))
    rx, ry = d.root_pos()
    return (len(cols), len(rows), sum(x < rx for x in cols), sum(x > rx for x in cols),
            sum(y < ry for y in rows), sum(y > ry for y in rows))


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


@settings(max_examples=150, deadline=None)
@given(drawings())
@example(GridDrawing(_T3, ((0, 0), (1, 1), (-2, 0))))  # diagonal edge
@example(GridDrawing(_T3, ((0, 0), (0, 0), (0, 2))))  # zero-length edge
@example(GridDrawing(_T3, ((0, 0), (2, 0), (2, 0))))  # duplicate positions
@example(GridDrawing(_T3, ((0, 0), (2, 0), (1, 0))))  # node inside an edge
@example(GridDrawing(TernaryTree(((1, 2), (), (3,), (4,), ())),
                     ((1, 1), (1, -1), (0, 1), (0, 0), (2, 0))))  # crossing
def test_report_matches_standalone_checks(d):
    r = build_report(d)
    on_grid, orthogonal = check_on_grid(d), check_orthogonal(d)
    valid = on_grid and orthogonal
    assert (r.on_grid, r.orthogonal) == (on_grid, orthogonal)
    assert valid == check_orthogonal_grid(d)
    assert r.planar == (valid and check_planar(d))
    assert r.top_visible == (valid and check_top_visibility(d))
    assert r.subtree_separated == check_subtree_separation(d)
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
