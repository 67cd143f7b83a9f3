import gc
import hashlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ternarydraw import layout_complete
from ternarydraw.cli import main
from ternarydraw.geometry import GridDrawing, bbox, extents
from ternarydraw.layout_complete import (construct1, construct2,
                                         draw_c1_only, draw_c2_only,
                                         draw_golden, draw_upper_1149)
from ternarydraw.pareto import levels, recipe_pair, reconstruct_drawing
from ternarydraw.tree import TernaryTree, TreeError, complete_tree
from ternarydraw.verify import (check_planar, check_subtree_separation,
                                check_top_visibility)


def dims(d):
    e = extents(d)
    return e.width, e.height, e.left_width, e.right_width


def test_c1_only_dimensions():
    for h in range(1, 11):
        e = extents(draw_c1_only(h))
        assert (e.width, e.height) == (2 ** h - 1, 2 ** (h - 1))


def test_c2_only_dimensions():
    for h in range(1, 11):
        e = extents(draw_c2_only(h))
        if h % 2:
            assert e.width == e.height == (2 ** (h + 1) - 1) // 3
        else:
            assert (e.width, e.height) == ((2 ** (h + 1) + 1) // 3,
                                           (2 ** (h + 1) - 2) // 3)


ARRAY = {1: construct1, 2: construct2}


def combine(constr, ga, gb, gc):
    """Construction 1 or 2 of three drawings of T_{h-1}, by the array
    combinator on their root-relative positions: a drawing of T_h."""
    P = ARRAY[constr](*(g.pos - g.pos[g.tree.root] for g in (ga, gb, gc)))
    return GridDrawing(complete_tree(ga.tree.complete_height + 1), P)


def test_construction1_of_t2_triple():
    g = draw_c1_only(2)  # (3, 2), left = right = 1
    d = combine(1, g, g, g)
    assert dims(d) == (7, 4, 3, 3)


def test_construction2_of_t2_triple():
    g = draw_c1_only(2)
    d = combine(2, g, g, g)
    assert dims(d) == (5, 5, 2, 2)


def test_golden_heights_follow_recurrences():
    eta1 = {1: 1, 2: 2}
    eta2 = {1: 1, 2: 2}
    for h in range(3, 11):
        g1, g2 = draw_golden(h)
        eta1[h] = extents(g1).height
        eta2[h] = extents(g2).height
        assert eta1[h] == eta1[h - 1] + eta1[h - 2] + 1
        assert eta2[h] == 2 * eta2[h - 1] + eta2[h - 2]
    assert [eta1[h] for h in range(1, 8)] == [1, 2, 4, 7, 12, 20, 33]


def test_golden_small_dimensions():
    g1, g2 = draw_golden(3)
    assert dims(g1)[:2] == (7, 4)
    assert dims(g2)[:2] == (5, 5)
    g1, g2 = draw_golden(4)
    assert dims(g1)[:2] == (17, 7)
    assert dims(g2)[1] == 12


def test_upper_1149_small_dimensions():
    expected = {3: (5, 5), 4: (11, 9), 5: (19, 19)}
    for h, wh in expected.items():
        e = extents(draw_upper_1149(h))
        assert (e.width, e.height) == wh


def test_upper_1149_recurrences_and_growth():
    w = {1: 1, 2: 3}
    e = {1: 1, 2: 2}
    for h in range(3, 13):
        ext = extents(draw_upper_1149(h))
        w[h], e[h] = ext.width, ext.height
        assert w[h] % 2 == 1
        assert w[h] == max(2 * e[h - 1] + 1, w[h - 2] + 2 * e[h - 2])
        assert e[h] == w[h - 1] + max(w[h - 2], (w[h - 2] + 1) // 2 + e[h - 2])
    # growth rate at most 1.8794: the ratio to 1.8794^h never exceeds the
    # maximum it reaches over the small heights
    ratios = [max(w[h], e[h]) / 1.8794 ** h for h in range(1, 13)]
    assert max(ratios[6:]) <= max(ratios[:6])


def test_all_constructions_verify():
    for h in range(1, 8):
        drawings = [draw_c1_only(h), draw_c2_only(h), draw_upper_1149(h),
                    *draw_golden(h)]
        for d in drawings:
            assert check_planar(d)
            assert check_top_visibility(d)
            assert check_subtree_separation(d)


def _predicted(ga, gb, gc, constr):
    """Extent arithmetic the combinators are expected to realize."""
    wa, ea, la, ra = ga
    wb, eb, lb, rb = gb
    wc, ec, lc, rc = gc
    if constr == 1:
        return (wa + eb + ec, max(lb, rc) + max(rb, ea, lc) + 1,
                eb + la, ec + ra)
    return (max(la, eb) + max(ra, ec) + 1,
            max(lb, rc) + max(rb, lc) + ea + 1,
            max(la, eb), max(ra, ec))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(3, 6))
def test_random_construction_mixes_match_extent_arithmetic(seed, h):
    """Measured extents of arbitrary construction mixes obey the composition
    formulas; this grounds the Pareto DP in actual geometry."""
    rng = random.Random(seed)

    def build(level):
        if level == 1:
            return draw_c1_only(1)
        center, left, right = (build(level - 1) for _ in range(3))
        constr = 1 if rng.random() < 0.5 else 2
        d = combine(constr, center, left, right)
        pred = _predicted(dims(center), dims(left), dims(right), constr)
        assert dims(d) == pred
        return d

    d = build(h)
    assert check_planar(d)
    assert check_top_visibility(d)
    assert check_subtree_separation(d)


# The subtree-map combinators the array cores replaced, kept as the oracle:
# they place each child drawing through a preorder map of the host subtree
# and rotate and box the flanks with rotate and geometry.bbox.

def rotate(d: GridDrawing, quarter_turns_cw: int) -> GridDrawing:
    """Rotate about the root's position by 90° clockwise steps (screen sense,
    y-down). The root keeps its position."""
    if quarter_turns_cw not in (1, 2, 3):
        raise ValueError("quarter_turns_cw must be 1, 2, or 3")
    root = d.pos[d.tree.root]
    D = d.pos - root
    for _ in range(quarter_turns_cw):
        D = np.stack([-D[:, 1], D[:, 0]], axis=1)
    return GridDrawing(d.tree, D + root)


def _kids(t: TernaryTree, v: int) -> list[int]:
    return [c for c in t.table[v].tolist() if c >= 0]


def _preorder(t: TernaryTree, start: int) -> list[int]:
    out = []
    stack = [start]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(_kids(t, v)))
    return out


def _subtree_map(host: TernaryTree, child_root: int, g: GridDrawing) -> list[int]:
    sub = _preorder(host, child_root)
    loc = _preorder(g.tree, g.tree.root)
    if len(sub) != len(loc):
        raise TreeError("subtree size does not match the supplied drawing")
    mapping = [0] * g.tree.n
    for u, v in zip(sub, loc):
        if len(_kids(host, u)) != len(_kids(g.tree, v)):
            raise TreeError("subtree shape does not match the supplied drawing")
        mapping[v] = u
    return mapping


def _place(pos, g, mapping, dx, dy):
    for v, (x, y) in enumerate(g.pos):
        pos[mapping[v]] = (x + dx, y + dy)


def oracle_construction1(ga, gb, gc, root_tree):
    b_child, a_child, c_child = _kids(root_tree, root_tree.root)
    pos = [None] * root_tree.n
    pos[root_tree.root] = (0, 0)
    arx, _ = ga.root_pos()
    axmin, axmax, aymin, _ = bbox(ga)
    adx, ady = -arx, 1 - aymin
    _place(pos, ga, _subtree_map(root_tree, a_child, ga), adx, ady)
    B = rotate(gb, 1)
    _, bxmax, _, _ = bbox(B)
    _place(pos, B, _subtree_map(root_tree, b_child, gb),
           (axmin + adx) - 1 - bxmax, -B.root_pos()[1])
    C = rotate(gc, 3)
    cxmin, _, _, _ = bbox(C)
    _place(pos, C, _subtree_map(root_tree, c_child, gc),
           (axmax + adx) + 1 - cxmin, -C.root_pos()[1])
    return GridDrawing(root_tree, tuple(pos))


def oracle_construction2(ga, gb, gc, root_tree):
    b_child, a_child, c_child = _kids(root_tree, root_tree.root)
    pos = [None] * root_tree.n
    pos[root_tree.root] = (0, 0)
    B = rotate(gb, 1)
    _, bxmax, _, bymax = bbox(B)
    bdx, bdy = -1 - bxmax, -B.root_pos()[1]
    _place(pos, B, _subtree_map(root_tree, b_child, gb), bdx, bdy)
    C = rotate(gc, 3)
    cxmin, _, _, cymax = bbox(C)
    cdx, cdy = 1 - cxmin, -C.root_pos()[1]
    _place(pos, C, _subtree_map(root_tree, c_child, gc), cdx, cdy)
    arx, _ = ga.root_pos()
    _, _, aymin, _ = bbox(ga)
    lowest = max(bymax + bdy, cymax + cdy)
    _place(pos, ga, _subtree_map(root_tree, a_child, ga), -arx, lowest + 1 - aymin)
    return GridDrawing(root_tree, tuple(pos))


ORACLE = {1: oracle_construction1, 2: oracle_construction2}
POINT = GridDrawing(complete_tree(1), ((0, 0),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 6))
def test_constructions_match_subtree_map_oracle(seed, h):
    """Node for node, on random construction mixes with three independent
    child drawings, each shifted off the origin."""
    rng = random.Random(seed)

    def shifted(d):
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        return GridDrawing(d.tree, tuple((x + dx, y + dy) for x, y in d.pos))

    def build(level):
        if level == 1:
            return shifted(POINT)
        kids = [build(level - 1) for _ in range(3)]
        constr = rng.choice((1, 2))
        d = combine(constr, *kids)
        assert d == ORACLE[constr](*kids, complete_tree(level))
        return shifted(d)

    build(h)


def test_draw_functions_match_oracle():
    c1, c2, golden, upper = {1: POINT}, {1: POINT}, {1: (POINT, POINT)}, {1: POINT}
    for h in range(2, 8):
        t = complete_tree(h)
        c1[h] = ORACLE[1](c1[h - 1], c1[h - 1], c1[h - 1], t)
        c2[h] = ORACLE[2](c2[h - 1], c2[h - 1], c2[h - 1], t)
        g1, g2 = golden[h - 1]
        golden[h] = ((c1[2], c1[2]) if h == 2 else
                     (ORACLE[1](g1, g2, g2, t), ORACLE[2](g2, g1, g1, t)))
        if h == 2:
            upper[h] = c1[2]
        else:
            inner = upper[h - 2]
            center = ORACLE[1](inner, inner, inner, complete_tree(h - 1))
            upper[h] = ORACLE[2](center, upper[h - 1], upper[h - 1], t)
    for h in range(1, 8):
        assert draw_c1_only(h) == c1[h]
        assert draw_c2_only(h) == c2[h]
        assert draw_golden(h) == golden[h]
        assert draw_upper_1149(h) == upper[h]


def test_reconstruct_drawing_matches_oracle_on_every_recipe():
    fronts = []
    for fr in levels(7):
        fronts.append(fr)
        h = fr.h

        def build(level, idx):
            if level == 1:
                return POINT
            arm, center, constr = fronts[level - 1].recipes[idx]
            a, c = build(level - 1, arm), build(level - 1, center)
            return ORACLE[constr](c, a, a, complete_tree(level))

        for idx, pair in enumerate(fr.pairs):
            assert reconstruct_drawing(fronts, pair) == build(h, idx)


# Each named layout's schedule row, (arm, center, construction) per type, the
# types its draw function returns, and their (width, height) pairs at h = 10.
SCHEDULE_ROWS = {
    "c1": (draw_c1_only, ((0, 0, 1),), (0,), [(1023, 512)]),
    "c2": (draw_c2_only, ((0, 0, 2),), (0,), [(683, 682)]),
    "golden": (draw_golden, ((1, 0, 1), (0, 1, 2)), (0, 1), [(3363, 143), (177, 2378)]),
    "upper1149": (draw_upper_1149, ((0, 1, 2), (0, 0, 1)), (0,), [(481, 439)]),
}


@pytest.mark.parametrize("layout", sorted(SCHEDULE_ROWS))
def test_schedule_rows_keep_the_dp_normalization(layout):
    """recipe_pair, fed the row level by level from T_1's (1, 1), gives each
    drawing's width and height, and every drawing has equal left and right
    width: the named layouts lie inside the frontier DP's search space."""
    draw, row, tops, at10 = SCHEDULE_ROWS[layout]
    pairs = [(1, 1)] * len(row)
    for h in range(2, 11):
        pairs = [recipe_pair(pairs[arm], pairs[center], constr) for arm, center, constr in row]
        drawings = draw(h)
        drawings = drawings if isinstance(drawings, tuple) else (drawings,)
        for t, d in zip(tops, drawings, strict=True):
            e = extents(d)
            assert (e.width, e.height) == pairs[t]
            assert e.left_width == e.right_width
    assert [pairs[t] for t in tops] == at10


def test_compose_builds_each_reached_type_once(monkeypatch):
    """Construction calls at h = 12: one per level and type that the types
    read reach. golden builds both of its types at every level from T_2 on
    (22; sharing one T_2 drawing between them would make 21), upper1149
    skips its type 1 at the top level, and pareto-min builds only the
    frontier entries its recipes reach."""
    calls = []
    for name in ("construct1", "construct2"):
        real = getattr(layout_complete, name)
        monkeypatch.setattr(layout_complete, name,
                            lambda *a, real=real: calls.append(1) or real(*a))
    fronts = list(levels(12))
    runs = {"c1": lambda: draw_c1_only(12), "c2": lambda: draw_c2_only(12),
            "upper1149": lambda: draw_upper_1149(12), "golden": lambda: draw_golden(12),
            "pareto-min": lambda: reconstruct_drawing(fronts, fronts[-1].min_area()[1])}
    counts = {}
    for layout, run in runs.items():
        calls.clear()
        run()
        counts[layout] = len(calls)
    assert counts == {"c1": 11, "c2": 11, "upper1149": 21, "golden": 22, "pareto-min": 76}


# sha256 of `draw complete:9 --algo A` stdout, recorded with the subtree-map
# combinators and json.dumps(..., indent=2).
COMPLETE9_SHA256 = {
    "golden-narrow": "bd0daf627a6c6b67b8ce0bbcfc4ecbbae8990ced1ecad164c6b7897d308f00b9",
    "golden-wide": "b2aed471f5a69071ae5bb275b5642ea10620471a1c8a787436bbcb2863cb95a1",
    "c1": "3989b8c5f10f381cb8e70d7e3402127103aa6a879b3b1460fe2f546ef588761d",
    "c2": "ced2b6de96ea64aa31e7d5740c11275a1280bb28f1a706650485e4a0a0d21b45",
    "upper1149": "e9d00ce2da0bf0de4a1d005feef353a01895f8130a1fdded1ff04a806d024fb0",
    "pareto-min": "401e66195cea5fe1504e7da0942cab6260a3fd0e511c9d184265586adecc6488",
}


@pytest.mark.parametrize("algo", sorted(COMPLETE9_SHA256))
def test_draw_complete9_golden_sha256(algo, tmp_path, capsys):
    assert main(["--cache-dir", str(tmp_path), "draw", "complete:9", "--algo", algo]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPLETE9_SHA256[algo]


@pytest.mark.parametrize("h", [0, -1])
@pytest.mark.parametrize("draw", [draw_c1_only, draw_c2_only, draw_golden, draw_upper_1149])
def test_layouts_reject_heights_below_one(draw, h):
    # complete_tree(h) is the check: no layout has one of its own
    with pytest.raises(TreeError):
        draw(h)


@pytest.mark.parametrize("draw", [draw_c1_only, draw_c2_only, draw_upper_1149,
                                  lambda h: draw_golden(h)[0]],
                         ids=["c1", "c2", "upper1149", "golden"])
def test_drawing_freed_with_its_last_reference(draw):
    ref = weakref.ref(draw(5))
    gc.collect()
    assert ref() is None

