"""1-2 drawing combinators and closed-form constructions for complete trees.

Both combinators take the three child drawings PRE-rotation; the required
90° rotations of the flanking drawings happen inside. Child-slot mapping is
fixed for determinism: slot 1 is the center subtree (below the root), slot 0
the left arm (rotated clockwise), slot 2 the right arm (rotated
counterclockwise).
"""

from __future__ import annotations

from functools import lru_cache

from .geometry import GridDrawing, bbox, rotate
from .tree import TernaryTree, TreeError, complete_tree


def _preorder(t: TernaryTree, start: int) -> list[int]:
    out = []
    stack = [start]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(t.children[v]))
    return out


def _subtree_map(host: TernaryTree, child_root: int, g: GridDrawing) -> list[int]:
    """Map node i of g's tree to the i-th preorder node of the host subtree,
    verifying the two trees are structurally identical."""
    sub = _preorder(host, child_root)
    loc = _preorder(g.tree, g.tree.root)
    if len(sub) != len(loc):
        raise TreeError("subtree size does not match the supplied drawing")
    mapping = [0] * g.tree.n
    for u, v in zip(sub, loc):
        if len(host.children[u]) != len(g.tree.children[v]):
            raise TreeError("subtree shape does not match the supplied drawing")
        mapping[v] = u
    return mapping


def _place(pos: list, g: GridDrawing, mapping: list[int], dx: int, dy: int) -> None:
    for v, (x, y) in enumerate(g.pos):
        pos[mapping[v]] = (x + dx, y + dy)


def _arms_and_center(root_tree: TernaryTree):
    kids = root_tree.children[root_tree.root]
    if len(kids) != 3:
        raise TreeError("constructions need a root with exactly 3 children")
    return kids[0], kids[1], kids[2]  # left arm, center, right arm


def construction1(ga: GridDrawing, gb: GridDrawing, gc: GridDrawing,
                  root_tree: TernaryTree) -> GridDrawing:
    """Center drawing ga hangs one row below the root; gb (rotated cw) and gc
    (rotated ccw) flank it, their roots on the root's row."""
    b_child, a_child, c_child = _arms_and_center(root_tree)
    ma = _subtree_map(root_tree, a_child, ga)
    mb = _subtree_map(root_tree, b_child, gb)
    mc = _subtree_map(root_tree, c_child, gc)
    pos: list = [None] * root_tree.n
    pos[root_tree.root] = (0, 0)

    arx, _ = ga.root_pos()
    axmin, axmax, aymin, _ = bbox(ga)
    adx, ady = -arx, 1 - aymin
    _place(pos, ga, ma, adx, ady)

    B = rotate(gb, 1)
    bxmin, bxmax, _, _ = bbox(B)
    _, bry = B.root_pos()
    _place(pos, B, mb, (axmin + adx) - 1 - bxmax, -bry)

    C = rotate(gc, 3)
    cxmin, _, _, _ = bbox(C)
    _, cry = C.root_pos()
    _place(pos, C, mc, (axmax + adx) + 1 - cxmin, -cry)
    return GridDrawing(root_tree, tuple(pos))


def construction2(ga: GridDrawing, gb: GridDrawing, gc: GridDrawing,
                  root_tree: TernaryTree) -> GridDrawing:
    """gb (rotated cw) and gc (rotated ccw) flank the root directly; the
    center drawing ga hangs one row below the lower of the two."""
    b_child, a_child, c_child = _arms_and_center(root_tree)
    ma = _subtree_map(root_tree, a_child, ga)
    mb = _subtree_map(root_tree, b_child, gb)
    mc = _subtree_map(root_tree, c_child, gc)
    pos: list = [None] * root_tree.n
    pos[root_tree.root] = (0, 0)

    B = rotate(gb, 1)
    _, bxmax, _, bymax = bbox(B)
    brx, bry = B.root_pos()
    bdx, bdy = -1 - bxmax, -bry
    _place(pos, B, mb, bdx, bdy)

    C = rotate(gc, 3)
    cxmin, _, _, cymax = bbox(C)
    _, cry = C.root_pos()
    cdx, cdy = 1 - cxmin, -cry
    _place(pos, C, mc, cdx, cdy)

    arx, _ = ga.root_pos()
    _, _, aymin, _ = bbox(ga)
    lowest = max(bymax + bdy, cymax + cdy)
    _place(pos, ga, ma, -arx, lowest + 1 - aymin)
    return GridDrawing(root_tree, tuple(pos))


def _point_drawing() -> GridDrawing:
    return GridDrawing(complete_tree(1), ((0, 0),))


@lru_cache(maxsize=None)
def draw_c1_only(h: int) -> GridDrawing:
    """1-2 drawing of T_h built with Construction 1 at every level.
    Dimensions: width 2^h - 1, height 2^(h-1)."""
    if h < 1:
        raise TreeError("h must be >= 1")
    if h == 1:
        return _point_drawing()
    g = draw_c1_only(h - 1)
    return construction1(g, g, g, complete_tree(h))


@lru_cache(maxsize=None)
def draw_c2_only(h: int) -> GridDrawing:
    """1-2 drawing of T_h built with Construction 2 at every level.
    Dimensions: (2^(h+1)-1)/3 square for odd h; ((2^(h+1)+1)/3,
    (2^(h+1)-2)/3) for even h."""
    if h < 1:
        raise TreeError("h must be >= 1")
    if h == 1:
        return _point_drawing()
    g = draw_c2_only(h - 1)
    return construction2(g, g, g, complete_tree(h))


@lru_cache(maxsize=None)
def _golden(h: int) -> tuple[GridDrawing, GridDrawing]:
    if h <= 2:
        d = draw_c1_only(h)  # the unique 1-2 drawing for h <= 2
        return d, d
    g1p, g2p = _golden(h - 1)
    t = complete_tree(h)
    g1 = construction1(g1p, g2p, g2p, t)
    g2 = construction2(g2p, g1p, g1p, t)
    return g1, g2


def draw_golden(h: int) -> tuple[GridDrawing, GridDrawing]:
    """Mutual recursion giving Fibonacci-like height growth.

    Returns (g1, g2): g1 is the narrow-height drawing (height follows
    eta(h) = eta(h-1) + eta(h-2) + 1), g2 the narrow-width companion used
    for g1's arms.
    """
    if h < 1:
        raise TreeError("h must be >= 1")
    return _golden(h)


@lru_cache(maxsize=None)
def draw_upper_1149(h: int) -> GridDrawing:
    """Best analytic construction: the center of each level is a
    Construction-1 combination of three drawings two levels down, flanked by
    the previous level's drawings via Construction 2. Width and height both
    stay within O(1.8794^h)."""
    if h < 1:
        raise TreeError("h must be >= 1")
    if h <= 2:
        return draw_c1_only(h)
    inner = draw_upper_1149(h - 2)
    center = construction1(inner, inner, inner, complete_tree(h - 1))
    arm = draw_upper_1149(h - 1)
    return construction2(center, arm, arm, complete_tree(h))
