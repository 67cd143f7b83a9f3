"""The verifier's oracles.

The sort-based verifier the shared node ranking replaced: every check sorts
or uniques the coordinates it needs afresh, collinear overlaps get a pass of
their own, and the leg and arms are measured by the old per-node chain walk.
``oracle_report`` must agree with ``verify.build_report`` field for field,
and ``segment_extents`` with ``geometry.extents``.

Beside it, the brute-force checks ``naive_check_planar`` (all edge pairs),
``brute_top_visible`` (every edge against the root's half-line) and
``brute_subtree_separation`` (all node-disjoint subtree pairs), for small
drawings only."""

import numpy as np

from ternarydraw.geometry import Extents, GridDrawing, edge_arrays, edge_segments
from ternarydraw.tree import TernaryTree
from ternarydraw.verify import VerificationError, VerificationReport


def split_segments(P, parent, child):
    """The horizontal runs (y, x1, x2) and the vertical runs (x, y1, y2) with
    lo < hi, and whether every edge is axis-parallel with positive length."""
    a, b = P[parent], P[child]
    dx, dy = a[:, 0] != b[:, 0], a[:, 1] != b[:, 1]
    h, v = dx & ~dy, dy & ~dx

    def runs(mask, line):
        ends = 1 - line
        return np.stack([a[mask, line], np.minimum(a[mask, ends], b[mask, ends]),
                         np.maximum(a[mask, ends], b[mask, ends])], axis=1)

    return runs(h, 1), runs(v, 0), bool(np.all(dx != dy))


def _union_counts(lo, hi, pivot):
    """Integer points covered by the union of the closed intervals [lo, hi]:
    total, strictly below pivot, strictly above pivot."""
    order = np.argsort(lo)
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    first = np.empty(len(lo), bool)
    first[0] = True
    first[1:] = lo[1:] > reach[:-1] + 1
    starts, ends = lo[first], reach[np.append(first[1:], True)]
    total = (ends - starts + 1).sum()
    below = np.maximum(np.minimum(ends, pivot - 1) - starts + 1, 0).sum()
    above = np.maximum(ends - np.maximum(starts, pivot + 1) + 1, 0).sum()
    return total.item(), below.item(), above.item()


def segment_extents(P, root, parent, child):
    """Extents by merging the intervals of the nodes and of the edges' spans
    along each axis, a diagonal edge's included."""
    a, b = P[parent], P[child]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    (w, lw, rw), (h, th, bh) = (_union_counts(np.concatenate([P[:, i], lo[:, i]]),
                                              np.concatenate([P[:, i], hi[:, i]]), P[root, i])
                                for i in (0, 1))
    return Extents(w, h, lw, rw, th, bh)


def _on_grid(P):
    S = P[np.lexsort((P[:, 0], P[:, 1]))]
    return not np.any((S[1:, 0] == S[:-1, 0]) & (S[1:, 1] == S[:-1, 1]))


def _ranks(*columns):
    values, rank = np.unique(np.concatenate(columns), return_inverse=True)
    return len(values), np.split(rank, np.cumsum([len(c) for c in columns[:-1]]))


def _node_inside(line, at, runs, width):
    base = runs[:, 0] * width
    _, (_, lo, hi) = _ranks(line * width + at, base + runs[:, 1], base + runs[:, 2])
    return bool(np.any(hi - lo > 1))


def _collinear_overlap(runs, width):
    if len(runs) < 2:
        return False
    r = runs[np.lexsort((runs[:, 1], runs[:, 0]))]
    reach = np.maximum.accumulate(r[:, 0] * width + r[:, 2])
    return bool(np.any(reach[:-1] > r[1:, 0] * width + r[1:, 1]))


def _interior_crossing(hs, vs, height):
    if not len(hs) or not len(vs):
        return False
    hs = hs[np.argsort(hs[:, 1])]
    vs = vs[np.argsort(vs[:, 0], kind="stable")]
    lo = np.searchsorted(vs[:, 0], hs[:, 1], "right")
    hi = np.searchsorted(vs[:, 0], hs[:, 2], "left")
    keep = lo < hi
    lo, hi, y = lo[keep], hi[keep], hs[keep, 0]
    slot = np.arange(len(vs))
    order = slot
    k = 0
    while len(lo):
        keys = (slot >> k) * height + vs[order, 1]
        if k:
            sort = np.argsort(keys, kind="stable")
            order, keys = order[sort], keys[sort]
        reach = np.maximum.accumulate((slot >> k) * height + vs[order, 2])
        left, right = (lo & 1) == 1, (hi & 1) == 1
        block = np.concatenate([lo[left], hi[right] - 1])
        q = block * height + np.concatenate([y[left], y[right]])
        at = np.searchsorted(keys, q, "left")
        hit = at > (block << k)
        if np.any(reach[at[hit] - 1] > q[hit]):
            return True
        lo, hi = (lo + left) >> 1, (hi - right) >> 1
        keep = lo < hi
        lo, hi, y = lo[keep], hi[keep], y[keep]
        k += 1
    return False


def _planar(P, hs, vs):
    nx, (rx, hx1, hx2, vx) = _ranks(P[:, 0], hs[:, 1], hs[:, 2], vs[:, 0])
    ny, (ry, hy, vy1, vy2) = _ranks(P[:, 1], hs[:, 0], vs[:, 1], vs[:, 2])
    H, V = np.stack([hy, hx1, hx2], axis=1), np.stack([vx, vy1, vy2], axis=1)
    return not (_node_inside(ry, rx, H, nx) or _node_inside(rx, ry, V, ny)
                or _collinear_overlap(H, nx) or _collinear_overlap(V, ny)
                or _interior_crossing(H, V, ny))


def _top_visible(P, root, hs, vs):
    rx, ry = P[root]
    return not (np.any((P[:, 0] == rx) & (P[:, 1] < ry))
                or np.any((hs[:, 0] < ry) & (hs[:, 1] <= rx) & (rx <= hs[:, 2]))
                or np.any((vs[:, 0] == rx) & (vs[:, 1] < ry)))


def parents_first(t: TernaryTree) -> list[int]:
    """t's nodes in the preorder of a stack walk that pushes each node's
    children in slot order: every parent before its children, and every
    subtree one block of that order."""
    table, order, stack = t.table.tolist(), [], [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(c for c in table[v] if c >= 0)
    return order


def _subtree_boxes(P, t: TernaryTree):
    """Per node id, (xmin, ymin, -xmax, -ymax) over its subtree: a subtree is
    the block of its size from its root on in a preorder, and each block's
    minimum comes from a sparse table of power-of-two windows."""
    order, length, parents = parents_first(t), [1] * t.n, t.parents.tolist()
    for v in reversed(order[1:]):
        length[parents[v]] += length[v]
    order, length = np.array(order), np.array(length)
    start = np.empty_like(order)
    start[order] = np.arange(t.n)
    level = np.frexp(length)[1] - 1
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(level.max() + 2))
    Q = P[order]
    table = np.concatenate([Q, -Q], axis=1)
    box = np.empty_like(table)
    for k in range(len(bounds) - 1):
        if k:
            w = 1 << (k - 1)
            table = np.minimum(table[:-w], table[w:])
        v = by_level[bounds[k]:bounds[k + 1]]
        a = start[v]
        box[v] = np.minimum(table[a], table[a + length[v] - (1 << k)])
    return box


def _separated(P, t, parent, child):
    box = _subtree_boxes(P, t)
    for gap in (1, 2):
        sib = parent[:-gap] == parent[gap:]
        a, b = box[child[:-gap][sib]], box[child[gap:][sib]]
        if np.any(np.all(a[:, :2] + b[:, 2:] <= 0, axis=1) & np.all(b[:, :2] + a[:, 2:] <= 0, axis=1)):
            return False
    return True


def oracle_leg_arm_lengths(d: GridDrawing) -> tuple[int, int, int]:
    """verify.leg_arm_lengths before it became one walk per chain: the leg's
    direction from sign arithmetic, the arms looked up in a dict of
    directions, and each chain followed until a leaf and checked against h.
    It can raise KeyError where both arms lie on one side of the root, and
    returns lengths for some off-grid drawings with a child on the root's
    point, where leg_arm_lengths raises VerificationError.

    The leg starts at the root child that shares its line through the root
    with no sibling; the arms are the two children on the other line. Left
    and right are assigned so that left arm, leg, right arm occur
    counterclockwise around the root. Each path descends through the unique
    child drawn on the same line; if that child is not unique the drawing is
    too ambiguous to measure and VerificationError is raised.
    """
    t = d.tree
    h = t.complete_height
    if h is None:
        raise VerificationError("leg/arm lengths are defined for complete ternary trees")
    if h == 1:
        return 1, 1, 1
    P = d.pos
    rx, ry = d.root_pos()
    kids = t.table[t.root].tolist()  # a complete tree's inner nodes have 3 children
    on_row = [c for c in kids if P[c, 1] == ry]
    on_col = [c for c in kids if P[c, 0] == rx]
    if len(on_row) == 1 and len(on_col) == 2:
        leg_child, arm_children = on_row[0], on_col
    elif len(on_col) == 1 and len(on_row) == 2:
        leg_child, arm_children = on_col[0], on_row
    else:
        raise VerificationError("cannot identify a unique leg among the root children")

    def chain_length(start: int, vertical: bool) -> int:
        fixed = rx if vertical else ry
        coords = [ry if vertical else rx]
        cur = start
        count = 2
        while True:
            x, y = P[cur].tolist()
            if (x if vertical else y) != fixed:
                raise VerificationError("path left its line")
            coords.append(y if vertical else x)
            if t.table[cur, 0] < 0:  # a leaf
                break
            on_line = [c for c in t.table[cur].tolist() if P[c, 0 if vertical else 1] == fixed]
            if len(on_line) != 1:
                raise VerificationError("chain continuation is ambiguous")
            cur = on_line[0]
            count += 1
        if count != h:
            raise VerificationError("collinear chain does not reach depth h")
        return max(coords) - min(coords) + 1

    lx, ly = P[leg_child].tolist()
    leg_vertical = lx == rx
    gamma = chain_length(leg_child, leg_vertical)
    # screen coords are y-down; counterclockwise order left arm, leg, right
    # arm puts the left arm at the leg direction rotated to (-dy, dx)
    ldx = 1 if lx > rx else (-1 if lx < rx else 0)
    ldy = 1 if ly > ry else (-1 if ly < ry else 0)
    left_dir = (-ldy, ldx)
    arms = {}
    for c in arm_children:
        cx, cy = P[c].tolist()
        adx = 1 if cx > rx else (-1 if cx < rx else 0)
        ady = 1 if cy > ry else (-1 if cy < ry else 0)
        arms[(adx, ady)] = c
    if left_dir not in arms:
        raise VerificationError("arm directions are inconsistent with the leg")
    left_child = arms[left_dir]
    right_child = arms[(-left_dir[0], -left_dir[1])]
    lam = chain_length(left_child, not leg_vertical)
    rho = chain_length(right_child, not leg_vertical)
    return gamma, lam, rho


def oracle_report(d: GridDrawing) -> VerificationReport:
    P = d.pos
    parent, child = edge_arrays(d.tree)
    on_grid = _on_grid(P)
    sep = _separated(P, d.tree, parent, child)
    hs, vs, orthogonal = split_segments(P, parent, child)
    valid = on_grid and orthogonal
    planar = valid and _planar(P, hs, vs)
    top = valid and _top_visible(P, d.tree.root, hs, vs)
    ext = segment_extents(P, d.tree.root, parent, child)
    leg = lam = rho = None
    if planar:
        try:
            leg, lam, rho = oracle_leg_arm_lengths(d)
        except VerificationError:
            pass
    return VerificationReport(planar, orthogonal, on_grid, top, sep, ext, leg, lam, rho)


def naive_check_planar(d: GridDrawing) -> bool:
    """O(m^2) all-pairs oracle for check_planar (numpy-vectorized brute
    force). Intended for m <= a few thousand."""
    if not (_on_grid(d.pos) and split_segments(d.pos, *edge_arrays(d.tree))[2]):
        raise ValueError("naive_check_planar requires an orthogonal grid drawing")
    x1, y1, x2, y2 = edge_segments(d).T
    h, v = y1 == y2, x1 == x2
    hy, hx1, hx2 = hs = np.stack([y1[h], np.minimum(x1, x2)[h], np.maximum(x1, x2)[h]])
    vx, vy1, vy2 = vs = np.stack([x1[v], np.minimum(y1, y2)[v], np.maximum(y1, y2)[v]])
    px, py = d.pos.T
    # node strictly inside a horizontal / vertical edge
    if np.any((py[:, None] == hy) & (px[:, None] > hx1) & (px[:, None] < hx2)):
        return False
    if np.any((px[:, None] == vx) & (py[:, None] > vy1) & (py[:, None] < vy2)):
        return False
    # proper overlap of two edges on one line
    for line, lo, hi in (hs, vs):
        ov = (line[:, None] == line) & (lo[:, None] < hi) & (lo < hi[:, None])
        np.fill_diagonal(ov, False)
        if np.any(ov):
            return False
    cross = ((vx >= hx1[:, None]) & (vx <= hx2[:, None])
             & (hy[:, None] >= vy1) & (hy[:, None] <= vy2))
    shared_endpoint = (((vx == hx1[:, None]) | (vx == hx2[:, None]))
                       & ((hy[:, None] == vy1) | (hy[:, None] == vy2)))
    return not np.any(cross & ~shared_endpoint)


def brute_top_visible(d: GridDrawing) -> bool:
    """Oracle for an orthogonal drawing: no edge meets the open half-line
    going up from the root. Each node other than a lone root ends an edge."""
    xr, yr = d.root_pos()
    return not any(min(x1, x2) <= xr <= max(x1, x2) and min(y1, y2) < yr
                   for x1, y1, x2, y2 in edge_segments(d).tolist())


def brute_subtree_separation(d: GridDrawing) -> bool:
    """Oracle: check ALL node-disjoint subtree pairs (ancestry-free node
    pairs), each box taken over the subtree's members found from ancestor
    sets. O(n^2); for small drawings only."""
    n, pos, parents = d.tree.n, d.pos.tolist(), d.tree.parents.tolist()
    ancestors: list[set[int]] = [set() for _ in range(n)]
    for v in parents_first(d.tree):
        p = parents[v]
        if p >= 0:
            ancestors[v] = ancestors[p] | {p}
    boxes = []
    for u in range(n):
        members = [pos[w] for w in range(n) if w == u or u in ancestors[w]]
        xs, ys = [x for x, _ in members], [y for _, y in members]
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
    for u in range(n):
        for v in range(u + 1, n):
            if u in ancestors[v] or v in ancestors[u]:
                continue
            a, b = boxes[u], boxes[v]
            if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                return False
    return True
