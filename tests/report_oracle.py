"""The sort-based verifier the shared node ranking replaced, kept as an
oracle: every check sorts or uniques the coordinates it needs afresh, and
collinear overlaps get a pass of their own. ``oracle_report`` must agree
with ``verify.build_report`` field for field, and ``segment_extents`` with
``geometry.extents``."""

import numpy as np

from ternarydraw.geometry import Extents, GridDrawing, edge_arrays
from ternarydraw.tree import TernaryTree
from ternarydraw.verify import VerificationError, VerificationReport, leg_arm_lengths


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


def segment_extents(P, root, hs, vs):
    """Extents by merging the intervals of the nodes and the runs."""
    rx, ry = P[root]
    w, lw, rw = _union_counts(np.concatenate([P[:, 0], hs[:, 1]]),
                              np.concatenate([P[:, 0], hs[:, 2]]), rx)
    h, th, bh = _union_counts(np.concatenate([P[:, 1], vs[:, 1]]),
                              np.concatenate([P[:, 1], vs[:, 2]]), ry)
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


def _subtree_boxes(P, t: TernaryTree):
    order, start, length = t.walk
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


def oracle_report(d: GridDrawing) -> VerificationReport:
    P = d.pos
    parent, child = edge_arrays(d.tree)
    on_grid = _on_grid(P)
    sep = _separated(P, d.tree, parent, child)
    hs, vs, orthogonal = split_segments(P, parent, child)
    valid = on_grid and orthogonal
    planar = valid and _planar(P, hs, vs)
    top = valid and _top_visible(P, d.tree.root, hs, vs)
    ext = segment_extents(P, d.tree.root, hs, vs)
    leg = lam = rho = None
    if planar:
        try:
            leg, lam, rho = leg_arm_lengths(d)
        except VerificationError:
            pass
    return VerificationReport(planar, orthogonal, on_grid, top, sep, ext, leg, lam, rho)
