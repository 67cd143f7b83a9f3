"""Minimal SVG 1.1 rendering of grid drawings (y grows downward, matching
the drawing convention)."""

from __future__ import annotations

import numpy as np

from .geometry import GridDrawing, bbox, edge_segments

CELL = 16  # pixels per grid unit
RADIUS = 4  # node circle radius, below CELL / 2 so that neighbours never touch
MARGIN = 8


def drawing_to_svg(d: GridDrawing) -> str:
    xmin, xmax, ymin, ymax = bbox(d)
    w = 2 * MARGIN + (xmax - xmin) * CELL
    h = 2 * MARGIN + (ymax - ymin) * CELL
    corner = np.array([xmin, ymin], dtype=object)  # exact: pixels may pass 2**63
    segs = (edge_segments(d) - np.tile(corner, 2)) * CELL + MARGIN
    nodes = (d.pos - corner) * CELL + MARGIN
    root = d.tree.root
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        *(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
          f'stroke="black" stroke-width="1"/>' for x1, y1, x2, y2 in segs.tolist()),
        *(f'<circle cx="{x}" cy="{y}" r="{RADIUS}" '
          f'fill="{"crimson" if v == root else "black"}"/>'
          for v, (x, y) in enumerate(nodes.tolist())),
        "</svg>"])
