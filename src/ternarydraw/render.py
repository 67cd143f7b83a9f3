"""Minimal SVG 1.1 rendering of grid drawings (y grows downward, matching
the drawing convention)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GridDrawing, bbox, edge_segments


@dataclass(frozen=True)
class RenderSpec:
    cell_size: int = 16
    node_radius: int = 4
    margins: int = 8

    def __post_init__(self) -> None:
        if not self.cell_size > 2 * self.node_radius:
            raise ValueError("cell_size must exceed twice the node radius")


def drawing_to_svg(d: GridDrawing, spec: RenderSpec = RenderSpec()) -> str:
    xmin, xmax, ymin, ymax = bbox(d)
    cell, m = spec.cell_size, spec.margins
    w = 2 * m + (xmax - xmin) * cell
    h = 2 * m + (ymax - ymin) * cell
    corner = np.array([xmin, ymin], dtype=object)  # exact: pixels may pass 2**63
    segs = (edge_segments(d) - np.tile(corner, 2)) * cell + m
    nodes = (d.pos - corner) * cell + m
    root = d.tree.root
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        *(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
          f'stroke="black" stroke-width="1"/>' for x1, y1, x2, y2 in segs.tolist()),
        *(f'<circle cx="{x}" cy="{y}" r="{spec.node_radius}" '
          f'fill="{"crimson" if v == root else "black"}"/>'
          for v, (x, y) in enumerate(nodes.tolist())),
        "</svg>"])
