"""Minimal SVG 1.1 rendering of grid drawings (y grows downward, matching
the drawing convention)."""

from __future__ import annotations

from dataclasses import dataclass

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

    def px(x: int) -> int:
        return m + (x - xmin) * cell

    def py(y: int) -> int:
        return m + (y - ymin) * cell

    w = 2 * m + (xmax - xmin) * cell
    h = 2 * m + (ymax - ymin) * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    ]
    for x1, y1, x2, y2 in edge_segments(d):
        parts.append(
            f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" '
            f'stroke="black" stroke-width="1"/>'
        )
    root = d.tree.root
    for v, (x, y) in enumerate(d.pos):
        fill = "crimson" if v == root else "black"
        parts.append(
            f'<circle cx="{px(x)}" cy="{py(y)}" r="{spec.node_radius}" fill="{fill}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
