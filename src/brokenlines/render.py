"""SVG pictures of a field: its crossing lines and its brick diagram.

Lines are drawn in the (t, x) plane with stroke widths proportional to
their weights; the brick diagram shows one brick per site with dotted
verticals at every breakpoint, strip colors matching the line picture.
"""

from __future__ import annotations

from .flow import FlowField
from .lattice import require_rect
from .lines import BrickDiagram, Decomposition, brick_diagram

_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)


def _color(j: int) -> str:
    return _PALETTE[(j - 1) % len(_PALETTE)]


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    return "\n".join([head, *body, "</svg>"])


def _lines_group(field: FlowField, dec: Decomposition, offset_x: float) -> tuple[list[str], float, float]:
    domain = field.domain
    sites = domain.closure
    ts = [t for t, _ in sites]
    xs = [x for _, x in sites]
    scale = 28.0
    pad = 24.0
    width = (max(ts) - min(ts)) * scale + 2 * pad
    height = (max(xs) - min(xs)) * scale + 2 * pad

    def pos(y):
        return (
            offset_x + pad + (y[0] - min(ts)) * scale,
            pad + (max(xs) - y[1]) * scale,
        )

    total = dec.total_weight() or 1.0
    body = ["<g>"]
    for j, (trace, w) in enumerate(dec, start=1):
        pts = " ".join(f"{px:.1f},{py:.1f}" for px, py in map(pos, trace.sites))
        stroke = max(1.0, 10.0 * float(w) / float(total))
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{_color(j)}" '
            f'stroke-width="{stroke:.2f}" stroke-linejoin="round" opacity="0.85"/>'
        )
    for y in sites:
        px, py = pos(y)
        fill = "#222" if domain.contains(y) else "#bbb"
        body.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.2" fill="{fill}"/>')
    body.append("</g>")
    return body, width, height


def _bricks_group(
    field: FlowField, diagram: BrickDiagram, offset_x: float
) -> tuple[list[str], float, float]:
    domain = field.domain
    q = diagram.breakpoints
    total = float(q[-1]) if q[-1] else 1.0
    scale = 360.0 / total
    pad = 24.0
    row_h = 26.0
    xs = sorted({x for _, x in domain.sites}, reverse=True)
    rows = {x: i for i, x in enumerate(xs)}
    height = len(xs) * row_h + 2 * pad
    width = total * scale + 2 * pad

    def hx(value) -> float:
        return offset_x + pad + float(value) * scale

    body = ["<g>"]
    for j in range(1, diagram.strip_count + 1):
        x0, x1 = hx(q[j - 1]), hx(q[j])
        body.append(
            f'<rect x="{x0:.1f}" y="{pad:.1f}" width="{x1 - x0:.1f}" '
            f'height="{height - 2 * pad:.1f}" fill="{_color(j)}" opacity="0.12"/>'
        )
    for y in domain.sites:
        t, x = y
        row = rows[x]
        top, bottom = pad + row * row_h, pad + (row + 1) * row_h
        west = hx(diagram.heights[(t - 1, x)])
        east = hx(diagram.heights[(t + 1, x)])
        body.append(
            f'<rect x="{west:.1f}" y="{top:.1f}" width="{east - west:.1f}" '
            f'height="{row_h:.1f}" fill="none" stroke="#333" stroke-width="1"/>'
        )
        north = hx(diagram.heights[(t, x + 1)])
        south = hx(diagram.heights[(t, x - 1)])
        body.append(
            f'<line x1="{north:.1f}" y1="{top:.1f}" x2="{north:.1f}" '
            f'y2="{top + 6:.1f}" stroke="#333" stroke-width="1"/>'
        )
        body.append(
            f'<line x1="{south:.1f}" y1="{bottom - 6:.1f}" x2="{south:.1f}" '
            f'y2="{bottom:.1f}" stroke="#333" stroke-width="1"/>'
        )
    for value in q:
        px = hx(value)
        body.append(
            f'<line x1="{px:.1f}" y1="{pad:.1f}" x2="{px:.1f}" y2="{height - pad:.1f}" '
            'stroke="#555" stroke-width="0.8" stroke-dasharray="3,3"/>'
        )
    body.append("</g>")
    return body, width, height


def render_field_svg(field: FlowField, what: str = "both") -> str:
    """Render a rectangular field; ``what`` is one of lines/bricks/both."""
    if what not in ("lines", "bricks", "both"):
        raise ValueError("what must be lines, bricks, or both")
    require_rect(field.domain, "rendering")
    diagram = brick_diagram(field)
    dec = diagram.decomposition()
    if len(dec) == 0:
        return _svg(220, 40, ['<text x="10" y="25" font-size="14">empty field</text>'])
    parts: list[str] = []
    offset = 0.0
    height = 0.0
    if what in ("lines", "both"):
        body, w, h = _lines_group(field, dec, offset)
        parts.extend(body)
        offset += w
        height = max(height, h)
    if what in ("bricks", "both"):
        body, w, h = _bricks_group(field, diagram, offset)
        parts.extend(body)
        offset += w
        height = max(height, h)
    return _svg(offset, height, parts)
