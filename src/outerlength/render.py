"""Static SVG renderings of tables, orbits, and auxiliary circles."""

from __future__ import annotations

import numpy as np

from . import billiard
from .genfun import ChordConfig
from .oval import TWO_PI

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
#: longer side of the drawing in pixels, stroke width, boundary points drawn
_SIZE, _STROKE, _BOUNDARY_SAMPLES = 640, 1.5, 720


def _fmt(points):
    return " ".join(f"{x:.4f},{y:.4f}" for x, y in points)


def render_svg(oval, orbits=(), show_circles=False):
    """Compose an SVG drawing: boundary, orbit chords, tangency dots, circles.

    `orbits` is an iterable of OrbitRecord; the dots and the circles of an
    orbit come from one `point_at` and one `auxiliary_circle` call.  The view
    box is fitted to the content with a 10% margin; the y axis points up.
    """
    alphas = np.linspace(0.0, TWO_PI, _BOUNDARY_SAMPLES, endpoint=False)
    boundary = oval.point_at(alphas)
    cloud = np.vstack([boundary] + [rec.vertices for rec in orbits])
    lo = cloud.min(axis=0)
    hi = cloud.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.1 * float(np.max(span))
    lo -= margin
    hi += margin
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    scale = _SIZE / max(width, height)

    def tx(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack(
            [(pts[:, 0] - lo[0]) * scale, (hi[1] - pts[:, 1]) * scale]
        ).tolist()  # Python floats format faster than NumPy scalars

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * scale:.0f}" '
        f'height="{height * scale:.0f}" '
        f'viewBox="0 0 {width * scale:.2f} {height * scale:.2f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<polygon points="{_fmt(tx(boundary))}" fill="none" stroke="black" '
        f'stroke-width="{_STROKE}"/>',
    ]
    for k, rec in enumerate(orbits):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<polyline points="{_fmt(tx(rec.vertices))}" fill="none" stroke="{color}" '
            f'stroke-width="{_STROKE}"/>'
        )
        for x, y in tx(oval.point_at(rec.alphas[:-1])):
            parts.append(
                f'<circle cx="{x:.4f}" cy="{y:.4f}" r="{2.2 * _STROKE:.2f}" '
                f'fill="{color}"/>'
            )
        if show_circles:
            centers, radii = billiard.auxiliary_circle(
                oval, ChordConfig(rec.alphas[:-2], rec.alphas[1:-1]))
            for (cx, cy), radius in zip(tx(centers), radii.tolist()):
                parts.append(
                    f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{radius * scale:.4f}" '
                    f'fill="none" stroke="{color}" stroke-width="{_STROKE / 2}" '
                    f'stroke-dasharray="4 3"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(path, oval, orbits=(), **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(oval, orbits, **kwargs))
