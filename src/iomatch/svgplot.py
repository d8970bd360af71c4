"""Deterministic SVG scatter of two observed datasets with candidate annotations.

Pure string assembly: identical inputs yield byte-identical output except for
the generator-version header line.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

SVG_GENERATOR = "iomatch-svg/1"

_MARGIN = 40.0
_WIDTH = 720.0
_SOURCE_COLORS = ("#1f6fb4", "#c44e52")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_match_svg(
    area: tuple[float, float],
    datasets: Sequence[tuple[str, np.ndarray]],
    candidate_links: tuple[np.ndarray, np.ndarray, np.ndarray],
    title: str = "",
) -> str:
    """Render observed points and candidate-pair annotations.

    ``datasets`` is a sequence of (source_id, ``(n, 2)`` positions); the
    first source is drawn as circles, the second as diamonds.
    ``candidate_links`` holds three columns over the candidate pairs: the
    ``(k, 2)`` positions of each pair's two reports and the ``(k,)``
    type-mismatch flags; each pair gets a translucent circle, mismatched
    pairs a box as well.
    """
    area_w, area_h = area
    scale = (_WIDTH - 2.0 * _MARGIN) / max(area_w, 1e-9)
    height = 2.0 * _MARGIN + area_h * scale

    def px(x: float) -> float:
        return _MARGIN + x * scale

    def py(y: float) -> float:
        return _MARGIN + (area_h - y) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- generator: {SVG_GENERATOR} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN)}" width="{_fmt(area_w * scale)}" '
        f'height="{_fmt(area_h * scale)}" fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MARGIN / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for (ax, ay), (bx, by), mismatch in zip(*(column.tolist() for column in candidate_links)):
        # Halved before the sum and hypot for the radius: finite huge positions must not overflow.
        cx, cy = px(ax / 2.0 + bx / 2.0), py(ay / 2.0 + by / 2.0)
        half = math.hypot(px(ax) - px(bx), py(ay) - py(by)) / 2.0
        r = half + 9.0
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            'fill="#f5d76e" fill-opacity="0.35" stroke="#b8860b" stroke-width="1"/>'
        )
        if mismatch:
            lines.append(
                f'<rect x="{_fmt(cx - r - 4.0)}" y="{_fmt(cy - r - 4.0)}" '
                f'width="{_fmt(2.0 * (r + 4.0))}" height="{_fmt(2.0 * (r + 4.0))}" '
                'fill="none" stroke="#222222" stroke-width="1.5"/>'
            )
    for index, (source_id, positions) in enumerate(datasets):
        color = _SOURCE_COLORS[index % len(_SOURCE_COLORS)]
        for x, y in positions.tolist():
            cx, cy = px(x), py(y)
            if index == 0:
                lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="{color}"/>')
            else:
                lines.append(
                    f'<path d="M {_fmt(cx)} {_fmt(cy - 5.0)} L {_fmt(cx + 5.0)} {_fmt(cy)} '
                    f'L {_fmt(cx)} {_fmt(cy + 5.0)} L {_fmt(cx - 5.0)} {_fmt(cy)} Z" fill="{color}"/>'
                )
        lines.append(
            f'<text x="{_fmt(_MARGIN)}" y="{_fmt(height - _MARGIN / 2.0 + 12.0 * index)}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{source_id}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
