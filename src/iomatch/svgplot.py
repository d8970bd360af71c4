"""Deterministic SVG scatter of two observed datasets with candidate annotations.

Pure string assembly: identical inputs yield byte-identical output except for
the generator-version header line.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Sequence

import numpy as np

from .dataio import interleave

SVG_GENERATOR = "iomatch-svg/1"

_MARGIN = 40.0
_WIDTH = 720.0
_SOURCE_COLORS = ("#1f6fb4", "#c44e52")
_BOX = '<rect x="{}" y="{}" width="{}" height="{}" fill="none" stroke="#222222" stroke-width="1.5"/>\n'


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _texts(values: np.ndarray) -> list[str]:
    """``_fmt`` of each value of a 1-D array, in one ``map``."""
    return list(map(format, values.tolist(), repeat(".2f")))


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

    Each pixel coordinate is computed for a whole column at once: every
    value is one IEEE ``+`` or ``*`` at a time, so numpy gives the doubles
    the same arithmetic on Python floats gives.  Each column is rendered by
    one ``map`` and each kind of element joined once by ``interleave``.
    """
    area_w, area_h = area
    scale = (_WIDTH - 2.0 * _MARGIN) / max(area_w, 1e-9)
    height = 2.0 * _MARGIN + area_h * scale

    def px(x):
        return _MARGIN + x * scale

    def py(y):
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
    parts = ["\n".join(lines) + "\n"]
    a, b, mismatch = candidate_links
    mismatch = np.asarray(mismatch, dtype=bool)
    # Huge finite positions may overflow a pixel coordinate to inf (and a
    # difference of two to nan), as the same Python arithmetic would.
    with np.errstate(over="ignore", invalid="ignore"):
        # Halved before the sum and hypot for the radius: finite huge positions must not overflow.
        cx, cy = px(a[:, 0] / 2.0 + b[:, 0] / 2.0), py(a[:, 1] / 2.0 + b[:, 1] / 2.0)
        dx, dy = px(a[:, 0]) - px(b[:, 0]), py(a[:, 1]) - py(b[:, 1])
        r = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx)) / 2.0 + 9.0
        box = [cx[mismatch] - r[mismatch] - 4.0, cy[mismatch] - r[mismatch] - 4.0, 2.0 * (r[mismatch] + 4.0)]
        boxes = np.full(len(r), "", dtype=object)
        x, y, side = map(_texts, box)
        boxes[mismatch] = list(map(_BOX.format, x, y, side, side))
        parts.append(interleave([
            '<circle cx="', _texts(cx), '" cy="', _texts(cy), '" r="', _texts(r),
            '" fill="#f5d76e" fill-opacity="0.35" stroke="#b8860b" stroke-width="1"/>\n', boxes.tolist(),
        ]))
        for index, (source_id, positions) in enumerate(datasets):
            color = _SOURCE_COLORS[index % len(_SOURCE_COLORS)]
            cx, cy = px(positions[:, 0]), py(positions[:, 1])
            x, y = _texts(cx), _texts(cy)
            if index == 0:
                parts.append(interleave(['<circle cx="', x, '" cy="', y, f'" r="4" fill="{color}"/>\n']))
            else:
                parts.append(interleave([
                    '<path d="M ', x, " ", _texts(cy - 5.0), " L ", _texts(cx + 5.0), " ", y,
                    " L ", x, " ", _texts(cy + 5.0), " L ", _texts(cx - 5.0), " ", y, f' Z" fill="{color}"/>\n',
                ]))
            parts.append(
                f'<text x="{_fmt(_MARGIN)}" y="{_fmt(height - _MARGIN / 2.0 + 12.0 * index)}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{source_id}</text>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)
