"""Reference scores for the benchmark's output check, written from the paper's
definitions and independent of the program's engine.

The program under test must agree with these to ``PROXIMITY_TOLERANCE`` on
every candidate pair.  Only the standard library is used, so the reference
stays fixed while the engine is rewritten.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

PROXIMITY_TOLERANCE = 1e-12

_SQRT2 = math.sqrt(2.0)
# A Gaussian membership is below 2e-16 beyond this many spreads, so the
# integer-grid search may stop there.
GAUSSIAN_SPAN = 8.5

CERTAINTY = {"certain": 1.0, "probable": 0.7, "possible": 0.5, "doubtful": 0.25}


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def windows_overlap(a: float, sigma_a: float, b: float, sigma_b: float) -> bool:
    """True when the two three-sigma windows intersect."""
    return max(a - 3.0 * sigma_a, b - 3.0 * sigma_b) <= min(a + 3.0 * sigma_a, b + 3.0 * sigma_b)


def quantitative(a: float, sigma_a: float, b: float, sigma_b: float, xi: float) -> float:
    """Joint probability that both true values lie in the overlap of the two
    three-sigma windows, times the confidence coefficient for half-window xi."""
    c = max(a - 3.0 * sigma_a, b - 3.0 * sigma_b)
    d = min(a + 3.0 * sigma_a, b + 3.0 * sigma_b)
    if c > d:
        return 0.0
    p_a = min(1.0, max(0.0, _phi((d - a) / sigma_a) - _phi((c - a) / sigma_a)))
    p_b = min(1.0, max(0.0, _phi((d - b) / sigma_b) - _phi((c - b) / sigma_b)))
    mass_a = 2.0 * (_phi(xi / sigma_a) - 0.5)
    mass_b = 2.0 * (_phi(xi / sigma_b) - 0.5)
    return p_a * p_b * math.sqrt(mass_a * mass_b)


def nominal(label_a: str, label_b: str, delta: float) -> float:
    return 1.0 if label_a == label_b else delta


def _round_half_away(x: float) -> float:
    return float(math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5))


def triangle_relative(rank: float, k: float) -> tuple[float, float, float]:
    """(lower, peak, upper) of the triangle with bounds ROUND(rank*(1 -/+ k))."""
    return _round_half_away(rank * (1.0 - k)), rank, _round_half_away(rank * (1.0 + k))


def triangle_halfwidth(rank: float, width: float) -> tuple[float, float, float]:
    return rank - width, rank, rank + width


def _triangle_at(tri: tuple[float, float, float], height: float, g: float) -> float:
    lo, peak, hi = tri
    if g <= lo or g >= hi:
        return 0.0
    if g <= peak:
        return height * (g - lo) / (peak - lo) if g < peak else height
    return height * (hi - g) / (hi - peak)


def triangular_possibility(
    tri_a: tuple[float, float, float], h_a: float, tri_b: tuple[float, float, float], h_b: float
) -> float:
    """sup_g min(mu_a, mu_b) for two triangles.

    Between the two peaks one side falls and the other rises, so the supremum
    is at a peak or where the falling edge of the left triangle crosses the
    rising edge of the right one; outside the peaks both sides only fall.
    """
    if tri_a[1] > tri_b[1]:
        tri_a, h_a, tri_b, h_b = tri_b, h_b, tri_a, h_a
    (_, p1, hi1), (lo2, p2, _) = tri_a, tri_b
    best = max(
        min(h_a, _triangle_at(tri_b, h_b, p1)),
        min(_triangle_at(tri_a, h_a, p2), h_b),
    )
    if p1 < p2:
        run1, run2 = hi1 - p1, p2 - lo2
        g = (h_a * hi1 * run2 + h_b * lo2 * run1) / (h_a * run2 + h_b * run1)
        if p1 <= g <= p2:
            best = max(best, min(_triangle_at(tri_a, h_a, g), _triangle_at(tri_b, h_b, g)))
    return best


def gaussian_possibility(rank_a: float, h_a: float, rank_b: float, h_b: float, spread: float) -> float:
    """max over integer ranks g of min(mu_a(g), mu_b(g)) for two Gaussians."""
    lo = math.floor(min(rank_a, rank_b) - GAUSSIAN_SPAN * spread)
    hi = math.ceil(max(rank_a, rank_b) + GAUSSIAN_SPAN * spread)
    best = 0.0
    for g in range(lo, hi + 1):
        z_a = (g - rank_a) / spread
        z_b = (g - rank_b) / spread
        best = max(best, min(h_a * math.exp(-0.5 * z_a * z_a), h_b * math.exp(-0.5 * z_b * z_b)))
    return best


def multiplicative(proximities: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted geometric convolution prod(p_l ** w_l); weights sum to 1."""
    result = 1.0
    for p, w in zip(proximities, weights):
        result *= p ** w
    return result


def two_class(quant: Sequence[float], qual: Sequence[float], class_weight: float) -> float:
    """Aggregate proximity of the two-class weighted distance, rescaled by its
    attainable maximum so that it lies in [0, 1]."""
    raw = class_weight * sum(1.0 - p for p in quant) + (1.0 - class_weight) * sum(1.0 - p for p in qual)
    max_raw = class_weight * len(quant) + (1.0 - class_weight) * len(qual)
    return 1.0 - raw / max_raw


def candidates(
    ids_a: Sequence[str],
    ids_b: Sequence[str],
    score: Callable[[int, int], float],
    threshold: float,
    maybe_positive: Callable[[int, int], bool],
) -> dict[tuple[str, str], float]:
    """Pairs scoring above the threshold, keyed by (id_a, id_b).

    ``maybe_positive`` may skip pairs whose score is exactly 0 by definition,
    such as disjoint three-sigma windows under the multiplicative convolution.
    """
    found = {}
    for i, a in enumerate(ids_a):
        for j, b in enumerate(ids_b):
            if maybe_positive(i, j):
                p = score(i, j)
                if p > threshold:
                    found[(a, b)] = p
    return found


def compare_candidates(
    got: Sequence[tuple[str, str, float]], want: dict[tuple[str, str], float]
) -> list[str]:
    """Problems found comparing a program's candidate list with the reference:
    ids must match exactly, proximities to PROXIMITY_TOLERANCE, and the list
    must run from most to least similar."""
    problems = []
    got_ids = {(a, b) for a, b, _ in got}
    if len(got_ids) != len(got):
        problems.append("candidate list repeats a pair")
    missing = sorted(set(want) - got_ids)
    extra = sorted(got_ids - set(want))
    if missing:
        problems.append(f"{len(missing)} reference candidates missing, first {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} candidates not in the reference, first {extra[0]}")
    worst = max((abs(p - want[(a, b)]) for a, b, p in got if (a, b) in want), default=0.0)
    if worst > PROXIMITY_TOLERANCE:
        problems.append(f"candidate proximity off the reference by {worst:.3g}")
    if any(x[2] < y[2] for x, y in zip(got, got[1:])):
        problems.append("candidates are not sorted by decreasing proximity")
    return problems
