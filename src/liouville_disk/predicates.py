"""Snapped-coordinate geometry predicates.

Coordinates are snapped to a 2^-40 grid on ingestion, so every predicate has
an exact integer fallback: the float determinant is trusted outside its
rounding-error bound, and borderline cases rescale to integers where Python's
arbitrary precision decides the sign exactly.  This gives arrangement
robustness without a full adaptive-precision kernel.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _cross_solve

SNAP = 2.0**-40
_EPS = np.finfo(float).eps


def snap(points: np.ndarray) -> np.ndarray:
    """Snap coordinates to the 2^-40 grid."""
    return np.round(np.asarray(points, dtype=float) / SNAP) * SNAP


def _as_int(x: float) -> int:
    return int(round(x / SNAP))


def orient2d(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear.

    Float filter first; exact integer arithmetic on the snapped grid when the
    filter is inconclusive.
    """
    detl = (b[0] - a[0]) * (c[1] - a[1])
    detr = (b[1] - a[1]) * (c[0] - a[0])
    det = detl - detr
    errbound = 4.0 * _EPS * (abs(detl) + abs(detr))
    if det > errbound:
        return 1
    if det < -errbound:
        return -1
    ax, ay = _as_int(a[0]), _as_int(a[1])
    bx, by = _as_int(b[0]), _as_int(b[1])
    cx, cy = _as_int(c[0]), _as_int(c[1])
    exact = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (exact > 0) - (exact < 0)


def segment_verdict(p1, p2, q1, q2):
    """Classify how segments p1p2 and q1q2 meet.

    Returns ("proper", s, t) for a transversal interior crossing with
    parameters on each segment, ("none",) when disjoint, and ("degenerate",)
    for touching, collinear, or endpoint configurations.
    """
    d1 = orient2d(q1, q2, p1)
    d2 = orient2d(q1, q2, p2)
    d3 = orient2d(p1, p2, q1)
    d4 = orient2d(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        denom, num_s, num_t = _cross_solve(p2[0] - p1[0], p2[1] - p1[1], q2[0] - q1[0],
                                           q2[1] - q1[1], q1[0] - p1[0], q1[1] - p1[1])
        return ("proper", float(num_s / denom), float(num_t / denom))
    if d1 == 0 or d2 == 0 or d3 == 0 or d4 == 0:
        # a zero orientation only matters if the configurations overlap
        if (
            min(p1[0], p2[0]) <= max(q1[0], q2[0])
            and min(q1[0], q2[0]) <= max(p1[0], p2[0])
            and min(p1[1], p2[1]) <= max(q1[1], q2[1])
            and min(q1[1], q2[1]) <= max(p1[1], p2[1])
        ):
            return ("degenerate",)
    return ("none",)
