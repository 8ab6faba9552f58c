"""Deterministic test fixtures: reference curves, the two figure words, the
Seifert shape, and random glued-positive-loop curves.

All generators are pure functions of their arguments; the CLI `fixtures`
subcommand writes their JSON forms to disk.
"""

from __future__ import annotations

import numpy as np

from ._kernels import segment_hits
from .curves import PolyCurve, turn_blend
from .spectral import TWO_PI


def _catmull_rom_closed(ctrl, samples_per_seg=40):
    """Closed uniform Catmull-Rom spline through ctrl, samples_per_seg points
    per segment: axis 0 runs over segments, axis 1 over the samples."""
    ctrl = np.asarray(ctrl, dtype=float)
    p0, p1, p2, p3 = (np.roll(ctrl, -k, axis=0)[:, None, :] for k in (-1, 0, 1, 2))
    t = np.linspace(0, 1, samples_per_seg, endpoint=False)[:, None]
    t2, t3 = t * t, t * t * t
    pts = 0.5 * (
        2 * p1
        + (-p0 + p2) * t
        + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
        + (-p0 + 3 * p1 - 3 * p2 + p3) * t3
    )
    return pts.reshape(-1, 2)


def _resample_arclength(pts, n):
    d = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T)
    s = np.concatenate([[0], np.cumsum(d)])
    su = np.linspace(0, s[-1], n, endpoint=False)
    x = np.interp(su, s, np.concatenate([pts[:, 0], pts[:1, 0]]))
    y = np.interp(su, s, np.concatenate([pts[:, 1], pts[:1, 1]]))
    return np.column_stack([x, y])


def _rotate(pts, deg):
    a = np.radians(deg)
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return pts @ R.T


def circle(n: int = 256) -> PolyCurve:
    """Unit circle, counter-clockwise, rotation index 1."""
    t = TWO_PI * np.arange(n) / n - np.pi
    return PolyCurve(np.column_stack([np.cos(t), np.sin(t)]))


def limacon(n: int = 512) -> PolyCurve:
    """Inner-loop limacon r = 1 + 2 cos(theta): rotation index 2, one crossing.
    The sampling is offset so the crossing is not a vertex."""
    t = TWO_PI * np.arange(n) / n - np.pi + 0.0123
    r = 1 + 2 * np.cos(t)
    return PolyCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]))


def figure_eight(n: int = 512) -> PolyCurve:
    """Two lobes of opposite orientation: rotation index 0, one crossing.
    Its word of Blank is the non-contractible a0+ b0-."""
    t = TWO_PI * np.arange(n) / n - np.pi + 0.0123
    return PolyCurve(np.column_stack([np.sin(t), np.sin(t) * np.cos(t)]))


def marked_square(points_per_side: int = 8) -> PolyCurve:
    """Axis-aligned unit square with its 4 corners marked: index 1, each
    exterior angle pi/2."""
    k = points_per_side
    side = np.linspace(0, 1, k + 1)[:-1]
    pts = (
        [[x, 0.0] for x in side]
        + [[1.0, y] for y in side]
        + [[1.0 - x, 1.0] for x in side]
        + [[0.0, 1.0 - y] for y in side]
    )
    corners = {0: None, k: None, 2 * k: None, 3 * k: None}
    return PolyCurve(np.asarray(pts), corners=corners)


def tangent_touch(n: int = 1536) -> PolyCurve:
    """Circle with a deep dent whose tip touches the opposite wall at (0, -1)
    with quadratic contact: jitter resolves it to 0 or 2 transversal crossings
    depending on the seed, and the rotation index 1 is invariant."""
    w = 0.5
    t = TWO_PI * np.arange(8 * n) / (8 * n) - np.pi + 0.0123
    x = np.cos(t)
    y = np.sin(t) - 2.0 * np.exp(-(((np.mod(t - np.pi / 2 + np.pi, TWO_PI) - np.pi) / w) ** 2))
    return PolyCurve(_resample_arclength(np.column_stack([x, y]), n))


def _curl_double_loop(curl_at: float, n: int) -> np.ndarray:
    """Double counter-clockwise loop (radii 2 and 1) joined by a crossed neck
    at the bottom, with a clockwise curl poking out of the inner loop: two
    crossings, rotation index 1, windings 2 / 1 / 0."""
    ctrl = []
    for a in np.linspace(-70, 250, 30, endpoint=True)[1:-1]:
        ctrl.append([2 * np.cos(np.radians(a)), 2 * np.sin(np.radians(a))])
    ctrl.append([2 * np.cos(np.radians(250)), 2 * np.sin(np.radians(250))])
    ctrl.append([0.55, -1.50])
    for a in np.linspace(-70, curl_at - 10, 16, endpoint=True):
        ctrl.append([np.cos(np.radians(a)), np.sin(np.radians(a))])
    base = [
        [0.10, 1.03],
        [0.085, 1.18],
        [0.13, 1.32],
        [0.28, 1.42],
        [0.42, 1.35],
        [0.46, 1.18],
        [0.36, 1.06],
        [0.10, 1.045],
    ]
    rot = np.radians(curl_at - 90.0)
    R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
    ctrl += [(R @ np.asarray(p)).tolist() for p in base]
    for a in np.linspace(curl_at + 10, 250, 10, endpoint=True):
        ctrl.append([np.cos(np.radians(a)), np.sin(np.radians(a))])
    ctrl.append([-0.55, -1.50])
    ctrl.append([0.8, -1.9])
    return _resample_arclength(_catmull_rom_closed(ctrl), n)


def fblank_first(n: int = 2048) -> PolyCurve:
    """The extendable five-letter figure: its word of Blank reads
    a0- b1+ c0+ a1+ b0+ up to rotation and renaming, and contracts fully."""
    return PolyCurve(_rotate(_curl_double_loop(150.0, n), 100.0))


def fblank_second(n: int = 512) -> PolyCurve:
    """The non-extendable figure: the figure-eight, word a0+ b0-."""
    return figure_eight(n)


def fseifert(n: int = 2048) -> PolyCurve:
    """Rotation-index-1 curve with two crossings splitting into three simple
    oriented loops (two positive, one negative)."""
    return PolyCurve(_curl_double_loop(150.0, n))


def _two_polyline_intersections(A: np.ndarray, B: np.ndarray):
    """Proper intersections between closed polylines A and B:
    (edge_a, s, edge_b, t, point) tuples in row-major (edge_a, edge_b) order.

    They are the clean hits of _kernels.segment_hits on the edges of A and B
    stacked, with no neighbour skipped, between an A edge and a B edge.
    """
    a0, a1 = A, np.roll(A, -1, axis=0)
    ends = np.vstack([a1, np.roll(B, -1, axis=0)])
    i, j, u, v, suspect = segment_hits(np.vstack([a0, B]), ends, skip_neighbors=0)
    keep = (i < len(A)) & (j >= len(A)) & (suspect == 0)  # i < j in every pair
    return [(int(ia), float(s), int(jb) - len(A), float(t), a0[ia] + s * (a1[ia] - a0[ia]))
            for ia, s, jb, t in zip(i[keep], u[keep], j[keep], v[keep])]


def splice_curves(chain: np.ndarray, B: np.ndarray, d_trim: float) -> np.ndarray:
    """Orientation-coherent splice of closed polyline B into closed polyline
    chain at the upper of their intersection points (rounded apart so both
    passages are disjoint); the remaining intersections stay transversal
    crossings.  Gluing two curves this way adds their rotation indices minus
    one for each crossing consumed by the smoothing; for a single overlap
    lens, index(out) = index(chain) + index(B)."""
    hits = _two_polyline_intersections(chain, B)
    if not hits:
        raise RuntimeError("curves to splice do not intersect")
    hits.sort(key=lambda h: -h[4][1])
    ia, _sa, jb, _tb, p = hits[0]
    fwd_b = np.vstack([B[(jb + 1 + k) % len(B)] for k in range(len(B))])
    spliced = np.vstack([chain[: ia + 1], p[None, :], fwd_b, p[None, :], chain[ia + 1 :]])
    occ = np.nonzero((spliced == p).all(axis=1))[0]
    # rotate the cyclic array so both passages sit well inside it
    gap_mid = (occ[1] + (occ[0] + len(spliced) - occ[1]) // 2) % len(spliced)
    spliced = np.roll(spliced, -gap_mid, axis=0)
    idx = sorted(np.nonzero((spliced == p).all(axis=1))[0], reverse=True)
    for q in idx:
        kb = q - 1
        while np.hypot(*(spliced[kb] - p)) < d_trim:
            kb -= 1
        ke = q + 1
        while np.hypot(*(spliced[ke] - p)) < d_trim:
            ke += 1
        blend = turn_blend(spliced[kb], p, spliced[ke], 0.08)
        spliced = np.vstack([spliced[: kb + 1], blend, spliced[ke:]])
    d = np.hypot(*np.diff(np.vstack([spliced, spliced[:1]]), axis=0).T)
    return spliced[np.concatenate([[True], d[:-1] > 1e-9])]


def glued_positive_loops(m: int, seed: int, n_per: int = 128):
    """Chain of m counter-clockwise circles spliced orientation-coherently at
    one of each overlap's two intersection points (rounded apart), leaving the
    other as a transversal crossing.

    The result has rotation index m, an all-positive word of Blank, and
    Seifert-splits back into m positive loops.  Returns (curve, m).
    """
    rng = np.random.default_rng(seed)
    if not 1 <= m <= 8:
        raise ValueError("m must be between 1 and 8")
    radii = rng.uniform(0.6, 1.4, size=m)
    centers = [np.array([0.0, 0.0])]
    for i in range(1, m):
        gap = radii[i - 1] + radii[i] - 0.45 * min(radii[i - 1], radii[i])
        centers.append(centers[-1] + np.array([gap, 0.0]))
    phases = rng.uniform(0, TWO_PI, size=m)

    def loop(i):
        t = TWO_PI * np.arange(n_per) / n_per + phases[i]
        return centers[i] + radii[i] * np.column_stack([np.cos(t), np.sin(t)])

    chain = loop(0)
    for i in range(1, m):
        d_trim = 0.45 * TWO_PI * min(radii[i - 1], radii[i]) / n_per
        chain = splice_curves(chain, loop(i), d_trim)
    return PolyCurve(chain), m


def double_pocket(n: int = 2048) -> PolyCurve:
    """Two copies of the five-letter figure spliced into one curve: rotation
    index 2, two winding-zero pockets, and a word whose contraction takes two
    steps (one per pocket).  The second copy sits along the 100-degree
    direction so the overlap lens touches only clean outer arcs (both neck
    gaps face away from it)."""
    a = _rotate(_curl_double_loop(150.0, n), 100.0)
    off = 3.7 * np.array([np.cos(np.radians(100.0)), np.sin(np.radians(100.0))])
    b = a + off
    d_trim = 0.45 * float(np.median(np.hypot(*np.diff(a, axis=0).T)))
    return PolyCurve(splice_curves(a, b, 6 * d_trim))


FIXTURES = {
    "circle": lambda: circle(),
    "limacon": lambda: limacon(),
    "figure-eight": lambda: figure_eight(),
    "square": lambda: marked_square(),
    "tangent-touch": lambda: tangent_touch(),
    "fblank-1": lambda: fblank_first(),
    "fblank-2": lambda: fblank_second(),
    "fseifert": lambda: fseifert(),
    "double-pocket": lambda: double_pocket(),
}
