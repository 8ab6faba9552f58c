"""Closed planar polylines with corner markers: the discrete stand-in for
piecewise-C1 curves.

A PolyCurve is a read-only value: its constructor derives the edge frame
once, and rotation_index, self_intersections and jitter read it from there.

Rotation index = (smooth turning along arcs + exterior angles at corners) /
2*pi, asserted to land on an integer within the 0.05 rounding guard.  The
exterior angle at a corner lives in [-pi, pi]; exactly reversed tangents are
resolved by a side probe three edges out (left turn gets +pi).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._kernels import _cross_solve, segment_hits
from .errors import (
    InvalidInput,
    JitterTooLarge,
    NotGenericPosition,
    NumericalInconsistency,
    TieBreakAmbiguous,
)
from .predicates import orient2d, segment_verdict, snap
from .spectral import TWO_PI, ValueEquality

MAX_SMOOTH_TURN = 0.3
TRANSVERSALITY_ANGLE = 0.05
FILLET_SPAN = 4  # edges on each side of a corner that fillet_corners rounds


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def _vertex_turns(angles: np.ndarray) -> np.ndarray:
    """The wrapped turn at each vertex of a closed polyline whose edge k has
    direction angles[k]: angles[k] - angles[k - 1], in (-pi, pi]."""
    return wrap_angle(angles - np.concatenate([angles[-1:], angles[:-1]]))


@dataclass(frozen=True, eq=False)
class PolyCurve(ValueEquality):
    """Closed polyline, a read-only value.  corners maps vertex index ->
    (tangent_in, tangent_out) angles, or None where the incident edge
    directions stand in for them.  The constructor derives the edge frame
    once, read-only: edges[k] = vertices[k + 1] - vertices[k] (cyclically),
    their lengths and direction angles, and turns[k], the wrapped turn at
    vertex k from edge k - 1 to edge k.  Two curves are equal, and hash
    alike, when their snapped vertices and their corners are
    (spectral.ValueEquality); the frame takes no part."""

    vertices: np.ndarray
    corners: Mapping = field(default_factory=dict)
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    turns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = snap(np.asarray(self.vertices, dtype=float))
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 8:
            raise InvalidInput("curve needs at least 8 planar vertices")
        edges = np.concatenate([v[1:], v[:1]]) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths == 0.0):
            raise InvalidInput("zero-length edge after snapping")
        corners = {int(k): t for k, t in self.corners.items()}
        for k in corners:
            if not 0 <= k < v.shape[0]:
                raise InvalidInput(f"corner index {k} out of range")
        angles = np.arctan2(edges[:, 1], edges[:, 0])
        turn = _vertex_turns(angles)
        smooth = np.setdiff1d(np.arange(v.shape[0]), list(corners))
        if smooth.size and np.max(np.abs(turn[smooth])) >= MAX_SMOOTH_TURN:
            j = smooth[int(np.argmax(np.abs(turn[smooth])))]
            raise InvalidInput(
                f"turning {abs(turn[j]):.3f} rad at non-corner vertex {j} "
                f"(discrete C1 proxy is {MAX_SMOOTH_TURN})"
            )
        frame = {"vertices": v, "edges": edges, "lengths": lengths, "angles": angles, "turns": turn}
        for name, value in frame.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "corners", MappingProxyType(corners))

    @property
    def m(self) -> int:
        return self.vertices.shape[0]

    def to_json(self) -> dict:
        obj = {
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "closed": True,
            "corners": sorted(self.corners),
        }
        tangents = {
            str(k): [float(t[0]), float(t[1])]
            for k, t in self.corners.items()
            if t is not None
        }
        if tangents:
            obj["corner_tangents"] = tangents
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PolyCurve":
        corners = {int(k): None for k in obj.get("corners", [])}
        for k, pair in obj.get("corner_tangents", {}).items():
            corners[int(k)] = (float(pair[0]), float(pair[1]))
        return cls(vertices=np.asarray(obj["vertices"], dtype=float), corners=corners)


@dataclass(frozen=True)
class RotationReport:
    index: int
    total_turning: float
    exterior_angles: dict


def _tie_break_pi(c: PolyCurve, k: int, tin: float) -> float:
    """Resolve an exterior angle of +-pi: probe which side of the incoming
    tangent line the curve occupies three edges past the corner."""
    m = c.m
    corner = c.vertices[k]
    ahead = c.vertices[(k + 3) % m]
    ref = corner + np.array([np.cos(tin), np.sin(tin)])
    side = orient2d(corner, ref, ahead)
    if side == 0:
        raise TieBreakAmbiguous(f"side probe at corner {k} is collinear")
    return np.pi if side > 0 else -np.pi


def rotation_index(c: PolyCurve) -> RotationReport:
    """Total turning / 2*pi, asserted integral within the 0.05 rounding guard.

    Recorded corner tangents take precedence over incident edge directions;
    at each corner the arc turning is corrected to end at tangent_in and
    restart at tangent_out, and the exterior angle is their wrapped gap.
    """
    ang = c.angles
    m = c.m
    terms = c.turns.copy()
    exterior = {}
    for k in sorted(c.corners):
        prev_dir = ang[(k - 1) % m]
        next_dir = ang[k]
        rec = c.corners[k]
        tin, tout = rec if rec is not None else (prev_dir, next_dir)
        eps = float(wrap_angle(tout - tin))
        if abs(abs(eps) - np.pi) < 1e-9:
            eps = _tie_break_pi(c, k, tin)
        exterior[k] = eps
        terms[k] = wrap_angle(tin - prev_dir) + eps + wrap_angle(next_dir - tout)
    # left-to-right accumulation, as a running sum would add them
    total = float(np.add.accumulate(terms)[-1])
    return RotationReport(index=_turning_index(total), total_turning=total,
                          exterior_angles=exterior)


def _turning_index(total: float) -> int:
    """The integer that a closed curve's total turning divided by 2*pi
    rounds to, within the 0.05 rounding guard (NumericalInconsistency)."""
    value = total / TWO_PI
    nearest = round(value)
    if abs(value - nearest) >= 0.05:
        raise NumericalInconsistency(
            f"total turning {value:.4f} x 2*pi is not an integer within 0.05"
        )
    return int(nearest)


@dataclass(frozen=True)
class Crossing:
    """Transversal self-intersection: edge i at fraction s meets edge j at t."""

    i: int
    s: float
    j: int
    t: float
    point: np.ndarray
    angle: float

    @property
    def param_first(self) -> float:
        return self.i + self.s

    @property
    def param_second(self) -> float:
        return self.j + self.t


def self_intersections(c: PolyCurve):
    """All pairwise edge crossings, with parameters, crossing angle, and order
    along the curve.  Crossings at an angle below TRANSVERSALITY_ANGLE,
    endpoint touches, and crossings within two edges of a corner raise
    NotGenericPosition."""
    v = c.vertices
    a = v
    b = np.concatenate([v[1:], v[:1]])
    ii, jj, ss, tt, flags = segment_hits(a, b, skip_neighbors=1)
    ang = c.angles
    out = []
    for i, j, s, t, flag in zip(ii, jj, ss, tt, flags):
        i, j = int(i), int(j)
        if flag:
            verdict = segment_verdict(a[i], b[i], a[j], b[j])
            if verdict[0] == "none":
                continue
            if verdict[0] == "degenerate":
                raise NotGenericPosition(
                    f"edges {i} and {j} touch degenerately; jitter the curve"
                )
            _, s, t = verdict
        cross_angle = abs(wrap_angle(ang[j] - ang[i]))
        cross_angle = min(cross_angle, np.pi - cross_angle)
        if cross_angle < TRANSVERSALITY_ANGLE:
            raise NotGenericPosition(
                f"crossing of edges {i}, {j} at angle {cross_angle:.4f} < {TRANSVERSALITY_ANGLE}"
            )
        for corner in c.corners:
            d = min(
                min(abs(i - corner), c.m - abs(i - corner)),
                min(abs(j - corner), c.m - abs(j - corner)),
            )
            if d < 2:
                raise NotGenericPosition(
                    f"crossing on edge pair ({i}, {j}) within 2 edges of corner {corner}"
                )
        point = (1 - s) * a[i] + s * b[i]
        out.append(Crossing(i=i, s=float(s), j=j, t=float(t), point=point, angle=float(cross_angle)))
    out.sort(key=lambda x: (x.i, x.s))
    return out


def jitter(c: PolyCurve, seed: int, magnitude: float) -> PolyCurve:
    """Deterministic pseudo-random vertex perturbation; the rotation index must
    survive, otherwise JitterTooLarge."""
    min_edge = float(np.min(c.lengths))
    if magnitude >= 0.1 * min_edge:
        raise InvalidInput(
            f"magnitude {magnitude:.3g} >= 0.1 x min edge length {min_edge:.3g}"
        )
    if magnitude == 0.0:
        return c
    rng = np.random.default_rng(seed)
    moved = c.vertices + rng.uniform(-magnitude, magnitude, size=c.vertices.shape)
    before = rotation_index(c).index
    out = PolyCurve(moved, c.corners)
    after = rotation_index(out).index
    if after != before:
        raise JitterTooLarge(f"rotation index changed {before} -> {after}")
    return out


def turn_blend(p_in, corner, p_out, max_turn: float) -> np.ndarray:
    """Quadratic Bezier from p_in to p_out with control point corner,
    endpoints included: one point per max_turn radians of the turn from
    corner - p_in to p_out - corner, plus two, and at least four."""
    turn = abs(wrap_angle(np.arctan2(*(p_out - corner)[::-1]) - np.arctan2(*(corner - p_in)[::-1])))
    n_pts = max(int(np.ceil(turn / max_turn)) + 2, 4)
    t = np.linspace(0.0, 1.0, n_pts)[:, None]
    return (1 - t) ** 2 * p_in + 2 * t * (1 - t) * corner + t**2 * p_out


def fillet_corners(c: PolyCurve) -> PolyCurve:
    """Round every corner over FILLET_SPAN edges on each side with a Bezier blend.

    Total turning across the blend equals the corner's exterior angle, so the
    rotation index is preserved; words of Blank are built on the flattened
    curve.  Corners fewer than 2 FILLET_SPAN edges apart (cyclically) would
    blend over each other's trims and raise InvalidInput.
    """
    if not c.corners:
        return c
    m = c.m
    ks = sorted(c.corners)
    for a, b in zip(ks, ks[1:] + [ks[0] + m]):
        if b - a < 2 * FILLET_SPAN:
            raise InvalidInput(
                f"corners {a} and {b % m} are {b - a} edges apart; "
                f"filleting needs at least {2 * FILLET_SPAN}"
            )
    keep = np.ones(m, dtype=bool)
    inserts = {}  # vertex index after which blended points follow
    for k in ks:
        # trim points: FILLET_SPAN edges back and forward from the corner
        a_idx = (k - FILLET_SPAN) % m
        b_idx = (k + FILLET_SPAN) % m
        p0 = c.vertices[a_idx]
        p2 = c.vertices[b_idx]
        rec = c.corners[k]
        if rec is not None:
            tin, tout = rec
            # control point at the intersection of the tangent lines; fall back
            # to the corner vertex when nearly parallel
            d_in = np.array([np.cos(tin), np.sin(tin)])
            denom, num, _ = _cross_solve(d_in[0], d_in[1], -np.cos(tout), -np.sin(tout),
                                         *(p2 - p0))
            if abs(denom) > 1e-9:
                p1 = p0 + num / denom * d_in
            else:
                p1 = c.vertices[k]
        else:
            p1 = c.vertices[k]
        for d in range(FILLET_SPAN):
            keep[(k - 1 - d) % m] = False  # drop points strictly between a_idx and corner
            keep[(k + d) % m] = False
        keep[a_idx] = True
        keep[b_idx] = True
        inserts[a_idx] = turn_blend(p0, p1, p2, 0.2)[1:-1]
    new_pts = []
    for idx in range(m):
        if keep[idx]:
            new_pts.append(c.vertices[idx])
        if idx in inserts and keep[idx]:
            new_pts.extend(inserts[idx])
    return PolyCurve(np.asarray(new_pts))
