"""Planar arrangement of a closed curve: crossings, arcs, and faces.

The curve is cut at its self-intersections into arcs; faces are traced
through the half-edge rule "turn clockwise-most from the reversed arrival
direction", which walks every bounded face counter-clockwise (interior on
the left) and the unbounded face clockwise.  Each bounded face gets a
witness point, offset from its boundary into the interior and verified by
the winding number of the face walk around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import winding_batch
from .errors import ArrangementCorrupt
from .curves import PolyCurve, self_intersections
from .spectral import TWO_PI


@dataclass
class Arc:
    """Curve piece between consecutive crossing passages (along the curve)."""

    id: int
    start_passage: int
    end_passage: int
    start_node: int  # crossing id where the arc begins
    end_node: int
    pts: np.ndarray  # polyline, first and last points are crossing points


@dataclass
class Face:
    id: str
    cycle: tuple  # ((arc_id, direction), ...) with direction +1 along the curve
    walk: np.ndarray  # closed polyline of the boundary walk
    area: float
    bounded: bool
    witness: np.ndarray | None


@dataclass
class Arrangement:
    curve: PolyCurve
    crossings: list
    arcs: list
    faces: list
    passages: list = field(default_factory=list)  # (param, crossing_id) sorted

    @property
    def bounded_faces(self):
        return [f for f in self.faces if f.bounded]

    def face_of_point(self, p) -> Face:
        """Locate a point: the bounded face whose walk winds once around it,
        else the unbounded face."""
        p = np.asarray(p, dtype=float)
        for f in self.faces:
            if not f.bounded:
                continue
            w = winding_batch(p[None, :], f.walk)
            if w[0] == 1:
                return f
        return next(f for f in self.faces if not f.bounded)


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    x2, y2 = np.concatenate([x[1:], x[:1]]), np.concatenate([y[1:], y[:1]])
    return 0.5 * float(np.sum(x * y2 - x2 * y))


def _trace_faces(arcs, crossings):
    """Half-edge face tracing.  A half-edge is (arc_id, dir); dir +1 walks the
    arc along the curve, -1 reversed."""
    # incident ends at each crossing: (angle_away, arc_id, dir_leaving)
    outgoing = {i: [] for i in range(len(crossings))}
    for arc in arcs:
        d0 = arc.pts[1] - arc.pts[0]
        outgoing[arc.start_node].append((float(np.arctan2(d0[1], d0[0])), arc.id, +1))
        d1 = arc.pts[-2] - arc.pts[-1]
        outgoing[arc.end_node].append((float(np.arctan2(d1[1], d1[0])), arc.id, -1))
    for node in outgoing:
        outgoing[node].sort()

    def head(h):
        arc_id, d = h
        return arcs[arc_id].end_node if d > 0 else arcs[arc_id].start_node

    def arrival_angle(h):
        arc_id, d = h
        pts = arcs[arc_id].pts
        v = pts[-1] - pts[-2] if d > 0 else pts[0] - pts[1]
        return float(np.arctan2(v[1], v[0]))

    def next_halfedge(h):
        node = head(h)
        back = (arrival_angle(h) + np.pi) % TWO_PI
        cands = outgoing[node]
        # first outgoing direction clockwise from the reversed arrival; the
        # exact reverse (key ~ 0) is a dead-end fallback only
        best = None
        best_key = np.inf
        for ang, arc_id, d in cands:
            key = (back - ang) % TWO_PI
            if key < 1e-12:
                key = TWO_PI
            if key < best_key:
                best_key = key
                best = (arc_id, d)
        return best

    seen = set()
    cycles = []
    for arc in arcs:
        for d in (+1, -1):
            h = (arc.id, d)
            if h in seen:
                continue
            cycle = []
            cur = h
            while cur not in seen:
                seen.add(cur)
                cycle.append(cur)
                cur = next_halfedge(cur)
            cycles.append(cycle)
    return cycles


def cut_at_crossings(c: PolyCurve, crossings):
    """Cut the curve at its crossings.

    Returns (passages, arc_pts).  passages lists (param, crossing id) in
    curve order, each crossing twice.  arc_pts[k] is the polyline from
    passage k to passage k + 1: it starts and ends at the crossing points,
    with consecutive points closer than 1e-12 dropped.
    """
    v = c.vertices
    m = c.m
    passages = []
    for cid, x in enumerate(crossings):
        passages.append((x.param_first, cid))
        passages.append((x.param_second, cid))
    passages.sort()
    n_pass = len(passages)

    arc_pts = []
    for k in range(n_pass):
        p_start, cid_start = passages[k]
        p_end, cid_end = passages[(k + 1) % n_pass]
        pts = [crossings[cid_start].point]
        i0 = int(np.floor(p_start))
        i1 = int(np.floor(p_end)) if p_end > p_start else int(np.floor(p_end)) + m
        for idx in range(i0 + 1, i1 + 1):
            pts.append(v[idx % m])
        pts.append(crossings[cid_end].point)
        arr = np.asarray(pts)
        keep = np.ones(len(arr), dtype=bool)
        keep[1:] = np.hypot(*(arr[1:] - arr[:-1]).T) > 1e-12
        arc_pts.append(arr[keep])
    return passages, arc_pts


def build_arrangement(c: PolyCurve, crossings=None) -> Arrangement:
    """Faces of the plane minus the curve, with witnesses and the Euler check."""
    if crossings is None:
        crossings = self_intersections(c)
    v = c.vertices

    if not crossings:
        return _simple_arrangement(c)

    passages, arc_pts = cut_at_crossings(c, crossings)
    n_pass = len(passages)
    arcs = [
        Arc(id=k, start_passage=k, end_passage=(k + 1) % n_pass,
            start_node=passages[k][1], end_node=passages[(k + 1) % n_pass][1], pts=pts)
        for k, pts in enumerate(arc_pts)
    ]

    cycles = _trace_faces(arcs, crossings)

    faces = []
    for cyc in cycles:
        walk_pts = []
        for arc_id, d in cyc:
            pts = arcs[arc_id].pts if d > 0 else arcs[arc_id].pts[::-1]
            walk_pts.append(pts[:-1])
        walk = np.vstack(walk_pts)
        faces.append((cyc, walk, _signed_area(walk)))

    n_unbounded = sum(1 for _, _, a in faces if a < 0)
    if n_unbounded != 1:
        raise ArrangementCorrupt(
            f"{n_unbounded} negative-area cycles (expected exactly one unbounded face)"
        )
    V, E, F = len(crossings), len(arcs), len(faces)
    if V - E + F != 2:
        raise ArrangementCorrupt(f"Euler check failed: V-E+F = {V}-{E}+{F} != 2")

    # letters in deterministic order: by descending area, then witness position
    bounded = sorted(
        (f for f in faces if f[2] > 0), key=lambda f: (-f[2], f[1][0, 0], f[1][0, 1])
    )
    face_objs = []
    for letter_idx, (cyc, walk, area) in enumerate(bounded):
        witness = _find_witness(walk, v)
        face_objs.append(
            Face(
                id=chr(ord("a") + letter_idx),
                cycle=tuple(cyc),
                walk=walk,
                area=area,
                bounded=True,
                witness=witness,
            )
        )
    for cyc, walk, area in faces:
        if area < 0:
            face_objs.append(
                Face(id="~", cycle=tuple(cyc), walk=walk, area=area, bounded=False, witness=None)
            )
    return Arrangement(curve=c, crossings=list(crossings), arcs=arcs, faces=face_objs, passages=passages)


def _simple_arrangement(c: PolyCurve) -> Arrangement:
    """No crossings: one bounded face (the interior) and the unbounded face.
    As a graph the curve is one vertex with a loop edge: V - E + F = 2 holds."""
    walk = c.vertices
    area = _signed_area(walk)
    interior_walk = walk if area > 0 else walk[::-1]
    witness = _find_witness(interior_walk, c.vertices)
    faces = [
        Face(id="a", cycle=((0, +1 if area > 0 else -1),), walk=interior_walk,
             area=abs(area), bounded=True, witness=witness),
        Face(id="~", cycle=((0, -1 if area > 0 else +1),), walk=interior_walk[::-1],
             area=-abs(area), bounded=False, witness=None),
    ]
    arc = Arc(id=0, start_passage=0, end_passage=0, start_node=0, end_node=0,
              pts=np.vstack([walk, walk[:1]]))
    return Arrangement(curve=c, crossings=[], arcs=[arc], faces=faces, passages=[])


def _find_witness(walk: np.ndarray, curve_vertices: np.ndarray) -> np.ndarray:
    """Interior point of a face: offset left from a long boundary segment,
    verified by the winding number of the face walk."""
    seg = np.concatenate([walk[1:], walk[:1]]) - walk
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    order = np.argsort(-lengths)
    strands = _strands(curve_vertices)
    for k in order[: min(40, len(order))]:
        if lengths[k] < 1e-12:
            continue
        mid = walk[k] + 0.5 * seg[k]
        normal = np.array([-seg[k, 1], seg[k, 0]]) / lengths[k]  # left of the walk
        clearance = _other_strand_distance(mid, strands, lengths[k])
        delta = 0.3 * min(clearance, lengths[k])
        cand = mid + delta * normal
        if winding_batch(cand[None, :], walk)[0] == 1:
            return cand
    raise ArrangementCorrupt("no witness point found for a bounded face")


def _strands(vertices):
    """Edges of a closed polyline as (start points, edge vectors, squared
    lengths), the data _other_strand_distance reads."""
    ab = np.concatenate([vertices[1:], vertices[:1]]) - vertices
    # vecdot rounds each dot exactly as a 2-vector `@` does
    return vertices, ab, np.vecdot(ab, ab)


def _other_strand_distance(p, strands, host_len) -> float:
    """Distance from a curve point to the nearest strand other than its own
    immediate neighborhood; strands is _strands of the curve."""
    a, ab, denom = strands
    t = np.zeros_like(denom)
    np.divide(np.vecdot(p - a, ab), denom, out=t, where=denom != 0)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    d = np.hypot(*(p - proj).T)
    far = d[d > 0.51 * host_len]
    return float(np.min(far)) if far.size else host_len
