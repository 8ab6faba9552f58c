"""Planar arrangement of a closed curve: crossings, arcs, and faces.

The curve is cut at its self-intersections into arcs, all of them one
gather from the vertices.  Faces are the cycles of a permutation of the
half-edges (a doubly connected edge list): half-edge 2k runs along arc k and
2k + 1 against it, and the walk goes on from h to the half-edge clockwise
next to h's twin around the crossing where h ends.  One sort on (crossing,
departure angle) gives that order, and one cycle walk every face, bounded
faces counter-clockwise (interior on the left) and the unbounded face
clockwise.  Each bounded face gets a witness point, offset from its boundary
into the interior and verified by the winding number of the face walk
around it; the candidates of all faces are placed in rounds, against one
strand table of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import winding_batch
from .errors import ArrangementCorrupt
from .curves import PolyCurve, self_intersections


@dataclass
class Face:
    id: str
    walk: np.ndarray  # closed polyline of the boundary walk
    area: float
    bounded: bool
    witness: np.ndarray | None


@dataclass
class Arrangement:
    crossings: list
    arcs: list  # polylines: arc k runs from passage k to passage k + 1, or is the closed curve
    faces: list
    passages: list = field(default_factory=list)  # (param, crossing_id) sorted

    @property
    def bounded_faces(self):
        return [f for f in self.faces if f.bounded]


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    x2, y2 = np.concatenate([x[1:], x[:1]]), np.concatenate([y[1:], y[:1]])
    return 0.5 * float(np.sum(x * y2 - x2 * y))


def _cycles(nxt) -> list:
    """Cycles of the permutation nxt (a list of indices) in the order of their
    lowest element, each starting at that element."""
    seen = [False] * len(nxt)
    cycles = []
    for start in range(len(nxt)):
        cycle = []
        h = start
        while not seen[h]:
            seen[h] = True
            cycle.append(h)
            h = nxt[h]
        if cycle:
            cycles.append(cycle)
    return cycles


def cut_at_crossings(c: PolyCurve, crossings):
    """Cut the curve at its crossings.

    Returns (passages, arc_pts).  passages lists (param, crossing id) in
    curve order, each crossing twice.  arc_pts[k] is the polyline from
    passage k to passage k + 1: it starts and ends at the crossing points,
    with consecutive points closer than 1e-12 dropped.
    """
    m = c.m
    param = np.array([p for x in crossings for p in (x.param_first, x.param_second)])
    cid = np.repeat(np.arange(len(crossings)), 2)
    order = np.lexsort((cid, param))
    param, cid = param[order], cid[order]
    passages = list(zip(param.tolist(), cid.tolist()))

    # arc k runs from passage k to passage k + 1 and passes the vertices
    # i0 + 1 .. i1 (mod m) between its two crossing points; all arcs are one
    # gather from the vertices followed by the crossing points
    p_end = np.concatenate([param[1:], param[:1]])
    cid_end = np.concatenate([cid[1:], cid[:1]])
    i0 = np.floor(param).astype(np.int64)
    i1 = np.floor(p_end).astype(np.int64) + np.where(p_end > param, 0, m)
    size = i1 - i0 + 2
    start = np.cumsum(size) - size
    idx = (np.repeat(i0 - start, size) + np.arange(int(size.sum()))) % m
    idx[start] = m + cid
    idx[start + size - 1] = m + cid_end
    pts = np.vstack([c.vertices] + [x.point[None, :] for x in crossings])[idx]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.hypot(*(pts[1:] - pts[:-1]).T) > 1e-12
    keep[start] = True
    kept = np.cumsum(keep)[start + size - 1]
    return passages, np.split(pts[keep], kept[:-1])


def build_arrangement(c: PolyCurve) -> Arrangement:
    """Faces of the plane minus the curve, with witnesses and the Euler check."""
    crossings = self_intersections(c)
    if not crossings:
        return _simple_arrangement(c)

    passages, arcs = cut_at_crossings(c, crossings)
    # half-edge 2k runs along arc k and 2k + 1 against it, so the twin of h
    # is h ^ 1; sorting on (tail crossing, departure angle) puts the four
    # half-edges that leave each crossing in one row, counter-clockwise
    cid = np.array([x for _, x in passages])
    tail = np.column_stack([cid, np.concatenate([cid[1:], cid[:1]])]).ravel()
    ends = np.array([(p[1] - p[0], p[-2] - p[-1]) for p in arcs]).reshape(-1, 2)
    ring = np.lexsort((np.arctan2(ends[:, 1], ends[:, 0]), tail)).reshape(-1, 4)
    # cw[h] is the half-edge clockwise next to h; a face walk goes on from h
    # to cw[twin(h)]
    cw = np.empty_like(tail)
    cw[ring] = ring[:, [3, 0, 1, 2]]
    nxt = cw[np.arange(len(cw)) ^ 1].tolist()

    faces = []
    for cycle in _cycles(nxt):
        walk = np.vstack([(arcs[h >> 1] if h % 2 == 0 else arcs[h >> 1][::-1])[:-1] for h in cycle])
        faces.append((walk, _signed_area(walk)))

    n_unbounded = sum(1 for _, a in faces if a < 0)
    if n_unbounded != 1:
        raise ArrangementCorrupt(
            f"{n_unbounded} negative-area cycles (expected exactly one unbounded face)"
        )
    V, E, F = len(crossings), len(arcs), len(faces)
    if V - E + F != 2:
        raise ArrangementCorrupt(f"Euler check failed: V-E+F = {V}-{E}+{F} != 2")

    # letters in deterministic order: by descending area, then witness position
    bounded = sorted(
        (f for f in faces if f[1] > 0), key=lambda f: (-f[1], f[0][0, 0], f[0][0, 1])
    )
    witnesses = _find_witnesses([walk for walk, _ in bounded], c.vertices)
    face_objs = [
        Face(id=chr(ord("a") + letter_idx), walk=walk, area=area, bounded=True, witness=witness)
        for letter_idx, ((walk, area), witness) in enumerate(zip(bounded, witnesses))
    ]
    face_objs += [Face(id="~", walk=walk, area=area, bounded=False, witness=None)
                  for walk, area in faces if area < 0]
    return Arrangement(crossings=list(crossings), arcs=arcs, faces=face_objs, passages=passages)


def _simple_arrangement(c: PolyCurve) -> Arrangement:
    """No crossings: one bounded face (the interior) and the unbounded face.
    As a graph the curve is one vertex with a loop edge: V - E + F = 2 holds."""
    walk = c.vertices
    area = _signed_area(walk)
    interior_walk = walk if area > 0 else walk[::-1]
    (witness,) = _find_witnesses([interior_walk], c.vertices)
    faces = [
        Face(id="a", walk=interior_walk, area=abs(area), bounded=True, witness=witness),
        Face(id="~", walk=interior_walk[::-1], area=-abs(area), bounded=False, witness=None),
    ]
    return Arrangement(crossings=[], arcs=[np.vstack([walk, walk[:1]])], faces=faces, passages=[])


def _find_witnesses(walks, curve_vertices) -> list:
    """Interior point of each face: offset left from a long boundary segment,
    verified by the winding number of the face walk.

    Round r tries the r-th longest segment (of the first 40) of every face
    that has no witness yet, all such faces at once against one strand table
    of the curve.
    """
    walk = np.vstack(walks)
    size = np.array([len(w) for w in walks])
    start = np.cumsum(size) - size
    nxt = np.arange(1, len(walk) + 1)
    nxt[start + size - 1] = start
    seg = walk[nxt] - walk
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    orders = [s + np.argsort(-lengths[s : s + n]) for s, n in zip(start.tolist(), size.tolist())]
    strands = _strands(curve_vertices)
    witnesses = [None] * len(walks)
    for r in range(40):
        faces = [f for f, w in enumerate(witnesses) if w is None and r < len(orders[f])]
        if not faces:
            break
        rows = np.array([orders[f][r] for f in faces])
        live = lengths[rows] >= 1e-12
        faces, rows = [f for f, ok in zip(faces, live) if ok], rows[live]
        host = lengths[rows]
        mid = walk[rows] + 0.5 * seg[rows]
        normal = np.column_stack([-seg[rows, 1], seg[rows, 0]]) / host[:, None]  # left of the walk
        clearance = _other_strand_distance(mid, strands, host)
        cand = mid + (0.3 * np.minimum(clearance, host))[:, None] * normal
        for f, p in zip(faces, cand):
            if winding_batch(p[None, :], walks[f])[0] == 1:
                witnesses[f] = p
    if any(w is None for w in witnesses):
        raise ArrangementCorrupt("no witness point found for a bounded face")
    return witnesses


def _strands(vertices):
    """Edges of a closed polyline as (start points, edge vectors, squared
    lengths), the data _other_strand_distance reads."""
    ab = np.concatenate([vertices[1:], vertices[:1]]) - vertices
    # vecdot rounds each dot exactly as a 2-vector `@` does
    return vertices, ab, np.vecdot(ab, ab)


def _other_strand_distance(points, strands, host_len) -> np.ndarray:
    """Distance from each curve point to the nearest strand other than its
    own immediate neighborhood (farther than 0.51 x its host length, else the
    host length itself); strands is _strands of the curve."""
    a, ab, denom = strands
    # point minus strand start, written column by column: a broadcast whose
    # innermost axis has length 2 runs several times slower
    rel = np.empty((len(points), len(a), 2))
    np.subtract(points[:, None, 0], a[:, 0], out=rel[..., 0])
    np.subtract(points[:, None, 1], a[:, 1], out=rel[..., 1])
    t = np.zeros((len(points), len(a)))
    np.divide(np.vecdot(rel, ab), denom, out=t, where=denom != 0)
    np.clip(t, 0.0, 1.0, out=t)
    d = np.hypot(points[:, :1] - (a[:, 0] + t * ab[:, 0]),
                 points[:, 1:] - (a[:, 1] + t * ab[:, 1]))
    nearest = np.min(np.where(d > 0.51 * host_len[:, None], d, np.inf), axis=1)
    return np.where(nearest < np.inf, nearest, host_len)
