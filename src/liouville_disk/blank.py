"""Words of Blank: escape-segment crossing records, contraction, Seifert
splitting, and the extendability verdict for closed curves.

Each bounded face of the arrangement sends a ray from its witness point to
the unbounded region; every transversal hit of the curve contributes a
letter (face name, index from the face end, sign).  The 64 candidate
directions of every face are cast in one pass and, per face, the admissible
one with the fewest hits is read.  An angular broadphase sends each edge
only to the directions inside its angular sweep seen from each witness
(padded for the edge-parameter margin and rounding), and each guard point to
the one direction its angular guard window can hold, so a curve costs
O(faces x (edges + guard points) + candidate pairs) in a fixed number of
array passes.  The sign
convention is the determinant [ray direction | curve direction]: positive
means the curve crosses from the right and reads '+'.  Reading the letters
in curve order gives the cyclic word; full contraction (no minus left)
together with a positive rotation index is the necessary pair of conditions
for the curve to bound an immersion of the disk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._kernels import _cross_solve
from .arrangement import Arrangement, _cycles, _signed_area, build_arrangement, cut_at_crossings
from .curves import (
    PolyCurve,
    _turning_index,
    _vertex_turns,
    fillet_corners,
    rotation_index,
    self_intersections,
    turn_blend,
)
from .errors import DecompositionCorrupt, InvalidInput, RayCastFailed
from .spectral import TWO_PI

ANGULAR_GUARD = 1e-3
N_RAY_DIRECTIONS = 64
EXHAUSTIVE_LIMIT = 16  # unused by contract; the benchmark tracer reads it
_LETTER = re.compile(r"(\D)([0-9]+)([+-])")


@dataclass(frozen=True)
class Letter:
    face: str
    index: int
    sign: int  # +1 or -1

    def __str__(self):
        return f"{self.face}{self.index}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class BlankWord:
    """Cyclic sequence of signed, indexed letters."""

    letters: tuple

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(str(l) for l in self.letters)

    def rotations(self):
        n = len(self.letters)
        for r in range(max(n, 1)):
            yield BlankWord(self.letters[r:] + self.letters[:r])

    def renamed(self) -> "BlankWord":
        """Faces renamed a, b, c, ... in order of first appearance."""
        mapping = {}
        out = []
        for l in self.letters:
            if l.face not in mapping:
                mapping[l.face] = chr(ord("a") + len(mapping))
            out.append(Letter(mapping[l.face], l.index, l.sign))
        return BlankWord(tuple(out))

    def canonical(self) -> str:
        """Lexicographically minimal rotation after canonical renaming; two
        words are the same cyclic word iff their canonical strings agree."""
        if not self.letters:
            return ""
        return min(str(rot.renamed()) for rot in self.rotations())

    def to_json(self) -> dict:
        return {
            "letters": [[l.face, l.index, "+" if l.sign > 0 else "-"] for l in self.letters],
            "canonical": self.canonical(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlankWord":
        """Inverse of :meth:`to_json`; the canonical form is recomputed."""
        return cls.parse(" ".join(f"{face}{index}{sign}" for face, index, sign in obj["letters"]))

    @classmethod
    def parse(cls, text: str) -> "BlankWord":
        """Read whitespace-separated letters such as 'a0- b12+': a one-character
        face, a nonnegative integer index, then + or -."""
        letters = []
        for tok in text.split():
            m = _LETTER.fullmatch(tok)
            if m is None:
                raise InvalidInput(f"letter {tok!r} is not a face, an index and a sign + or -")
            face, index, sign = m.groups()
            letters.append(Letter(face, int(index), 1 if sign == "+" else -1))
        return cls(tuple(letters))


@dataclass
class RayRecord:
    face: str
    origin: np.ndarray
    direction: np.ndarray
    hits: list  # (ray_param, edge_index, edge_t, sign), sorted by ray_param


@dataclass
class WordRecord:
    word: BlankWord
    rays: dict  # face -> RayRecord
    positions: list  # curve parameter of each letter, aligned with word.letters
    points: list  # hit points, aligned with word.letters


@dataclass
class _RayFan:
    """Rays from each of several origins in every candidate direction: per
    (origin, direction) its guard verdicts and hit count, and the hits as
    flat (origin, direction, edge) triples, origin-major."""

    admissible: np.ndarray  # (origins, directions): no guard point within the angular guard ahead
    ok: np.ndarray  # no hit grazes an edge endpoint or is near-tangential
    n_hits: np.ndarray  # hits per origin and direction
    o: np.ndarray  # origin index of each hit
    d: np.ndarray  # direction index
    k: np.ndarray  # edge index
    r: np.ndarray  # ray parameter
    t: np.ndarray  # edge parameter
    det: np.ndarray  # [ray direction | unit edge direction]

    def hits(self, chosen) -> list:
        """Per origin i, the (ray_param, edge_index, edge_t, sign) of its
        direction chosen[i], sorted."""
        sel = np.flatnonzero(self.d == chosen[self.o])
        # (ray_param, edge) is unique within a ray, so it orders the tuples
        sel = sel[np.lexsort((self.k[sel], self.r[sel], self.o[sel]))]
        out = [[] for _ in chosen]
        for o, r, k, t, det in zip(self.o[sel].tolist(), self.r[sel].tolist(),
                                   self.k[sel].tolist(), self.t[sel].tolist(),
                                   self.det[sel].tolist()):
            out[o].append((r, k, t, 1 if det > 0 else -1))
        return out


def _ray_directions(seed: int) -> np.ndarray:
    """The N_RAY_DIRECTIONS unit vectors, rotated by a seed-derived offset."""
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, TWO_PI / N_RAY_DIRECTIONS)
    ang = offset + TWO_PI * np.arange(N_RAY_DIRECTIONS) / N_RAY_DIRECTIONS
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _grid_span(offset, lo, hi):
    """First index and count of the grid directions whose angle lies in
    [lo, hi] modulo TWO_PI; the first index is not yet reduced mod N."""
    step = TWO_PI / N_RAY_DIRECTIONS
    first = np.ceil((lo - offset) / step)
    return first.astype(np.int64), (np.floor((hi - offset) / step) - first + 1).astype(np.int64)


def _cast_fan(origins, dirs, vertices, span: float, guard_points) -> _RayFan:
    """Crossings of the rays [o, o + span * u], o in origins, u in dirs (the
    uniform grid of _ray_directions), with the edges of the closed polyline
    vertices, and which directions keep the angular guard off every guard
    point ahead of their origin.

    An angular broadphase picks the candidate (origin, direction, edge)
    triples: the directions whose angle lies in the edge's angular sweep seen
    from the origin, padded so that no pair the exact test would keep is
    missed.  The exact test then runs on the candidates of all origins at
    once, with the same elementwise formulas as a full (directions x edges)
    pass per origin, so every kept hit has the same bits; the fan costs
    O(origins x (edges + guard points) + candidate pairs) in a fixed number
    of array passes.
    """
    n_dirs = N_RAY_DIRECTIONS
    n_cells = len(origins) * n_dirs
    offset = float(np.arctan2(dirs[0, 1], dirs[0, 0]))
    edge = np.concatenate([vertices[1:], vertices[:1]]) - vertices
    length = np.hypot(edge[:, 0], edge[:, 1])
    relx = vertices[:, 0] - origins[:, :1]
    rely = vertices[:, 1] - origins[:, 1:]
    ang = np.arctan2(rely, relx)
    rho = np.hypot(relx, rely)
    sweep = np.concatenate([ang[:, 1:], ang[:, :1]], axis=1) - ang
    sweep -= TWO_PI * np.rint(sweep / TWO_PI)
    # The t margin of 1e-9 lengthens edge k by 1e-9 |e_k| at each end, and a
    # segment of length L with an end at distance rho subtends at most
    # asin(L / rho) <= (pi / 2) L / rho from the origin; 4e-9 |e_k| / rho
    # covers that with room for the rounding of t.  The vertex differences
    # round by about eps * scale, which 1e-12 * scale / rho covers, and 1e-9
    # absorbs the rounding of arctan2, of the grid and of the ray vectors.
    # Once the padded sweep reaches pi the origin is near or on the edge
    # (a zero rho gives inf or nan), and the edge is a candidate everywhere.
    scale = np.maximum(np.max(np.abs(vertices)), np.max(np.abs(origins), axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        pad = (4e-9 * length + 1e-12 * scale[:, None]) / np.minimum(
            rho, np.concatenate([rho[:, 1:], rho[:, :1]], axis=1)) + 1e-9
        del rho
        width = np.abs(sweep) + 2 * pad
        lo = ang + np.minimum(sweep, 0.0) - pad
        del ang, sweep, pad
        first, count = _grid_span(offset, lo, lo + width)
    wide = ~(width < np.pi)
    first[wide] = 0
    count[wide] = n_dirs
    first, count = first.ravel(), count.ravel()
    oe = np.repeat(np.arange(len(count)), count)  # flat (origin, edge) of each pair
    start = np.cumsum(count) - count  # where each run of pairs begins
    d = (first[oe] + np.arange(len(oe)) - start[oe]) % n_dirs
    o, k = np.divmod(oe, len(vertices))
    rx, ry = relx.ravel()[oe], rely.ravel()[oe]
    # the pairs are far fewer than the (origins x edges) cells, whose arrays
    # are done: freed, they do not add to the guard pass's peak
    del relx, rely, lo, width, wide, first, count, start

    ux, uy = dirs[d, 0], dirs[d, 1]
    ex, ey = edge[k, 0], edge[k, 1]
    denom, num_r, num_t = _cross_solve(ux, uy, ex, ey, rx, ry)
    with np.errstate(divide="ignore", invalid="ignore"):
        r, t = num_r / denom, num_t / denom
    margin = 1e-9
    hit = np.flatnonzero(
        (np.abs(denom) >= 1e-12)
        & (r > margin) & (r < span)
        & (t >= -margin) & (t <= 1 + margin)
    )
    o, d, k, r, t = o[hit], d[hit], k[hit], r[hit], t[hit]
    det = ux[hit] * (ey[hit] / length[k]) - uy[hit] * (ex[hit] / length[k])
    cell = o * n_dirs + d
    bad = (t < 1e-6) | (t > 1 - 1e-6) | (np.abs(det) < np.sin(0.05))
    ok = np.bincount(cell[bad], minlength=n_cells) == 0
    n_hits = np.bincount(cell, minlength=n_cells)

    # A guard point blocks direction u when |[u | g]| < ANGULAR_GUARD with
    # g ahead, i.e. when their angles differ by less than asin(ANGULAR_GUARD);
    # that window, padded by 1e-9 for rounding, is far narrower than the grid
    # step, so it holds at most one grid direction, the only one tested.
    gx = guard_points[:, 0] - origins[:, :1]
    gy = guard_points[:, 1] - origins[:, 1:]
    g_ang = np.arctan2(gy, gx)
    window = np.arcsin(ANGULAR_GUARD) + 1e-9
    g_first, g_count = _grid_span(offset, g_ang - window, g_ang + window)
    del g_ang
    near = np.flatnonzero(g_count > 0)  # flat (origin, guard point)
    gx, gy = gx.ravel()[near], gy.ravel()[near]
    norms = np.hypot(gx, gy)
    apart = norms > 1e-12
    near, norms = near[apart], norms[apart]
    gx, gy = gx[apart] / norms, gy[apart] / norms
    g_d = g_first.ravel()[near] % n_dirs
    ux, uy = dirs[g_d, 0], dirs[g_d, 1]
    cross = ux * gy - uy * gx
    dot = ux * gx + uy * gy
    g_cell = near // len(guard_points) * n_dirs + g_d
    admissible = np.bincount(g_cell[(np.abs(cross) < ANGULAR_GUARD) & (dot > 0)],
                             minlength=n_cells) == 0
    shape = (len(origins), n_dirs)
    return _RayFan(admissible.reshape(shape), ok.reshape(shape), n_hits.reshape(shape),
                   o, d, k, r, t, det)


def blank_word(c: PolyCurve, arr: Arrangement | None = None, seed: int = 0) -> WordRecord:
    """Word of Blank for a curve in generic position.

    All 64 candidate ray directions (rotated by a seed-derived offset) of
    all bounded faces are cast at once; a direction counts when it is
    admissible, none of its hits is non-generic, and it hits the curve.  The
    one with the fewest hits wins, the lowest direction index breaking ties.
    """
    if arr is None:
        arr = build_arrangement(c)
    v = c.vertices
    diameter = float(np.max(np.hypot(*(v - v.mean(axis=0)).T))) * 2.0
    span = 3.0 * max(diameter, 1.0)
    guard_points = np.vstack(
        [v] + [x.point[None, :] for x in arr.crossings] + [v[sorted(c.corners)]]
    )
    dirs = _ray_directions(seed)
    faces = arr.bounded_faces
    fan = _cast_fan(np.array([f.witness for f in faces]), dirs, v, span, guard_points)
    n_hits = fan.n_hits
    usable = fan.admissible & fan.ok & (n_hits > 0)
    for face, ray_ok in zip(faces, usable.any(axis=1)):
        if not ray_ok:
            raise RayCastFailed(
                f"no admissible escape ray among {N_RAY_DIRECTIONS} directions "
                f"for face {face.id}"
            )
    best = np.argmin(np.where(usable, n_hits, n_hits.max() + 1), axis=1)

    rays = {}
    letters = []
    for face, d, hits in zip(faces, best, fan.hits(best)):
        u = dirs[d]
        rays[face.id] = RayRecord(face=face.id, origin=face.witness, direction=u, hits=hits)
        for index, (r, k, t, sign) in enumerate(hits):
            letters.append((k + t, Letter(face.id, index, sign), face.witness + r * u))

    letters.sort(key=lambda item: item[0])
    return WordRecord(
        word=BlankWord(tuple(l for _, l, _ in letters)),
        rays=rays,
        positions=[p for p, _, _ in letters],
        points=[pt for _, _, pt in letters],
    )


# --- contraction -------------------------------------------------------------

@dataclass(frozen=True)
class ContractionStep:
    minus_pos: int
    plus_pos: int
    removed: tuple
    word_after: tuple


@dataclass
class ContractionResult:
    contracted: bool
    steps: list
    final: BlankWord
    order = "leftmost"  # the one contraction order, named in CLI and JSON outputs

    @property
    def n_pieces(self) -> int:
        return len(self.steps) + 1


def _first_move(letters):
    """The leftmost minus letter p with an admissible partner and its nearest
    one q walking backward: a same-face plus letter with no minus letter
    cyclically between them.  None when no move is left."""
    n = len(letters)
    for p in range(n):
        if letters[p].sign > 0:
            continue
        q = (p - 1) % n
        while q != p and letters[q].sign > 0:
            if letters[q].face == letters[p].face:
                return p, q
            q = (q - 1) % n
    return None


def _apply_move(letters, p, q):
    """Delete the closed cyclic interval [q .. p] (walking forward from q to p)."""
    if q <= p:
        removed = letters[q : p + 1]
        rest = letters[:q] + letters[p + 1 :]
    else:
        removed = letters[q:] + letters[: p + 1]
        rest = letters[p + 1 : q]
    return tuple(removed), tuple(rest)


def contract(word: BlankWord) -> ContractionResult:
    """Greedy contraction: the word contracts when no minus letter is left.

    A move deletes the cyclic interval [q .. p], p a minus letter and q a
    plus letter of the same face with no minus letter between them.  Each
    step scans from position 0 of the current word for the leftmost minus
    letter that has a move and pairs it with the nearest such plus letter.

    The greedy verdict is exact.  The moves of any full contraction S delete
    arcs of the original cyclic word that are laminar (nested or disjoint),
    and every minus letter is the right end of exactly one arc.  S pairs the
    greedy p with some q', and the greedy q lies in [q' .. p].  No minus
    letter lies between q and p, so no arc of S ends there and none starts
    at q.  Replacing S's arc [q' .. p] by [q .. p] keeps S a full
    contraction, so nearest-plus moves never lose one, in any order of the
    minus letters.
    """
    letters = tuple(word.letters)
    steps = []
    while (move := _first_move(letters)) is not None:
        p, q = move
        removed, letters = _apply_move(letters, p, q)
        steps.append(ContractionStep(p, q, removed, letters))
    return ContractionResult(all(l.sign > 0 for l in letters), steps, BlankWord(letters))


# --- Seifert decomposition ---------------------------------------------------

def _round_junction(pts_in, pts_out):
    """Blend the last edge of pts_in into the first edge of pts_out with a
    short quadratic arc so the smoothing respects the C1 proxy."""
    corner = pts_in[-1]
    a = pts_in[-2]
    b = pts_out[1]
    la = np.hypot(*(corner - a))
    lb = np.hypot(*(b - corner))
    trim = 0.4 * min(la, lb)
    p0 = corner + (a - corner) * (trim / la)
    p2 = corner + (b - corner) * (trim / lb)
    return turn_blend(p0, corner, p2, 0.2)


def seifert_decompose(c: PolyCurve):
    """Orientation-respecting smoothing of every crossing.

    Returns a list of (vertices, orientation) pairs: simple closed polylines
    with orientation +1 (counter-clockwise) or -1.  The signed orientations
    sum to the rotation index of the input.
    """
    crossings = self_intersections(c)
    if not crossings:
        area_sign = 1 if _signed_area(c.vertices) > 0 else -1
        return [(c.vertices.copy(), area_sign)]
    # strand k runs from passage k to passage k + 1; smoothing sends it on to
    # the strand that leaves the other passage of that crossing
    passages, strands = cut_at_crossings(c, crossings)
    pair = np.argsort([x for _, x in passages], kind="stable").reshape(-1, 2)
    partner = np.empty(len(passages), dtype=np.int64)
    partner[pair] = pair[:, ::-1]

    pieces = []
    for chain in _cycles(np.concatenate([partner[1:], partner[:1]]).tolist()):
        pts_parts = []
        for idx, k in enumerate(chain):
            nxt = strands[chain[(idx + 1) % len(chain)]]
            blend = _round_junction(strands[k], nxt)
            pts_parts.append(strands[k][1:-1])
            pts_parts.append(blend)
        piece = np.vstack(pts_parts)
        d = np.hypot(*np.diff(np.vstack([piece, piece[:1]]), axis=0).T)
        piece = piece[np.concatenate([[True], d[:-1] > 1e-12])]
        orient = 1 if _signed_area(piece) > 0 else -1
        pieces.append((piece, orient))

    total = sum(o for _, o in pieces)
    idx = rotation_index(c).index
    if total != idx:
        raise DecompositionCorrupt(
            f"signed orientations sum to {total}, rotation index is {idx}"
        )
    return pieces


# --- extendability -----------------------------------------------------------

@dataclass
class ExtendabilityReport:
    index: int
    index_ok: bool
    word: BlankWord
    word_contracts: bool
    contraction: ContractionResult
    gluing: dict | None  # piece indices r_j and the identity check, or {"error": reason}

    def to_json(self) -> dict:
        out = {
            "index": self.index,
            "index_ok": self.index_ok,
            "word": self.word.to_json(),
            "word_contracts": self.word_contracts,
            "contraction_order": self.contraction.order,
            "n_pieces": self.contraction.n_pieces,
        }
        if self.gluing is not None:
            out["gluing"] = self.gluing
        return out


def extendability_check(c: PolyCurve, seed: int = 0) -> ExtendabilityReport:
    """Both necessary conditions for bounding an immersed disk: rotation index
    at least 1, and a fully contractible word of Blank.

    For contractible words the report exposes the gluing identity
    r = sum_j r_j - (n - 1) over the contraction pieces, each piece being the
    deleted curve stretch closed up along its escape segment.
    """
    rep = rotation_index(c)
    work = fillet_corners(c)
    arr = build_arrangement(work)
    rec = blank_word(work, arr, seed=seed)
    res = contract(rec.word)
    gluing = None
    if res.contracted and res.steps:
        try:
            r_pieces = _gluing_indices(work, rec, res)
            total = sum(r_pieces) - (len(r_pieces) - 1)
            gluing = {
                "piece_indices": r_pieces,
                "identity_holds": total == rep.index,
                "identity_value": total,
            }
        except Exception as exc:  # the report is advisory; the verdict stands
            gluing = {"error": f"{type(exc).__name__}: {exc}"}
    return ExtendabilityReport(
        index=rep.index,
        index_ok=rep.index >= 1,
        word=rec.word,
        word_contracts=res.contracted,
        contraction=res,
        gluing=gluing,
    )


def _gluing_indices(c: PolyCurve, rec: WordRecord, res: ContractionResult):
    """Rotation indices of the contraction pieces.

    The boundary is the curve with every letter's hit point inserted into
    its edge, labelled with the letter's index in the word (-1 on curve
    vertices).  A hit has edge parameter in [1e-6, 1 - 1e-6], so it lies
    inside edge floor(position).  A step cuts the boundary at its plus
    letter a and its minus letter b: the cyclic range a..b is the piece and
    b..a the remaining boundary.  Both close up along the escape-segment
    chord between the two hit points, and that chord is the closing edge,
    last point to first, that `_loose_rotation_index` adds anyway: points
    along a straight chord would turn the tangent by nothing.
    """
    at = np.floor(rec.positions).astype(np.int64) + 1
    boundary = np.insert(c.vertices, at, rec.points, axis=0)
    labels = np.insert(np.full(c.m, -1), at, np.arange(len(at)))
    order = tuple(range(len(at)))  # letter ids of the current word
    indices = []
    for st in res.steps:
        a = int(np.flatnonzero(labels == order[st.plus_pos])[0])
        b = int(np.flatnonzero(labels == order[st.minus_pos])[0])
        _, order = _apply_move(order, st.minus_pos, st.plus_pos)
        n = len(boundary)
        indices.append(_loose_rotation_index(boundary[(a + np.arange((b - a) % n + 1)) % n]))
        rest = (b + np.arange((a - b) % n + 1)) % n
        boundary, labels = boundary[rest], labels[rest]
    indices.append(_loose_rotation_index(boundary))
    return indices


def _loose_rotation_index(pts: np.ndarray) -> int:
    """Turning number of a closed polyline allowing sharp (transversal)
    junction corners; no C1 proxy enforcement, but the rounding guard of
    rotation_index."""
    d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    keep = np.hypot(d[:, 0], d[:, 1]) > 1e-12
    d = d[keep]
    ang = np.arctan2(d[:, 1], d[:, 0])
    # turn k runs from edge k to edge k + 1
    return _turning_index(float(np.sum(_vertex_turns(np.roll(ang, -1)))))
