"""Arrangements, words of Blank, contraction, Seifert splitting, and the
extendability verdict on the reference and figure fixtures.
"""

import dataclasses
import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from liouville_disk import arrangement, blank
from liouville_disk._kernels import winding_batch
from liouville_disk.arrangement import (
    _other_strand_distance,
    _signed_area,
    _strands,
    build_arrangement,
    cut_at_crossings,
)
from liouville_disk.blank import (
    ANGULAR_GUARD,
    N_RAY_DIRECTIONS,
    BlankWord,
    ContractionStep,
    Letter,
    _apply_move,
    blank_word,
    contract,
    extendability_check,
    seifert_decompose,
)
from liouville_disk.cli import main
from liouville_disk.curves import PolyCurve, fillet_corners, rotation_index, self_intersections
from liouville_disk.disk import analytic_completion, boundary_polyline, build_phi
from liouville_disk.errors import (
    ArrangementCorrupt,
    DecompositionCorrupt,
    InvalidInput,
    RayCastFailed,
)
from liouville_disk.fixtures import (
    FIXTURES,
    circle,
    double_pocket,
    fblank_first,
    fblank_second,
    figure_eight,
    fseifert,
    glued_positive_loops,
    limacon,
    marked_square,
)
from liouville_disk.line import pull_back
from liouville_disk.spectral import TWO_PI

PAPER_WORD = BlankWord.parse("a0- b1+ c0+ a1+ b0+")
INFINITY_WORD = BlankWord.parse("a0+ b0-")


def face_of_point(arr, p):
    """The face of an arrangement that holds a point: the bounded face whose
    walk winds once around it, else the unbounded face."""
    p = np.asarray(p, dtype=float)
    for f in arr.bounded_faces:
        if winding_batch(p[None, :], f.walk)[0] == 1:
            return f
    return next(f for f in arr.faces if not f.bounded)


class TestArrangement:
    def test_circle_two_faces(self):
        arr = build_arrangement(circle(256))
        assert len(arr.faces) == 2
        assert len(arr.bounded_faces) == 1

    def test_limacon_three_faces_euler(self):
        # V = 1 crossing, E = 2 arcs, so F = 3 by the Euler relation
        arr = build_arrangement(limacon())
        assert len(arr.crossings) == 1
        assert len(arr.arcs) == 2
        assert len(arr.faces) == 3
        assert sum(f.bounded for f in arr.faces) == 2

    def test_figure_eight_three_faces(self):
        arr = build_arrangement(figure_eight())
        assert len(arr.faces) == 3
        assert sum(f.bounded for f in arr.faces) == 2

    def test_exactly_one_unbounded(self):
        for c in (circle(128), limacon(), fseifert()):
            arr = build_arrangement(c)
            assert sum(not f.bounded for f in arr.faces) == 1

    def test_witnesses_locate_in_own_face(self):
        arr = build_arrangement(fseifert())
        for f in arr.bounded_faces:
            assert face_of_point(arr, f.witness).id == f.id

    def test_face_of_far_point_unbounded(self):
        arr = build_arrangement(limacon())
        assert not face_of_point(arr, [50.0, 50.0]).bounded

    def test_strand_distance_matches_per_edge_loop(self):
        # reference: one point-to-segment projection per edge; the vectorised
        # pass must give the same bits, since the distance places witnesses
        def loop_distance(p, vertices, host_len):
            d = []
            for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
                ab = b - a
                denom = float(ab @ ab)
                t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
                d.append(float(np.hypot(*(p - (a + t * ab)))))
            d = np.array(d)
            far = d[d > 0.51 * host_len]
            return float(np.min(far)) if far.size else host_len

        rng = np.random.default_rng(3)
        # a random 40-gon with one repeated vertex (a zero-length edge); on
        # its generic coordinates an elementwise dot product rounds
        # differently from `@` for several points in a hundred
        v = rng.normal(size=(40, 2))
        v = np.insert(v, 5, v[5], axis=0)
        pts = rng.uniform(-2.0, 2.0, size=(300, 2))
        got = _other_strand_distance(pts, _strands(v), np.full(len(pts), 0.01))
        assert got.tolist() == [loop_distance(p, v, 0.01) for p in pts]


def loop_ray_curve_hits(origin, direction, vertices, span):
    """Reference: one ray, one edge at a time.  Returns (ok, hits); ok is
    False when any hit grazes an edge endpoint or is near-tangential."""
    a = vertices
    ex = np.roll(vertices, -1, axis=0) - a
    ux, uy = direction
    denom = ux * ex[:, 1] - uy * ex[:, 0]
    rel = a - origin
    with np.errstate(divide="ignore", invalid="ignore"):
        r_param = (rel[:, 0] * ex[:, 1] - rel[:, 1] * ex[:, 0]) / denom
        t_param = (rel[:, 0] * uy - rel[:, 1] * ux) / denom
    hits = []
    margin = 1e-9
    for k, (dk, r, t) in enumerate(zip(denom.tolist(), r_param.tolist(), t_param.tolist())):
        if abs(dk) < 1e-12:
            continue
        if r <= margin or r >= span:
            continue
        if t < -margin or t > 1 + margin:
            continue
        if t < 1e-6 or t > 1 - 1e-6:
            return False, []
        edge_dir = ex[k] / np.hypot(*ex[k])
        det = ux * edge_dir[1] - uy * edge_dir[0]
        if abs(det) < np.sin(0.05):
            return False, []
        hits.append((float(r), int(k), float(t), 1 if det > 0 else -1))
    hits.sort()
    return True, hits


def loop_direction_admissible(origin, direction, guard_points):
    """Reference: does the direction keep the angular guard off every
    marked point ahead of the origin?"""
    rel = guard_points - origin
    norms = np.hypot(rel[:, 0], rel[:, 1])
    ok = norms > 1e-12
    rel = rel[ok] / norms[ok, None]
    cross = direction[0] * rel[:, 1] - direction[1] * rel[:, 0]
    dot = direction[0] * rel[:, 0] + direction[1] * rel[:, 1]
    return not np.any((np.abs(cross) < ANGULAR_GUARD) & (dot > 0))


def ray_setup(c, arr):
    v = c.vertices
    span = 3.0 * max(2.0 * float(np.max(np.hypot(*(v - v.mean(axis=0)).T))), 1.0)
    marked = [v] + [x.point[None, :] for x in arr.crossings]
    if c.corners:
        marked.append(v[sorted(c.corners)])
    return span, np.vstack(marked)


def witnesses(arr):
    return np.array([f.witness for f in arr.bounded_faces])


def loop_blank_word(c, arr, seed):
    """Reference word: the 64 directions of each face tried one by one, the
    first admissible one with the fewest hits kept."""
    span, guard_points = ray_setup(c, arr)
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, 2 * np.pi / N_RAY_DIRECTIONS)
    rays, letters = {}, []
    for face in arr.bounded_faces:
        best = None
        for d_idx in range(N_RAY_DIRECTIONS):
            ang = offset + 2 * np.pi * d_idx / N_RAY_DIRECTIONS
            u = np.array([np.cos(ang), np.sin(ang)])
            if not loop_direction_admissible(face.witness, u, guard_points):
                continue
            ok, hits = loop_ray_curve_hits(face.witness, u, c.vertices, span)
            if ok and hits and (best is None or len(hits) < len(best[1])):
                best = (u, hits)
        u, hits = best
        rays[face.id] = (u, hits)
        for index, (r, k, t, sign) in enumerate(hits):
            letters.append((k + t, Letter(face.id, index, sign), face.witness + r * u))
    letters.sort(key=lambda item: item[0])
    return letters, rays


@lru_cache(maxsize=None)
def ray_cases():
    """Every fixture in generic position and ten glued curves, with their
    arrangements (tangent-touch needs a jitter first)."""
    cases = [(name, make()) for name, make in FIXTURES.items() if name != "tangent-touch"]
    for seed in range(10):
        c, _ = glued_positive_loops(2 + seed % 7, seed=seed, n_per=(32, 48, 64, 128)[seed % 4])
        cases.append((f"glued-{seed}", c))
    return tuple((name, c, build_arrangement(c)) for name, c in cases)


def fan_matches_loop(origin, vertices, guard_points, seed, span=10.0):
    """Cast the fan from one origin and compare every direction with the loop
    references; returns the fan."""
    dirs = blank._ray_directions(seed)
    fan = blank._cast_fan(origin[None, :], dirs, vertices, span, guard_points)
    for d, u in enumerate(dirs):
        assert bool(fan.admissible[0, d]) == loop_direction_admissible(origin, u, guard_points), d
        ok, hits = loop_ray_curve_hits(origin, u, vertices, span)
        assert bool(fan.ok[0, d]) == ok, d
        if ok:
            assert fan_hits(fan, 0, d) == hits, d
            assert fan.n_hits[0, d] == len(hits), d
    return fan


def fan_hits(fan, i, d):
    """The sorted hits of direction d from origin i."""
    chosen = np.zeros(fan.admissible.shape[0], dtype=np.int64)
    chosen[i] = d
    return fan.hits(chosen)[i]


def seed_with_offset_below(bound):
    """The first ray seed whose direction 0 lies within `bound` of angle 0."""
    for seed in range(100_000):
        u = blank._ray_directions(seed)[0]
        if np.arctan2(u[1], u[0]) < bound:
            return seed
    raise AssertionError("no such seed")


class TestRayFan:
    """The ray fan against the per-direction edge loop."""

    def test_every_direction_matches_the_loop(self):
        n_dirs = 0
        for name, c, arr in ray_cases():
            span, guard_points = ray_setup(c, arr)
            dirs = blank._ray_directions(seed=7)
            fan = blank._cast_fan(witnesses(arr), dirs, c.vertices, span, guard_points)
            for i, face in enumerate(arr.bounded_faces):
                for d, u in enumerate(dirs):
                    adm = loop_direction_admissible(face.witness, u, guard_points)
                    ok, hits = loop_ray_curve_hits(face.witness, u, c.vertices, span)
                    assert bool(fan.admissible[i, d]) == adm, (name, face.id, d)
                    assert bool(fan.ok[i, d]) == ok, (name, face.id, d)
                    if ok:
                        assert fan_hits(fan, i, d) == hits, (name, face.id, d)
                    n_dirs += 1
        assert n_dirs > 40 * N_RAY_DIRECTIONS

    def test_thresholds_match_the_loop(self):
        # one edge PQ crosses ray 0 at angle alpha and edge parameter t; the
        # third vertex sits far ahead on the ray, so the ray ends inside the
        # triangle and PQ is its only possible hit.  The cases straddle the
        # graze, margin, tangency and span thresholds (the span one exactly).
        dirs = blank._ray_directions(seed=7)
        u = dirs[0]
        origin = np.array([0.3, -0.2])
        cases = [(a, t) for a in (0.7, -2.1) for t in
                 (-1e-9 - 1e-12, -1e-9 + 1e-12, 1e-6 - 1e-12, 1e-6 + 1e-12, 0.5,
                  1 - 1e-6 - 1e-12, 1 - 1e-6 + 1e-12, 1 + 1e-9 - 1e-12, 1 + 1e-9 + 1e-12)]
        cases += [(s * (0.05 + k * 1e-17), 0.37) for s in (1, -1) for k in range(-40, 41)]
        cases += [(s * (np.pi - 0.05) + k * 1e-12, 0.37) for s in (1, -1) for k in (-3, 3)]
        n_ok = set()
        for alpha, t in cases:
            e = np.array([np.cos(alpha) * u[0] - np.sin(alpha) * u[1],
                          np.sin(alpha) * u[0] + np.cos(alpha) * u[1]])
            p = origin + 1.5 * u - t * 0.4 * e
            vertices = np.array([p, p + 0.4 * e, origin + 40.0 * u])
            _, far = loop_ray_curve_hits(origin, u, vertices, 3.0)
            at_hit = [far[0][0]] if far else []  # a ray ending exactly at its hit
            for span in [1.5 - 1e-12, 1.5 + 1e-12, 3.0] + at_hit:
                fan = blank._cast_fan(origin[None, :], dirs, vertices, span, vertices)
                ok, hits = loop_ray_curve_hits(origin, u, vertices, span)
                assert bool(fan.ok[0, 0]) == ok, (alpha, t, span)
                if ok:
                    assert fan_hits(fan, 0, 0) == hits, (alpha, t, span)
                n_ok.add((ok, len(hits)))
        assert n_ok == {(True, 0), (True, 1), (False, 0)}

    def test_rejections_are_exercised(self):
        # the cases must include directions the guards reject, or the
        # comparison above would not test them
        rejected = {"admissible": 0, "ok": 0}
        for _name, c, arr in ray_cases():
            span, guard_points = ray_setup(c, arr)
            fan = blank._cast_fan(witnesses(arr), blank._ray_directions(7), c.vertices, span,
                                  guard_points)
            rejected["admissible"] += int((~fan.admissible).sum())
            rejected["ok"] += int((~fan.ok).sum())
        assert min(rejected.values()) > 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_blank_word_matches_the_loop(self, seed):
        for name, c, arr in ray_cases():
            rec = blank_word(c, arr, seed=seed)
            letters, rays = loop_blank_word(c, arr, seed)
            assert rec.word.letters == tuple(l for _, l, _ in letters), name
            assert rec.positions == [p for p, _, _ in letters], name
            assert all(np.array_equal(a, b) for a, b in zip(rec.points, [pt for *_, pt in letters]))
            assert set(rec.rays) == set(rays)
            for fid, (u, hits) in rays.items():
                assert np.array_equal(rec.rays[fid].direction, u), (name, fid)
                assert rec.rays[fid].hits == hits, (name, fid)

    @pytest.mark.parametrize("h", [0.0, 1e-10, -1e-10, 3e-9])
    def test_origin_on_or_near_an_edge(self, h):
        # an edge within 1e-10 of the origin subtends nearly pi and goes to
        # every direction; off the edge some rays hit it with a ray parameter
        # above the margin (at 1e-10 only the nearly parallel ones)
        v = limacon(96).vertices
        near = 0
        for k in (0, 17, 50):
            e = v[k + 1] - v[k]
            origin = v[k] + 0.37 * e + h * np.array([-e[1], e[0]]) / np.hypot(*e)
            fan = fan_matches_loop(origin, v, v, seed=3)
            near += int(np.sum((fan.k == k) & fan.ok[fan.o, fan.d]))
        assert (near > 0) == (h != 0.0)

    def test_origin_on_a_vertex(self):
        v = limacon(96).vertices
        for k in (0, 5, 60):
            fan = fan_matches_loop(v[k].copy(), v, v, seed=5)
            assert fan.n_hits.sum() > 0

    @pytest.mark.parametrize("arc", [(0.7, 0.85, 1.0, 1.15, 1.3), (0.7, 0.85, 0.95, 1.05, 1.15, 1.3)])
    def test_edges_across_the_branch_cut(self, arc):
        # seen from the origin, edge 2 of the arc (angles in units of pi) runs
        # across angle +-pi, in the first arc from a vertex on the cut itself
        # (arctan2 gives +pi there); it spans three grid steps, so some
        # direction hits it
        origin = np.array([0.25, -0.5])
        ang = np.pi * np.array(arc + (1.6, 0.3))
        radius = np.r_[np.ones(len(arc)), 2.0, 2.0]
        v = origin + radius[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        if 1.0 in arc:
            v[2] = origin + [-1.0, 0.0]
        for seed in (0, 7, 11):
            fan = fan_matches_loop(origin, v, v[[0, len(arc) - 1]], seed)
            assert np.any((fan.k == 2) & fan.ok[fan.o, fan.d])

    def test_hits_across_the_direction_wrap(self):
        # one edge spans the angles of directions 63 and 0
        step = 2 * np.pi / N_RAY_DIRECTIONS
        origin = np.array([-0.1, 0.2])
        for seed in (0, 7, 11):
            u0 = blank._ray_directions(seed)[0]
            a0 = np.arctan2(u0[1], u0[0])
            ends = np.array([a0 - step - 0.02, a0 + 0.02])
            far = np.array([a0 + 0.5 * np.pi, a0 - 0.5 * np.pi - step])
            v = origin + np.column_stack([np.cos(np.r_[ends, far]), np.sin(np.r_[ends, far])])
            fan = fan_matches_loop(origin, v, v[2:], seed)
            assert fan_hits(fan, 0, 63) and fan_hits(fan, 0, 0)
            assert {h[1] for h in fan_hits(fan, 0, 63)} == {h[1] for h in fan_hits(fan, 0, 0)} == {0}

    @pytest.mark.parametrize("f", [0.5, 1 - 1e-6, 1 + 1e-6, 1.5])
    def test_guard_window_across_the_branch_cut(self, f):
        # direction 32 sits just past -pi; a guard point f windows short of it
        # lies across the cut, just short of +pi, and blocks it when f < 1
        seed = seed_with_offset_below(2e-4)
        u = blank._ray_directions(seed)[32]
        ang = np.arctan2(u[1], u[0]) - f * np.arcsin(ANGULAR_GUARD)
        assert ang < -np.pi
        origin = np.array([0.3, 0.1])
        guards = origin + np.array([[np.cos(ang), np.sin(ang)], [1.0, 0.5]])
        v = origin + np.array([[-2.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-2.0, 1.0]])
        fan = fan_matches_loop(origin, v, guards, seed)
        assert fan.admissible[0, 32] == (f > 1)


def test_cast_fan_memory_is_linear_in_edges():
    # one (64 x E) float array on double-pocket (E = 4145) is 2.1 MB
    c = double_pocket()
    arr = build_arrangement(c)
    span, guard_points = ray_setup(c, arr)
    dirs = blank._ray_directions(3)
    tracemalloc.start()
    try:
        blank._cast_fan(arr.bounded_faces[0].witness[None, :], dirs, c.vertices, span, guard_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_blank_word_memory_stays_bounded():
    # all six faces of double-pocket in one fan: the (faces x edges) sweep
    # temporaries are freed before the candidate pairs and the guard pass
    c = double_pocket()
    arr = build_arrangement(c)
    tracemalloc.start()
    try:
        blank_word(c, arr, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# --- references for the batched topology passes: the per-vertex cut, the
# --- per-face witness search and the single-origin ray fan they replaced

def loop_cut_at_crossings(c, crossings):
    """Reference cut: one arc at a time, one vertex at a time."""
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


def single_strand_distance(p, strands, host_len) -> float:
    """Reference clearance of one point."""
    a, ab, denom = strands
    t = np.zeros_like(denom)
    np.divide(np.vecdot(p - a, ab), denom, out=t, where=denom != 0)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    d = np.hypot(*(p - proj).T)
    far = d[d > 0.51 * host_len]
    return float(np.min(far)) if far.size else host_len


def loop_find_witness(walk, curve_vertices):
    """Reference witness of one face, its candidates tried one at a time."""
    seg = np.concatenate([walk[1:], walk[:1]]) - walk
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    order = np.argsort(-lengths)
    strands = _strands(curve_vertices)
    for k in order[: min(40, len(order))]:
        if lengths[k] < 1e-12:
            continue
        mid = walk[k] + 0.5 * seg[k]
        normal = np.array([-seg[k, 1], seg[k, 0]]) / lengths[k]
        clearance = single_strand_distance(mid, strands, lengths[k])
        delta = 0.3 * min(clearance, lengths[k])
        cand = mid + delta * normal
        if winding_batch(cand[None, :], walk)[0] == 1:
            return cand
    raise AssertionError("no witness")


def single_origin_fan(origin, dirs, vertices, span, guard_points):
    """Reference fan of one origin: (admissible, ok, n_hits, d, k, r, t, det)."""
    n_dirs = N_RAY_DIRECTIONS
    offset = float(np.arctan2(dirs[0, 1], dirs[0, 0]))
    edge = np.roll(vertices, -1, axis=0) - vertices
    length = np.hypot(edge[:, 0], edge[:, 1])
    relx = vertices[:, 0] - origin[0]
    rely = vertices[:, 1] - origin[1]
    ang = np.arctan2(rely, relx)
    rho = np.hypot(relx, rely)
    sweep = np.concatenate([ang[1:], ang[:1]]) - ang
    sweep -= 2 * np.pi * np.rint(sweep / (2 * np.pi))
    scale = max(float(np.max(np.abs(vertices))), float(np.max(np.abs(origin))))
    with np.errstate(divide="ignore", invalid="ignore"):
        pad = (4e-9 * length + 1e-12 * scale) / np.minimum(
            rho, np.concatenate([rho[1:], rho[:1]])) + 1e-9
        width = np.abs(sweep) + 2 * pad
        lo = ang + np.minimum(sweep, 0.0) - pad
        first, count = blank._grid_span(offset, lo, lo + width)
    wide = ~(width < np.pi)
    first[wide] = 0
    count[wide] = n_dirs
    k = np.repeat(np.arange(len(count)), count)
    start = np.cumsum(count) - count
    d = (first[k] + np.arange(len(k)) - start[k]) % n_dirs

    ux, uy = dirs[d, 0], dirs[d, 1]
    ex, ey = edge[k, 0], edge[k, 1]
    rx, ry = relx[k], rely[k]
    denom = ux * ey - uy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (rx * ey - ry * ex) / denom
        t = (rx * uy - ry * ux) / denom
    margin = 1e-9
    hit = np.flatnonzero(
        (np.abs(denom) >= 1e-12)
        & (r > margin) & (r < span)
        & (t >= -margin) & (t <= 1 + margin)
    )
    d, k, r, t = d[hit], k[hit], r[hit], t[hit]
    det = ux[hit] * (ey[hit] / length[k]) - uy[hit] * (ex[hit] / length[k])
    bad = (t < 1e-6) | (t > 1 - 1e-6) | (np.abs(det) < np.sin(0.05))
    ok = np.bincount(d[bad], minlength=n_dirs) == 0

    gx = guard_points[:, 0] - origin[0]
    gy = guard_points[:, 1] - origin[1]
    g_ang = np.arctan2(gy, gx)
    window = np.arcsin(ANGULAR_GUARD) + 1e-9
    g_first, g_count = blank._grid_span(offset, g_ang - window, g_ang + window)
    near = np.flatnonzero(g_count > 0)
    norms = np.hypot(gx[near], gy[near])
    apart = norms > 1e-12
    near, norms = near[apart], norms[apart]
    gx, gy = gx[near] / norms, gy[near] / norms
    g_d = g_first[near] % n_dirs
    ux, uy = dirs[g_d, 0], dirs[g_d, 1]
    cross = ux * gy - uy * gx
    dot = ux * gx + uy * gy
    admissible = np.bincount(g_d[(np.abs(cross) < ANGULAR_GUARD) & (dot > 0)],
                             minlength=n_dirs) == 0
    return admissible, ok, np.bincount(d, minlength=n_dirs), d, k, r, t, det


@lru_cache(maxsize=None)
def topology_inputs():
    """The curves of the topology benchmark schedule for seeds 1-3, with
    their ray seeds: the four figure fixtures (ray seed 7) and, per seed, two
    glued-loop curves for each m in 2..8 and n_per in (32, 48, 64, 128)."""
    cases = [(name, FIXTURES[name](), 7)
             for name in ("fblank-1", "fblank-2", "fseifert", "double-pocket")]
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, 1])
        for m in range(2, 9):
            for n_per in (32, 48, 64, 128):
                for copy in range(2):
                    loop_seed, ray_seed = (int(v) for v in rng.integers(0, 1 << 31, size=2))
                    c, _ = glued_positive_loops(m, loop_seed, n_per)
                    cases.append((f"{seed}-m{m}-n{n_per}-{copy}", c, ray_seed))
    return tuple(cases)


def oracle_cases():
    """(name, curve, ray seed) of every ray case and topology input, each
    curve as the arrangement reads it (corners filleted)."""
    for name, c, _arr in ray_cases():
        yield name, fillet_corners(c), 7
    for name, c, ray_seed in topology_inputs():
        yield name, fillet_corners(c), ray_seed


class TestBatchedTopologyOracles:
    """The batched cut, witness rounds and ray fan give the bits of the
    per-vertex, per-face and single-origin references."""

    def test_cut_matches_the_per_vertex_loop(self):
        n_arcs = 0
        curves = [(name, c) for name, c, _ in oracle_cases()]
        curves += [(name, c) for name, c, _ in topology_inputs() if c.corners]
        for name, c in curves:
            crossings = self_intersections(c)
            if not crossings:
                continue
            passages, arcs = cut_at_crossings(c, crossings)
            ref_passages, ref_arcs = loop_cut_at_crossings(c, crossings)
            assert passages == ref_passages, name
            assert [type(p) for pair in passages for p in pair] == [float, int] * len(passages)
            assert len(arcs) == len(ref_arcs), name
            for a, b in zip(arcs, ref_arcs):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
            n_arcs += len(arcs)
        assert n_arcs > 1000

    def test_witnesses_match_the_per_face_search(self):
        for name, c, _ in oracle_cases():
            arr = build_arrangement(c)
            for face in arr.bounded_faces:
                ref = loop_find_witness(face.walk, c.vertices)
                assert face.witness.tobytes() == ref.tobytes(), (name, face.id)

    def test_rejected_candidates_fall_through_to_later_rounds(self):
        # a thin rectangle with the curve far away: the clearance is the host
        # length, so the candidates off the two long sides land outside the
        # face and their windings reject them; a short side's candidate holds
        from liouville_disk.arrangement import _find_witnesses

        thin = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.01], [0.0, 0.01]])
        far = 100.0 + np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8))])
        (got,) = _find_witnesses([thin], far)
        assert winding_batch(got[None, :], thin)[0] == 1
        assert got.tobytes() == loop_find_witness(thin, far).tobytes()
        # two faces rejected in the same rounds
        faces = [thin, thin + [0.0, 2.0]]
        assert [w.tobytes() for w in _find_witnesses(faces, far)] == [
            loop_find_witness(f, far).tobytes() for f in faces]

    def test_fan_fields_match_the_single_origin_fan(self):
        names = ("admissible", "ok", "n_hits", "d", "k", "r", "t", "det")
        for name, c, ray_seed in oracle_cases():
            arr = build_arrangement(c)
            span, guard_points = ray_setup(c, arr)
            dirs = blank._ray_directions(ray_seed)
            fan = blank._cast_fan(witnesses(arr), dirs, c.vertices, span, guard_points)
            for i, face in enumerate(arr.bounded_faces):
                ref = single_origin_fan(face.witness, dirs, c.vertices, span, guard_points)
                mine = dict(admissible=fan.admissible[i], ok=fan.ok[i], n_hits=fan.n_hits[i],
                            **{f: getattr(fan, f)[fan.o == i] for f in names[3:]})
                for field_name, want in zip(names, ref):
                    got = mine[field_name]
                    assert got.dtype == want.dtype, (name, face.id, field_name)
                    assert np.array_equal(got, want), (name, face.id, field_name)
                    assert got.tobytes() == want.tobytes(), (name, face.id, field_name)


# --- the clockwise-search face tracer and the dict-built Seifert successor
# --- that the two permutations replaced

def loop_trace_faces(arcs, passages):
    """Reference face tracer: a half-edge is (arc, dir), dir +1 along the
    curve and -1 against it; from each half-edge a linear search of the
    outgoing ends at its head takes the first direction clockwise from the
    reversed arrival.  Faces in the order of their first half-edge."""
    n = len(passages)
    start_node = [passages[k][1] for k in range(n)]
    end_node = [passages[(k + 1) % n][1] for k in range(n)]
    # incident ends at each crossing: (angle_away, arc_id, dir_leaving)
    outgoing = {}
    for k, pts in enumerate(arcs):
        d0 = pts[1] - pts[0]
        outgoing.setdefault(start_node[k], []).append((float(np.arctan2(d0[1], d0[0])), k, +1))
        d1 = pts[-2] - pts[-1]
        outgoing.setdefault(end_node[k], []).append((float(np.arctan2(d1[1], d1[0])), k, -1))
    for ends in outgoing.values():
        ends.sort()

    def next_halfedge(h):
        k, d = h
        pts = arcs[k]
        v = pts[-1] - pts[-2] if d > 0 else pts[0] - pts[1]
        back = (float(np.arctan2(v[1], v[0])) + np.pi) % TWO_PI
        best, best_key = None, np.inf
        for ang, k2, d2 in outgoing[end_node[k] if d > 0 else start_node[k]]:
            key = (back - ang) % TWO_PI
            if key < 1e-12:
                key = TWO_PI
            if key < best_key:
                best, best_key = (k2, d2), key
        return best

    seen = set()
    cycles = []
    for k in range(len(arcs)):
        for d in (+1, -1):
            cycle = []
            cur = (k, d)
            while cur not in seen:
                seen.add(cur)
                cycle.append(cur)
                cur = next_halfedge(cur)
            if cycle:
                cycles.append(cycle)
    return cycles


def loop_seifert_successor(passages):
    """Reference smoothing: strand k runs from passage k to passage k + 1, and
    at a crossing with passages k1, k2 the strand ending at k1 goes on from k2
    and the strand ending at k2 from k1."""
    n = len(passages)
    by_crossing = {}
    for k, (_p, cid) in enumerate(passages):
        by_crossing.setdefault(cid, []).append(k)
    succ = {}
    for k1, k2 in by_crossing.values():
        succ[(k1 - 1) % n] = k2
        succ[(k2 - 1) % n] = k1
    return [succ[k] for k in range(n)]


def spy_cycles(monkeypatch):
    """Record (permutation, cycles) of every call of the cycle helper."""
    calls = []
    real = arrangement._cycles

    def spy(nxt):
        calls.append((list(nxt), real(nxt)))
        return calls[-1][1]

    monkeypatch.setattr(arrangement, "_cycles", spy)
    monkeypatch.setattr(blank, "_cycles", spy)
    return calls


def walk_of(arcs, cycle):
    """Closed walk along the half-edges of a cycle, 2k along arc k and 2k + 1
    against it."""
    return np.vstack([(arcs[h >> 1] if h % 2 == 0 else arcs[h >> 1][::-1])[:-1] for h in cycle])


class TestCyclePermutations:
    def test_cycles_start_at_their_lowest_element(self):
        assert arrangement._cycles([2, 0, 1, 3, 5, 4]) == [[0, 2, 1], [3], [4, 5]]
        assert arrangement._cycles([]) == []

    def test_face_cycles_match_the_clockwise_search(self, monkeypatch):
        calls = spy_cycles(monkeypatch)
        n_faces = 0
        for name, c, _ in oracle_cases():
            crossings = self_intersections(c)
            if not crossings:
                continue
            calls.clear()
            arr = build_arrangement(c)
            ((_, cycles),) = calls
            passages, arcs = cut_at_crossings(c, crossings)
            want = loop_trace_faces(arcs, passages)
            assert [[(h >> 1, 1 - 2 * (h % 2)) for h in cyc] for cyc in cycles] == want, name
            walks = sorted(walk_of(arcs, cyc).tobytes() for cyc in cycles)
            assert walks == sorted(f.walk.tobytes() for f in arr.faces), name
            assert len(arr.arcs) == len(arcs), name
            n_faces += len(cycles)
        assert n_faces > 500

    def test_seifert_successor_matches_the_dict_rewiring(self, monkeypatch):
        calls = spy_cycles(monkeypatch)
        n_strands = 0
        for name, c, _ in oracle_cases():
            crossings = self_intersections(c)
            if not crossings:
                continue
            calls.clear()
            pieces = seifert_decompose(c)
            ((nxt, cycles),) = calls
            passages, _ = cut_at_crossings(c, crossings)
            assert nxt == loop_seifert_successor(passages), name
            assert len(pieces) == len(cycles), name
            n_strands += len(nxt)
        assert n_strands > 1000

    def test_merged_face_cycles_trip_the_euler_check(self, monkeypatch):
        # two bounded faces walked as one keep one unbounded face, so only
        # V - E + F = 2 can catch it
        c = limacon()
        _, arcs = cut_at_crossings(c, self_intersections(c))
        real = arrangement._cycles

        def merged(nxt):
            cycles = real(nxt)
            i, j = [k for k, cyc in enumerate(cycles) if _signed_area(walk_of(arcs, cyc)) > 0]
            return [cyc for k, cyc in enumerate(cycles) if k != j and k != i] + [cycles[i] + cycles[j]]

        monkeypatch.setattr(arrangement, "_cycles", merged)
        with pytest.raises(ArrangementCorrupt, match="Euler check failed: V-E\\+F = 1-2\\+2"):
            build_arrangement(c)

    def test_wrong_rotation_index_trips_the_orientation_sum(self, monkeypatch, tmp_path):
        real = blank.rotation_index
        monkeypatch.setattr(
            blank, "rotation_index", lambda c: dataclasses.replace(real(c), index=real(c).index + 1))
        with pytest.raises(DecompositionCorrupt, match="sum to 1, rotation index is 2"):
            seifert_decompose(fseifert())
        path = tmp_path / "fseifert.json"
        path.write_text(json.dumps(fseifert().to_json()))
        assert main(["seifert", "--in", str(path)]) == 2


# --- reference for the gluing report: the boundary rebuilt vertex by vertex,
# --- letters found by scanning a label list, and every piece and remainder
# --- closed by a chord resampled at the median edge length

def resample_segment(a, b, step):
    n = max(int(np.ceil(np.hypot(*(b - a)) / step)), 2)
    t = np.linspace(0.0, 1.0, n + 1)[:-1, None]
    return (1 - t) * a + t * b


def find_label(labels, letter_id):
    for k, l in enumerate(labels):
        if l == letter_id:
            return k
    raise KeyError(letter_id)


def cyclic_slice(boundary, labels, a_idx, b_idx):
    n = len(boundary)
    if a_idx <= b_idx:
        sel = list(range(a_idx, b_idx + 1))
        rest = list(range(b_idx, n)) + list(range(0, a_idx + 1))
    else:
        sel = list(range(a_idx, n)) + list(range(0, b_idx + 1))
        rest = list(range(b_idx, a_idx + 1))
    return boundary[sel], boundary[rest], [labels[r] for r in rest]


def chord_gluing_indices(c, rec, res):
    """Reference piece indices: each step cuts the stretch from the plus
    letter to its minus letter and closes both sides with a resampled chord."""
    step_len = float(np.median(c.lengths))
    events = sorted(zip(rec.positions, range(len(rec.positions))))
    pts, letter_vertex, ev_idx = [], {}, 0
    for i in range(c.m):
        pts.append(c.vertices[i])
        while ev_idx < len(events) and int(np.floor(events[ev_idx][0])) == i:
            letter_vertex[events[ev_idx][1]] = len(pts)
            pts.append(np.asarray(rec.points[events[ev_idx][1]]))
            ev_idx += 1
    boundary = np.asarray(pts)
    order = [letter_id for _pos, letter_id in events]
    labels = [None] * len(boundary)
    for letter_id, vidx in letter_vertex.items():
        labels[vidx] = letter_id

    indices = []
    for st in res.steps:
        plus_id, minus_id = order[st.plus_pos], order[st.minus_pos]
        removed = [order[(st.plus_pos + k) % len(order)] for k in range(len(st.removed))]
        for rid in removed:
            order.remove(rid)
        a_idx, b_idx = find_label(labels, plus_id), find_label(labels, minus_id)
        piece_pts, rest_pts, rest_labels = cyclic_slice(boundary, labels, a_idx, b_idx)
        A, B = boundary[a_idx], boundary[b_idx]
        indices.append(blank._loose_rotation_index(
            np.vstack([piece_pts, resample_segment(B, A, step_len)])))
        bridge = resample_segment(A, B, step_len)
        boundary = np.vstack([rest_pts, bridge])
        labels = rest_labels + [None] * len(bridge)
    indices.append(blank._loose_rotation_index(boundary))
    return indices


def test_gluing_slicing_matches_the_chord_reference(monkeypatch):
    # every fixture in generic position at five ray seeds, and the topology
    # benchmark inputs, each as extendability_check reads it.  The indices
    # are integers that a point more or less at a cut does not move, so the
    # closed polylines behind them must also agree in signed area and
    # length, which the points of a straight chord do not change.
    measured = []
    loose = blank._loose_rotation_index

    def recording(pts):
        nxt = np.roll(pts, -1, axis=0)
        measured.append((_signed_area(pts), float(np.sum(np.hypot(*(nxt - pts).T)))))
        return loose(pts)

    monkeypatch.setattr(blank, "_loose_rotation_index", recording)
    cases = [(f"{name}-{seed}", make(), seed) for name, make in FIXTURES.items()
             if name != "tangent-touch" for seed in (0, 3, 5, 7, 11)]
    cases += list(topology_inputs())
    n_steps = []
    for name, c, seed in cases:
        work = fillet_corners(c)
        rec = blank_word(work, build_arrangement(work), seed=seed)
        res = contract(rec.word)
        if not res.steps:
            continue
        got = blank._gluing_indices(work, rec, res)
        got_measures = measured[:]
        measured.clear()
        assert got == chord_gluing_indices(work, rec, res), name
        np.testing.assert_allclose(got_measures, measured, rtol=1e-9, err_msg=name)
        measured.clear()
        n_steps.append(len(res.steps))
    assert len(n_steps) >= 15 and max(n_steps) >= 2


def test_gluing_piece_of_non_integral_turning_is_reported(monkeypatch):
    # the first piece turns 0.2 of a full turn too far, well outside the
    # 0.05 rounding guard (0.05 x 2 pi is about 0.31 rad): its index is not
    # rounded away but lands in the report, and the verdict stands
    base = extendability_check(fblank_first())
    assert len(base.gluing["piece_indices"]) >= 2
    turns = blank._vertex_turns
    calls = []

    def off_on_first_piece(x):
        out = turns(x)
        if not calls:
            out[0] += 0.2 * TWO_PI
        calls.append(out.size)
        return out

    monkeypatch.setattr(blank, "_vertex_turns", off_on_first_piece)
    rep = extendability_check(fblank_first())
    assert calls and set(rep.gluing) == {"error"}
    assert rep.gluing["error"].startswith("NumericalInconsistency: ")
    assert (rep.index, rep.word, rep.word_contracts) == (base.index, base.word, base.word_contracts)


class TestBlankWord:
    def test_circle_single_positive_letter(self):
        rec = blank_word(circle(256), seed=7)
        assert rec.word.canonical() == "a0+"

    def test_limacon_all_positive_two_names(self):
        rec = blank_word(limacon(), seed=7)
        assert all(l.sign > 0 for l in rec.word.letters)
        assert len({l.face for l in rec.word.letters}) == 2
        assert len(rec.word) == 3

    def test_figure_eight_matches_infinity_word(self):
        rec = blank_word(figure_eight(), seed=7)
        assert rec.word.canonical() == INFINITY_WORD.canonical()

    def test_fblank_first_matches_figure_word(self):
        rec = blank_word(fblank_first(), seed=7)
        assert rec.word.canonical() == PAPER_WORD.canonical()

    def test_deterministic_given_seed(self):
        c = fblank_first()
        a = blank_word(c, seed=3)
        b = blank_word(c, seed=3)
        assert str(a.word) == str(b.word)
        assert a.positions == b.positions

    def test_no_admissible_direction_raises(self):
        # from the centre of a 8192-gon the vertices are 7.7e-4 rad apart,
        # closer than the angular guard, so every direction is blocked
        c = circle(8192)
        arr = build_arrangement(c)
        (face,) = arr.bounded_faces
        centred = dataclasses.replace(face, witness=np.zeros(2))
        arr = dataclasses.replace(arr, faces=[centred if f is face else f for f in arr.faces])
        with pytest.raises(RayCastFailed, match="face a"):
            blank_word(c, arr, seed=7)

    def test_indices_consecutive_per_ray(self):
        rec = blank_word(fblank_first(), seed=7)
        for ray in rec.rays.values():
            assert [h[0] for h in ray.hits] == sorted(h[0] for h in ray.hits)
        by_face = {}
        for l in rec.word.letters:
            by_face.setdefault(l.face, []).append(l.index)
        for idxs in by_face.values():
            assert sorted(idxs) == list(range(len(idxs)))


def _contraction_moves(letters):
    """All admissible (minus_pos, plus_pos) pairs: a minus letter and a
    same-face plus letter with no other minus cyclically between them."""
    n = len(letters)
    moves = []
    for p in range(n):
        if letters[p].sign > 0:
            continue
        q = (p - 1) % n
        while q != p:
            if letters[q].sign < 0:
                break
            if letters[q].face == letters[p].face:
                moves.append((p, q))
            q = (q - 1) % n
    return moves


def _contract_exhaustive(letters, steps, seen):
    """Oracle: every order of moves, depth first, with the words already seen
    (up to rotation and renaming) pruned; the steps of a full contraction,
    or None."""
    if all(l.sign > 0 for l in letters):
        return steps
    key = BlankWord(letters).canonical()
    if key in seen:
        return None
    seen.add(key)
    for p, q in _contraction_moves(letters):
        removed, rest = _apply_move(letters, p, q)
        found = _contract_exhaustive(
            rest, steps + [ContractionStep(p, q, removed, rest)], seen
        )
        if found is not None:
            return found
    return None


def interval_dp_contracts(letters):
    """Oracle: O(L^3) interval DP on the doubled word.  good[i][j] holds when
    every minus letter p of w[i:j] is the right end of an arc [q .. p] inside
    it, q a plus letter of the same face; the word contracts when some cyclic
    cut s gives good[s][s + L]."""
    n = len(letters)
    w = letters + letters
    good = [[i == j for j in range(2 * n + 1)] for i in range(2 * n + 1)]
    for length in range(1, n + 1):
        for i in range(2 * n - length + 1):
            j = i + length
            last = w[j - 1]
            if last.sign > 0:
                good[i][j] = good[i][j - 1]
            else:
                good[i][j] = any(
                    w[q].sign > 0 and w[q].face == last.face and good[i][q] and good[q + 1][j - 1]
                    for q in range(i, j - 1)
                )
    return n == 0 or any(good[s][s + n] for s in range(n))


def indexed(faces_signs):
    """Letters with each face's indices numbered in order of appearance."""
    count = {}
    letters = []
    for face, sign in faces_signs:
        letters.append(Letter(face, count.get(face, 0), sign))
        count[face] = count.get(face, 0) + 1
    return tuple(letters)


def random_letters(rng, n):
    faces = "abc"[: int(rng.integers(1, 4))]
    return indexed((faces[rng.integers(0, len(faces))], 1 if rng.random() < 0.6 else -1)
                   for _ in range(n))


def inverse_move_letters(rng, n_blocks):
    """A contractible word built by inverse moves: from 0-3 plus letters,
    each block f+ (0-2 plus letters) f- goes into a random gap, so deleting
    the blocks in reverse order contracts the word."""
    faces = "abcd"
    word = [(faces[rng.integers(0, 4)], 1) for _ in range(rng.integers(0, 4))]
    for _ in range(n_blocks):
        f = faces[rng.integers(0, 4)]
        inner = [(faces[rng.integers(0, 4)], 1) for _ in range(rng.integers(0, 3))]
        at = int(rng.integers(0, len(word) + 1))
        word[at:at] = [(f, 1)] + inner + [(f, -1)]
    return indexed(word)


class TestContract:
    def test_paper_word_contracts_with_stated_step(self):
        res = contract(PAPER_WORD)
        assert res.contracted
        first = res.steps[0]
        assert " ".join(str(l) for l in first.removed) == "a1+ b0+ a0-"
        assert " ".join(str(l) for l in first.word_after) == "b1+ c0+"

    def test_infinity_word_does_not_contract(self):
        assert not contract(INFINITY_WORD).contracted

    def test_empty_word_vacuous(self):
        assert contract(BlankWord(())).contracted

    def test_all_positive_already_contracted(self):
        res = contract(BlankWord.parse("a0+ b0+ a1+"))
        assert res.contracted and not res.steps

    def test_verdict_invariant_under_rotation_and_renaming(self):
        rng = np.random.default_rng(11)
        faces = "abcdef"
        for _ in range(100):
            n = int(rng.integers(2, 9))
            letters = tuple(
                Letter(faces[rng.integers(0, 4)], int(rng.integers(0, 3)),
                       1 if rng.random() < 0.6 else -1)
                for _ in range(n)
            )
            w = BlankWord(letters)
            base = contract(w).contracted
            # rotations
            for rot in w.rotations():
                assert contract(rot).contracted == base
            # renaming: swap two face names
            perm = {f: f for f in faces}
            a, b = faces[0], faces[int(rng.integers(1, 4))]
            perm[a], perm[b] = perm[b], perm[a]
            renamed = BlankWord(tuple(Letter(perm[l.face], l.index, l.sign) for l in letters))
            assert contract(renamed).contracted == base

    def test_final_word_keeps_the_uncovered_plus_letters(self):
        res = contract(PAPER_WORD)
        assert res.final == BlankWord(res.steps[-1].word_after) == BlankWord.parse("b1+ c0+")
        stuck = contract(INFINITY_WORD)
        assert stuck.final == INFINITY_WORD and not stuck.steps
        assert res.order == stuck.order == "leftmost"

    def test_a_move_may_wrap_around_the_end_of_the_word(self):
        # the minus letter at position 0 finds its partner by walking back
        # across the end of the word, so the deleted arc wraps
        res = contract(BlankWord.parse("a0- b0+ a1+"))
        assert res.contracted and len(res.steps) == 1
        st = res.steps[0]
        assert (st.minus_pos, st.plus_pos) == (0, 2)
        assert st.removed == (Letter("a", 1, 1), Letter("a", 0, -1))
        assert res.final == BlankWord.parse("b0+")

    def test_the_scan_skips_a_minus_letter_without_a_partner(self):
        # b0- meets a1- walking back before any b plus letter; the scan moves
        # on to a1-, whose move leaves b0- stranded
        word = BlankWord.parse("b0- a0+ a1-")
        assert blank._first_move(word.letters) == (2, 1)
        res = contract(word)
        assert not res.contracted
        assert [(st.minus_pos, st.plus_pos) for st in res.steps] == [(2, 1)]
        assert res.final == BlankWord.parse("b0-")
        assert blank._first_move(res.final.letters) is None

    def test_first_move_is_the_leftmost_nearest_move(self):
        # the scan picks the move that the minimum over every admissible move
        # picks: the leftmost minus letter, then the nearest plus walking back
        rng = np.random.default_rng(16)
        for _ in range(500):
            letters = random_letters(rng, int(rng.integers(1, 20)))
            moves = _contraction_moves(letters)
            nearest = min(moves, key=lambda pq: (pq[0], (pq[0] - pq[1]) % len(letters)), default=None)
            assert blank._first_move(letters) == nearest, letters

    def test_each_step_deletes_one_arc(self):
        # [q .. p] runs from a plus letter to a same-face minus letter, the
        # only minus letter it holds
        rng = np.random.default_rng(17)
        for _ in range(300):
            word = random_letters(rng, int(rng.integers(2, 30)))
            for st in contract(BlankWord(word)).steps:
                n, arc = len(word), st.removed
                assert arc == tuple(word[(st.plus_pos + k) % n] for k in range(len(arc)))
                assert (st.plus_pos + len(arc) - 1) % n == st.minus_pos
                assert arc[0].face == arc[-1].face and arc[-1].sign < 0
                assert all(l.sign > 0 for l in arc[:-1])
                assert len(st.word_after) == n - len(arc)
                word = st.word_after

    def test_greedy_matches_the_exhaustive_search_up_to_11_letters(self):
        rng = np.random.default_rng(12)
        verdicts = []
        for _ in range(2000):
            letters = random_letters(rng, int(rng.integers(1, 12)))
            greedy = contract(BlankWord(letters)).contracted
            assert greedy == (_contract_exhaustive(letters, [], set()) is not None), letters
            verdicts.append(greedy)
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_greedy_matches_the_interval_dp_from_12_to_40_letters(self):
        rng = np.random.default_rng(13)
        verdicts = []
        for _ in range(300):
            letters = random_letters(rng, int(rng.integers(12, 41)))
            greedy = contract(BlankWord(letters)).contracted
            assert greedy == interval_dp_contracts(letters), letters
            verdicts.append(greedy)
        assert 0.05 < np.mean(verdicts) < 0.95

    def test_the_oracles_agree(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            letters = random_letters(rng, int(rng.integers(1, 10)))
            assert interval_dp_contracts(letters) == (
                _contract_exhaustive(letters, [], set()) is not None), letters

    def test_words_built_by_inverse_moves_contract(self):
        rng = np.random.default_rng(15)
        lengths = []
        for _ in range(300):
            letters = inverse_move_letters(rng, int(rng.integers(1, 15)))
            res = contract(BlankWord(letters))
            assert res.contracted, letters
            # each move deletes exactly one minus letter
            assert len(res.steps) == sum(l.sign < 0 for l in letters)
            assert all(l.sign > 0 for l in res.final.letters)
            lengths.append(len(letters))
        assert max(lengths) >= 50

    def test_canonical_equality_across_rotation_renaming(self):
        w = PAPER_WORD
        for rot in w.rotations():
            assert rot.canonical() == w.canonical()


class TestSeifert:
    def test_circle_is_its_own_decomposition(self):
        pieces = seifert_decompose(circle(256))
        assert len(pieces) == 1 and pieces[0][1] == 1

    def test_limacon_two_positive_loops(self):
        pieces = seifert_decompose(limacon())
        assert len(pieces) == 2
        assert all(o == 1 for _, o in pieces)
        assert sum(o for _, o in pieces) == rotation_index(limacon()).index

    def test_seifert_figure_three_loops(self):
        pieces = seifert_decompose(fseifert())
        assert len(pieces) == 3
        assert sorted(o for _, o in pieces) == [-1, 1, 1]
        assert sum(o for _, o in pieces) == 1

    def test_figure_eight_opposite_pair(self):
        pieces = seifert_decompose(figure_eight())
        assert sorted(o for _, o in pieces) == [-1, 1]

    def test_glued_loops_smoke(self):
        for seed in range(6):
            m = 2 + seed % 3
            c, mm = glued_positive_loops(m, seed=seed)
            pieces = seifert_decompose(c)
            assert len(pieces) == mm
            assert all(o == 1 for _, o in pieces)
            assert rotation_index(c).index == mm


class TestExtendability:
    @pytest.mark.parametrize("mu,x0", [(0.25, 0.0), (1.0, 0.0), (4.0, 0.0), (2.0, 1.0)])
    def test_immersion_boundary_passes(self, mu, x0):
        # boundaries of maps built from the explicit solution family satisfy
        # both necessary conditions in every trial
        def u(x):
            return np.log(2 * mu / (1 + mu**2 * (np.asarray(x, dtype=float) - x0) ** 2))

        lf = pull_back(u, 256, anchor_coeff=0.0, pole_value=-np.log(mu))
        d = build_phi(analytic_completion(lf.field))
        verts, _ = boundary_polyline(d, 256)
        rep = extendability_check(PolyCurve(verts), seed=5)
        assert rep.index_ok and rep.word_contracts
        assert rep.index == 1

    def test_recentered_immersion_boundary_passes(self):
        from liouville_disk.disk import mobius_recenter

        def u(x):
            return np.log(2.0 / (1 + np.asarray(x, dtype=float) ** 2))

        lf = pull_back(u, 256, anchor_coeff=0.0, pole_value=0.0)
        d = mobius_recenter(build_phi(analytic_completion(lf.field)), 1j, 0.6)
        verts, _ = boundary_polyline(d, 256)
        rep = extendability_check(PolyCurve(verts), seed=5)
        assert rep.index_ok and rep.word_contracts

    def test_figure_eight_fails_index(self):
        rep = extendability_check(figure_eight(), seed=5)
        assert not rep.index_ok
        assert not rep.word_contracts

    def test_fblank_second_word_fails(self):
        rep = extendability_check(fblank_second(), seed=5)
        assert not rep.word_contracts

    def test_fblank_first_passes_with_gluing_identity(self):
        rep = extendability_check(fblank_first(), seed=7)
        assert rep.index_ok and rep.word_contracts
        assert rep.gluing is not None
        assert rep.gluing["identity_holds"]
        assert sum(rep.gluing["piece_indices"]) - (len(rep.gluing["piece_indices"]) - 1) == rep.index

    def test_double_pocket_two_step_gluing(self):
        # two pockets force a two-step contraction; each step slices off a
        # piece along its escape segment, and the piece indices must glue back
        # to the full rotation index
        from liouville_disk.fixtures import double_pocket

        c = double_pocket()
        assert rotation_index(c).index == 2
        rep = extendability_check(c, seed=3)
        assert rep.index_ok and rep.word_contracts
        assert len(rep.contraction.steps) == 2
        assert sum(l.sign < 0 for l in rep.word.letters) == 2
        assert rep.gluing is not None and rep.gluing["identity_holds"]
        assert rep.gluing["identity_value"] == 2
        pieces = seifert_decompose(c)
        assert sum(o for _, o in pieces) == 2

    @pytest.mark.parametrize("curve, seed", [(fblank_first, 3), (fseifert, 7), (double_pocket, 5)])
    def test_every_contraction_gets_the_gluing_report(self, curve, seed):
        # the report does not depend on the contraction order: every
        # contractible word with a step glues its pieces back to the index
        rep = extendability_check(curve(), seed=seed)
        assert rep.word_contracts and rep.contraction.steps
        assert rep.gluing is not None and rep.gluing["identity_holds"]
        assert len(rep.gluing["piece_indices"]) == rep.contraction.n_pieces
        assert rep.to_json()["contraction_order"] == "leftmost"

    def test_marked_square_passes(self):
        # corners are flattened before the word is built
        rep = extendability_check(marked_square(), seed=5)
        assert rep.index_ok and rep.word_contracts

    def test_gluing_failure_keeps_its_reason(self, monkeypatch):
        def broken(*_args):
            raise KeyError("letter 3")

        monkeypatch.setattr(blank, "_gluing_indices", broken)
        rep = extendability_check(fblank_first(), seed=7)
        assert rep.index_ok and rep.word_contracts  # the verdict stands
        assert rep.to_json()["gluing"] == {"error": "KeyError: 'letter 3'"}

    def test_glued_loops_all_positive_words(self):
        for seed in (3, 4, 5):
            c, m = glued_positive_loops(2 + seed % 3, seed=seed)
            rep = extendability_check(c, seed=seed)
            assert rep.index_ok and rep.word_contracts
            assert all(l.sign > 0 for l in rep.word.letters)


def test_word_json_roundtrip():
    rec = blank_word(fblank_first(), seed=7)
    obj = rec.word.to_json()
    assert obj["canonical"] == PAPER_WORD.canonical()
    assert BlankWord.from_json(obj) == rec.word


def test_parse_reads_multi_digit_indices():
    w = BlankWord.parse("a10+ b0- a2+")
    assert w.letters == (Letter("a", 10, 1), Letter("b", 0, -1), Letter("a", 2, 1))
    assert BlankWord.parse(str(w)) == w


@pytest.mark.parametrize("text", ["a10 b0+", "a0", "a+", "ab0+", "a0*", "a-1+", "10+", "a0+-"])
def test_parse_rejects_malformed_letters(text):
    # a token without a sign used to become a minus letter with its last
    # index digit dropped
    with pytest.raises(InvalidInput):
        BlankWord.parse(text)


@pytest.mark.parametrize("letter", [["a", 0, "*"], ["a", 1.5, "+"], ["ab", 0, "+"], ["a", -1, "-"]])
def test_from_json_rejects_malformed_letters(letter):
    with pytest.raises(InvalidInput):
        BlankWord.from_json({"letters": [["b", 0, "+"], letter]})
