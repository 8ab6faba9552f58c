"""Rotation index, self-intersection detection, jitter, and corner machinery
against closed-form and dense-sampling oracles.
"""

import dataclasses

import numpy as np
import pytest

from liouville_disk.blank import extendability_check
from liouville_disk.curves import (
    PolyCurve,
    _tie_break_pi,
    fillet_corners,
    jitter,
    rotation_index,
    self_intersections,
    wrap_angle,
)
from liouville_disk.disk import analytic_completion, boundary_polyline
from liouville_disk.errors import (
    InvalidInput,
    NotGenericPosition,
)
from liouville_disk import fixtures
from liouville_disk.fixtures import (
    _catmull_rom_closed,
    _curl_double_loop,
    circle,
    figure_eight,
    fseifert,
    limacon,
    marked_square,
    tangent_touch,
)
from liouville_disk.spectral import PeriodicGrid, SingularField

TWO_PI = 2 * np.pi


def dense_turning_oracle(x_fn, y_fn, n=200_000):
    """Independent oracle: total turning of a C1 parametric curve from a very
    dense tangent sweep."""
    t = np.linspace(0, TWO_PI, n, endpoint=False)
    dx = np.gradient(x_fn(t), t)
    dy = np.gradient(y_fn(t), t)
    ang = np.arctan2(dy, dx)
    turn = wrap_angle(np.diff(np.concatenate([ang, ang[:1]])))
    return float(np.sum(turn) / TWO_PI)


class TestRotationIndex:
    def test_circle(self):
        assert rotation_index(circle(256)).index == 1

    def test_limacon_against_oracle(self):
        oracle = dense_turning_oracle(
            lambda t: (1 + 2 * np.cos(t)) * np.cos(t),
            lambda t: (1 + 2 * np.cos(t)) * np.sin(t),
        )
        assert round(oracle) == 2
        assert rotation_index(limacon()).index == 2

    def test_figure_eight_against_oracle(self):
        oracle = dense_turning_oracle(
            lambda t: np.sin(t), lambda t: np.sin(t) * np.cos(t)
        )
        assert round(oracle) == 0
        assert rotation_index(figure_eight()).index == 0

    def test_marked_square(self):
        rep = rotation_index(marked_square())
        assert rep.index == 1
        assert len(rep.exterior_angles) == 4
        for eps in rep.exterior_angles.values():
            assert abs(eps - np.pi / 2) < 1e-12

    @pytest.mark.parametrize("name, index", [
        ("circle", 1), ("limacon", 2), ("figure-eight", 0), ("fblank-1", 1),
        ("fblank-2", 0), ("fseifert", 1), ("double-pocket", 2),
    ])
    def test_invariance_under_relabeling_rigid_motion_scaling(self, name, index):
        # a similarity and a cyclic re-indexing keep the rotation index and
        # the extendability verdict at every ray seed; reversal negates the index
        base = fixtures.FIXTURES[name]()
        assert not base.corners
        verdicts = {seed: extendability_check(base, seed=seed).word_contracts for seed in (5, 7)}
        rng = np.random.default_rng(0)
        for trial in range(50):
            shift = int(rng.integers(0, base.m))
            rot = rng.uniform(0, TWO_PI)
            scale = np.exp(rng.uniform(-1, 1))
            off = rng.normal(size=2)
            R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
            v = np.roll(base.vertices, shift, axis=0)
            v = scale * (v @ R.T) + off
            assert rotation_index(PolyCurve(v)).index == index
            assert rotation_index(PolyCurve(v[::-1])).index == -index
            if trial < 3:
                for seed, contracts in verdicts.items():
                    rep = extendability_check(PolyCurve(v), seed=seed)
                    assert (rep.index, rep.word_contracts) == (index, contracts), (trial, seed)

    def test_jitter_invariance_50_trials(self):
        cases = [(circle(256), 1), (limacon(), 2), (figure_eight(), 0)]
        rng = np.random.default_rng(1)
        trials = 0
        while trials < 50:
            c, idx = cases[trials % 3]
            h = float(np.min(c.lengths))
            j = jitter(c, seed=int(rng.integers(1 << 31)), magnitude=0.02 * h)
            assert rotation_index(j).index == idx
            trials += 1


def slit_curve(up: bool):
    """Thin slit with one exact tangent-reversal corner at the right end; the
    return strand sits above (up) or below the outgoing one."""
    delta = 0.02 if up else -0.02
    pts = [[x, 0.0] for x in np.linspace(0, 1, 5)]
    pts += [[x, delta] for x in np.linspace(0.75, 0.0, 4)]
    # rounded cap on the left joining (0, delta) back to (0, 0)
    cy, r = delta / 2, abs(delta) / 2
    s = 1.0 if up else -1.0
    sweep = np.linspace(s * np.pi / 2, s * 3 * np.pi / 2, 16)[1:-1]
    pts += [[r * np.cos(a), cy + r * np.sin(a)] for a in sweep]
    corners = {4: (0.0, np.pi)}
    return PolyCurve(np.asarray(pts), corners=corners)


class TestPiTieBreak:
    def test_left_turn_gets_plus_pi(self):
        c = slit_curve(up=True)
        rep = rotation_index(c)
        assert abs(rep.exterior_angles[4] - np.pi) < 1e-12
        assert rep.index == 1

    def test_right_turn_gets_minus_pi(self):
        # the mirrored slit turns right at the reversal: exterior angle -pi
        # and the whole curve is clockwise
        c = slit_curve(up=False)
        rep = rotation_index(c)
        assert abs(rep.exterior_angles[4] + np.pi) < 1e-12
        assert rep.index == -1


class TestSelfIntersections:
    def test_circle_empty(self):
        assert self_intersections(circle(256)) == []

    def test_limacon_single_crossing_at_origin(self):
        # polar algebra: r = 1 + 2 cos(theta) vanishes at theta = +-2pi/3, so
        # the unique crossing is the origin
        xs = self_intersections(limacon())
        assert len(xs) == 1
        assert np.hypot(*xs[0].point) < 0.05

    def test_figure_eight_single_crossing(self):
        xs = self_intersections(figure_eight())
        assert len(xs) == 1

    def test_crossing_order_and_angle(self):
        xs = self_intersections(fseifert())
        assert len(xs) == 2
        for x in xs:
            assert x.angle >= 0.05
            assert 0 < x.s < 1 and 0 < x.t < 1
            assert x.param_first < x.param_second

    def test_tangential_touch_rejected(self):
        with pytest.raises(NotGenericPosition):
            self_intersections(tangent_touch())


class TestJitter:
    def test_zero_magnitude_identity(self):
        c = limacon()
        j = jitter(c, seed=3, magnitude=0.0)
        assert np.array_equal(j.vertices, c.vertices)

    def test_magnitude_cap(self):
        c = circle(64)
        with pytest.raises(InvalidInput):
            jitter(c, seed=0, magnitude=1.0)

    def test_tangential_resolves_both_ways(self):
        tt = tangent_touch()
        h = float(np.min(tt.lengths))
        seen = set()
        for seed in range(1, 30):
            try:
                j = jitter(tt, seed=seed, magnitude=0.03 * h)
                xs = self_intersections(j)
            except NotGenericPosition:
                continue
            assert len(xs) in (0, 2)
            assert rotation_index(j).index == 1
            seen.add(len(xs))
        assert seen == {0, 2}  # both resolutions occur across seeds


def one_corner_square():
    """Unit square with three corners rounded off and one kept sharp."""
    r = 0.25
    pts = []
    pts += [[x, 0.0] for x in np.linspace(r, 1.0, 7)]  # bottom; sharp corner at (1, 0)
    pts += [[1.0, y] for y in np.linspace(0.0, 1 - r, 7)[1:]]
    for a in np.linspace(0, np.pi / 2, 8)[1:]:  # round (1, 1) about (1-r, 1-r)
        pts.append([1 - r + r * np.cos(a), 1 - r + r * np.sin(a)])
    pts += [[x, 1.0] for x in np.linspace(1 - r, r, 5)[1:]]
    for a in np.linspace(np.pi / 2, np.pi, 8)[1:]:  # round (0, 1) about (r, 1-r)
        pts.append([r + r * np.cos(a), 1 - r + r * np.sin(a)])
    pts += [[0.0, y] for y in np.linspace(1 - r, r, 5)[1:]]
    for a in np.linspace(np.pi, 3 * np.pi / 2, 8)[1:-1]:  # round (0, 0) about (r, r)
        pts.append([r + r * np.cos(a), r + r * np.sin(a)])
    sharp = 6  # index of (1, 0)
    return PolyCurve(np.asarray(pts), corners={sharp: None})


class TestCornerAngle:
    def test_one_corner_square(self):
        c = one_corner_square()
        rep = rotation_index(c)
        assert rep.index == 1
        assert abs(rep.exterior_angles[6] - np.pi / 2) < 1e-9

    def test_circle_with_inserted_corner(self):
        # a corner marked on a smooth curve turns by about one grid step
        rep = rotation_index(PolyCurve(circle(256).vertices, corners={0: None}))
        assert rep.index == 1
        assert abs(rep.exterior_angles[0]) < 0.05


class TestFillet:
    def test_square_fillet_preserves_index(self):
        f = fillet_corners(marked_square())
        assert not f.corners
        assert rotation_index(f).index == 1

    def test_one_corner_fillet(self):
        f = fillet_corners(one_corner_square())
        assert rotation_index(f).index == 1

    def test_corners_closer_than_two_spans_are_rejected(self):
        # each corner is rounded over FILLET_SPAN = 4 edges on each side, so
        # corners 7 edges apart would blend over each other's trims; the
        # error names the two corners, not a vertex of the filleted copy
        with pytest.raises(InvalidInput, match="corners 0 and 7 are 7 edges apart"):
            extendability_check(marked_square(points_per_side=7))
        rep = extendability_check(marked_square(points_per_side=8))
        assert (rep.index, str(rep.word), rep.word_contracts) == (1, "a0+", True)

    def test_corner_gap_is_counted_cyclically(self):
        c = PolyCurve(circle(256).vertices, corners={0: None, 250: None})
        with pytest.raises(InvalidInput, match="corners 250 and 0 are 6 edges apart"):
            fillet_corners(c)


def test_polycurve_json_roundtrip():
    c = slit_curve(up=True)
    c2 = PolyCurve.from_json(c.to_json())
    assert np.array_equal(c2.vertices, c.vertices)
    assert c2.corners == c.corners


def test_polycurve_json_has_no_orientation_and_ignores_it():
    obj = slit_curve(up=True).to_json()
    assert "orientation" not in obj
    # files written with the key still load
    c = PolyCurve.from_json({**obj, "orientation": "cw"})
    assert c.to_json() == obj


def test_polycurve_rejects_sharp_unmarked():
    pts = [[x, 0.0] for x in np.linspace(0, 1, 5)]
    pts += [[x, 0.3] for x in np.linspace(1, 0, 5)]
    with pytest.raises(InvalidInput):
        PolyCurve(np.asarray(pts))


def test_a_curve_and_its_edge_frame_are_read_only():
    # moving a vertex in place would leave the checked frame behind it:
    # vertex 10 of circle(256) on vertex 200 is no C1 curve, yet the old
    # turns would still give index 1
    c = circle(256)
    with pytest.raises(ValueError):
        c.vertices[10] = c.vertices[200]
    assert rotation_index(c).index == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.vertices = c.vertices[::-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.turns = np.zeros(c.m)
    for name in ("vertices", "edges", "lengths", "angles", "turns"):
        with pytest.raises(ValueError):
            getattr(c, name)[0] = 0.0
    marked = PolyCurve(c.vertices, corners={40: None})
    with pytest.raises(TypeError):
        marked.corners[7] = None
    assert dict(marked.corners) == {40: None}
    # the frame is what the constructor checked
    v = c.vertices
    edges = np.roll(v, -1, axis=0) - v
    assert np.array_equal(c.edges, edges)
    assert np.array_equal(c.lengths, np.hypot(edges[:, 0], edges[:, 1]))
    assert np.array_equal(c.angles, np.arctan2(edges[:, 1], edges[:, 0]))
    assert np.array_equal(c.turns, wrap_angle(c.angles - np.roll(c.angles, 1)))


def loop_turning(c):
    """Reference: the turning sum vertex by vertex, corners in place."""
    ang = c.angles
    m = c.m
    total = 0.0
    exterior = {}
    for k in range(m):
        prev_dir = ang[(k - 1) % m]
        next_dir = ang[k]
        if k in c.corners:
            rec = c.corners[k]
            tin, tout = rec if rec is not None else (prev_dir, next_dir)
            eps = float(wrap_angle(tout - tin))
            if abs(abs(eps) - np.pi) < 1e-9:
                eps = _tie_break_pi(c, k, tin)
            exterior[k] = eps
            total += wrap_angle(tin - prev_dir) + eps + wrap_angle(next_dir - tout)
        else:
            total += wrap_angle(next_dir - prev_dir)
    return float(total), exterior


def singular_corner_curve(beta, n, smooth):
    th = 2 * np.pi * np.arange(n) / n - np.pi
    sf = SingularField(PeriodicGrid(smooth * np.cos(2 * th)), ((-np.pi / 2, beta),))
    verts, corners = boundary_polyline(analytic_completion(sf), n)
    return PolyCurve(verts, corners=corners)


def turning_cases():
    yield "square", marked_square()
    yield "one-corner", one_corner_square()
    yield "slit-up", slit_curve(up=True)
    yield "slit-down", slit_curve(up=False)
    yield "fseifert", fseifert()
    for name, c in (("circle", circle(96)), ("limacon", limacon(256)),
                    ("figure-eight", figure_eight(256))):
        yield name, c
        for seed in range(3):
            yield f"{name}-jitter{seed}", jitter(c, seed, 0.05 * float(np.min(c.lengths)))
    for k, beta in enumerate(np.pi * np.array([0.05, 0.5, 0.95, -0.5])):
        yield f"corner-{beta:.3f}", singular_corner_curve(beta, 128, 0.05 * (k % 2))
    # corners listed out of order, one with a recorded tangent and a zero
    # exterior angle
    c = circle(64)
    yield "circle-marked", PolyCurve(c.vertices, corners={40: (0.3, 0.3), 7: None})


class TestRotationIndexOracle:
    def test_total_turning_bit_for_bit(self):
        n_corners = 0
        for name, c in turning_cases():
            total, exterior = loop_turning(c)
            rep = rotation_index(c)
            assert rep.total_turning == total, name
            assert rep.exterior_angles == exterior, name
            assert list(rep.exterior_angles) == sorted(exterior), name
            assert rep.index == round(total / TWO_PI), name
            n_corners += len(exterior)
        assert n_corners >= 12


def catmull_rom_loop(ctrl, samples_per_seg=40):
    """Oracle: the closed Catmull-Rom spline one sample at a time."""
    ctrl = np.asarray(ctrl, dtype=float)
    m = len(ctrl)
    pts = []
    for i in range(m):
        p0, p1, p2, p3 = ctrl[(i - 1) % m], ctrl[i], ctrl[(i + 1) % m], ctrl[(i + 2) % m]
        for t in np.linspace(0, 1, samples_per_seg, endpoint=False):
            t2, t3 = t * t, t * t * t
            pts.append(
                0.5
                * (
                    2 * p1
                    + (-p0 + p2) * t
                    + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
                    + (-p0 + 3 * p1 - 3 * p2 + p3) * t3
                )
            )
    return np.asarray(pts)


@pytest.mark.parametrize("samples_per_seg", [1, 7, 40])
def test_catmull_rom_matches_the_loop(samples_per_seg):
    rng = np.random.default_rng(3)
    for m in (3, 4, 61):
        ctrl = rng.normal(size=(m, 2))
        out = _catmull_rom_closed(ctrl, samples_per_seg)
        assert np.array_equal(out, catmull_rom_loop(ctrl, samples_per_seg))


def test_curl_double_loop_matches_the_loop_spline(monkeypatch):
    # the fixture's own control polygon, resampled as the fixture does
    out = _curl_double_loop(150.0, 2048)
    monkeypatch.setattr(fixtures, "_catmull_rom_closed", catmull_rom_loop)
    assert np.array_equal(out, _curl_double_loop(150.0, 2048))


def block_two_polyline_intersections(A, B):
    """The former fixture intersection pass: every (edge of A) x (edge of B)
    pair, one array pass per block of A's edges."""
    a0, a1 = A, np.roll(A, -1, axis=0)
    b0, b1 = B, np.roll(B, -1, axis=0)
    r = a1 - a0
    s = b1 - b0
    out = []
    rows = max(1, (1 << 16) // len(B))
    for i0 in range(0, len(A), rows):
        ri = r[i0 : i0 + rows, None, :]
        denom = ri[..., 0] * s[:, 1] - ri[..., 1] * s[:, 0]
        rel = b0 - a0[i0 : i0 + rows, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (rel[..., 0] * s[:, 1] - rel[..., 1] * s[:, 0]) / denom
            v = (rel[..., 0] * ri[..., 1] - rel[..., 1] * ri[..., 0]) / denom
        hit = (np.abs(denom) > 1e-12) & (u > 1e-9) & (u < 1 - 1e-9) & (v > 1e-9) & (v < 1 - 1e-9)
        for di, j in zip(*np.nonzero(hit)):
            i = i0 + int(di)
            out.append((i, float(u[di, j]), int(j), float(v[di, j]), a0[i] + u[di, j] * r[i]))
    return out


def test_fixture_intersections_match_the_all_pairs_pass(monkeypatch):
    # every splice of the glued loops and of double-pocket: the sweep finds
    # the same hits, bit for bit and in the same order
    swept = fixtures._two_polyline_intersections
    calls = []

    def checked(A, B):
        hits = swept(A, B)
        expect = block_two_polyline_intersections(A, B)
        assert [h[:4] for h in hits] == [h[:4] for h in expect]
        assert all(h[4].tobytes() == e[4].tobytes() for h, e in zip(hits, expect))
        calls.append(len(hits))
        return hits

    monkeypatch.setattr(fixtures, "_two_polyline_intersections", checked)
    for m in range(2, 9):
        for n_per in (32, 128):
            fixtures.glued_positive_loops(m, seed=m, n_per=n_per)
    fixtures.double_pocket()
    assert len(calls) == 2 * sum(m - 1 for m in range(2, 9)) + 1
    assert min(calls) >= 2
