"""Disk-map construction checks: analytic completion, the explicit solution
family against its closed Moebius form, boundary curvature, recentering,
conformal distance (certified chords, and undecided distances where the
certificate fails), and Blaschke fixtures.
"""

import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from liouville_disk import _kernels, disk, quant, spectral

from liouville_disk.disk import (
    BoundaryTrace,
    DiskMap,
    analytic_completion,
    boundary_curvature,
    boundary_polyline,
    build_phi,
    conformal_distance,
    curvature_mass,
    make_disk_map,
    mobius_recenter,
)
from liouville_disk.errors import InconclusiveMesh, InvalidInput, NotHolomorphic, UnderResolved
from liouville_disk.line import pull_back, stereo_inverse
from liouville_disk.mesh import build_polar_mesh
from liouville_disk.spectral import (
    PeriodicGrid,
    SingularField,
    analyze,
    conjugate_profile,
    grid_angles,
    grid_node,
    hilbert,
    log_profile,
)

TWO_PI = 2 * np.pi


def u_bubble(mu, x0=0.0):
    def u(x):
        return np.log(2 * mu / (1 + mu**2 * (np.asarray(x, dtype=float) - x0) ** 2))

    return u


def bubble_trace(mu, n=256, x0=0.0):
    lf = pull_back(u_bubble(mu, x0), n, anchor_coeff=0.0, pole_value=-np.log(mu))
    return analytic_completion(lf.field)


def rho_grid(bt):
    """The conjugate rho of a trace on its grid: rho_smooth plus the
    sawtooth conjugate of each anchor."""
    vals = bt.rho_smooth.values.copy()
    th = grid_angles(bt.n)
    for t0, c in bt.anchors:
        vals += c * conjugate_profile(th, t0)
    return vals


def phi_grid(bt):
    """Boundary derivative samples e^{lambda + i rho} (non-finite at anchors)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(bt.lambda_grid() + 1j * rho_grid(bt))


def blaschke_fixture(zeros):
    """Finite product of disk automorphism factors with the given zeros.

    Boundary curves of known degree n for the curve-topology machinery; for
    n >= 2 the derivative vanishes inside the disk, at n - 1 points counted
    with multiplicity, so the argument principle of make_disk_map finds
    them and the map is not immersed (as it must).  The boundary samples
    become a series as in disk.mobius_recenter: _boundary_modes, then
    _truncate_with_guard with their negative-frequency share.
    """
    zeros = [complex(a) for a in zeros]
    for a in zeros:
        if abs(a) >= 1.0 - 1e-12:
            raise InvalidInput("Blaschke zeros must lie strictly inside the disk")
    n_grid = 2048
    z = np.exp(1j * grid_angles(n_grid))
    vals = np.ones_like(z)
    for a in zeros:
        vals = vals * (z - a) / (1 - np.conj(a) * z)
    pos, _, neg_frac = disk._boundary_modes(vals)
    coeffs = disk._truncate_with_guard(pos, n_grid // 4, neg_frac)
    return make_disk_map(coeffs, normalized_at_one=False)


def mobius_oracle_coeffs(mu, M=96):
    """Closed form of the map built from the centered bubble: the disk
    automorphism (z - i t)/(1 + i t z) shifted to vanish at 1, t = (mu-1)/(mu+1).
    Series: (z - it)(1 + itz)^{-1} = (z - it) sum_k (-itz)^k."""
    t = (mu - 1) / (mu + 1)
    c = np.zeros(M + 1, dtype=complex)
    for k in range(M):
        c[k + 1] += (-1j * t) ** k
        c[k] += -1j * t * (-1j * t) ** k
    c[0] -= np.sum(c)
    return c


class TestAnalyticCompletion:
    def test_zero_gives_zero(self):
        bt = analytic_completion(PeriodicGrid(np.zeros(128)))
        assert np.max(np.abs(rho_grid(bt))) < 1e-13
        assert np.max(np.abs(phi_grid(bt) - 1.0)) < 1e-13

    def test_cosine_conjugate(self):
        th = grid_angles(128)
        bt = analytic_completion(PeriodicGrid(np.cos(th)))
        assert np.max(np.abs(rho_grid(bt) - np.sin(th))) < 1e-12
        expect = np.exp(np.cos(th) + 1j * np.sin(th))
        assert np.max(np.abs(phi_grid(bt) - expect)) < 1e-11

    def test_pair_has_no_negative_frequencies(self):
        rng = np.random.default_rng(9)
        th = grid_angles(256)
        lam = sum(rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th) for k in range(1, 9))
        bt = analytic_completion(PeriodicGrid(lam))
        pair = bt.lambda_grid() + 1j * rho_grid(bt)
        s = analyze(PeriodicGrid(pair))
        neg = np.sum(np.abs(s.coeffs[: s.n // 2]) ** 2)  # modes -n/2 .. -1
        assert neg < 1e-10 * np.sum(np.abs(s.coeffs) ** 2)

    def test_analyzes_the_spectrum_once(self, monkeypatch):
        # one forward transform, the real half spectrum, serves the band-limit
        # check and the conjugate: no complex transform and no mirrored
        # spectrum from analyze
        calls = []

        def counted(name, original):
            return lambda a, *args, **kw: calls.append((name, len(a))) or original(a, *args, **kw)

        for name in ("fft", "rfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        original = spectral.analyze
        for name, mod in list(sys.modules.items()):
            if name.startswith("liouville_disk") and getattr(mod, "analyze", None) is original:
                monkeypatch.setattr(mod, "analyze", lambda g: calls.append(("analyze", g.n)) or original(g))
        lam = pull_back(u_bubble(2.0), 256, anchor_coeff=0.0, pole_value=-np.log(2.0)).field
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic_completion(lam)
        assert calls == [("rfft", 256)]

    @pytest.mark.parametrize("make", [PeriodicGrid, np.asarray])
    def test_complex_boundary_data_is_invalid(self, make):
        # lambda is real: its imaginary part is refused, not dropped
        th = grid_angles(64)
        with pytest.raises(InvalidInput, match="real"):
            analytic_completion(make(np.cos(th) + 1e-3j * np.sin(th)))

    def test_under_resolved_guard(self):
        th = grid_angles(64)
        with pytest.raises(UnderResolved):
            analytic_completion(PeriodicGrid(np.cos(31 * th)))

    def test_anchor_conjugate_is_holomorphic_branch(self):
        # oracle: negative-frequency coefficients of the pair (profile,
        # sawtooth) vanish; checked by adaptive quadrature of the closed forms
        beta = np.pi / 2
        theta0 = -np.pi / 2

        def pair(t):
            phi = np.mod(t - theta0, TWO_PI)
            return beta * (log_profile(np.array([t]), theta0)[0] + 1j * (np.pi - phi) / TWO_PI)

        for m in (-1, -2, -3):
            re, _ = quad(lambda t: (pair(t) * np.exp(-1j * m * t)).real, theta0 + 1e-12, theta0 + TWO_PI - 1e-12, limit=400)
            im, _ = quad(lambda t: (pair(t) * np.exp(-1j * m * t)).imag, theta0 + 1e-12, theta0 + TWO_PI - 1e-12, limit=400)
            assert abs(re + 1j * im) / TWO_PI < 1e-8

    def test_modulus_identity(self):
        bt = bubble_trace(4.0)
        away = np.abs(grid_angles(256) + np.pi / 2) > 1e-9
        assert np.max(np.abs(np.abs(phi_grid(bt)[away]) - np.exp(bt.lambda_grid()[away]))) < 1e-10


class TestBuildPhi:
    def test_flat_map(self):
        bt = analytic_completion(PeriodicGrid(np.zeros(128)))
        d = build_phi(bt)
        z = np.exp(1j * np.linspace(-np.pi, np.pi, 17))
        assert np.max(np.abs(d(z) - (z - 1))) < 1e-12
        assert d.immersed and d.min_deriv > 0.99

    @pytest.mark.parametrize("mu", [0.25, 4.0])
    def test_bubble_gives_mobius_map(self, mu):
        d = build_phi(bubble_trace(mu))
        oracle = mobius_oracle_coeffs(mu)
        z = np.exp(1j * np.linspace(-np.pi, np.pi, 101))
        got = d(z)
        expect = np.polynomial.polynomial.polyval(z, oracle)
        assert np.max(np.abs(got - expect)) < 1e-8

    def test_cosine_boundary_modulus(self):
        th = grid_angles(256)
        bt = analytic_completion(PeriodicGrid(np.cos(th)))
        d = build_phi(bt)
        z = np.exp(1j * th)
        assert np.max(np.abs(np.abs(d.derivative(z)) - np.exp(np.cos(th)))) < 1e-8

    def test_not_holomorphic_guard(self):
        # conjugate with the wrong sign has purely negative frequencies
        th = grid_angles(128)
        lam = SingularField(PeriodicGrid(np.cos(th)))
        rho = hilbert(PeriodicGrid(-np.cos(th)))
        bt = BoundaryTrace(lam=lam, rho_smooth=rho)
        with pytest.raises(NotHolomorphic):
            build_phi(bt)

    def test_normalization(self):
        d = build_phi(bubble_trace(2.0))
        assert abs(d(1.0)) < 1e-10

    @pytest.mark.parametrize("mu, n", [(64.0, 256), (256.0, 512), (4096.0, 4096)])
    def test_under_resolved_bubble_is_not_called_non_holomorphic(self, mu, n):
        # phi's modes above n/2 fold onto negative frequencies of the n-point
        # grid; the tail guard runs first, so the verdict names the cause
        with pytest.raises(UnderResolved):
            build_phi(bubble_trace(mu, n=n))

    @pytest.mark.parametrize("leftover", [np.nan, 1e300])
    def test_tail_guard_reads_no_leftover_memory(self, monkeypatch, leftover):
        # mode 0 enters the guard's total energy: a leftover NaN there would
        # skip the guard, and a huge value would dilute the tail below it
        bt = bubble_trace(64.0, n=256)

        class Leftover:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype=float):
                return np.full(shape, leftover, dtype=dtype)

        monkeypatch.setattr(disk, "np", Leftover())
        with pytest.raises(UnderResolved, match="energy fraction"):
            build_phi(bt)


class TestBoundaryCurvature:
    def test_flat_is_unit(self):
        bt = analytic_completion(PeriodicGrid(np.zeros(64)))
        k = boundary_curvature(bt)
        assert np.max(np.abs(k.values - 1.0)) < 1e-12

    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0])
    def test_bubble_curvature_unit(self, mu):
        bt = bubble_trace(mu, n=512)
        k = boundary_curvature(bt)
        jp = 128
        mask = np.arange(512) != jp
        assert np.max(np.abs(k.values[mask] - 1.0)) < 1e-6

    @pytest.mark.parametrize("beta", [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    def test_singular_family(self, beta):
        n = 512
        sf = SingularField(PeriodicGrid(np.zeros(n)), ((-np.pi / 2, beta),))
        bt = analytic_completion(sf)
        k = boundary_curvature(bt).values
        lam = bt.lambda_grid()
        away = np.abs(grid_angles(n) + np.pi / 2) > 1e-9
        expect = (1 - beta / TWO_PI) * np.exp(-lam[away])
        assert np.max(np.abs(k[away] - expect)) < 1e-10
        # pointwise product check, then the total mass identity
        assert np.max(np.abs(k[away] * np.exp(lam[away]) - (1 - beta / TWO_PI))) < 1e-10
        assert abs(curvature_mass(bt) - (TWO_PI - beta)) < 1e-8


class TestMobiusRecenter:
    def test_t_zero_is_identity(self):
        d = build_phi(bubble_trace(2.0))
        d2 = mobius_recenter(d, 1j, 0.0)
        z = np.exp(1j * np.linspace(-np.pi, np.pi, 33))
        assert np.max(np.abs(d2(z) - d(z))) < 1e-9

    def test_flat_recentered_stays_circle(self):
        # the image of z - 1 is a unit circle; the automorphism reparametrizes
        # the boundary, and the Phi(1) = 0 normalization shifts the center to
        # -f(1)
        bt = analytic_completion(PeriodicGrid(np.zeros(256)))
        d = mobius_recenter(build_phi(bt), 1j, 0.5)
        t, a = 0.5, 1j
        f1 = (1 - t * a) / (1 - t * np.conj(a))
        th = grid_angles(512)
        w = d(np.exp(1j * th))
        assert np.max(np.abs(np.abs(w + f1) - 1.0)) < 1e-6
        assert d.immersed

    def test_length_invariance(self):
        # periodic trapezoid of |Phi' o f times f'| is the image length,
        # which reparametrization preserves
        d = build_phi(bubble_trace(4.0))
        n = 1024
        z = np.exp(1j * grid_angles(n))
        base_len = np.abs(d.derivative(z)).mean() * TWO_PI
        for t in (0.3, 0.7):
            d2 = mobius_recenter(d, 1j, t)
            new_len = np.abs(d2.derivative(z)).mean() * TWO_PI
            assert abs(new_len - base_len) < 1e-6 * base_len

    def test_tail_guard_runs_before_the_holomorphy_guard(self):
        # at t = 0.999 the composed samples alias onto the negative modes and
        # the kept series has a heavy tail: both guards trip, and the tail
        # guard speaks first, as in build_phi
        d = quant.bubble(1.0).disk_map()
        t, a = 0.999, 1j
        N = 1 << int(np.ceil(np.log2(8 * max(d.order, 256))))
        z = np.exp(1j * grid_angles(N))
        _, _, share = disk._boundary_modes(d((z - t * a) / (1 - t * np.conj(a) * z)))
        assert share > disk.NEG_FREQ_LIMIT
        with pytest.raises(UnderResolved, match="energy fraction"):
            mobius_recenter(d, a, t)

    def test_invalid_inputs(self):
        d = build_phi(bubble_trace(1.0))
        with pytest.raises(InvalidInput):
            mobius_recenter(d, 0.5, 0.5)
        with pytest.raises(InvalidInput):
            mobius_recenter(d, 1j, 1.0)


class TestBlaschke:
    def test_identity_factor(self):
        d = blaschke_fixture([0.0])
        z = np.exp(1j * np.linspace(-np.pi, np.pi, 9))
        assert np.max(np.abs(d(z) - z)) < 1e-12
        assert d.immersed

    def test_squared(self):
        d = blaschke_fixture([0.0, 0.0])
        z = np.exp(1j * np.linspace(-np.pi, np.pi, 9))
        assert np.max(np.abs(d(z) - z**2)) < 1e-12
        assert not d.immersed  # derivative vanishes at the origin

    def test_generic_degree_two_not_immersed(self):
        d = blaschke_fixture([0.3, -0.3])
        assert not d.immersed

    def test_boundary_zero_rejected(self):
        with pytest.raises(InvalidInput):
            blaschke_fixture([1.0])


def exp_cubic_map(c):
    """Phi' = e^{c z^3} through make_disk_map: Phi(z) = sum_m c^m
    z^(3m+1) / (m! (3m + 1)) - Phi(1), to m = 79.  Phi' has no zero, so the
    map is immersed; for c = 4 its boundary curve crosses itself."""
    m = np.arange(80)
    coeffs = np.zeros(3 * m.size + 2)
    coeffs[3 * m + 1] = np.cumprod(np.r_[1.0, c / m[1:]]) / (3 * m + 1)
    coeffs[0] = -np.sum(coeffs)
    return make_disk_map(coeffs)


def dented_map():
    """Phi(z) = z + 0.4 z^2 - 1.4: Phi' = 1 + 0.8 z has no zero in the closed
    disk and the map is univalent (|0.4| <= 1/2), but its image is not
    convex: the boundary bends inward around Phi(-1)."""
    return make_disk_map(np.array([-1.4, 1.0, 0.4]))


def lips(t):
    """The boundary points e^{+-i(pi - t)} on either side of the dent."""
    return np.exp(1j * (np.pi - t)), np.exp(-1j * (np.pi - t))


# maps and endpoint pairs whose chord the certificate rejects, keyed by the
# first of its tests that fails
REJECTED = {
    "not-immersed": (lambda: blaschke_fixture([0.0, 0.0]), [(1.0, -1.0), (1j, np.exp(0.3j))]),
    "not-embedded": (lambda: exp_cubic_map(4.0), [(1.0, -1.0), (1.0, 1j)]),
    "chord-crosses": (dented_map, [lips(1.0)]),
    "chord-outside": (dented_map, [lips(0.6)]),
}
# the premise that InconclusiveMesh names for each rejected case
PREMISES = {
    "not-immersed": "the map is not immersed",
    "not-embedded": "is not simple",
    "chord-crosses": "meets the boundary polygon",
    "chord-outside": "has its midpoint outside the boundary polygon",
}


def node_point(z, n):
    """The grid point of the boundary node that z rounds to."""
    return np.exp(1j * grid_angles(n)[grid_node(np.angle(z), n)])


class TestConformalDistance:
    @pytest.mark.parametrize("n", [64, 256])
    def test_flat_map_is_exact_at_every_node_pair(self, n):
        # Phi(z) = z - 1 maps the disk onto a disk: every chord is certified
        d = build_phi(analytic_completion(PeriodicGrid(np.zeros(256))))
        z = np.exp(1j * grid_angles(n))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        if n > 64:
            rng = np.random.default_rng(5)
            pairs = [pairs[i] for i in rng.choice(len(pairs), 400, replace=False)]
            pairs += [(0, 1), (0, n - 1), (0, n // 2)]
        for a, b in pairs:
            exact = abs(z[a] - z[b])
            got = conformal_distance(d, z[a], z[b], n_boundary=n)
            assert abs(got - exact) <= 1e-13 * exact
            assert got == conformal_distance(d, z[b], z[a], n_boundary=n)

    @pytest.mark.parametrize("chart", [disk.IDENTITY_CHART, (0.4, 0.3)])
    @pytest.mark.parametrize("n", [64, 256])
    def test_each_rejected_case_fails_its_own_test(self, n, chart):
        # the same series read in a chart is another map with the same
        # image, whose rejected chords fail the same premise
        for case, (make, pairs) in REJECTED.items():
            d = make_disk_map(make().coeffs, normalized_at_one=False, chart=chart)
            w = disk._on_circle(d, n)
            verts = np.column_stack([w.real, w.imag])
            ends = np.roll(verts, -1, axis=0)
            simple = _kernels.segment_hits(verts, ends)[0].size == 0
            for p, q in pairs:
                a, b = sorted((grid_node(np.angle(p), n), grid_node(np.angle(q), n)))
                others = np.ones(n, dtype=bool)
                others[[a - 1, a, b - 1, b]] = False
                meets = np.any(_kernels.segment_meets(verts[a], verts[b], verts[others], ends[others]))
                inside = _kernels.winding_batch(0.5 * (verts[a] + verts[b])[None, :], verts)[0] == 1
                tests = [("not-immersed", d.immersed), ("not-embedded", simple),
                         ("chord-crosses", not meets), ("chord-outside", inside)]
                assert [name for name, ok in tests if not ok][0] == case
                # undecided, naming its premise, in both endpoint orders
                for order in ((p, q), (q, p)):
                    with pytest.raises(InconclusiveMesh, match=PREMISES[case]):
                        conformal_distance(d, *order, n_boundary=n)

    def test_a_dented_image_takes_the_chord_where_it_lies_inside(self):
        # the dented map is embedded: chords away from the dent are certified
        d = dented_map()
        for p, q in [(1.0, 1j), (1.0, -1.0), (np.exp(2.5j), np.exp(-0.3j)), lips(1.6)]:
            z, w = node_point(p, 256), node_point(q, 256)
            exact = abs(z - w) * abs(1.0 + 0.4 * (z + w))
            assert abs(conformal_distance(d, p, q) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("chart", [disk.IDENTITY_CHART, (0.4, 0.3)])
    def test_the_first_rejected_pair_is_named(self, chart):
        # certified pairs before it change nothing: the call is undecided,
        # and names the chord of the pair that failed
        d = make_disk_map(dented_map().coeffs, normalized_at_one=False, chart=chart)
        p, q = lips(1.0)
        a, b = sorted((grid_node(np.angle(p), 256), grid_node(np.angle(q), 256)))
        with pytest.raises(InconclusiveMesh, match=f"nodes {a} and {b} meets the boundary polygon"):
            disk.conformal_distances(d, [(1.0, 1j), (p, q), lips(0.6)])

    def test_flat_chord(self):
        d = build_phi(analytic_completion(PeriodicGrid(np.zeros(256))))
        h = TWO_PI / 256
        val = conformal_distance(d, 1.0, -1.0, n_boundary=256)
        assert abs(val - 2.0) <= 2 * h

    def test_degenerating_family(self):
        # concentration needs series order ~ mu; the full ladder to 4096 runs
        # in the acceptance suite
        vals = []
        for mu in (1.0, 16.0, 256.0):
            n = max(256, 1 << int(np.ceil(np.log2(20 * mu))))
            d = build_phi(bubble_trace(mu, n=n))
            vals.append(conformal_distance(d, 1.0, -1.0, n_boundary=256))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]

    def test_symmetry(self):
        d = build_phi(bubble_trace(4.0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            i, j = rng.integers(0, 256, size=2)
            if i == j:
                continue
            p = np.exp(1j * (TWO_PI * i / 256 - np.pi))
            q = np.exp(1j * (TWO_PI * j / 256 - np.pi))
            assert abs(
                conformal_distance(d, p, q) - conformal_distance(d, q, p)
            ) < 1e-12

    def test_exactly_symmetric_on_the_concentrated_bubble(self):
        # both endpoint orders take the nodes in ascending order, so the
        # chord is the same difference of the same two values
        n = 1 << int(np.ceil(np.log2(20 * 4096.0)))
        d = build_phi(bubble_trace(4096.0, n=n))
        for p, q in [(1.0, -1.0), (1j, np.exp(0.3j)), (np.exp(2j), np.exp(-0.4j))]:
            assert conformal_distance(d, p, q) == conformal_distance(d, q, p)

    def test_monotone_under_refinement(self):
        # the endpoint nodes move by O(h) as the boundary polygon refines
        d = build_phi(bubble_trace(4.0))
        vals = {n: conformal_distance(d, 1.0, -1.0, n_boundary=n) for n in (128, 256, 512)}
        assert vals[256] <= vals[128] + 2 * (TWO_PI / 128)
        assert vals[512] <= vals[256] + 2 * (TWO_PI / 256)

    def test_triangle_inequality(self):
        d = build_phi(bubble_trace(16.0, n=512))
        h = TWO_PI / 256
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b, c = (np.exp(1j * (TWO_PI * k / 256 - np.pi)) for k in rng.integers(0, 256, 3))
            if len({a, b, c}) < 3:
                continue
            dab = conformal_distance(d, a, b)
            dbc = conformal_distance(d, b, c)
            dac = conformal_distance(d, a, c)
            assert dac <= dab + dbc + 2 * h

    def test_endpoints_on_one_boundary_node_are_inconclusive(self):
        # 0.001 rad is far below the 2 pi / 256 node spacing: both endpoints
        # round to the node at theta = 0, where the chord would read 0
        d = quant.bubble(mu=4.0).disk_map()
        with pytest.raises(InconclusiveMesh, match="share one of the 256 boundary nodes"):
            conformal_distance(d, 1.0, np.exp(0.001j), n_boundary=256)


@lru_cache(maxsize=None)
def bubble_map(mu):
    # the identity chart's map on a uniform grid of about 20 mu points, so
    # its series is Phi's own, of degree up to 65536
    n = max(256, 1 << int(np.ceil(np.log2(20 * mu))))
    return build_phi(bubble_trace(mu, n=n, x0=0.1))


def horner_abs(coef, z):
    """Per-point oracle for |sum_k coef_k z^k|."""
    return np.abs(np.polynomial.polynomial.polyval(z, coef))


def directed_midpoints(mesh):
    src = np.repeat(np.arange(mesh.n_nodes), np.diff(mesh.indptr))
    return 0.5 * (mesh.nodes[src] + mesh.nodes[mesh.indices])


def ring_points(mesh):
    return np.outer(mesh.mid_centers, np.exp(1j * grid_angles(mesh.n_boundary)))


class TestRingEvaluation:
    @pytest.mark.parametrize("n", [64, 256])
    def test_family_centres_give_every_edge_midpoint(self, n):
        mesh = build_polar_mesh(n)
        mids = directed_midpoints(mesh)
        assert np.max(np.abs(ring_points(mesh).ravel()[mesh.edge_ring] - mids)) <= 1e-15
        # both directions of every undirected edge share one ring point
        assert np.array_equal(np.bincount(mesh.edge_ring), np.full(mesh.mid_centers.size * n, 2))

    @pytest.mark.parametrize("n", [disk.BOUNDARY_RING_N, 64, 63])
    @pytest.mark.parametrize("mu, bound", [(1.0, 1e-12), (16.0, 1e-12), (4096.0, 1e-9)])
    def test_grid_fold_matches_horner(self, mu, bound, n):
        # Phi and Phi' against Horner at the n grid angles, from one block
        # of bins (mu = 1 and 16 at n = 256) to 1041 (mu = 4096 at n = 63,
        # an odd n); min_deriv is the fold's minimum on the BOUNDARY_RING_N
        # angles
        d = bubble_map(mu)
        for coef in (d.deriv_coeffs, d.coeffs):
            vals = disk._on_grid(coef, n)
            ref = np.polynomial.polynomial.polyval(np.exp(1j * grid_angles(n)), coef)
            assert vals.shape == (n,)
            assert np.all(np.abs(vals - ref) <= bound * np.max(np.abs(ref)))
        if n == disk.BOUNDARY_RING_N:
            assert d.min_deriv == np.min(np.abs(disk._on_grid(d.deriv_coeffs, n)))

    @pytest.mark.parametrize("make, immersed", [
        (lambda: build_phi(analytic_completion(PeriodicGrid(np.zeros(256)))), True),
        (lambda: bubble_map(1.0), True),
        (lambda: bubble_map(16.0), True),
        (lambda: bubble_map(4096.0), True),
        (lambda: mobius_recenter(build_phi(bubble_trace(4.0)), 1j, 0.5), True),
        (lambda: blaschke_fixture([0.0]), True),
        (lambda: blaschke_fixture([0.5]), True),
        (lambda: blaschke_fixture([0.0, 0.0]), False),
        (lambda: blaschke_fixture([0.3, -0.3]), False),
    ])
    def test_immersion_verdicts(self, make, immersed):
        assert make().immersed is immersed


class TestImmersionCertificate:
    """immersed certifies that Phi' has no zero in the closed disk: by
    Rouche's theorem for build_phi, by the argument principle otherwise."""

    @pytest.mark.parametrize("a", [0.5 * np.exp(0.01j), 0.3 + 0.2j, 0.9 * np.exp(0.7j)])
    def test_one_critical_point_between_lattice_nodes(self, a):
        # Phi'(z) = z - a; the 64 x 256 lattice test called these immersed
        d = make_disk_map(np.array([0.0, -a, 0.5]), normalized_at_one=False)
        assert not d.immersed
        assert disk._zero_count(d.deriv_coeffs) == 1

    def test_branched_map_is_not_immersed(self):
        # Phi(z) = z + z^2 branches at z = -1/2
        d = make_disk_map(np.array([0.0, 1.0, 1.0]), normalized_at_one=False)
        assert not d.immersed
        assert disk._zero_count(d.deriv_coeffs) == 1

    @pytest.mark.parametrize("zeros", [[0.5], [0.3j], [0.0, 0.0], [0.3, -0.3], [0.5, 0.2 + 0.4j, -0.6j], [0.7, -0.5j, 0.1 - 0.2j]])
    def test_critical_points_are_the_rotation_index_minus_one(self, zeros):
        # a degree-m product winds its boundary tangent m times and has
        # m - 1 critical points in the disk (Riemann-Hurwitz)
        from liouville_disk.curves import PolyCurve, rotation_index

        d = blaschke_fixture(zeros)
        verts, _ = boundary_polyline(d, 1024)
        index = rotation_index(PolyCurve(verts)).index
        assert index == len(zeros)
        assert disk._zero_count(d.deriv_coeffs) == index - 1
        assert d.immersed is (index == 1)

    @pytest.mark.parametrize("r, count", [(1.0 - 1e-3, 1), (1.0 + 1e-3, 0)])
    def test_zeros_next_to_the_circle_fall_on_their_side(self, r, count):
        # a zero midway between two of the first 64 samples turns that step
        # by more than pi when it lies inside: those samples alone count it
        # on the wrong side, and the guard doubles them until no step can
        a = r * np.exp(1j * 7 * np.pi / 64)
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        naive = np.sum(np.angle(np.roll(z - a, -1) / (z - a))) / (2 * np.pi)
        assert round(naive) == 0
        d = make_disk_map(np.array([0.0, -a, 0.5]), normalized_at_one=False)
        assert disk._zero_count(d.deriv_coeffs) == count
        assert d.immersed is (count == 0)

    def test_a_zero_on_the_circle_is_not_certified(self):
        d = make_disk_map(np.array([0.0, -1.0, 0.5]), normalized_at_one=False)
        assert disk._zero_count(d.deriv_coeffs) is None
        assert not d.immersed and d.min_deriv == 0.0

    @pytest.mark.parametrize("x0", [0.0, 0.45, -0.45])
    @pytest.mark.parametrize("j", range(13))
    def test_bubble_ladder_is_immersed(self, j, x0):
        assert quant.bubble(2.0**j, x0).disk_map().immersed

    def test_a_failed_rouche_test_falls_back_to_the_zero_count(self, monkeypatch):
        # lambda = 12 log|1 - z/1.5|: Phi' = (1 - z/1.5)^12 has no zero, but
        # on 64 points its aliased spectrum cannot show it (|Phi'| spans
        # 1.9e-6 to 1), so the argument principle decides; on 128 points
        # the Rouche test holds and nothing is counted
        counted = []
        original = disk._zero_count
        monkeypatch.setattr(disk, "_zero_count", lambda c: counted.append(c.size) or original(c))
        verdicts = []
        for n in (64, 128):
            th = grid_angles(n)
            d = build_phi(analytic_completion(PeriodicGrid(12.0 * np.log(np.abs(1.0 - np.exp(1j * th) / 1.5)))))
            assert original(d.deriv_coeffs) == 0
            verdicts.append((d.immersed, len(counted)))
        assert verdicts == [(True, 1), (True, 1)]

    def test_a_trace_not_from_the_completion_is_counted(self, monkeypatch):
        # rho = arg(z - a) is no conjugate of lambda = log|z - a|, yet
        # e^{lambda + i rho} = z - a has no negative modes: the Rouche test
        # would pass it, so such a trace takes the argument principle
        z = np.exp(1j * grid_angles(256))
        a = 0.4 + 0.1j
        bt = BoundaryTrace(SingularField(PeriodicGrid(np.log(np.abs(z - a)))), PeriodicGrid(np.angle(z - a)))
        d = build_phi(bt)
        assert np.allclose(d.deriv_coeffs[:2], [-a, 1.0]) and not d.immersed
        counted = []
        original = disk._zero_count
        monkeypatch.setattr(disk, "_zero_count", lambda c: counted.append(c.size) or original(c))
        assert build_phi(bubble_trace(4.0)).immersed and counted == []
        assert not build_phi(bt).immersed and len(counted) == 1

    def test_a_map_rebuilt_from_its_coefficients_recounts_the_zeros(self):
        for d in (quant.bubble(mu=16.0, x0=0.3).disk_map(), blaschke_fixture([0.3, -0.3])):
            back = make_disk_map(d.coeffs, normalized_at_one=d.normalized_at_one, chart=d.chart)
            assert back == d and back.immersed is d.immersed


@lru_cache(maxsize=None)
def exact_bubble(mu, x0):
    """Phi' = C (1 - q z)^-2 for the map quant.Bubble.disk_map builds, with
    A = 1 + mu - i mu x0, B = i (mu - 1) - mu x0, q = -B/A, C = 4 mu/|A|^2:
    Phi_k = C q^(k-1) for k >= 1 and Phi_0 = -C/(1 - q), so Phi(1) = 0.
    The map holds the series of its blow-up chart, not these: only
    uniform_bubble's coefficients are Phi's own."""
    a = 1 + mu - 1j * mu * x0
    b = 1j * (mu - 1) - mu * x0
    return quant.bubble(mu=mu, x0=x0).disk_map(), -b / a, 4 * mu / abs(a) ** 2


@lru_cache(maxsize=None)
def uniform_bubble(mu, x0):
    """The bubble's map in the identity chart: build_phi on the uniform grid
    of bubble_field, so its coefficients are Phi's own."""
    return build_phi(analytic_completion(bubble_field(mu, x0)))


LADDER = [(mu, x0) for mu in (1.0, 16.0, 256.0, 4096.0) for x0 in (0.0, 0.3, -0.3, 0.45)]
# rungs whose uniform grid would take 2^19 .. 2^21 points: chart maps only
HIGH = [(2.0**14, 0.0), (2.0**15, 0.3), (2.0**16, 0.0), (2.0**16, -0.45)]
# spread members, mu (1 + x0^2) < 1, whose mass gathers away from angle_of_x(x0)
LOW = [(0.25, 0.0), (0.25, 1.0), (0.5, -0.45), (0.9, 0.3)]


class TestExactBubbleMaps:
    @pytest.mark.parametrize("mu, x0", LADDER)
    def test_coefficients(self, mu, x0):
        _, q, C = exact_bubble(mu, x0)
        d = uniform_bubble(mu, x0)
        k = np.arange(d.coeffs.size)
        exact = C * q ** np.maximum(k - 1, 0)
        exact[0] = -C / (1 - q)
        # the series stops at order n/2, where |q|^(n/2) is at most ~3e-12
        assert np.max(np.abs(d.coeffs - exact)) <= 1e-11 * np.max(np.abs(exact))

    @pytest.mark.parametrize("mu, x0", LADDER + HIGH)
    def test_immersion_certificate(self, mu, x0):
        d, q, C = exact_bubble(mu, x0)
        ring = np.exp(1j * grid_angles(disk.BOUNDARY_RING_N))
        exact = np.min(C / np.abs(1 - q * ring) ** 2)
        # Phi' = C (1 - q z)^-2 has no zero and |1 - q z| peaks on the
        # circle: the minimum over a 64 x 256 polar lattice sits on its r = 1
        # ring, the ring min_deriv is read on
        lattice = np.outer(np.linspace(0.0, 1.0, 64), ring)
        assert np.min(C / np.abs(1 - q * lattice) ** 2) == exact
        assert d.immersed
        # the derivative multiplies the truncated tail by its order k, and
        # the minimum sits ~mu^2 below the peak of |Phi'|: 3.4e-7 at mu = 4096, x0 = 0.45
        assert abs(d.min_deriv - exact) <= 1e-6 * exact

    @pytest.mark.parametrize("mu, x0", LADDER + HIGH)
    def test_conformal_distance(self, mu, x0):
        # a Moebius image is a round disk, so the distance between two
        # boundary nodes z, w is the chord Phi(z) - Phi(w) =
        # C (z - w) / ((1 - q z)(1 - q w)), on and off the diameter
        d, q, C = exact_bubble(mu, x0)
        for a, b in [(1.0, -1.0), (1.0, 1j), (1.0, np.exp(2.5j)), (1j, np.exp(2.5j))]:
            z, w = node_point(a, 256), node_point(b, 256)
            exact = C * abs(z - w) / (abs(1 - q * z) * abs(1 - q * w))
            got = conformal_distance(d, a, b)
            assert abs(got - exact) <= 1e-9 * exact
            assert got == conformal_distance(d, b, a)

    @pytest.mark.parametrize("mu, x0", [(mu, x0) for mu, x0 in LADDER if mu <= 16.0])
    def test_recentering_at_zero_gives_the_exact_moduli(self, mu, x0):
        d, q, C = exact_bubble(mu, x0)
        [lam] = quant.recentered_lambda_sequence(d, 1j, [0.0], n=256)
        z = np.exp(1j * grid_angles(256))
        assert np.max(np.abs(lam.values - (np.log(C) - 2 * np.log(np.abs(1 - q * z))))) <= 1e-8

    @staticmethod
    def recentering_errors(mu, x0, a, ts, n=256, uniform=False):
        """Largest deviation of recentered_lambda_sequence from the exact
        moduli log C - 2 log|1 - q f_t(z)| + log|f_t'(z)|, one per t, for
        the bubble's map (uniform: its map in the identity chart)."""
        d, q, C = exact_bubble(mu, x0)
        if uniform:
            d = uniform_bubble(mu, x0)
        z = np.exp(1j * grid_angles(n))
        errs = []
        for t, lam in zip(ts, quant.recentered_lambda_sequence(d, a, ts, n=n)):
            den = 1 - t * np.conj(a) * z
            f = (z - t * a) / den
            exact = np.log(C) - 2 * np.log(np.abs(1 - q * f)) + np.log(1 - t * t) - 2 * np.log(np.abs(den))
            errs.append(float(np.max(np.abs(lam.values - exact))))
        return errs

    @pytest.mark.parametrize("toward", ["i", "centre"])
    @pytest.mark.parametrize("mu, x0", [(mu, x0) for mu, x0 in LADDER if mu <= 256.0])
    def test_recentering_gives_the_exact_moduli(self, mu, x0, toward):
        # the chain rule adds nothing to the map's own error, which does not
        # depend on t: 1.3e-9 at mu = 16 and 2.3e-8 at mu = 256 (x0 = 0.45)
        a = 1j if toward == "i" else complex(stereo_inverse(x0))
        at_zero, *errs = self.recentering_errors(mu, x0, a, [0.0, 0.25, 0.5, 0.9])
        assert all(e <= 2 * at_zero + 1e-12 for e in errs)
        if mu <= 16.0:
            assert max(errs) <= 1e-8

    def test_recentering_needs_no_longer_series(self):
        # f_t stretches the boundary near a by (1 + t)/(1 - t), so a recentered
        # series needs ~3x the map's order; one of the map's own order misses
        # these moduli by 3.1e-6
        [err] = self.recentering_errors(16.0, -0.3, complex(stereo_inverse(-0.3)), [0.5])
        assert err <= 1e-9

    def test_recentering_a_series_of_order_65536(self):
        d = uniform_bubble(4096.0, -0.3)
        assert d.order == 65536
        at_zero, *errs = self.recentering_errors(4096.0, -0.3, complex(stereo_inverse(-0.3)), [0.0, 0.25, 0.5, 0.9],
                                                 uniform=True)
        assert all(e <= 2 * at_zero + 1e-12 for e in errs)
        assert max(errs) <= 1e-7


def assert_chart_matches_uniform(chart_map, uniform, mu, x0):
    """The chart map and the uniform map of one bubble are one function:
    Phi at the 256 grid angles agrees to 1e-12 of max |Phi| beyond the
    uniform series' own truncation |q|^order, which sets the difference at
    x0 = -0.45 (2.8e-12 for mu >= 8; the chart map is within 6e-14 of the
    closed form there)."""
    _, q, _ = exact_bubble(mu, x0)
    got, ref = boundary_polyline(chart_map, 256)[0], boundary_polyline(uniform, 256)[0]
    scale = np.max(np.hypot(ref[:, 0], ref[:, 1]))
    assert np.max(np.hypot(*(got - ref).T)) <= (1e-12 + abs(q) ** uniform.order) * scale


class TestBlowUpCharts:
    @pytest.mark.parametrize("mu, x0", LADDER + HIGH + LOW)
    def test_phi_and_its_derivative_on_the_circle(self, mu, x0):
        # against the closed form, whose own 1 - q z loses about 1e-16 mu
        # near the peak: worst 1.4e-12 (boundary values and the point
        # evaluator) and 1.5e-12 (Phi'), at mu = 2^16
        d, q, C = exact_bubble(mu, x0)
        z = np.exp(1j * grid_angles(256))
        exact = C * (z - 1) / ((1 - q * z) * (1 - q))
        scale = np.max(np.abs(exact))
        verts, _ = boundary_polyline(d, 256)
        assert np.max(np.abs(verts[:, 0] + 1j * verts[:, 1] - exact)) <= 5e-12 * scale
        assert np.max(np.abs(d(z) - exact)) <= 5e-12 * scale
        assert np.max(np.abs(d.derivative(z) * (1 - q * z) ** 2 / C - 1)) <= 5e-12

    @pytest.mark.parametrize("mu, x0", LADDER + HIGH + LOW)
    def test_the_map_is_pinned_at_one_and_at_the_centre(self, mu, x0):
        # Phi(1) = 0 and arg Phi'(0) = 0, as the uniform build has them,
        # so Phi'(0) is the closed form's C
        d, _, C = exact_bubble(mu, x0)
        assert abs(d(1.0)) <= 1e-15 * np.sum(np.abs(d.coeffs))
        slope = complex(d.derivative(0.0))
        assert abs(np.angle(slope)) <= 1e-15
        assert abs(slope - C) <= 5e-12 * C  # worst 3.1e-13

    @pytest.mark.parametrize("mu, x0", LADDER + HIGH + LOW + [(2.0**14, -0.45), (2.0**16, 0.3), (16.0, 5.0)])
    def test_every_member_is_a_rouche_certified_series_of_degree_32(self, mu, x0, monkeypatch):
        # a 64-point grid passes the guards and build_phi's certificate
        # holds, so no zero is counted; the chart has node density rho/2 at
        # the peak, or is the identity up to rho = 2
        def refuse(dcoef):
            raise AssertionError("zero count run")

        monkeypatch.setattr(disk, "_zero_count", refuse)
        d = quant.bubble(mu, x0).disk_map()
        assert d.immersed and d.order <= 32
        _, q, _ = exact_bubble(mu, x0)
        rho = (1 + abs(q)) / (1 - abs(q))
        if rho <= 2.0:
            assert d.chart == disk.IDENTITY_CHART
            return
        theta0, r = d.chart
        assert abs(np.angle(np.exp(1j * theta0) * q)) <= 1e-12  # the peak sits at conj(q)/|q|
        assert abs((1 + r) / (1 - r) - rho / 2) <= 1e-9 * rho

    @pytest.mark.parametrize("mu, x0", [(1.0, -0.45), (0.25, 0.3), (16.0, 0.0), (4096.0, -0.45)])
    def test_a_member_whose_chart_grid_fails_raises_the_guards_error(self, mu, x0, monkeypatch):
        # an 8-point w-grid fails the guards on all of these, and the
        # guard's error propagates (the tail guard, series order 4), and no other grid is tried
        monkeypatch.setattr(quant, "CHART_N", 8)
        with pytest.raises(UnderResolved, match="series order 4 cannot represent the map"):
            quant.bubble(mu, x0).disk_map()

    @pytest.mark.parametrize("make", [dented_map, lambda: blaschke_fixture([0.3, -0.3]), lambda: bubble_map(16.0)])
    def test_the_identity_chart_reads_points_unchanged(self, make):
        # the point readers pull back through the chart in every chart:
        # the identity's pull-back returns z and 1 exactly, so the values
        # are Horner's at z itself, bit for bit
        d = make()
        rng = np.random.default_rng(6)
        z = np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
        z = np.concatenate([z, np.exp(1j * grid_angles(64)), [0.0, 1.0, -1.0, 1j]])
        w, dw = disk._chart_inverse(disk.IDENTITY_CHART, z)
        assert np.array_equal(w, z) and np.all(dw == 1.0)
        assert np.array_equal(d(z), np.polynomial.polynomial.polyval(z, d.coeffs))
        assert np.array_equal(d.derivative(z), np.polynomial.polynomial.polyval(z, d.deriv_coeffs))

    def test_the_chart_pull_back_inverts_the_push(self):
        th = grid_angles(512)
        for chart in [(0.3, 0.0), (2.0, 0.5), (-1.0, 0.999), (np.pi, 0.99999)]:
            phi, log_jac = disk._chart_push(chart, th)
            back, log_back = disk._chart_pull(chart, phi)
            assert np.max(np.abs(np.angle(np.exp(1j * (back - th))))) <= 1e-9
            assert np.max(np.abs(log_jac + log_back)) <= 1e-9
            w, dw = disk._chart_inverse(chart, np.exp(1j * phi))
            assert np.max(np.abs(w - np.exp(1j * th))) <= 1e-9
            assert np.max(np.abs(np.log(np.abs(dw)) - log_back)) <= 1e-9

    @pytest.mark.parametrize("chart", [(0.0, 1.0), (0.0, -0.1), (np.nan, 0.5), (np.inf, 0.0)])
    def test_a_chart_must_be_an_automorphism(self, chart):
        with pytest.raises(InvalidInput):
            make_disk_map(np.array([0.0, 1.0]), normalized_at_one=False, chart=chart)
        with pytest.raises(InvalidInput):
            analytic_completion(PeriodicGrid(np.zeros(64)), chart)

    def test_anchored_data_takes_no_chart(self):
        with pytest.raises(InvalidInput):
            analytic_completion(anchored_trace(-np.pi / 2, 0.5), (0.3, 0.5))


class TestBoundaryPolyline:
    def test_flat_polyline_is_shifted_circle(self):
        d = build_phi(analytic_completion(PeriodicGrid(np.zeros(128))))
        verts, corners = boundary_polyline(d, 128)
        assert corners == {}
        z = verts[:, 0] + 1j * verts[:, 1]
        assert np.max(np.abs(np.abs(z + 1.0) - 1.0)) < 1e-10

    @pytest.mark.parametrize("beta", [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    def test_singular_corner_tangents(self, beta):
        n = 512
        sf = SingularField(PeriodicGrid(np.zeros(n)), ((-np.pi / 2, beta),))
        bt = analytic_completion(sf)
        verts, corners = boundary_polyline(bt, n)
        assert list(corners) == [n // 4]
        tin, tout = corners[n // 4]
        # tangent angle is theta + pi/2 + rho; the sawtooth gives -+ beta/2
        wrap = lambda x: np.angle(np.exp(1j * x))
        assert abs(wrap(tin - (-beta / 2))) < 2e-3
        assert abs(wrap(tout - (+beta / 2))) < 2e-3
        # exterior angle at the corner equals the defect coefficient
        assert abs(wrap(tout - tin) - beta) < 3e-3

    def test_singular_polyline_closes_and_total_turn(self):
        n = 512
        beta = np.pi / 2
        sf = SingularField(PeriodicGrid(np.zeros(n)), ((-np.pi / 2, beta),))
        bt = analytic_completion(sf)
        verts, _ = boundary_polyline(bt, n)
        z = verts[:, 0] + 1j * verts[:, 1]
        edges = np.diff(np.concatenate([z, z[:1]]))
        assert np.min(np.abs(edges)) > 0
        turn = np.angle(np.exp(1j * np.diff(np.angle(edges))))
        # away from the corner the discrete turning stays below the C^1 proxy
        jc = n // 4
        mask = np.ones(n - 1, dtype=bool)
        mask[max(0, jc - 3): jc + 3] = False
        assert np.max(np.abs(turn[mask])) < 0.3


@pytest.mark.parametrize("make", [
    lambda: build_phi(bubble_trace(2.0)),
    lambda: quant.bubble(mu=4.0).disk_map(),
    lambda: blaschke_fixture([0.3, -0.3]),
    lambda: make_disk_map(np.array([-1.0, 1.0, 0.0, 0.0])),
])
def test_disk_maps_are_fixed_points_of_make_disk_map(make):
    d = make()
    once = make_disk_map(d.coeffs, normalized_at_one=d.normalized_at_one, chart=d.chart)
    twice = make_disk_map(once.coeffs, normalized_at_one=once.normalized_at_one, chart=once.chart)
    assert once == d and twice == d
    padded = np.concatenate([d.coeffs, np.zeros(100)])
    assert make_disk_map(padded, normalized_at_one=d.normalized_at_one, chart=d.chart) == d


def test_make_disk_map_stores_the_series_to_its_last_nonzero_coefficient():
    assert make_disk_map(np.r_[-1.0, 1.0, np.zeros(500)]).coeffs.size == 2
    c = np.zeros(100, dtype=complex)
    c[[0, 70]] = -1.0, 1.0
    d = make_disk_map(c)
    assert d.coeffs.size == 71 and d.order == 70 and d.coeffs[-1] != 0
    assert make_disk_map(d.coeffs) == d
    # the constructor cuts the series itself: make_disk_map adds nothing
    assert DiskMap(c).order == 70 and DiskMap(c) == d
    # Phi' up to its last nonzero coefficient, order 69
    assert d.deriv_coeffs.size == 70 and d.deriv_coeffs[-1] == 70.0
    assert np.array_equal(d.deriv_coeffs, DiskMap(d.coeffs).deriv_coeffs)
    for make in (lambda: build_phi(bubble_trace(4.0)), lambda: blaschke_fixture([0.3, -0.3]),
                 lambda: mobius_recenter(quant.bubble(4.0).disk_map(), 1j, 0.3)):
        m = make()
        assert m.coeffs[-1] != 0 and make_disk_map(m.coeffs, normalized_at_one=m.normalized_at_one) == m


def test_disk_maps_keep_no_view_of_their_callers_arrays():
    # a caller's array is copied, read-only or not: its owner can make it
    # writable again
    c = np.zeros(200, dtype=complex)
    c[[0, 1, 2]] = -1.5, 1.0, 0.5
    view = c[:]
    view.setflags(write=False)  # read-only, but c writes through
    frozen = c.copy()
    frozen.setflags(write=False)
    maps = [make(a) for a in (c, view, frozen) for make in (make_disk_map, DiskMap)]
    assert not any(np.shares_memory(d.coeffs, a) for d in maps for a in (c, frozen))
    c[1] = 7.0
    frozen.setflags(write=True)
    frozen[1] = 7.0
    assert all(d.coeffs[1] == 1.0 and not d.coeffs.flags.writeable for d in maps)
    assert all(d.deriv_coeffs[0] == 1.0 for d in maps)


def test_derived_fields_are_no_constructor_arguments():
    # deriv_coeffs, min_deriv and immersed follow coeffs, and completed
    # marks analytic_completion's traces only
    c = np.array([-1.0, 1.0])
    for derived in ({"deriv_coeffs": np.array([5.0])}, {"immersed": False}, {"min_deriv": 123.0}):
        with pytest.raises(TypeError):
            DiskMap(c, **derived)
    with pytest.raises(TypeError):
        DiskMap(c, True, True)  # certified is keyword-only
    d = DiskMap(c)
    assert np.array_equal(d.deriv_coeffs, [1.0]) and d.min_deriv == 1.0 and d.immersed
    lam = SingularField(PeriodicGrid(np.zeros(64)))
    with pytest.raises(TypeError):
        BoundaryTrace(lam, PeriodicGrid(np.zeros(64)), completed=True)
    assert not BoundaryTrace(lam, PeriodicGrid(np.zeros(64))).completed
    assert analytic_completion(lam).completed


@pytest.mark.parametrize("make", [make_disk_map, DiskMap])
def test_make_disk_map_rejects_bad_normalization(make):
    with pytest.raises(InvalidInput, match="normalization"):
        make(np.array([1.0, 1.0]), normalized_at_one=True)
    # Phi(1) = 1 for z, padded to order 3
    with pytest.raises(InvalidInput, match="normalization"):
        make(np.array([0.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("make", [make_disk_map, DiskMap])
@pytest.mark.parametrize("coeffs, message", [
    ([], "two coefficients"),
    ([1.0], "two coefficients"),
    (np.zeros(5, dtype=complex), "zero map"),
])
def test_make_disk_map_rejects_short_and_zero_series(make, coeffs, message):
    for normalized_at_one in (True, False):
        with pytest.raises(InvalidInput, match=message):
            make(np.array(coeffs), normalized_at_one=normalized_at_one)


@pytest.mark.parametrize("coeffs, normalized_at_one", [
    ([-1.0, 1.0, np.inf], False),
    ([-1.0, 1.0, np.inf, 0.0], True),
    # NaN compares False, so it would pass the Phi(1) = 0 check
    ([np.nan, 1.0], True),
    ([-1.0, 1.0j * np.nan, 1.0], False),
])
@pytest.mark.parametrize("make", [make_disk_map, DiskMap])
def test_make_disk_map_rejects_non_finite_coefficients(make, coeffs, normalized_at_one):
    with pytest.raises(InvalidInput, match="finite"):
        make(np.array(coeffs), normalized_at_one=normalized_at_one)


def test_a_bubble_map_takes_its_derivative_coefficients_once(monkeypatch):
    calls, derivative = [], disk._derivative

    def counted(coeffs):
        calls.append(coeffs.size)
        return derivative(coeffs)

    monkeypatch.setattr(disk, "_derivative", counted)
    d = quant.bubble(mu=4.0).disk_map()
    assert calls == [d.coeffs.size]


def test_disk_maps_compare_and_hash_by_value():
    a, b = blaschke_fixture([0.3, -0.3]), blaschke_fixture([0.3, -0.3])
    assert a is not b and a.coeffs is not b.coeffs
    assert a == b and hash(a) == hash(b)
    assert a != blaschke_fixture([0.3, -0.2])
    # the same series, verdict and minimum under another normalization tag
    m = make_disk_map(np.array([-1.0, 1.0]))
    assert m != DiskMap(m.coeffs, normalized_at_one=False)
    assert len({a, b, make_disk_map(np.array([0.0, 1.0]), normalized_at_one=False)}) == 2


# --- one-FFT build_phi against the analyze-based construction -----------------

def reference_analytic_completion(lam):
    """analytic_completion with its band-limit guard summed over analyze's
    full mirrored spectrum and its Hilbert step fed modes 0 .. n/2 read off
    that spectrum."""
    field = SingularField.from_grid(lam)
    n = field.n
    c = analyze(field.smooth).coeffs
    m = np.abs(np.arange(-n // 2, n // 2))
    energy = np.abs(c) ** 2
    total = np.sum(energy[m > 0])
    floor = n * (1e-13 * max(1.0, float(np.max(np.abs(field.smooth.values))))) ** 2
    top = np.sum(energy[m >= (1.0 - spectral.BAND_LIMIT_TOP) * (n // 2)])
    if total > floor and top / total > spectral.BAND_LIMIT_ENERGY:
        raise UnderResolved("band limit")
    half = np.append(c[n // 2 :], c[0])  # modes 0 .. n/2 - 1, then the Nyquist mode
    mult = -1j * np.sign(np.arange(n // 2 + 1))
    mult[-1] = 0.0  # the Nyquist mode
    rho = spectral._apply_multiplier(field.smooth, mult, half)
    return BoundaryTrace(lam=field, rho_smooth=rho)


def reference_abs_on_grid(coef, n):
    """|disk._on_grid(coef, n)| with the series length from np.flatnonzero,
    the signs (-1)^k as powers and the rows of the (Q, n) block added to
    the bins one at a time."""
    nz = np.flatnonzero(coef)
    size = nz[-1] + 1 if nz.size else 0
    signed = coef[:size] * (-1.0) ** np.arange(size)
    bins = np.zeros(n, dtype=complex)
    for q in range(0, size, n):
        row = signed[q : q + n]
        bins[: row.size] += row
    return np.abs(np.fft.ifft(bins) * n)


def longdouble_horner(c, w):
    """sum_k c_k w^k by Horner's rule in clongdouble."""
    acc = np.zeros(w.shape, dtype=np.clongdouble)
    for ck in np.asarray(c)[::-1].astype(np.clongdouble):
        acc = acc * w + ck
    return acc


def horner_boundary_min(dcoef):
    """min |Phi'| over the r = 1 ring of disk.BOUNDARY_RING_N grid angles,
    summed in long double."""
    th = grid_angles(disk.BOUNDARY_RING_N).astype(np.longdouble)
    return float(np.min(np.abs(longdouble_horner(dcoef, np.cos(th) + 1j * np.sin(th)))))


def roots_inside(dcoef):
    """Zeros of p(z) = sum_k dcoef_k z^k in the open unit disk, from the
    eigenvalues of the companion matrix (None for the zero polynomial).

    Coefficients below 1e-13 of the largest are dropped first, so that the
    rounding noise of a decayed series adds no spurious roots; by Rouche's
    theorem that keeps the count when their l1 norm stays below min |p| on
    the circle, which is asserted."""
    big = np.flatnonzero(np.abs(dcoef) > 1e-13 * np.max(np.abs(dcoef), initial=0.0))
    if not big.size:
        return None
    kept = dcoef[: big[-1] + 1]
    dropped = np.sum(np.abs(dcoef[big[-1] + 1 :]))
    th = grid_angles(4096)
    assert dropped < np.min(np.abs(np.polynomial.polynomial.polyval(np.exp(1j * th), kept))) or dropped == 0
    return int(np.sum(np.abs(np.roots(kept[::-1])) < 1.0))


@dataclass(frozen=True)
class ReferenceMap:
    """The fields of a DiskMap that reference_make_disk_map computes."""

    coeffs: np.ndarray
    immersed: bool
    min_deriv: float
    normalized_at_one: bool


def reference_make_disk_map(coeffs, normalized_at_one=True, immersed=None):
    """make_disk_map trimming by np.flatnonzero, min_deriv
    on the BOUNDARY_RING_N grid angles through reference_abs_on_grid, and, unless given,
    immersion by the companion-matrix roots of Phi'."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2:
        raise InvalidInput("short")
    nz = np.flatnonzero(c)
    size = nz[-1] + 1 if nz.size else 0
    c = c[:size].copy()
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0:
        raise InvalidInput("zero map")
    if normalized_at_one and abs(np.sum(c)) > 1e-10 * max(1.0, np.sqrt(total)):
        raise InvalidInput("normalization")
    dcoef = c[1:] * np.arange(1, c.size)
    md = float(np.min(reference_abs_on_grid(dcoef, disk.BOUNDARY_RING_N)))
    if immersed is None:
        immersed = roots_inside(dcoef) == 0
    return ReferenceMap(c, bool(immersed), md, normalized_at_one)


def reference_build_phi(bt):
    """build_phi through a PeriodicGrid of phi, analyze's shifted spectrum,
    the full-spectrum negative-frequency fraction and the guards' own sums;
    its Rouche test sums the negative modes of that spectrum, and bt is
    taken as a trace of analytic_completion."""
    n = bt.n
    w = np.real(bt.lam.smooth.values) + 1j * np.real(bt.rho_smooth.values)
    th = grid_angles(n) if bt.anchors else None
    for t0, c in bt.anchors:
        w = w + c * log_profile(th, t0) + 1j * (c * spectral.conjugate_profile(th, t0))
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.exp(w)
    if not np.all(np.isfinite(phi)):
        raise UnderResolved("non-finite")
    s = analyze(PeriodicGrid(phi))
    full = np.zeros(n // 2 + 1, dtype=complex)
    full[1:] = s.coeffs[n // 2 :] / np.arange(1, n // 2 + 1)
    total = float(np.sum(np.abs(full) ** 2))
    tail = float(np.sum(np.abs(full[n // 4 + 1 :]) ** 2))
    if total > 0 and tail > disk.TAIL_ENERGY_LIMIT * total:
        raise UnderResolved("tail")
    coeffs = full.copy()
    energy = np.abs(s.coeffs) ** 2
    if np.sum(energy) and np.sum(energy[: n // 2]) / np.sum(energy) > disk.NEG_FREQ_LIMIT:
        raise NotHolomorphic("negative frequencies")
    coeffs[0] = -np.sum(coeffs[1:])
    rouche = 2.0 * np.sum(np.abs(s.coeffs[: n // 2])) < np.min(np.abs(phi))
    # bt stands for a trace of the completion, whose test certifies or
    # leaves the verdict to the zero count
    return reference_make_disk_map(coeffs, immersed=True if rouche else None)


def reference_boundary_series(vals, M):
    """Modes 0 .. M of complex boundary samples through a PeriodicGrid and
    analyze's shifted spectrum, under the tail guard."""
    s = analyze(PeriodicGrid(vals))
    full = s.coeffs[s.n // 2 :]
    energy = np.abs(full) ** 2
    if np.sum(energy) > 0 and np.sum(energy[M // 2 + 1 :]) > disk.TAIL_ENERGY_LIMIT * np.sum(energy):
        raise UnderResolved("tail")
    return full[: M + 1].copy()


def reference_mobius_recenter(d, a, t):
    M = max(2 * d.coeffs.size - 1, 256)
    N = 1 << int(np.ceil(np.log2(8 * M)))
    z = np.exp(1j * grid_angles(N))
    coeffs = reference_boundary_series(d((z - t * a) / (1 - t * np.conj(a) * z)), M)
    coeffs[0] -= np.sum(coeffs)
    return make_disk_map(coeffs)


def reference_blaschke_fixture(zeros):
    z = np.exp(1j * grid_angles(2048))
    vals = np.ones_like(z)
    for a in zeros:
        vals = vals * (z - a) / (1 - np.conj(a) * z)
    return make_disk_map(reference_boundary_series(vals, 512), normalized_at_one=False)


def outcome(make, *args):
    """make(*args), or the class of the exception it raised."""
    try:
        return make(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


def assert_same_map(got, ref):
    assert got.coeffs.dtype == ref.coeffs.dtype and np.array_equal(got.coeffs, ref.coeffs)
    assert got.min_deriv == ref.min_deriv
    assert got.immersed is ref.immersed
    assert got.normalized_at_one is ref.normalized_at_one
    # the boundary minimum of |Phi'|, against a long-double Horner sum
    exact = horner_boundary_min(got.deriv_coeffs)
    assert abs(got.min_deriv - exact) <= 1e-9 * max(exact, 1e-300) + 1e-15 * np.sum(np.abs(got.deriv_coeffs))


@lru_cache(maxsize=None)
def bubble_field(mu, x0):
    b = quant.bubble(mu=mu, x0=x0)
    n = max(256, 1 << int(np.ceil(np.log2(max(256.0, 20.0 * mu)))))  # about 20 mu points
    return b.pull_back(n).field


def anchored_trace(t0, c, n=256):
    th = grid_angles(n)
    return SingularField(PeriodicGrid(0.3 * np.cos(th) - 0.2 * np.sin(2 * th)), ((t0, c),))


class TestOneFftOracles:
    @pytest.mark.parametrize("x0", [-0.45, 0.0, 0.3])
    @pytest.mark.parametrize("j", range(13))
    def test_bubble_ladder_maps_are_bit_identical(self, j, x0):
        lam = bubble_field(2.0**j, x0)
        bt, ref_bt = analytic_completion(lam), reference_analytic_completion(lam)
        assert np.array_equal(bt.rho_smooth.values, ref_bt.rho_smooth.values)
        d = build_phi(bt)
        assert_same_map(d, reference_build_phi(ref_bt))
        # the bubble's own map, in its blow-up chart, is the same function
        assert_chart_matches_uniform(quant.bubble(2.0**j, x0).disk_map(), d, 2.0**j, x0)

    @pytest.mark.parametrize("zeros", [[0.0], [0.5], [0.3j], [0.0, 0.0], [0.3, -0.3], [0.5, 0.2 + 0.4j, -0.6j]])
    def test_blaschke_fixtures_are_bit_identical(self, zeros):
        d = blaschke_fixture(zeros)
        assert_same_map(d, reference_make_disk_map(d.coeffs, normalized_at_one=False))
        raw = np.ones(2048, dtype=complex)
        z = np.exp(1j * grid_angles(2048))
        for a in zeros:
            raw = raw * (z - a) / (1 - np.conj(a) * z)
        series = analyze(PeriodicGrid(raw)).coeffs[1024 : 1024 + 513]
        assert_same_map(make_disk_map(series, normalized_at_one=False),
                        reference_make_disk_map(series, normalized_at_one=False))

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7])
    def test_recentered_and_blaschke_maps_are_bit_identical(self, t):
        # the one boundary-modes helper reads the same coefficients as
        # analyze's shifted spectrum of a PeriodicGrid
        seen = set()
        for mu, x0 in ((4.0, 0.0), (64.0, 0.3)):
            d = uniform_bubble(mu, x0)
            got, ref = outcome(mobius_recenter, d, 1j, t), outcome(reference_mobius_recenter, d, 1j, t)
            if isinstance(ref, type):
                assert got is ref
            else:
                assert_same_map(got, ref)
            seen.add(ref if isinstance(ref, type) else DiskMap)
        assert DiskMap in seen
        zeros = [t, 0.2 + 0.4j * t, -0.6j]
        assert_same_map(blaschke_fixture(zeros), reference_blaschke_fixture(zeros))

    @pytest.mark.parametrize("size, trailing", [(2, 0), (2, 1), (3, 61), (40, 0), (40, 200), (63, 1), (64, 64), (300, 5)])
    def test_trailing_zeros_are_bit_identical(self, size, trailing):
        rng = np.random.default_rng(size + trailing)
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        c[-1] = 0.5 + 0.25j  # the last nonzero is the last entry before the zeros
        c = np.concatenate([c, np.zeros(trailing)])
        assert_same_map(make_disk_map(c, normalized_at_one=False),
                        reference_make_disk_map(c, normalized_at_one=False))
        c[0] -= np.sum(c)  # Phi(1) = 0
        assert_same_map(make_disk_map(c), reference_make_disk_map(c))
        dcoef = c[1:] * np.arange(1, c.size)
        trimmed = np.trim_zeros(dcoef, "b")  # as DiskMap.deriv_coeffs ends
        for n in (disk.BOUNDARY_RING_N, 64):
            assert np.array_equal(np.abs(disk._on_grid(trimmed, n)), reference_abs_on_grid(dcoef, n))

    def test_series_length_of_zero_and_nonzero_vectors(self):
        assert disk._series_length(np.zeros(5, dtype=complex)) == 0
        assert disk._series_length(np.array([0, 0, 1j, 0])) == 3
        assert disk._series_length(np.array([1.0])) == 1
        for zeros in (np.zeros(2), np.zeros(70, dtype=complex)):
            assert outcome(make_disk_map, zeros, False) is outcome(reference_make_disk_map, zeros, False) is InvalidInput
        for coef in (np.zeros(3, dtype=complex), np.zeros(0, dtype=complex)):
            assert np.array_equal(np.abs(disk._on_grid(coef, disk.BOUNDARY_RING_N)),
                                  reference_abs_on_grid(np.zeros(3, dtype=complex), disk.BOUNDARY_RING_N))

    @pytest.mark.parametrize("make", [
        # non-finite: an anchor on a grid angle gives phi = inf there
        lambda: BoundaryTrace(anchored_trace(-np.pi / 2, 0.5), hilbert(anchored_trace(-np.pi / 2, 0.5).smooth)),
        lambda: BoundaryTrace(SingularField(PeriodicGrid(np.full(64, 800.0))), PeriodicGrid(np.zeros(64))),
        # under-resolved: the tail guard trips before the negative-frequency one
        lambda: bubble_trace(4096.0, n=4096),
        lambda: bubble_trace(256.0, n=512),
        # not holomorphic: the conjugate with the wrong sign
        lambda: BoundaryTrace(SingularField(PeriodicGrid(np.cos(grid_angles(128)))),
                              hilbert(PeriodicGrid(-np.cos(grid_angles(128))))),
        # anchored traces off the grid, which resolve or not
        lambda: analytic_completion(anchored_trace(0.1234, -np.pi / 4)),
        lambda: analytic_completion(anchored_trace(0.1234, np.pi / 4)),
        lambda: analytic_completion(anchored_trace(1.0001, -np.pi / 2, n=1024)),
    ])
    def test_guards_raise_the_same_exception(self, make):
        bt = make()
        got, ref = outcome(build_phi, bt), outcome(reference_build_phi, bt)
        if isinstance(ref, type):
            assert got is ref
        else:
            assert_same_map(got, ref)

    def test_guard_verdicts_cover_every_class(self):
        # the cases above reach each outcome: a map, and all three exceptions
        seen = set()
        for bt in (bubble_trace(4096.0, n=4096), bubble_trace(2.0),
                   BoundaryTrace(SingularField(PeriodicGrid(np.full(64, 800.0))), PeriodicGrid(np.zeros(64))),
                   BoundaryTrace(SingularField(PeriodicGrid(np.cos(grid_angles(128)))),
                                 hilbert(PeriodicGrid(-np.cos(grid_angles(128)))))):
            got = outcome(build_phi, bt)
            seen.add(got if isinstance(got, type) else DiskMap)
        assert seen == {DiskMap, UnderResolved, NotHolomorphic}


def test_disk_map_memory_peak():
    # one complex array carries exponent, phi and spectrum; through a
    # PeriodicGrid of phi and analyze's shifted spectrum the peak is 16.6 MB
    import tracemalloc

    b = quant.bubble(4096.0, 0.3)
    b.disk_map()  # the boundary ring's power table grows once, outside the measurement
    tracemalloc.start()
    try:
        b.disk_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15.5 * 2**20
