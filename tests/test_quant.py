"""Blow-up machinery on the explicit family: closed-form masses, case
classification, recentering sequences, pinching, and the total-curvature audit.
"""

import numpy as np
import pytest
from scipy.signal import find_peaks

from liouville_disk.disk import boundary_curvature, analytic_completion
from liouville_disk.errors import CenterUnstable, InvalidInput, NotIntegrable, TheoremViolation
from liouville_disk.line import (
    angle_of_x,
    circle_chart,
    stereo_inverse,
    window_samples,
)
from liouville_disk.quant import (
    CENTER_GRID_N,
    MAX_CENTERS,
    _cyclic_peaks,
    bubble,
    classify_case,
    concentration_scan,
    detect_blowup,
    lambda_audit,
    locate_centers,
    pinching_probe,
    recentered_lambda_sequence,
    verify_solution,
)
from liouville_disk.spectral import PeriodicGrid, grid_angles
from test_disk import blaschke_fixture
from test_line import _piecewise_linear_integral, circle_samples, line_integral, u_at

TWO_PI = 2 * np.pi


def mass_in(b, r):
    """Closed-form mass of the bubble b within r of its center: 4 arctan(mu r)."""
    return 4.0 * np.arctan(b.mu * r)


class TestBubble:
    def test_value_at_center(self):
        b = bubble(mu=1.0)
        assert abs(b.u(0.0) - np.log(2)) < 1e-15

    def test_pullback_identically_zero(self):
        b = bubble(mu=1.0)
        lam = b.lambda_at(grid_angles(256))
        assert np.max(np.abs(lam)) < 1e-13

    @pytest.mark.parametrize("mu, x0", [(2.0, 0.5), (0.5, -1.0)])
    def test_pull_back_reproduces_u_on_the_line(self, mu, x0):
        b = bubble(mu=mu, x0=x0)
        xs = np.array([-3.0, -1.0, 0.0, 0.5, 3.0])
        assert np.max(np.abs(u_at(b.pull_back(256), xs) - b.u(xs))) < 1e-9

    def test_mass_closed_form(self):
        b = bubble(mu=4.0, x0=1.0)
        val = line_integral(b.density, n=4096)
        assert abs(val - TWO_PI) < 1e-8
        assert abs(mass_in(b, 1e6) - TWO_PI) < 1e-5

    def test_lambda_bar_decreases_with_mu(self):
        bars = [bubble(mu=2.0**k).lambda_bar() for k in range(6)]
        assert all(b2 < b1 for b1, b2 in zip(bars, bars[1:]))

    def test_invalid_params(self):
        with pytest.raises(InvalidInput):
            bubble(mu=-1.0)


def lambda_reference(mpmath, mu, x0, theta):
    """The pullback at the float angle theta, to 40 digits: the line
    coordinate is Re z/(1 + Im z) for z = e^{i theta}."""
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        x = mpmath.cos(t) / (1 + mpmath.sin(t))
        return mpmath.log(mu) + mpmath.log((1 + x**2) / (1 + mu**2 * (x - x0) ** 2))


@pytest.mark.parametrize("mu", [1.0, 8.0, 2048.0, 4096.0])
def test_lambda_at_matches_a_40_digit_reference(mu):
    # Grid angles at n = 65536 (the 32 nearest the peak and a seeded sample)
    # and off-grid angles beside the chart switches |t| = pi/2 (theta = 0,
    # +-pi) and the north pole.  The error is at most 2e-14 plus what one
    # rounding of theta itself moves the value by, eps |theta lambda'(theta)|:
    # on the flanks of a mu = 4096 peak that is ~1e-12, and rounding the line
    # coordinate once, correctly, already errs by 2e-13 there
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(int(mu))
    th = grid_angles(65536)
    tiny = [0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-4, -1e-4]
    off_grid = np.concatenate([[d, np.pi - abs(d), -np.pi + abs(d), np.pi / 2 + d] for d in tiny])
    for x0 in [*rng.uniform(-0.5, 0.5, 2), -0.5, 0.5]:
        b = bubble(mu=mu, x0=float(x0))
        peak = np.pi / 2 - 2 * np.arctan(x0)
        near_peak = np.argsort(np.abs(th - peak))[:32]
        idx = np.union1d(near_peak, rng.choice(th.size, 48, replace=False))
        idx = idx[th[idx] != -np.pi / 2]
        at = np.concatenate([th[idx], off_grid])
        got = np.concatenate([b.lambda_at(th)[idx], b.lambda_at(off_grid)])
        # lambda'(theta) = -x + mu^2 (x - x0)(1 + x^2)/(1 + mu^2 (x - x0)^2)
        x = np.cos(at) / (1 + np.sin(at))
        slope = -x + mu**2 * (x - x0) * (1 + x**2) / (1 + mu**2 * (x - x0) ** 2)
        exact = np.array([float(lambda_reference(mpmath, mu, x0, theta)) for theta in at])
        err = np.abs(got - exact)
        assert np.all(err <= 2e-14 + eps * np.abs(at * slope)), (mu, x0, at[np.argmax(err)], err.max())
        assert b.lambda_at(np.array([-np.pi / 2]))[0] == -np.log(mu)


class TestVerifySolution:
    def test_standard_bubble(self):
        b = bubble(mu=1.0)
        rep = verify_solution(b.u, lambda x: np.ones_like(np.asarray(x)), n=512,
                              anchor_coeff=0.0, pole_value=0.0)
        assert rep.residual_sup < 1e-8
        assert abs(rep.Lambda - TWO_PI) < 1e-8
        assert abs(rep.beta_required) < 1e-8

    def test_translated_scaled(self):
        b = bubble(mu=0.25, x0=-2.0)
        rep = verify_solution(b.u, lambda x: np.ones_like(np.asarray(x)), n=512,
                              anchor_coeff=0.0, pole_value=-np.log(0.25))
        assert rep.residual_sup < 1e-6
        assert abs(rep.Lambda - TWO_PI) < 1e-6

    def test_shifted_not_a_solution(self):
        b = bubble(mu=1.0)
        rep = verify_solution(lambda x: b.u(x) + 1.0, lambda x: np.ones_like(np.asarray(x)),
                              n=256, anchor_coeff=0.0, pole_value=1.0)
        assert rep.residual_sup > 0.5  # e-term scales by e, equation broken


class TestConcentrationScan:
    def test_alpha_matches_arctan(self):
        members = [bubble(mu=2.0**k) for k in range(13)]
        profs = concentration_scan(members, radii=[0.4, 0.2, 0.1, 0.05], centers=[0.0], n=1 << 18)
        prof = profs[0]
        for i, r in enumerate(prof.radii):
            for j in (0, 6, 12):
                expect = mass_in(members[j], r)
                assert abs(prof.alpha[i, j] - expect) < 1e-3

    def test_total_mass_large_radius(self):
        prof = concentration_scan([bubble(mu=4.0)], radii=[1e3, 5e2, 2e2], centers=[0.0], n=1 << 14)[0]
        assert abs(prof.alpha[0, 0] - TWO_PI) < 1e-3

    def test_constant_sequence_small_mass(self):
        # 4 arctan(r) < pi exactly when r < 1
        members = [bubble(mu=1.0)] * 4
        prof = concentration_scan(members, radii=[0.8, 0.4, 0.2], centers=[0.0], n=1 << 14)[0]
        assert np.all(prof.alpha < np.pi)
        assert np.allclose(prof.alpha, prof.alpha[:, :1], atol=1e-9)

    def test_center_autolocation(self):
        centers = locate_centers(bubble(mu=64.0, x0=1.5).density)
        assert len(centers) == 1
        assert abs(centers[0] - 1.5) < 0.01

    def test_center_drift_raises(self):
        members = [bubble(mu=32.0, x0=0.3 * k) for k in range(5)]
        with pytest.raises(CenterUnstable):
            concentration_scan(members, radii=[0.4, 0.2, 0.1], centers=[0.0], n=1 << 12)


def two_roll_peaks(vals):
    """The former peak search of locate_centers: scipy's find_peaks on the
    samples and on a copy rolled by half, each peak mapped back."""
    m = vals.size
    found = set()
    for shift in (0, m // 2):
        peaks, _ = find_peaks(np.roll(vals, shift), height=0.25 * float(np.max(vals)))
        found.update(int((p - shift) % m) for p in peaks)
    return sorted(found)


def bubble_sum(mus, x0s):
    parts = [bubble(mu=mu, x0=x0) for mu, x0 in zip(mus, x0s)]
    return lambda x: sum(b.density(x) for b in parts)


def random_density(seed):
    # one to three bubbles; every third density is rounded, which makes
    # flat tops of several samples
    rng = np.random.default_rng(seed)
    k = 1 + seed % 3
    f = bubble_sum(2.0 ** rng.uniform(0, 8, size=k), rng.uniform(-3, 3, size=k))
    if seed % 3 == 2:
        return lambda x: np.round(f(x), 1)
    return f


def crafted(kind):
    v = np.zeros(64)
    v[10] = 4.0
    if kind == "even-top":
        v[30:34] = 2.0
    elif kind == "odd-top":
        v[30:35] = 2.0
    elif kind == "even-top-across-seam":
        v[[62, 63, 0, 1]] = 2.0
    elif kind == "odd-top-across-seam":
        v[[63, 0, 1]] = 2.0
    elif kind == "top-at-a-quarter":
        v[40], v[50] = 1.0, np.nextafter(1.0, 0.0)
    return v


class TestPeakSearch:
    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("even-top", [10, 31]),
            ("odd-top", [10, 32]),
            ("even-top-across-seam", [10, 63]),
            ("odd-top-across-seam", [0, 10]),
            ("top-at-a-quarter", [10, 40]),
        ],
    )
    def test_crafted_tops_match_find_peaks(self, kind, expected):
        v = crafted(kind)
        assert _cyclic_peaks(v).tolist() == two_roll_peaks(v) == expected

    def test_densities_match_find_peaks(self):
        x = circle_chart(CENTER_GRID_N).x
        densities = [bubble(mu=mu, x0=x0).density for mu in (1.0, 64.0, 4096.0) for x0 in (-1.0, 0.0, 1.5)]
        densities += [bubble_sum((40.0, 40.0), (-1.0, 1.0)), bubble_sum((8.0, 300.0, 20.0), (-2.0, 0.1, 2.5))]
        densities += [random_density(seed) for seed in range(60)]
        for f in densities:
            vals = np.asarray(f(x), dtype=float)
            assert _cyclic_peaks(vals).tolist() == two_roll_peaks(vals)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8, 11])
    def test_centers_are_the_highest_peaks(self, seed):
        f = random_density(seed)
        x = circle_chart(CENTER_GRID_N).x
        vals = np.asarray(f(x), dtype=float)
        peaks = two_roll_peaks(vals) or [int(np.argmax(vals))]
        top = sorted(peaks, key=lambda p: -vals[p])[:MAX_CENTERS]
        assert locate_centers(f) == sorted(float(x[p]) for p in top)

    def test_constant_density_falls_back_to_the_argmax(self):
        x = circle_chart(CENTER_GRID_N).x
        assert locate_centers(np.ones_like) == [float(x[0])]


def argsort_circle_scan(lambda_grids, kappa_grids, center_angle, arc_radii):
    """Circle-side alpha(r, k): the curvature mass kappa e^lambda on arcs of
    the given radii around a boundary angle, one column per grid pair."""
    radii = np.asarray(sorted(arc_radii, reverse=True), dtype=float)
    alpha = np.empty((radii.size, len(lambda_grids)))
    for j, (lam, kap) in enumerate(zip(lambda_grids, kappa_grids)):
        th = grid_angles(lam.n)
        g = np.asarray(kap.values, dtype=float) * np.exp(np.real(lam.values))
        tau = np.mod(th - center_angle + np.pi, TWO_PI) - np.pi
        order = np.argsort(tau)
        tau_ext = np.concatenate([tau[order], [tau[order][0] + TWO_PI]])
        g_ext = np.concatenate([g[order], [g[order][0]]])
        for i, r in enumerate(radii):
            alpha[i, j] = _piecewise_linear_integral(tau_ext, g_ext, -r, r)
    return alpha


def full_circle_scan(members, radii, center, n):
    """alpha(r, k) from the samples of the whole circle (circle_samples),
    as concentration_scan took them before it sampled only the window."""
    radii = sorted(radii, reverse=True)
    alpha = np.empty((len(radii), len(members)))
    for j, m in enumerate(members):
        _, tau, g = circle_samples(m.density, n)
        for i, r in enumerate(radii):
            alpha[i, j] = _piecewise_linear_integral(
                tau, g, angle_of_x(center + r), angle_of_x(center - r)
            )
    return alpha


class TestWindowedScan:
    @pytest.mark.parametrize("n", [1 << 12, 1 << 14])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_full_circle_route(self, n, seed):
        rng = np.random.default_rng([seed, n])
        center = float(rng.uniform(-2.0, 2.0))
        members = [bubble(mu=2.0**k, x0=center) for k in range(6)]
        radii = np.sort(rng.uniform(1e-3, 1.5, size=5))[::-1]
        [prof] = concentration_scan(members, radii=radii, centers=[center], n=n)
        assert np.array_equal(prof.alpha, full_circle_scan(members, radii, center, n))

    @pytest.mark.parametrize("n", [1 << 12, 1 << 14])
    @pytest.mark.parametrize("center", [-4500.0, 4800.0])
    def test_windows_through_the_pole(self, n, center):
        # at |x| > n / pi the arc of radius 1e3 ends within a cell of -i, so
        # the slice holds the pole sample, extrapolated from its neighbours
        members = [bubble(mu=mu, x0=center) for mu in (1e-3, 1e-2, 0.1, 1.0)]
        radii = [1e3, 300.0, 50.0, 1.0]
        chart = circle_chart(n)
        tau, _ = window_samples(members[0].density, n, angle_of_x(center + 1e3),
                                angle_of_x(center - 1e3))
        assert tau[0] == chart.tau[0] or tau[-1] == chart.tau[-1]
        [prof] = concentration_scan(members, radii=radii, centers=[center], n=n)
        assert np.array_equal(prof.alpha, full_circle_scan(members, radii, center, n))

    def test_non_finite_density_in_the_window_is_rejected(self):
        def member(mu):
            b = bubble(mu=mu)

            def density(x):
                x = np.asarray(x, dtype=float)
                return np.where(np.abs(x - 0.15) < 0.01, np.nan, b.density(x))

            return density

        with pytest.raises(NotIntegrable):
            concentration_scan([member(2.0**k) for k in range(4)], radii=[0.4, 0.2, 0.1],
                               centers=[0.0], n=1 << 12)


class TestDetectBlowup:
    def test_dyadic_ladder_concentrates(self):
        members = [bubble(mu=2.0**k) for k in range(13)]
        profs = concentration_scan(members, radii=[0.4, 0.2, 0.1, 0.05], centers=[0.0], n=1 << 18)
        found = detect_blowup(profs)
        assert list(found) == [0.0]
        assert abs(found[0.0] - TWO_PI) < 0.02

    def test_constant_sequence_empty(self):
        members = [bubble(mu=1.0)] * 5
        profs = concentration_scan(members, radii=[0.4, 0.2, 0.1], centers=[0.0], n=1 << 13)
        assert detect_blowup(profs) == {}

    def test_two_bubble_superposition(self):
        # fields added; K recomputed so the equation holds by construction,
        # making the measure density e^{u1} + e^{u2}
        mus = [2.0**k for k in range(3, 13)]

        def member(mu):
            b1, b2 = bubble(mu=mu, x0=-1.0), bubble(mu=mu, x0=1.0)
            return lambda x: b1.density(x) + b2.density(x)

        profs = concentration_scan([member(m) for m in mus], radii=[0.4, 0.2, 0.1, 0.05], n=1 << 16)
        found = detect_blowup(profs)
        assert np.allclose(sorted(found), [-1.0, 1.0], atol=1e-9)
        for mass in found.values():
            assert abs(mass - TWO_PI) < 0.05

    def test_too_few_indices_rejected(self):
        members = [bubble(mu=2.0**k) for k in range(3)]
        profs = concentration_scan(members, radii=[0.4, 0.2, 0.1], centers=[0.0], n=1 << 12)
        with pytest.raises(InvalidInput):
            detect_blowup(profs)


class TestClassifyCase:
    def test_dyadic_ladder_is_case_two(self):
        members = [bubble(mu=2.0**k) for k in range(13)]
        bars = [b.lambda_bar() for b in members]
        profs = concentration_scan(members, radii=[0.4, 0.2, 0.1, 0.05], centers=[0.0], n=1 << 18)
        rep = classify_case(bars, detect_blowup(profs))
        assert rep.case == 2
        assert all(m >= np.pi for m in rep.blowup_points.values())
        assert all(b2 < b1 for b1, b2 in zip(rep.lambda_bars, rep.lambda_bars[1:]))

    def test_constant_sequence_case_one(self):
        bars = [bubble(mu=1.0).lambda_bar()] * 6
        rep = classify_case(bars, {})
        assert rep.case == 1 and rep.blowup_points == {}

    def test_case_two_low_mass_is_theorem_violation(self):
        bars = [0.0, -2.0, -4.0, -7.0]
        with pytest.raises(TheoremViolation):
            classify_case(bars, {0.0: 2.0})  # 2.0 < pi

    def test_recentered_sequence_is_case_two(self):
        # recentering a fixed map concentrates at the recentering point
        # the last rung needs the grid to resolve features of width 1 - t
        d = bubble(mu=1.0).disk_map()
        ts = [0.0, 0.75, 0.9375, 0.984375, 0.99609375, 0.998046875]
        lams = recentered_lambda_sequence(d, 1j, ts, n=8192)
        bars = [float(np.mean(l.values)) for l in lams]
        assert bars[0] - bars[-1] > 5
        kappas = []
        for lam in lams:
            bt = analytic_completion(lam)
            kappas.append(boundary_curvature(bt))
        alpha = argsort_circle_scan(lams, kappas, np.pi / 2, [0.4, 0.2, 0.1])
        # curvature mass 2*pi concentrates at the preimage angle pi/2
        assert alpha[-1, -1] > 0.9 * TWO_PI
        rep = classify_case(bars, {np.pi / 2: float(alpha[-1, -1])})
        assert rep.case == 2

    def test_conservation_under_recentering(self):
        # total curvature mass is invariant under the disk automorphism
        d = bubble(mu=1.0).disk_map()
        lams = recentered_lambda_sequence(d, 1j, [0.0, 0.5, 0.9], n=1024)
        totals = []
        for lam in lams:
            bt = analytic_completion(lam)
            kap = boundary_curvature(bt)
            totals.append(float(np.mean(kap.values * np.exp(lam.values))) * TWO_PI)
        assert np.max(np.abs(np.asarray(totals) - TWO_PI)) < 1e-6


def longdouble_horner(c, w):
    """sum_k c_k w^k by Horner's rule in clongdouble."""
    acc = np.zeros(w.shape, dtype=np.clongdouble)
    for ck in c[::-1].astype(np.clongdouble):
        acc = acc * w + ck
    return acc


def recentered_speed_errors(mu, x0, ts, n):
    """Relative errors of |Phi'(f_t(z_j))| read off the recentered moduli
    of the bubble (mu, x0), recentered towards its concentration point, at
    the n grid angles for each t, against a long-double Horner sum of the
    same derivative coefficients at the same angles; one row per t."""
    d = bubble(mu=mu, x0=x0).disk_map()
    a = complex(stereo_inverse(x0))
    z = np.exp(1j * grid_angles(n))
    lams = recentered_lambda_sequence(d, a, ts, n=n)
    speeds, angles = [], []
    for t, lam in zip(ts, lams):
        den = 1.0 - t * np.conj(a) * z
        speeds.append(np.exp(lam.values - np.log1p(-t * t) + 2.0 * np.log(np.abs(den))))
        angles.append(np.angle((z - t * a) / den))
    th = np.asarray(angles, dtype=np.longdouble)
    ref = np.abs(longdouble_horner(np.trim_zeros(d.deriv_coeffs, "b"), np.cos(th) + 1j * np.sin(th)))
    return np.abs(np.asarray(speeds) / ref - 1.0).astype(float)


@pytest.mark.parametrize("mu, x0", [(1024.0, 0.45), (4096.0, 0.0), (4096.0, 0.3)])
def test_recentered_moduli_at_high_series_order(mu, x0):
    # series orders 16k-65k: the one-sided sum of eval_modes against long
    # double, at 32 recentered angles (t = 0.5) pointwise, and over the
    # 256-angle ladder t = 0, 0.25, 0.5 in rms.  Pointwise on that ladder the
    # double sum errs by up to ~6e-8 at mu = 4096 (phase rounding of k theta
    # at k ~ 6.5e4), as the zero-padded full-spectrum sum it replaced did
    assert np.max(recentered_speed_errors(mu, x0, [0.5], 32)) < 1e-8
    errs = recentered_speed_errors(mu, x0, [0.0, 0.25, 0.5], 256)
    assert np.sqrt(np.mean(errs**2, axis=1)).max() < 1e-8


class TestPinching:
    def test_degenerating_family_pinches(self):
        maps = [bubble(mu=m).disk_map() for m in (1.0, 16.0, 256.0, 4096.0)]
        rep = pinching_probe(maps, [(1.0, -1.0)], mesh_n=256, kappa_bound=1.0)
        row = rep.table[0]
        assert all(b < a for a, b in zip(row, row[1:]))
        assert row[-1] < 0.1 * row[0]
        assert rep.verdicts == [True]
        assert rep.arc_gaps[0] >= np.pi / 1.0 - 2 * (TWO_PI / 256)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_maps_is_an_input_error(self, count):
        # no trend exists: no IndexError for none, no mesh-tolerance verdict
        # (InconclusiveMesh) for one
        maps = [bubble(mu=4.0).disk_map()] * count
        with pytest.raises(InvalidInput, match="at least two maps"):
            pinching_probe(maps, [(1.0, -1.0)], mesh_n=256)

    def test_fixed_map_not_pinched(self):
        maps = [bubble(mu=1.0).disk_map()] * 4
        rep = pinching_probe(maps, [(1.0, -1.0)], mesh_n=256)
        assert rep.verdicts == [False]
        assert np.allclose(rep.table[0], rep.table[0][0])


class TestLambdaAudit:
    def test_bubble_family_passes(self):
        members = [bubble(mu=m, x0=x0) for m in (0.25, 1.0, 4.0) for x0 in (0.0, 1.0)]
        rep = lambda_audit(members)
        assert len(rep.included) == 6
        for e in rep.included:
            assert e.Lambda >= np.pi - 1e-3
            assert abs(e.Lambda - TWO_PI) < 1e-6
            assert abs(e.slope - e.Lambda / np.pi) <= 0.05 * (e.Lambda / np.pi)

    def test_decoy_excluded_not_asserted(self):
        # not a solution: fails the residual precondition, so the bound is
        # never asserted against it
        decoy = ("decoy", lambda x: -3 * np.log1p(np.abs(np.asarray(x))),
                 lambda x: np.ones_like(np.asarray(x, dtype=float)))
        rep = lambda_audit([decoy])
        assert len(rep.included) == 0
        assert "excluded" in rep.entries[0].note or "failed" in rep.entries[0].note


def reference_asymptotic_slope(u):
    """line.asymptotic_slope with its tail points and design matrix built on
    every call, the design before u sees the points."""
    import warnings

    from liouville_disk.errors import FitWarning
    from liouville_disk.line import TAIL_POINTS, TAIL_RESIDUAL, TAIL_WINDOW

    tail = np.geomspace(*TAIL_WINDOW, TAIL_POINTS)
    xs = np.concatenate([tail, -tail])
    X = -np.log1p(np.abs(xs))
    A = np.column_stack([X, np.ones_like(X)])
    ys = np.asarray(u(xs), dtype=float)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(coef[0])
    resid = float(np.max(np.abs(A @ coef - ys)))
    monotone = all(
        np.all(np.diff(side) <= 1e-9) or np.all(np.diff(side) >= -1e-9)
        for side in (ys[:TAIL_POINTS], ys[TAIL_POINTS:])
    )
    if slope > 0.2 and not monotone:
        warnings.warn("non-monotone tail", FitWarning)
    elif resid > TAIL_RESIDUAL:
        warnings.warn("tail fit residual", FitWarning)
    return slope


def reference_verify_solution(u, K, n=512, anchor_coeff=None, pole_value=None):
    """verify_solution written out: pull u back, then sample K with its pole
    fit, then transfer the equation."""
    from liouville_disk.line import CurvatureData, pull_back, transfer_equation

    lf = pull_back(u, n, anchor_coeff=anchor_coeff, pole_value=pole_value)
    kd = CurvatureData.from_evaluator(K, n)
    return transfer_equation(lf, kd, strict_dirac=False)


def reference_lambda_audit(members):
    """lambda_audit with one reference_verify_solution call, and so one
    sampled K, per member, and the per-call tail fit."""
    import warnings

    from liouville_disk.quant import AuditEntry, AuditReport, Bubble

    entries = []
    for item in members:
        if isinstance(item, Bubble):
            label = f"bubble(mu={item.mu:g}, x0={item.x0:g})"
            u, K = item.u, (lambda x: np.ones_like(np.asarray(x, dtype=float)))
            kwargs = {"anchor_coeff": 0.0, "pole_value": -np.log(item.mu)}
        else:
            label, u, K = item
            kwargs = {}
        try:
            rep = reference_verify_solution(u, K, n=512, **kwargs)
        except Exception as exc:  # noqa: BLE001 - reported, as lambda_audit does
            entries.append(AuditEntry(label, np.nan, np.nan, np.inf, False, f"verify failed: {exc}"))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slope = reference_asymptotic_slope(u)
        if rep.residual_sup >= 1e-4:
            entries.append(AuditEntry(label, rep.Lambda, slope, rep.residual_sup, False,
                                      "excluded: residual above tolerance"))
            continue
        note = "slope/Lambda mismatch beyond 5%" if abs(slope - rep.Lambda / np.pi) > 0.05 * abs(rep.Lambda / np.pi) else ""
        entries.append(AuditEntry(label, rep.Lambda, slope, rep.residual_sup, True, note))
    return AuditReport(entries=entries)


def audit_json(rep):
    # json text, so that the NaN of a failed verification compares equal
    import json

    return json.dumps(rep.to_json())


class TestAuditAgainstPerMemberReference:
    def test_bubble_ladder(self):
        for x0 in (-0.45, 0.0, 0.3):
            members = [bubble(mu=2.0**j, x0=x0) for j in range(13)]
            assert audit_json(lambda_audit(members)) == audit_json(reference_lambda_audit(members))

    def test_mixed_members(self):
        def u_scaled(x):  # a bubble of scale 3 given by hand, with K = 1
            return np.log(6.0 / (1 + 9.0 * (np.asarray(x, dtype=float) - 0.2) ** 2))

        def k_one(x):
            return np.ones_like(np.asarray(x, dtype=float))

        def k_fails(x):
            raise ValueError("curvature sampler failed")

        def u_in_place(x):  # writes to the points it is given
            x -= 0.2
            return np.log(2.0 / (1 + x**2))

        decoy = ("decoy", lambda x: -3 * np.log1p(np.abs(np.asarray(x))), k_one)
        broken = ("broken", lambda x: np.asarray(x)[:1], k_one)  # wrong shape: verify fails
        # u and K both fail: the note names the error of u, which is pulled back first
        both = ("both broken", lambda x: np.asarray(x)[:1], k_fails)
        members = [bubble(mu=4.0, x0=0.1), ("by hand", u_scaled, k_one), decoy, broken,
                   both, ("bad K", u_scaled, k_fails), ("in place", u_in_place, k_one),
                   bubble(mu=8.0, x0=-0.3)]
        rep = lambda_audit(members)
        assert audit_json(rep) == audit_json(reference_lambda_audit(members))
        assert [e.included for e in rep.entries] == [True, True, False, False, False, False, False, True]
        assert rep.entries[2].note.startswith("excluded")
        assert rep.entries[3].note.startswith("verify failed")
        assert rep.entries[4].note == rep.entries[3].note
        assert rep.entries[5].note == "verify failed: curvature sampler failed"

    def test_verify_solution_reports_u_before_k(self):
        with pytest.raises(InvalidInput, match="shape"):
            verify_solution(lambda x: np.asarray(x)[:1], lambda x: 1 / 0)

    def test_asymptotic_slope_matches_the_per_call_construction(self):
        import warnings

        from liouville_disk.line import asymptotic_slope

        cases = [bubble(mu=m, x0=x0).u for m in (0.25, 1.0, 4096.0) for x0 in (0.0, 0.45)]
        cases += [lambda x: -3 * np.log1p(np.abs(x)), lambda x: np.sin(np.asarray(x)), lambda x: 0.0 * x]

        def shifted_in_place(x):  # writes to the points it is given
            x -= 0.2
            return -3 * np.log1p(np.abs(x))

        cases += [shifted_in_place, shifted_in_place]  # the second call sees the points unchanged
        for u in cases:
            with warnings.catch_warnings(record=True) as got_w:
                warnings.simplefilter("always")
                got = asymptotic_slope(u)
            with warnings.catch_warnings(record=True) as ref_w:
                warnings.simplefilter("always")
                ref = reference_asymptotic_slope(u)
            assert got == ref
            assert [w.category for w in got_w] == [w.category for w in ref_w]


def test_blaschke_boundary_degree_measured_by_rotation_index():
    # argument-principle oracle: a degree-two product has one interior
    # critical point, so the boundary tangent winds twice
    from liouville_disk.curves import PolyCurve, rotation_index
    from liouville_disk.disk import boundary_polyline

    d = blaschke_fixture([0.3, -0.3])
    verts, _ = boundary_polyline(d, 512)
    assert rotation_index(PolyCurve(verts)).index == 2
    d1 = blaschke_fixture([0.0])
    verts1, _ = boundary_polyline(d1, 256)
    assert rotation_index(PolyCurve(verts1)).index == 1


def test_profile_csv_roundtrip():
    members = [bubble(mu=2.0**k) for k in range(4)]
    prof = concentration_scan(members, radii=[0.4, 0.2, 0.1], centers=[0.0], n=1 << 12)[0]
    text = prof.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "r,k,alpha"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 3 * 4
    back = np.array([float(r[2]) for r in rows]).reshape(3, 4)
    assert np.array_equal(back, prof.alpha)
