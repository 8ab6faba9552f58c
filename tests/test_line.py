"""Stereographic dictionary checks: projection round trips, the forced
pullback identities of the explicit solution family, mass invariance, the
transferred-equation residual, and the PV oracle against the circle route.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from liouville_disk import quant
from liouville_disk.errors import (
    InvalidInput,
    NotIntegrable,
    PoleOfProjection,
    SingularMismatch,
)
from liouville_disk.line import (
    POLE_ANGLE,
    _check_pole,
    _close_period,
    _integrand,
    _with_pole,
    CurvatureData,
    LineField,
    angle_of_x,
    asymptotic_slope,
    circle_chart,
    integrate_exp_singular,
    nested_window_integrals,
    pull_back,
    stereo_inverse,
    stereo_project,
    transfer_equation,
    window_samples,
)
from liouville_disk.spectral import (
    PeriodicGrid,
    SingularField,
    grid_angles,
    half_laplacian,
)
from test_spectral import evaluate

TWO_PI = 2 * np.pi


def u_bubble(mu, x0=0.0):
    def u(x):
        return np.log(2 * mu / (1 + mu**2 * (np.asarray(x, dtype=float) - x0) ** 2))

    return u


# --- references the tests compare against -------------------------------------

def _piecewise_linear_integral(xs, ys, a, b) -> float:
    """Integral over [a, b] of the piecewise-linear interpolant through
    (xs, ys), xs ascending, by one np.trapezoid per window: the samples
    strictly inside the window are a slice found by two binary searches,
    and only the two ends are interpolated.  The per-window route that
    line.nested_window_integrals replaced in concentration_scan."""
    a = max(a, xs[0])
    b = min(b, xs[-1])
    if b <= a:
        return 0.0
    lo, hi = np.searchsorted(xs, a, side="right"), np.searchsorted(xs, b, side="left")
    ya, yb = np.interp((a, b), xs, ys)
    grid = np.concatenate([[a], xs[lo:hi], [b]])
    vals = np.concatenate([[ya], ys[lo:hi], [yb]])
    return float(np.trapezoid(vals, grid))


class TailError(Exception):
    """Slow decay: the PV oracle's tail estimate exceeds its tolerance."""


def circle_samples(f, n: int, pole_value: float | None = None):
    """Samples g = f(Pi(theta)) / (1 + sin theta) of a line integrand on the
    whole circle grid, the value at -i being pole_value or extrapolated.

    Returns (g, tau_ext, g_ext): g in grid order, and the same samples
    ordered by the unwrapped angle tau in [-pi/2, 3pi/2) (the rotation of the
    grid that starts at the pole) with the first one repeated at tau + 2 pi,
    ready for nested_window_integrals.  line.window_samples reads a slice
    of tau_ext and g_ext.
    """
    chart = circle_chart(n)
    g = _with_pole(chart, _integrand(f, chart.x, chart.sin), pole_value)
    _check_pole(g[chart.pole])
    return g, chart.tau, _close_period(g, chart.pole)


def line_integral(f, n: int = 4096, restrict=None, pole_value: float | None = None) -> float:
    """Integrate f over the line through the circle substitution.

    \\int f dx = \\int f(Pi(theta)) (1+sin theta)^{-1} dtheta on the grid;
    no truncated improper integrals, no tail cutoff.  pole_value is the limit
    of f(x)(1+x^2)/2 as |x| -> infinity (defaults to extrapolation from
    neighbors).  restrict=(a, b) integrates over x in [a, b] only, with the
    cut points located exactly on the circle.
    """
    if restrict is None:
        g, _, _ = circle_samples(f, n, pole_value)
        return float(g.sum() * TWO_PI / n)

    a, b = restrict
    if not a < b:
        raise InvalidInput("restrict interval must satisfy a < b")
    # x decreases as theta increases: the window [a, b] is the arc
    # [theta(b), theta(a)] in the unwrapped coordinate (-pi/2, 3pi/2)
    ta, tb = angle_of_x(b), angle_of_x(a)
    return _piecewise_linear_integral(*window_samples(f, n, ta, tb, pole_value), ta, tb)


def u_at(lf, x):
    """u(x) = lambda(theta(x)) + log(2/(1+x^2)) of a LineField lf."""
    x = np.asarray(x, dtype=float)
    lam = evaluate(lf.field, angle_of_x(x))
    out = lam + np.log(2.0 / (1.0 + x**2))
    return float(out[0]) if np.ndim(x) == 0 else out


def pv_half_laplacian_line(u, x: float, eps_ladder=(1e-2, 5e-3, 2.5e-3), tail_tol: float = 1e-4):
    """Principal-value half-Laplacian on the line at a point.

    Symmetric pairing around the singularity gives the even integrand
    (2u(x) - u(x+t) - u(x-t))/t^2 on [eps, inf); the excision error is
    I(eps) = I(0) + a*eps + b*eps^3, removed by two Richardson stages over
    the halving ladder.  This is the cross-validation oracle of the
    spectral circle route.
    """
    ux = float(u(x))
    # tail of the paired integrand is ~ |u(T)|/T; reject near-linear growth of
    # u, for which the principal value diverges
    T = 1e6
    uT = max(abs(float(u(x + T))), abs(float(u(x - T))), 1e-12)
    uT2 = max(abs(float(u(x + 100 * T))), abs(float(u(x - 100 * T))), 1e-12)
    growth = np.log(uT2 / uT) / np.log(100.0)
    tail_bound = (2 * abs(ux) + 2 * uT) / T
    if growth > 0.9 or tail_bound > max(10 * tail_tol, 1e-2):
        raise TailError(
            f"slow decay: growth exponent {growth:.2f}, tail estimate {tail_bound:.3g}"
        )

    def sym(t):
        return (2.0 * ux - float(u(x + t)) - float(u(x - t))) / (t * t)

    def integral(a, b):
        v, _ = quad(sym, a, b, limit=400, epsabs=1e-11, epsrel=1e-11)
        if not np.isfinite(v):
            raise TailError("quadrature failed to converge")
        return v

    # one tail integral from the smallest radius; each larger radius drops
    # the short strip up to it
    e_min = min(eps_ladder)
    tail = integral(e_min, np.inf)
    vals = [(tail - (integral(e_min, e) if e > e_min else 0.0)) / np.pi for e in eps_ladder]
    r1a = 2 * vals[1] - vals[0]
    r1b = 2 * vals[2] - vals[1]
    return (8 * r1b - r1a) / 7.0


class TestStereo:
    def test_origin_maps_to_i(self):
        assert abs(stereo_inverse(0.0) - 1j) < 1e-15

    def test_one_maps_to_one(self):
        assert abs(stereo_inverse(1.0) - (1.0 + 0.0j)) < 1e-15
        assert abs(stereo_project(1j) - 0.0) < 1e-15
        assert abs(stereo_project(1.0 + 0j) - 1.0) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-50, 50, size=100)
        back = stereo_project(stereo_inverse(xs))
        assert np.max(np.abs(back - xs)) < 1e-12 * np.maximum(1, np.abs(xs)).max()

    def test_pole_raises(self):
        with pytest.raises(PoleOfProjection):
            stereo_project(-1j)

    def test_sintheta_identity(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-30, 30, size=200)
        th = angle_of_x(xs)
        assert np.max(np.abs((1 + np.sin(th)) - 2 / (1 + xs**2))) < 1e-12


class TestPullBack:
    def test_standard_bubble_pulls_to_zero(self):
        # the identity 1 + sin(theta(x)) = 2/(1+x^2) forces exact cancellation
        lf = pull_back(u_bubble(1.0), 256, anchor_coeff=0.0, pole_value=0.0)
        assert np.max(np.abs(lf.lambda_grid())) < 1e-13

    def test_bubble_lambda_closed_form(self):
        mu = 4.0
        lf = pull_back(u_bubble(mu), 256, anchor_coeff=0.0, pole_value=-np.log(mu))
        th = grid_angles(256)
        jp = 64  # -pi/2 index
        mask = np.arange(256) != jp
        Pi = stereo_project(np.exp(1j * th[mask]))
        expect = np.log(mu) + np.log((1 + Pi**2) / (1 + mu**2 * Pi**2))
        assert np.max(np.abs(lf.lambda_grid()[mask] - expect)) < 1e-10
        assert abs(lf.lambda_grid()[jp] - (-np.log(mu))) < 1e-9

    def test_tail_fit_detects_no_anchor_for_bubble(self):
        lf = pull_back(u_bubble(2.0), 128)
        assert lf.beta == 0.0

    def test_constant_u_carries_full_anchor(self):
        lf = pull_back(lambda x: 1.5 * np.ones_like(np.asarray(x, float)), 128)
        assert abs(lf.beta - TWO_PI) < 1e-6
        # smooth part is the constant 1.5 + log 2 once the profile is removed
        assert np.max(np.abs(lf.field.smooth.values - (1.5 + np.log(2)))) < 1e-8

    def test_u_at_consistency(self):
        mu = 0.5
        lf = pull_back(u_bubble(mu), 512, anchor_coeff=0.0, pole_value=-np.log(mu))
        xs = np.array([-3.0, -0.2, 0.0, 1.7, 40.0])
        assert np.max(np.abs(u_at(lf, xs) - u_bubble(mu)(xs))) < 1e-10

    def test_nonfinite_rejected(self):
        def u(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(np.asarray(x, dtype=float))  # nan on the negative axis

        with pytest.raises(InvalidInput):
            pull_back(u, 64, anchor_coeff=0.0)


class TestLineIntegral:
    def test_bubble_mass_is_2pi(self):
        for mu in (0.25, 1.0, 4.0):
            val = line_integral(lambda x: np.exp(u_bubble(mu)(x)), n=2048)
            assert abs(val - TWO_PI) < 1e-8

    def test_arctan_primitive(self):
        val = line_integral(lambda x: 2 / (1 + np.asarray(x) ** 2) / np.pi, n=1024)
        assert abs(val - 2.0) < 1e-10

    def test_total_curvature_matches_flat_defect(self):
        # K = 1, u the standard bubble: Lambda = 2*pi, i.e. beta = 0
        val = line_integral(lambda x: np.exp(u_bubble(1.0)(x)), n=1024)
        assert abs(val - TWO_PI) < 1e-10

    def test_mass_invariance_under_translation_and_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            mu = float(np.exp(rng.uniform(-2, 2)))
            x0 = float(rng.uniform(-5, 5))
            val = line_integral(lambda x: np.exp(u_bubble(mu, x0)(x)), n=4096)
            assert abs(val - TWO_PI) < 1e-8

    def test_restricted_integral_matches_arctan(self):
        # int_{|x|<r} 2 mu/(1+mu^2 x^2) dx = 4 arctan(mu r)
        mu, r = 16.0, 0.3
        val = line_integral(lambda x: np.exp(u_bubble(mu)(x)), n=8192, restrict=(-r, r))
        assert abs(val - 4 * np.arctan(mu * r)) < 1e-5


class TestWindowedLineIntegral:
    """line_integral(restrict=...) samples only the window; the oracle is the
    whole-circle route, circle_samples and _piecewise_linear_integral."""

    @staticmethod
    def full_circle(f, n, a, b, pole_value=None):
        _, tau, g = circle_samples(f, n, pole_value)
        return _piecewise_linear_integral(tau, g, angle_of_x(b), angle_of_x(a))

    @pytest.mark.parametrize("n", [1 << 12, 1 << 14])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_full_circle_route(self, n, seed):
        rng = np.random.default_rng([seed, n])
        f = u_bubble(float(np.exp(rng.uniform(-1, 4))), x0=float(rng.uniform(-3, 3)))
        density = lambda x: np.exp(f(x))  # noqa: E731
        centers = rng.uniform(-5, 5, size=8)
        radii = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), size=8))
        windows = [(c - r, c + r) for c, r in zip(centers, radii)]
        windows += [(-1e3, 1e3), (-1e5, -1.0), (1.0, 1e5), (-1.0 - 1e-9, -1.0 + 1e-9)]
        for a, b in windows:
            for pv in (None, 0.7):
                got = line_integral(density, n=n, restrict=(a, b), pole_value=pv)
                assert got == self.full_circle(density, n, a, b, pv), (a, b, pv)

    @pytest.mark.parametrize("n", [4, 8, 12, 64])
    def test_small_grids_through_the_pole(self, n):
        # at n = 4 the pole is one of its own 8 fit neighbours
        f = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2) ** 0.8  # noqa: E731
        for a, b in [(-1e6, 1e6), (-3.0, 1e6), (-1e6, 0.5), (2.0, 1e6)]:
            assert line_integral(f, n=n, restrict=(a, b)) == self.full_circle(f, n, a, b)

    def test_window_slice_brackets_the_arc(self):
        n = 1 << 12
        tau, g = window_samples(np.ones_like, n, 0.25, 0.5)
        assert tau[0] <= 0.25 < tau[1] and tau[-2] < 0.5 <= tau[-1]
        assert g.size == tau.size

    def test_non_finite_inside_the_window_is_rejected(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.2, np.nan, 1.0 / (1.0 + x**2))

        with pytest.raises(NotIntegrable):
            line_integral(f, n=4096, restrict=(0.0, 1.0))
        # samples outside the window enter no integral and are not read
        assert line_integral(f, n=4096, restrict=(-1.0, 0.0)) == pytest.approx(np.pi / 4, abs=1e-6)

    def test_divergence_at_the_pole_is_rejected(self):
        f = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)  # noqa: E731
        with pytest.raises(NotIntegrable):
            line_integral(f, n=4096, restrict=(-1e6, 1e6), pole_value=np.inf)


class TestTransferEquation:
    def test_standard_bubble_residual_vanishes(self):
        lf = pull_back(u_bubble(1.0), 512, anchor_coeff=0.0, pole_value=0.0)
        rep = transfer_equation(lf, CurvatureData.constant(1.0, 512))
        assert rep.residual_sup < 1e-8
        assert abs(rep.Lambda - TWO_PI) < 1e-8
        assert rep.dirac_mismatch < 1e-8

    @pytest.mark.parametrize("mu,x0", [(4.0, 0.0), (0.25, 0.0), (4.0, 1.0)])
    def test_family_residual(self, mu, x0):
        lf = pull_back(u_bubble(mu, x0), 512, anchor_coeff=0.0, pole_value=-np.log(mu))
        rep = transfer_equation(lf, CurvatureData.constant(1.0, 512))
        assert rep.residual_sup < 1e-6
        assert abs(rep.Lambda - TWO_PI) < 1e-6

    def test_recomputed_curvature_makes_residual_zero(self):
        # u = bubble + smooth bump, K := e^{-u} (-Delta)^{1/2} u by construction
        n = 512
        base = pull_back(u_bubble(1.0), n, anchor_coeff=0.0, pole_value=0.0)
        th = grid_angles(n)
        bump = 0.1 * np.cos(th)  # smooth circle-side perturbation of lambda
        lam = PeriodicGrid(np.real(base.lambda_grid()) + bump)
        lf = LineField(SingularField(lam))
        kappa = (half_laplacian(lam).values + 1.0) * np.exp(-lam.values)
        rep = transfer_equation(lf, CurvatureData(PeriodicGrid(kappa), float(np.max(np.abs(kappa)))))
        assert rep.residual_sup < 1e-10

    def test_scalar_curvature_evaluator_is_an_input_error(self):
        # K must map the array of chart points to an array of its shape
        with pytest.raises(InvalidInput):
            CurvatureData.from_evaluator(lambda x: 1.0, 64)

    def test_singular_mismatch_raised(self):
        # e^u integrates to less than 2*pi but no anchor is declared
        n = 256
        lam = PeriodicGrid(np.full(n, -0.5))
        lf = LineField(SingularField(lam))
        with pytest.raises(SingularMismatch):
            transfer_equation(lf, CurvatureData.constant(1.0, n))

    @pytest.mark.parametrize("beta", [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    def test_singular_field_lambda_quadrature(self, beta):
        # e^{beta * profile} at the pole anchor is (2(1+sin theta))^{-beta/2pi};
        # oracle: adaptive quadrature with the singular point declared
        n = 256
        sf = SingularField(PeriodicGrid(np.zeros(n)), ((-np.pi / 2, beta),))
        val = integrate_exp_singular(sf)
        ref, _ = quad(
            lambda t: (2 * (1 + np.sin(t))) ** (-beta / TWO_PI),
            -np.pi / 2,
            3 * np.pi / 2,
            points=[-np.pi / 2, np.pi / 2],
            limit=500,
        )
        assert abs(val - ref) < 1e-7


class TestPVHalfLaplacian:
    def test_bubble_at_zero(self):
        # solution of the unit-curvature equation: value e^{u(0)} = 2
        val = pv_half_laplacian_line(lambda x: float(u_bubble(1.0)(x)), 0.0)
        assert abs(val - 2.0) < 1e-6

    def test_constant_is_zero(self):
        val = pv_half_laplacian_line(lambda x: 3.3, 0.7)
        assert abs(val) < 1e-9

    def test_bubble_at_one(self):
        val = pv_half_laplacian_line(lambda x: float(u_bubble(1.0)(x)), 1.0)
        assert abs(val - 1.0) < 1e-6

    def test_dictionary_soundness(self):
        # PV value at grid images of circle points vs the circle route
        # (-Delta)^{1/2} u (x) = ((-Delta)^{1/2} lambda (theta) + 1)(1 + sin theta)
        rng = np.random.default_rng(42)
        n = 512
        th = grid_angles(n)
        checked = 0
        for trial in range(50):
            k1, k2 = rng.integers(1, 6, size=2)
            a1, a2 = 0.2 * rng.normal(size=2)
            bump = a1 * np.cos(k1 * th) + a2 * np.sin(k2 * th)
            lam = PeriodicGrid(bump)
            lf = LineField(SingularField(lam))
            hl = half_laplacian(lam).values

            def u(x):
                return float(u_at(lf, float(x)))

            j = int(rng.integers(0, n))
            if j == n // 4:  # skip the pole
                j += 1
            x = stereo_project(np.exp(1j * th[j]))
            if abs(x) > 30:  # far-field points stress the quadrature, not the dictionary
                continue
            circle_route = (hl[j] + 1.0) * (1 + np.sin(th[j]))
            pv = pv_half_laplacian_line(u, x)
            assert abs(pv - circle_route) < 1e-4
            checked += 1
        assert checked >= 40


def test_pv_tail_error_on_near_linear_growth():
    with pytest.raises(TailError):
        pv_half_laplacian_line(lambda x: abs(x) ** 0.95, 0.0)


class TestAsymptoticSlope:
    def test_bubble_slope_two(self):
        for mu in (0.25, 1.0, 4.0):
            s = asymptotic_slope(u_bubble(mu))
            assert abs(s - 2.0) < 0.1  # Lambda/pi = 2 within 5%

    def test_exact_log_fit(self):
        s = asymptotic_slope(lambda x: -3 * np.log1p(np.abs(x)))
        assert abs(s - 3.0) < 1e-12

    def test_translated_bubble(self):
        s = asymptotic_slope(u_bubble(2.0, x0=1.5))
        assert abs(s - 2.0) < 0.1


def test_linefield_json_roundtrip():
    lf = pull_back(u_bubble(2.0), 128, anchor_coeff=0.0, pole_value=-np.log(2.0))
    lf2 = LineField.from_json(lf.to_json())
    assert np.max(np.abs(lf2.lambda_grid() - lf.lambda_grid())) < 1e-15
    assert lf2.beta == lf.beta


class TestCircleChart:
    def test_arrays_are_read_only(self):
        chart = circle_chart(64)
        for name in ("thetas", "off_pole", "x", "sin", "tau"):
            arr = getattr(chart, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        assert chart.pole == 16 and chart.x.size == chart.sin.size == 63

    def test_one_chart_per_grid_size(self):
        assert circle_chart(256) is circle_chart(256)

    def test_grid_size_must_put_the_pole_on_the_grid(self):
        with pytest.raises(InvalidInput):
            circle_chart(10)

    @pytest.mark.parametrize("n", [8, 12, 64, 65536])
    def test_circle_samples_order_is_the_argsort_of_the_unwrapped_angle(self, n):
        g, tau_ext, g_ext = circle_samples(u_bubble(3.0, x0=0.4), n)
        th = grid_angles(n)
        tau = np.where(th < POLE_ANGLE, th + TWO_PI, th)
        order = np.argsort(tau)
        assert np.array_equal(tau_ext, np.concatenate([tau[order], [tau[order][0] + TWO_PI]]))
        assert np.array_equal(g_ext, np.concatenate([g[order], [g[order][0]]]))

    def test_unwrapped_angles_rise_for_every_grid_size(self):
        # for some n (44, 60, ...) the rounded angle at the pole index lies
        # just below -pi/2; the chart unwraps by index, so tau still rises
        for n in range(8, 1024, 4):
            _, tau_ext, _ = circle_samples(np.ones_like, n, pole_value=0.5)
            assert np.all(np.diff(tau_ext) > 0), n
            assert tau_ext[-1] - tau_ext[0] == pytest.approx(TWO_PI, abs=1e-14)


def mask_interp_integral(xs, ys, a, b):
    """The former _piecewise_linear_integral: a mask over all angles and
    np.interp at every grid point of the window."""
    a = max(a, xs[0])
    b = min(b, xs[-1])
    if b <= a:
        return 0.0
    grid = np.concatenate([[a], xs[(xs > a) & (xs < b)], [b]])
    vals = np.interp(grid, xs, ys)
    return float(np.trapezoid(vals, grid))


class TestPiecewiseLinearIntegral:
    def windows(self, xs, rng):
        """Ends inside cells, on knots, beyond either end, empty and reversed."""
        inside = rng.uniform(xs[0], xs[-1], size=(40, 2))
        knots = xs[rng.integers(0, xs.size, size=(20, 2))]
        mixed = np.column_stack([xs[rng.integers(0, xs.size, size=20)],
                                 rng.uniform(xs[0] - 1, xs[-1] + 1, size=20)])
        edges = [(xs[0] - 5, xs[-1] + 5), (xs[0], xs[-1]), (xs[3], xs[3]),
                 (xs[4], xs[3]), (xs[-1], xs[-1] + 1), (xs[0] - 1, xs[0]),
                 (xs[2], np.nextafter(xs[2], np.inf)), (np.nextafter(xs[2], -np.inf), xs[2])]
        return [tuple(w) for w in np.vstack([inside, knots, mixed])] + edges

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_mask_and_interp_version(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(1e-3, 1.0, size=200))
        ys = rng.standard_normal(200)
        windows = self.windows(xs, rng)
        for a, b in windows:
            assert _piecewise_linear_integral(xs, ys, a, b) == mask_interp_integral(xs, ys, a, b)
        expected = [_piecewise_linear_integral(xs, ys, a, b) for a, b in windows]
        assert nested_window_integrals(xs, ys, windows).tolist() == expected

    @pytest.mark.parametrize("n", [8, 64, 65536])
    def test_matches_on_circle_windows(self, n):
        _, tau_ext, g_ext = circle_samples(u_bubble(300.0, x0=0.2), n)
        rng = np.random.default_rng(n)
        windows = self.windows(tau_ext, rng)
        windows += [(angle_of_x(0.2 + r), angle_of_x(0.2 - r)) for r in (0.4, 0.05, 1e-6)]
        for a, b in windows:
            assert _piecewise_linear_integral(tau_ext, g_ext, a, b) == mask_interp_integral(
                tau_ext, g_ext, a, b
            )
        expected = [_piecewise_linear_integral(tau_ext, g_ext, a, b) for a, b in windows]
        assert nested_window_integrals(tau_ext, g_ext, windows).tolist() == expected

    @pytest.mark.parametrize("n", [1 << 12, 1 << 14])
    @pytest.mark.parametrize("center", [-0.37, 1.9])
    def test_scan_alpha_tables_are_unchanged(self, n, center):
        # the scan sums one cell table per member; the reference integrates
        # every radius on its own, one trapezoid over window_samples each
        members = [quant.bubble(mu=2.0**k, x0=center) for k in range(8)]
        radii = [0.4, 0.2, 0.1, 0.05, 1e-3]
        [prof] = quant.concentration_scan(members, radii=radii, centers=[center], n=n)
        arcs = [(angle_of_x(center + r), angle_of_x(center - r)) for r in radii]
        widest = (min(ta for ta, _ in arcs), max(tb for _, tb in arcs))
        ref = np.empty((len(radii), len(members)))
        for j, m in enumerate(members):
            tau, g = window_samples(m.density, n, *widest)
            for i, (ta, tb) in enumerate(arcs):
                ref[i, j] = _piecewise_linear_integral(tau, g, ta, tb)
        assert np.array_equal(prof.alpha, ref)
