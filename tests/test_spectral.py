"""Spectral operator checks: exact coefficient rules, operator algebra,
fundamental-solution coefficients against quadrature and closed-form oracles.
"""

import ast
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from liouville_disk import spectral
from liouville_disk.errors import BandLimitWarning, InvalidInput, InvalidRadius
from liouville_disk.spectral import (
    PeriodicGrid,
    SingularField,
    SpectralRep,
    analyze,
    band_limit_guard,
    circle_trapezoid,
    eval_modes,
    grid_angles,
    half_laplacian,
    hilbert,
    log_profile,
    poisson_extend,
    singular_half_laplacian,
)

TWO_PI = 2 * np.pi


class TestGridAngles:
    @pytest.mark.parametrize("n", [8, 12, 256, 65536, 131072])
    def test_cached_table_equals_the_formula(self, n):
        fresh = 2.0 * np.pi * np.arange(n) / n - np.pi
        th = grid_angles(n)
        assert th.dtype == fresh.dtype and th.tobytes() == fresh.tobytes()
        assert grid_angles(n) is th

    def test_writing_into_the_table_raises(self):
        th = grid_angles(256)
        with pytest.raises(ValueError):
            th[0] = 0.0
        with pytest.raises(ValueError):
            th += 1.0
        assert grid_angles(256)[0] == -np.pi


def synthesize(s: SpectralRep) -> PeriodicGrid:
    """Inverse of analyze; returns a real grid when the imaginary part is
    at most 1e-12 of the real part's size."""
    c = np.fft.ifftshift(s.coeffs)  # a new array, position k holding mode k mod n
    c[1::2] *= -1
    vals = np.fft.ifft(c) * s.n
    if np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, np.max(np.abs(vals.real))):
        vals = vals.real
    return PeriodicGrid(vals)


def mode(s: SpectralRep, m: int):
    """The coefficient u_hat(m) of an ascending spectrum."""
    return s.coeffs[m + s.n // 2]


def derivative(g: PeriodicGrid) -> PeriodicGrid:
    """d/dtheta, multiplier i*m with the Nyquist mode zeroed, by the
    module's multiplier route."""
    s = spectral.real_half_spectrum(g)
    band_limit_guard(g, s=s)
    m = spectral._multiplier_modes(g).astype(float)
    m[-1] = 0.0  # the Nyquist mode
    return spectral._apply_multiplier(g, 1j * m, s)


def evaluate(sf: SingularField, thetas) -> np.ndarray:
    """A field's value at arbitrary angles: its smooth part by
    trigonometric interpolation plus c * log_profile of every anchor."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    out = eval_modes(spectral.one_sided(spectral.real_half_spectrum(sf.smooth)), thetas).real
    for theta0, c in sf.anchors:
        out = out + c * log_profile(thetas, theta0)
    return out


def random_bandlimited(n, seed, kmax=None, complex_=False):
    """Random trigonometric polynomial with modes up to kmax (default n/8)."""
    rng = np.random.default_rng(seed)
    kmax = kmax or n // 8
    c = np.zeros(n, dtype=complex)
    m = np.arange(-n // 2, n // 2)
    for k in range(1, kmax + 1):
        a = rng.normal() + 1j * rng.normal()
        c[m == k] = a
        c[m == -k] = np.conj(a) if not complex_ else rng.normal() + 1j * rng.normal()
    c[m == 0] = rng.normal()
    return synthesize(SpectralRep(c))


class TestAnalyzeSynthesize:
    def test_cosine_coefficients(self):
        g = PeriodicGrid(np.cos(grid_angles(256)))
        s = analyze(g)
        assert abs(mode(s, 1) - 0.5) < 1e-14
        assert abs(mode(s, -1) - 0.5) < 1e-14
        rest = s.coeffs.copy()
        rest[[128 - 1, 128 + 1]] = 0  # modes -1 and 1 of -128 .. 127
        assert np.max(np.abs(rest)) < 1e-14

    def test_constant(self):
        g = PeriodicGrid(np.full(64, 3.0))
        s = analyze(g)
        assert abs(mode(s, 0) - 3.0) < 1e-14
        assert np.max(np.abs(np.delete(s.coeffs, 32))) < 1e-14  # all but mode 0

    def test_roundtrip(self):
        g = random_bandlimited(256, seed=7, kmax=100)
        back = synthesize(analyze(g))
        assert np.max(np.abs(back.values - g.values)) < 1e-12 * np.max(np.abs(g.values))

    def test_real_input_conjugate_symmetry(self):
        g = random_bandlimited(128, seed=3)
        s = analyze(g)
        for m in range(1, 64):
            assert abs(mode(s, -m) - np.conj(mode(s, m))) < 1e-13

    def test_parseval(self):
        g = random_bandlimited(256, seed=11, kmax=100)
        s = analyze(g)
        lhs = np.mean(np.abs(g.values) ** 2)
        rhs = np.sum(np.abs(s.coeffs) ** 2)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_nonfinite_rejected(self):
        vals = np.ones(16)
        vals[3] = np.nan
        with pytest.raises(InvalidInput):
            PeriodicGrid(vals)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidInput):
            PeriodicGrid(np.ones(12))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        g = random_bandlimited(64, seed=seed, kmax=31)
        back = synthesize(analyze(g))
        scale = max(1.0, np.max(np.abs(g.values)))
        assert np.max(np.abs(back.values - g.values)) < 1e-12 * scale

    def test_log_singularity_coefficients_point_sampled(self):
        # samples of the fundamental-solution profile, singularity dodged by a
        # half-sample shift; closed-form series gives u_hat(m) = 1/(2 pi |m|).
        # Aliasing of the 1/|m| tail limits point sampling to ~1e-3 at low m.
        n = 2048
        h = TWO_PI / n
        th = grid_angles(n) + h / 2
        g = PeriodicGrid(log_profile(th, 0.0))
        s = analyze(g)
        for m in range(1, 9):
            est = abs(mode(s, m))
            assert abs(m * est - 1 / TWO_PI) < 1e-3
        # aliasing of the 1/|m| tail grows toward m = n/8 (about 18% there,
        # independent of n); 20% is the honest point-sampled bound
        for m in range(1, n // 8 + 1):
            est = abs(mode(s, m))
            assert abs(m * est - 1 / TWO_PI) < 0.20 * (1 / TWO_PI)

    def test_log_singularity_coefficients_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the Fourier integral
        def coeff(m):
            re, _ = quad(
                lambda t: log_profile(t, 0.0) * np.cos(m * t),
                0.0,
                np.pi,
                points=[0.0],
                limit=200,
            )
            return 2 * re / TWO_PI  # even integrand, imaginary part vanishes

        for m in (1, 2, 5, 16):
            assert abs(coeff(m) - 1 / (TWO_PI * m)) < 1e-9

    def test_json_roundtrip(self):
        g = random_bandlimited(64, seed=1)
        g2 = PeriodicGrid.from_json(g.to_json())
        assert np.max(np.abs(g2.values - g.values)) < 1e-15


def power_phase_analyze(g):
    """analyze with the half-period phase as a (-1.0)**m power array.

    A complex grid takes the full FFT.  A real grid takes the spectrum that
    analyze builds, modes 0 .. n/2 of np.fft.rfft with real mean and Nyquist
    entries, mirrored by conjugation, so that the comparison checks the sign
    flip and not which transform produced the spectrum (the agreement of the
    two transforms is test_real_analyze_matches_the_complex_fft)."""
    n = g.n
    m = np.arange(-n // 2, n // 2)
    if not g.is_real:
        return np.fft.fftshift(np.fft.fft(g.values)) / n * (-1.0) ** m
    half = np.fft.rfft(g.values) / n
    half.imag[[0, -1]] = 0.0
    c = half[np.abs(m)]
    c[m < 0] = np.conj(c[m < 0])
    return c * (-1.0) ** m


def power_phase_synthesize(s):
    """synthesize before its real-part test, with the (-1.0)**m power array."""
    m = np.arange(-s.n // 2, s.n // 2)
    return np.fft.ifft(np.fft.ifftshift(s.coeffs * (-1.0) ** m)) * s.n


def grid_rows(g):
    """The real rows of a grid: its values, or its real and imaginary parts."""
    return g.values if g.is_real else np.stack((g.values.real, g.values.imag))


@pytest.mark.parametrize("n", [8, 64, 1024])
@pytest.mark.parametrize("complex_", [False, True])
def test_signs_by_slicing_equal_the_power_phase(n, complex_):
    # analyze's full spectrum, the half spectra of the rows and the irfft
    # route back, against the (-1.0)**m power array; equal value for value:
    # a -0.0 that the power array's factor +1 turned into +0.0 may keep its
    # sign
    m = np.arange(n // 2 + 1)
    for seed in range(5):
        g = random_bandlimited(n, seed=seed, kmax=n // 2 - 1, complex_=complex_)
        assert np.array_equal(analyze(g).coeffs, power_phase_analyze(g))
        half = np.fft.rfft(grid_rows(g)) / n
        half.imag[..., [0, -1]] = 0.0
        half = half * (-1.0) ** m
        assert np.array_equal(spectral.real_half_spectrum(g), half)
        back = np.fft.irfft(half * (-1.0) ** m, n) * n
        out = spectral._apply_multiplier(g, np.ones(m.size))
        assert np.array_equal(out.values, back if g.is_real else back[0] + 1j * back[1])


@pytest.mark.parametrize("n", [8, 64, 1024, 65536])
def test_real_analyze_matches_the_complex_fft(n):
    # the rfft route of a real grid against the complex route of the same
    # samples, and its spectrum is Hermitian bit for bit
    eps = np.finfo(float).eps
    for seed in range(3):
        v = np.random.default_rng(seed).normal(size=n)
        c = analyze(PeriodicGrid(v)).coeffs
        full = analyze(PeriodicGrid(v.astype(complex))).coeffs
        assert np.max(np.abs(c - full)) <= 4 * eps * np.max(np.abs(full))
        assert np.array_equal(c[1 : n // 2], np.conj(c[: n // 2 : -1]))  # c(-m) = conj c(m)
        assert c[0].imag == 0.0 and c[n // 2].imag == 0.0  # Nyquist and mean


def operator_multipliers(n, r=0.7):
    """The module's three operators, with their multipliers on modes
    -n/2 .. n/2 - 1 written out from the module docstring, and the
    derivative with i m, its Nyquist mode zeroed."""
    m = np.arange(-n // 2, n // 2).astype(float)
    odd = m.copy()
    odd[0] = 0.0  # Nyquist zeroed
    return {
        "half_laplacian": (half_laplacian, np.abs(m)),
        "hilbert": (hilbert, -1j * np.sign(odd)),
        "derivative": (derivative, 1j * odd),
        "poisson_extend": (lambda g: poisson_extend(g, r), r ** np.abs(m)),
    }


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_real_multipliers_match_the_complex_inverse(n):
    # irfft of modes 0 .. n/2 against the real part of the full complex
    # inverse transform of the product, within rounding, on white noise so
    # that every mode up to the Nyquist mode takes part
    eps = np.finfo(float).eps
    for seed in range(3):
        g = PeriodicGrid(np.random.default_rng(seed).normal(size=n))
        c = analyze(g).coeffs
        for op, mult in operator_multipliers(n).values():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BandLimitWarning)
                out = op(g)
            expect = power_phase_synthesize(SpectralRep(c * mult)).real
            assert out.is_real
            assert np.max(np.abs(out.values - expect)) <= 8 * eps * np.sum(np.abs(c * mult))


@pytest.mark.parametrize("n", [8, 64, 1024, 16384])
def test_complex_grids_run_the_real_operators_on_two_rows(n):
    # the full complex inverse transform of the product, within rounding,
    # and the operator on the real and imaginary grids apart, bit for bit:
    # the stacked rfft and irfft equal the transforms of each row
    eps = np.finfo(float).eps
    for seed in range(3):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = PeriodicGrid(v)
        c = analyze(g).coeffs
        for op, mult in operator_multipliers(n).values():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BandLimitWarning)
                out = op(g)
                parts = op(PeriodicGrid(v.real)), op(PeriodicGrid(v.imag))
            expect = power_phase_synthesize(SpectralRep(c * mult))
            assert not out.is_real
            assert np.max(np.abs(out.values - expect)) <= 8 * eps * np.sum(np.abs(c * mult))
            assert out.values.real.tobytes() == parts[0].values.tobytes()
            assert out.values.imag.tobytes() == parts[1].values.tobytes()


def test_every_module_multiplier_is_hermitian(monkeypatch):
    # the irfft route is the operator only for mult(-m) = conj mult(m) with a
    # real Nyquist entry, and a complex grid runs it on its two real rows.
    # The operators that call _apply_multiplier are every call site in the
    # module, and each passes the entries the irfft route reads, modes
    # 0 .. n/2 - 1 and then the Nyquist mode, for real and complex grids
    # alike.  The Hilbert transform (shared with disk.analytic_completion)
    # multiplies the plain rfft by -i with no multiplier array, and gives
    # the bits of the multiplier route
    tree = ast.parse(inspect.getsource(spectral))
    callers = {
        fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_apply_multiplier"
    }
    assert callers == {"half_laplacian", "poisson_extend"}
    n = 64
    ops = operator_multipliers(n)
    assert callers < set(ops)
    seen = []
    original = spectral._apply_multiplier
    monkeypatch.setattr(
        spectral, "_apply_multiplier",
        lambda g, mult, s=None: seen.append(np.asarray(mult)) or original(g, mult, s),
    )
    grids = [random_bandlimited(n, seed=1), random_bandlimited(n, seed=1, complex_=True)]
    for op, expect in ops.values():
        assert np.array_equal(expect[1 : n // 2], np.conj(expect[: n // 2 : -1]))
        assert np.imag(expect[0]) == 0.0
        half = np.append(expect[n // 2 :], expect[0])
        for g in grids:
            count = len(seen)
            out = op(g)
            if op is hilbert:
                assert len(seen) == count
                assert np.array_equal(out.values, original(g, half).values)
            else:
                assert np.array_equal(seen[-1], half)


class TestHalfLaplacian:
    def test_single_mode(self):
        th = grid_angles(256)
        g = PeriodicGrid(np.cos(3 * th))
        out = half_laplacian(g)
        assert np.max(np.abs(out.values - 3 * np.cos(3 * th))) < 1e-12

    def test_constant_in_kernel(self):
        out = half_laplacian(PeriodicGrid(np.full(64, 2.5)))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_linearity(self):
        th = grid_angles(128)
        g = PeriodicGrid(np.cos(th) + np.sin(5 * th))
        out = half_laplacian(g)
        expect = np.cos(th) + 5 * np.sin(5 * th)
        assert np.max(np.abs(out.values - expect)) < 1e-12

    def test_zero_mean(self):
        g = random_bandlimited(128, seed=5)
        assert abs(half_laplacian(g).values.mean()) < 1e-12


class TestHilbert:
    def test_cos_to_sin(self):
        th = grid_angles(128)
        for m in (1, 4, 9):
            out = hilbert(PeriodicGrid(np.cos(m * th)))
            assert np.max(np.abs(out.values - np.sin(m * th))) < 1e-12

    def test_constant_to_zero(self):
        out = hilbert(PeriodicGrid(np.full(32, 7.0)))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_involution_minus_mean(self):
        g = random_bandlimited(256, seed=17)
        hh = hilbert(hilbert(g))
        expect = -(g.values - g.values.mean())
        assert np.max(np.abs(hh.values - expect)) < 1e-10

    def test_operator_algebra(self):
        # half-Laplacian = d/dtheta o Hilbert = Hilbert o d/dtheta
        g = random_bandlimited(256, seed=23)
        a = half_laplacian(g).values
        b = derivative(hilbert(g)).values
        c = hilbert(derivative(g)).values
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.max(np.abs(a - c)) < 1e-9


class TestPoisson:
    def test_single_mode_scaling(self):
        th = grid_angles(64)
        out = poisson_extend(PeriodicGrid(np.cos(th)), 0.5)
        assert np.max(np.abs(out.values - 0.5 * np.cos(th))) < 1e-13

    def test_center_value_is_mean(self):
        g = random_bandlimited(128, seed=2)
        out = poisson_extend(g, 0.0)
        assert np.max(np.abs(out.values - g.values.mean())) < 1e-13

    def test_invalid_radius(self):
        g = PeriodicGrid(np.zeros(32))
        with pytest.raises(InvalidRadius):
            poisson_extend(g, 1.0)

    def test_radial_derivative_matches_half_laplacian(self):
        # extension of cos(2 theta) is r^2 cos(2 theta): the one-sided
        # 3-point difference in r is exact for the quadratic
        th = grid_angles(128)
        g = PeriodicGrid(np.cos(2 * th))
        h = 1e-3
        u1 = poisson_extend(g, 1 - h).values
        u2 = poisson_extend(g, 1 - 2 * h).values
        u0 = g.values
        dr = (3 * u0 - 4 * u1 + u2) / (2 * h)
        assert np.max(np.abs(dr - half_laplacian(g).values)) < 1e-9


def green_convolve(f: PeriodicGrid) -> PeriodicGrid:
    """The reference inverse of half_laplacian on the zero-mean subspace:
    u_hat(m) = f_hat(m)/|m| with u_hat(0) = 0, whatever the mean of f."""
    m = spectral._multiplier_modes(f).astype(float)
    inv = np.zeros_like(m)
    nz = m != 0
    inv[nz] = 1.0 / np.abs(m[nz])
    return spectral._apply_multiplier(f, inv)


class TestGreenConvolve:
    def test_fixed_point(self):
        g = PeriodicGrid(np.cos(grid_angles(64)))
        out = green_convolve(g)
        assert np.max(np.abs(out.values - g.values)) < 1e-13

    def test_quarter_mode(self):
        th = grid_angles(64)
        out = green_convolve(PeriodicGrid(np.cos(4 * th)))
        assert np.max(np.abs(out.values - np.cos(4 * th) / 4)) < 1e-13

    def test_inverse_pair(self):
        g = random_bandlimited(256, seed=31)
        g = g - g.values.mean()
        back = half_laplacian(green_convolve(g))
        assert np.max(np.abs(back.values - g.values)) < 1e-9
        fwd = green_convolve(half_laplacian(g))
        assert np.max(np.abs(fwd.values - g.values)) < 1e-9

    def test_identity_minus_mean(self):
        g = random_bandlimited(128, seed=37)
        out = green_convolve(half_laplacian(g))
        expect = g.values - g.values.mean()
        assert np.max(np.abs(out.values - expect)) < 1e-9


def _int_log2sin_0_to(a):
    # integral of log(2 sin(t/2)) on [0, a], 0 < a <= pi; endpoint log split off
    x, w = leggauss(16)
    t = 0.5 * a * (x + 1.0)
    smooth = np.log(2.0 * np.sin(t / 2.0) / t)
    return a * np.log(a) - a + 0.5 * a * float(w @ smooth)


def _log2sin_antiderivative(x):
    return 0.0 if x == 0.0 else np.sign(x) * _int_log2sin_0_to(abs(x))


def log_profile_cell_integral(a, b, theta0=0.0):
    """Integral of the log profile over [a, b], b - a <= 2 pi, in closed form
    plus a Gauss rule for the smooth factor."""
    lo = (a - theta0 + np.pi) % TWO_PI - np.pi  # the window starts in [-pi, pi)
    hi = lo + (b - a)
    if hi <= np.pi:
        val = _log2sin_antiderivative(hi) - _log2sin_antiderivative(lo)
    else:  # split at the wrap
        val = (_log2sin_antiderivative(np.pi) - _log2sin_antiderivative(lo)) + (
            _log2sin_antiderivative(hi - TWO_PI) - _log2sin_antiderivative(-np.pi)
        )
    # log(2(1-cos t)) = 2 log(2 sin(|t|/2)); the profile carries -(1/2pi)
    return -val / np.pi


def cell_averaged_log_profile(n, theta0=0.0):
    """Cell averages of the log profile over the n grid cells: sampling data
    whose spectrum is the profile's times the box window."""
    h = TWO_PI / n
    return PeriodicGrid(np.array(
        [log_profile_cell_integral(t - h / 2, t + h / 2, theta0) / h for t in grid_angles(n)]
    ))


class TestCellIntegratedProfile:
    def test_coefficients_tighten_to_1e5(self):
        # cell-integrated sampling deconvolved by the box window recovers
        # |m| G_hat(m) = 1/2pi to 1e-5 (aliasing now falls off one order faster)
        n = 2048
        g = cell_averaged_log_profile(n)
        s = analyze(g)
        m = np.arange(1, 33)
        h = TWO_PI / n
        for mm in m:
            arg = mm * h / 2
            window = np.sin(arg) / arg
            est = mode(s, int(mm)).real / window
            assert abs(mm * est - 1 / TWO_PI) < 1e-5

    def test_profile_has_zero_mean(self):
        g = cell_averaged_log_profile(512)
        assert abs(circle_trapezoid(g)) < 1e-12


class TestSingularField:
    @pytest.mark.parametrize("anchors", [(), ((0.5, 2.0),)])
    def test_complex_smooth_part_is_invalid(self, anchors):
        # fields carry real boundary data, lambda = log|Phi'|
        g = PeriodicGrid(np.exp(1j * grid_angles(64)))
        with pytest.raises(InvalidInput, match="real"):
            SingularField(g, anchors)
        with pytest.raises(InvalidInput):
            SingularField(np.cos(grid_angles(64)), anchors)

    def test_dirac_at_origin(self):
        sf = SingularField(PeriodicGrid(np.zeros(64)), ((0.0, 1.0),))
        smooth, masses = singular_half_laplacian(sf)
        assert np.max(np.abs(smooth.values + 1 / TWO_PI)) < 1e-13
        assert masses == [(0.0, 1.0)]

    def test_pure_smooth(self):
        sf = SingularField(PeriodicGrid(np.cos(grid_angles(64))))
        smooth, masses = singular_half_laplacian(sf)
        assert np.max(np.abs(smooth.values - np.cos(grid_angles(64)))) < 1e-12
        assert masses == []

    def test_translated_anchor(self):
        beta = 0.7
        sf = SingularField(PeriodicGrid(np.zeros(64)), ((-np.pi / 2, beta),))
        smooth, masses = singular_half_laplacian(sf)
        assert np.max(np.abs(smooth.values + beta / TWO_PI)) < 1e-13
        assert masses == [(-np.pi / 2, beta)]

    def test_evaluate_matches_split(self):
        n = 128
        th = np.array([0.3, 1.1, -2.0])
        sf = SingularField(PeriodicGrid(np.cos(grid_angles(n))), ((0.5, 2.0),))
        expect = np.cos(th) + 2.0 * log_profile(th, 0.5)
        assert np.max(np.abs(evaluate(sf, th) - expect)) < 1e-10

    def test_close_anchors_warn(self):
        n = 64
        h = TWO_PI / n
        with pytest.warns(UserWarning, match="2 grid cells"):
            SingularField(PeriodicGrid(np.zeros(n)), ((0.0, 1.0), (0.5 * h, 1.0)))

    def test_band_limit_guard_warns(self):
        th = grid_angles(64)
        rough = PeriodicGrid(np.cos(31 * th))
        with pytest.warns(UserWarning, match="spectrum"):
            band_limit_guard(rough)


def value_cases():
    """(a, b, c): a and b equal but distinct objects, c unequal to both."""
    th = grid_angles(64)
    v = np.cos(th) + 0.5 * np.sin(3 * th)
    sf = SingularField(PeriodicGrid(v), ((0.5, 2.0),))
    return [
        (PeriodicGrid(v), PeriodicGrid(v.copy()), PeriodicGrid(v + 1e-15)),
        (PeriodicGrid(np.zeros(8)), PeriodicGrid(-np.zeros(8)), PeriodicGrid(np.zeros(8, dtype=complex))),
        (analyze(PeriodicGrid(v)), analyze(PeriodicGrid(v.copy())), analyze(PeriodicGrid(np.sin(th)))),
        (sf, SingularField(PeriodicGrid(v.copy()), ((0.5, 2.0),)), SingularField(PeriodicGrid(v), ((0.5, 2.5),))),
        (sf, SingularField(PeriodicGrid(v.copy()), ((0.5, 2.0),)), SingularField(PeriodicGrid(-v), ((0.5, 2.0),))),
    ]


@pytest.mark.parametrize("case", range(5))
def test_equal_values_compare_and_hash_alike(case):
    a, b, c = value_cases()[case]
    assert a is not b and a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != c and b != c
    assert len({a, b, c}) == 2
    assert a != a.__class__.__name__


@pytest.mark.parametrize("op", [half_laplacian, hilbert, derivative])
def test_multiplier_operator_transforms_once(monkeypatch, op):
    # the band-limit guard reads the coefficients the multiplier is applied
    # to: one forward real transform, of a real grid's values or of a
    # complex grid's two rows at once
    grids = [random_bandlimited(64, seed=3), random_bandlimited(64, seed=3, kmax=20, complex_=True)]
    calls = []
    for name in ("fft", "rfft"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, _f=original, _n=name, **kw:
                            calls.append(_n) or _f(a, *args, **kw))
    for g in grids:
        op(g)
    assert calls == ["rfft", "rfft"]


@pytest.mark.parametrize("op", [half_laplacian, hilbert, derivative])
def test_band_limit_warning_points_at_the_caller(op):
    rough = PeriodicGrid(np.cos(31 * grid_angles(64)))
    with pytest.warns(BandLimitWarning, match="spectrum") as record:
        op(rough)
    assert record[0].filename == __file__


@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-7])
def test_log_profile_keeps_relative_accuracy_near_the_anchor(d):
    # series of -(1/pi) log(2 sin(d/2)); 1 - cos d cancels at small d
    ref = -(np.log(d) - d * d / 24.0) / np.pi
    assert abs(log_profile(d, 0.0) - ref) <= 1e-14 * abs(ref)


def test_log_profile_is_infinite_on_the_anchor():
    th = np.array([0.0, TWO_PI, -TWO_PI, 2 * TWO_PI])
    assert np.all(log_profile(th, 0.0) == np.inf)
    assert np.isfinite(log_profile(1e-9, 0.0))


def pv_half_laplacian_circle(u, theta: float, eps_ladder=(1e-2, 5e-3, 2.5e-3)) -> float:
    """Principal-value half-Laplacian on the circle at one angle.

    (1/pi) PV of (u(theta) - u(t)) / (2 - 2 cos(theta - t)); cross-validation
    oracle for the Fourier-multiplier route (its discrete convergence for
    rough data is unspecified).  Symmetric pairing around the singularity
    plus two Richardson stages in the excision radius.
    """
    u0 = float(u(theta))

    def sym(t):
        return (2 * u0 - float(u(theta + t)) - float(u(theta - t))) / (2 - 2 * np.cos(t))

    vals = []
    for e in eps_ladder:
        v, _ = quad(sym, e, np.pi, limit=200, epsabs=1e-12, epsrel=1e-12)
        vals.append(v / np.pi)
    r1a = 2 * vals[1] - vals[0]
    r1b = 2 * vals[2] - vals[1]
    return (8 * r1b - r1a) / 7.0


def test_pv_circle_oracle_agrees_with_multiplier_route():
    # the principal-value definition agrees with the Fourier route on smooth
    # data; the PV side is the independent oracle
    def u(t):
        return np.cos(3 * t) + 0.5 * np.sin(2 * t)

    for theta in (0.0, 0.7, -2.1):
        pv = pv_half_laplacian_circle(u, theta)
        spectral_value = 3 * np.cos(3 * theta) + np.sin(2 * theta)
        assert abs(pv - spectral_value) < 1e-7


def test_eval_modes_interpolates():
    # a real grid's interpolant is the real part of the sum over its
    # one-sided half spectrum, and it passes through the samples
    g = random_bandlimited(64, seed=41, kmax=8)
    s = analyze(g)
    row = spectral.one_sided(spectral.real_half_spectrum(g))
    th = np.linspace(-np.pi, np.pi, 11)
    direct = eval_modes(row, th).real
    # reference: explicit mode sum over the full spectrum
    ref = sum(mode(s, m) * np.exp(1j * m * th) for m in range(-32, 32))
    assert np.max(np.abs(direct - ref)) < 1e-12
    assert np.max(np.abs(eval_modes(row, g.thetas).real - g.values)) < 1e-12


# --- eval_modes against the direct mode sum ---------------------------------


def direct_mode_sum(c, thetas):
    """The full (modes x nodes) exponential matrix times the coefficient
    row, or rows."""
    return c @ np.exp(1j * np.outer(np.arange(c.shape[-1]), thetas))


def longdouble_mode_sum(c, thetas, block=64):
    """The same sum with phases, exponentials and products in clongdouble."""
    k = np.arange(c.shape[-1]).astype(np.longdouble)
    c = c.astype(np.clongdouble)
    out = np.empty(c.shape[:-1] + thetas.shape, dtype=np.clongdouble)
    for i in range(0, thetas.size, block):
        t = thetas[i : i + block].astype(np.longdouble)
        out[..., i : i + block] = c @ np.exp(1j * np.outer(k, t))
    return out


def random_row(n, seed):
    """A random one-sided coefficient row of n modes."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


EVAL_SIZES = (8, 16, 64, 512, 2048, 8192)


@pytest.mark.parametrize("n", EVAL_SIZES)
@pytest.mark.parametrize("nodes", [0, 1, 96, 4096])
def test_eval_modes_matches_the_exact_mode_sum(n, nodes):
    row = random_row(n, seed=n + nodes)
    th = np.random.default_rng(nodes).uniform(-np.pi / 2 - 0.1, 1.5 * np.pi, nodes)
    got = eval_modes(row, th)
    assert got.shape == (nodes,) and got.dtype == complex
    tol = 1e-13 * np.sum(np.abs(row))
    # the long-double oracle on at most 256 of the nodes keeps the test fast
    pick = slice(None, None, max(1, nodes // 256))
    assert np.all(np.abs(got[pick] - longdouble_mode_sum(row, th[pick])) <= tol)
    for i in range(0, nodes, 256):
        assert np.all(np.abs(got[i : i + 256] - direct_mode_sum(row, th[i : i + 256])) <= tol)


@pytest.mark.parametrize("n", EVAL_SIZES)
def test_eval_modes_sums_a_stack_of_rows(n):
    # two rows, the second zero-padded from n/2 modes, share one call
    rows = np.zeros((2, n), dtype=complex)
    rows[0] = random_row(n, seed=n)
    rows[1, : n // 2] = random_row(n // 2, seed=n + 1)
    th = np.random.default_rng(n).uniform(-np.pi / 2 - 0.1, 1.5 * np.pi, 200)
    got = eval_modes(rows, th)
    assert got.shape == (2, th.size) and got.dtype == complex
    ref = longdouble_mode_sum(rows, th)
    for k in range(2):
        assert np.all(np.abs(got[k] - ref[k]) <= 1e-13 * np.sum(np.abs(rows[k])))
        assert np.all(np.abs(got[k] - eval_modes(rows[k], th)) <= 1e-13 * np.sum(np.abs(rows[k])))


@pytest.mark.parametrize("n", EVAL_SIZES)
def test_eval_modes_far_from_the_base_period(n):
    row = random_row(n, seed=n)
    th = np.array([20 * np.pi, -20 * np.pi, 20 * np.pi + 0.3, -20 * np.pi - 1.7])
    got = eval_modes(row, th)
    # any double evaluation rounds the phases k theta, by up to |k theta| ulp,
    # so the bound of the base period [-pi/2 - 0.1, 3 pi/2] grows with |theta|
    tol = 1e-13 * np.sum(np.abs(row)) * np.abs(th) / (1.5 * np.pi)
    assert np.all(np.abs(got - longdouble_mode_sum(row, th)) <= tol)


def test_eval_modes_takes_a_scalar():
    row = random_row(64, seed=5)
    got = eval_modes(row, 0.7)
    assert got.shape == (1,)
    assert got[0] == eval_modes(row, np.array([0.7]))[0]


def test_eval_modes_memory_grows_with_sqrt_n():
    # the full 256 x 8192 complex exponential matrix alone is 32 MB
    row = random_row(8192, seed=3)
    th = np.random.default_rng(3).uniform(-np.pi, np.pi, 256)
    tracemalloc.start()
    try:
        eval_modes(row, th)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- half spectra of real grids against the full mirrored spectrum -----------

def full_spectrum_band_limit_fraction(g, s=None):
    """band_limit_fraction summing |u_hat(m)|^2 over all n modes of
    analyze's spectrum, the mirrored negative half included."""
    c = (analyze(g) if s is None else s).coeffs
    m = np.abs(np.arange(-g.n // 2, g.n // 2))
    cutoff = (1.0 - spectral.BAND_LIMIT_TOP) * (g.n // 2)
    total = np.sum(np.abs(c[m > 0]) ** 2)
    if total <= g.n * (1e-13 * max(1.0, float(np.max(np.abs(g.values))))) ** 2:
        return 0.0
    return float(np.sum(np.abs(c[m >= cutoff]) ** 2) / total)


def two_mode_grid(n, frac, top):
    """cos(theta) plus a mode `top` whose share of the oscillatory energy is
    frac (the Nyquist mode n/2 is a single mode, every other one a pair)."""
    th = grid_angles(n)
    share = 1.0 if top == n // 2 else 0.5
    b = np.sqrt(0.5 * frac / ((1.0 - frac) * share))
    return PeriodicGrid(np.cos(th) + b * np.cos(top * th))


def real_grid_cases():
    """Band-limited, white noise, top-heavy, rounding-floor and near-threshold
    real grids."""
    cases = []
    for n in (8, 16, 64, 1024, 65536):
        rng = np.random.default_rng(n)
        cases += [
            random_bandlimited(n, seed=n),
            PeriodicGrid(rng.normal(size=n)),
            PeriodicGrid(rng.normal(size=n) * np.cos(0.5 * n * grid_angles(n))),
            PeriodicGrid(np.full(n, 3.0)),
            PeriodicGrid(np.full(n, 3.0) + 1e-15 * rng.normal(size=n)),
            PeriodicGrid(np.zeros(n)),
        ]
        for top in (n // 2 - 1, n // 2):
            for frac in spectral.BAND_LIMIT_ENERGY * np.array([1 - 1e-9, 1 + 1e-9, 0.5, 2.0]):
                cases.append(two_mode_grid(n, frac, top))
    return cases


def test_half_spectrum_is_the_nonnegative_half_of_analyze():
    for g in real_grid_cases():
        c = analyze(g).coeffs
        assert np.array_equal(spectral.real_half_spectrum(g), np.append(c[g.n // 2 :], c[0]))


def test_band_limit_fraction_matches_the_full_spectrum():
    for g in real_grid_cases():
        ref = full_spectrum_band_limit_fraction(g)
        got = spectral.band_limit_fraction(g)
        assert abs(got - ref) <= 1e-13 * ref
        assert spectral.band_limit_fraction(g, spectral.real_half_spectrum(g)) == got
    for seed in range(3):
        # the energies of a complex grid's two rows add up to the full sum
        g = random_bandlimited(64, seed=seed, kmax=31, complex_=True)
        ref = full_spectrum_band_limit_fraction(g)
        assert abs(spectral.band_limit_fraction(g) - ref) <= 1e-13 * ref


def test_band_limit_guards_decide_as_the_full_spectrum():
    from liouville_disk.disk import analytic_completion
    from liouville_disk.errors import UnderResolved

    decided = set()
    for g in real_grid_cases():
        trips = full_spectrum_band_limit_fraction(g) > spectral.BAND_LIMIT_ENERGY
        decided.add(trips)
        for op in (half_laplacian, hilbert, derivative):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                op(g)
            assert any(issubclass(w.category, BandLimitWarning) for w in caught) is trips
        try:
            analytic_completion(g)
            raised = False
        except UnderResolved:
            raised = True
        assert raised is trips
    assert decided == {False, True}
