"""Quadrature of anchored traces against brute force and closed forms.

integrate_exp_singular and the anchored boundary_polyline both sum the cell
integrals of spectral.singular_cell_integrals on real half spectra: regular
Gauss cells through eval_shifted_grids (one irfft per offset),
anchor-adjacent cells through the fixed Gauss-Jacobi rules of
spectral.singular_cell_rule and one eval_modes call on the stacked
one-sided rows.  The oracles kept here are per-cell loops: one full-spectrum
mode sum per cell at its 10 Gauss nodes, and each anchor-adjacent cell
handed to adaptive QUADPACK quadrature (QAWS, with the algebraic endpoint
weight split off); the complex-spectrum path (mirrored spectrum, complex
inverse FFTs, complex sums over the full Hermitian spectrum) is kept as the
oracle of the half-spectrum path.  A pure anchor has closed forms for both
Lambda and the boundary curve.
"""

import warnings
from math import gamma

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from liouville_disk import spectral
from liouville_disk.disk import analytic_completion, boundary_polyline
from liouville_disk.line import POLE_ANGLE, integrate_exp_singular
from liouville_disk.spectral import (
    PeriodicGrid,
    SingularField,
    analyze,
    conjugate_profile,
    eval_modes,
    eval_shifted_grids,
    grid_angles,
    log_profile,
    one_sided,
)

TWO_PI = 2 * np.pi
GL_X, GL_W = leggauss(10)


# --- brute-force oracle: one full-spectrum mode sum per cell -------------------

def full_mode_sum(s, thetas):
    """The complex sum of u_hat(m) e^{i m theta} over the modes
    -n/2 .. n/2 - 1 of a SpectralRep, by the full exponential matrix."""
    m = np.arange(-s.n // 2, s.n // 2)
    return np.exp(1j * np.outer(np.atleast_1d(thetas), m)) @ s.coeffs


def _oracle_quad(f, a, b, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        re, _ = quad(lambda t: np.real(f(t)), a, b, limit=200, **kw)
        im, _ = quad(lambda t: np.imag(f(t)), a, b, limit=200, **kw)
    return re + 1j * im


def _oracle_weighted(g, a, b, t0, s):
    def stable(t):
        d = abs(t - t0)
        ratio = 1.0 - d * d / 24.0 if d < 1e-6 else 2.0 * np.sin(d / 2.0) / d
        return g(t) * ratio**s

    wvar = (s, 0.0) if abs(a - t0) < 1e-13 else (0.0, s)
    return _oracle_quad(stable, a, b, weight="alg", wvar=wvar)


def _oracle_singular_cell(g_left, g_right, full, lo, hi, t0, s):
    if lo < t0 < hi:
        return _oracle_weighted(g_left, lo, t0, t0, s) + _oracle_weighted(g_right, t0, hi, t0, s)
    if abs(hi - t0) < 1e-12:
        return _oracle_weighted(g_left, lo, hi, t0, s)
    if abs(lo - t0) < 1e-12:
        return _oracle_weighted(g_right, lo, hi, t0, s)
    return _oracle_quad(full, lo, hi)


def oracle_integrate_exp_singular(field, extra=None):
    n = field.n
    h = TWO_PI / n
    th = grid_angles(n)
    spec = analyze(field.smooth)
    extra_spec = analyze(PeriodicGrid(extra)) if extra is not None else None

    def integrand(t, skip=None):
        t = np.atleast_1d(t)
        lam = full_mode_sum(spec, t).real
        for t0, c in field.anchors:
            if t0 != skip:
                lam = lam + c * log_profile(t, t0)
        out = np.exp(lam)
        if extra_spec is not None:
            out = out * full_mode_sum(extra_spec, t).real
        return out

    total = 0.0
    for j in range(n):
        lo, hi = th[j] - h / 2, th[j] + h / 2
        mid = 0.5 * (lo + hi)
        near = [(t0, c) for t0, c in field.anchors
                if abs((mid - t0 + np.pi) % TWO_PI - np.pi) <= 2.5 * h]
        if not near:
            tt = 0.5 * (hi - lo) * (GL_X + 1.0) + lo
            total += 0.5 * (hi - lo) * float(GL_W @ integrand(tt))
            continue
        t0, c = near[0]
        t0_local = t0 + TWO_PI * np.round((mid - t0) / TWO_PI)
        s = -c / np.pi
        smooth = lambda t, _t0=t0: float(integrand(t, skip=_t0)[0])
        full = lambda t, _t0=t0_local: smooth(t) * (2.0 * np.sin(abs(t - _t0) / 2.0)) ** s
        total += _oracle_singular_cell(smooth, smooth, full, lo, hi, t0_local, s).real
    return total


def oracle_polyline_vertices(bt, n):
    th = grid_angles(n)
    h = TWO_PI / n
    lam_spec = analyze(bt.lam.smooth)
    rho_spec = analyze(bt.rho_smooth)

    def dphi(t, skip=None, side=+1):
        tt = np.atleast_1d(t)
        lam = full_mode_sum(lam_spec, tt).real
        rho = full_mode_sum(rho_spec, tt).real
        for t0, c in bt.anchors:
            if t0 == skip:
                phi_arg = (tt - t0) % TWO_PI
                phi_arg = np.where((side < 0) & (phi_arg == 0.0), TWO_PI, phi_arg)
                rho = rho + c * (np.pi - phi_arg) / TWO_PI
            else:
                lam = lam + c * log_profile(tt, t0)
                rho = rho + c * conjugate_profile(tt, t0)
        return 1j * np.exp(1j * tt) * np.exp(lam + 1j * rho)

    increments = np.empty(n, dtype=complex)
    for j in range(n):
        a, b = th[j], th[j] + h
        mid = 0.5 * (a + b)
        hit = None
        for t0, c in bt.anchors:
            local = t0 + TWO_PI * np.round((mid - t0) / TWO_PI)
            if min(abs(a - local), abs(b - local), abs(mid - local)) <= 2.0 * h + 1e-12:
                hit = (t0, local, c)
                break
        if hit is None:
            tt = 0.5 * (b - a) * (GL_X + 1.0) + a
            increments[j] = 0.5 * (b - a) * complex(GL_W @ dphi(tt))
            continue
        t0, local, c = hit
        increments[j] = _oracle_singular_cell(
            lambda t, _t0=t0: complex(dphi(t, _t0, -1)[0]),
            lambda t, _t0=t0: complex(dphi(t, _t0, +1)[0]),
            lambda t: complex(dphi(t)[0]),
            a, b, local, -c / np.pi,
        )
    verts = np.cumsum(np.concatenate([[0.0], increments]))[:-1]
    return verts - verts[n // 2]


# --- inputs -------------------------------------------------------------------

def off_grid_angle(n):
    # 0.37 of a cell past the grid point pi/4, the same place in its cell at
    # every n
    return np.pi / 4 + 0.37 * TWO_PI / n


def two_anchor_field(n):
    """Corner defect at the grid point -i plus a weaker anchor between grid
    points, on a nonzero smooth part."""
    th = grid_angles(n)
    smooth = 0.1 * np.cos(th) - 0.05 * np.sin(2 * th) + 0.03 * np.cos(3 * th)
    return SingularField(PeriodicGrid(smooth), ((POLE_ANGLE, 0.6 * np.pi), (off_grid_angle(n), 0.4)))


def curvature_extra(n):
    th = grid_angles(n)
    return 1.0 + 0.2 * np.sin(th) - 0.1 * np.cos(2 * th)


# --- tests --------------------------------------------------------------------

def complex_shifted_grids(s, offsets, n=None):
    """The complex-spectrum shifted grids: one complex inverse FFT per offset
    of u_hat(m) (-1)^m e^{i m delta_k} over all n modes of a SpectralRep,
    folded into the bins m mod n."""
    size = s.n if n is None else n
    m = np.arange(-s.n // 2, s.n // 2)
    shifted = (s.coeffs * (-1.0) ** m) * np.exp(1j * np.outer(offsets, m))
    folded = np.zeros((len(offsets), size), dtype=complex)
    for start in range(0, s.n, size):
        folded[:, m[start : start + size] % size] += shifted[:, start : start + size]
    return np.fft.ifft(folded, axis=-1) * size


def mirrored(half):
    """The full spectrum of a real grid from its half (analyze's mirror)."""
    return spectral.SpectralRep(np.concatenate((half[-1:], np.conj(half[-2:0:-1]), half[:-1])))


def real_test_grid(n, seed, nyquist=0.0):
    """Decaying random real grid of n points plus a Nyquist mode of the given
    amplitude."""
    rng = np.random.default_rng(seed)
    th = grid_angles(n)
    vals = sum((rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)) / (1.0 + k)
               for k in range(n // 2))
    return PeriodicGrid(vals + rng.normal() + nyquist * np.cos(0.5 * n * th))


def test_shifted_grids_match_eval_modes():
    rng = np.random.default_rng(5)
    for n in (16, 64, 256):
        g = real_test_grid(n, seed=n, nyquist=0.3)
        half = spectral.real_half_spectrum(g)
        offsets = rng.uniform(-TWO_PI, TWO_PI, size=7)
        rows = eval_shifted_grids(half, offsets)
        assert rows.shape == (7, n) and rows.dtype == float
        th = grid_angles(n)
        for k, delta in enumerate(offsets):
            ref = full_mode_sum(analyze(g), th + delta).real
            assert np.max(np.abs(rows[k] - ref)) < 1e-12 * np.max(np.abs(ref))
            got = eval_modes(one_sided(half), th + delta).real
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_eval_modes_on_a_half_spectrum_is_the_real_part_of_the_full_sum(n):
    # the one-sided sum with weights 1, 2, ..., 2, 1 against the complex sum
    # over the mirrored spectrum, Nyquist mode included; stacked with a
    # coarser grid's row (at least 8 points) zero-padded to n/2 + 1 modes,
    # as the anchored quadrature stacks its specs
    g = real_test_grid(n, seed=3, nyquist=0.5)
    coarse = real_test_grid(max(8, n // 2), seed=4, nyquist=0.5)
    th = np.random.default_rng(n).uniform(-10.0, 10.0, size=33)
    rows = np.zeros((2, n // 2 + 1), dtype=complex)
    for row, grid in zip(rows, (g, coarse)):
        row[: grid.n // 2 + 1] = one_sided(spectral.real_half_spectrum(grid))
    got = eval_modes(rows, th).real
    for k, grid in enumerate((g, coarse)):
        ref = full_mode_sum(analyze(grid), th)
        assert np.max(np.abs(got[k] - ref.real)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("target", [8, 100, 512, 64])
def test_shifted_grids_flip_the_signs_of_the_odd_modes_exactly(target):
    # (-1)^m is a sign flip, so the phased half spectrum matches the power
    # form bit for bit, and so does the irfft of each offset row (folded
    # with the weights 2 on the interior modes when target != 64)
    rng = np.random.default_rng(13)
    n = 64
    half = spectral.real_half_spectrum(real_test_grid(n, seed=13, nyquist=0.2))
    offsets = rng.uniform(-TWO_PI, TWO_PI, size=3)
    m = np.arange(half.size)
    phased = (half * (-1.0) ** m) * np.exp(1j * np.outer(offsets, m))
    if target != n:
        phased[:, 1:-1] *= 2.0
        folded = np.zeros((offsets.size, target), dtype=complex)
        np.add.at(folded, (slice(None), m % target), phased)
        inner = slice(1, (target + 1) // 2)
        phased = folded[:, : target // 2 + 1]
        phased[:, inner] = 0.5 * (phased[:, inner] + np.conj(folded[:, : target // 2 : -1]))
    expect = np.fft.irfft(phased, target, axis=-1, norm="forward")
    assert np.array_equal(eval_shifted_grids(half, offsets, target), expect)


@pytest.mark.parametrize("target", [1, 2, 7, 8, 32, 100, 128, 512])
def test_shifted_grids_on_another_grid_match_eval_modes(target):
    # coarser targets fold aliased modes together, finer ones zero-pad; both
    # must reproduce the real interpolant of the 64-point data exactly, its
    # Nyquist mode a cosine on any target
    rng = np.random.default_rng(11)
    n = 64
    offsets = rng.uniform(-TWO_PI, TWO_PI, size=5)
    th = grid_angles(target)
    for nyquist in (0.0, 0.4):
        g = real_test_grid(n, seed=11, nyquist=nyquist)
        rows = eval_shifted_grids(spectral.real_half_spectrum(g), offsets, target)
        assert rows.shape == (5, target)
        complex_rows = complex_shifted_grids(analyze(g), offsets, target)
        for k, delta in enumerate(offsets):
            ref = full_mode_sum(analyze(g), th + delta)
            assert np.max(np.abs(rows[k] - ref.real)) < 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(rows[k] - complex_rows[k].real)) < 1e-12 * np.max(np.abs(ref))


def hermitian_mode_sum(rows, thetas):
    """The complex sum over the full Hermitian spectrum of each one-sided
    row c: c_0 at mode 0, and c_k / 2 and conj(c_k) / 2 at modes k and -k.
    Its real part is that of the one-sided sum."""
    e = np.exp(1j * np.outer(np.arange(1, rows.shape[-1]), thetas))
    return rows[..., :1] + 0.5 * (rows[..., 1:] @ e + np.conj(rows[..., 1:]) @ np.conj(e))


def complex_spectrum_path(monkeypatch, fn):
    """fn() with the anchored quadrature run on complex spectra, as before
    the half-spectrum path: complex shifted grids of the mirrored spectrum,
    and complex point sums over the full Hermitian spectrum of each row."""
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "eval_shifted_grids",
                   lambda half, offsets, n: complex_shifted_grids(mirrored(half), offsets, n).real)
        mp.setattr(spectral, "eval_modes", hermitian_mode_sum)
        return fn()


def pure_anchor_field(n):
    return SingularField(PeriodicGrid(np.zeros(n)), ((POLE_ANGLE, 0.6 * np.pi),))


@pytest.mark.parametrize("n", [256, 512, 1024])
@pytest.mark.parametrize("make_field", [two_anchor_field, pure_anchor_field])
def test_half_spectrum_quadrature_matches_the_complex_path(monkeypatch, make_field, n):
    sf = make_field(n)
    for extra in (None, curvature_extra(n)):
        val = integrate_exp_singular(sf, extra)
        ref = complex_spectrum_path(monkeypatch, lambda: integrate_exp_singular(sf, extra))
        assert abs(val - ref) <= 1e-13 * abs(ref)
    bt = analytic_completion(sf)
    verts, corners = boundary_polyline(bt, n)
    ref, ref_corners = complex_spectrum_path(monkeypatch, lambda: boundary_polyline(bt, n))
    assert np.max(np.abs(verts - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert sorted(corners) == sorted(ref_corners)


@pytest.mark.parametrize("n", [64, 256])
def test_lambda_matches_per_cell_oracle(n):
    sf = two_anchor_field(n)
    extra = curvature_extra(n)
    val = integrate_exp_singular(sf, extra=extra)
    ref = oracle_integrate_exp_singular(sf, extra=extra)
    assert abs(val - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("n_extra", [128, 512])
def test_lambda_with_extra_on_another_grid_matches_oracle(n_extra):
    # extra is interpolated at the Gauss nodes whatever its own grid size
    sf = two_anchor_field(256)
    extra = curvature_extra(n_extra)
    val = integrate_exp_singular(sf, extra=extra)
    ref = oracle_integrate_exp_singular(sf, extra=extra)
    assert abs(val - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("n", [64, 256])
def test_polyline_matches_per_cell_oracle(n):
    bt = analytic_completion(two_anchor_field(n))
    verts, corners = boundary_polyline(bt, n)
    ref = oracle_polyline_vertices(bt, n)
    z = verts[:, 0] + 1j * verts[:, 1]
    assert np.max(np.abs(z - ref)) < 1e-12
    assert sorted(corners) == [n // 4, 5 * n // 8]


@pytest.mark.parametrize("n_vertices", [128, 512])
def test_polyline_on_another_grid_matches_per_cell_oracle(n_vertices):
    # the vertex grid need not be the grid of the trace
    bt = analytic_completion(two_anchor_field(256))
    verts, _ = boundary_polyline(bt, n_vertices)
    ref = oracle_polyline_vertices(bt, n_vertices)
    assert verts.shape == (n_vertices, 2)
    z = verts[:, 0] + 1j * verts[:, 1]
    assert np.max(np.abs(z - ref)) < 1e-12


@pytest.mark.parametrize("beta", [0.3 * np.pi, 0.8 * np.pi])
def test_lambda_with_smooth_part_matches_weighted_quadrature(beta):
    # independent oracle: one algebraic-weight adaptive quadrature over the
    # whole circle in d = theta - theta0, |2 sin(d/2)|^s = d^s (2pi - d)^s
    # times a smooth factor
    n = 256
    coef = [(0.04, -0.03), (-0.02, 0.05), (0.03, 0.01)]
    th = grid_angles(n)
    vals = sum(a * np.cos(m * th) + b * np.sin(m * th) for m, (a, b) in enumerate(coef, start=1))
    sf = SingularField(PeriodicGrid(vals), ((POLE_ANGLE, beta),))
    s = -beta / np.pi

    def smooth(d):
        t = POLE_ANGLE + d
        p = sum(a * np.cos(m * t) + b * np.sin(m * t) for m, (a, b) in enumerate(coef, start=1))
        e = min(d, TWO_PI - d)
        return np.exp(p) * (np.sinc(e / TWO_PI) / (TWO_PI - e)) ** s

    ref, _ = quad(smooth, 0.0, TWO_PI, weight="alg", wvar=(s, s),
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    val = integrate_exp_singular(sf)
    assert abs(val - ref) < 1e-11 * abs(ref)


def pure_anchor_lambda(s):
    """Integral of |2 sin(d/2)|^s over the circle."""
    return TWO_PI * gamma(1 + s) / gamma(1 + s / 2) ** 2


@pytest.mark.parametrize("n", [64, 512, 2048])
@pytest.mark.parametrize("beta", [0.05 * np.pi, 0.5 * np.pi, 0.95 * np.pi])
def test_pure_anchor_lambda_matches_closed_form(beta, n):
    ref = pure_anchor_lambda(-beta / np.pi)
    sf = SingularField(PeriodicGrid(np.zeros(n)), ((POLE_ANGLE, beta),))
    assert abs(integrate_exp_singular(sf) - ref) < 1e-13 * ref


def pure_anchor_curve(thetas, t0, s):
    """Closed-form boundary curve of a pure anchor, normalized at theta = 0.

    lambda + i rho = s log(1 - z/z0), so Phi(z) = -z0 (1 - z/z0)^(1+s)/(1+s),
    with 1 - e^{id} = |2 sin(d/2)| e^{i(d - pi sign d)/2} for |d| < pi; d is
    formed without adding pi, which would round away an anchor's distance to
    a nearby grid angle.
    """
    def phi(theta):
        d = np.asarray(theta, dtype=float) - t0
        d = np.where(d > np.pi, d - TWO_PI, np.where(d < -np.pi, d + TWO_PI, d))
        w = np.abs(2 * np.sin(d / 2)) ** (1 + s) * np.exp(0.5j * (1 + s) * (d - np.pi * np.sign(d)))
        return -np.exp(1j * t0) * w / (1 + s)

    return phi(thetas) - phi(0.0)


# anchor offsets from the grid point -pi/2, in cells: on a grid point (the
# edge of a polyline cell), a hair off it, inside, a hair off the edge of a
# line cell (half a cell), and a hair before the next grid point
ANCHOR_OFFSETS = [0.0, 1e-9, 0.01, 0.37, 0.5 - 1e-9, 1 - 1e-9]


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("offset", ANCHOR_OFFSETS)
@pytest.mark.parametrize("beta", [0.5 * np.pi, 0.95 * np.pi, -0.5 * np.pi])
def test_anchor_off_the_grid_matches_closed_forms(beta, offset, n):
    # an anchor near, but not on, a cell edge leaves a piece too short, or a
    # neighbouring cell too close, for plain Gauss-Legendre or an adaptive
    # rule at its default tolerance
    t0 = POLE_ANGLE + offset * TWO_PI / n
    s = -beta / np.pi
    sf = SingularField(PeriodicGrid(np.zeros(n)), ((t0, beta),))
    ref = pure_anchor_lambda(s)
    assert abs(integrate_exp_singular(sf) - ref) < 1e-13 * ref
    verts, _ = boundary_polyline(analytic_completion(sf), n)
    z = verts[:, 0] + 1j * verts[:, 1]
    assert np.max(np.abs(z - pure_anchor_curve(grid_angles(n), t0, s))) < 1e-12


@pytest.mark.parametrize("delta", [1e-14, 1e-13, -1e-13, 5e-13, 1.2e-12, -1.5e-12])
@pytest.mark.parametrize("beta", [0.5 * np.pi, 0.95 * np.pi, 0.999 * np.pi])
def test_anchor_a_hair_off_a_grid_angle(beta, delta):
    # the piece between the grid angle and the anchor is only |delta| long,
    # but it carries about |delta|^(1+s)/(1+s) of the cell, which is large for
    # s near -1: dropping it puts the vertex at the corner itself.  At
    # s = -0.999 the Jacobi node nearest the anchor sits 4e-6 of the piece
    # length from it, below one ulp of the angle for a piece this short: the
    # node must still land on its own side of the sawtooth jump
    n = 256
    t0 = grid_angles(n)[n // 4] + delta
    sf = SingularField(PeriodicGrid(np.zeros(n)), ((t0, beta),))
    verts, _ = boundary_polyline(analytic_completion(sf), n)
    z = verts[:, 0] + 1j * verts[:, 1]
    ref = pure_anchor_curve(grid_angles(n), t0, -beta / np.pi)
    assert np.max(np.abs(z - ref)) < 1e-12 * np.max(np.abs(ref))


def _eval_modes_calls(monkeypatch, fn):
    calls = [0]
    original = spectral.eval_modes

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "eval_modes", counted)
        fn()
    return calls[0]


def test_point_evaluations_do_not_grow_with_n(monkeypatch):
    # the nodes of all anchor-adjacent cells go through one eval_modes call
    # on the stacked interpolated functions (lambda and extra, or lambda and
    # rho) at any n; every other cell goes through the shifted FFTs
    def lambda_calls(n):
        sf = two_anchor_field(n)
        return _eval_modes_calls(monkeypatch, lambda: integrate_exp_singular(sf, curvature_extra(n)))

    def polyline_calls(n):
        bt = analytic_completion(two_anchor_field(n))
        return _eval_modes_calls(monkeypatch, lambda: boundary_polyline(bt, n))

    for count in (lambda_calls, polyline_calls):
        assert count(256) == count(2048) == 1


@pytest.mark.parametrize("s", np.linspace(-0.95, 3.0, 17))
def test_golub_welsch_rule_matches_roots_jacobi(s):
    # the rule beside an anchor is built by Golub-Welsch; scipy.special is
    # imported here only, as the oracle
    from scipy.special import roots_jacobi

    x, w = spectral._jacobi_rule(float(s))
    ref_x, ref_w = roots_jacobi(spectral.ANCHOR_RULE_POINTS, s, 0.0)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-12
    # exact for (1 - x)^k, k < 2 * points: the integral of (1 - x)^(s + k)
    k = np.arange(2 * spectral.ANCHOR_RULE_POINTS)
    exact = 2.0 ** (s + k + 1) / (s + k + 1)
    assert np.max(np.abs(w @ (1.0 - x[:, None]) ** k / exact - 1.0)) <= 1e-13
