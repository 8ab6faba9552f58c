"""Holomorphic disk maps from boundary data.

From boundary data lambda (smooth grid plus optional log anchors) the
analytic completion supplies the conjugate rho, the boundary derivative
phi = e^{lambda + i rho}, and the map itself as a power series with the
normalization Phi(1) = 0.  Boundary curvature, Moebius recentering and the
conformal boundary distance live here too.

Anchored traces have a power-law boundary singularity; their boundary
polylines are built by per-cell quadrature of the boundary derivative
(spectral.singular_cell_integrals) rather than through the truncated series,
which would trip the resolution guard.

Immersion is decided by a zero count, not sampled on a lattice.
build_phi has Phi' from the samples of the zero-free F = e^{lambda + i rho},
and Rouche's theorem certifies the truncated series from its own spectrum,
under a decay assumption on the modes above n/2 and with the grid minimum
of e^lambda standing for its minimum on the circle (see build_phi); it
hands that verdict to the DiskMap constructor as certified.  When that
test fails, and for maps from other sources (make_disk_map on given
coefficients, as mobius_recenter builds its maps), the constructor counts
the zeros of Phi' by the argument principle on a sampled circle with a
Taylor guard between samples (_zero_count), which costs a few FFTs of about
four times the series order, so it stays off the bubble path.  min_deriv is
|Phi'| at the BOUNDARY_RING_N grid angles of the unit circle: by the
minimum principle the minimum over the closed disk of a zero-free Phi'.

Every reading of a map on the circle goes through one reader, _on_circle.
In the identity chart the n grid angles take one fold (_on_grid: the
signed coefficients summed into n bins, then one inverse FFT): |Phi'| for
min_deriv, Phi for boundary_polyline and conformal_distance.
Nothing reads a map inside the disk: a conformal distance is the chord of
an embedded image or undecided (InconclusiveMesh).  Other angles, and
every angle of a map in a blow-up chart, take the one-sided sum of
spectral.eval_modes; the recentered boundary moduli of
quant.recentered_lambda_sequence read Phi' there.

Blow-up charts.  A map may hold its series in a chart: a disk automorphism
m(w) = e^{i theta0} (w + r)/(1 + r w), 0 <= r < 1, with coeffs the series
of S = Phi o m.  m puts the uniform w-grid's nodes densely at theta0, node
density (1 + r)/(1 - r) there, so a map whose boundary modulus concentrates
at theta0 (a bubble of scale mu, quant.Bubble.disk_map) has a short S where
Phi itself needs a degree of about 10 mu.  The trace of S is lambda o m +
log|m'| on the w-grid (analytic_completion's chart), build_phi builds S
from it unchanged and pins it so that Phi(1) = 0 and arg Phi'(0) = 0, the
normalization that the identity chart (0, 0) meets by construction, so a
chart map and the uniform map of the same data are the same function.  S
is immersed exactly when Phi is, m being a diffeomorphism of the closed
disk.  Every reader pulls its points back by m^-1 and its derivatives by
the chain rule (_chart_pull on the circle, _chart_inverse elsewhere, which
returns z and 1 exactly in the identity chart).

A disk map costs a fixed number of passes over its n-point grid: one real
FFT, one real inverse FFT, one complex FFT and one complex exponential,
plus one pass per guard.  The analytic completion reads the rfft of lambda
for its band-limit guard and its Hilbert step.  Boundary samples become
series in one place, _boundary_modes (one in-place forward FFT), and are
truncated in one step, _truncate_with_guard (the tail guard, then the
negative-frequency guard), for build_phi and mobius_recenter alike.  Every
series becomes a map through the DiskMap constructor alone: it cuts the
series at its last nonzero coefficient, checks it, takes the coefficients
of Phi' once, reads min_deriv and decides immersion, and keeps the series
with its derivative coefficients for every later reader.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
from math import factorial

import numpy as np

from ._kernels import segment_hits, segment_meets, winding_batch
from .errors import InconclusiveMesh, InvalidInput, NotHolomorphic, UnderResolved
from .mesh import check_boundary_size
from .spectral import (
    BAND_LIMIT_ENERGY,
    TWO_PI,
    PeriodicGrid,
    SingularField,
    ValueEquality,
    _energy,
    _real_conjugate,
    band_limit_fraction,
    circle_trapezoid,
    conjugate_profile,
    eval_modes,
    grid_angles,
    grid_node,
    log_profile,
    real_half_spectrum,
    singular_cell_integrals,
    singular_half_laplacian,
)

TAIL_ENERGY_LIMIT = 1e-6
NEG_FREQ_LIMIT = 1e-6
BOUNDARY_RING_N = 256  # angles of the r = 1 ring on which min_deriv is read
# Taylor terms of the argument-principle guard, and its largest sample count
ZERO_COUNT_TERMS = 8
ZERO_COUNT_MAX_SAMPLES = 1 << 20
IDENTITY_CHART = (0.0, 0.0)  # (theta0, r) of the chart m(w) = w


def _check_chart(chart) -> tuple:
    """(theta0, r) as floats; InvalidInput unless theta0 is finite and
    0 <= r < 1, so that m(w) = e^{i theta0} (w + r)/(1 + r w) is a disk
    automorphism."""
    t0, r = (float(v) for v in chart)
    if not (np.isfinite(t0) and 0.0 <= r < 1.0):
        raise InvalidInput(f"a chart needs a finite angle and 0 <= r < 1, got {chart!r}")
    return t0, r


def _chart_push(chart, phis: np.ndarray):
    """Angles in [-pi, pi] of m(e^{i phi}) and log|m'(e^{i phi})| for the
    chart m(w) = e^{i theta0} (w + r)/(1 + r w): tan(psi/2) = (1 - r)/(1 + r)
    tan(phi/2) about theta0, and |m'| = (1 - r^2)/((1 - r)^2 + 4 r
    cos^2(phi/2)), both free of cancellation as r -> 1."""
    t0, r = chart
    s, c = np.sin(0.5 * phis), np.cos(0.5 * phis)
    theta = t0 + 2.0 * np.arctan2((1.0 - r) * s, (1.0 + r) * c)
    theta = np.where(theta > np.pi, theta - TWO_PI, np.where(theta < -np.pi, theta + TWO_PI, theta))
    return theta, np.log((1.0 - r) * (1.0 + r)) - np.log((1.0 - r) ** 2 + 4.0 * r * c * c)


def _chart_pull(chart, thetas: np.ndarray):
    """Angles of m^-1(e^{i theta}) and log|(m^-1)'(e^{i theta})|, the
    inverse of _chart_push: tan(phi/2) = (1 + r)/(1 - r) tan(psi/2) for
    psi = theta - theta0, and |(m^-1)'| = (1 - r^2)/((1 - r)^2 + 4 r
    sin^2(psi/2))."""
    t0, r = chart
    half = 0.5 * (np.asarray(thetas, dtype=float) - t0)
    s, c = np.sin(half), np.cos(half)
    phi = 2.0 * np.arctan2((1.0 + r) * s, (1.0 - r) * c)
    return phi, np.log((1.0 - r) * (1.0 + r)) - np.log((1.0 - r) ** 2 + 4.0 * r * s * s)


def _chart_inverse(chart, z: np.ndarray):
    """m^-1(z) and (m^-1)'(z) at points z of the closed disk."""
    t0, r = chart
    turn = np.exp(-1j * t0)
    den = 1.0 - r * turn * z
    return (turn * z - r) / den, turn * ((1.0 - r) * (1.0 + r)) / den**2


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary data lambda together with its harmonic conjugate.

    The smooth part of lam is real.  rho_smooth is its Hilbert transform;
    each anchor contributes its closed-form sawtooth conjugate on evaluation.
    The boundary derivative of the map is phi = e^{lambda + i rho}.
    chart (theta0, r) says on which grid lam lives: the identity chart (0,
    0) samples the circle itself, any other the w-grid of the chart m (see
    the module docstring), where lam is lambda o m + log|m'|, the data of S
    = Phi o m; build_phi hands it to the map.  Anchored data takes no chart
    (InvalidInput), as its polyline is drawn on the circle itself.
    completed marks a trace from analytic_completion, whose rho_smooth is
    the discrete conjugate of lam.smooth by construction: build_phi's
    Rouche test needs it, and a trace assembled from other data is
    certified by the argument principle instead.  It is no constructor
    argument: only analytic_completion sets it.
    """

    lam: SingularField
    rho_smooth: PeriodicGrid
    chart: tuple = IDENTITY_CHART
    completed: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "chart", _check_chart(self.chart))
        if self.lam.anchors and self.chart != IDENTITY_CHART:
            raise InvalidInput("anchored boundary data takes no chart")

    @property
    def n(self) -> int:
        return self.lam.n

    @property
    def anchors(self) -> tuple:
        return self.lam.anchors

    def lambda_grid(self) -> np.ndarray:
        return self.lam.grid_values()


def analytic_completion(lam, chart=IDENTITY_CHART) -> BoundaryTrace:
    """Harmonic conjugate of the boundary data: rho = H(lambda_smooth) plus the
    closed-form sawtooth conjugate of each log anchor.

    Raises UnderResolved when the smooth part fails the band-limit guard (the
    top decile of its spectrum carries over 1% of the energy), and
    InvalidInput when it is complex: lambda is real.  The guard and the
    Hilbert step read one np.fft.rfft of the smooth part, modes 0 .. n/2,
    and rho is one np.fft.irfft of it (spectral._real_conjugate).  chart
    says which grid lam samples (BoundaryTrace.chart).
    """
    if not isinstance(lam, (SingularField, PeriodicGrid)):
        lam = PeriodicGrid(lam)
    sf = SingularField.from_grid(lam)
    raw = np.fft.rfft(sf.smooth.values, norm="forward")
    frac = band_limit_fraction(sf.smooth, raw)
    if frac > BAND_LIMIT_ENERGY:
        raise UnderResolved(f"top decile of boundary spectrum carries {frac:.2%} of energy")
    bt = BoundaryTrace(lam=sf, rho_smooth=_real_conjugate(sf.smooth, raw), chart=chart)
    object.__setattr__(bt, "completed", True)
    return bt


@dataclass(frozen=True, eq=False)
class DiskMap(ValueEquality):
    """Power-series map of the closed unit disk, built from its series.

    The constructor is the one place that turns coefficients (ascending
    powers) into a map.  coeffs become a read-only copy of the series up to
    its last nonzero coefficient, so the order of a map is its degree and a
    vector with trailing zeros gives the map of the vector without them.
    The constructor raises InvalidInput for fewer than two coefficients, the
    zero map, a non-finite coefficient, a chart that is no disk
    automorphism, and, when normalized_at_one, a violated Phi(1) = 0
    normalization.  The other fields are derived, no constructor arguments:
    deriv_coeffs, the coefficients of the series' derivative (taken once;
    they take no part in ==), min_deriv and immersed.

    chart (theta0, r), a keyword, is the blow-up chart m of the series (see
    the module docstring): coeffs and deriv_coeffs are those of S = Phi o m
    and S', and the map is Phi = S o m^-1.  The identity chart (0, 0), the
    default, makes coeffs Phi's own series.  Nothing but the map's own
    methods and the circle reader _on_circle reads the series, and each
    pulls its points back through the chart, so every reader sees Phi.

    min_deriv is the minimum of |Phi'| at the BOUNDARY_RING_N grid angles of
    the unit circle (_on_circle: one grid fold in the identity chart); for
    an immersed map the minimum principle makes it the minimum over the
    closed disk, up to the circle's sampling.  immersed says that
    Phi' has no zero in the closed disk.  certified is build_phi's Rouche
    verdict on its own spectrum, and only build_phi passes it; that test
    rests on two premises it does not check, a geometric decay of the modes
    above n/2 and the grid minimum of e^lambda standing for its minimum on
    the circle (see build_phi).  Without it, immersion is the argument
    principle with a sampling guard: no zero of S' counted in the disk
    (_zero_count), which holds exactly when Phi' has none.
    """

    coeffs: np.ndarray
    immersed: bool = field(init=False)
    min_deriv: float = field(init=False)
    normalized_at_one: bool = True
    deriv_coeffs: np.ndarray = field(init=False, compare=False, repr=False)
    _: KW_ONLY
    chart: tuple = IDENTITY_CHART
    certified: InitVar[bool] = False

    def __post_init__(self, certified):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.size < 2:
            raise InvalidInput("a disk map needs at least two coefficients")
        c = np.array(c[: _series_length(c)])  # a copy: no caller can write it
        c.setflags(write=False)
        if c.size == 0:
            raise InvalidInput("zero map")
        if not np.all(np.isfinite(c)):
            raise InvalidInput("a disk map needs finite coefficients")
        chart = _check_chart(self.chart)
        if self.normalized_at_one:
            at_one = abs(_at_one(c, chart))
            if at_one > 1e-10 * max(1.0, np.sqrt(_energy(c))):
                raise InvalidInput(f"normalization Phi(1) = 0 violated: |Phi(1)| = {at_one:.2e}")
        dcoef = _derivative(c)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "deriv_coeffs", dcoef)
        object.__setattr__(self, "chart", chart)
        speed = _on_circle(self, BOUNDARY_RING_N, speed=True)
        object.__setattr__(self, "min_deriv", float(np.min(speed)))
        object.__setattr__(self, "immersed", certified or _zero_count(dcoef) == 0)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        w, _ = _chart_inverse(self.chart, np.asarray(z, dtype=complex))
        return np.polynomial.polynomial.polyval(w, self.coeffs)

    def derivative(self, z):
        w, dw = _chart_inverse(self.chart, np.asarray(z, dtype=complex))
        return np.polynomial.polynomial.polyval(w, self.deriv_coeffs) * dw


def _at_one(coef: np.ndarray, chart) -> complex:
    """S(m^-1(1)) for the series coef of S in the chart: Phi(1)."""
    (phi,), _ = _chart_pull(chart, np.zeros(1))
    return complex(coef @ np.exp(1j * phi * np.arange(coef.size)))


def _series_length(coef: np.ndarray) -> int:
    """Length of a series up to its last nonzero coefficient, 0 when every
    one is zero: one boolean mask and an argmax, with no index array."""
    nonzero = coef[::-1] != 0
    last = int(np.argmax(nonzero))
    return coef.size - last if nonzero[last] else 0


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """Read-only coefficients k c_k of Phi' for the series coeffs."""
    d = coeffs[1:] * np.arange(1, coeffs.size)
    d.setflags(write=False)
    return d


def _on_grid(coef: np.ndarray, n: int) -> np.ndarray:
    """sum_k coef_k e^{i k theta_j} at the n grid angles theta_j = -pi +
    2 pi j / n.  Since e^{i k theta_j} = (-1)^k e^{2 pi i jk/n}, the
    coefficients signed by (-1)^k fold into n bins, the sum of the rows of
    their (Q, n) block (k = q n + b), and one inverse FFT gives all n
    values.  coef ends at its last nonzero entry, as DiskMap.coeffs and
    deriv_coeffs do: trailing zeros would cost rows."""
    block = np.zeros(max(-(-coef.size // n), 1) * n, dtype=complex)
    block[: coef.size] = coef
    block[1::2] *= -1
    return np.fft.ifft(block.reshape(-1, n).sum(axis=0)) * n


def _on_circle(d: DiskMap, at, speed: bool = False) -> np.ndarray:
    """Phi, or |Phi'| when speed, on the unit circle: at the n grid angles
    when at is an integer n, else at the angles at.  The one reader of a
    map's series on the circle.  In the identity chart the grid takes one
    fold on the r = 1 ring, other angles the one-sided sum of
    spectral.eval_modes; in a chart m the angles are pulled back to those
    of w = m^-1(z), where eval_modes sums S or S', and |Phi'(z)| = |S'(w)|
    |(m^-1)'(z)| by the chain rule."""
    coef = d.deriv_coeffs if speed else d.coeffs
    grid = isinstance(at, (int, np.integer))
    if d.chart == IDENTITY_CHART:
        values = _on_grid(coef, int(at)) if grid else eval_modes(coef, at)
        return np.abs(values) if speed else values
    phi, log_jac = _chart_pull(d.chart, grid_angles(int(at)) if grid else at)
    values = eval_modes(coef, phi)
    return np.abs(values) * np.exp(log_jac) if speed else values


def _zero_count(dcoef: np.ndarray) -> int | None:
    """Zeros of p(z) = sum_k dcoef_k z^k in the open unit disk, by the
    argument principle; None when the sampling guard cannot certify the
    count (p vanishes on or too near the circle, or is zero).

    p is sampled at the m-th roots of unity z_j by one inverse FFT, m >= 4
    deg p a power of two, and the count is the winding number of the
    samples: the sum of the principal arguments of p(z_{j+1})/p(z_j) over
    2 pi.  That sum is exact when no step turns by pi or more.  The guard:
    with h = pi/m, every angle lies within h of a sample angle theta_j, and
    by Taylor's theorem in theta with R = ZERO_COUNT_TERMS terms

        |p(theta) - p(theta_j)| <= sum_{i<R} |p^(i)(theta_j)| h^i/i!
                                   + h^R/R! sum_k k^R |dcoef_k|,

    where p^(i)(theta_j) = sum_k (ik)^i dcoef_k z_j^k is one more inverse
    FFT.  If that radius stays below |p(theta_j)| at every sample, p keeps
    to a disk about p(theta_j) that excludes 0 on each half step, so each
    step turns by less than pi, and no zero lies on the circle.  m doubles
    while the guard fails, up to ZERO_COUNT_MAX_SAMPLES.
    """
    size = dcoef.size
    if not np.any(dcoef):
        return None
    k = np.arange(size, dtype=float)
    reach = float(np.abs(dcoef) @ k**ZERO_COUNT_TERMS) / factorial(ZERO_COUNT_TERMS)
    m = max(64, 1 << (4 * size - 1).bit_length())
    while m <= ZERO_COUNT_MAX_SAMPLES:
        h = np.pi / m
        vals = np.fft.ifft(dcoef, m) * m
        if not np.all(vals):
            return None  # a zero on a sample: no finer grid helps
        radius = np.full(m, reach * h**ZERO_COUNT_TERMS)
        term = dcoef
        for i in range(1, ZERO_COUNT_TERMS):
            term = term * k
            radius += np.abs(np.fft.ifft(term, m) * m) * (h**i / factorial(i))
        if np.all(np.abs(vals) > radius):
            turns = np.angle(np.roll(vals, -1) / vals)
            return int(round(float(np.sum(turns)) / TWO_PI))
        m *= 2
    return None


def make_disk_map(coeffs, normalized_at_one: bool = True, chart=IDENTITY_CHART) -> DiskMap:
    """The DiskMap of a coefficient vector, in the given chart: the
    constructor's checks, its min_deriv and its immersion verdict by the
    argument principle (see DiskMap)."""
    return DiskMap(coeffs, normalized_at_one, chart=chart)


def _truncate_with_guard(full_coeffs: np.ndarray, M: int, neg_frac: float) -> np.ndarray:
    """Keep orders 0..M of a series from boundary samples after both
    guards, in this order: orders above M/2 must be negligible
    (UnderResolved), and so must neg_frac, the samples' negative-frequency
    energy share (NotHolomorphic)."""
    total = _energy(full_coeffs)
    tail = _energy(full_coeffs[M // 2 + 1:])
    if total > 0 and tail > TAIL_ENERGY_LIMIT * total:
        raise UnderResolved(
            f"energy fraction {tail / total:.2e} above order {M // 2} "
            f"(series order {M} cannot represent the map)"
        )
    if neg_frac > NEG_FREQ_LIMIT:
        raise NotHolomorphic(
            f"negative-frequency energy fraction {neg_frac:.2e} of the boundary samples"
        )
    return full_coeffs[: M + 1]


def _boundary_modes(w: np.ndarray):
    """Modes 0 .. n/2 - 1 of complex samples w on the n grid angles, the l1
    norm of the bins of modes -n/2 .. -1, and their energy share.  One
    forward FFT overwrites w: position k holds mode k for k < n/2, up to the
    half-period sign (-1)^k, and mode k - n above; no shifted or mirrored
    spectrum is built.  A non-finite sample spreads to every bin, so the l1
    norm shows it without a pass over the samples: UnderResolved.
    """
    with np.errstate(invalid="ignore"):  # non-finite samples: raised below
        pos, neg = np.split(np.fft.fft(w, norm="forward", out=w), 2)
        pos[1::2] *= -1
    neg_abs = np.abs(neg)
    neg_l1 = float(np.sum(neg_abs))
    if not np.isfinite(neg_l1):
        raise UnderResolved("boundary samples are non-finite on the sampling grid")
    neg_energy = float(neg_abs @ neg_abs)
    total = neg_energy + _energy(pos)
    return pos, neg_l1, neg_energy / total if total else 0.0


def build_phi(bt: BoundaryTrace) -> DiskMap:
    """Integrate the boundary derivative into the disk map.

    phi = e^{lambda + i rho} is exponentiated on the trace's own n-point
    grid, its nonnegative modes become the derivative coefficients, and
    term-by-term integration with the constant fixed by Phi(1) = 0 gives the
    map, truncated to order n/2 under the tail guard.

    One array carries the whole path: lambda and rho are written into its
    real and imaginary parts, exponentiated in place, and overwritten by the
    FFT of _boundary_modes.  The integrated modes go through the checks of
    the DiskMap constructor, which takes the Rouche verdict below in place
    of the zero count when it certifies.

    The grid needs no oversampling.  On n points, modes n/2 .. n-1 of phi
    fold onto the negative frequencies -n/2 .. -1, which the
    negative-frequency guard measures; only modes >= n fold onto kept
    coefficients, and those are smaller than the tail above order n/4 that
    the truncation guard already bounds.  So a finer grid changes nothing
    above the truncation floor.  _truncate_with_guard runs the tail guard
    before the negative-frequency guard: an under-resolved holomorphic map
    raises UnderResolved, and NotHolomorphic is left to phi with significant
    negative-frequency energy on a resolved grid.

    Immersion certificate (Rouche).  Let G be the polynomial whose real
    part interpolates lambda and imaginary part rho on the grid (rho is the
    discrete conjugate, so G has modes 0 .. n/2 only), and F = e^G: F is
    holomorphic and zero-free on the closed disk, |F| = e^lambda and F =
    phi at the grid points.  Its FFT bins b_k are the sums of its modes
    F_k congruent to k mod n, so the kept series Phi'_N = sum_{k < n/2} b_k
    z^k obeys on the unit circle

        |Phi'_N - F| <= sum_{k >= n/2} |F_k| + sum_{k >= n} |F_k| =: E,

    the modes cut off plus their aliases on the kept coefficients.

    Decay assumption: from mode n/2 on, |F_{k+1}| <= r |F_k| with s =
    r^(n/2) <= 1/4 (the tail guard, at most 1e-6 of the energy above order
    n/4, presumes far faster decay).  The bins of modes -n/2 .. -1 hold
    modes n/2 .. n - 1 of F and their aliases, so |b_k| >= |F_k| (1 - 2
    s^2)/(1 - s^2) there, and E <= (1 - s^2)(1 + s) / ((1 - 2 s^2)(1 - s))
    ||negative bins||_1 < 2 ||negative bins||_1.  The certificate is

        2 ||negative bins||_1 < min_j e^{lambda_j},

    the grid minimum standing for min |F| on the circle.  By Rouche's
    theorem Phi'_N then has as many zeros in the closed disk as F: none.
    Neither premise is checked: the decay ratio is not measured, and
    e^{Re G} may dip between grid nodes.  The factor 2 leaves room for
    the bound 1.79 ||negative bins||_1 and a dip of about 0.11 in log |F|;
    on the bubble ladder (mu = 2^0 .. 2^12, x0 = 0, 0.3, 0.45) the left side
    is at most 3.7e-3 of the right, far inside that room.

    The test only ever certifies: when it fails, or when G is not known to
    be holomorphic (a trace not from analytic_completion,
    BoundaryTrace.completed False), the zeros of Phi'_N are counted by the
    argument principle instead, as make_disk_map counts them.  It reads
    the l1 norm that the negative-frequency guard's pass over the bins
    yields.

    A trace in a chart m (BoundaryTrace.chart) gives S = Phi o m by the same
    steps, up to a rotation and a translation, which _pin_chart_map fixes:
    the map it hands on has Phi(1) = 0 and arg Phi'(0) = 0.  The identity
    chart meets both as built, the second up to rounding, since rho has zero
    circle mean and Phi'(0) = e^{mean lambda}.  The certificate reads the
    grid of S alone, and S' vanishes in the closed disk where Phi' does.
    """
    n = bt.n
    w = np.empty(n, dtype=complex)
    w.real = bt.lam.smooth.values
    w.imag = bt.rho_smooth.values
    th = grid_angles(n) if bt.anchors else None
    for t0, c in bt.anchors:
        w.real += c * log_profile(th, t0)
        w.imag += c * conjugate_profile(th, t0)
    with np.errstate(over="ignore", invalid="ignore"):
        floor = float(np.exp(np.min(w.real)))  # min |F| = min e^lambda on the grid
        np.exp(w, out=w)
    pos, neg_l1, frac = _boundary_modes(w)
    # integrate every available nonnegative mode, then truncate under the guard
    coeffs = np.zeros(n // 2 + 1, dtype=complex)  # mode 0 is zero under the guard
    np.divide(pos, np.arange(1, n // 2 + 1), out=coeffs[1:])
    _truncate_with_guard(coeffs, n // 2, frac)
    coeffs[0] = -np.sum(coeffs[1:])
    if bt.chart != IDENTITY_CHART:
        _pin_chart_map(coeffs, bt.chart)
    return DiskMap(coeffs, True, chart=bt.chart, certified=bt.completed and 2.0 * neg_l1 < floor)


def _pin_chart_map(coeffs: np.ndarray, chart):
    """Rotate and translate the series of S in place so that Phi = S o m^-1
    has arg Phi'(0) = 0 and Phi(1) = 0.  Phi'(0) = S'(-r) (m^-1)'(0) with
    (m^-1)'(0) = e^{-i theta0} (1 - r^2), so the rotation is e^{i theta0}
    conj(S'(-r))/|S'(-r)|; the constant then puts the zero of S at the
    pulled-back point m^-1(1)."""
    t0, r = chart
    k = np.arange(1, coeffs.size)
    slope = complex(np.dot(coeffs[1:] * k, (-r) ** (k - 1)))  # S'(-r)
    coeffs[1:] *= np.exp(1j * t0) * slope.conjugate() / abs(slope)
    coeffs[0] = 0.0
    coeffs[0] = -_at_one(coeffs, chart)


def boundary_curvature(bt: BoundaryTrace) -> PeriodicGrid:
    """Curvature of the boundary image: kappa = e^{-lambda} (d rho/d theta + 1).

    The smooth part of d rho/d theta equals the half-Laplacian of lambda; each
    anchor's sawtooth contributes the constant -c/2pi.  At anchor grid points
    with positive coefficient the curvature vanishes (the speed blows up).
    """
    dtheta_rho, _ = singular_half_laplacian(bt.lam)
    lam = bt.lambda_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.exp(-lam) * (dtheta_rho.values + 1.0)
    kappa = np.where(np.isfinite(kappa), kappa, 0.0)
    return PeriodicGrid(kappa)


def curvature_mass(bt: BoundaryTrace) -> float:
    """Total curvature of the boundary image: the integral of kappa e^lambda.

    By construction kappa e^lambda = d rho/d theta + 1, a smooth grid even
    in the anchored case, so the trapezoid rule applies directly.
    """
    dtheta_rho, _ = singular_half_laplacian(bt.lam)
    return float(circle_trapezoid(dtheta_rho + 1.0))


def _check_recentering(a: complex, t: float):
    """Raise InvalidInput unless f(z) = (z - t a)/(1 - t conj(a) z) is a disk
    automorphism that recenters towards the boundary point a: |a| = 1 and
    0 <= t < 1."""
    if abs(abs(a) - 1.0) > 1e-9:
        raise InvalidInput("recentering point must lie on the unit circle")
    if not 0.0 <= t < 1.0:
        raise InvalidInput("t must lie in [0, 1)")


def mobius_recenter(d: DiskMap, a: complex, t: float) -> DiskMap:
    """Precompose with the disk automorphism f(z) = (z - t a)/(1 - t conj(a) z).

    t = 0 gives the identity.  Composition happens on a dense boundary grid
    followed by re-projection to order M = max(2 L - 1, 256), with L =
    d.order + 1 times the node density (1 + r)/(1 - r) of d's chart, about
    twice the degree of Phi, as f stretches the boundary near a; as in
    build_phi, _truncate_with_guard raises UnderResolved (t too close to 1
    for the series order) before NotHolomorphic.  The
    recentered map is certified by the argument principle (make_disk_map):
    f is a diffeomorphism of the closed disk, so losing d's immersion can
    only mean under-resolution, UnderResolved.  The result is always in the
    identity chart: for a chart map at t = 0 it is the projection of Phi
    itself, its own series.
    """
    a = complex(a)
    _check_recentering(a, t)
    _, r = d.chart
    M = max(2 * int(np.ceil((d.order + 1) * (1.0 + r) / (1.0 - r))) - 1, 256)
    N = 1 << int(np.ceil(np.log2(8 * M)))
    th = grid_angles(N)
    z = np.exp(1j * th)
    w = (z - t * a) / (1 - t * np.conj(a) * z)
    pos, _, frac = _boundary_modes(d(w))
    coeffs = _truncate_with_guard(pos, M, frac)
    coeffs[0] -= np.sum(coeffs)
    out = make_disk_map(coeffs)
    if d.immersed and not out.immersed:
        raise UnderResolved("immersion certificate lost under recentering")
    return out


def _simple_image(d: DiskMap, n_boundary: int):
    """Phi at the n_boundary boundary nodes, with the vertices and edge
    ends of the polygon through them; edge k runs from vertex k to vertex
    k + 1.  InconclusiveMesh names the premise that fails: d is not
    immersed, or segment_hits finds a pair of edges that cross or come near
    (clean or suspect), so the polygon is not simple."""
    if not d.immersed:
        raise InconclusiveMesh("distance undecided: the map is not immersed")
    w = _on_circle(d, n_boundary)
    verts = np.column_stack([w.real, w.imag])
    ends = np.roll(verts, -1, axis=0)
    if segment_hits(verts, ends)[0].size:
        raise InconclusiveMesh(
            f"distance undecided: the boundary polygon through {n_boundary} nodes is not simple"
        )
    return w, verts, ends


def _check_chord(verts: np.ndarray, ends: np.ndarray, a: int, b: int):
    """Certify that the chord verts[a] -> verts[b] between two vertices of
    a simple polygon (_simple_image) lies in the closed region it bounds,
    or raise InconclusiveMesh naming the test that fails.

    Two tests, each erring only towards failure: no edge that is not
    incident to verts[a] or verts[b] meets the chord, touching included
    (segment_meets); the chord's midpoint has winding number 1.  The open
    chord then meets the polygon, if at all, along the edges incident to
    its ends, collinearly; no other edge can join those to the rest of the
    chord.  So the rest lies on one side, and the midpoint's winding number
    puts it inside: the chord lies in the closed region.  A chord between
    neighbouring vertices is an edge of the simple polygon and needs no
    more (its midpoint lies on the polygon, where a winding number is
    undecided).  a < b.
    """
    size = verts.shape[0]
    if b - a in (1, size - 1):
        return
    others = np.ones(size, dtype=bool)
    others[[a - 1, a, b - 1, b]] = False  # a - 1 = -1 wraps to the last edge
    chord = f"distance undecided: the chord between boundary nodes {a} and {b}"
    if np.any(segment_meets(verts[a], verts[b], verts[others], ends[others])):
        raise InconclusiveMesh(f"{chord} meets the boundary polygon")
    if winding_batch(0.5 * (verts[a] + verts[b])[None, :], verts)[0] != 1:
        raise InconclusiveMesh(f"{chord} has its midpoint outside the boundary polygon")


def _boundary_nodes(p: complex, q: complex, n_boundary: int):
    """The nodes (a, b), a < b, of the n_boundary grid angles nearest to the
    distance endpoints p and q, after their checks (see conformal_distance)."""
    p, q = complex(p), complex(q)
    for z in (p, q):
        if abs(abs(z) - 1.0) > 1e-9:
            raise InvalidInput("distance endpoints must lie on the unit circle")
    if abs(p - q) < 1e-12:
        raise InvalidInput("endpoints must be distinct")
    check_boundary_size(n_boundary)
    a, b = sorted((grid_node(np.angle(p), n_boundary), grid_node(np.angle(q), n_boundary)))
    if a == b:
        raise InconclusiveMesh(
            f"endpoints {p:.6g} and {q:.6g} share one of the {n_boundary} boundary nodes"
        )
    return a, b


def conformal_distances(d: DiskMap, pairs, n_boundary: int = 256) -> np.ndarray:
    """conformal_distance(d, p, q, n_boundary) for each (p, q) of pairs,
    bit for bit, with the endpoints of every pair checked first.  The map's
    boundary is read and its polygon tested for simplicity once
    (_simple_image); each pair adds only its chord tests."""
    nodes = [_boundary_nodes(p, q, n_boundary) for p, q in pairs]
    w, verts, ends = _simple_image(d, n_boundary)
    for a, b in nodes:
        _check_chord(verts, ends, a, b)
    return np.array([abs(w[b] - w[a]) for a, b in nodes], dtype=float)


def conformal_distance(d: DiskMap, p: complex, q: complex, n_boundary: int = 256) -> float:
    """Distance between boundary points in the metric |Phi'| |dz|.

    p and q round to their nearest of the n_boundary grid angles, the
    boundary nodes (n_boundary >= 8, else InvalidInput); distinct endpoints
    that round to one node raise InconclusiveMesh, since the grid cannot
    resolve their distance.

    Phi at the boundary nodes is read once (_on_circle), and the chord
    between the two endpoint nodes is certified when d is immersed, its
    image polygon is simple (_simple_image) and the chord lies in the
    region that polygon bounds (_check_chord).  An immersion of the closed
    disk whose boundary curve is simple is an embedding, so the image is
    that region, a path in the metric is a curve in it of the same
    Euclidean length, and the chord is the shortest: the distance is
    |Phi(node q) - Phi(node p)|.  Two premises are not checked.  immersed
    rests on build_phi's Rouche test for its maps (see build_phi), and the
    polygon through the n_boundary nodes stands in for the true boundary
    curve, so an image that turns between two nodes is judged by its
    polygon.  Every map the quantization lab builds is a bubble, a Moebius
    map with a round image: each of its chords is certified.

    Where the certificate fails the distance is undecided: InconclusiveMesh
    names the premise that failed (the map is not immersed, its boundary
    polygon is not simple, the chord meets the polygon, or the chord's
    midpoint lies outside it), in every chart.  The endpoint nodes are
    taken in ascending order, so D(p, q) == D(q, p) bit for bit.
    """
    return float(conformal_distances(d, [(p, q)], n_boundary)[0])


# --- boundary polyline export ------------------------------------------------

def boundary_polyline(bt_or_map, n_vertices: int = 512):
    """Vertices of the boundary image curve at the grid angles.

    For a DiskMap these are Phi's values at the n_vertices grid angles
    (_on_circle, which honours the map's chart), the values the exact route
    of conformal_distance reads.  For an anchored
    BoundaryTrace the vertices are cumulative sums of the integrals of the
    boundary derivative i e^{i theta} phi(theta) over the grid cells
    [theta_j, theta_j + h], taken by spectral.singular_cell_integrals.
    Returns (vertices (n,2), corners dict index -> (tangent_in, tangent_out)).
    """
    if isinstance(bt_or_map, DiskMap):
        d = bt_or_map
    elif bt_or_map.anchors:
        return _singular_boundary_polyline(bt_or_map, n_vertices)
    else:
        d = build_phi(bt_or_map)
    z = _on_circle(d, n_vertices)
    return np.column_stack([z.real, z.imag]), {}


def _singular_boundary_polyline(bt: BoundaryTrace, n: int):
    th = grid_angles(n)
    anchors = bt.anchors

    def dphi(nodes, lam, rho):
        # every sawtooth takes the branch of the side of its anchor each node lies on
        for t0, c in anchors:
            rho = rho + c * conjugate_profile(nodes, t0)
        return 1j * np.exp(lam + 1j * (rho + nodes))

    specs = (real_half_spectrum(bt.lam.smooth), real_half_spectrum(bt.rho_smooth))
    increments = singular_cell_integrals(n, anchors, specs, dphi)
    verts_c = np.concatenate([[0.0 + 0.0j], np.cumsum(increments)])
    closure = abs(verts_c[-1] - verts_c[0])
    scale = max(1.0, float(np.max(np.abs(verts_c))))
    # a non-finite vertex fails this test too
    if not closure <= 1e-6 * scale:
        raise UnderResolved(f"boundary curve failed to close: gap {closure:.2e}")
    verts_c = verts_c[:-1]
    # normalize Phi(1) = 0: theta = 0 sits at index n/2
    verts_c = verts_c - verts_c[n // 2]

    corners = {}
    for t0, c in anchors:
        jc = grid_node(t0, n)
        tin = _one_sided_tangent(verts_c, th, jc, side=-1)
        tout = _one_sided_tangent(verts_c, th, jc, side=+1)
        corners[jc] = (tin, tout)
    return np.column_stack([verts_c.real, verts_c.imag]), corners


def _one_sided_tangent(verts_c: np.ndarray, th: np.ndarray, jc: int, side: int) -> float:
    """Tangent direction at a corner from a linear fit of chord angles over the
    8 grid points on one side, excluding the 2 nearest the anchor (the log
    weight degrades differences adjacent to it)."""
    n = verts_c.size
    point_offs = [side * k for k in range(3, 11)]  # points 3..10 away
    if side < 0:
        point_offs = point_offs[::-1]  # orient along the curve direction
    pts = verts_c[[(jc + o) % n for o in point_offs]]
    chords = np.diff(pts)
    ang = np.unwrap(np.angle(chords))
    mid_offs = 0.5 * (np.asarray(point_offs[:-1]) + np.asarray(point_offs[1:]))
    coef = np.polynomial.polynomial.polyfit(mid_offs.astype(float), ang, 1)
    val = float(np.polynomial.polynomial.polyval(0.0, coef))
    return float(np.angle(np.exp(1j * val)))
