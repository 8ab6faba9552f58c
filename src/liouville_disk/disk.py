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
|Phi'| on the r = 1 ring of BOUNDARY_RING_N angles: by the minimum
principle the minimum over the closed disk of a zero-free Phi'.

Series are summed on uniform polar rings, all rings of a call folding the
coefficients at once, through one matrix product, and sharing one batched
inverse FFT (_on_rings), so series orders of 10^5 stay cheap.  The r = 1
ring of n grid angles carries |Phi'| for min_deriv and Phi itself for
boundary_polyline and conformal_distance, whose exact route, a chord
certified to lie in an embedded image, needs nothing inside the disk.
|Phi'| inside the disk is needed only on the fallback route, on the
edge-midpoint rings of the distance mesh.  The powers of the ring centers
that the fold multiplies by belong to the ring geometry, not to the series
(RingPowers): each boundary ring holds one table and each cached distance
mesh holds another, so a call of either geometry computes powers only for
a series longer than any before it.  The recentered boundary moduli of
quant.recentered_lambda_sequence take Phi' at off-grid points of the unit
circle instead: spectral.eval_modes sums its one-sided series.

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
from functools import lru_cache
from math import factorial

import numpy as np

from ._kernels import segment_hits, segment_meets, winding_batch
from .errors import InconclusiveMesh, InvalidInput, NotHolomorphic, UnderResolved
from .mesh import build_polar_mesh, check_boundary_size, shortest_path_distance
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


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary data lambda together with its harmonic conjugate.

    The smooth part of lam is real.  rho_smooth is its Hilbert transform;
    each anchor contributes its closed-form sawtooth conjugate on evaluation.
    The boundary derivative of the map is phi = e^{lambda + i rho}.
    completed marks a trace from analytic_completion, whose rho_smooth is
    the discrete conjugate of lam.smooth by construction: build_phi's
    Rouche test needs it, and a trace assembled from other data is
    certified by the argument principle instead.  It is no constructor
    argument: only analytic_completion sets it.
    """

    lam: SingularField
    rho_smooth: PeriodicGrid
    completed: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.lam.n

    @property
    def anchors(self) -> tuple:
        return self.lam.anchors

    def lambda_grid(self) -> np.ndarray:
        return self.lam.grid_values()


def analytic_completion(lam) -> BoundaryTrace:
    """Harmonic conjugate of the boundary data: rho = H(lambda_smooth) plus the
    closed-form sawtooth conjugate of each log anchor.

    Raises UnderResolved when the smooth part fails the band-limit guard (the
    top decile of its spectrum carries over 1% of the energy), and
    InvalidInput when it is complex: lambda is real.  The guard and the
    Hilbert step read one np.fft.rfft of the smooth part, modes 0 .. n/2,
    and rho is one np.fft.irfft of it (spectral._real_conjugate).
    """
    if not isinstance(lam, (SingularField, PeriodicGrid)):
        lam = PeriodicGrid(lam)
    sf = SingularField.from_grid(lam)
    raw = np.fft.rfft(sf.smooth.values, norm="forward")
    frac = band_limit_fraction(sf.smooth, raw)
    if frac > BAND_LIMIT_ENERGY:
        raise UnderResolved(f"top decile of boundary spectrum carries {frac:.2%} of energy")
    bt = BoundaryTrace(lam=sf, rho_smooth=_real_conjugate(sf.smooth, raw))
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
    zero map, a non-finite coefficient, and, when normalized_at_one, a
    violated Phi(1) = 0 normalization.  The other fields are derived, no
    constructor arguments: deriv_coeffs, the coefficients of Phi' (taken
    once; they take no part in ==), min_deriv and immersed.

    min_deriv is the minimum of |Phi'| over the r = 1 ring of
    BOUNDARY_RING_N angles (one fold, _abs_on_rings); for an immersed map
    the minimum principle makes it the minimum over the closed disk, up to
    the ring's sampling.  immersed says that Phi' has no zero in the closed
    disk.  certified is build_phi's Rouche verdict on its own spectrum, and
    only build_phi passes it; that test rests on two premises it does not
    check, a geometric decay of the modes above n/2 and the grid minimum of
    e^lambda standing for its minimum on the circle (see build_phi).
    Without it, immersion is the argument principle with a sampling guard:
    no zero of Phi' counted in the disk (_zero_count).
    """

    coeffs: np.ndarray
    immersed: bool = field(init=False)
    min_deriv: float = field(init=False)
    normalized_at_one: bool = True
    deriv_coeffs: np.ndarray = field(init=False, compare=False, repr=False)
    _: KW_ONLY
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
        total = _energy(c)
        if self.normalized_at_one and abs(np.sum(c)) > 1e-10 * max(1.0, np.sqrt(total)):
            raise InvalidInput(f"normalization Phi(1) = 0 violated: |Phi(1)| = {abs(np.sum(c)):.2e}")
        dcoef = _derivative(c)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "deriv_coeffs", dcoef)
        ring = _boundary_ring(BOUNDARY_RING_N)
        object.__setattr__(self, "min_deriv", float(np.min(_abs_on_rings(dcoef, ring))))
        object.__setattr__(self, "immersed", certified or _zero_count(dcoef) == 0)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def derivative(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), self.deriv_coeffs)


class RingPowers:
    """Power tables of one ring geometry: rings of the given centers c_i, each
    sampled at the n grid angles.  P[i, b] = (-c_i)^b for b < n is built
    once; V[i, q] = (-c_i)^(qn) grows to the most columns any series has
    asked for.  Entry (i, q) does not depend on how many columns there are,
    so a slice of a grown table is bit for bit the table built to that size.
    Powers of -c are an exact sign times |c|^k and e^{ik arg c}, which is 1
    on real rings.  Every table is read-only: the cached geometries
    (_boundary_ring, _mesh_cache) hand the same one to every caller.
    """

    def __init__(self, centers, n: int):
        c = np.asarray(centers, dtype=complex)[:, None]
        self.n = n
        self._r, self._arg = np.abs(c), np.angle(c)
        self.P = self._powers(np.arange(n))
        self._V = self._powers(np.zeros(0, dtype=int))
        for a in (self._r, self._arg, self.P, self._V):
            a.setflags(write=False)

    def _powers(self, k):  # (-c)^k for every center, k a row of exponents
        with np.errstate(under="ignore"):
            return np.where(k & 1, -1.0, 1.0) * np.power(self._r, k) * np.exp(1j * self._arg * k)

    def V(self, q_count: int) -> np.ndarray:
        have = self._V.shape[1]
        if q_count > have:
            grown = self._powers(self.n * np.arange(have, q_count))
            self._V = np.concatenate([self._V, grown], axis=1)
            self._V.setflags(write=False)
        # contiguous, as a table built to q_count columns would be
        return np.ascontiguousarray(self._V[:, :q_count])


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


def _on_rings(coef: np.ndarray, rings: RingPowers) -> np.ndarray:
    """sum_k coef_k (c e^{i theta_j})^k on the ring of each center c of
    rings at its n grid angles theta_j = -pi + 2 pi j / n, as a complex
    (len(centers), n) array.  coef ends at its last nonzero entry, as
    DiskMap.coeffs and deriv_coeffs do: trailing zeros would cost folds.

    Since e^{i k theta_j} = (-1)^k e^{2 pi i jk/n}, the coefficients times
    (-c)^k fold into n bins and one inverse FFT per ring gives all n values,
    so very high series orders stay cheap.  All rings fold at once: with
    k = q n + b and the coefficients as a (Q x n) block A[q, b] = coef_k,
    the bins of ring i are P[i, b] (V @ A)[i, b], and one batched inverse
    FFT takes every ring.  P and V come from the tables of the geometry
    (a boundary ring, or the distance mesh of conformal_distance),
    so a call computes no powers unless its Q is the largest yet.
    Temporaries are O(rings (n + Q) + order), never a (rings x order) array.
    """
    n = rings.n
    q_count = max(-(-coef.size // n), 1)
    block = np.zeros(q_count * n, dtype=complex)
    block[: coef.size] = coef
    folded = rings.P * (rings.V(q_count) @ block.reshape(q_count, n))
    return np.fft.ifft(folded, axis=-1) * n


def _abs_on_rings(coef: np.ndarray, rings: RingPowers) -> np.ndarray:
    """|_on_rings(coef, rings)|: the modulus of the series on each ring."""
    return np.abs(_on_rings(coef, rings))


@lru_cache(maxsize=16)
def _boundary_ring(n: int) -> RingPowers:
    """The r = 1 ring of n grid angles: min_deriv's (n = BOUNDARY_RING_N),
    and the boundary grids of boundary_polyline and conformal_distance."""
    return RingPowers(np.ones(1), n)


def _boundary_values(coef: np.ndarray, n: int) -> np.ndarray:
    """The series coef at the n grid angles of the unit circle, one fold."""
    return _on_rings(coef, _boundary_ring(n))[0]


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


def make_disk_map(coeffs, normalized_at_one: bool = True) -> DiskMap:
    """The DiskMap of a coefficient vector: the constructor's checks, its
    min_deriv and its immersion verdict by the argument principle (see
    DiskMap)."""
    return DiskMap(coeffs, normalized_at_one)


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
    return DiskMap(coeffs, True, certified=bt.completed and 2.0 * neg_l1 < floor)


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
    followed by re-projection to order M = max(2 * d.coeffs.size - 1, 256),
    about twice the degree of d, as f stretches the boundary near a; as in
    build_phi, _truncate_with_guard raises UnderResolved (t too close to 1
    for the series order) before NotHolomorphic.  The
    recentered map is certified by the argument principle (make_disk_map):
    f is a diffeomorphism of the closed disk, so losing d's immersion can
    only mean under-resolution, UnderResolved.
    """
    a = complex(a)
    _check_recentering(a, t)
    M = max(2 * d.coeffs.size - 1, 256)
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


@lru_cache(maxsize=8)
def _mesh_cache(n_boundary: int):
    """The distance mesh of n_boundary points with the power tables of its
    edge-midpoint rings."""
    mesh = build_polar_mesh(n_boundary)
    return mesh, RingPowers(mesh.mid_centers, n_boundary)


def _chord_in_image(w: np.ndarray, a: int, b: int) -> bool:
    """Whether the polygon w is simple and the chord w[a] -> w[b] between
    two of its vertices lies in the closed region it bounds.

    Three tests, each erring only towards False: segment_hits finds no
    pair of edges that cross or come near (clean or suspect); no edge
    that is not incident to w[a] or w[b] meets the chord, touching
    included (segment_meets); the chord's midpoint has winding number 1.
    The open chord then meets the polygon, if at all, along the edges
    incident to its ends, collinearly; no other edge can join those to
    the rest of the chord.  So the rest lies on one side, and the
    midpoint's winding number puts it inside: the chord lies in the
    closed region.  A chord between neighbouring vertices is an edge of
    the simple polygon and needs no more (its midpoint lies on the
    polygon, where a winding number is undecided).  Edge k runs from w[k]
    to w[k + 1]; a < b.
    """
    verts = np.column_stack([w.real, w.imag])
    ends = np.roll(verts, -1, axis=0)
    if segment_hits(verts, ends)[0].size:
        return False
    if b - a in (1, w.size - 1):
        return True
    others = np.ones(w.size, dtype=bool)
    others[[a - 1, a, b - 1, b]] = False  # a - 1 = -1 wraps to the last edge
    if np.any(segment_meets(verts[a], verts[b], verts[others], ends[others])):
        return False
    return bool(winding_batch(0.5 * (verts[a] + verts[b])[None, :], verts)[0] == 1)


def conformal_distance(d: DiskMap, p: complex, q: complex, n_boundary: int = 256) -> float:
    """Distance between boundary points in the metric |Phi'| |dz|.

    p and q round to their nearest of the n_boundary grid angles, the
    boundary nodes (n_boundary >= 8, else InvalidInput); distinct endpoints
    that round to one node raise InconclusiveMesh, since the grid cannot
    resolve their distance.

    Exact route.  Phi at the boundary nodes is one fold of d.coeffs on the
    r = 1 ring (_boundary_values), and the chord between the two endpoint
    nodes is certified when d is immersed and _chord_in_image holds: the
    image polygon is simple, and the chord lies in the region it bounds.  An immersion of the closed disk whose boundary
    curve is simple is an embedding, so the image is that region, a path in
    the metric is a curve in it of the same Euclidean length, and the chord
    is the shortest: the distance is |Phi(node q) - Phi(node p)|.  Two
    premises are not checked.  immersed rests on build_phi's Rouche test
    for its maps (see build_phi), and the polygon through the n_boundary
    nodes stands in for the true boundary curve, so an image that turns
    between two nodes is judged by its polygon.  Every map the quantization
    lab builds is a bubble, a Moebius map with a round image: each of its
    chords is certified.

    Mesh route, wherever the certificate fails: a graded polar
    triangulation with boundary spacing 2*pi/n, edge weight |Phi'(midpoint)|
    times edge length, and a nonnegative-weights shortest path.  |Phi'| is
    evaluated once per undirected edge, ring by ring on the mesh's midpoint
    rings, so the weights are exactly symmetric.  Truncated series are
    finite on the closed disk, so no puncture is needed.

    Both routes take the endpoint nodes in ascending order, so D(p, q) ==
    D(q, p) bit for bit.
    """
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
            f"endpoints {p:.6g} and {q:.6g} share a boundary node of the "
            f"{n_boundary}-point mesh"
        )
    if d.immersed:
        w = _boundary_values(d.coeffs, n_boundary)
        if _chord_in_image(w, a, b):
            return float(abs(w[b] - w[a]))
    mesh, rings = _mesh_cache(n_boundary)
    speed = _abs_on_rings(d.deriv_coeffs, rings).ravel()[mesh.edge_ring]
    weights = speed * mesh.edge_lengths
    return shortest_path_distance(mesh, weights, a, b)


# --- boundary polyline export ------------------------------------------------

def boundary_polyline(bt_or_map, n_vertices: int = 512):
    """Vertices of the boundary image curve at the grid angles.

    For a DiskMap this is one fold of its series on the r = 1 ring of
    n_vertices grid angles (_boundary_values), the values the exact route
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
    z = _boundary_values(d.coeffs, n_vertices)
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
