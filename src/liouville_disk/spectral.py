"""Exact-order spectral operators on the unit circle.

Grids sample 2*pi-periodic functions at theta_j = 2*pi*j/n - pi, so that for
n divisible by 4 the four points +-1, +-i land on the grid (the south pole -i
at theta = -pi/2 is where log-singular anchors live).

Fourier convention: u_hat(m) = (1/2pi) \\int u(theta) e^{-i m theta} dtheta,
for m = -n/2 .. n/2-1.  With this normalization Parseval reads
mean(|u|^2) = sum |u_hat(m)|^2.

A real grid has a Hermitian spectrum, u_hat(-m) = conj u_hat(m), so it
goes through real-input transforms: real_half_spectrum takes modes
0 .. n/2 from np.fft.rfft, and the multiplier operators return np.fft.irfft
of modes 0 .. n/2, half the work of a complex transform.  The band-limit
guard and the multiplier operators (whose multipliers are built on those
modes only) read that half, never the mirror.  The Hilbert transform,
which disk.analytic_completion shares, multiplies the plain rfft by -i
(_real_conjugate): its multiplier is odd, so the half-period sign flips
would cancel around it.

A complex grid is read as the two real rows of its real and imaginary
parts (_rows), which the same transforms take along the last axis; the
result is put back together once as row 0 + i row 1.  Every multiplier is
Hermitian, so each operator commutes with taking real and imaginary parts,
and the band-limit energies of the two rows add up to the full-spectrum
sum (the cross terms cancel between modes m and -m).

Off the grid a series is a one-sided row c, summed as sum_{k >= 0}
c_k e^{i k theta} by eval_modes: a disk map's derivative series, or a real
grid's half spectrum weighted 1, 2, ..., 2, 1 (one_sided), whose sum has
the interpolant as its real part.  analyze's full ascending spectrum
(SpectralRep) is the public view of every mode; no operator reads it.

Operators are diagonal in this basis, and every multiplier is Hermitian,
mult(-m) = conj mult(m) with a real Nyquist entry, so that real data stay
real and the half spectrum of a real row determines the result:

    half-Laplacian      |m|
    Hilbert transform   -i sign(m)      (Nyquist mode zeroed: odd multiplier)
    harmonic extension  r^{|m|}

Log-singular anchors (the fundamental-solution profile translated to an
anchor angle) are carried symbolically: their half-Laplacian is the exact
Dirac-minus-mean pair, never a finite difference of the singularity.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    BandLimitWarning,
    IllConditioned,
    InvalidInput,
    InvalidRadius,
)

TWO_PI = 2.0 * np.pi

# points of every Gauss rule beside a log anchor (singular_cell_rule): 12 to
# 24 all agree with adaptive quadrature to 1e-14; 16 leaves margin where
# Legendre error falls like (2 + sqrt 3)^(-2K)
ANCHOR_RULE_POINTS = 16
_GL_X, _GL_W = leggauss(ANCHOR_RULE_POINTS)

# largest share of oscillatory energy the top decile (|m| >= 0.9 n/2) may carry
BAND_LIMIT_ENERGY = 0.01
BAND_LIMIT_TOP = 0.1

# 10-point Gauss-Legendre rule on [-1, 1] for composite quadrature over grid cells
CELL_GAUSS_X, CELL_GAUSS_W = leggauss(10)


def _check_power_of_two(n: int) -> bool:
    return n >= 8 and (n & (n - 1)) == 0


@lru_cache(maxsize=16)
def grid_angles(n: int) -> np.ndarray:
    """Sample angles theta_j = 2*pi*j/n - pi: one read-only table per n,
    built once and cached for the last 16 sizes (the bubble ladder's
    256 .. 131072 and the smaller grids fit)."""
    th = TWO_PI * np.arange(n) / n - np.pi
    th.setflags(write=False)
    return th


def grid_node(theta: float, n: int) -> int:
    """Index of the grid angle of grid_angles(n) nearest to theta."""
    return int(np.round((theta + np.pi) * n / TWO_PI)) % n


def angular_gap(a, b):
    """Distance of angle a from angle b on the circle, in [0, pi]."""
    return np.abs((a - b + np.pi) % TWO_PI - np.pi)


class ValueEquality:
    """== and hash() by value for frozen dataclasses (eq=False) with read-only
    array fields, whose generated methods raise on arrays.  Arrays match by
    dtype kind and np.array_equal and hash by the bytes of their float64 or
    complex128 values plus 0.0, so -0.0 hashes as 0.0.  A mapping field
    (a read-only mapping proxy has no hash) compares and hashes as its
    sorted items.  Only dataclass fields with compare=True count, not
    cached properties or derived fields."""

    def _fields(self):
        return [
            tuple(sorted(v.items())) if isinstance(v, Mapping) else v
            for v in (getattr(self, f.name) for f in fields(self) if f.compare)
        ]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            a.dtype.kind == b.dtype.kind and np.array_equal(a, b)
            if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._fields(), other._fields())
        )

    def __hash__(self):
        return hash(tuple(
            (v.dtype.kind, (v.astype(complex if v.dtype.kind == "c" else float) + 0.0).tobytes())
            if isinstance(v, np.ndarray) else v
            for v in self._fields()
        ))


@dataclass(frozen=True, eq=False)
class PeriodicGrid(ValueEquality):
    """Samples of a 2*pi-periodic function at n uniform angles.

    n must be a power of two, at least 8.  Values may be real or complex but
    must be finite.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind not in "fc":
            v = v.astype(float)
        if v.ndim != 1 or not _check_power_of_two(v.size):
            raise InvalidInput(
                f"grid length must be a power of two >= 8, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidInput("grid contains non-finite samples")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def thetas(self) -> np.ndarray:
        return grid_angles(self.n)

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind == "f"

    def __add__(self, other):
        if isinstance(other, PeriodicGrid):
            return PeriodicGrid(self.values + other.values)
        return PeriodicGrid(self.values + other)

    def __sub__(self, other):
        if isinstance(other, PeriodicGrid):
            return PeriodicGrid(self.values - other.values)
        return PeriodicGrid(self.values - other)

    def to_json(self) -> dict:
        if self.is_real:
            vals = self.values.tolist()
        else:
            vals = [[z.real, z.imag] for z in self.values]
        return {"n": int(self.n), "values": vals}

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicGrid":
        vals = obj["values"]
        if vals and isinstance(vals[0], (list, tuple)):
            arr = np.array([complex(re, im) for re, im in vals])
        else:
            arr = np.asarray(vals, dtype=float)
        if int(obj["n"]) != arr.size:
            raise InvalidInput("declared n does not match number of values")
        return cls(arr)


@dataclass(frozen=True, eq=False)
class SpectralRep(ValueEquality):
    """Fourier coefficients u_hat(m), m = -n/2 .. n/2-1 ascending."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if not _check_power_of_two(c.size):
            raise InvalidInput("coefficient vector length must be a power of two >= 8")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.size


def analyze(g: PeriodicGrid) -> SpectralRep:
    """Forward transform of a grid to Fourier coefficients.

    The half-period offset of the grid shows up as an alternating phase:
    e^{-i m theta_j} = (-1)^m e^{-2 pi i m j / n}.  As n/2 is even, the odd
    modes sit at the odd positions of the ascending coefficient vector, so
    the phase is a sign flip of every second entry.

    A real grid takes np.fft.rfft for modes 0 .. n/2, and the negative modes
    are their conjugates, so its spectrum is Hermitian bit for bit, with real
    mean and Nyquist coefficients.  A complex grid takes np.fft.fft.
    """
    if not g.is_real:
        c = np.fft.fftshift(np.fft.fft(g.values, norm="forward"))
        c[1::2] *= -1
        return SpectralRep(c)
    half = real_half_spectrum(g)
    # ascending: Nyquist (mode -n/2 = n/2), modes -(n/2 - 1) .. -1, modes 0 .. n/2 - 1
    return SpectralRep(np.concatenate((half[-1:], np.conj(half[-2:0:-1]), half[:-1])))


def _rows(g: PeriodicGrid) -> np.ndarray:
    """The real rows that the transforms read along the last axis: a real
    grid's values, or the two rows (real part, imaginary part) of a complex
    grid."""
    v = g.values
    return v if g.is_real else np.stack((v.real, v.imag))


def _grid_of_rows(rows: np.ndarray) -> PeriodicGrid:
    """The grid whose _rows are rows: one real row, or row 0 + i row 1 with
    both parts copied exactly."""
    if rows.ndim == 2:
        values = np.empty(rows.shape[-1], dtype=complex)
        values.real, values.imag = rows
        rows = values
    return PeriodicGrid(rows)


def real_half_spectrum(g: PeriodicGrid) -> np.ndarray:
    """Coefficients u_hat(m) of a real grid for m = 0 .. n/2, the entries
    that analyze mirrors into the full spectrum: np.fft.rfft with the
    half-period sign flip, and the mean and Nyquist coefficients made real.
    A complex grid gives one such row for each of its _rows."""
    half = np.fft.rfft(_rows(g), norm="forward")
    half[..., 1::2] *= -1
    half.imag[..., [0, -1]] = 0.0
    return half


def one_sided(half: np.ndarray) -> np.ndarray:
    """A real grid's real_half_spectrum weighted 1, 2, ..., 2, 1: the row
    whose eval_modes sum has the grid's interpolant as its real part."""
    row = half.copy()
    row[1:-1] *= 2.0
    return row


def eval_modes(coeffs, thetas: np.ndarray) -> np.ndarray:
    """sum_{k >= 0} c[..., k] e^{i k theta} at arbitrary angles, for one
    coefficient row c or a stack of rows (leading axes, kept in the result).

    The K modes are split as k = b q + r, b = 2^(bit_length(K) // 2) about
    sqrt(K), so e^{i k theta} = e^{i b q theta} e^{i r theta}: every row
    shares the two tables, and each angle costs b + K/b exponentials and a
    share of one matmul, with O(angles (b + K/b)) temporaries per row
    instead of the angles x K matrix.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    coeffs = np.asarray(coeffs)
    *lead, size = coeffs.shape
    b = 1 << (size.bit_length() // 2)
    q = -(-size // b)
    block = np.zeros((*lead, q * b), dtype=complex)
    block[..., :size] = coeffs
    lo = np.exp(1j * np.outer(thetas, np.arange(b)))
    hi = np.exp(1j * np.outer(thetas, np.arange(0, q * b, b)))
    return ((hi @ block.reshape(*lead, q, b)) * lo).sum(axis=-1)


def eval_shifted_grids(half: np.ndarray, offsets, n: int | None = None) -> np.ndarray:
    """Real trigonometric interpolant of a real grid on the shifted grids
    theta_j + delta_k.

    half is the grid's real_half_spectrum (modes 0 .. N/2).  Row k holds
    eval_modes(one_sided(half), grid_angles(n) + offsets[k]).real on an
    n-point grid (default N), Re sum_{m=0}^{N/2} w_m u_hat(m)
    e^{i m (theta_j + delta_k)} with w = 1, 2, ..., 2, 1.  As
    e^{i m theta_j} = (-1)^m e^{2 pi i j m / n}, a row is one np.fft.irfft of
    the phased modes u_hat(m) (-1)^m e^{i m delta_k}, and for n = N irfft's
    own weights 1, 2, ..., 2, 1 are w: O(K n log n) for K offsets instead of
    O(K n^2), with O(K n) temporaries.  Any n >= 1 is exact: e^{i m theta_j}
    depends on m only through (-1)^m and m mod n, so for n != N the weighted
    modes are folded into the n bins m mod n, bin n - k onto bin k
    conjugated (a real part does not see the conjugation), and the interior
    bins halved against irfft's doubling.
    """
    grid_n = 2 * (half.size - 1)
    size = grid_n if n is None else int(n)
    if size < 1:
        raise InvalidInput("target grid size must be positive")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    signed = half.copy()
    signed[1::2] *= -1  # (-1)^m, as in real_half_spectrum
    phased = signed * np.exp(1j * np.outer(offsets, np.arange(half.size)))
    if size != grid_n:
        phased[:, 1:-1] *= 2.0  # the weights w
        folded = np.zeros((offsets.size, size), dtype=complex)
        for start in range(0, half.size, size):
            chunk = phased[:, start : start + size]
            folded[:, : chunk.shape[1]] += chunk
        interior = slice(1, (size + 1) // 2)
        phased = folded[:, : size // 2 + 1]
        phased[:, interior] += np.conj(folded[:, : size // 2 : -1])
        phased[:, interior] *= 0.5
    return np.fft.irfft(phased, size, axis=-1, norm="forward")


def band_limit_fraction(g: PeriodicGrid, s=None) -> float:
    """Share of the oscillatory spectral energy carried by the top decile of
    modes (|m| >= (1 - BAND_LIMIT_TOP) n/2); 0 when the oscillatory part sits
    at the rounding floor.  s is real_half_spectrum(g) when the caller has
    it already; only the moduli of s are read, so the plain np.fft.rfft of
    _rows(g) (no half-period sign flip) serves as well.

    A real row's spectrum is Hermitian, so only modes 0 .. n/2 are read:
    every mode but the mean and the Nyquist mode counts twice.  The energies
    of a complex grid's two rows add up to those of its full spectrum."""
    n = g.n
    cutoff = (1.0 - BAND_LIMIT_TOP) * (n // 2)
    if s is None:
        s = real_half_spectrum(g)
    edge = np.sum(np.abs(s[..., -1]) ** 2)  # the Nyquist mode
    split = int(np.ceil(cutoff))
    top = 2.0 * _energy(s[..., split:-1]) + edge
    total = 2.0 * _energy(s[..., 1:split]) + top
    everything = total + np.sum(np.abs(s[..., 0]) ** 2)
    # ignore grids whose oscillatory part sits at the rounding floor; by
    # Parseval max|g| <= sqrt(n * everything), so the maximum is only taken
    # when that bound does not clear the floor already
    floor = n * 1e-26
    if total <= floor * max(1.0, n * everything) and total <= floor * max(
        1.0, float(np.max(np.abs(g.values)))
    ) ** 2:
        return 0.0
    return float(top / total)


def _energy(c: np.ndarray) -> float:
    """sum |c_k|^2 in one pass, over every row."""
    return float(np.vdot(c, c).real)


def band_limit_guard(g: PeriodicGrid, s=None):
    """Warn when the top decile of the spectrum carries more than
    BAND_LIMIT_ENERGY (1%) of the energy.

    Spectral differentiation of under-resolved data is silently wrong, so
    every multiplier operator calls this, passing the coefficients s =
    real_half_spectrum(g) it goes on to multiply.
    """
    frac = band_limit_fraction(g, s=s)
    if frac > BAND_LIMIT_ENERGY:
        warnings.warn(
            f"top {BAND_LIMIT_TOP:.0%} of spectrum carries {frac:.2%} of energy",
            BandLimitWarning,
            stacklevel=3,
        )


def _multiplier_modes(g: PeriodicGrid) -> np.ndarray:
    """The modes of real_half_spectrum(g), in its order: 0 .. n/2 - 1 and
    then the Nyquist mode as -n/2.  The multiplier operators build mult on
    these modes only."""
    m = np.arange(g.n // 2 + 1)
    m[-1] = -(g.n // 2)
    return m


def _apply_multiplier(g: PeriodicGrid, mult: np.ndarray, s=None) -> PeriodicGrid:
    """The grid whose coefficients are mult(m) u_hat(m), mult given on
    _multiplier_modes(g); s is real_half_spectrum(g) when the caller has it
    already.

    mult must be Hermitian, mult(-m) = conj mult(m) with a real Nyquist
    entry mult(-n/2).  A real row then has a real image, computed from
    modes 0 .. n/2 alone by np.fft.irfft: the same operator as the real part
    of the full complex inverse transform.
    """
    if s is None:
        s = real_half_spectrum(g)
    half = s * mult  # modes 0 .. n/2
    half[..., 1::2] *= -1
    return _grid_of_rows(np.fft.irfft(half, g.n, norm="forward"))


def half_laplacian(g: PeriodicGrid) -> PeriodicGrid:
    """Multiplier |m|; annihilates constants and has zero mean."""
    s = real_half_spectrum(g)
    band_limit_guard(g, s=s)
    return _apply_multiplier(g, np.abs(_multiplier_modes(g)).astype(float), s)


def hilbert(g: PeriodicGrid) -> PeriodicGrid:
    """Conjugation operator, multiplier -i sign(m); output has zero mean."""
    raw = np.fft.rfft(_rows(g), norm="forward")
    band_limit_guard(g, s=raw)
    return _real_conjugate(g, raw)


def _real_conjugate(g: PeriodicGrid, raw: np.ndarray) -> PeriodicGrid:
    """Hilbert transform of g from raw = np.fft.rfft(_rows(g),
    norm="forward"), which it overwrites.

    The multiplier -i sign(m) is odd, so the half-period sign (-1)^m of
    real_half_spectrum would be applied and undone around it: raw is
    multiplied by -i as it stands, and one np.fft.irfft gives the
    conjugate.  The mean and Nyquist bins of an rfft are real, so times -i
    they are imaginary, which irfft discards: the multiplier's zeros there
    come with no extra step.
    """
    raw *= -1j
    return _grid_of_rows(np.fft.irfft(raw, g.n, norm="forward"))


def poisson_extend(g: PeriodicGrid, r: float) -> PeriodicGrid:
    """Harmonic extension to radius r, multiplier r^{|m|} (0^0 = 1, so r = 0
    keeps the mean)."""
    if not (0.0 <= r < 1.0):
        raise InvalidRadius(f"radius must lie in [0, 1), got {r}")
    return _apply_multiplier(g, np.power(float(r), np.abs(_multiplier_modes(g))))


def circle_trapezoid(g: PeriodicGrid) -> float | complex:
    """Uniform-grid trapezoid rule, spectrally accurate for smooth periodic data."""
    return g.values.sum() * TWO_PI / g.n


# --- log-singular anchors ---------------------------------------------------

def log_profile(thetas, theta0: float):
    """Canonical log-singular profile -(1/2pi) log(2(1 - cos(theta - theta0))).

    Its half-Laplacian is the distribution delta_{theta0} - 1/2pi, and its
    Fourier coefficients are e^{-i m theta0}/(2 pi |m|).  Evaluated as
    -(1/pi) log|2 sin(d/2)|, d = theta - theta0, which keeps full relative
    accuracy as d -> 0 (1 - cos d cancels); +inf where d is an exact
    multiple of 2 pi.
    """
    d = np.asarray(thetas, dtype=float) - theta0
    chord = np.where(np.remainder(d, TWO_PI) == 0.0, 0.0, np.abs(2.0 * np.sin(0.5 * d)))
    with np.errstate(divide="ignore"):
        return -np.log(chord) / np.pi


def conjugate_profile(thetas, theta0: float):
    """Harmonic conjugate of :func:`log_profile`: the sawtooth (pi - phi)/(2 pi)
    with phi = (theta - theta0) mod 2 pi.  Mean zero; jumps by +1 across the
    anchor in the counter-clockwise direction.
    """
    thetas = np.asarray(thetas, dtype=float)
    phi = np.mod(thetas - theta0, TWO_PI)
    out = (np.pi - phi) / TWO_PI
    return np.where(phi == 0.0, np.nan, out)


@lru_cache(maxsize=32)
def _jacobi_rule(s: float):
    # Gauss-Jacobi rule for the weight (1 - x)^s on [-1, 1] by Golub-Welsch:
    # the nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    # polynomials, the weights mu0 times the squared first eigenvector
    # components, with mu0 = 2^(s+1)/(s+1) the integral of the weight.  One
    # rule per anchor strength, so the eigenvalue solve runs once per anchor
    k = np.arange(1, ANCHOR_RULE_POINTS)
    diag = np.empty(ANCHOR_RULE_POINTS)
    diag[0] = -s / (s + 2.0)
    j = 2.0 * k + s  # 2k + alpha + beta with alpha = s, beta = 0
    diag[1:] = -s * s / (j * (j + 2.0))
    off = 2.0 * k * (k + s) / (j * np.sqrt((j + 1.0) * (j - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (s + 1.0) / (s + 1.0) * vec[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def singular_cell_rule(lo: float, hi: float, t0: float, s: float):
    """Nodes and weights for the integral over [lo, hi] of
    g(t) * |2 sin((t - t0)/2)|^s, s > -1: the integral is weights @ g(nodes).

    This is the power-law factor e^{c * log_profile} of an anchor at t0 with
    s = -c/pi.  A cell farther than half its length from t0 takes a
    Gauss-Legendre rule times the power factor.  Otherwise the integral is
    F(hi) - F(lo), where F(e) is the signed integral from t0 to e taken by a
    Gauss-Jacobi rule with the |t - t0|^s factor as its weight (F = 0 only
    for an edge exactly at t0; a piece however short keeps its d^(1+s)
    share, which is large for s near -1): a cell split by
    t0 becomes two pieces ending at t0, and a cell just clear of it keeps its
    accuracy.  g must therefore be smooth from t0 to either edge, except for
    a jump at t0 itself.  Every rule has ANCHOR_RULE_POINTS points and no
    node is t0, so an integrand with a jump at t0 (the sawtooth conjugate of
    the anchor) is evaluated on the correct side.
    """
    if max(lo - t0, t0 - hi) >= 0.5 * (hi - lo):
        half = 0.5 * (hi - lo)
        nodes = lo + half * (_GL_X + 1.0)
        return nodes, half * _GL_W * np.abs(2.0 * np.sin(0.5 * (nodes - t0))) ** s
    x, w = _jacobi_rule(s)
    nodes, weights = [], []
    for e, sign in ((hi, 1.0), (lo, -1.0)):
        if e == t0:
            continue
        half = 0.5 * abs(e - t0)
        d = half * (1.0 - x)  # distance to t0, exact from the abscissae
        # a node within one ulp of t0 moves off it, to the side of e
        nodes.append(t0 + np.copysign(np.maximum(d, abs(np.spacing(t0))), e - t0))
        # |2 sin(d/2)|^s = d^s (2 sin(d/2)/d)^s, and d^s is the Jacobi weight
        weights.append(sign * np.sign(e - t0) * w * half ** (1.0 + s) * np.sinc(d / TWO_PI) ** s)
    return np.concatenate(nodes), np.concatenate(weights)


def singular_cell_integrals(n: int, anchors, specs, integrand) -> np.ndarray:
    """Integrals over the n grid cells [theta_j, theta_j + 2 pi/n] of
    integrand(nodes, lam, *rest), where lam is the real interpolant of
    specs[0] plus c * log_profile of every anchor (theta0, c) and rest are
    the real interpolants of the other specs.  Each spec is the
    real_half_spectrum of a real grid, of any size; the mirrored spectrum
    is never built.

    A cell whose midpoint lies within 2.5 cell widths of an anchor takes the
    singular_cell_rule of the first such anchor; its weights carry that
    anchor's power-law factor, so lam leaves out its log part there.  All
    these nodes go through one eval_modes call on the stacked one_sided
    specs (zero-padded to the longest), however large n.  Every other cell
    takes a 10-point Gauss rule whose k-th node lies on the grid shifted by a
    fixed delta_k: one real inverse FFT per node and spec
    (eval_shifted_grids), O(n log n) in all.
    """
    th = grid_angles(n)
    h = TWO_PI / n
    # neighbouring cells share each edge bit for bit: beside an anchor the
    # integrand is too steep for two roundings of one edge to agree
    hi = np.append(th[1:], th[0] + TWO_PI)
    mid = 0.5 * (th + hi)
    regular = np.ones(n, dtype=bool)
    # typed empty columns, so that no anchors gives four empty arrays
    parts = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0), np.empty(0))]
    for i, (t0, c) in enumerate(anchors):
        local = t0 + TWO_PI * np.round((mid - t0) / TWO_PI)  # copy nearest each cell
        hit = regular & (np.abs(mid - local) <= 2.5 * (hi - th) + 1e-12)
        regular &= ~hit
        for j in np.flatnonzero(hit):
            nodes, weights = singular_cell_rule(th[j], hi[j], local[j], -c / np.pi)
            parts.append((np.full(nodes.size, j), np.full(nodes.size, i), nodes, weights))
    cell, owner, nodes, weights = (np.concatenate(column) for column in zip(*parts))

    def values(at, rows, owner):
        lam = rows[0]
        for i, (t0, c) in enumerate(anchors):
            lam = lam + np.where(owner == i, 0.0, c * log_profile(at, t0))
        return integrand(at, lam, *rows[1:])

    offsets = 0.5 * h * (CELL_GAUSS_X + 1.0)
    rows = [eval_shifted_grids(s, offsets, n)[:, regular] for s in specs]
    out = np.zeros(n, dtype=complex)
    out[regular] = 0.5 * h * (CELL_GAUSS_W @ values(th[regular] + offsets[:, None], rows, -1))
    rows = np.zeros((len(specs), max(s.size for s in specs)), dtype=complex)
    for row, s in zip(rows, specs):
        row[: s.size] = one_sided(s)
    rows = eval_modes(rows, nodes).real
    np.add.at(out, cell, weights * values(nodes, rows, owner))
    return out


@dataclass(frozen=True, eq=False)
class SingularField(ValueEquality):
    """Circle function split as a smooth grid plus log-singular anchors.

    smooth must be a real PeriodicGrid (lambda = log|Phi'| is real).
    anchors is a tuple of (theta0, coefficient) pairs; evaluation away from
    every anchor is smooth(theta) + sum of c * log_profile(theta, theta0).
    """

    smooth: PeriodicGrid
    anchors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not (isinstance(self.smooth, PeriodicGrid) and self.smooth.is_real):
            raise InvalidInput("the smooth part of a field must be a real PeriodicGrid")
        anchors = tuple((float(t), float(c)) for t, c in self.anchors)
        object.__setattr__(self, "anchors", anchors)
        h = TWO_PI / self.smooth.n
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                gap = angular_gap(anchors[i][0], anchors[j][0])
                if gap < 2 * h:
                    warnings.warn(
                        f"anchors {i} and {j} are {gap:.2e} apart (< 2 grid cells)",
                        IllConditioned,
                        stacklevel=2,
                    )

    @property
    def n(self) -> int:
        return self.smooth.n

    @classmethod
    def from_grid(cls, g) -> "SingularField":
        if isinstance(g, SingularField):
            return g
        return cls(g, ())

    def grid_values(self) -> np.ndarray:
        """Values at the grid angles (inf at anchor points that sit on the grid)."""
        vals = self.smooth.values.copy()
        th = self.smooth.thetas
        for theta0, c in self.anchors:
            vals = vals + c * log_profile(th, theta0)
        return vals


def singular_half_laplacian(sf: SingularField):
    """Half-Laplacian of a SingularField.

    Returns (smooth part, dirac masses): the grid half_laplacian of the
    smooth component shifted down by sum(c)/2pi, plus the exact masses
    [(theta0, c), ...] carried symbolically.
    """
    sf = SingularField.from_grid(sf)
    smooth_part = half_laplacian(sf.smooth)
    offset = sum(c for _, c in sf.anchors) / TWO_PI
    if offset:
        smooth_part = smooth_part - offset
    masses = [(theta0, c) for theta0, c in sf.anchors]
    return smooth_part, masses
