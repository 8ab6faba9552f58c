"""Holomorphic disk maps from boundary data.

From boundary data lambda (smooth grid plus optional log anchors) the
analytic completion supplies the conjugate rho, the boundary derivative
phi = e^{lambda + i rho}, and the map itself as a power series with the
normalization Phi(1) = 0.  Boundary curvature, Moebius recentering, the
conformal boundary distance, and Blaschke test fixtures live here too.

Anchored traces have a power-law boundary singularity; their boundary
polylines are built by per-cell quadrature of the boundary derivative
(spectral.singular_cell_integrals) rather than through the truncated series,
which would trip the resolution guard.

Inside the disk |Phi'| is only needed on uniform polar rings: the 64 x 256
lattice of the immersion test and the edge-midpoint rings of the distance
mesh.  All rings of a call fold the coefficients at once, through
one matrix product, and share one batched inverse FFT (_abs_on_rings), so
series orders of 10^5 stay cheap.  The powers of the ring centers that the
fold multiplies by belong to the ring geometry, not to the series
(RingPowers): the test lattice holds one table and each cached
distance mesh holds another, so a call of either geometry computes powers
only for a series longer than any before it.  The recentered boundary
moduli of quant.recentered_lambda_sequence take Phi' at off-grid points of
the unit circle instead: spectral.eval_modes sums its one-sided series.

A disk map costs a fixed number of passes over its n-point grid.  The
analytic completion reads one real half spectrum for its band-limit guard
and its Hilbert step.  Boundary samples become series in one place,
_boundary_modes (one in-place forward FFT): build_phi, mobius_recenter and
blaschke_fixture each truncate its modes under their own tail guard, and
the first two then check its negative-frequency share.  A series is measured up to its
last nonzero coefficient by one argmax, not by listing every nonzero index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InconclusiveMesh, InvalidInput, NotHolomorphic, UnderResolved
from .mesh import build_polar_mesh, shortest_path_distance
from .spectral import (
    BAND_LIMIT_ENERGY,
    TWO_PI,
    PeriodicGrid,
    SingularField,
    ValueEquality,
    _apply_multiplier,
    _hilbert_multiplier,
    band_limit_fraction,
    circle_trapezoid,
    conjugate_profile,
    grid_angles,
    log_profile,
    real_half_spectrum,
    singular_cell_integrals,
    singular_half_laplacian,
)

TAIL_ENERGY_LIMIT = 1e-6
NEG_FREQ_LIMIT = 1e-6


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary data lambda together with its harmonic conjugate.

    The smooth part of lam is real.  rho_smooth is its Hilbert transform;
    each anchor contributes its closed-form sawtooth conjugate on evaluation.
    The boundary derivative of the map is phi = e^{lambda + i rho}.
    """

    lam: SingularField
    rho_smooth: PeriodicGrid

    @property
    def n(self) -> int:
        return self.lam.n

    @property
    def anchors(self) -> tuple:
        return self.lam.anchors

    def lambda_grid(self) -> np.ndarray:
        return self.lam.grid_values()

    def rho_grid(self) -> np.ndarray:
        vals = self.rho_smooth.values.copy()
        th = grid_angles(self.n)
        for t0, c in self.anchors:
            vals += c * conjugate_profile(th, t0)
        return vals

    def phi_grid(self) -> np.ndarray:
        """Boundary derivative samples e^{lambda + i rho} (non-finite at anchors)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(self.lambda_grid() + 1j * self.rho_grid())


def analytic_completion(lam) -> BoundaryTrace:
    """Harmonic conjugate of the boundary data: rho = H(lambda_smooth) plus the
    closed-form sawtooth conjugate of each log anchor.

    Raises UnderResolved when the smooth part fails the band-limit guard (the
    top decile of its spectrum carries over 1% of the energy), and
    InvalidInput when it is complex: lambda is real.  The guard and the
    Hilbert step read one half spectrum, modes 0 .. n/2 of the smooth part;
    the full mirrored spectrum is never built.
    """
    if not isinstance(lam, (SingularField, PeriodicGrid)):
        lam = PeriodicGrid(lam)
    field = SingularField.from_grid(lam)
    smooth = field.smooth
    half = real_half_spectrum(smooth)
    frac = band_limit_fraction(smooth, half)
    if frac > BAND_LIMIT_ENERGY:
        raise UnderResolved(f"top decile of boundary spectrum carries {frac:.2%} of energy")
    rho = _apply_multiplier(smooth, _hilbert_multiplier(smooth), half)
    return BoundaryTrace(lam=field, rho_smooth=rho)


@dataclass(frozen=True, eq=False)
class DiskMap(ValueEquality):
    """Power-series map of the closed unit disk.

    coeffs are ascending powers; deriv evaluation uses the differentiated
    series.  immersed is a 64 x 256 polar lattice test, no certificate: it
    misses a zero of Phi' between nodes (Phi'(z) = z - 0.5 e^{0.01 i}).
    """

    coeffs: np.ndarray
    immersed: bool
    min_deriv: float
    normalized_at_one: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def deriv_coeffs(self) -> np.ndarray:
        k = np.arange(1, self.coeffs.size)
        return self.coeffs[1:] * k

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def derivative(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), self.deriv_coeffs)

    def to_json(self) -> dict:
        return {
            "coeffs": [[z.real, z.imag] for z in self.coeffs],
            "normalized_at_one": bool(self.normalized_at_one),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiskMap":
        c = np.array([complex(re, im) for re, im in obj["coeffs"]])
        return make_disk_map(c, normalized_at_one=bool(obj.get("normalized_at_one", True)))


class RingPowers:
    """Power tables of one ring geometry: rings of the given centers c_i, each
    sampled at the n grid angles.  P[i, b] = (-c_i)^b for b < n is built
    once; V[i, q] = (-c_i)^(qn) grows to the most columns any series has
    asked for.  Entry (i, q) does not depend on how many columns there are,
    so a slice of a grown table is bit for bit the table built to that size.
    Powers of -c are an exact sign times |c|^k and e^{ik arg c}, which is 1
    on real rings.
    """

    def __init__(self, centers, n: int):
        c = np.asarray(centers, dtype=complex)[:, None]
        self.n = n
        self._r, self._arg = np.abs(c), np.angle(c)
        self.P = self._powers(np.arange(n))
        self._V = self._powers(np.zeros(0, dtype=int))

    def _powers(self, k):  # (-c)^k for every center, k a row of exponents
        with np.errstate(under="ignore"):
            return np.where(k & 1, -1.0, 1.0) * np.power(self._r, k) * np.exp(1j * self._arg * k)

    def V(self, q_count: int) -> np.ndarray:
        have = self._V.shape[1]
        if q_count > have:
            grown = self._powers(self.n * np.arange(have, q_count))
            self._V = np.concatenate([self._V, grown], axis=1)
        # contiguous, as a table built to q_count columns would be
        return np.ascontiguousarray(self._V[:, :q_count])


def _series_length(coef: np.ndarray) -> int:
    """Length of a series up to its last nonzero coefficient, 0 when every
    one is zero: one boolean mask and an argmax, with no index array."""
    nonzero = coef[::-1] != 0
    last = int(np.argmax(nonzero))
    return coef.size - last if nonzero[last] else 0


def _abs_on_rings(coef: np.ndarray, rings: RingPowers) -> np.ndarray:
    """|sum_k coef_k (c e^{i theta_j})^k| on the ring of each center c of
    rings at its n grid angles theta_j = -pi + 2 pi j / n, as a
    (len(centers), n) array.

    Since e^{i k theta_j} = (-1)^k e^{2 pi i jk/n}, the coefficients times
    (-c)^k fold into n bins and one inverse FFT per ring gives all n values,
    so very high series orders stay cheap.  All rings fold at once: with
    k = q n + b and the coefficients as a (Q x n) block A[q, b] = coef_k,
    the bins of ring i are P[i, b] (V @ A)[i, b], and one batched inverse
    FFT takes every ring.  P and V come from the tables of the geometry
    (the test lattice, or the distance mesh of conformal_distance),
    so a call computes no powers unless its Q is the largest yet.
    Temporaries are O(rings (n + Q) + order), never a (rings x order) array.
    """
    n = rings.n
    size = max(_series_length(coef), 1)
    q_count = -(-size // n)
    block = np.zeros(q_count * n, dtype=complex)
    block[:size] = coef[:size]
    folded = rings.P * (rings.V(q_count) @ block.reshape(q_count, n))
    return np.abs(np.fft.ifft(folded, axis=-1) * n)


@lru_cache(maxsize=1)
def _lattice_rings() -> RingPowers:
    """The 64 x 256 polar test lattice of the immersion test."""
    return RingPowers(np.linspace(0.0, 1.0, 64), 256)


def _lattice_min_deriv(coeffs: np.ndarray):
    dcoef = coeffs[1:] * np.arange(1, coeffs.size)
    vals = _abs_on_rings(dcoef, _lattice_rings())
    return float(np.min(vals)), float(np.max(vals))


def make_disk_map(coeffs, normalized_at_one: bool = True) -> DiskMap:
    """Validate and certify a coefficient vector as a DiskMap.

    Stores the series up to its last nonzero coefficient, padded with zeros
    to twice that length (at least 64), so the stored vector always
    satisfies the tail-energy invariant (the spectral constructors enforce
    the guard on the discarded modes before truncating) and a stored vector
    is stored unchanged.  Checks the Phi(1) = 0 normalization when tagged,
    and tests immersion on the 64 x 256 polar lattice, which can miss a zero
    of Phi' between nodes (see DiskMap).
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2:
        raise InvalidInput("a disk map needs at least two coefficients")
    size = _series_length(c)
    padded = np.zeros(max(2 * size, 64), dtype=complex)
    padded[:size] = c[:size]
    c = padded
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0:
        raise InvalidInput("zero map")
    if normalized_at_one and abs(np.sum(c)) > 1e-10 * max(1.0, np.sqrt(total)):
        raise InvalidInput(f"normalization Phi(1) = 0 violated: |Phi(1)| = {abs(np.sum(c)):.2e}")
    md, top = _lattice_min_deriv(c)
    # strictly positive up to rounding noise relative to the derivative scale
    return DiskMap(coeffs=c, immersed=md > 1e-9 * top, min_deriv=md, normalized_at_one=normalized_at_one)


def _truncate_with_guard(full_coeffs: np.ndarray, M: int) -> np.ndarray:
    """Keep orders 0..M after checking that orders above M/2 are negligible."""
    energy = np.abs(full_coeffs) ** 2
    total = float(np.sum(energy))
    tail = float(np.sum(energy[M // 2 + 1:]))
    if total > 0 and tail > TAIL_ENERGY_LIMIT * total:
        raise UnderResolved(
            f"energy fraction {tail / total:.2e} above order {M // 2} "
            f"(series order {M} cannot represent the map)"
        )
    return full_coeffs[: M + 1]


def _boundary_modes(w: np.ndarray):
    """Modes 0 .. n/2 - 1 of finite complex samples w on the n grid angles,
    and the energy share of modes -n/2 .. -1.  One forward FFT overwrites w:
    position k holds mode k for k < n/2, up to the half-period sign (-1)^k,
    and mode k - n above; no shifted or mirrored spectrum is built.
    """
    if not np.all(np.isfinite(w)):
        raise UnderResolved("boundary samples are non-finite on the sampling grid")
    pos, neg = np.split(np.fft.fft(w, norm="forward", out=w), 2)
    pos[1::2] *= -1
    neg_energy = float(np.sum(np.abs(neg) ** 2))
    total = neg_energy + float(np.sum(np.abs(pos) ** 2))
    return pos, neg_energy / total if total else 0.0


def build_phi(bt: BoundaryTrace) -> DiskMap:
    """Integrate the boundary derivative into the disk map.

    phi = e^{lambda + i rho} is exponentiated on the trace's own n-point
    grid, its nonnegative modes become the derivative coefficients, and
    term-by-term integration with the constant fixed by Phi(1) = 0 gives the
    map, truncated to order n/2 under the tail guard.

    One array carries the whole path: lambda and rho are written into its
    real and imaginary parts, exponentiated in place, and overwritten by the
    FFT of _boundary_modes.

    The grid needs no oversampling.  On n points, modes n/2 .. n-1 of phi
    fold onto the negative frequencies -n/2 .. -1, which the
    negative-frequency guard measures; only modes >= n fold onto kept
    coefficients, and those are smaller than the tail above order n/4 that
    the truncation guard already bounds.  So a finer grid changes nothing
    above the truncation floor.  The tail guard runs first: an
    under-resolved holomorphic map raises UnderResolved, and NotHolomorphic
    is left to phi with significant negative-frequency energy on a resolved
    grid.
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
        np.exp(w, out=w)
    pos, frac = _boundary_modes(w)
    # integrate every available nonnegative mode, then truncate under the guard
    full = np.zeros(n // 2 + 1, dtype=complex)
    np.divide(pos, np.arange(1, n // 2 + 1), out=full[1:])
    coeffs = _truncate_with_guard(full, n // 2)
    if frac > NEG_FREQ_LIMIT:
        raise NotHolomorphic(
            f"negative-frequency energy fraction {frac:.2e} of boundary derivative"
        )
    coeffs[0] = -np.sum(coeffs[1:])
    return make_disk_map(coeffs)


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
    followed by re-projection to the order of d (at least 256); the tail
    guard (t too close to 1 for the series order) raises UnderResolved
    before the negative-frequency guard raises NotHolomorphic.
    """
    a = complex(a)
    _check_recentering(a, t)
    M = max(d.coeffs.size - 1, 256)
    N = 1 << int(np.ceil(np.log2(8 * M)))
    th = grid_angles(N)
    z = np.exp(1j * th)
    w = (z - t * a) / (1 - t * np.conj(a) * z)
    pos, frac = _boundary_modes(d(w))
    coeffs = _truncate_with_guard(pos, M)
    if frac > NEG_FREQ_LIMIT:
        raise NotHolomorphic("recentered map lost holomorphy (sampling artifact)")
    coeffs[0] -= np.sum(coeffs)
    out = make_disk_map(coeffs)
    if d.immersed and not out.immersed:
        # f is a diffeomorphism of the closed disk; only resolution can break this
        raise UnderResolved("immersion certificate lost under recentering")
    return out


def blaschke_fixture(zeros) -> DiskMap:
    """Finite product of disk automorphism factors with the given zeros.

    Generates boundary curves of known degree n for the curve-topology
    machinery; for n >= 2 the derivative vanishes inside the disk, so the
    lattice immersion test fails (as it must).
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
    pos, _ = _boundary_modes(vals)
    coeffs = _truncate_with_guard(pos, n_grid // 4)
    return make_disk_map(coeffs, normalized_at_one=False)


@lru_cache(maxsize=8)
def _mesh_cache(n_boundary: int):
    """The distance mesh of n_boundary points with the power tables of its
    edge-midpoint rings."""
    mesh = build_polar_mesh(n_boundary)
    return mesh, RingPowers(mesh.mid_centers, n_boundary)


def conformal_distance(d: DiskMap, p: complex, q: complex, n_boundary: int = 256) -> float:
    """Shortest-path length between boundary points in the metric |Phi'| |dz|.

    Graded polar triangulation with boundary spacing 2*pi/n, edge weight
    |Phi'(midpoint)| times edge length, nonnegative-weights shortest path.
    |Phi'| is evaluated once per undirected edge, ring by ring on the mesh's
    midpoint rings, so the weights are exactly symmetric, and so is the
    distance: D(p, q) == D(q, p) bit for bit.  Truncated series
    are finite on the closed disk, so no puncture is needed.  Distinct
    endpoints that round to one boundary node raise InconclusiveMesh: the
    mesh cannot resolve their distance.
    """
    p, q = complex(p), complex(q)
    for z in (p, q):
        if abs(abs(z) - 1.0) > 1e-9:
            raise InvalidInput("distance endpoints must lie on the unit circle")
    if abs(p - q) < 1e-12:
        raise InvalidInput("endpoints must be distinct")
    mesh, rings = _mesh_cache(n_boundary)
    src, dst = mesh.boundary_node(p), mesh.boundary_node(q)
    if src == dst:
        raise InconclusiveMesh(
            f"endpoints {p:.6g} and {q:.6g} share a boundary node of the "
            f"{n_boundary}-point mesh"
        )
    speed = _abs_on_rings(d.deriv_coeffs, rings).ravel()[mesh.edge_ring]
    weights = speed * mesh.edge_lengths
    return shortest_path_distance(mesh, weights, src, dst)


# --- boundary polyline export ------------------------------------------------

def boundary_polyline(bt_or_map, n_vertices: int = 512):
    """Vertices of the boundary image curve at the grid angles.

    For a DiskMap this is direct series evaluation.  For an anchored
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
    z = d(np.exp(1j * grid_angles(n_vertices)))
    return np.column_stack([z.real, z.imag]), {}


def _singular_boundary_polyline(bt: BoundaryTrace, n: int):
    th = grid_angles(n)
    h = TWO_PI / n
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
        jc = int(np.round((t0 + np.pi) / h)) % n
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
