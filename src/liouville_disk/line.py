"""Stereographic dictionary between the half-Laplacian Liouville equation on
the real line and its circle pullback with a point defect at -i.

The projection used throughout maps z on the unit circle (minus -i) to
x = Re z / (1 + Im z); its inverse sends x to (2x/(1+x^2), -1 + 2/(1+x^2)).
The key algebraic identity 1 + sin(theta(x)) = 2/(1+x^2) turns every line
integral into a circle integral with weight 1/(1+sin theta) and makes the
pullback

    lambda(theta) = u(x(theta)) - log(1 + sin theta)

carry the equation over with an exact Dirac defect (2*pi - Lambda) at -i,
where Lambda is the total curvature integral on the line.

Every sampler of a line function on the n-point circle grid reads the one
cached chart of that grid, circle_chart(n).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    FitWarning,
    InvalidInput,
    NotIntegrable,
    PoleOfProjection,
    SingularMismatch,
)
from .spectral import (
    TWO_PI,
    PeriodicGrid,
    SingularField,
    angular_gap,
    circle_trapezoid,
    grid_angles,
    log_profile,
    real_half_spectrum,
    singular_cell_integrals,
    singular_half_laplacian,
)

POLE_ANGLE = -np.pi / 2


def _eval_vec(f, x: np.ndarray) -> np.ndarray:
    """Evaluate f once on an array; f must return an array of x's shape."""
    out = np.asarray(f(x), dtype=float)
    if out.shape != x.shape:
        raise InvalidInput(
            f"line function returned shape {out.shape} for input of shape {x.shape}; "
            "it must map an array to an array of the same shape"
        )
    return out


def stereo_project(z):
    """Project a circle point (complex) to the real line; -i is the pole."""
    z = np.asarray(z, dtype=complex)
    denom = 1.0 + z.imag
    if np.any(np.abs(denom) < 1e-15):
        raise PoleOfProjection("stereographic projection is undefined at -i")
    out = z.real / denom
    return float(out) if out.ndim == 0 else out


def stereo_inverse(x):
    """Inverse projection: x -> point on the unit circle."""
    x = np.asarray(x, dtype=float)
    out = 2 * x / (1 + x**2) + 1j * (-1 + 2 / (1 + x**2))
    return complex(out) if out.ndim == 0 else out


def angle_of_x(x):
    """Angle theta(x) in (-pi/2, 3pi/2) of the inverse projection; it decreases
    monotonically as x increases."""
    x = np.asarray(x, dtype=float)
    z = stereo_inverse(x)
    th = np.arctan2(np.imag(z), np.real(z))
    th = np.where(th < POLE_ANGLE, th + TWO_PI, th)
    return float(th) if th.ndim == 0 else th


def _pole_index(n: int) -> int:
    # theta_j = 2 pi j / n - pi hits -pi/2 at j = n/4
    if n <= 0:
        raise InvalidInput(f"grid size must be positive, got {n}")
    if n % 4:
        raise InvalidInput("grid size must be divisible by 4 so -i is a grid point")
    return n // 4


CircleChart = namedtuple("CircleChart", "thetas pole off_pole x sin tau")


@lru_cache(maxsize=8)
def circle_chart(n: int) -> CircleChart:
    """The n-point circle grid seen from the line, cached; n % 4 == 0.

    Read-only fields: thetas, the grid angles; pole, the index of -i; off_pole,
    the mask of the other n - 1 points; x and sin, Pi(theta_j) and
    sin(theta_j) there in grid order; tau, the angles unwrapped to
    [-pi/2, 3pi/2) in rising order, which is the rotation of the grid that
    starts at index pole, closed by the first one plus 2 pi.
    """
    th = grid_angles(n)
    jp = _pole_index(n)
    off = np.arange(n) != jp
    # unwrapped by index: for some n that are not powers of two the rounded
    # angle at j = n/4 falls just below -pi/2
    tau = _close_period(th, jp)
    tau[n - jp :] += TWO_PI
    chart = CircleChart(th, jp, off, stereo_project(np.exp(1j * th[off])), np.sin(th[off]), tau)
    for a in (th, off, chart.x, chart.sin, tau):
        a.setflags(write=False)
    return chart


def _close_period(values, start: int) -> np.ndarray:
    """values rotated to begin at index start, closed by repeating the first
    one: the order nested_window_integrals takes, once the last angle is
    moved on by a period."""
    return np.concatenate([values[start:], values[: start + 1]])


# offsets from the pole of the samples that fix the value there
POLE_NEIGHBORS = np.array([-4, -3, -2, -1, 1, 2, 3, 4])


def _fitted_pole(chart: CircleChart, values_at) -> float:
    """Value at the pole of the degree-7 polynomial through the samples at
    offsets POLE_NEIGHBORS from it; values_at(points) gives the samples at
    chart points (indices into chart.x).  The pole itself, its own
    neighbour on grids of fewer than 9 points, enters the fit as 0."""
    n = chart.thetas.size
    near = (chart.pole + POLE_NEIGHBORS) % n
    off = near != chart.pole
    neighbors = np.zeros(near.size)
    neighbors[off] = values_at(near[off] - (near[off] > chart.pole))
    coef = np.polynomial.polynomial.polyfit(POLE_NEIGHBORS.astype(float), neighbors, 7)
    return float(np.polynomial.polynomial.polyval(0.0, coef))


def _with_pole(chart: CircleChart, off_values, pole_value: float | None) -> np.ndarray:
    """Grid samples from off_values, a float array at the chart points.  The
    pole takes pole_value, or else the _fitted_pole value."""
    out = np.zeros(chart.thetas.size)
    out[chart.off_pole] = off_values
    if pole_value is None:
        pole_value = _fitted_pole(chart, lambda at: off_values[at])
    out[chart.pole] = pole_value
    return out


@dataclass(frozen=True)
class LineField:
    """A line function u represented by its circle pullback lambda.

    field holds lambda as smooth grid + optional log anchors; the anchor at
    -pi/2 with coefficient beta encodes non-bubble decay of u, i.e.
    Lambda = 2*pi - beta.
    """

    field: SingularField

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def beta(self) -> float:
        """Declared defect coefficient: the anchor strength at -i (0 when no
        anchor lies within 1e-9 of it)."""
        for t, c in self.field.anchors:
            if angular_gap(t, POLE_ANGLE) <= 1e-9:
                return c
        return 0.0

    def lambda_grid(self) -> np.ndarray:
        return self.field.grid_values()

    def to_json(self) -> dict:
        obj = {"kind": "grid"}
        obj.update(self.field.smooth.to_json())
        obj["anchors"] = [[t, c] for t, c in self.field.anchors]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "LineField":
        grid = PeriodicGrid.from_json(obj)
        anchors = tuple((t, c) for t, c in obj.get("anchors", []))
        return cls(SingularField(grid, anchors))


@dataclass(frozen=True)
class CurvatureData:
    """Line-side curvature K stored as kappa = K o Pi on the circle grid."""

    kappa: PeriodicGrid

    @classmethod
    def from_evaluator(cls, K, n: int) -> "CurvatureData":
        chart = circle_chart(n)
        return cls(PeriodicGrid(_with_pole(chart, _eval_vec(K, chart.x), None)))

    @classmethod
    def constant(cls, value: float, n: int) -> "CurvatureData":
        return cls(PeriodicGrid(np.full(n, float(value))))


# asymptotic_slope fits TAIL_POINTS samples of each tail over TAIL_WINDOW
# and warns above a residual of TAIL_RESIDUAL
TAIL_WINDOW = (1e2, 1e4)
TAIL_POINTS = 64
TAIL_RESIDUAL = 0.1


def _tail_design():
    """The fixed sample points of asymptotic_slope, both tails, and its
    least-squares design matrix [-log(1 + |x|), 1]."""
    tail = np.geomspace(*TAIL_WINDOW, TAIL_POINTS)
    xs = np.concatenate([tail, -tail])
    X = -np.log1p(np.abs(xs))
    design = np.column_stack([X, np.ones_like(X)])
    xs.setflags(write=False)
    design.setflags(write=False)
    return xs, design


TAIL_XS, TAIL_DESIGN = _tail_design()


def asymptotic_slope(u):
    """Least-squares slope of u(x) against -log(1+|x|) over the far field.

    For solutions the slope estimates Lambda/pi.  The additive constant in
    the representation formula is estimated jointly and discarded, so the
    estimate does not depend on it.  The sample points TAIL_XS and the
    design matrix TAIL_DESIGN are fixed, so they are built once, on import;
    u gets a copy of the points, which it may overwrite.
    """
    A = TAIL_DESIGN
    ys = _eval_vec(u, TAIL_XS.copy())
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(coef[0])
    resid = float(np.max(np.abs(A @ coef - ys)))
    # each tail should drift monotonically when the slope is meaningful
    monotone = True
    for side in (ys[:TAIL_POINTS], ys[TAIL_POINTS:]):
        d = np.diff(side)
        if not (np.all(d <= 1e-9) or np.all(d >= -1e-9)):
            monotone = False
    if slope > 0.2 and not monotone:
        warnings.warn(f"non-monotone tail, residual {resid:.3g}", FitWarning, stacklevel=2)
    elif resid > TAIL_RESIDUAL:
        warnings.warn(f"tail fit residual {resid:.3g}", FitWarning, stacklevel=2)
    return slope


def pull_back(u, n: int, anchor_coeff: float | None = None, pole_value: float | None = None) -> LineField:
    """Sample lambda(theta) = u(Pi(theta)) - log(1+sin theta) on the grid.

    The defect coefficient at -i is detected by a tail fit of u unless
    supplied: beta = 2*pi - pi*slope, snapped to zero below 0.15 (the fit
    cannot resolve finer).  pole_value, when given, is the exact limit of
    lambda at -i, bypassing extrapolation.
    """
    chart = circle_chart(n)
    lam = _eval_vec(u, chart.x) - np.log1p(chart.sin)
    if not np.all(np.isfinite(lam)):
        raise InvalidInput("non-finite lambda samples away from -i")

    if anchor_coeff is None:
        slope = asymptotic_slope(u)
        beta = TWO_PI - np.pi * slope
        if abs(beta) < 0.15:
            beta = 0.0
    else:
        beta = float(anchor_coeff)

    if beta != 0.0:
        lam -= beta * log_profile(chart.thetas[chart.off_pole], POLE_ANGLE)
    smooth = PeriodicGrid(_with_pole(chart, lam, pole_value))
    anchors = ((POLE_ANGLE, beta),) if beta != 0.0 else ()
    return LineField(SingularField(smooth, anchors))


def _integrand(f, x, sin) -> np.ndarray:
    """g = f(x) / (1 + sin theta) at chart points off the pole, all of them
    checked to be finite."""
    g = _eval_vec(f, x) / (1.0 + sin)
    if not np.all(np.isfinite(g)):
        raise NotIntegrable("circle-side integrand is non-finite away from -i")
    return g


def _check_pole(g) -> None:
    if not np.isfinite(g):
        raise NotIntegrable("circle-side integrand diverges at -i")


def window_samples(f, n: int, ta: float, tb: float, pole_value: float | None = None):
    """The samples (tau, g) that an integral over the arc [ta, tb] of the
    unwrapped angle reads, and only those: g = f(Pi(theta)) / (1 + sin theta)
    at the angles tau of circle_chart(n).tau, which rise from the pole.

    They are the slice of circle_chart(n).tau from the last angle at or below
    ta to the first at or above tb: every angle inside the arc and one
    neighbour beyond each end.  nested_window_integrals over [ta, tb], or
    over any arcs inside it, gives on the slice the same bits as on the
    samples of the whole circle.  f is evaluated at the slice's points only,
    and a non-finite sample raises NotIntegrable.  A slice that reaches the
    pole (either end of tau) takes pole_value there, or else the _fitted_pole
    value of f at the pole's 8 neighbours.
    """
    chart = circle_chart(n)
    lo = min(max(int(np.searchsorted(chart.tau, ta, side="right")) - 1, 0), n - 1)
    hi = max(min(int(np.searchsorted(chart.tau, tb, side="left")), n), lo + 1)
    # tau[k], 0 < k < n, is chart point (pole - 1 + k) mod (n - 1)
    k0, k1 = max(lo, 1), min(hi, n - 1)
    start = (chart.pole - 1 + k0) % (n - 1)
    stop = start + k1 - k0 + 1
    g = _integrand(f, _cyclic_slice(chart.x, start, stop), _cyclic_slice(chart.sin, start, stop))
    if lo == 0 or hi == n:
        if pole_value is None:
            pole_value = _fitted_pole(chart, lambda at: _integrand(f, chart.x[at], chart.sin[at]))
        pole_value = float(pole_value)
        _check_pole(pole_value)
        g = np.concatenate([[pole_value] * (lo == 0), g, [pole_value] * (hi == n)])
    return chart.tau[lo : hi + 1], g


def _cyclic_slice(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    """values[start:stop] read cyclically; 0 <= start < len(values) and
    stop - start <= len(values)."""
    if stop <= values.size:
        return values[start:stop]
    return np.concatenate([values[start:], values[: stop - values.size]])


def nested_window_integrals(xs, ys, windows) -> np.ndarray:
    """Integral over each window [a, b] of the piecewise-linear interpolant
    through (xs, ys), xs ascending; 0.0 for a window that is empty once
    clipped to [xs[0], xs[-1]].

    The trapezoid terms of the cells, (xs[k+1] - xs[k]) (ys[k] + ys[k+1]) /
    2, are formed once for every window.  A window clipped to [xs[0],
    xs[-1]] covers the cells between its first and last knot, lo .. hi - 1,
    whole, and its two ends take the interpolated values np.interp gives:
    the terms summed are [first, cells[lo:hi - 1], last], the array that
    np.trapezoid forms over the knots a, xs[lo:hi], b and sums pairwise.
    So each integral is bit for bit np.trapezoid's, though a window costs
    O(log n) plus one sum over its own cells.
    """
    cells = np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0
    out = np.zeros(len(windows))
    for i, (a, b) in enumerate(windows):
        a, b = max(a, xs[0]), min(b, xs[-1])
        if b <= a:
            continue
        lo, hi = np.searchsorted(xs, a, side="right"), np.searchsorted(xs, b, side="left")
        ya, yb = np.interp((a, b), xs, ys)
        if lo == hi:  # no knot inside: one cell from a to b
            out[i] = (b - a) * (yb + ya) / 2.0
            continue
        first = (xs[lo] - a) * (ys[lo] + ya) / 2.0
        last = (b - xs[hi - 1]) * (yb + ys[hi - 1]) / 2.0
        out[i] = np.concatenate([[first], cells[lo : hi - 1], [last]]).sum()
    return out


def integrate_exp_singular(field: SingularField, extra: np.ndarray | None = None) -> float:
    """Integrate extra(theta) * e^{lambda(theta)} over the circle when lambda
    carries log anchors, i.e. the integrand has integrable power-law factors.

    The sum of the cell integrals of spectral.singular_cell_integrals; extra
    may be sampled on a grid of another size than the field's.
    """
    specs = [real_half_spectrum(field.smooth)]
    if extra is not None:
        specs.append(real_half_spectrum(PeriodicGrid(extra)))

    def integrand(nodes, lam, extra_values=1.0):
        return np.exp(lam) * extra_values

    return float(np.sum(singular_cell_integrals(field.n, field.anchors, specs, integrand).real))


@dataclass(frozen=True)
class TransferReport:
    """Residual report for the pulled-back equation."""

    Lambda: float
    beta_declared: float
    beta_required: float
    residual_sup: float
    residual_l2: float
    n: int
    excluded: int

    @property
    def dirac_mismatch(self) -> float:
        return abs(self.beta_declared - self.beta_required)

    def to_json(self) -> dict:
        return {
            "Lambda": self.Lambda,
            "beta_declared": self.beta_declared,
            "beta_required": self.beta_required,
            "dirac_mismatch": self.dirac_mismatch,
            "residual_sup": self.residual_sup,
            "residual_l2": self.residual_l2,
            "n": self.n,
            "excluded": self.excluded,
        }


def transfer_equation(lf: LineField, K: CurvatureData, strict_dirac: bool = True) -> TransferReport:
    """Check the pulled-back equation with defect (2*pi - Lambda) at -i.

    Lambda is measured by quadrature of kappa e^lambda; the required Dirac
    coefficient 2*pi - Lambda is then compared against the declared anchor.
    The data flow is one-directional: the anchor never feeds Lambda.  With
    strict_dirac a required-but-undeclared Dirac mass above 1e-3 raises
    SingularMismatch; verification flows that only want the residual report
    disable it.
    """
    n = lf.n
    if K.kappa.n != n:
        raise InvalidInput("curvature grid size does not match field grid size")
    field = lf.field

    kap = np.asarray(K.kappa.values, dtype=float)
    if field.anchors:
        Lambda = integrate_exp_singular(field, extra=kap)
    else:
        lam = field.smooth.values
        Lambda = float(circle_trapezoid(PeriodicGrid(kap * np.exp(lam))))

    beta_required = TWO_PI - Lambda
    beta_declared = lf.beta
    if strict_dirac and abs(beta_required) > 1e-3 and not field.anchors:
        raise SingularMismatch(
            f"equation requires a Dirac mass {beta_required:.4g} at -i but the "
            "field declares no anchor"
        )

    hl_smooth, _ = singular_half_laplacian(field)
    lam_grid = lf.lambda_grid()
    with np.errstate(over="ignore"):
        residual = hl_smooth.values - (kap * np.exp(lam_grid) - 1.0)

    # exclude anchor grid points and immediate neighbors, where e^lambda blows up
    mask = np.ones(n, dtype=bool)
    th = grid_angles(n)
    for t0, _c in field.anchors:
        mask &= angular_gap(th, t0) > 2.5 * TWO_PI / n
    res = residual[mask]
    return TransferReport(
        Lambda=float(Lambda),
        beta_declared=float(beta_declared),
        beta_required=float(beta_required),
        residual_sup=float(np.max(np.abs(res))),
        residual_l2=float(np.sqrt(np.sum(res**2) * TWO_PI / n)),
        n=n,
        excluded=int(n - mask.sum()),
    )
