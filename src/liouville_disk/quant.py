"""Blow-up and quantization checks on explicit solution families.

The exact one-parameter family u(x) = log(2 mu / (1 + mu^2 |x - x0|^2))
solves the unit-curvature equation with total mass 2*pi.  Scaling ladders
mu_k = 2^k concentrate that mass at the center; the machinery here measures
concentration profiles alpha(r, k), detects blow-up points against the
pi threshold, classifies sequences by the drift of the circle mean of the
pullback, probes boundary pinching through the conformal distance, and
audits the lower bound Lambda >= pi on verified solutions.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .disk import (
    IDENTITY_CHART,
    DiskMap,
    _chart_push,
    _check_recentering,
    _on_circle,
    analytic_completion,
    build_phi,
    conformal_distances,
)
from .errors import (
    CenterUnstable,
    InconclusiveLimit,
    InconclusiveMesh,
    InvalidInput,
    InvalidRadius,
    NotHolomorphic,
    TheoremViolation,
    UnderResolved,
)
from .line import (
    POLE_ANGLE,
    CurvatureData,
    LineField,
    angle_of_x,
    asymptotic_slope,
    circle_chart,
    nested_window_integrals,
    pull_back,
    transfer_equation,
    window_samples,
)
from .spectral import TWO_PI, PeriodicGrid, SingularField, grid_angles

# pi/2 - float(pi/2): the rounding of the float pi/2, added back to offsets
_HALF_PI_LO = 6.123233995736766e-17

# thresholds of the blow-up detection and the case dichotomy
THRESHOLD_SLACK = 0.05  # a blow-up mass must clear pi - THRESHOLD_SLACK
DROP_THRESHOLD = 5.0  # case 2: the circle means drop by more than this
DRIFT_THRESHOLD = 1.0  # case 1: the circle means stay within this of the start
MASS_SLACK = 0.02  # tolerance of the mass checks on a declared case

CENTER_GRID_N = 1 << 14  # grid on which locate_centers samples the density
MAX_CENTERS = 4

# the w-grids on which Bubble.disk_map tries its blow-up chart, in order, and
# the grid on which it reads the first mode of e^-lambda that places the chart
CHART_GRIDS = (64, 128, 256, 512, 1024)
PEAK_GRID_N = 8


def _bubble_chart(thetas: np.ndarray):
    """The two real charts of Bubble.lambda_at at angles in [-pi, pi]: the
    mask of the near-pole chart, |t| < pi/2 for the offset t = theta + pi/2,
    its coordinates q = tan(t/2), and the far chart's Pi = tan(s/2) with
    s = pi/2 - theta.  Both offsets carry the digits of pi/2 that the float
    pi/2 drops."""
    t = thetas - POLE_ANGLE
    near_pole = np.abs(t) < np.pi / 2
    q = np.tan((t[near_pole] + _HALF_PI_LO) / 2.0)
    Pi = np.tan((np.pi / 2 - thetas[~near_pole] + _HALF_PI_LO) / 2.0)
    return near_pole, q, Pi


@lru_cache(maxsize=16)
def _grid_chart(n: int):
    """_bubble_chart on the n grid angles: read-only, built once per n and
    cached for the last 16 sizes, like grid_angles (9 bytes a point)."""
    chart = _bubble_chart(grid_angles(n))
    for a in chart:
        a.setflags(write=False)
    return chart


@dataclass(frozen=True)
class Bubble:
    """Closed-form family member of scale mu and center x0: evaluator,
    measure density, and pullback."""

    mu: float
    x0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise InvalidInput(f"scale must be positive and finite, got {self.mu}")
        if not np.isfinite(self.x0):
            raise InvalidInput(f"center must be finite, got {self.x0}")

    def u(self, x):
        x = np.asarray(x, dtype=float)
        return np.log(2 * self.mu / (1 + self.mu**2 * (x - self.x0) ** 2))

    def density(self, x):
        """The measure density K e^u with K = 1."""
        x = np.asarray(x, dtype=float)
        return 2 * self.mu / (1 + self.mu**2 * (x - self.x0) ** 2)

    def lambda_at(self, thetas):
        """Stable pullback at angles in [-pi, pi], in two real charts.

        Near the south pole, |t| < pi/2 for the offset t = theta + pi/2, the
        chart q = tan(t/2) = 1/Pi gives the pole value exactly (-log mu).
        Elsewhere Pi = tan(s/2) with s = pi/2 - theta, which equals
        Re z/(1 + Im z) for z = e^{i theta} with no complex exponential.  On
        [-pi, pi] neither offset needs wrapping: t >= pi lies in the far chart
        either way, and tan(s/2) has period 2 pi in s.  The charts depend on
        the angles alone (_bubble_chart); on the n grid angles they are
        built once per n (_grid_chart), the same bits.
        """
        return self._lambda_on(*_bubble_chart(np.asarray(thetas, dtype=float)))

    def _lambda_on(self, near_pole, q, Pi):
        out = np.empty(near_pole.shape)
        log_mu = np.log(self.mu)
        out[near_pole] = log_mu + np.log(
            (1 + q**2) / (q**2 + self.mu**2 * (1 - self.x0 * q) ** 2)
        )
        out[~near_pole] = log_mu + np.log(
            (1 + Pi**2) / (1 + self.mu**2 * (Pi - self.x0) ** 2)
        )
        return out

    def pull_back(self, n: int) -> LineField:
        return LineField(SingularField(PeriodicGrid(self._lambda_on(*_grid_chart(n)))))

    def lambda_bar(self) -> float:
        """Circle mean of the pullback on the 1024-point grid."""
        return float(np.mean(self._lambda_on(*_grid_chart(1024))))

    def disk_map(self) -> DiskMap:
        """Map of the disk built from the pullback, in a blow-up chart that
        undoes all but a factor 2 of the concentration (disk module
        docstring).

        The chart reads the member's own data.  For a K = 1 bubble e^lambda
        = (1 - |q|^2)/|1 - q z|^2 on the circle, |Phi'| of its Moebius map,
        so e^-lambda has modes -1, 0 and 1 alone, and its first mode c1 =
        -q/(1 - |q|^2), read exactly on PEAK_GRID_N grid angles, puts the
        peak of e^lambda at theta0 = arg(-conj c1).  (angle_of_x(x0) is that
        peak only as mu grows: 1.1 rad away at mu = 1, x0 = 0.3, and for mu
        (1 + x0^2) < 1 the mass gathers towards the pole.)  rho =
        e^{lambda(theta0)} over the circle mean of e^lambda, which is 1 (the
        mass is 2 pi), is the peak-to-mean ratio (1 + |q|)/(1 - |q|).

        The chart takes r = (rho - 2)/(rho + 2), the node density rho/2 at
        theta0, not r = |q|, which would make S = Phi o m linear: then
        lambda o m + log|m'| is flat up to the rounding of lambda near the
        peak (about 1e-16 mu), and the band-limit guard reads that noise.
        With rho/2, S is Phi o m_|q| composed with the automorphism of
        parameter (|q| - r)/(1 - |q| r) = 1/3, whatever mu: its modes decay
        as 3^-k, below rounding by order 32, and its data keeps a profile
        of order 1.  Up to rho = 2 (|q| <= 1/3) the identity chart serves.

        S is build_phi of lambda o m + log|m'| on the first w-grid of
        CHART_GRIDS that passes the guards, 64 points (degree 32) on every
        bubble measured, mu = 2^-4 .. 2^16 and |x0| <= 5.  Where none does,
        the map falls back to the identity chart on the uniform grid of
        2^ceil(log2 20 mu) points, at least 256, whose series order scales
        with mu.
        """
        th = grid_angles(PEAK_GRID_N)
        c1 = np.mean(np.exp(-self.lambda_at(th) - 1j * th))
        theta0 = float(np.angle(-np.conj(c1)))
        rho = float(np.exp(self.lambda_at(np.array([theta0]))[0]))
        chart = (theta0, (rho - 2.0) / (rho + 2.0)) if rho > 2.0 else IDENTITY_CHART
        for n in CHART_GRIDS:
            theta, log_jac = _chart_push(chart, grid_angles(n))
            try:
                return build_phi(analytic_completion(PeriodicGrid(self.lambda_at(theta) + log_jac), chart))
            except (UnderResolved, NotHolomorphic):
                continue
        n = max(256, 1 << int(np.ceil(np.log2(max(256.0, 20.0 * self.mu)))))
        return build_phi(analytic_completion(self.pull_back(n).field))


def bubble(mu: float, x0: float = 0.0) -> Bubble:
    return Bubble(mu, x0)


def verify_solution(u, K, n: int = 512, anchor_coeff=None, pole_value=None):
    """Residual report for a claimed solution: routes through the circle
    pullback and the transferred equation; Lambda and the defect 2*pi - Lambda
    come back in the report.  Non-solutions still get a report (the strict
    Dirac-mismatch guard is for declared-anchor bookkeeping, not testing).
    u is pulled back before K is sampled, so a bad u is reported before a
    bad K."""
    lf = pull_back(u, n, anchor_coeff=anchor_coeff, pole_value=pole_value)
    return transfer_equation(lf, CurvatureData.from_evaluator(K, n), strict_dirac=False)


# --- concentration ------------------------------------------------------------

@dataclass
class ConcentrationProfile:
    """Table alpha(r, k) of measure mass in shrinking windows at one center."""

    center: float
    radii: np.ndarray  # decreasing
    ks: list
    alpha: np.ndarray  # shape (len(radii), len(ks))

    def __post_init__(self):
        if not np.all(np.isfinite(self.alpha)):
            raise InvalidInput("profile has non-finite entries")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("r,k,alpha\n")
        for i, r in enumerate(self.radii):
            for j, k in enumerate(self.ks):
                buf.write(f"{float(r)!r},{int(k)},{float(self.alpha[i, j])!r}\n")
        return buf.getvalue()


def _cyclic_peaks(vals: np.ndarray) -> np.ndarray:
    """Ascending indices of the local maxima of the cyclic sequence vals that
    reach 0.25 max(vals).  A maximum is a run of equal samples between two
    smaller ones; a run i..j (j >= i, counted across the seam) reports
    sample (i + j) // 2 mod len(vals), SciPy's flat-top rule."""
    m = vals.size
    prev = np.roll(vals, 1)
    start = np.flatnonzero(vals != prev)  # first sample of each run
    if not start.size:
        return start
    end = np.append(start[1:], start[0] + m) - 1  # its last sample, unwrapped
    top = vals[start]
    peak = (prev[start] < top) & (vals[(end + 1) % m] < top) & (top >= 0.25 * float(np.max(vals)))
    return np.sort((start[peak] + end[peak]) // 2 % m)


def locate_centers(density):
    """Peaks of the measure density, found on the circle-image grid.

    The density is sampled at the line points of the CENTER_GRID_N-point
    circle chart, a cyclic sequence with its seam at x = -1; the highest
    MAX_CENTERS of its _cyclic_peaks (ties in grid order), or its argmax
    when it has none, are returned in ascending x.
    """
    x = circle_chart(CENTER_GRID_N).x
    vals = np.asarray(density(x), dtype=float)
    peaks = _cyclic_peaks(vals)
    if not peaks.size:
        peaks = [int(np.argmax(vals))]
    ranked = sorted(peaks, key=lambda p: -vals[p])[:MAX_CENTERS]
    return sorted(float(x[p]) for p in ranked)


def concentration_scan(members, radii, centers=None, n: int = 1 << 16):
    """alpha(r, k) tables, one profile per center.

    members: sequence of density evaluators (K e^u as a function on the line,
    or objects with a .density method).  Every radius must be finite and
    positive (InvalidRadius).  Centers are auto-located at the peaks
    of the last member's density when not supplied; the per-member argmax near
    each center must not drift beyond the finest radius (CenterUnstable).

    Each member is sampled once per center, on the n-point circle chart
    (n > 0 divisible by 4, so that -i is a grid point) and only on the arc of
    the widest radius: line.window_samples evaluates the density there, one
    chart point beyond each end included, and raises NotIntegrable if any
    of those samples is non-finite.  Every radius integrates that slice, so
    alpha is bit for bit what the whole-circle samples give.  The nested
    windows share one table of the slice's trapezoid cells per member
    (line.nested_window_integrals): a radius sums its own cells and two
    interpolated end terms, with the bits of a trapezoid over its window.
    """
    dens = [m.density if hasattr(m, "density") else m for m in members]
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise InvalidRadius(f"radii must be finite and positive, got {radii.tolist()}")
    if centers is None:
        centers = locate_centers(dens[-1])
    ks = list(range(len(dens)))
    profiles = []
    for center in centers:
        x_win = np.linspace(center - radii[0], center + radii[0], 2001)
        arcs = [(angle_of_x(center + r), angle_of_x(center - r)) for r in radii]
        # the hull of the arcs, in case rounding puts an end of a narrower one
        # outside the widest
        widest = (min(ta for ta, _ in arcs), max(tb for _, tb in arcs))
        alpha = np.empty((radii.size, len(dens)))
        for j, f in enumerate(dens):
            tau, g = window_samples(f, n, *widest)
            # drift check: the density peak near this center stays put over k
            xloc = float(x_win[np.argmax(f(x_win))])
            if abs(xloc - center) > max(radii[-1], 0.05 * radii[0]):
                raise CenterUnstable(
                    f"member {j}: peak at {xloc:.4g} drifted from center {center:.4g}"
                )
            alpha[:, j] = nested_window_integrals(tau, g, arcs)
        profiles.append(ConcentrationProfile(center=center, radii=radii, ks=ks, alpha=alpha))
    return profiles


def detect_blowup(profiles):
    """Blow-up points with extrapolated masses, from a list of
    ConcentrationProfile (one per center).

    The nested limit is realized as the limsup of alpha(r, k) over the last
    quartile of k at each radius, followed by a least-squares linear
    extrapolation of the limsup values to r = 0 (the Richardson step over the
    fixed radius ladder).  A center qualifies when the finest-radius limsup
    clears pi - THRESHOLD_SLACK.
    """
    out = {}
    for prof in profiles:
        nk = len(prof.ks)
        if prof.radii.size < 3 or nk < 4:
            raise InvalidInput("profile needs at least 3 radii and 4 sequence indices")
        tail = slice(nk - max(1, int(np.ceil(nk / 4))), nk)
        tail_vals = prof.alpha[:, tail]
        finest = tail_vals[-1]
        if np.any(np.diff(finest) < -1e-3):
            raise InconclusiveLimit(
                f"alpha(r_min, k) not monotone over the last quartile at center {prof.center:.4g}"
            )
        limsup = tail_vals.max(axis=1)  # per radius
        if limsup[-1] >= np.pi - THRESHOLD_SLACK:
            A = np.column_stack([prof.radii, np.ones_like(prof.radii)])
            coef, *_ = np.linalg.lstsq(A, limsup, rcond=None)
            out[prof.center] = float(coef[1])
    return out


# --- sequence classification --------------------------------------------------

@dataclass
class SequenceReport:
    lambda_bars: list
    case: int | str  # 1, 2, or "undecided"
    blowup_points: dict = field(default_factory=dict)  # center -> mass

    def to_json(self) -> dict:
        return {
            "lambda_bars": [float(v) for v in self.lambda_bars],
            "case": self.case,
            "blowup_points": {repr(k): float(v) for k, v in self.blowup_points.items()},
        }


def classify_case(lambda_bars, blowup) -> SequenceReport:
    """Dichotomy of the compactness alternative on threshold proxies;
    blowup maps each blow-up center to its mass, as detect_blowup returns.

    Case 2 when the circle means drop by more than DROP_THRESHOLD with a
    negative trend; case 1 when they stay within DRIFT_THRESHOLD of the
    start; otherwise undecided.  A declared case 2 whose reported masses dip
    below pi is a TheoremViolation, the highest-severity outcome.
    """
    lb = [float(v) for v in lambda_bars]
    diffs = np.diff(lb)
    if lb[0] - lb[-1] > DROP_THRESHOLD and np.mean(diffs) < 0:
        case = 2
    elif max(abs(v - lb[0]) for v in lb) < DRIFT_THRESHOLD:
        case = 1
    else:
        case = "undecided"
    if case == 2:
        for center, mass in blowup.items():
            if mass < np.pi - MASS_SLACK:
                raise TheoremViolation(
                    f"case-2 mass {mass:.6f} at {center!r} is below pi"
                )
    if case == 1:
        for center, mass in blowup.items():
            if abs(mass - np.pi) > 0.05 + MASS_SLACK:
                raise TheoremViolation(
                    f"case-1 interior mass {mass:.6f} at {center!r} is not pi"
                )
    return SequenceReport(lambda_bars=lb, case=case, blowup_points=dict(blowup))


def recentered_lambda_sequence(d: DiskMap, a: complex, ts, n: int = 1024):
    """Boundary moduli log|(Phi o f_t)'| on the n grid angles for a
    recentering ladder t -> 1, with f_t(z) = (z - t a)/(1 - t conj(a) z).

    By the chain rule log|(Phi o f_t)'(z)| = log|Phi'(f_t(z))| + log|f_t'(z)|,
    with f_t'(z) = (1 - t^2)/(1 - t conj(a) z)^2.  f_t maps the unit circle
    onto itself, so |Phi'| at the n points f_t(z_j) is one read of the map
    on the circle at their angles (disk._on_circle), which for a chart map
    applies the chain rule once more, through m^-1: both are automorphisms,
    so nothing is resampled.  No recentered series is built or truncated,
    so the moduli carry only the error of Phi' itself, whatever t and the
    series order.
    """
    a = complex(a)
    z = np.exp(1j * grid_angles(n))
    out = []
    for t in ts:
        t = float(t)
        _check_recentering(a, t)
        den = 1.0 - t * np.conj(a) * z
        w = (z - t * a) / den
        speed = _on_circle(d, np.angle(w), speed=True)
        out.append(PeriodicGrid(np.log(speed) + np.log1p(-t * t) - 2.0 * np.log(np.abs(den))))
    return out


# --- pinching ------------------------------------------------------------------

@dataclass
class PinchReport:
    pairs: list  # (p, q)
    table: np.ndarray  # shape (len(pairs), len(maps))
    verdicts: list  # True = pinched
    arc_gaps: list
    mesh_n: int

    def to_json(self) -> dict:
        return {
            "pairs": [[repr(p), repr(q)] for p, q in self.pairs],
            "table": [[float(v) for v in row] for row in self.table],
            "verdicts": [bool(v) for v in self.verdicts],
            "arc_gaps": [float(g) for g in self.arc_gaps],
            "mesh_n": self.mesh_n,
        }


def pinching_probe(maps, pairs, mesh_n: int = 256, kappa_bound: float | None = None) -> PinchReport:
    """Conformal distances D_k(p, q) per map, with a pinched verdict when the
    tail decreases monotonically below 0.1 x the initial value.  A trend
    needs at least two maps (InvalidInput otherwise).

    Each distance is disk.conformal_distance on the mesh_n boundary nodes:
    the chord |Phi(q) - Phi(p)| where it certifies that chord as the
    geodesic (an immersed map whose boundary polygon is simple and holds the
    chord; immersed rests on build_phi's Rouche test, and the polygon
    through the nodes stands in for the boundary curve), and the mesh
    shortest path elsewhere.  One disk.conformal_distances call per map
    reads its boundary and tests its polygon once for all pairs, with the
    bits of separate calls.  Every bubble map is Moebius with a round
    image, so the bubble ladders take the chord.

    When a curvature bound is supplied, which must be finite and positive,
    declared pinched pairs are audited against the arc-separation lower
    bound pi / kappa_bound (up to the mesh tolerance)."""
    if kappa_bound is not None and not (np.isfinite(kappa_bound) and kappa_bound > 0):
        raise InvalidInput(f"curvature bound must be finite and positive, got {kappa_bound}")
    if len(maps) < 2:
        raise InvalidInput(f"a distance trend needs at least two maps, got {len(maps)}")
    table = np.empty((len(pairs), len(maps)))
    for k, d in enumerate(maps):
        table[:, k] = conformal_distances(d, pairs, n_boundary=mesh_n)
    # after the distances, which reject mesh_n < 8
    h = TWO_PI / mesh_n
    verdicts = []
    gaps = []
    for i, (p, q) in enumerate(pairs):
        row = table[i]
        decreasing = bool(np.all(np.diff(row) < 0))
        if decreasing and abs(row[0] - row[-1]) < 2 * h * max(row[0], 1e-300):
            raise InconclusiveMesh(
                f"distance trend for pair {i} is within the mesh tolerance"
            )
        pinched = decreasing and bool(row[-1] < 0.1 * row[0])  # a Python bool, as printed
        verdicts.append(pinched)
        gap = abs(np.angle(complex(p) / complex(q)))
        gaps.append(gap)
        if pinched and kappa_bound is not None:
            if gap < np.pi / kappa_bound - 2 * h:
                raise TheoremViolation(
                    f"pinched pair {i} violates the arc-separation bound: "
                    f"gap {gap:.4f} < pi/kappa - tolerance"
                )
    return PinchReport(pairs=list(pairs), table=table, verdicts=verdicts, arc_gaps=gaps, mesh_n=mesh_n)


# --- Lambda audit ---------------------------------------------------------------

AUDIT_N = 512  # grid on which lambda_audit verifies each member


@dataclass
class AuditEntry:
    label: str
    Lambda: float
    slope: float
    residual_sup: float
    included: bool
    note: str = ""


@dataclass
class AuditReport:
    entries: list

    @property
    def included(self):
        return [e for e in self.entries if e.included]

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "label": e.label,
                    "Lambda": e.Lambda,
                    "slope": e.slope,
                    "residual_sup": e.residual_sup,
                    "included": e.included,
                    "note": e.note,
                }
                for e in self.entries
            ]
        }


def lambda_audit(members) -> AuditReport:
    """Total-curvature lower bound on verified solutions.

    Each member is (label, u, K) or a Bubble, verified on the 512-point
    grid; members whose residual reaches 1e-4 are excluded with a notice
    (the bound only covers genuine solutions).  For every verified member
    the measured Lambda must clear pi - 1e-3, and the far-field slope must
    agree with Lambda/pi within 5%.  A (label, u, K) member goes through
    verify_solution.  A Bubble is pulled back with its exact value at the
    pole, and as every Bubble has K = 1, that curvature is sampled once per
    call, pole fit included, and serves them all.
    """
    # sampled, not CurvatureData.constant: the pole fit lands one ulp off 1,
    # and Lambda reads that ulp
    unit = CurvatureData.from_evaluator(np.ones_like, AUDIT_N)
    entries = []
    for item in members:
        is_bubble = isinstance(item, Bubble)
        if is_bubble:
            label, u = f"bubble(mu={item.mu:g}, x0={item.x0:g})", item.u
        else:
            label, u, K = item
        try:
            if is_bubble:
                lf = pull_back(u, AUDIT_N, anchor_coeff=0.0, pole_value=-np.log(item.mu))
                rep = transfer_equation(lf, unit, strict_dirac=False)
            else:
                rep = verify_solution(u, K, AUDIT_N)
        except Exception as exc:
            entries.append(AuditEntry(label, np.nan, np.nan, np.inf, False, f"verify failed: {exc}"))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slope = asymptotic_slope(u)
        if rep.residual_sup >= 1e-4:
            entries.append(
                AuditEntry(label, rep.Lambda, slope, rep.residual_sup, False,
                           "excluded: residual above tolerance")
            )
            continue
        if rep.Lambda < np.pi - 1e-3:
            raise TheoremViolation(
                f"verified member {label} has Lambda = {rep.Lambda:.6f} < pi"
            )
        if abs(slope - rep.Lambda / np.pi) > 0.05 * abs(rep.Lambda / np.pi):
            note = "slope/Lambda mismatch beyond 5%"
        else:
            note = ""
        entries.append(AuditEntry(label, rep.Lambda, slope, rep.residual_sup, True, note))
    return AuditReport(entries=entries)
