"""Inputs, jobs and oracles of the three benchmark workloads.

Each workload is a fixed schedule of input shapes; the seed varies the inputs
inside each shape (curve geometry, ray offsets, corner defects, smooth parts,
ladder centres) but never the mix, so runs with different seeds load the
layers in the same proportions.  Every job calls only the package's public
functions, through module attributes so that a traced run can rebind them.

A workload provides:
  build(seed)        -> list of Job, the inputs of one round
  run(job)           -> the job's outputs (this call is what gets timed)
  check(job, out)    -> (list of failed oracle messages, accuracy diagnostics)
  digest(out)        -> hex digest of the outputs, to compare runs bit for bit
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import gamma

import numpy as np
from scipy.integrate import quad

from liouville_disk import blank, curves, disk, fixtures, line, quant, spectral

TWO_PI = 2.0 * np.pi


@dataclass
class Job:
    name: str
    params: dict
    expect: dict
    cache: dict = field(default_factory=dict)  # oracle values computed on first check


def _feed(h, *items):
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())


# --- topology -----------------------------------------------------------------

class Topology:
    """Extendability and Seifert splitting of closed polylines.

    Loads curves/predicates, _kernels, arrangement and blank; no spectral or
    disk work.  E (polyline vertices) runs from about 100 to 4145, so the
    all-pairs segment tests and per-edge loops show their E^2 growth."""

    name = "topology"
    GLUED_M = range(2, 9)
    GLUED_N_PER = (32, 48, 64, 128)
    # loops per (m, n_per): the seeded geometry moves a loop's time by 10-20%,
    # and two of each halve how far the median input moves with the seed
    GLUED_COPIES = 2
    # Words are read with escape rays offset by ray seed 7, the seed the
    # figure words are documented for; other ray seeds can give another
    # (equally contractible) word for fblank-1 and fseifert.
    FIGURE_RAY_SEED = 7
    FIGURES = {
        "fblank-1": {"index": 1, "word": "a0- b1+ c0+ a1+ b0+", "contracts": True},
        "fblank-2": {"index": 0, "word": "a0+ b0-", "contracts": False},
        "fseifert": {"index": 1, "orientations": [-1, 1, 1]},
        "double-pocket": {"index": 2, "contracts": True, "n_pieces": 3},
    }

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        jobs = []
        for name, expect in self.FIGURES.items():
            jobs.append(Job(name, {"curve": fixtures.FIXTURES[name](),
                                   "ray_seed": self.FIGURE_RAY_SEED}, dict(expect)))
        for m in self.GLUED_M:
            for n_per in self.GLUED_N_PER:
                for copy in range(self.GLUED_COPIES):
                    loop_seed, ray_seed = (int(v) for v in rng.integers(0, 1 << 31, size=2))
                    c, mm = fixtures.glued_positive_loops(m, loop_seed, n_per)
                    jobs.append(Job(f"glued-m{m}-n{n_per}-{copy}",
                                    {"curve": c, "ray_seed": ray_seed},
                                    {"index": mm, "contracts": True,
                                     "orientations": [1] * mm}))
        return jobs

    def run(self, job):
        c = job.params["curve"]
        rep = blank.extendability_check(c, seed=job.params["ray_seed"])
        pieces = blank.seifert_decompose(c)
        return rep, pieces

    def check(self, job, out):
        rep, pieces = out
        e = job.expect
        bad = []
        if rep.index != e["index"]:
            bad.append(f"rotation index {rep.index} != {e['index']}")
        if "word" in e and rep.word.canonical() != blank.BlankWord.parse(e["word"]).canonical():
            bad.append(f"word {rep.word} is not {e['word']}")
        if "contracts" in e and rep.word_contracts != e["contracts"]:
            bad.append(f"word contracts: {rep.word_contracts}")
        if "n_pieces" in e and rep.contraction.n_pieces != e["n_pieces"]:
            bad.append(f"{rep.contraction.n_pieces} contraction pieces != {e['n_pieces']}")
        orient = sorted(o for _, o in pieces)
        if "orientations" in e and orient != sorted(e["orientations"]):
            bad.append(f"Seifert orientations {orient} != {sorted(e['orientations'])}")
        if sum(orient) != rep.index:
            bad.append(f"Seifert orientations sum to {sum(orient)}, index {rep.index}")
        return bad, {}

    def digest(self, out):
        rep, pieces = out
        h = hashlib.sha256()
        _feed(h, rep.to_json())
        for pts, o in pieces:
            _feed(h, pts, o)
        return h.hexdigest()


# --- singular-disk -------------------------------------------------------------

class SingularDisk:
    """Anchored boundary data with a corner defect beta at -pi/2.

    Loads line and disk; spectral serves many tiny eval_modes point
    evaluations inside the per-cell quadrature loops, which are O(n^2)."""

    name = "singular-disk"
    # n -> inputs; the median and the tail both fall inside the n = 512
    # class, away from its edges, so they do not jump between classes
    N_MIX = {256: 8, 512: 18, 1024: 4}
    BETA_RANGE = (0.05 * np.pi, 0.95 * np.pi)
    SMOOTH_AMPLITUDE = 0.05
    SMOOTH_MODES = 3
    LAMBDA_TOL = 1e-7  # absolute, as in the line-quadrature tests
    CORNER_TOL = 1e-2  # acceptance criterion 5
    GAUSS_BONNET_TOL = 1e-3

    def build(self, seed):
        rng = np.random.default_rng([seed, 2])
        jobs = []
        for n, count in self.N_MIX.items():
            lo, hi = self.BETA_RANGE
            # one beta per stratum, so every seed covers the whole range
            betas = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
            for i, beta in enumerate(betas):
                coef = np.zeros((self.SMOOTH_MODES, 2))
                if i % 2:
                    coef = rng.uniform(-self.SMOOTH_AMPLITUDE, self.SMOOTH_AMPLITUDE,
                                       size=coef.shape)
                th = spectral.grid_angles(n)
                vals = np.zeros(n)
                for mode, (a, b) in enumerate(coef, start=1):
                    vals += a * np.cos(mode * th) + b * np.sin(mode * th)
                sf = spectral.SingularField(spectral.PeriodicGrid(vals),
                                            ((line.POLE_ANGLE, float(beta)),))
                jobs.append(Job(f"n{n}-beta{beta:.4f}" + ("-smooth" if i % 2 else ""),
                                {"field": sf, "n": n},
                                {"beta": float(beta), "coef": coef}))
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def run(self, job):
        sf, n = job.params["field"], job.params["n"]
        bt = disk.analytic_completion(sf)
        mass = disk.curvature_mass(bt)
        verts, corners = disk.boundary_polyline(bt, n)
        rot = curves.rotation_index(curves.PolyCurve(verts, corners=corners))
        tr = line.transfer_equation(line.LineField(sf), line.CurvatureData.constant(1.0, n))
        return mass, verts, corners, rot, tr

    @staticmethod
    def reference_lambda(beta, coef):
        """Integral of e^lambda over the circle, independent of the package:
        closed form for a pure anchor, otherwise one adaptive algebraic-weight
        quadrature over the whole circle in d = theta - theta0, with
        |2 sin(d/2)|^s written as d^s (2 pi - d)^s times a smooth factor."""
        s = -beta / np.pi
        if not np.any(coef):
            return TWO_PI * gamma(1 + s) / gamma(1 + s / 2) ** 2

        def smooth(d):
            t = line.POLE_ANGLE + d
            p = sum(a * np.cos(m * t) + b * np.sin(m * t)
                    for m, (a, b) in enumerate(coef, start=1))
            # 2 sin(d/2) / (d (2 pi - d)), by the nearer endpoint
            e = min(d, TWO_PI - d)
            factor = np.sinc(e / TWO_PI) / (TWO_PI - e)
            return np.exp(p) * factor**s

        val, _ = quad(smooth, 0.0, TWO_PI, weight="alg", wvar=(s, s),
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        return val

    def check(self, job, out):
        mass, _verts, _corners, rot, tr = out
        beta = job.expect["beta"]
        if "lambda" not in job.cache:
            job.cache["lambda"] = self.reference_lambda(beta, job.expect["coef"])
        ref = job.cache["lambda"]
        bad = []
        gb = abs(mass + beta - TWO_PI)
        if gb >= self.GAUSS_BONNET_TOL:
            bad.append(f"Gauss-Bonnet error {gb:.2e}")
        if rot.index != 1:
            bad.append(f"rotation index {rot.index} != 1")
        angles = list(rot.exterior_angles.values())
        corner_err = abs(angles[0] - beta) if len(angles) == 1 else np.inf
        if corner_err >= self.CORNER_TOL:
            bad.append(f"corner angles {angles} vs beta {beta:.6f}")
        lam_err = abs(tr.Lambda - ref)
        if lam_err >= self.LAMBDA_TOL:
            bad.append(f"Lambda {tr.Lambda!r} vs reference {ref!r}")
        return bad, {
            "line.integrate_exp_singular.max_rel_err": lam_err / abs(ref),
            "disk.boundary_polyline.corner_err": corner_err,
        }

    def digest(self, out):
        mass, verts, corners, rot, tr = out
        h = hashlib.sha256()
        _feed(h, mass, verts, sorted(corners.items()), rot.index, rot.total_turning,
              sorted(rot.exterior_angles.items()), tr.to_json())
        return h.hexdigest()


# --- quant-ladder ---------------------------------------------------------------

class QuantLadder:
    """Bubble families with a mu ladder 2^0..2^k concentrating at x0.

    Loads quant, disk and mesh; spectral serves a few large FFTs (series
    orders reach about 131k) and no curve geometry runs."""

    name = "quant-ladder"
    # ladder top exponent -> inputs per round; the median and the tail both
    # fall well inside the k = 11 class, so they do not jump between classes
    K_MIX = {10: 6, 11: 12, 12: 6}
    X0_RANGE = (-0.5, 0.5)
    RADII = (0.4, 0.2, 0.1, 0.05)
    SCAN_N = 1 << 16
    MESH_N = 256
    RECENTER_TS = (0.0, 0.25, 0.5)
    RECENTER_N = 256
    ALPHA_TOL = 1e-3  # acceptance criterion 6
    MASS_TOL = 0.02  # acceptance criterion 6, certified at k = 12
    CERTIFIED_K = 12
    MASS_MARGIN = 0.5  # criterion 6: blow-up mass clears pi by this much

    def build(self, seed):
        rng = np.random.default_rng([seed, 3])
        jobs = []
        for k, count in self.K_MIX.items():
            lo, hi = self.X0_RANGE
            x0s = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
            for x0 in x0s:
                members = [quant.bubble(mu=2.0**j, x0=float(x0)) for j in range(k + 1)]
                jobs.append(Job(f"k{k}-x0{x0:+.4f}", {"members": members, "x0": float(x0)},
                                {"k": k}))
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def run(self, job):
        members, x0 = job.params["members"], job.params["x0"]
        k = len(members) - 1
        profs = quant.concentration_scan(members, radii=self.RADII, centers=[x0], n=self.SCAN_N)
        found = quant.detect_blowup(profs)
        bars = [m.lambda_bar() for m in members]
        case = quant.classify_case(bars, found)
        picks = sorted({0, k // 3, (2 * k) // 3, k})
        maps = [members[i].disk_map() for i in picks]
        pinch = quant.pinching_probe(maps, [(1.0, -1.0)], mesh_n=self.MESH_N)
        a = complex(line.stereo_inverse(x0))
        seq = quant.recentered_lambda_sequence(maps[1], a, self.RECENTER_TS, n=self.RECENTER_N)
        audit = quant.lambda_audit(members)
        return profs, found, case, maps, pinch, seq, audit

    def check(self, job, out):
        profs, found, case, maps, pinch, seq, audit = out
        members, x0 = job.params["members"], job.params["x0"]
        k = job.expect["k"]
        bad = []
        prof = profs[0]
        mus = np.array([m.mu for m in members])
        alpha_err = float(np.max(np.abs(prof.alpha - 4 * np.arctan(np.outer(prof.radii, mus)))))
        if alpha_err >= self.ALPHA_TOL:
            bad.append(f"alpha error {alpha_err:.2e}")
        if case.case != 2:
            bad.append(f"case {case.case} != 2")
        if list(found) != [x0]:
            bad.append(f"blow-up points {list(found)} != [{x0}]")
        else:
            mass = found[x0]
            if k == self.CERTIFIED_K and abs(mass - TWO_PI) >= self.MASS_TOL:
                bad.append(f"blow-up mass {mass:.6f} not 2pi within {self.MASS_TOL}")
            if mass - np.pi <= self.MASS_MARGIN:
                bad.append(f"blow-up mass {mass:.6f} within {self.MASS_MARGIN} of pi")
        if list(pinch.verdicts) != [True]:
            bad.append(f"pinch verdicts {pinch.verdicts}")
        z = np.exp(1j * spectral.grid_angles(self.RECENTER_N))
        identity = np.log(np.abs(maps[1].derivative(z)))
        if not all(np.all(np.isfinite(g.values)) for g in seq):
            bad.append("non-finite recentered boundary moduli")
        elif np.max(np.abs(seq[0].values - identity)) >= 1e-6:
            bad.append("recentering at t = 0 is not the identity")
        for e in audit.entries:
            if e.included and abs(e.Lambda - TWO_PI) >= 1e-6:
                bad.append(f"audited {e.label}: Lambda {e.Lambda!r} != 2pi")
            if not e.included and not e.note:
                bad.append(f"audit excluded {e.label} without a notice")
        return bad, {"quant.concentration_scan.alpha_err": alpha_err}

    def digest(self, out):
        profs, found, case, maps, pinch, seq, audit = out
        h = hashlib.sha256()
        for p in profs:
            _feed(h, p.center, p.alpha)
        _feed(h, sorted(found.items()), case.to_json())
        for d in maps:
            _feed(h, d.coeffs, d.immersed, d.min_deriv)
        _feed(h, pinch.to_json())
        for g in seq:
            _feed(h, np.asarray(g.values))
        _feed(h, audit.to_json())
        return h.hexdigest()


# accuracy diagnostics the oracles report (worst value over a run) -> unit
DIAGNOSTICS = {
    "line.integrate_exp_singular.max_rel_err": "1",
    "disk.boundary_polyline.corner_err": "rad",
    "quant.concentration_scan.alpha_err": "1",
}

WORKLOADS = {w.name: w for w in (Topology(), SingularDisk(), QuantLadder())}
