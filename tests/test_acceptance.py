"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they pass.
"""

import os
import time

import numpy as np

from liouville_disk.blank import BlankWord, Letter, blank_word, contract, seifert_decompose
from liouville_disk.cli import main as cli_main
from liouville_disk.curves import PolyCurve, jitter, rotation_index
from liouville_disk.disk import (
    analytic_completion,
    boundary_curvature,
    boundary_polyline,
    build_phi,
    conformal_distance,
    curvature_mass,
)
from liouville_disk.fixtures import (
    circle,
    fblank_first,
    fblank_second,
    figure_eight,
    fseifert,
    glued_positive_loops,
    limacon,
    marked_square,
)
from liouville_disk.line import CurvatureData, transfer_equation
from liouville_disk.quant import (
    bubble,
    classify_case,
    concentration_scan,
    detect_blowup,
)
from liouville_disk.spectral import (
    PeriodicGrid,
    SingularField,
    analyze,
    grid_angles,
    half_laplacian,
    hilbert,
)
from test_line import line_integral
from test_spectral import cell_averaged_log_profile, green_convolve, mode

TWO_PI = 2 * np.pi


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_spectral_identities():
    t0 = time.perf_counter()
    n = 256
    th = grid_angles(n)
    worst = 0.0
    for k in range(1, 33):
        out = half_laplacian(PeriodicGrid(np.cos(k * th)))
        worst = max(worst, float(np.max(np.abs(out.values - k * np.cos(k * th)))))
    rng = np.random.default_rng(0)
    g = PeriodicGrid(sum(rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)
                         for k in range(1, 20)) + rng.normal())
    hh = hilbert(hilbert(g))
    inv = float(np.max(np.abs(hh.values + (g.values - g.values.mean()))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and inv < 1e-10 and dt < 1.0
    report(1, ok, f"multiplier sup err {worst:.2e} (<1e-10), involution err "
                  f"{inv:.2e} (<1e-10), runtime {dt:.2f}s (<1s)")


def test_criterion_2_fundamental_solution():
    n = 2048
    g = cell_averaged_log_profile(n)
    s = analyze(g)
    h = TWO_PI / n
    worst = 0.0
    for m in range(1, 33):
        window = np.sin(m * h / 2) / (m * h / 2)
        est = mode(s, m).real / window
        worst = max(worst, abs(m * est - 1 / TWO_PI))
    rng = np.random.default_rng(1)
    th = grid_angles(256)
    f = PeriodicGrid(sum(rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)
                         for k in range(1, 17)))
    back = green_convolve(half_laplacian(f))
    inv = float(np.max(np.abs(back.values - (f.values - f.values.mean()))))
    ok = worst < 1e-5 and inv < 1e-9
    report(2, ok, f"cell-integrated |m| G_hat err {worst:.2e} (<1e-5), "
                  f"inverse-pair err {inv:.2e} (<1e-9)")


FAMILY = [(mu, x0) for mu in (0.25, 1.0, 4.0) for x0 in (0.0, 1.0)]


def test_criterion_3_exact_family():
    t0 = time.perf_counter()
    worst_res, worst_mass, worst_beta = 0.0, 0.0, 0.0
    for mu, x0 in FAMILY:
        b = bubble(mu=mu, x0=x0)
        lf = b.pull_back(512)
        rep = transfer_equation(lf, CurvatureData.constant(1.0, 512))
        worst_res = max(worst_res, rep.residual_sup)
        mass = line_integral(b.density, n=4096)
        worst_mass = max(worst_mass, abs(mass - TWO_PI))
        worst_beta = max(worst_beta, abs(rep.Lambda - TWO_PI), abs(rep.beta_required))
    dt = time.perf_counter() - t0
    ok = worst_res < 1e-6 and worst_mass < 1e-6 and worst_beta < 1e-6 and dt < 10.0
    report(3, ok, f"residual {worst_res:.2e} (<1e-6), mass err {worst_mass:.2e} "
                  f"(<1e-6), Lambda/beta err {worst_beta:.2e} (<1e-6), {dt:.1f}s (<10s)")


def test_criterion_4_immersion_dictionary():
    # boundary-modulus identity: |Phi'| (1 + sin theta) = |Phi'| 2/(1+Pi^2)
    # equals e^{u(Pi)} on the boundary grid (the flat member Phi = z - 1,
    # where |Phi'| = 1 = e^u (1+x^2)/2, pins the direction of the conformal
    # factor)
    worst_mod, worst_kappa, min_deriv = 0.0, 0.0, np.inf
    n = 512
    th = grid_angles(n)
    jp = n // 4
    mask = np.arange(n) != jp
    z = np.exp(1j * th[mask])
    Pi = np.real(z) / (1 + np.imag(z))
    for mu, x0 in FAMILY:
        b = bubble(mu=mu, x0=x0)
        bt = analytic_completion(b.pull_back(n).field)
        d = build_phi(bt)
        lhs = np.abs(d.derivative(z)) * 2 / (1 + Pi**2)
        rhs = np.exp(b.u(Pi))
        worst_mod = max(worst_mod, float(np.max(np.abs(lhs - rhs))))
        kap = boundary_curvature(bt)
        worst_kappa = max(worst_kappa, float(np.max(np.abs(kap.values - 1.0))))
        min_deriv = min(min_deriv, d.min_deriv)
    ok = worst_mod < 1e-6 and worst_kappa < 1e-4 and min_deriv > 0.1
    report(4, ok, f"boundary-modulus identity err {worst_mod:.2e} (<1e-6), "
                  f"curvature err {worst_kappa:.2e} (<1e-4), min|Phi'| {min_deriv:.3f} (>0.1)")


def test_criterion_5_singular_corner_family():
    n = 512
    worst_gb, worst_eps = 0.0, 0.0
    indices = []
    for beta in (np.pi / 4, np.pi / 2, 3 * np.pi / 4):
        sf = SingularField(PeriodicGrid(np.zeros(n)), ((-np.pi / 2, beta),))
        bt = analytic_completion(sf)
        worst_gb = max(worst_gb, abs(curvature_mass(bt) + beta - TWO_PI))
        verts, corners = boundary_polyline(bt, n)
        c = PolyCurve(verts, corners=corners)
        rep = rotation_index(c)
        indices.append(rep.index)
        (eps,) = rep.exterior_angles.values()
        worst_eps = max(worst_eps, abs(eps - beta))
    ok = worst_gb < 1e-3 and worst_eps < 1e-2 and indices == [1, 1, 1]
    report(5, ok, f"Gauss-Bonnet balance err {worst_gb:.2e} (<1e-3), corner angle "
                  f"err {worst_eps:.2e} (<1e-2), rotation indices {indices} (all 1)")


def test_criterion_6_concentration_quantization():
    t0 = time.perf_counter()
    members = [bubble(mu=2.0**k) for k in range(13)]
    profs = concentration_scan(members, radii=[0.4, 0.2, 0.1, 0.05], centers=[0.0], n=1 << 18)
    prof = profs[0]
    i_r = int(np.nonzero(np.isclose(prof.radii, 0.1))[0][0])
    alpha_err = abs(prof.alpha[i_r, 12] - 4 * np.arctan(409.6))
    found = detect_blowup(profs)
    mass_ok = list(found) == [0.0] and abs(found[0.0] - TWO_PI) < 0.02
    bars = [m.lambda_bar() for m in members]
    rep = classify_case(bars, found)
    decreasing = all(b < a for a, b in zip(bars, bars[1:]))
    margin = min(found.values()) - np.pi
    dt = time.perf_counter() - t0
    ok = (alpha_err < 1e-3 and mass_ok and rep.case == 2 and decreasing
          and margin > 0.5 and dt < 60.0)
    report(6, ok, f"alpha(0.1,12) err {alpha_err:.2e} (<1e-3), blow-up at 0 with mass "
                  f"{found.get(0.0, np.nan):.4f} (2pi+-0.02), case {rep.case} with "
                  f"decreasing means, margin over pi {margin:.2f} (>0.5), {dt:.0f}s (<60s)")


def test_criterion_7_pinching():
    mesh_n = 256
    h = TWO_PI / mesh_n
    maps = [bubble(mu=m).disk_map() for m in (1.0, 16.0, 256.0, 4096.0)]
    dists = [conformal_distance(d, 1.0, -1.0, n_boundary=mesh_n) for d in maps]
    strict = all(b < a for a, b in zip(dists, dists[1:]))
    final_ok = dists[-1] < 0.1 * dists[0]
    # symmetry and triangle inequality on the mu = 16 member
    d16 = maps[1]
    rng = np.random.default_rng(2)
    sym_err = 0.0
    tri_ok = True
    for _ in range(5):
        i, j, k = rng.integers(0, mesh_n, size=3)
        p, q, r = (np.exp(1j * (TWO_PI * v / mesh_n - np.pi)) for v in (i, j, k))
        if len({i, j, k}) < 3:
            continue
        dpq = conformal_distance(d16, p, q, n_boundary=mesh_n)
        dqp = conformal_distance(d16, q, p, n_boundary=mesh_n)
        sym_err = max(sym_err, abs(dpq - dqp))
        dqr = conformal_distance(d16, q, r, n_boundary=mesh_n)
        dpr = conformal_distance(d16, p, r, n_boundary=mesh_n)
        tri_ok &= dpr <= dpq + dqr + 2 * h
    ok = strict and final_ok and sym_err <= 2 * h and tri_ok
    report(7, ok, f"D(1,-1) = {[round(v, 5) for v in dists]} strictly decreasing, "
                  f"final/initial {dists[-1] / dists[0]:.1e} (<0.1), symmetry err "
                  f"{sym_err:.1e} (<=2h), triangle holds")


def test_criterion_8_curve_topology():
    idx = {
        "circle": rotation_index(circle(256)).index,
        "limacon": rotation_index(limacon()).index,
        "figure-eight": rotation_index(figure_eight()).index,
        "square": rotation_index(marked_square()).index,
    }
    indices_ok = idx == {"circle": 1, "limacon": 2, "figure-eight": 0, "square": 1}
    w1 = blank_word(fblank_first(), seed=7).word
    first_matches = w1.canonical() == BlankWord.parse("a0- b1+ c0+ a1+ b0+").canonical()
    first_contracts = contract(w1).contracted
    w2 = blank_word(fblank_second(), seed=7).word
    second_matches = w2.canonical() == BlankWord.parse("a0+ b0-").canonical()
    second_fails = not contract(w2).contracted
    pieces = seifert_decompose(fseifert())
    seifert_ok = len(pieces) == 3
    ok = (indices_ok and first_matches and first_contracts and second_matches
          and second_fails and seifert_ok)
    report(8, ok, f"indices {idx}, figure words contract/fail as stated, "
                  f"Seifert fixture -> {len(pieces)} simple curves (=3)")


def test_criterion_9_randomized_suites():
    t0 = time.perf_counter()
    # 100 glued-positive-loop curves: r = m >= 1 and all-positive decomposition
    glued_ok = 0
    for trial in range(100):
        m = 1 + trial % 6
        c, mm = glued_positive_loops(m, seed=trial)
        ri = rotation_index(c).index
        pieces = seifert_decompose(c)
        if ri == mm >= 1 and len(pieces) == mm and all(o == 1 for _, o in pieces):
            glued_ok += 1
    # 50 jitter trials preserve the rotation index
    jitter_ok = 0
    cases = [(circle(256), 1), (limacon(), 2), (figure_eight(), 0)]
    rng = np.random.default_rng(3)
    for trial in range(50):
        c, expect = cases[trial % 3]
        h = float(np.min(c.lengths))
        j = jitter(c, seed=int(rng.integers(1 << 31)), magnitude=0.02 * h)
        jitter_ok += rotation_index(j).index == expect
    # 100 random words: verdict invariant under rotation and renaming
    word_ok = 0
    faces = "abcd"
    for trial in range(100):
        wrng = np.random.default_rng(1000 + trial)
        nletters = int(wrng.integers(2, 9))
        letters = tuple(
            Letter(faces[wrng.integers(0, 4)], int(wrng.integers(0, 3)),
                   1 if wrng.random() < 0.6 else -1)
            for _ in range(nletters)
        )
        w = BlankWord(letters)
        base = contract(w).contracted
        rot = BlankWord(letters[nletters // 2:] + letters[: nletters // 2])
        ren = BlankWord(tuple(Letter({"a": "b", "b": "a"}.get(l.face, l.face), l.index, l.sign)
                              for l in letters))
        word_ok += contract(rot).contracted == base == contract(ren).contracted
    dt = time.perf_counter() - t0
    ok = glued_ok == 100 and jitter_ok == 50 and word_ok == 100 and dt < 120.0
    report(9, ok, f"glued loops {glued_ok}/100, jitter {jitter_ok}/50, word "
                  f"invariance {word_ok}/100, {dt:.0f}s (<120s)")


def test_criterion_10_determinism(tmp_path):
    suite = [
        lambda d: ["fixtures", "limacon", "--out-dir", d],
        lambda d: ["fixtures", "fblank-1", "--out-dir", d],
        lambda d: ["fixtures", "bubble", "--mu", "4", "--out-dir", d],
        lambda d: ["scan", "--mu-ladder", "2^0..2^6", "--radii", "0.4,0.2,0.1",
                   "--center", "0", "--n", str(1 << 14),
                   "--out", os.path.join(d, "scan.csv")],
        lambda d: ["classify", "--mu-ladder", "2^0..2^10", "--center", "0",
                   "--n", str(1 << 14), "--out", os.path.join(d, "classify.json")],
        lambda d: ["audit", "--mu-ladder", "0.25,1,4",
                   "--out", os.path.join(d, "audit.json")],
    ]
    blobs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        for cmd in suite:
            code = cli_main(cmd(str(d)))
            assert code == 0
        # the figure fixture also feeds blank-word with a fixed seed
        code = cli_main(["blank-word", "--in", str(d / "fblank-1.json"),
                         "--seed", "9", "--out", str(d / "word.json")])
        assert code == 0
        blob = {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}
        blobs.append(blob)
    same = blobs[0].keys() == blobs[1].keys() and all(
        blobs[0][k] == blobs[1][k] for k in blobs[0]
    )
    report(10, same, f"two CLI suite runs over {len(blobs[0])} output files are "
                     "byte-identical")
