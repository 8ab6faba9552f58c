"""Command-line front end.

Subcommands tie the spectral, transfer, disk, curve, and quantization modules
together; outputs are JSON (with a metadata block) or CSV (with a metadata
comment line), written deterministically: identical config and seed give
byte-identical files.  Exit codes: 0 success, 1 input error, 2 numerical
guard, 3 theorem violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .blank import BlankWord, blank_word, contract, extendability_check, seifert_decompose
from .curves import PolyCurve, rotation_index
from .disk import analytic_completion, boundary_curvature, curvature_mass
from .errors import GuardError, InputError, InvalidInput, LiouvilleDiskError, TheoremViolation
from .fixtures import FIXTURES
from .line import LineField
from .quant import (
    DRIFT_THRESHOLD,
    DROP_THRESHOLD,
    MASS_SLACK,
    THRESHOLD_SLACK,
    bubble,
    classify_case,
    concentration_scan,
    detect_blowup,
    lambda_audit,
    pinching_probe,
)
from .spectral import PeriodicGrid, half_laplacian, hilbert, poisson_extend

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_THEOREM = 3


def _meta(args, thresholds=None):
    return {
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "thresholds": thresholds or {},
    }


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path, meta, body):
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(body)


def _load(path, from_json):
    """from_json of the JSON object in the file.  Any other top-level value
    is an input error, and so is a value of the wrong JSON type inside the
    object (the TypeError that from_json raises on it)."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        return from_json(obj)
    except TypeError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _nonempty(values, what, text):
    if not values:
        raise InvalidInput(f"{what} {text!r} has no members")
    return values


def _parse_floats(text, what):
    """A comma list of numbers; never empty."""
    return _nonempty([float(tok) for tok in text.split(",") if tok], what, text)


def _parse_mu_ladder(text):
    """Either a comma list or a geometric range like 2^0..2^12 of one base;
    never empty."""
    if ".." in text and "^" in text:
        lo, hi = text.split("..")
        base, e0 = lo.split("^")
        hi_base, e1 = hi.split("^")
        if float(hi_base) != float(base):
            raise InvalidInput(f"mu ladder {text!r} has two bases")
        mus = [float(base) ** k for k in range(int(e0), int(e1) + 1)]
        return _nonempty(mus, "mu ladder", text)
    return _parse_floats(text, "mu ladder")


def cmd_halflap(args):
    g = _load(args.infile, PeriodicGrid.from_json)
    out = half_laplacian(g)
    _write_json(args.out, {"meta": _meta(args), **out.to_json()})
    return EXIT_OK


def cmd_hilbert(args):
    g = _load(args.infile, PeriodicGrid.from_json)
    out = hilbert(g)
    _write_json(args.out, {"meta": _meta(args), **out.to_json()})
    return EXIT_OK


def cmd_extend(args):
    g = _load(args.infile, PeriodicGrid.from_json)
    out = poisson_extend(g, args.radius)
    _write_json(args.out, {"meta": _meta(args, {"radius": args.radius}), **out.to_json()})
    return EXIT_OK


def cmd_curvature(args):
    field = _load(args.infile, LineField.from_json).field
    bt = analytic_completion(field)
    kappa = boundary_curvature(bt)
    payload = {
        "meta": _meta(args),
        "kappa": kappa.to_json(),
        "curvature_mass": curvature_mass(bt),
        "anchors": [[t, c] for t, c in field.anchors],
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_rotation_index(args):
    c = _load(args.infile, PolyCurve.from_json)
    rep = rotation_index(c)
    payload = {
        "meta": _meta(args),
        "index": rep.index,
        "total_turning": rep.total_turning,
        "exterior_angles": {str(k): v for k, v in rep.exterior_angles.items()},
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"rotation index: {rep.index}")
    return EXIT_OK


def _print_contraction(res):
    print(f"contracts: {res.contracted} ({res.order})")
    for step in res.steps:
        removed = " ".join(str(l) for l in step.removed)
        left = " ".join(str(l) for l in step.word_after) or "(empty)"
        print(f"  - remove [{removed}] -> {left}")


def cmd_blank_word(args):
    c = _load(args.infile, PolyCurve.from_json)
    rec = blank_word(c, seed=args.seed)
    res = contract(rec.word)
    print(f"word: {rec.word}")
    print(f"canonical: {rec.word.canonical()}")
    _print_contraction(res)
    if args.out:
        payload = {
            "meta": _meta(args),
            "word": rec.word.to_json(),
            "contracts": res.contracted,
            "order": res.order,
            "trace": [
                {
                    "removed": [str(l) for l in s.removed],
                    "after": [str(l) for l in s.word_after],
                }
                for s in res.steps
            ],
        }
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_contract(args):
    if args.word:
        w = BlankWord.parse(args.word)
    elif args.infile:
        w = _load(args.infile, BlankWord.from_json)
    else:
        raise InvalidInput("contract needs a word: pass --word or --in")
    res = contract(w)
    _print_contraction(res)
    if args.out:
        _write_json(
            args.out,
            {
                "meta": _meta(args),
                "word": w.to_json(),
                "contracts": res.contracted,
                "order": res.order,
            },
        )
    return EXIT_OK


def cmd_seifert(args):
    c = _load(args.infile, PolyCurve.from_json)
    pieces = seifert_decompose(c)
    print(f"pieces: {len(pieces)}, orientations: {[o for _, o in pieces]}")
    if args.out:
        payload = {
            "meta": _meta(args),
            "count": len(pieces),
            "orientations": [int(o) for _, o in pieces],
            "pieces": [[[float(x), float(y)] for x, y in pts] for pts, _ in pieces],
        }
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_extendability(args):
    c = _load(args.infile, PolyCurve.from_json)
    rep = extendability_check(c, seed=args.seed)
    print(f"index: {rep.index} (ok: {rep.index_ok}), word contracts: {rep.word_contracts}")
    if args.out:
        _write_json(args.out, {"meta": _meta(args), **rep.to_json()})
    return EXIT_OK


def _family_members(args):
    mus = _parse_mu_ladder(args.mu_ladder)
    return [bubble(mu=m, x0=args.x0) for m in mus], mus


def cmd_scan(args):
    members, mus = _family_members(args)
    radii = _parse_floats(args.radii, "radius list")
    centers = [args.center] if args.center is not None else None
    profs = concentration_scan(members, radii=radii, centers=centers, n=args.n)
    for i, prof in enumerate(profs):
        path = args.out if len(profs) == 1 else args.out.replace(".csv", f"_c{i}.csv")
        thresholds = {"radii": radii, "n": args.n, "mu": mus, "center": prof.center}
        _write_csv(path, _meta(args, thresholds), prof.to_csv())
        print(f"wrote {path}")
    return EXIT_OK


def cmd_classify(args):
    members, mus = _family_members(args)
    radii = _parse_floats(args.radii, "radius list")
    centers = [args.center] if args.center is not None else None
    profs = concentration_scan(members, radii=radii, centers=centers, n=args.n)
    rep = classify_case([m.lambda_bar() for m in members], detect_blowup(profs))
    thresholds = {
        "radii": radii,
        "mu": mus,
        "drop_threshold": DROP_THRESHOLD,
        "drift_threshold": DRIFT_THRESHOLD,
        "mass_slack": MASS_SLACK,
        "threshold_slack": THRESHOLD_SLACK,
    }
    payload = {"meta": _meta(args, thresholds), **rep.to_json()}
    _write_json(args.out, payload)
    print(f"case: {rep.case}, blow-up points: {len(rep.blowup_points)}")
    return EXIT_OK


def cmd_pinch(args):
    mus = _parse_mu_ladder(args.mu_ladder)
    maps = [bubble(mu=m).disk_map() for m in mus]
    pairs = [(complex(1.0), complex(-1.0))]
    rep = pinching_probe(maps, pairs, mesh_n=args.mesh, kappa_bound=args.kappa_bound)
    payload = {"meta": _meta(args, {"mesh": args.mesh, "mu": mus}), **rep.to_json()}
    _write_json(args.out, payload)
    print(f"pinched: {rep.verdicts}")
    return EXIT_OK


def cmd_audit(args):
    mus = _parse_mu_ladder(args.mu_ladder)
    x0s = _parse_floats(args.x0_list, "x0 list")
    members = [bubble(mu=m, x0=x) for m in mus for x in x0s]
    rep = lambda_audit(members)
    payload = {"meta": _meta(args, {"mu": mus, "x0": x0s}), **rep.to_json()}
    _write_json(args.out, payload)
    n_inc = len(rep.included)
    print(f"audited {len(rep.entries)} members, {n_inc} verified, all Lambda >= pi")
    return EXIT_OK


def cmd_fixtures(args):
    name = args.name
    if name != "bubble" and name not in FIXTURES:
        print(f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}, bubble")
        return EXIT_INPUT
    os.makedirs(args.out_dir, exist_ok=True)
    if name == "bubble":
        b = bubble(mu=args.mu, x0=args.x0)
        lf = b.pull_back(args.n)
        path = os.path.join(args.out_dir, f"bubble_mu{args.mu:g}_x0{args.x0:g}.json")
        payload = {"meta": _meta(args, {"mu": args.mu, "x0": args.x0}), **lf.to_json()}
        _write_json(path, payload)
        print(f"wrote {path}")
        return EXIT_OK
    c = FIXTURES[name]()
    path = os.path.join(args.out_dir, f"{name}.json")
    _write_json(path, {"meta": _meta(args), **c.to_json()})
    print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="liouville-disk",
        description="Half-Laplacian circle operators, disk immersions from "
        "boundary data, curve topology, and curvature-quantization checks.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, out_required=True):
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", required=out_required)

    sp = sub.add_parser("halflap", help="half-Laplacian of a periodic grid")
    add_io(sp)
    sp.set_defaults(func=cmd_halflap)

    sp = sub.add_parser("hilbert", help="circle Hilbert transform of a grid")
    add_io(sp)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("extend", help="harmonic extension to radius r")
    add_io(sp)
    sp.add_argument("--r", dest="radius", type=float, required=True)
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("curvature", help="boundary curvature from boundary data")
    add_io(sp)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("rotation-index", help="rotation index of a closed curve")
    add_io(sp, out_required=False)
    sp.set_defaults(func=cmd_rotation_index)

    sp = sub.add_parser("blank-word", help="word of Blank with contraction trace")
    add_io(sp, out_required=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_blank_word)

    sp = sub.add_parser("contract", help="contract a word")
    sp.add_argument("--word")
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_contract)

    sp = sub.add_parser("seifert", help="orientation-respecting crossing smoothing")
    add_io(sp, out_required=False)
    sp.set_defaults(func=cmd_seifert)

    sp = sub.add_parser("extendability", help="necessary conditions for bounding a disk")
    add_io(sp, out_required=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_extendability)

    sp = sub.add_parser("scan", help="concentration profile alpha(r, k) as CSV")
    sp.add_argument("--mu-ladder", required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--radii", required=True)
    sp.add_argument("--center", type=float, default=None)
    sp.add_argument("--n", type=int, default=1 << 16)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("classify", help="case dichotomy with blow-up masses")
    sp.add_argument("--mu-ladder", required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--radii", default="0.4,0.2,0.1,0.05")
    sp.add_argument("--center", type=float, default=None)
    sp.add_argument("--n", type=int, default=1 << 16)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("pinch", help="conformal-distance pinching over a ladder")
    sp.add_argument("--mu-ladder", required=True)
    sp.add_argument("--mesh", type=int, default=256,
                    help="boundary nodes of the polygon whose chords give the distances (at least 8)")
    sp.add_argument("--kappa-bound", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_pinch)

    sp = sub.add_parser("audit", help="Lambda >= pi audit on verified members")
    sp.add_argument("--mu-ladder", required=True)
    sp.add_argument("--x0-list", default="0")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("fixtures", help="write a named fixture to disk")
    sp.add_argument("name")
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--n", type=int, default=256)
    sp.set_defaults(func=cmd_fixtures)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except GuardError as exc:
        print(f"numerical guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (InputError, FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LiouvilleDiskError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
