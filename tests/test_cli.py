"""CLI surface: subcommand behavior, exit codes, file formats, and the
byte-identical determinism contract.
"""

import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from liouville_disk.blank import BlankWord
from liouville_disk.cli import build_parser, main
from liouville_disk.spectral import PeriodicGrid, grid_angles, half_laplacian, hilbert, poisson_extend


def write_grid(path, values):
    with open(path, "w") as fh:
        json.dump(PeriodicGrid(values).to_json(), fh)


class TestSpectralCommands:
    def test_halflap_cos3(self, tmp_path):
        th = grid_angles(128)
        src = tmp_path / "grid.json"
        dst = tmp_path / "out.json"
        write_grid(src, np.cos(3 * th))
        assert main(["halflap", "--in", str(src), "--out", str(dst)]) == 0
        obj = json.loads(dst.read_text())
        assert obj["meta"]["version"]
        out = PeriodicGrid.from_json(obj)
        assert np.max(np.abs(out.values - 3 * np.cos(3 * th))) < 1e-12

    def test_hilbert_cos(self, tmp_path):
        th = grid_angles(64)
        src, dst = tmp_path / "g.json", tmp_path / "o.json"
        write_grid(src, np.cos(th))
        assert main(["hilbert", "--in", str(src), "--out", str(dst)]) == 0
        out = PeriodicGrid.from_json(json.loads(dst.read_text()))
        assert np.max(np.abs(out.values - np.sin(th))) < 1e-12

    @pytest.mark.parametrize("command", [["halflap"], ["hilbert"], ["extend", "--r", "0.5"]])
    def test_complex_grid_runs_the_operator_on_each_part(self, tmp_path, command):
        # [re, im] pairs in, pairs out: the real and imaginary grids run the
        # operator apart, bit for bit, and a constant imaginary part still
        # gives pairs
        op = {"halflap": half_laplacian, "hilbert": hilbert, "extend": lambda g: poisson_extend(g, 0.5)}
        th = grid_angles(64)
        src, dst = tmp_path / "g.json", tmp_path / "o.json"
        for imag in (np.sin(2 * th) - 0.25 * np.cos(5 * th), np.full(th.size, 0.5)):
            v = np.cos(th) + 0.3 * np.sin(3 * th) + 1j * imag
            write_grid(src, v)
            assert main([command[0], "--in", str(src), *command[1:], "--out", str(dst)]) == 0
            values = json.loads(dst.read_text())["values"]
            assert all(isinstance(pair, list) and len(pair) == 2 for pair in values)
            parts = [op[command[0]](PeriodicGrid(part)).values for part in (v.real, v.imag)]
            assert np.array(values).tobytes() == np.stack(parts, axis=1).tobytes()

    def test_extend_invalid_radius_is_input_error(self, tmp_path):
        src, dst = tmp_path / "g.json", tmp_path / "o.json"
        write_grid(src, np.ones(32))
        assert main(["extend", "--in", str(src), "--r", "1.5", "--out", str(dst)]) == 1

    def test_curvature_singular_family(self, tmp_path):
        beta = np.pi / 2
        src, dst = tmp_path / "f.json", tmp_path / "o.json"
        obj = PeriodicGrid(np.zeros(256)).to_json()
        obj["anchors"] = [[-np.pi / 2, beta]]
        src.write_text(json.dumps(obj))
        assert main(["curvature", "--in", str(src), "--out", str(dst)]) == 0
        out = json.loads(dst.read_text())
        assert abs(out["curvature_mass"] - (2 * np.pi - beta)) < 1e-8

    def test_curvature_of_a_complex_field_is_input_error(self, tmp_path, capsys):
        # lambda is real: a complex field is refused, not cut to its real part
        src, dst = tmp_path / "f.json", tmp_path / "o.json"
        obj = PeriodicGrid(0.1j * np.cos(grid_angles(64)) + 0.2).to_json()
        obj["anchors"] = [[-np.pi / 2, 0.5]]
        src.write_text(json.dumps(obj))
        assert main(["curvature", "--in", str(src), "--out", str(dst)]) == 1
        assert "InvalidInput" in capsys.readouterr().err
        assert not dst.exists()


class TestCurveCommands:
    def test_fixtures_and_rotation_index(self, tmp_path, capsys):
        assert main(["fixtures", "limacon", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "limacon.json"
        assert path.exists()
        assert main(["rotation-index", "--in", str(path)]) == 0
        assert "rotation index: 2" in capsys.readouterr().out

    def test_unknown_fixture_lists_and_fails(self, tmp_path, capsys):
        out_dir = tmp_path / "D"
        assert main(["fixtures", "nope", "--out-dir", str(out_dir)]) == 1
        assert "available" in capsys.readouterr().out
        assert not out_dir.exists()

    def test_blank_word_on_figure_fixture(self, tmp_path, capsys):
        assert main(["fixtures", "fblank-1", "--out-dir", str(tmp_path)]) == 0
        out = tmp_path / "word.json"
        code = main(
            ["blank-word", "--in", str(tmp_path / "fblank-1.json"), "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "contracts: True (leftmost)" in text
        assert "remove [" in text  # trace printed as indented steps
        obj = json.loads(out.read_text())
        assert obj["contracts"] is True and obj["order"] == "leftmost"

    def test_contract_inline_word(self, capsys):
        assert main(["contract", "--word", "a0- b1+ c0+ a1+ b0+"]) == 0
        assert "contracts: True (leftmost)" in capsys.readouterr().out
        assert main(["contract", "--word", "a0+ b0-"]) == 0
        assert "contracts: False (leftmost)" in capsys.readouterr().out

    def test_contract_rejects_a_letter_without_sign(self, capsys):
        assert main(["contract", "--word", "a10 b0+"]) == 1
        out, err = capsys.readouterr()
        assert "contracts" not in out and "input error" in err

    def test_contract_without_a_word_is_an_input_error(self, capsys):
        assert main(["contract"]) == 1
        out, err = capsys.readouterr()
        assert "contracts" not in out
        assert "input error" in err and "--word" in err and "--in" in err

    def test_contract_reads_a_word_file(self, tmp_path, capsys):
        path = tmp_path / "word.json"
        path.write_text(json.dumps(BlankWord.parse("a0- b1+ c0+ a1+ b0+").to_json()))
        assert main(["contract", "--in", str(path)]) == 0
        assert "contracts: True" in capsys.readouterr().out
        path.write_text(json.dumps({"letters": [["a", 0, "+"], ["b", 0, "*"]]}))
        assert main(["contract", "--in", str(path)]) == 1

    def test_seifert_on_fixture(self, tmp_path, capsys):
        assert main(["fixtures", "fseifert", "--out-dir", str(tmp_path)]) == 0
        assert main(["seifert", "--in", str(tmp_path / "fseifert.json")]) == 0
        assert "pieces: 3" in capsys.readouterr().out

    def test_guard_exit_code_on_tangent_touch(self, tmp_path):
        assert main(["fixtures", "tangent-touch", "--out-dir", str(tmp_path)]) == 0
        code = main(["blank-word", "--in", str(tmp_path / "tangent-touch.json"), "--seed", "1"])
        assert code == 2  # non-generic position trips a numerical guard


# every command that reads --in, with the options it needs besides
IN_COMMANDS = [
    ["halflap", "--out", "{out}"],
    ["hilbert", "--out", "{out}"],
    ["extend", "--r", "0.5", "--out", "{out}"],
    ["curvature", "--out", "{out}"],
    ["rotation-index", "--out", "{out}"],
    ["blank-word", "--out", "{out}"],
    ["contract", "--out", "{out}"],
    ["seifert", "--out", "{out}"],
    ["extendability", "--out", "{out}"],
]


@pytest.mark.parametrize("argv", IN_COMMANDS, ids=lambda argv: argv[0])
def test_json_that_is_not_an_object_is_an_input_error(tmp_path, capsys, argv):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    for doc in ([1, 2, 3], "a string", 3.5, None):
        src.write_text(json.dumps(doc))
        args = [a.format(out=out) for a in argv]
        assert main(args[:1] + ["--in", str(src)] + args[1:]) == 1, doc
        assert "input error: InvalidInput" in capsys.readouterr().err
        assert not out.exists()



CIRCLE_16 = [[float(np.cos(t)), float(np.sin(t))] for t in np.linspace(0, 2 * np.pi, 16, endpoint=False)]


@pytest.mark.parametrize("argv, doc", [
    (["halflap", "--out", "{out}"], {"n": 3, "values": [[1, 2], 3, 4]}),
    (["curvature", "--out", "{out}"], {"n": 8, "values": [0.0] * 8, "anchors": 5}),
    (["rotation-index", "--out", "{out}"], {"vertices": CIRCLE_16, "corners": 5}),
    (["contract", "--out", "{out}"], {"letters": 5}),
], ids=["grid", "field", "curve", "word"])
def test_a_value_of_the_wrong_type_is_an_input_error(tmp_path, capsys, argv, doc):
    # the object is well formed, a value inside it is not
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    args = [a.format(out=out) for a in argv]
    assert main(args[:1] + ["--in", str(src)] + args[1:]) == 1
    assert "input error: InvalidInput" in capsys.readouterr().err
    assert not out.exists()


class TestQuantCommands:
    def test_scan_matches_closed_form(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["scan", "--mu-ladder", "2^0..2^6",
             "--radii", "0.4,0.2,0.1", "--center", "0", "--n", str(1 << 14),
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "r,k,alpha"
        rows = [l.split(",") for l in lines[2:]]
        for r, k, alpha in rows:
            expect = 4 * np.arctan(2.0 ** int(k) * float(r))
            assert abs(float(alpha) - expect) < 1e-3

    def test_classify_case_two(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["classify", "--mu-ladder", "2^0..2^10", "--center", "0",
             "--n", str(1 << 15), "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["case"] == 2

    def test_audit(self, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["audit", "--mu-ladder", "0.25,1,4", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert all(e["included"] for e in obj["entries"])

    def test_pinch(self, tmp_path):
        out = tmp_path / "pinch.json"
        code = main(["pinch", "--mu-ladder", "1,16,64", "--mesh", "64",
                     "--kappa-bound", "1.0", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        row = obj["table"][0]
        assert all(b < a for a, b in zip(row, row[1:]))

    def test_pinch_prints_plain_verdicts(self, tmp_path, capsys):
        out = tmp_path / "pinch.json"
        code = main(["pinch", "--mu-ladder", "1,16,64", "--mesh", "64", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "pinched: [True]\n"
        assert json.loads(out.read_text())["verdicts"] == [True]

    @pytest.mark.parametrize("argv", [
        ["scan", "--mu-ladder", "1,2", "--radii", ","],
        ["classify", "--mu-ladder", "1,2", "--radii", ","],
        ["audit", "--mu-ladder", "1,2", "--x0-list", ","],
    ])
    def test_empty_number_list_is_an_input_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "has no members" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        # radii must be finite and positive: a negative one found no blow-up
        # point, a zero one wrote alpha = 0 rows
        ["classify", "--mu-ladder", "2^0..2^12", "--radii", "0.1,0.05,-0.025"],
        ["scan", "--mu-ladder", "1,2", "--radii", "0.1,0"],
        ["scan", "--mu-ladder", "1,2", "--radii", "0.1,nan"],
        ["scan", "--mu-ladder", "1,2", "--radii", "inf,0.1"],
        # the circle grid needs n > 0
        ["scan", "--mu-ladder", "1,2", "--radii", "0.1", "--n", "0"],
        ["scan", "--mu-ladder", "1,2", "--radii", "0.1", "--n", "-4"],
        ["scan", "--mu-ladder", "1,2", "--radii", "0.1", "--x0", "nan"],
        # the mesh needs 8 boundary nodes, the curvature bound must be > 0
        ["pinch", "--mu-ladder", "1,16", "--mesh", "0"],
        ["pinch", "--mu-ladder", "1,16", "--mesh", "64", "--kappa-bound", "0"],
        ["pinch", "--mu-ladder", "1,16", "--mesh", "64", "--kappa-bound", "-1"],
        ["pinch", "--mu-ladder", "1,16", "--mesh", "64", "--kappa-bound", "nan"],
        ["pinch", "--mu-ladder", "1,16", "--mesh", "64", "--kappa-bound", "inf"],
        # a distance trend needs two maps
        ["pinch", "--mu-ladder", "4", "--mesh", "64"],
        # a bubble's center must be finite
        ["audit", "--mu-ladder", "1,4", "--x0-list", "nan"],
        ["audit", "--mu-ladder", "1,4", "--x0-list", "0,inf"],
    ])
    def test_out_of_range_lab_input_is_an_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "classify", "pinch", "audit"])
    def test_empty_mu_ladder_is_an_input_error(self, tmp_path, capsys, command):
        argv = [command, "--mu-ladder", "2^3..2^1", "--out", str(tmp_path / "out")]
        if command == "scan":
            argv += ["--radii", "0.4,0.2,0.1"]
        assert main(argv) == 1
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scan", "classify", "pinch", "audit"])
    def test_mu_ladder_of_two_bases_is_an_input_error(self, tmp_path, capsys, command):
        # 2^0..3^3 would run 2^0 .. 2^3 under the base of its lower end
        argv = [command, "--mu-ladder", "2^0..3^3", "--out", str(tmp_path / "out")]
        if command == "scan":
            argv += ["--radii", "0.4,0.2,0.1"]
        assert main(argv) == 1
        assert "two bases" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fixtures_take_no_seed(self, tmp_path, capsys):
        assert main(["fixtures", "circle", "--out-dir", str(tmp_path), "--seed", "5"]) == 2
        capsys.readouterr()
        assert main(["fixtures", "circle", "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "circle.json").read_text())["meta"]["seed"] is None


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        suite = [
            lambda d: ["fixtures", "limacon", "--out-dir", d],
            lambda d: ["fixtures", "fblank-1", "--out-dir", d],
            lambda d: ["scan", "--mu-ladder", "2^0..2^4", "--radii", "0.4,0.2",
                       "--center", "0", "--n", str(1 << 12),
                       "--out", os.path.join(d, "scan.csv")],
            lambda d: ["audit", "--mu-ladder", "1,4",
                       "--out", os.path.join(d, "audit.json")],
        ]
        blobs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            for cmd in suite:
                assert main(cmd(str(d))) == 0
            blob = {}
            for name in sorted(os.listdir(d)):
                blob[name] = (d / name).read_bytes()
            blobs.append(blob)
        assert blobs[0].keys() == blobs[1].keys()
        for name in blobs[0]:
            assert blobs[0][name] == blobs[1][name], f"{name} differs between runs"

    def test_blank_word_output_deterministic(self, tmp_path, capsys):
        assert main(["fixtures", "fblank-1", "--out-dir", str(tmp_path)]) == 0
        outs = []
        for run in ("x", "y"):
            out = tmp_path / f"{run}.json"
            main(["blank-word", "--in", str(tmp_path / "fblank-1.json"),
                  "--seed", "3", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_usage_error_unknown_subcommand():
    assert main(["frobnicate"]) != 0


def test_theorem_violation_maps_to_exit_3(tmp_path, monkeypatch):
    import liouville_disk.cli as cli
    from liouville_disk.errors import TheoremViolation

    def boom(*a, **k):
        raise TheoremViolation("synthetic")

    monkeypatch.setattr(cli, "classify_case", boom)
    out = tmp_path / "rep.json"
    code = main(["classify", "--mu-ladder", "1,2,4,8", "--center", "0",
                 "--n", str(1 << 10), "--out", str(out)])
    assert code == 3


def test_readme_cli_block_parses():
    # every liouville-disk line of README's CLI block, continuation lines
    # joined and trailing comments dropped, is accepted by the parser
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("liouville-disk ")]
    assert len(lines) >= 10
    parser = build_parser()
    for argv in lines:
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_every_subcommand_option_is_read():
    # an option that no command reads changes nothing; every option added
    # in cli.py must be read there as args.<dest> or getattr(args, "<dest>")
    import ast

    import liouville_disk.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text())
    added, reads = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        kw = {k.arg: k.value.value for k in node.keywords if isinstance(k.value, ast.Constant)}
        if isinstance(func, ast.Name) and func.id == "getattr" \
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "args":
            reads.add(node.args[1].value)
        elif isinstance(func, ast.Attribute) and func.attr == "add_argument" \
                and kw.get("action") not in ("version", "help"):
            flags = [a.value for a in node.args]
            longs = [f for f in flags if f.startswith("--")]
            dest = kw.get("dest", (longs[0] if longs else flags[0]).lstrip("-").replace("-", "_"))
            added.append((dest, flags))
    assert len(added) >= 30
    unread = [(dest, flags) for dest, flags in added if dest not in reads]
    assert not unread, unread
