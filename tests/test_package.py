"""Package-wide checks: one code path per kernel, one quadrature path,
one series-evaluation path per use, no runtime options and no definition
without a caller.

The package must run without numba, read no environment variables, import
no adaptive quadrature (the principal-value oracles live in the tests),
assemble anchored cell quadrature only in spectral.singular_cell_integrals,
walk faces and Seifert circles only through arrangement._cycles,
place the circle grid on the line only in line.circle_chart, fit the value
at the pole only in line._fitted_pole, raise NotHolomorphic only in disk's
guard step and NumericalInconsistency only in curves._turning_index,
intersect segments only in _kernels, evaluate
|Phi'| on rings only through the folded FFT, hand out only read-only arrays
from its caches, build every value through its constructor, hand a disk
map a Rouche certificate only from build_phi, import nothing it does not
use and define nothing that only the tests call, so a second kernel
implementation, a second quadrature path, a per-point fallback, a new
knob, a writable cached table, a constructor bypass, an unchecked
immersion verdict, a test oracle or the leftovers of a removed path cannot
come back unnoticed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import liouville_disk
from liouville_disk import _kernels, disk, quant

PACKAGE_DIR = Path(liouville_disk.__file__).parent


def module_trees():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_numba():
    offenders = []
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            if "numba" in roots:
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_no_module_reads_the_environment():
    offenders = []
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
                offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(a.name in ("environ", "environb", "getenv") for a in node.names):
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def unused_module_imports(tree):
    """Names bound by the module's top-level imports that it never loads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {lineno})" for name, lineno in bound.items() if name not in used)


def test_no_module_has_an_unused_import():
    # the package __init__ imports only to re-export
    offenders = {
        name: unused
        for name, tree in module_trees()
        if name != "__init__.py" and (unused := unused_module_imports(tree))
    }
    assert offenders == {}


def test_unused_import_check_sees_a_leftover():
    tree = ast.parse("import numpy as np\nfrom .spectral import eval_modes, grid_angles\ngrid_angles(8)\n")
    assert unused_module_imports(tree) == ["eval_modes (line 2)", "np (line 1)"]


def test_import_loads_no_scipy_signal_integrate_or_special():
    # no module needs scipy.signal or scipy.integrate, the Gauss-Jacobi
    # rule is built by Golub-Welsch rather than scipy.special.roots_jacobi,
    # and _kernels.dijkstra imports scipy.sparse when it runs, so importing
    # the package loads no scipy module at all
    code = (
        "import sys, liouville_disk; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.stdout.strip() == "[]"


def test_the_readme_pinch_ladder_loads_no_scipy(tmp_path):
    # every bubble chord is certified, so no distance reaches the mesh's
    # Dijkstra, the one user of scipy
    code = (
        "import sys; from liouville_disk.cli import main; "
        f"code = main(['pinch', '--mu-ladder', '1,16,256,4096', '--mesh', '256', '--out', {str(tmp_path / 'p.json')!r}]); "
        "print(code, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "0 []"


def test_pinching_bubbles_builds_no_mesh_and_runs_no_dijkstra(monkeypatch):
    from liouville_disk import mesh

    calls = []

    def counted(name, original):
        def fn(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return fn

    disk._mesh_cache.cache_clear()  # a cached mesh would hide a build
    monkeypatch.setattr(disk, "build_polar_mesh", counted("build_polar_mesh", mesh.build_polar_mesh))
    monkeypatch.setattr(mesh, "dijkstra", counted("dijkstra", mesh.dijkstra))
    for x0 in (0.0, 0.3, -0.45):
        maps = [quant.bubble(mu=mu, x0=x0).disk_map() for mu in (1.0, 16.0, 256.0, 4096.0)]
        rep = quant.pinching_probe(maps, [(1.0, -1.0), (1j, np.exp(2.5j))], mesh_n=256)
        assert rep.verdicts[0]
    assert calls == []
    # the counters see the mesh route where the certificate fails
    z2 = disk.make_disk_map(np.array([0.0, 0.0, 1.0]), normalized_at_one=False)
    disk.conformal_distance(z2, 1.0, 1j)
    assert calls == ["build_polar_mesh", "dijkstra"]


def constructor_bypasses(tree):
    """object.__new__ calls and _adopt definitions: ways to make a value
    without its constructor, which checks and copies what it is given."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if node.func.attr == "__new__" and isinstance(owner, ast.Name) and owner.id == "object":
                found.append(f"object.__new__ (line {node.lineno})")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_adopt":
            found.append(f"_adopt (line {node.lineno})")
    return found


def test_every_value_type_has_one_constructor():
    offenders = {name: found for name, tree in module_trees() if (found := constructor_bypasses(tree))}
    assert offenders == {}


def test_constructor_bypass_check_sees_both_forms():
    tree = ast.parse(
        "class Grid:\n"
        "    @classmethod\n"
        "    def _adopt(cls, values):\n"
        "        g = object.__new__(cls)\n"
        "        return g\n"
    )
    assert constructor_bypasses(tree) == ["_adopt (line 3)", "object.__new__ (line 4)"]


def _passes_certified(call):
    for kw in call.keywords:
        if kw.arg == "certified":
            return True
        if kw.arg is None and isinstance(kw.value, ast.Dict):  # **{"certified": ...}
            if any(isinstance(k, ast.Constant) and k.value == "certified" for k in kw.value.keys):
                return True
    return False


def certificate_passers(tree):
    """(qualified name of the enclosing function or class, line) of every
    call that passes certified, by keyword or in a ** dict literal: the
    Rouche verdict with which a DiskMap skips its zero count."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            elif isinstance(child, ast.Call) and _passes_certified(child):
                found.append((owner or "<module>", child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_build_phi_hands_a_disk_map_its_certificate():
    # build_phi alone has the Rouche test behind the verdict; every other
    # map is certified by the constructor's own zero count
    passers = [(name, owner) for name, tree in module_trees() for owner, _ in certificate_passers(tree)]
    assert passers == [("disk.py", "build_phi")]


def test_certificate_check_sees_every_caller():
    tree = ast.parse(
        "def build_phi(bt):\n"
        "    return DiskMap(c, True, certified=rouche)\n"
        "class Fixture:\n"
        "    def make(self, d):\n"
        "        return DiskMap(d.coeffs, **{'certified': d.immersed})\n"
        "UNIT = DiskMap([-1.0, 1.0], certified=True)\n"
    )
    assert certificate_passers(tree) == [("build_phi", 2), ("Fixture.make", 5), ("<module>", 6)]


def test_kernels_expose_one_function_per_kernel():
    public = sorted(
        name
        for name, obj in vars(_kernels).items()
        if callable(obj) and not name.startswith("_") and obj.__module__ == _kernels.__name__
    )
    assert public == ["dijkstra", "segment_hits", "segment_meets", "winding_batch"]


def test_src_imports_no_scipy_integrate():
    # production quadrature uses fixed rules; the adaptive principal-value
    # oracles that cross-check them live in the tests
    offenders = []
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(m == "scipy.integrate" or m.startswith("scipy.integrate.") for m in modules):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


REPO_DIR = Path(__file__).resolve().parents[1]

# public remedies that users call and no module of the package does
CALLER_ALLOWED = {
    # the NotGenericPosition error of self_intersections tells the user to
    # jitter the curve
    "curves.jitter",
    # a bubble's pullback at any angles; pull_back and lambda_bar read the
    # same formula on the chart cached per grid size
    "quant.Bubble.lambda_at",
}


def tracing_targets():
    """perfbench/tracing.py's TARGETS, read from its source: the tracer
    looks those functions up by name."""
    tree = ast.parse((REPO_DIR / "perfbench" / "tracing.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    return set(ast.literal_eval(value))


PACKAGE = liouville_disk.__name__


def module_name(dotted, level=0):
    """A module as the definitions name it: a module of the package without
    the package prefix, PACKAGE for the package itself."""
    if level:
        return dotted or PACKAGE
    return dotted.removeprefix(PACKAGE + ".")


def import_bindings(tree):
    """name -> (module, attribute) for every name that the file's imports
    bind, with attribute None for a name bound to a module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = (module_name(alias.name), None)
                else:
                    first = alias.name.split(".")[0]
                    bound[first] = (module_name(first), None)
        elif isinstance(node, ast.ImportFrom):
            module = module_name(node.module, node.level)
            for alias in node.names:
                name = alias.asname or alias.name
                # from the package itself, a name is one of its modules
                bound[name] = (alias.name, None) if module == PACKAGE else (module, alias.name)
    return bound


def bound_module(node, bound):
    """The module that an expression names: a name bound to a module, or a
    module of the package as an attribute of the package."""
    if isinstance(node, ast.Name) and node.id in bound and bound[node.id][1] is None:
        return bound[node.id][0]
    if isinstance(node, ast.Attribute) and bound_module(node.value, bound) == PACKAGE:
        return node.attr
    return None


def references(paths):
    """(qualified, attributes) that the given files load.  qualified holds
    module.name for a bare name that the file defines (module = the file's
    own) or imports from that module, and for an attribute of a name bound
    to that module; attributes holds every attribute name loaded."""
    qualified, attributes = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = import_bindings(tree)
        own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if bound.get(node.id, (None, None))[1] is not None:
                    qualified.add(".".join(bound[node.id]))
                elif node.id in own:
                    qualified.add(f"{path.stem}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                module = bound_module(node.value, bound)
                if module is not None:
                    qualified.add(f"{module}.{node.attr}")
    return qualified, attributes


def definitions(name, tree):
    """(name, module.qualified.name) of each top-level function and class of
    a module and each method of its classes, dunder methods aside."""
    module = name[:-3]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, f"{module}.{node.name}.{item.name}"


def uncalled_definitions(paths, trees, targets):
    """Definitions of trees that no file of paths loads and that targets
    does not name.  A top-level function or class counts by its qualified
    name (see references), so a method or a name of another module that
    shares its short name does not call it; a method counts by its
    attribute name."""
    qualified, attributes = references(paths)
    return sorted(
        name
        for module, tree in trees
        for short, name in definitions(module, tree)
        if name not in targets
        and not (short in attributes if name.count(".") == 2 else name in qualified)
    )


def test_every_src_definition_has_a_caller():
    # the package, its command line and the benchmark are the callers; a
    # definition that only the tests call is a test helper and lives there
    callers = sorted(PACKAGE_DIR.glob("*.py")) + [
        path for path in sorted((REPO_DIR / "perfbench").glob("*.py")) if path.name != "test_bench.py"
    ]
    uncalled = uncalled_definitions(callers, module_trees(), tracing_targets())
    assert uncalled == sorted(CALLER_ALLOWED)


def test_caller_check_sees_an_uncalled_definition(tmp_path):
    # shrink is loaded only as the method Box.shrink and unused only as a
    # name of the caller's own, so neither calls the function of mod
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import mod\nfrom mod import used\nunused = 1\n"
        "used(mod.Box().size, mod.Box().shrink, unused)\n"
    )
    tree = ast.parse(
        "def used(): pass\ndef unused(): pass\ndef traced(): pass\ndef shrink(): pass\n"
        "class Box:\n    def __init__(self): pass\n    size = 1\n"
        "    def grow(self): pass\n    def shrink(self): pass\n"
    )
    assert uncalled_definitions([caller], [("mod.py", tree)], {"mod.traced"}) == [
        "mod.Box.grow", "mod.shrink", "mod.unused",
    ]


def test_caller_check_reads_module_bindings(tmp_path):
    # a package module is called through a relative import, an absolute one,
    # an alias, an attribute of the module or of the package, or by its own
    # file
    sources = {
        "relative.py": "from .mod import a\na()\n",
        "aliased.py": f"from {PACKAGE}.mod import b as bee\nbee()\n",
        "module.py": f"from {PACKAGE} import mod\nmod.c()\n",
        "package.py": f"import {PACKAGE}\n{PACKAGE}.mod.d()\n",
        "mod.py": "def e(): pass\ndef f(): e()\n",
    }
    callers = [tmp_path / name for name in sources]
    for path in callers:
        path.write_text(sources[path.name])
    tree = ast.parse("".join(f"def {name}(): pass\n" for name in "abcdefg"))
    assert uncalled_definitions(callers, [("mod.py", tree)], set()) == ["mod.f", "mod.g"]


def call_scopes(tree, names):
    """Enclosing class and function names, joined, of every call to one of
    names, whether called bare or as an attribute."""

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in names) or (
                isinstance(f, ast.Attribute) and f.attr in names
            ):
                yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(tree, ()))


def package_call_scopes(names):
    """module.scope of every call in the package to one of names."""
    return {
        f"{name[:-3]}.{scope}"
        for name, tree in module_trees()
        for scope in call_scopes(tree, names)
    }


def test_anchored_cell_quadrature_has_one_home():
    # the fixed rules beside anchors and the shifted-grid Gauss cells are
    # assembled in one function, which line and disk both call
    assert package_call_scopes({"singular_cell_rule", "eval_shifted_grids"}) == {
        "spectral.singular_cell_integrals"
    }


def test_crossing_permutations_have_one_cycle_walk():
    # faces and Seifert circles are both cycles of a permutation of crossing
    # passages, walked by arrangement._cycles; no second tracer comes back
    assert package_call_scopes({"_cycles"}) == {
        "arrangement.build_arrangement", "blank.seifert_decompose",
    }
    path = PACKAGE_DIR / "arrangement.py"
    defined = {
        node.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert defined.isdisjoint({"Arc", "_trace_faces"})


def test_each_guard_raises_in_one_home():
    # the tail and negative-frequency guards run as one step, in that order,
    # and a turning number is rounded under one integrality guard
    assert package_call_scopes({"NotHolomorphic"}) == {"disk._truncate_with_guard"}
    assert package_call_scopes({"NumericalInconsistency"}) == {"curves._turning_index"}
    assert package_call_scopes({"_turning_index"}) == {
        "curves.rotation_index", "blank._loose_rotation_index",
    }


def test_the_pole_fit_has_one_home():
    # the value at -i of the curvature, of lambda and of a window integrand
    # all come from line._fitted_pole
    path = PACKAGE_DIR / "line.py"
    assert set(call_scopes(ast.parse(path.read_text(), filename=str(path)), {"polyfit"})) == {
        "_fitted_pole"
    }
    assert package_call_scopes({"_fitted_pole"}) == {
        "line._with_pole", "line.window_samples",
    }


def test_segment_intersection_has_one_home():
    # the splice of the fixtures finds its crossings through segment_hits;
    # the sweep's candidate pairs stay inside _kernels
    assert package_call_scopes({"_candidate_pairs"}) == {"_kernels.segment_hits"}
    bound = import_bindings(ast.parse((PACKAGE_DIR / "fixtures.py").read_text()))
    assert bound.get("segment_hits") == ("_kernels", "segment_hits")


def test_the_line_solve_and_the_vertex_turn_have_one_home_each():
    # the Cramer solve of a + u r = b + v s serves the segment sweep, the
    # exact segment verdict, the ray fan and the fillet's tangent lines; the
    # wrapped turn at a vertex serves the curve's constructor and the loose
    # index of a gluing piece
    assert package_call_scopes({"_cross_solve"}) == {
        "_kernels.segment_hits", "predicates.segment_verdict",
        "blank._cast_fan", "curves.fillet_corners",
    }
    assert package_call_scopes({"_vertex_turns"}) == {
        "curves.PolyCurve.__post_init__", "blank._loose_rotation_index",
    }


def test_circle_formulas_have_one_home_each():
    # the gap between two angles and the grid node nearest to an angle are
    # written once, in spectral; the chord route takes its nodes from there
    assert package_call_scopes({"angular_gap"}) == {
        "spectral.SingularField.__post_init__", "line.LineField.beta", "line.transfer_equation",
    }
    assert package_call_scopes({"grid_node"}) == {
        "disk.conformal_distance", "disk._singular_boundary_polyline",
    }


def test_a_curve_keeps_its_frame_in_fields():
    # edges, lengths, angles and turns are fields that the constructor
    # fills once: no method recomputes them, and mesh numbers no nodes
    trees = dict(module_trees())
    (curve,) = [node for node in trees["curves.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "PolyCurve"]
    methods = [item.name for item in curve.body if isinstance(item, ast.FunctionDef)]
    assert methods and [name for name in methods if name.startswith("edge_")] == []
    assert "boundary_node" not in {node.name for node in trees["mesh.py"].body
                                   if isinstance(node, ast.FunctionDef)}


def test_anchored_cell_quadrature_reads_half_spectra():
    # the anchored quadrature and its two callers transform their real grids
    # by real_half_spectrum: no mirrored spectrum from analyze, which no
    # module of the package calls
    assert package_call_scopes({"analyze"}) == set()


def test_spectral_runs_complex_transforms_only_in_analyze():
    # the operators read real rows by rfft and irfft; the full complex
    # forward transform serves analyze's public view alone, and no inverse
    # complex transform is left
    path = PACKAGE_DIR / "spectral.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert call_scopes(tree, {"fft"}) == ["analyze"]
    assert call_scopes(tree, {"ifft", "ifftshift"}) == []


FULL_SPECTRUM = {"analyze", "SpectralRep"}


def test_only_spectral_names_the_full_spectrum():
    # every other module evaluates one-sided rows; the package __init__
    # only re-exports the public names
    offenders = []
    for name, tree in module_trees():
        if name in ("spectral.py", "__init__.py"):
            continue
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id)
                or (isinstance(node, ast.Attribute) and node.attr)
                or (isinstance(node, ast.alias) and node.name)
            )
            if named in FULL_SPECTRUM:
                offenders.append(f"{name}:{getattr(node, 'lineno', '?')} {named}")
    assert offenders == []


def test_eval_modes_has_one_code_path():
    # one sum over one-sided rows: no format test and no format or offset
    # parameter
    path = PACKAGE_DIR / "spectral.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "eval_modes"]
    assert [a.arg for a in fn.args.args] == ["coeffs", "thetas"]
    assert not (fn.args.defaults or fn.args.kwonlyargs or fn.args.vararg or fn.args.kwarg)
    assert call_scopes(fn, {"isinstance"}) == []


def test_the_circle_chart_alone_places_the_grid_on_the_line():
    # the pole index and Pi(theta_j) of the grid are computed once per n
    assert package_call_scopes({"_pole_index", "stereo_project"}) == {"line.circle_chart"}


# point evaluation of a series: the map, its derivative and the corner
# tangent fit; |Phi'| on rings (min_deriv's boundary ring, distance mesh) is
# folded
POLYVAL_CALLERS = {"DiskMap.__call__", "DiskMap.derivative", "_one_sided_tangent"}


def test_polyval_is_called_only_for_point_evaluation():
    path = PACKAGE_DIR / "disk.py"
    scopes = call_scopes(ast.parse(path.read_text(), filename=str(path)), {"polyval"})
    assert set(scopes) == POLYVAL_CALLERS


def test_conformal_distance_makes_no_polyval_call(monkeypatch):
    d = quant.bubble(mu=2048.0, x0=0.1).disk_map()
    calls = [0]
    original = np.polynomial.polynomial.polyval

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", counted)
    assert disk.conformal_distance(d, 1.0, -1.0) > 0
    assert calls[0] == 0


def test_a_bubble_disk_map_runs_three_transforms_of_its_length(monkeypatch):
    # one rfft of lambda (band-limit guard and conjugate), one irfft (rho)
    # and one complex fft of phi; the only other transform is the inverse
    # FFT of min_deriv's boundary ring
    calls = []

    def counted(name, original):
        def transform(a, *args, **kw):
            out = original(a, *args, **kw)
            # the length of the grid side: the output of an inverse real FFT
            calls.append((name, (out if name.startswith("ir") else np.asarray(a)).shape[-1]))
            return out

        return transform

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    quant.bubble(mu=64.0, x0=0.3).disk_map()
    n = 2048  # the smallest power of two of at least 20 mu points
    assert calls == [("rfft", n), ("irfft", n), ("fft", n), ("ifft", disk.BOUNDARY_RING_N)]


def test_build_phi_folds_at_most_one_ring(monkeypatch):
    folded = []
    original = disk._abs_on_rings
    monkeypatch.setattr(disk, "_abs_on_rings",
                        lambda coef, rings: folded.append(rings.P.shape) or original(coef, rings))
    for mu in (1.0, 256.0, 4096.0):
        quant.bubble(mu=mu, x0=0.3).disk_map()
    disk.make_disk_map(np.array([0.0, -0.5, 0.5]), normalized_at_one=False)
    assert folded == [(1, disk.BOUNDARY_RING_N)] * 4


def test_disk_has_no_lattice():
    path = PACKAGE_DIR / "disk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in sorted(names) if name.startswith("_lattice")] == []
    assert [name for name in vars(disk) if name.startswith("_lattice")] == []


# arguments the read-only guard calls each cached definition of the package
# with; a cached definition without an entry fails the guard
CACHE_ARGS = {
    "spectral.grid_angles": [(8,), (12,), (256,)],
    "spectral._jacobi_rule": [(-0.5,), (0.75,)],
    "line.circle_chart": [(8,), (64,)],
    "disk._boundary_ring": [(256,), (64,)],
    "disk._mesh_cache": [(64,)],
    "quant._grid_chart": [(8,), (1024,)],
}


def cached_definitions(trees):
    """module.name of every function decorated with lru_cache or cache,
    bare, called or read from functools."""
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                ident = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if ident in ("lru_cache", "cache"):
                    found.append(f"{name[:-3]}.{node.name}")
    return sorted(found)


def reachable_arrays(value, seen=None):
    """Every ndarray in value: the value itself, the items of tuples and
    lists (named tuples too) and the attributes of other objects (dataclass
    fields included), followed to any depth."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from reachable_arrays(item, seen)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from reachable_arrays(item, seen)


def test_cached_definitions_are_found():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=4)\ndef a(n): pass\n@functools.cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n@functools.lru_cache\ndef d(): pass\ndef e(): pass\n"
    )
    assert cached_definitions([("mod.py", tree)]) == ["mod.a", "mod.b", "mod.c", "mod.d"]


def test_every_cache_hands_out_read_only_arrays():
    # a cached value goes to every later caller: one that writes into it
    # would change what all of them read
    cached = cached_definitions(module_trees())
    assert sorted(CACHE_ARGS) == cached
    for dotted, arg_sets in CACHE_ARGS.items():
        module, name = dotted.split(".")
        fn = getattr(getattr(liouville_disk, module), name)
        for args in arg_sets:
            value = fn(*args)
            for rings in [v for v in (value if isinstance(value, tuple) else (value,))
                          if isinstance(v, disk.RingPowers)]:
                rings.V(rings._V.shape[1] + 2)  # a grown table too
            arrays = list(reachable_arrays(value))
            assert arrays, dotted
            writable = [a.shape for a in arrays if a.flags.writeable]
            assert writable == [], (dotted, args, writable)
