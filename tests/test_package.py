"""Package-wide checks: one code path per kernel and no runtime options.

The package must run without numba and read no environment variables, so
a second kernel implementation or a new knob cannot come back unnoticed.
"""

import ast
from pathlib import Path

import liouville_disk
from liouville_disk import _kernels

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


def test_kernels_expose_one_function_per_kernel():
    public = sorted(
        name
        for name, obj in vars(_kernels).items()
        if callable(obj) and not name.startswith("_") and obj.__module__ == _kernels.__name__
    )
    assert public == ["dijkstra", "segment_hits", "winding_batch"]
