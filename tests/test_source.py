import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcgrid

SOURCES = sorted(Path(dcgrid.__file__).parent.glob("*.py"))


def test_no_bare_assert():
    # python -O strips assert statements, so invariant checks must raise
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _python(code, *args, cwd=None):
    """stdout of a fresh interpreter that runs ``code`` with ``args`` and
    this dcgrid first on its path."""
    src = str(Path(dcgrid.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, check=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_import_leaves_out_scipy():
    # scipy.linalg was more than half of every CLI call's start-up; only
    # the kernels that call it import it, on first use
    code = ("import sys, dcgrid, dcgrid.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _python(code) == "[]"


def _module_level(tree):
    """Every node that runs when the module is imported: all but the
    bodies of functions and lambdas."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            yield node
            yield from _module_level(node)


def test_no_module_level_scipy_import():
    found = []
    for path in SOURCES:
        for node in _module_level(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# runs each argv through the CLI, its summaries kept off stdout
ROUTE_CODE = """
import contextlib, io, sys
from dcgrid.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv.split()) for argv in sys.argv[1:]]
print(codes, 'scipy.linalg' in sys.modules)
"""


@pytest.mark.parametrize("argvs, loaded", [
    (["h2 --gen grid2:8x8", "sweep --family grid3d --sizes 3,4"], False),
    (["h2 --gen fuzz:2:grid2:4x4"], True),
], ids=["box-lattices", "h-fuzz"])
def test_scipy_linalg_loads_only_off_the_box_route(argvs, loaded, tmp_path):
    # a box lattice's spectrum is analytic; an h-fuzz needs the banded
    # Cholesky factor, whose import comes with its first use
    out = _python(ROUTE_CODE, *argvs, cwd=tmp_path)
    assert out == f"{[0] * len(argvs)} {loaded}"


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eig_banded",
                "eigvals_banded"}
# (module, function) -> the eigensolvers it may call
EIGENSOLVER_CALLERS = {("numerics", "eig_sym"): {"eigvalsh"},
                       # a nonsymmetric A: its decay rates, not a spectrum
                       ("simulation", "slowest_time_constant"): {"eigvals"}}


def _calls_by_function(tree, scope="<module>"):
    """(enclosing top-level function, called name) for every call whose
    callee is a bare or dotted name."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if (scope == "<module>"
                and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            inner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name is not None:
                yield scope, name
        yield from _calls_by_function(node, inner)


def test_eigensolves_go_through_eig_sym():
    # the benchmark's span wrapper and the call-shape tests see a symmetric
    # eigensolve only when it goes through numerics.eig_sym
    found = {}
    for path in SOURCES:
        for scope, name in _calls_by_function(ast.parse(path.read_text())):
            if name in EIGENSOLVERS:
                found.setdefault((path.stem, scope), set()).add(name)
    assert found == EIGENSOLVER_CALLERS


def test_connectivity_search_only_in_build_network():
    # box lattices, h-fuzzes and their files are connected by construction,
    # so the Python search belongs to build_network's other graphs alone
    found = {(path.stem, scope)
             for path in SOURCES
             for scope, name in _calls_by_function(ast.parse(path.read_text()))
             if name == "_bfs"}
    assert found == {("network", "build_network")}


def test_trajectory_grid_only_in_simulate():
    # simulate lays out the trajectory grid; a second caller of its step
    # or propagator would be a second owner of that grid
    found = {(path.stem, scope, name)
             for path in SOURCES
             for scope, name in _calls_by_function(ast.parse(path.read_text()))
             if name in ("default_dt", "propagator")}
    assert found == {("simulation", "simulate", "default_dt"),
                     ("simulation", "simulate", "propagator")}
