import ast
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_out_scipy_sparse():
    # importing scipy.sparse costs every process memory and start-up time;
    # a change that pulls it in should quote that cost from the benchmark
    code = ("import sys, dcgrid, dcgrid.cli; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=Path(dcgrid.__file__).parents[1])
    assert out.stdout.strip() == "False"


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
