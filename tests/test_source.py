import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcgrid
from dcgrid import errors

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


def test_import_builds_no_power_table():
    # the 5^i table of the CSV kernel costs start-up time; it is built on
    # the first export, not at import
    code = ("import dcgrid, dcgrid.cli\n"
            "from dcgrid import shortest\n"
            "before = shortest._tables.cache_info().currsize\n"
            "shortest.csv_rows([[0.1]])\n"
            "print(before, shortest._tables.cache_info().currsize)")
    assert _python(code) == "0 1"


def _module_level(tree):
    """Every node that runs when the module is imported: all but the
    bodies of functions and lambdas."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            yield node
            yield from _module_level(node)


def _scipy_imports(path, nodes):
    """file:line of every import among ``nodes`` that names scipy."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_level_scipy_import():
    found = []
    for path in SOURCES:
        found += _scipy_imports(path, _module_level(ast.parse(
            path.read_text())))
    assert found == []


def test_simulation_imports_no_scipy():
    # the propagator sums its Taylor series in numpy and the Gramian needs
    # only inverses, so trajectories and both stochastic routes never load
    # scipy.linalg
    path = Path(dcgrid.__file__).parent / "simulation.py"
    assert _scipy_imports(path, ast.walk(ast.parse(path.read_text()))) == []


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
    (["sim --gen path:4 --T 0.01", "fig2 --n 3 --T 0.01"], False),
    (["h2 --gen fuzz:2:grid2:4x4"], True),
], ids=["box-lattices", "trajectories", "h-fuzz"])
def test_scipy_linalg_loads_only_off_the_box_route(argvs, loaded, tmp_path):
    # a box lattice's spectrum is analytic and a trajectory's propagator
    # is summed in numpy; an h-fuzz needs the banded Cholesky factor, whose
    # import comes with its first use
    out = _python(ROUTE_CODE, *argvs, cwd=tmp_path)
    assert out == f"{[0] * len(argvs)} {loaded}"


def test_scipy_linalg_loads_only_for_the_oracle():
    # of the three routes to the H2 norm, only the Lyapunov oracle needs
    # scipy's Schur form
    code = ("import sys\n"
            "import dcgrid as d\n"
            "m = d.assemble_droop(d.generate_lattice(1, 3), "
            "d.ControllerParams())\n"
            "d.monte_carlo_h2(m, 10)\n"
            "d.white_noise_variance(m, 1000.0)\n"
            "before = 'scipy.linalg' in sys.modules\n"
            "d.h2_lyapunov(m)\n"
            "print(before, 'scipy.linalg' in sys.modules)")
    assert _python(code) == "False True"


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eig_banded",
                "eigvals_banded"}
# (module, function) -> the eigensolvers it may call
EIGENSOLVER_CALLERS = {("numerics", "eig_sym"): {"eigvalsh"},
                       # a nonsymmetric A: its decay rates, not a spectrum
                       ("simulation", "slowest_time_constant"): {"eigvals"}}


def _nodes_by_function(tree, scope="<module>"):
    """(enclosing top-level function, node) for every node below ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if (scope == "<module>"
                and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            inner = node.name
        yield scope, node
        yield from _nodes_by_function(node, inner)


def _calls_by_function(tree):
    """(enclosing top-level function, called name) for every call whose
    callee is a bare or dotted name."""
    for scope, node in _nodes_by_function(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name is not None:
                yield scope, name


def test_scipy_gives_only_lapack_routines():
    # scipy's checking wrappers (schur, cholesky_banded, ...) cost more
    # than the LAPACK routine under them on the oracle's small matrices,
    # so each kernel calls the routine and checks its own input; the one
    # other use of scipy is the version the CLI records
    import scipy.linalg.lapack

    routines, other = [], []
    for path in SOURCES:
        for scope, node in _nodes_by_function(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] != "scipy":
                    continue
                if node.module != "scipy.linalg.lapack":
                    other.append(f"{path.name}:{node.lineno}")
                routines += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                other += [f"{path.stem}.{scope} imports {alias.name}"
                          for alias in node.names
                          if alias.name.split(".")[0] == "scipy"]
    assert other == ["cli._metadata imports scipy"]
    assert "dgees" in routines
    for name in routines:
        assert type(getattr(scipy.linalg.lapack, name)).__name__ == "fortran"


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
    # or propagator would be a second owner of that grid. noise_step's
    # propagator is one white-noise step, not a trajectory grid
    found = {(path.stem, scope, name)
             for path in SOURCES
             for scope, name in _calls_by_function(ast.parse(path.read_text()))
             if name in ("default_dt", "propagator")}
    assert found == {("simulation", "simulate", "default_dt"),
                     ("simulation", "simulate", "propagator"),
                     ("simulation", "noise_step", "propagator")}


def test_only_run_writes_cli_files():
    # each command returns its files' text and run writes them all once
    # every output is computed, so no command leaves a partial set
    path = Path(dcgrid.__file__).parent / "cli.py"
    found = {(scope, name)
             for scope, name in _calls_by_function(ast.parse(path.read_text()))
             if name == "open"}
    assert found == {("run", "open")}


def test_cli_commands_only_compute():
    # each option's value is checked by its argparse type in cli._OPTIONS,
    # so no command parses, checks or maps an error to a usage error; one
    # is raised only by argparse, a generator spec or an output name
    path = Path(dcgrid.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text())
    usage = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        nodes = list(ast.walk(func))
        if any(isinstance(node, ast.Raise) and node.exc is not None
               and "UsageError" in ast.unparse(node.exc) for node in nodes):
            usage.add(func.name)
        if func.name.startswith("_cmd_"):
            assert not any(isinstance(node, ast.Try) for node in nodes)
    assert usage == {"error", "parse_generator_spec", "_check_paths"}
    checks = {"int", "float", "positive_real", "integer_in", "sweep_sizes"}
    assert {(scope, name) for scope, name in _calls_by_function(tree)
            if scope.startswith("_cmd_") and name in checks} == set()


def _loop_bindings(tree):
    """name -> the names that a for loop over a literal tuple of tuples
    binds it to, as ``error`` in ``for bad, error, what in ((b, InvalidEdge,
    "..."), ...)``."""
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Tuple)
                and isinstance(node.iter, ast.Tuple)):
            for row in node.iter.elts:
                for var, value in zip(node.target.elts, row.elts):
                    if isinstance(value, ast.Name):
                        bound.setdefault(var.id, set()).add(value.id)
    return bound


def test_simulation_raises_only_dcgrid_errors():
    # every bad input to the library ends in a DCGridError; a numpy
    # ValueError once reached the caller for a seed of -1, one Monte Carlo
    # sample and an initial state of the wrong length, ControllerParams
    # raised ValueError for a negative gain, and scaling_sweep for
    # descending sizes
    dcgrid_errors = {name for name, cls in vars(errors).items()
                     if isinstance(cls, type)
                     and issubclass(cls, errors.DCGridError)}
    raised = {}
    for stem in ("simulation", "systems", "network", "numerics",
                 "resistance"):
        path = Path(dcgrid.__file__).parent / f"{stem}.py"
        tree = ast.parse(path.read_text())
        bound = _loop_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                name = getattr(exc, "id", ast.unparse(exc))
                raised.setdefault(stem, set()).update(
                    bound.get(name, {name}))
    assert len(raised["simulation"]) >= 5
    assert raised["systems"] >= {"InvalidParams", "NonFiniteState"}
    for names in raised.values():
        assert names - dcgrid_errors == set()
    assert raised["network"] >= {"InvalidEdge", "IndexOutOfRange"}
    assert raised["resistance"] >= {"InvalidSize", "RayleighViolation"}
    # and every class is raised somewhere: one that nothing raises is dead
    assert set().union(*raised.values()) == dcgrid_errors - {"DCGridError"}


def test_dtype_kind_read_only_in_real_array():
    # one dtype rule for every array that enters the library: bool,
    # integer and floating become float, anything else is refused
    reads = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        spans = {node.name: range(node.lineno, node.end_lineno + 1)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        reads += [(path.stem, [name for name, span in spans.items()
                               if node.lineno in span])
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "kind"
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "dtype"]
    assert reads == [("numerics", ["real_array"])]
