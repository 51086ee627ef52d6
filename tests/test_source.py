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
