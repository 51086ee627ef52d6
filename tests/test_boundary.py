"""The library and CLI boundaries: every bad input ends in a DCGridError
(exit 1 on the command line) or a usage error (exit 2), never another
exception, and no integer argument is truncated."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcgrid import errors
from dcgrid.cli import run
from dcgrid.network import (
    build_network,
    format_edge_list,
    generate_hfuzz,
    generate_lattice,
    load_network,
    reduced_laplacian,
    to_json_dict,
)
from dcgrid.resistance import FAMILIES, scaling_sweep
from dcgrid.simulation import (
    export_trajectory,
    monte_carlo_h2,
    sample_initial,
    simulate,
)
from dcgrid.systems import ControllerParams, StateSpaceModel, assemble_droop

# every integer or resistance argument below is drawn from these; no
# network built from them has more than 5 buses per side
VALUES = (0, -1, 1, 2, 3, 1.5, 2.5, 4.0, math.nan, math.inf, "3", None,
          True, np.int64(3), np.float64(3.0), (3.7, 4), [4, 4.0],
          np.array([3, 5]))
values = st.sampled_from(VALUES)
PARAMS = ControllerParams(c=1.0, k_p=1.0, k=1.0, gamma=1.0)
K2_DROOP = assemble_droop(build_network(2, [(0, 1, 1.0)]), PARAMS)


def outcome(call, *args):
    """``call(*args)``, or None when it raises a DCGridError; any other
    exception fails the test."""
    try:
        return call(*args)
    except errors.DCGridError:
        return None


def is_integer(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


@given(values, values, values)
@example(1, 2.5, 1.0).via("a float side")
@example(2, (3.7, 4), 1.0).via("a fractional side in a tuple")
@example(2, np.int64(4), 1.0).via("a numpy integer side")
@settings(max_examples=150, deadline=None)
def test_generate_lattice(d, sides, resistance):
    net = outcome(generate_lattice, d, sides, resistance)
    if net is not None:
        axes = tuple(sides) if np.iterable(sides) else (sides,) * d
        assert all(is_integer(m) for m in axes)
        assert net.box == (axes, 1.0 / resistance)


@given(values, values)
@example(1.5, None).via("a float radius")
@example(True, None).via("a bool radius")
@settings(max_examples=60, deadline=None)
def test_generate_hfuzz(h, r_fuzz):
    net = outcome(generate_hfuzz, generate_lattice(2, 3), h, r_fuzz)
    if net is not None:
        assert is_integer(h) and h >= 1
        assert net.node_count == 9


@given(values, values)
@settings(max_examples=100, deadline=None)
def test_build_network(node_count, resistance):
    net = outcome(build_network, node_count,
                  [(0, 1, resistance), (1, 2, 1.0)])
    if net is not None:
        assert is_integer(node_count) and net.node_count == node_count == 3


@given(st.sampled_from(FAMILIES + ("torus",)),
       st.one_of(values, st.lists(values, max_size=3)))
@example("path", [2.5, 3]).via("a float size")
@example("path", [20, 10]).via("descending sizes")
@example("path", np.array([3, 5])).via("a numpy array of sizes")
@settings(max_examples=100, deadline=None)
def test_scaling_sweep(family, sizes):
    result = outcome(scaling_sweep, family, sizes, PARAMS)
    if result is not None:
        dim = {"path": 1, "grid2d": 2, "grid3d": 3, "hfuzz": 2}[family]
        assert all(is_integer(s) for s in sizes)
        assert [r.n for r in result.records] == [s**dim for s in sizes]


@given(values, values)
@example(10**400, 0).via("a count past numpy's largest dimension")
@example(2**62, 0).via("a count past the memory budget")
@settings(max_examples=80, deadline=None)
def test_monte_carlo_samples(samples, seed):
    x0 = outcome(sample_initial, K2_DROOP, seed, samples)
    if x0 is not None:
        assert is_integer(samples) and x0.shape == (2, samples)
    estimate = outcome(monte_carlo_h2, K2_DROOP, samples, seed)
    if estimate is not None:
        assert is_integer(samples) and estimate.samples == samples >= 2


@given(values, values)
@settings(max_examples=80, deadline=None)
def test_simulate_rows(T, rows):
    traj = outcome(simulate, K2_DROOP, np.ones(2), T, rows)
    if traj is not None:
        assert is_integer(rows) and rows >= 1
        assert len(traj.times) >= 2


# --- arrays, bus lists and files: one DCGridError per input ---

# bytes that do not decode as UTF-8, the start of a gzip stream
BINARY = b"\x1f\x8b\x08\x00\xff\xfe\x80\x00"
K2_TRAJECTORY = simulate(K2_DROOP, [1.0, 0.0], 0.5, 10)
NOT_REAL = {"complex": (1 + 1j) * np.eye(2), "string": np.full((2, 2), "1"),
            "object": np.eye(2, dtype=object)}


def k2_model(**arrays):
    """K2_DROOP with ``arrays`` (a, b or h) in place of its own."""
    parts = {"a": K2_DROOP.a, "b": K2_DROOP.b, "h": K2_DROOP.h, **arrays}
    return StateSpaceModel(parts["a"], parts["b"], parts["h"],
                           K2_DROOP.state_labels, "droop")


def binary_file(tmp_path):
    path = tmp_path / "net.bin"
    path.write_bytes(BINARY)
    return path


BAD_INPUTS = [
    *[(f"{name}-{kind}",
       lambda tmp_path, arrays={name: value}: k2_model(**arrays),
       errors.NonFiniteState)
      for name in ("a", "b", "h") for kind, value in NOT_REAL.items()],
    ("x0-string", lambda tmp_path: simulate(K2_DROOP, ["a", "b"], 0.5, 10),
     errors.NonFiniteState),
    ("x0-numeric-string",
     lambda tmp_path: simulate(K2_DROOP, ["1", "2"], 0.5, 10),
     errors.NonFiniteState),
    ("x0-complex", lambda tmp_path: simulate(K2_DROOP, [1j, 0], 0.5, 10),
     errors.NonFiniteState),
    ("x0-none", lambda tmp_path: simulate(K2_DROOP, None, 0.5, 10),
     errors.InvalidSize),
    *[(f"buses-{kind}",
       lambda tmp_path, buses=buses: export_trajectory(K2_TRAJECTORY, buses),
       errors.IndexOutOfRange)
      for kind, buses in (("string", ["1"]), ("float", [1.0]), ("int", 1),
                          ("none", None))],
    ("laplacian-1d", lambda tmp_path: reduced_laplacian(np.ones(3)),
     errors.InvalidSize),
    ("laplacian-2x3", lambda tmp_path: reduced_laplacian(np.ones((2, 3))),
     errors.InvalidSize),
    ("binary-file", lambda tmp_path: load_network(binary_file(tmp_path)),
     errors.InvalidEdge),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_is_its_dcgrid_error(call, error, tmp_path):
    # each once ended in a numpy or builtin error, or (a numeric string x0,
    # the bus "1") was silently parsed
    with pytest.raises(error):
        call(tmp_path)


def test_binary_network_file_is_computation_error(capsys, tmp_path):
    # exit 1, as for malformed JSON; it was a usage error (exit 2)
    argv = ["h2", "--gen", f"file:{binary_file(tmp_path)}"]
    assert run(argv + [f"--out={tmp_path / 'x'}"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "InvalidEdge"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.bin"]


# --- the CLI ---


def either(good, bad):
    """A value drawn from ``good`` or from ``bad``, each branch half the
    time, so that valid runs are not swamped by the usage errors."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


NUMBERS = st.sampled_from(("0", "-1", "1e-320", "1e308", "inf", "nan",
                           "2.5", "x"))
SIDES = either(("2", "3", "8"), ("-1", "0", "1", "2.5", "x"))
MALFORMED = ("", "path", "path:", "grid2:3", "grid2:3x3x3", "grid3:2x2",
             "torus:3", "fuzz:2", "fuzz:x:path:3", "path:3:4",
             "file:missing.edges")
GROUNDS = either(("0", "3"), ("-1", "99", "x"))
SEEDS = either(("0", "5", str(2**64 - 1)), ("-1", str(2**64), "x"))
# fig2 is drawn with few rows: six trajectories of its default 1500 rows
# take about 0.1 s
ROWS = either(("1", "3", "40"), ("-1", "0", "100001", "1" + "0" * 400, "x"))
PAIRS = either(("0,1", "0,7", "2,1"), ("1,1", "0,99", "-1,0", "0", "a,b"))
SIZES = either(("2,3", "3,4", "2,3,4"),
               ("4", "4,3", "3,3", "0,2", "1,2", "2,2.5", "-1,3", "a", ""))
CONTROLLER = ("resistance", "c", "kp", "k", "gamma")


# the network files that file: specs name, written by ``network_files``
FILES = ("{edges}", "{json}")


@pytest.fixture(scope="module")
def network_files(tmp_path_factory):
    """An edge list of a 2-fuzz of a 3 x 3 grid and the JSON of a ring of
    four buses with unequal resistances, by placeholder in ``FILES``."""
    folder = tmp_path_factory.mktemp("networks")
    nets = {"{edges}": format_edge_list(
                generate_hfuzz(generate_lattice(2, 3), 2)),
            "{json}": json.dumps(to_json_dict(build_network(
                4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5)])))}
    paths = {}
    for key, text in nets.items():
        paths[key] = folder / f"net{len(paths)}"
        paths[key].write_text(text)
    return paths


@st.composite
def gen_specs(draw, depth=1):
    """A generator spec of at most 64 buses, a file: spec of a network
    file from ``FILES``, or a malformed one."""
    kind = draw(st.sampled_from(("path", "grid2", "grid3", "fuzz", "file",
                                 "bad")))
    if kind == "path":
        return "path:" + draw(st.one_of(SIDES, st.just("64")))
    if kind == "grid2":
        return f"grid2:{draw(SIDES)}x{draw(SIDES)}"
    if kind == "grid3":
        sides = either(("2", "3", "4"), ("1", "x"))
        return "grid3:" + "x".join(draw(sides) for _ in range(3))
    if kind == "fuzz" and depth:
        radius = draw(either(("1", "2", "3"), ("-1", "0", "x")))
        return f"fuzz:{radius}:{draw(gen_specs(depth=0))}"
    if kind == "file":
        return "file:" + draw(st.sampled_from(FILES))
    return draw(st.sampled_from(MALFORMED))


def options(draw, names, values):
    """--name=value for at most two of ``names``, values from ``values``."""
    picked = draw(st.dictionaries(st.sampled_from(names), values,
                                  max_size=2))
    return [f"--{name}={value}" for name, value in picked.items()]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("gen", "h2", "compare", "resist",
                                    "sweep", "sim", "fig2")))
    argv = [command]
    if command == "gen":
        argv.append("--gen=" + draw(gen_specs()))
        argv += options(draw, ("format",), either(("json", "edges"),
                                                  ("csv",)))
        return argv + options(draw, ("resistance",), NUMBERS)
    if command in ("h2", "sim"):
        # the analytic route, and the dense guard that stops sim before
        # any n x n allocation
        argv.append("--gen=" + draw(st.one_of(gen_specs(),
                                              st.just("path:1000000"))))
    elif command in ("compare", "resist"):
        argv.append("--gen=" + draw(gen_specs()))
    if command == "resist":
        argv += options(draw, ("resistance",), NUMBERS)
        argv += options(draw, ("pair",), PAIRS)
        return argv
    if command == "sweep":
        family = draw(either(FAMILIES, ("torus",)))
        argv += [f"--family={family}", f"--sizes={draw(SIZES)}"]
    names = CONTROLLER
    if command == "sim":
        kind = draw(st.sampled_from(("slack", "droop", "dapi")))
        argv.append(f"--kind={kind}")
    if command == "fig2":  # which has no --c
        n = draw(either(("2", "3", "8"), ("0", "1", "x")))
        argv += [f"--n={n}", f"--rows={draw(ROWS)}"]
        names = ("resistance", "kp", "k", "gamma")
    if command in ("sim", "fig2"):
        names += ("T",)
        argv += options(draw, ("seed",), SEEDS)
    argv += options(draw, names, NUMBERS)
    argv += options(draw, ("ground",), GROUNDS)
    return argv


@given(argvs())
@example(["sweep", "--family=hfuzz", "--sizes=2,53"]).via("the dense guard")
@example(["h2", "--gen=path:1000000", "--c=inf"]).via("a huge box")
@example(["gen", "--gen=fuzz:2:file:{edges}", "--format=edges"]).via(
    "a fuzz of an edge-list file")
@example(["h2", "--gen=file:{json}"]).via("a JSON file")
@example(["h2", "--gen=" + "fuzz:1:" * 1200 + "path:3"]).via(
    "fuzz prefixes nested past the recursion limit")
@settings(max_examples=100, deadline=None)
def test_cli_argv(network_files, argv):
    for key, path in network_files.items():
        argv = [arg.replace(key, str(path)) for arg in argv]
    with tempfile.TemporaryDirectory() as workdir:
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = run(argv + [f"--out={os.path.join(workdir, 'x')}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert os.listdir(workdir) == []
