"""The three benchmark workloads: seeded inputs, ops and output checks.

An op is one CLI command run in-process through ``dcgrid.cli.run`` or one
top-level library call. Each workload builds one *pass*, a fixed list of
ops generated from the seed; the runner replays the pass until its time is
up. Lattice sizes, graph sizes and sample counts are fixed so that the
cost of a pass does not depend on the seed; the seed draws parameters,
graph edges, node pairs, RNG seeds and the op order.

Library calls go through module attributes (``systems.assemble_dapi``
rather than a name imported once), so the span recorder in ``spans.py``
sees every call it wraps.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dcgrid import cli, network, simulation, systems


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``check`` returns None when the output is correct and a one-line reason
    otherwise. It runs after the timer stops and may read files the op wrote.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


# --- shared helpers ---

def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(text: str) -> dict:
    """Parse a CLI summary, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _cli_call(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _summary(res: CliResult) -> tuple[dict | None, str | None]:
    if res.code != 0:
        return None, f"exit code {res.code}: {res.stderr.strip()[:200]}"
    try:
        return _strict_json(res.stdout), None
    except ValueError as exc:
        return None, f"bad JSON summary: {exc}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_trajectory_csv(path: Path, rows: int, cols: int) -> str | None:
    """Header plus ``rows`` data rows of ``cols`` finite numbers each."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if len(table) != rows + 1:
        return f"{path.name}: {len(table) - 1} rows, expected {rows}"
    if any(len(r) != cols for r in table):
        return f"{path.name}: expected {cols} columns per row"
    values = np.array(table[1:], dtype=float)
    if not np.isfinite(values).all():
        return f"{path.name}: non-finite value"
    return None


def _params(rng: np.random.Generator) -> systems.ControllerParams:
    """Uniform controller parameters spanning the paper's ranges."""
    return systems.ControllerParams(
        c=float(10 ** rng.uniform(-3, 0)), k_p=float(rng.uniform(0.05, 0.5)),
        k=float(10 ** rng.uniform(1, 3)), gamma=float(10 ** rng.uniform(2, 4)))


def _param_args(p: systems.ControllerParams) -> list[str]:
    return ["--c", repr(p.c), "--kp", repr(p.k_p), "--k", repr(p.k),
            "--gamma", repr(p.gamma)]


# --- lattice_sweep ---

# Sweeps reproduce the paper's growth-law table up to about 1000 buses.
SWEEPS = {"path": "125,250,500,1000", "grid2d": "8,16,24,32",
          "grid3d": "4,6,8,10", "hfuzz": "8,16,24,32"}
# (spec, node count, is a path) per family. Small lattices get h2 and
# compare, medium ones all three commands, so that the median op falls
# inside the medium group and op_tail_ms inside the large one (sweeps plus
# one op of each command on about 1000 buses), away from group edges where
# the machine's fast and slow phases would decide the rank.
SMALL = [("path:60", 60, True), ("grid2:8x8", 64, False),
         ("grid3:4x4x4", 64, False), ("fuzz:2:grid2:8x8", 64, False)]
MEDIUM = [("path:300", 300, True), ("grid2:17x17", 289, False),
          ("grid3:7x7x7", 343, False), ("fuzz:2:grid2:17x17", 289, False)]
LARGE_COMPARE = ("path:1000", 1000, True)
LARGE_H2 = ("grid3:10x10x10", 1000, False)
LARGE_RESIST = ("grid2:32x32", 1024, False)

SLACK_PATH_RTOL = 1e-9
KIRCHHOFF_RTOL = 1e-8
# R_eff equals the hop distance on a unit path and is below it on the others
RESIST_RTOL = 1e-8
# droop, DAPI <= c / (2 k_P) holds exactly; this allows for rounding
BOUND_RTOL = 1e-12


def _check_h2_values(values: dict, p, n: int, path: bool) -> str | None:
    cap = p.c / (2 * p.k_p) * (1 + BOUND_RTOL)
    if not (values["h2_droop"] <= cap and values["h2_dapi"] <= cap):
        return f"droop/dapi above c/(2k_P) = {cap}"
    if path:  # grounded at its end: slack is exactly c (n-1) / 4
        exact = p.c * (n - 1) / 4
        if _rel(values["h2_slack"], exact) > SLACK_PATH_RTOL:
            return f"path slack {values['h2_slack']} != c(n-1)/4 = {exact}"
    return None


def _h2_op(spec, n, path, p, prefix) -> Op:
    def check(res):
        doc, problem = _summary(res)
        return problem or _check_h2_values(doc, p, n, path)
    return Op(f"h2 {spec}", lambda: _cli_call(
        ["h2", "--gen", spec, "--out", prefix] + _param_args(p)), check)


def _compare_op(spec, n, path, p, prefix) -> Op:
    def check(res):
        doc, problem = _summary(res)
        if problem:
            return problem
        if doc["ordering_flags"]["dapi_le_droop"] is not True:
            return "dapi_le_droop is not true"
        return _check_h2_values({"h2_slack": doc["slack"],
                                 "h2_droop": doc["droop"],
                                 "h2_dapi": doc["dapi"]}, p, n, path)
    return Op(f"compare {spec}", lambda: _cli_call(
        ["compare", "--gen", spec, "--out", prefix] + _param_args(p)), check)


def _resist_op(spec, n, path, rng, prefix) -> Op:
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))

    def check(res):
        doc, problem = _summary(res)
        if problem:
            return problem
        if _rel(doc["kstar"] * n**2, doc["kirchhoff"]) > KIRCHHOFF_RTOL:
            return f"K* n^2 {doc['kstar'] * n**2} != K_f {doc['kirchhoff']}"
        r_eff = doc["effective_resistance"]
        distance = _lattice_distance(spec, i, j)
        if path and _rel(r_eff, distance) > RESIST_RTOL:
            return f"path R_eff({i},{j}) = {r_eff}, expected {distance}"
        if not 0 < r_eff <= distance * (1 + RESIST_RTOL):
            return f"R_eff({i},{j}) = {r_eff} outside (0, {distance}]"
        return None
    return Op(f"resist {spec}", lambda: _cli_call(
        ["resist", "--gen", spec, "--pair", f"{i},{j}", "--out", prefix]),
        check)


def _lattice_distance(spec: str, i: int, j: int) -> int:
    """Hop distance on the unit-resistance lattice (an upper bound on R_eff;
    the 2-fuzz only adds edges, so the base lattice bound still holds)."""
    sides = [int(s) for s in spec.rsplit(":", 1)[1].split("x")]
    ci, cj = np.unravel_index(i, sides), np.unravel_index(j, sides)
    return int(sum(abs(int(a) - int(b)) for a, b in zip(ci, cj)))


SWEEP_COLUMNS = ("h2_slack", "h2_droop", "h2_dapi", "kstar", "kirchhoff")


def _sweep_op(family, sizes, p, prefix) -> Op:
    csv_path = Path(f"{prefix}_sweep.csv")

    def check(res):
        doc, problem = _summary(res)
        if problem:
            return problem
        if not math.isfinite(doc["fit"]["r_squared"]):
            return "non-finite fit"
        records = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        if len(records) != len(sizes.split(",")):
            return f"{len(records)} sweep records for sizes {sizes}"
        for rec in records:
            n = int(rec["n"])
            values = {key: float(rec[key]) for key in SWEEP_COLUMNS}
            if not all(math.isfinite(v) for v in values.values()):
                return f"non-finite sweep value at n={n}"
            kf = values["kirchhoff"]
            if _rel(values["kstar"] * n**2, kf) > KIRCHHOFF_RTOL:
                return f"K* n^2 != K_f at n={n}"
            problem = _check_h2_values(values, p, n, family == "path")
            if problem:
                return f"n={n}: {problem}"
        return None
    return Op(f"sweep {family}", lambda: _cli_call(
        ["sweep", "--family", family, "--sizes", sizes, "--out", prefix]
        + _param_args(p)), check)


def lattice_sweep(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    prefix = str(workdir / "op")
    ops = [_sweep_op(family, sizes, _params(rng), prefix)
           for family, sizes in SWEEPS.items()]
    for lattice in SMALL + MEDIUM:
        ops.append(_h2_op(*lattice, _params(rng), prefix))
        ops.append(_compare_op(*lattice, _params(rng), prefix))
    for lattice in MEDIUM + [LARGE_RESIST]:
        ops.append(_resist_op(*lattice, rng, prefix))
    ops.append(_h2_op(*LARGE_H2, _params(rng), prefix))
    ops.append(_compare_op(*LARGE_COMPARE, _params(rng), prefix))
    return [ops[k] for k in rng.permutation(len(ops))]


# --- oracle_check ---

# Each op draws its own graph and parameters and runs one controller at a
# fixed state dimension (slack has n-1 states, droop n, DAPI 2n). The
# Kronecker solve costs O(dim^6), so the dimensions form cost groups: the
# median op falls inside the dim-36 group and op_tail_ms inside the dim-48
# group, away from group edges. One DAPI model per pass sits at the
# oracle's dim <= 60 cap.
ORACLE_DIMS = {6: 2, 36: 3, 48: 2}  # state dimension -> ops per controller
ORACLE_CAP_DIM = 60
ORACLE_RTOL = 1e-6
CONTROLLERS = ("slack", "droop", "dapi")


def random_connected_network(rng: np.random.Generator, n: int):
    """Random spanning tree plus Erdos-Renyi extra edges, R in [0.5, 2]."""
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(v)), v)] = None
    extra = rng.random((n, n)) < 2.0 / n
    for i in range(n):
        for j in range(i + 1, n):
            if extra[i, j]:
                edges[(i, j)] = None
    return network.build_network(
        n, [(i, j, float(rng.uniform(0.5, 2.0))) for i, j in sorted(edges)])


def _oracle_op(kind, net, params, ground) -> Op:
    def run():
        if kind == "slack":
            model = systems.assemble_slack(net, params, ground)
            oracle = systems.h2_lyapunov(model)
            return systems.h2_closed_form_slack(net, params, ground), oracle
        if kind == "droop":
            model = systems.assemble_droop(net, params)
            oracle = systems.h2_lyapunov(model)
            return systems.h2_closed_form_droop(net, params), oracle
        model = systems.assemble_dapi(net, params)
        oracle = systems.h2_lyapunov(model)
        return systems.h2_closed_form_dapi(net, params), oracle

    def check(result):
        closed, oracle = result
        if not (math.isfinite(closed) and math.isfinite(oracle)):
            return f"non-finite H2: closed {closed}, oracle {oracle}"
        if _rel(closed, oracle) > ORACLE_RTOL:
            return f"closed form {closed} vs oracle {oracle}"
        return None
    return Op(f"{kind} n={net.node_count}", run, check)


def oracle_check(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    jobs = [(kind, dim) for dim, count in ORACLE_DIMS.items()
            for kind in CONTROLLERS for _ in range(count)]
    jobs.append(("dapi", ORACLE_CAP_DIM))
    ops = []
    for kind, dim in jobs:
        n = {"slack": dim + 1, "droop": dim, "dapi": dim // 2}[kind]
        net = random_connected_network(rng, n)
        params = systems.ControllerParams(
            *(float(v) for v in rng.uniform(0.1, 10.0, size=4)))
        ops.append(_oracle_op(kind, net, params, int(rng.integers(n))))
    return [ops[k] for k in rng.permutation(len(ops))]


# --- monte_carlo ---

# Criterion-7-style estimates: seeds per pass and samples per estimate. The
# 10^4-sample estimates are the middle group of the op mix, with the
# white-noise runs below and the stiff, sim and fig2 ops (about 0.6 s each,
# LARGE_REPEATS of each) above, so op_p50_ms and op_tail_ms fall
# inside the middle group rather than on its edge. The pass is kept short
# (about 3.5 s) so that a run replays every op about ten times.
MC_SEEDS = 4
WN_SEEDS = 2
MC_SAMPLES = 10_000
WN_HORIZON_TAUS = 200.0
STIFF_SAMPLES = 200
LARGE_REPEATS = 1
# Five standard errors, so an op's check does not flip when the RNG
# streams change; the test suite's criterion 7 is the strict 3-sigma gate.
MC_SIGMAS = 5.0
PAPER = systems.ControllerParams(c=1e-3, k_p=0.1, k=100.0, gamma=1000.0)
# horizons shortened from the CLI defaults so each RK4 op takes about 1 s
SIM_T = 0.3
FIG2_T = 0.05
FIG2_N = 10
FIG2_ROWS = 1500  # fig2's --rows default
SIM_ROWS = 1500   # sim records about this many rows
CSV_COLUMNS = 10  # both commands export at most the first 10 buses


def _estimate_op(label, call, target) -> Op:
    def check(est):
        if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
            return f"non-finite estimate {est.mean} +/- {est.stderr}"
        if not est.converged:
            return "estimate did not converge"
        if abs(est.mean - target) > MC_SIGMAS * est.stderr:
            return (f"estimate {est.mean} +/- {est.stderr} misses closed "
                    f"form {target} by more than {MC_SIGMAS} stderr")
        return None
    return Op(label, call, check)


def _monte_carlo_call(model, samples, seed):
    return lambda: simulation.monte_carlo_h2(model, samples=samples, seed=seed)


def _white_noise_call(model, horizon, seed):
    return lambda: simulation.white_noise_variance(model, T=horizon, seed=seed)


def _expected_rows(model, horizon: float, rows: int) -> int:
    """Recorded rows of a CLI trajectory, from its horizon and default step."""
    steps = max(1, int(round(horizon / simulation.default_dt(model))))
    return steps // max(1, steps // rows) + 1


def _assemble(kind, net, params):
    if kind == "slack":
        return systems.assemble_slack(net, params, 0)
    if kind == "droop":
        return systems.assemble_droop(net, params)
    return systems.assemble_dapi(net, params)


def _sim_op(seed, workdir) -> Op:
    prefix = str(workdir / "op")
    net = network.generate_lattice(1, 100)
    rows = _expected_rows(_assemble("dapi", net, PAPER), SIM_T, SIM_ROWS)

    def check(res):
        _, problem = _summary(res)
        return problem or _check_trajectory_csv(
            Path(f"{prefix}_traj.csv"), rows, CSV_COLUMNS + 1)
    return Op("sim path:100 dapi", lambda: _cli_call(
        ["sim", "--gen", "path:100", "--kind", "dapi", "--T", repr(SIM_T),
         "--seed", str(seed), "--out", prefix]), check)


def _fig2_op(seed, workdir) -> Op:
    prefix = str(workdir / "op")
    net = network.generate_lattice(1, FIG2_N)
    expected = {}
    variants = (("c1mF", 1e-3, FIG2_T), ("c1F", 1.0, FIG2_T * 1e3))
    for tag, c, horizon in variants:
        params = systems.ControllerParams(c=c, k_p=PAPER.k_p, k=PAPER.k,
                                          gamma=PAPER.gamma)
        for kind in ("slack", "droop", "dapi"):
            model = _assemble(kind, net, params)
            buses = min(CSV_COLUMNS, len(model.voltage_indices()))
            expected[f"{prefix}_{kind}_{tag}.csv"] = (
                _expected_rows(model, horizon, FIG2_ROWS), buses + 1)

    def check(res):
        _, problem = _summary(res)
        if problem:
            return problem
        for path, (rows, cols) in expected.items():
            problem = _check_trajectory_csv(Path(path), rows, cols)
            if problem:
                return problem
        return None
    return Op(f"fig2 n={FIG2_N}", lambda: _cli_call(
        ["fig2", "--n", str(FIG2_N), "--T", repr(FIG2_T), "--seed", str(seed),
         "--out", prefix]), check)


def monte_carlo(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    k2 = network.build_network(2, [(0, 1, 1.0)])
    p3 = network.build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    unit = systems.ControllerParams(c=1.0, k_p=1.0, k=1.0, gamma=1.0)
    cases = [("droop K2", systems.assemble_droop(k2, unit),
              systems.h2_closed_form_droop(k2, unit)),
             ("slack P3", systems.assemble_slack(p3, unit, 0),
              systems.h2_closed_form_slack(p3, unit, 0))]
    ops = []
    for est_seed in _seeds(rng, MC_SEEDS):
        for label, model, target in cases:
            ops.append(_estimate_op(f"mc {label}", _monte_carlo_call(
                model, MC_SAMPLES, est_seed), target))
    for est_seed in _seeds(rng, WN_SEEDS):
        for label, model, target in cases:
            horizon = WN_HORIZON_TAUS * simulation.slowest_time_constant(model)
            ops.append(_estimate_op(f"wn {label}", _white_noise_call(
                model, horizon, est_seed), target))

    path100 = network.generate_lattice(1, 100)
    stiff = systems.assemble_dapi(path100, PAPER)
    stiff_target = systems.h2_closed_form_dapi(path100, PAPER)
    for est_seed in _seeds(rng, LARGE_REPEATS):
        ops.append(_estimate_op("mc dapi path:100", _monte_carlo_call(
            stiff, STIFF_SAMPLES, est_seed), stiff_target))
    ops += [_sim_op(s, workdir) for s in _seeds(rng, LARGE_REPEATS)]
    ops += [_fig2_op(s, workdir) for s in _seeds(rng, LARGE_REPEATS)]
    return [ops[k] for k in rng.permutation(len(ops))]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(2**31, size=count)]


WORKLOADS = {"lattice_sweep": lattice_sweep, "oracle_check": oracle_check,
             "monte_carlo": monte_carlo}
# the speed probe (probe.py) that does the kind of work of each workload's
# dominant layer
PROBES = {"lattice_sweep": "eigh", "oracle_check": "solve",
          "monte_carlo": "interp"}
