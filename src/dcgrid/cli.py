"""Command-line front end.

Subcommands: gen, h2, compare, sweep, resist, sim, fig2. Every run
prints a machine-readable JSON summary to stdout and writes a metadata
JSON (full configuration, seed, versions) alongside any output files, so
a run can be reproduced byte-identically from its metadata. Each command
returns its files' bytes; ``run`` checks every output name, then writes
them once all are computed, and removes the files it created if a write
fails.
Parameter defaults follow the radial-network simulation study: R = 1 ohm,
C = 1 mF, k_P = 0.1, k = 100, gamma = 1000. ``sim`` and ``fig2`` check
--T and --rows as input only and pass them to ``simulation.simulate``,
which lays out the trajectory grid (``DEFAULT_ROWS`` rows for ``sim``).

Exit codes: 0 success, 1 computation or write error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, network, resistance, simulation, systems
from .errors import DCGridError, InvalidParams, InvalidSize
from .network import Network
from .numerics import integer_in, positive_real

PAPER_DEFAULTS = {"c": 1e-3, "kp": 0.1, "k": 100.0, "gamma": 1000.0,
                  "resistance": 1.0}
# recorded rows per trajectory: sim's and fig2's default, and fig2's cap
# (every row is kept in memory, and more add no visible detail to a plot)
DEFAULT_ROWS = 1500
MAX_ROWS = 100_000


class UsageError(Exception):
    pass


def parse_generator_spec(spec: str, resistance: float) -> Network:
    """Build a network from the mini-language.

    path:N, grid2:MxM, grid3:MxMxM, fuzz:h:<base spec>, file:<path>.
    The fuzz:h: prefixes are read in a loop, however deeply they nest,
    and applied to the base from the innermost out.
    """
    kind, _, rest = spec.partition(":")
    radii = []
    while kind == "fuzz":
        h_text, _, base = rest.partition(":")
        radii.append(h_text)
        kind, _, rest = base.partition(":")
    try:
        if kind == "path":
            net = network.generate_lattice(1, int(rest), resistance)
        elif kind in ("grid2", "grid3"):
            sides = tuple(int(s) for s in rest.split("x"))
            net = network.generate_lattice(int(kind[-1]), sides, resistance)
        elif kind == "file":
            net = network.load_network(rest)
        else:
            raise UsageError(f"unknown generator kind {kind!r} in {spec!r}")
        for h_text in reversed(radii):
            net = network.generate_hfuzz(net, int(h_text), resistance)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad generator spec {spec!r}: {exc}") from exc
    return net


def _params(args, c=None) -> systems.ControllerParams:
    try:
        return systems.ControllerParams(c=args.c if c is None else c,
                                        k_p=args.kp, k=args.k,
                                        gamma=args.gamma)
    except InvalidParams as exc:
        raise UsageError(str(exc)) from exc


# shared options; each subcommand takes only those it reads
_OPTIONS = {
    "gen": {"required": True,
            "help": "network spec (path:N, grid2:MxM, grid3:MxMxM, "
                    "fuzz:h:<base>, file:<path>)"},
    "resistance": {"type": float, "default": PAPER_DEFAULTS["resistance"]},
    "c": {"type": float, "default": PAPER_DEFAULTS["c"]},
    "kp": {"type": float, "default": PAPER_DEFAULTS["kp"]},
    "k": {"type": float, "default": PAPER_DEFAULTS["k"]},
    "gamma": {"type": float, "default": PAPER_DEFAULTS["gamma"]},
    "ground": {"type": int, "default": 0},
    "seed": {"type": int, "default": 0},
    "out": {"default": "dcgrid_run", "help": "output file prefix"},
}


def _add_options(parser, names: str) -> None:
    for name in names.split():
        parser.add_argument(f"--{name}", **_OPTIONS[name])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` of a process (not
    at import) and reused; ``parse_args`` returns a fresh namespace on
    every call, so no state carries from one run to the next."""
    top = argparse.ArgumentParser(
        prog="dcgrid", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a network file")
    _add_options(p, "gen resistance out")
    p.add_argument("--format", choices=("json", "edges"), default="json")

    p = sub.add_parser("h2", help="closed-form squared H2 norms")
    _add_options(p, "gen resistance c kp k gamma ground out")

    p = sub.add_parser("compare", help="controller comparison report")
    _add_options(p, "gen resistance c kp k gamma ground out")

    p = sub.add_parser("sweep", help="scaling sweep over network sizes")
    _add_options(p, "resistance c kp k gamma ground out")
    p.add_argument("--family", choices=resistance.FAMILIES, required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated ascending sizes")

    p = sub.add_parser("resist", help="effective resistance indices")
    _add_options(p, "gen resistance out")
    p.add_argument("--pair", help="i,j node pair for a single resistance")

    p = sub.add_parser("sim", help="simulate one controller run")
    _add_options(p, "gen resistance c kp k gamma ground seed out")
    p.add_argument("--kind", choices=("slack", "droop", "dapi"),
                   default="slack")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--buses", default=None,
                   help="comma-separated bus subset to export (default: "
                        "first 10)")

    p = sub.add_parser("fig2", help="radial-network trajectory study")
    _add_options(p, "resistance kp k gamma ground seed out")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--T", type=float, default=30.0,
                   help="horizon in seconds for the 1 mF variant")
    p.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                   help="approximate recorded rows per trajectory "
                        f"(at most {MAX_ROWS})")
    return top


def _metadata(args) -> dict:
    import scipy  # its version alone: the top-level package is cheap

    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"config": cfg,
            "versions": {"dcgrid": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": ".".join(map(str, sys.version_info[:3])),
                         "platform": sys.platform}}


def _emit(summary: dict) -> None:
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_gen(args):
    net = parse_generator_spec(args.gen, args.resistance)
    path = f"{args.out}_network.{args.format}"
    if args.format == "json":
        text = json.dumps(network.to_json_dict(net)) + "\n"
    else:
        text = network.format_edge_list(net)
    return ({"n": net.node_count, "edges": net.edge_count, "file": path},
            {path: text.encode()})


def _cmd_h2(args):
    net = parse_generator_spec(args.gen, args.resistance)
    report = systems.compare_controllers(net, _params(args), args.ground)
    return {"n": report.n, "h2_slack": report.value_slack,
            "h2_droop": report.value_droop, "h2_dapi": report.value_dapi}, {}


def _cmd_compare(args):
    net = parse_generator_spec(args.gen, args.resistance)
    report = systems.compare_controllers(net, _params(args), args.ground)
    return json.loads(report.to_json()), {}


def _cmd_sweep(args):
    try:
        sizes = resistance.sweep_sizes(
            [int(s) for s in args.sizes.split(",")])
    except (ValueError, InvalidSize) as exc:
        raise UsageError(f"bad sizes {args.sizes!r}: {exc}") from exc
    result = resistance.scaling_sweep(args.family, sizes, _params(args),
                                      args.ground, args.resistance)
    path = f"{args.out}_sweep.csv"
    fit = result.fit
    return ({"file": path, "records": len(result.records),
             "fit": {"x_kind": fit.x_kind, "slope": fit.slope,
                     "intercept": fit.intercept, "r_squared": fit.r_squared}},
            {path: result.to_csv().encode()})


def _cmd_resist(args):
    net = parse_generator_spec(args.gen, args.resistance)
    out = {"n": net.node_count,
           "kstar": resistance.kstar(net),
           "kirchhoff": resistance.kirchhoff_index(net)}
    if args.pair:
        try:
            i, j = (int(s) for s in args.pair.split(","))
        except ValueError as exc:
            raise UsageError(f"bad pair {args.pair!r}") from exc
        out["pair"] = [i, j]
        out["effective_resistance"] = resistance.effective_resistance(net, i, j)
    return out, {}


def _check_T(T: float) -> None:
    """Reject a --T that no trajectory grid can take; the grid itself is
    laid out by ``simulation.simulate``."""
    if not positive_real(T):
        raise UsageError(f"--T must be positive and finite, got {T}")


def _check_seed(seed: int) -> None:
    if not integer_in(seed, 0, 2**64 - 1):
        raise UsageError(f"--seed must lie in [0, 2**64), got {seed}")


def _trajectory(kind: str, net: Network, params, args, T: float, rows: int,
                buses=None):
    """(trajectory, CSV) of one controller from its --seed initial state;
    the CSV holds ``buses``, by default the ten lowest voltage buses."""
    if kind == "slack":
        model = systems.assemble_slack(net, params, args.ground)
    elif kind == "droop":
        model = systems.assemble_droop(net, params)
    else:
        model = systems.assemble_dapi(net, params)
    x0 = simulation.sample_initial(model, args.seed, 1)[:, 0]
    traj = simulation.simulate(model, x0, T, rows)
    buses = buses or sorted(int(lbl[1:]) for lbl in model.state_labels
                            if lbl.startswith("V"))[:10]
    return traj, simulation.export_trajectory(traj, buses)


def _cmd_sim(args):
    _check_seed(args.seed)
    _check_T(args.T)
    try:
        buses = ([int(s) for s in args.buses.split(",")] if args.buses
                 else None)
    except ValueError as exc:
        raise UsageError(f"bad buses {args.buses!r}") from exc
    net = parse_generator_spec(args.gen, args.resistance)
    traj, csv = _trajectory(args.kind, net, _params(args), args, args.T,
                            DEFAULT_ROWS, buses)
    path = f"{args.out}_traj.csv"
    return ({"file": path, "kind": args.kind, "rows": len(traj.times),
             "dt": traj.dt, "seed": args.seed}, {path: csv})


def _cmd_fig2(args):
    """Paths with the study's parameters under random initial voltages.

    Emits one trajectory CSV per controller for the paper-exact 1 mF
    capacitance and for 1 F on a 1000x longer horizon: the same slack and
    droop dynamics, A = -(L + k_P I)/c, on a 1000x slower time axis, but
    not DAPI's, whose k and gamma terms do not scale with c.
    """
    _check_seed(args.seed)
    _check_T(args.T)
    if not integer_in(args.rows, 1, MAX_ROWS):
        raise UsageError(f"--rows must lie in [1, {MAX_ROWS}], "
                         f"got {args.rows}")
    net = network.generate_lattice(1, args.n, args.resistance)
    files = {}
    for tag, c, horizon in (("c1mF", 1e-3, args.T),
                            ("c1F", 1.0, args.T * 1000.0)):
        params = _params(args, c)
        for kind in ("slack", "droop", "dapi"):
            files[f"{args.out}_{kind}_{tag}.csv"] = _trajectory(
                kind, net, params, args, horizon, args.rows)[1]
    return ({"files": list(files), "n": args.n, "seed": args.seed,
             "bus_subset": "first 10 non-grounded buses by index"}, files)


_COMMANDS = {"gen": _cmd_gen, "h2": _cmd_h2, "compare": _cmd_compare,
             "sweep": _cmd_sweep, "resist": _cmd_resist, "sim": _cmd_sim,
             "fig2": _cmd_fig2}


def _check_out(out: str) -> None:
    """Reject an --out prefix whose directory does not exist, before any
    computation, so no command fails only when it writes."""
    folder = os.path.dirname(out)
    if folder and not os.path.isdir(folder):
        raise UsageError(f"--out {out!r}: no directory {folder!r}")


def _check_paths(out: str, paths) -> None:
    """Reject an output path that is a directory or whose name is longer
    than its file system takes, before the first file is written."""
    name_max = os.pathconf(os.path.dirname(out) or ".", "PC_NAME_MAX")
    for path in paths:
        if os.path.isdir(path):
            raise UsageError(f"--out {out!r}: {path!r} is a directory")
        if len(os.fsencode(os.path.basename(path))) > name_max:
            raise UsageError(f"--out {out!r}: the name of {path!r} is "
                             f"longer than {name_max} bytes")


def _error(exc: Exception) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    _emit({"error": type(exc).__name__, "message": str(exc)})
    return 1


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_out(args.out)
        summary, files = _COMMANDS[args.command](args)
        meta_path = f"{args.out}_meta.json"
        files[meta_path] = (json.dumps(_metadata(args), indent=2,
                                       sort_keys=True) + "\n").encode()
        _check_paths(args.out, files)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DCGridError as exc:
        return _error(exc)
    new = [path for path in files if not os.path.lexists(path)]
    try:
        for path, data in files.items():
            with open(path, "wb") as fh:
                fh.write(data)
    except OSError as exc:  # a full disk, say: remove what this run made
        for path in filter(os.path.lexists, new):
            os.remove(path)
        return _error(exc)
    summary["metadata"] = meta_path
    _emit(summary)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
