"""Command-line front end.

Subcommands: gen, h2, compare, sweep, resist, sim, fig2. Every run
prints a machine-readable JSON summary to stdout and writes a metadata
JSON (full configuration, seed, versions) alongside any output files, so
a run can be reproduced byte-identically from its metadata. Each command
returns its files' bytes; ``run`` checks every output name, then writes
them once all are computed, and removes the files it created if a write
fails.
Parameter defaults follow the radial-network simulation study: R = 1 ohm,
C = 1 mF, k_P = 0.1, k = 100, gamma = 1000. Every option is declared once,
in ``_OPTIONS``, whose argparse ``type`` converts its value and checks it
as it is parsed, with the library's own predicates (``positive_real``,
``integer_in``, ``resistance.sweep_sizes``); a resistance, ground, node
pair or bus that parses but that the library refuses is a computation
error. Each subcommand only computes: ``sim`` and ``fig2`` pass --T and
--rows to ``simulation.simulate``, which lays out the trajectory grid
(``DEFAULT_ROWS`` rows for ``sim``).

Exit codes: 0 success, 1 computation or write error, 2 usage error. A
usage error (a refused or unknown option, a bad generator spec, an
output name that cannot be written) is one ``usage error:`` line on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, network, resistance, simulation, systems
from .errors import DCGridError, InvalidSize
from .network import Network
from .numerics import integer_in, positive_real

# recorded rows per trajectory: sim's and fig2's default, and fig2's cap
# (every row is kept in memory, and more add no visible detail to a plot)
DEFAULT_ROWS = 1500
MAX_ROWS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own failures (a missing, unknown or
    refused option) raise UsageError, reported as every usage error is."""

    def error(self, message):
        raise UsageError(message)


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
    return systems.ControllerParams(c=args.c if c is None else c,
                                    k_p=args.kp, k=args.k, gamma=args.gamma)


def _checked(rule: str, convert, ok=lambda value: True):
    """An option's argparse ``type``: the value ``convert`` reads from the
    text, refused, as "must be ``rule``", unless it converts and ``ok``
    holds for it."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, InvalidSize):
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


def _ints(text: str) -> list[int]:
    """Comma-separated integers; an empty text is none, as if the option
    were not given."""
    return [int(s) for s in text.split(",")] if text else []


_POSITIVE = _checked("a positive finite number", float, positive_real)

# every option, once, with the type that converts and checks its value;
# each subcommand takes only those it reads (``_COMMANDS``)
_OPTIONS = {
    "gen": {"required": True,
            "help": "network spec (path:N, grid2:MxM, grid3:MxMxM, "
                    "fuzz:h:<base>, file:<path>)"},
    "resistance": {"type": float, "default": 1.0},
    "c": {"type": _POSITIVE, "default": 1e-3},
    "kp": {"type": _POSITIVE, "default": 0.1},
    "k": {"type": _POSITIVE, "default": 100.0},
    "gamma": {"type": _POSITIVE, "default": 1000.0},
    "ground": {"type": int, "default": 0},
    "seed": {"type": _checked("an integer in [0, 2**64)", int,
                              lambda seed: integer_in(seed, 0, 2**64 - 1)),
             "default": 0},
    "out": {"type": _checked("a prefix in an existing directory", str,
                             lambda out: os.path.isdir(
                                 os.path.dirname(out) or ".")),
            "default": "dcgrid_run", "help": "output file prefix"},
    "format": {"choices": ("json", "edges"), "default": "json"},
    "family": {"choices": resistance.FAMILIES, "required": True},
    "sizes": {"type": _checked(
                  "two or more strictly ascending integers of at least 2",
                  lambda text: resistance.sweep_sizes(_ints(text))),
              "required": True, "help": "comma-separated ascending sizes"},
    "pair": {"type": _checked("two node indices i,j", _ints,
                              lambda pair: len(pair) in (0, 2)),
             "help": "i,j node pair for a single resistance"},
    "kind": {"choices": ("slack", "droop", "dapi"), "default": "slack"},
    "T": {"type": _POSITIVE, "default": 30.0,
          "help": "horizon in seconds (fig2: of the 1 mF variant)"},
    "buses": {"type": _checked("comma-separated bus indices", _ints),
              "help": "bus subset to export (default: first 10)"},
    "n": {"type": int, "default": 10},
    "rows": {"type": _checked(f"an integer in [1, {MAX_ROWS}]", int,
                              lambda rows: integer_in(rows, 1, MAX_ROWS)),
             "default": DEFAULT_ROWS,
             "help": "approximate recorded rows per trajectory"},
}


def _metadata(args) -> dict:
    import scipy  # its version alone: the top-level package is cheap

    return {"config": vars(args),
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
    result = resistance.scaling_sweep(args.family, args.sizes, _params(args),
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
        out["pair"] = args.pair
        out["effective_resistance"] = resistance.effective_resistance(
            net, *args.pair)
    return out, {}


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
    net = parse_generator_spec(args.gen, args.resistance)
    traj, csv = _trajectory(args.kind, net, _params(args), args, args.T,
                            DEFAULT_ROWS, args.buses)
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


# each subcommand: the function that computes it, its help line and the
# options (keys of ``_OPTIONS``) it reads
_COMMANDS = {
    "gen": (_cmd_gen, "generate a network file",
            "gen resistance out format"),
    "h2": (_cmd_h2, "closed-form squared H2 norms",
           "gen resistance c kp k gamma ground out"),
    "compare": (_cmd_compare, "controller comparison report",
                "gen resistance c kp k gamma ground out"),
    "sweep": (_cmd_sweep, "scaling sweep over network sizes",
              "resistance c kp k gamma ground out family sizes"),
    "resist": (_cmd_resist, "effective resistance indices",
               "gen resistance out pair"),
    "sim": (_cmd_sim, "simulate one controller run",
            "gen resistance c kp k gamma ground seed out kind T buses"),
    "fig2": (_cmd_fig2, "radial-network trajectory study",
             "resistance kp k gamma ground seed out n T rows"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` of a process (not
    at import) and reused; ``parse_args`` returns a fresh namespace on
    every call, so no state carries from one run to the next."""
    top = _Parser(prog="dcgrid", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        for option in options.split():
            parser.add_argument(f"--{option}", **_OPTIONS[option])
    return top


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
    """Run one command line and return its exit code; ``--help`` alone
    prints its text and raises SystemExit(0), as argparse does."""
    try:
        args = _build_parser().parse_args(argv)
        summary, files = _COMMANDS[args.command][0](args)
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
