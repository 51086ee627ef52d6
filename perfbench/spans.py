"""Span recorder for the traced run, wrapping dcgrid from outside.

While installed, every public dcgrid function listed in ``WRAPPED`` is
replaced on its module by a wrapper that records a span: name, start,
end, parent span and, for some functions, a unit of work computed from
the arguments (n^3 of an eigensolve, bytes of the Kronecker Lyapunov
system, steps from T / dt, rows exported). Callers inside dcgrid look the
functions up on their modules at call time, so nested calls are seen too.
Spans stay in memory and are written out once the run ends.

From the spans, ``layer_metrics`` derives per-layer self times (a span's
duration minus its direct children's), call counts and computed counts.
No file under ``src/`` is touched; a function a later version removes
is simply not wrapped, and its metrics read 0.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import defaultdict

from dcgrid import cli, network, numerics, resistance, simulation, systems

MODULES = {"network": network, "numerics": numerics, "systems": systems,
           "resistance": resistance, "simulation": simulation, "cli": cli}

WRAPPED = {
    "network": ("build_network", "generate_lattice", "generate_hfuzz",
                "laplacian", "reduced_laplacian"),
    "numerics": ("eig_sym", "solve_lyapunov", "is_hurwitz", "pinv_laplacian"),
    "systems": ("assemble_slack", "assemble_droop", "assemble_dapi",
                "h2_closed_form_slack", "h2_closed_form_droop",
                "h2_closed_form_dapi", "dapi_modal_gain",
                "compare_controllers"),
    "resistance": ("scaling_sweep", "reff_matrix", "effective_resistance",
                   "kirchhoff_index", "kstar"),
    "simulation": ("stream", "sample_initial", "expm", "monte_carlo_h2",
                   "white_noise_variance", "simulate", "export_trajectory"),
    "cli": ("run",),
}

ESTIMATES = ("simulation.monte_carlo_h2", "simulation.white_noise_variance")


def _simulate_steps(bound, result) -> int:
    dt = bound.arguments.get("dt")
    if dt is None:
        dt = simulation.default_dt(bound.arguments["model"])
    return int(round(bound.arguments["T"] / dt))


def _white_noise_steps(bound, result) -> int:
    return int(round(result.T / result.dt))


# Work counted per call, from the bound arguments and the result.
WORK = {
    "numerics.eig_sym": lambda b, r: b.arguments["mat"].shape[0] ** 3,
    # the Kronecker system is dim^2 x dim^2 doubles
    "numerics.solve_lyapunov": lambda b, r: 8 * b.arguments["a"].shape[0] ** 4,
    "simulation.simulate": _simulate_steps,
    "simulation.white_noise_variance": _white_noise_steps,
    "simulation.export_trajectory":
        lambda b, r: len(b.arguments["traj"].times),
}


class Tracer:
    """Records spans while installed; ``begin_op``/``end_op`` frame each op
    as a root span so every span belongs to exactly one op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []
        # networks passed to laplacian(), held so ids stay unique in a pass
        self.networks: dict[int, object] = {}
        self.bytes_written = 0
        # (module, attribute) -> (original, wrapper); a function a later
        # dcgrid removes is simply not wrapped
        self._swaps = {}
        for mod_name, attrs in WRAPPED.items():
            for attr in attrs:
                fn = getattr(MODULES[mod_name], attr, None)
                if fn is not None:
                    self._swaps[(MODULES[mod_name], attr)] = (
                        fn, self._wrap(f"{mod_name}.{attr}", fn))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        networks = self.networks if name == "network.laplacian" else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if work is not None:
                spans[index][4] = work(sig.bind(*args, **kwargs), result)
            if networks is not None:
                networks[id(args[0])] = args[0]
            return result
        return wrapper

    def install(self) -> None:
        for (module, attr), (_fn, wrapper) in self._swaps.items():
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for (module, attr), (fn, _wrapper) in self._swaps.items():
            setattr(module, attr, fn)

    def begin_op(self, label: str) -> None:
        self._stack.append(len(self.spans))
        self.spans.append([f"op:{label}", time.perf_counter(), 0.0, -1, 0])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for _name, start, end, parent, _work in spans:
        if parent >= 0:
            child[parent] += end - start
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def _under(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


# Self-time metrics: metric name -> spans whose self time it sums.
SELF_TIME = {
    "network.build_s": ("network.build_network", "network.generate_lattice",
                        "network.generate_hfuzz"),
    "network.laplacian_s": ("network.laplacian", "network.reduced_laplacian"),
    "numerics.eig_sym_s": ("numerics.eig_sym",),
    "numerics.solve_lyapunov_s": ("numerics.solve_lyapunov",),
    "numerics.is_hurwitz_s": ("numerics.is_hurwitz",),
    "numerics.pinv_laplacian_s": ("numerics.pinv_laplacian",),
    "systems.assemble_s": ("systems.assemble_slack", "systems.assemble_droop",
                           "systems.assemble_dapi"),
    "systems.closed_form_s": ("systems.h2_closed_form_slack",
                              "systems.h2_closed_form_droop",
                              "systems.h2_closed_form_dapi",
                              "systems.dapi_modal_gain",
                              "systems.compare_controllers"),
    "resistance.sweep_self_s": ("resistance.scaling_sweep",),
    "resistance.reff_s": ("resistance.reff_matrix",
                          "resistance.effective_resistance",
                          "resistance.kirchhoff_index", "resistance.kstar"),
    "simulation.sample_s": ("simulation.stream", "simulation.sample_initial"),
    "simulation.expm_s": ("simulation.expm",),
    "simulation.propagate_self_s": ("simulation.monte_carlo_h2",),
    "simulation.white_noise_self_s": ("simulation.white_noise_variance",),
    "simulation.simulate_self_s": ("simulation.simulate",),
    "simulation.export_s": ("simulation.export_trajectory",),
    "cli.self_s": ("cli.run",),
}
CALLS = {
    "network.laplacian_calls": "network.laplacian",
    "numerics.eig_sym_calls": "numerics.eig_sym",
    "numerics.solve_lyapunov_calls": "numerics.solve_lyapunov",
    "numerics.is_hurwitz_calls": "numerics.is_hurwitz",
    "simulation.rng_streams": "simulation.stream",
    "simulation.expm_calls": "simulation.expm",
}
WORK_SUMS = {
    "numerics.eig_sym_n3": "numerics.eig_sym",
    "numerics.solve_lyapunov_bytes": "numerics.solve_lyapunov",
    "simulation.white_noise_steps": "simulation.white_noise_variance",
    "simulation.rk4_steps": "simulation.simulate",
    "simulation.export_rows": "simulation.export_trajectory",
}


COMPUTED_UNITS = {"numerics.eig_sym_n3": "count_computed",
                  "numerics.solve_lyapunov_bytes": "B_computed",
                  "simulation.white_noise_steps": "count_computed",
                  "simulation.rk4_steps": "count_computed",
                  "cli.bytes_written": "B"}


def unit(metric: str) -> str:
    if metric in COMPUTED_UNITS:
        return COMPUTED_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_network") or metric.endswith("_per_estimate"):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over the spans recorded since the tracer was made."""
    spans = tracer.spans
    self_time = _self_times(spans)
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    by_name_work: dict[str, int] = defaultdict(int)
    for span, st in zip(spans, self_time):
        by_name_self[span[0]] += st
        by_name_calls[span[0]] += 1
        by_name_work[span[0]] += span[4]

    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(by_name_self[n] for n in names)
    for metric, name in CALLS.items():
        out[metric] = by_name_calls[name]
    for metric, name in WORK_SUMS.items():
        out[metric] = by_name_work[name]
    networks = len(tracer.networks)
    out["numerics.eig_sym_per_network"] = (
        by_name_calls["numerics.eig_sym"] / networks if networks else 0.0)
    estimates = sum(by_name_calls[n] for n in ESTIMATES)
    streams = sum(1 for k, span in enumerate(spans)
                  if span[0] == "simulation.stream"
                  and _under(spans, k, ESTIMATES))
    out["simulation.rng_streams_per_estimate"] = (
        streams / estimates if estimates else 0.0)
    out["cli.bytes_written"] = tracer.bytes_written
    return out


def write_spans(path, passes: list[list[list]]) -> None:
    """Gzipped CSV, one row per span: pass, index, name, start, end, parent,
    work. Start and end are perf_counter seconds."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass,index,name,start,end,parent,work\n")
        for p, spans in enumerate(passes):
            for k, (name, start, end, parent, work) in enumerate(spans):
                fh.write(f"{p},{k},{name},{start!r},{end!r},{parent},{work}\n")
