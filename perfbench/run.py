"""dcgrid benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_sweep --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run builds the workload's ops from the seed, replays them pass after pass
for about ``--seconds`` seconds in this process, checks every op's output
and prints one JSON result as its last line of stdout. Every op's CPU
time is scaled to reference speed by a speed probe run beside it
(probe.py). ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs each
op untraced and traced side by side and reports the per-layer metrics.
Each run also writes its full record (environment, per-pass times,
failures) to the results directory, and a traced run writes its spans
beside it.
``--compare`` prints, per workload and metric, the ratio of two result
sets' medians. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread, at most nproc: on a shared machine a single thread keeps
# run-to-run spread lowest. OpenBLAS reads this when numpy loads, so main()
# sets it before anything imports numpy, which is why functions here import
# numpy themselves.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# every run makes at least this many passes; op_tail_ms is then the highest
# whole percentile with at least TAIL_OPS ops of those passes beyond it
MIN_PASSES = 3
TAIL_OPS = 10
IMPORT_CHECK = "import dcgrid, dcgrid.cli"
# set-up samples per run: one before the first pass, one after each of the
# next passes until there are this many
SETUP_SAMPLES = 5
# probe that scales set-up time: the import is interpreter-bound work
SETUP_PROBE = "interp"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=OUT / "results",
                   help="directory for the full result record")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                   help="compare two result directories and exit")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    return args


def _import_dcgrid():
    """Import dcgrid from this checkout's src/, or exit with code 1."""
    if not (SRC / "dcgrid" / "__init__.py").is_file():
        sys.exit(f"perfbench: dcgrid sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcgrid
    if SRC.resolve() not in Path(dcgrid.__file__).resolve().parents:
        sys.exit(f"perfbench: imported dcgrid from {dcgrid.__file__}, "
                 f"not from {SRC}")


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from numpy's bundled library."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _clear(workdir: Path) -> int:
    """Delete the files an op wrote; return their total size in bytes."""
    size = 0
    for path in workdir.iterdir():
        size += path.stat().st_size
        path.unlink()
    return size


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_sample(make_ops, seed: int, workdir: Path, probe):
    """One fresh-interpreter import plus input generation, the cost a CLI
    user pays on every call. Returns its CPU time (the child interpreter's
    plus this process's), the mean probe time around it and the ops."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    before = probe()
    start = time.process_time() + _children_cpu()
    subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env, cwd=ROOT,
                   check=True)
    ops = make_ops(seed, workdir)
    cpu = time.process_time() + _children_cpu() - start
    return cpu, (before + probe()) / 2, ops


def _run_op(op, workdir: Path, tracer=None):
    """Time one op call, then check its output and delete its files.
    Returns its CPU time, its wall-clock time and a failure reason or None."""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op.label)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        result, problem = op.run(), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        problem = f"raised {type(exc).__name__}: {exc}"
    cpu = time.process_time() - cpu_start
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
        tracer.uninstall()
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:  # malformed output fails the check
            problem = f"check raised {type(exc).__name__}: {exc}"
    written = _clear(workdir)
    if tracer is not None:
        tracer.bytes_written += written
    return cpu, latency, problem


def run_pass(ops, workdir: Path, probe, tracer=None,
             traced_first=False) -> dict:
    """Run every op once untraced and, given a tracer, once more traced
    right beside it, so the tracing overhead is measured in pairs that
    see the same machine speed. ``traced_first`` swaps each pair. The
    speed probe runs before the first op and after each op."""
    cpu, latencies, traced, failures = [], [], [], []
    probes = [probe()]
    for op in ops:
        modes = [None] if tracer is None else (
            [tracer, None] if traced_first else [None, tracer])
        for mode in modes:
            cpu_s, latency, problem = _run_op(op, workdir, mode)
            if mode is None:
                cpu.append(cpu_s)
                latencies.append(latency)
            else:
                traced.append(latency)
            if problem is not None:
                failures.append(f"{op.label}: {problem}")
        probes.append(probe())
    return {"wall": sum(latencies), "traced_wall": sum(traced),
            "cpu": cpu, "latencies": latencies, "probes": probes,
            "attempted": len(latencies) + len(traced), "failures": failures}


def measure(ops, seconds: float, workdir: Path, probe, trace: bool,
            between_passes):
    """Repeat passes for about ``seconds``, at least ``MIN_PASSES`` times,
    never starting a pass that would overrun once that minimum is met.
    ``between_passes`` runs after each pass, outside the pass times."""
    from spans import Tracer, layer_metrics

    passes, layers, span_log = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer() if trace else None
        passes.append(run_pass(ops, workdir, probe, tracer,
                               traced_first=len(passes) % 2 == 1))
        if trace:
            layers.append(layer_metrics(tracer))
            span_log.append(tracer.spans)
        between_passes()
        passes[-1]["elapsed"] = time.perf_counter() - pass_start
        typical = statistics.median(p["elapsed"] for p in passes)
        if (len(passes) >= MIN_PASSES and
                time.perf_counter() - start + typical > seconds):
            return passes, layers, span_log


def _best(passes, key: str) -> list[float]:
    """Each op's fastest execution across the run's passes."""
    return [min(times) for times in zip(*(p[key] for p in passes))]


def _scaled(passes, reference_s: float) -> list[float]:
    """Each op's median over the run's passes of its CPU time at reference
    speed: scaled by reference_s over the mean of the probes run just
    before and just after it (see probe.py)."""
    per_op = []
    for k in range(len(passes[0]["cpu"])):
        per_op.append(statistics.median(
            p["cpu"][k] * 2 * reference_s
            / (p["probes"][k] + p["probes"][k + 1]) for p in passes))
    return per_op


def end_to_end(passes, setup_s: float, reference_s: float):
    """End-to-end metrics, from each op's CPU time at reference speed.

    Measured on a shared virtual machine, the fastest wall-clock or CPU
    time of an op over a run's passes still moved by up to 1.9 times from
    run to run, since a slow phase of the machine can cover a whole run;
    scaled by the speed probe beside it, the op's median over the passes
    moved a fifth as much or less. The raw figures are kept in the record."""
    executions = sum(len(p["cpu"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    ops = _scaled(passes, reference_s)
    # highest whole percentile with at least TAIL_OPS op executions of the
    # guaranteed passes beyond it; fixed per workload, whatever the run length
    percentile = math.floor(
        100.0 * (1.0 - TAIL_OPS / (MIN_PASSES * len(ops))))

    def tail(values):
        return statistics.quantiles(values, n=100,
                                    method="inclusive")[percentile - 1]

    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(ops), "s"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "op_tail_ms": (1e3 * tail(ops), "ms"),
        "ok_frac": ((executions - failed) / executions, "fraction"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    # the unscaled statistics of each op's fastest execution, not gated
    details = {"op_tail_percentile": percentile, "ops_per_pass": len(ops),
               "op_executions": executions}
    for name, key in (("cpu", "cpu"), ("wall", "latencies")):
        best = _best(passes, key)
        details[f"best_{name}_pass_s"] = sum(best)
        details[f"best_{name}_op_p50_ms"] = 1e3 * statistics.median(best)
        details[f"best_{name}_op_tail_ms"] = 1e3 * tail(best)
    return metrics, details


def _mean_wall(passes) -> float:
    return statistics.fmean(p["wall"] for p in passes)


def per_layer(passes, layers) -> dict:
    from spans import unit
    metrics = {name: (statistics.fmean(layer[name] for layer in layers),
                      unit(name)) for name in layers[0]}
    traced = statistics.fmean(p["traced_wall"] for p in passes)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - _mean_wall(passes), "s")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.compare is not None:
        from compare import compare
        return compare(*args.compare, ROOT / "BENCHMARK.json")

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    _import_dcgrid()
    from probe import REFERENCE_S, make_probe
    from spans import write_spans
    from workloads import PROBES, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(WORKLOADS)}")
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    _clear(workdir)

    # set-up is sampled before the first pass and after each of the next
    # ones, so its median spans the machine's speed phases as the passes do
    make_ops = WORKLOADS[args.workload]
    setup_probe = make_probe(SETUP_PROBE)
    cpu, probed, ops = setup_sample(make_ops, args.seed, workdir, setup_probe)
    setup_samples = [(cpu, probed)]

    def resample_setup():
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(
                make_ops, args.seed, workdir, setup_probe)[:2])

    probe_kind = PROBES[args.workload]
    passes, layers, span_log = measure(
        ops, args.seconds, workdir, make_probe(probe_kind), bool(args.trace),
        resample_setup)
    setup_s = statistics.median(
        cpu * REFERENCE_S[SETUP_PROBE] / probed for cpu, probed in setup_samples)
    if args.trace:
        metrics, details = per_layer(passes, layers), {}
    else:
        metrics, details = end_to_end(passes, setup_s,
                                      REFERENCE_S[probe_kind])
    workdir.rmdir()

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    env = environment(args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "details": {**details, "passes": len(passes),
                    "op_labels": [op.label for op in ops],
                    "pass_cpu_s": [p["cpu"] for p in passes],
                    "pass_probes_s": [p["probes"] for p in passes],
                    "pass_latencies_s": [p["latencies"] for p in passes],
                    "pass_wall_s": [p["wall"] for p in passes],
                    "pass_traced_wall_s": [p["traced_wall"] for p in passes],
                    "setup_samples_cpu_probe_s": setup_samples,
                    "failures": failures[:50]},
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    args.results.mkdir(parents=True, exist_ok=True)
    (args.results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if span_log:
        write_spans(args.results / f"{stem}_spans.csv.gz", span_log)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"env": env, **details, "passes": len(passes),
                      "failures": len(failures)}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
