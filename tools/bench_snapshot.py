"""Snapshot the benchmark's end-to-end metrics into one JSON file.

Runs the unchanged harness, ``perfbench/run.py``, in a subprocess for
every workload that ``BENCHMARK.json`` lists, at each of ``SEEDS`` with
``--seconds 10 --trace 0``, and writes the environment record, the
median and spread (interquartile range over median, as
``perfbench/compare.py`` measures it) of each end-to-end metric over the
seeds, every run's values and every failed op's text::

    python3 tools/bench_snapshot.py BENCH_<n>.json
    python3 tools/bench_snapshot.py --compare BENCH_<old>.json BENCH_<new>.json

``--compare`` prints, per workload and metric, the two medians, their
ratio new / old and the verdict of ``perfbench/compare.py`` under the
metric's bound in ``BENCHMARK.json`` ("unresolved", "REGRESSED", ...).
A snapshot takes about two minutes and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare as harness  # noqa: E402  (perfbench/compare.py)

SEEDS = (1, 2, 3)
SECONDS = 10


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, results: Path) -> dict:
    """One harness run's full record, as ``run.py`` writes it."""
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0", "--results", str(results)],
        check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    stem = f"{workload}_seed{seed}_trace0.json"
    return json.loads((results / stem).read_text())


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values),
            "spread": harness.spread(values), "values": values}


def snapshot(out: Path) -> None:
    bench = _benchmark()
    metrics = [m["name"] for m in bench["end_to_end"]]
    doc = {"command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
           "seeds": list(SEEDS), "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            records = [_run(workload, seed, Path(tmp)) for seed in SEEDS]
            doc["environment"] = {k: v for k, v in records[0]["env"].items()
                                  if k != "seed"}
            doc["workloads"][workload] = {
                "metrics": {
                    name: {"unit": records[0]["metrics"][name]["unit"],
                           **_summary([r["metrics"][name]["value"]
                                       for r in records])}
                    for name in metrics},
                # run.py keeps the text of at most 50 failures per run
                "failures": {str(r["seed"]): r["details"]["failures"]
                             for r in records},
            }
            print(f"{workload}: done", file=sys.stderr)
    out.write_text(json.dumps(doc, indent=1) + "\n")


def compare(old: Path, new: Path) -> None:
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in _benchmark()["end_to_end"]}
    before, after = (json.loads(p.read_text())["workloads"]
                     for p in (old, new))
    print(f"{'workload':<15} {'metric':<12} {'old':>10} {'new':>10} "
          f"{'new/old':>8}  verdict")
    for workload, rows in after.items():
        for name, row in rows["metrics"].items():
            was = before.get(workload, {}).get("metrics", {}).get(name)
            if was is None or name not in bounds:
                continue
            a, b = was["median"], row["median"]
            ratio = f"{b / a:8.3f}" if a else f"{'-':>8}"
            verdict = harness.verdict(was["values"], row["values"],
                                      *bounds[name])
            print(f"{workload:<15} {name:<12} {a:10.4g} {b:10.4g} {ratio}  "
                  f"{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", nargs="?", type=Path,
                        help="the snapshot file to write")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"),
                        help="print each metric's ratio between two snapshots")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.out:
        snapshot(args.out)
    else:
        parser.error("give a snapshot file to write, or --compare OLD NEW")
    return 0


if __name__ == "__main__":
    sys.exit(main())
