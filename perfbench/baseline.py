"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/baseline.py [--workloads cli-conv,...] [--seeds 101-110]
                                  [--trace 0|1] [--write]

For every workload it runs ``run.py`` once per seed, one run at a time, and
prints each end-to-end metric's median and the distance between its first
and third quartiles as a share of the median.  A spread of a third of the
metric's bound or more is marked, since such a metric cannot show a
regression of one bound.  ``--write`` stores the medians, quartiles, seeds
and the environment stamp in ``perfbench/baseline.json``, which ``run.py``
prints next to each figure and checks its stamp against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
from workloads import WORKLOADS


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = run.load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    seeds = seed_list(args.seeds)
    baseline = run.load_baseline() or {"workloads": {}}
    status = 0

    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        run_s = []
        for seed in seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable,
                    str(run.HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ],
                cwd=run.ROOT,
                capture_output=True,
                text=True,
            )
            run_s.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}{proc.stderr}")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: ok in {run_s[-1]:.1f} s", flush=True)
        if len(values.get(spec[section][0]["name"], [])) < 2:
            continue

        print(f"\n{workload}: {len(seeds)} runs, median run {statistics.median(run_s):.1f} s")
        summary = {}
        for m in spec[section]:
            stats = summarise(values[m["name"]])
            summary[m["name"]] = stats
            bound = m.get("bound")
            flag = ""
            if bound is not None and stats["spread"] >= bound / 3:
                flag = f"  <-- spread >= bound/3 ({bound / 3:.3f})"
            print(
                f"  {m['name']:40s} median {stats['median']:12.6g} {m['unit']:9s}"
                f" spread {stats['spread']:.4f}{flag}"
            )
        entry = baseline["workloads"].setdefault(workload, {})
        entry[section] = {name: s["median"] for name, s in summary.items()}
        entry[f"{section}_quartiles"] = {
            name: [s["q1"], s["q3"]] for name, s in summary.items()
        }
        entry[f"{section}_seeds"] = seeds
        entry[f"{section}_median_run_s"] = statistics.median(run_s)

    if args.write:
        last = json.loads((run.WORK / "results").joinpath(
            f"{args.workloads.split(',')[-1]}-seed{seeds[-1]}-trace{args.trace}.json"
        ).read_text())
        baseline["stamp"] = {
            k: v for k, v in last["stamp"].items() if k != "seizenet_file"
        }
        (run.HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
