"""Stage-level benchmark of the ``seizenet`` command-line pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-conv --seed 1 --seconds 20 --trace 0

One run drives the CLI chain ``synth``, ``pretrain``, ``second-pretrain``,
``loocv``, ``eval`` as a user does: one fresh ``python -m seizenet``
process per stage, ``--jobs 1``, in a closed loop where the next process
starts only when the previous one has exited.  After an untimed warm-up
``synth``, it samples the stages for ``--seconds``: each stage gets an equal
share of the time, and its reruns are spaced evenly over the whole run.  A
stage's time is the median of its runs.  ``setup_s`` is the median wall
time of ``pretrain --dry-run``, sampled the same way, at least three times.

``--trace 1`` runs the chain once untraced and then once more with every
stage under ``tracer.py``, which times calls into each module from outside
the program.  It reports per-layer metrics, trace coverage and overhead,
and checks that both chains wrote byte-identical results.

Every run checks the outputs (exit codes, experiment hash in each result,
fold probabilities in [0, 1], event sensitivity >= 90 %) and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Work files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable

STAGES = ("synth", "pretrain", "second-pretrain", "loocv", "eval")
SETUP = "setup"
WARMUP = "warm-up"
SETUP_REPEATS = 3
TRAINING_STAGES = ("pretrain", "second-pretrain", "loocv")
# the stages a timed run samples, in the order of their first runs, and the
# stage each one needs to have run before it
SAMPLED = ("synth", SETUP, "pretrain", "second-pretrain", "loocv", "eval")
NEEDS = {
    "synth": None,
    SETUP: "synth",
    "pretrain": "synth",
    "second-pretrain": "pretrain",
    "loocv": "second-pretrain",
    "eval": "loocv",
}
IMPORT_REPEATS = 3
# a run must exit within 180 s; stages still running at this point are killed
RUN_BUDGET_S = 165.0
# blocks that every workload has; cli-conv's blocks 3-5 are in the totals
TRACED_BLOCKS = 3


def metric_key(stage: str) -> str:
    return stage.replace("-", "_")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts stage processes one at a time and measures each from outside."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        # two OpenBLAS threads are no faster on these shapes with 2 cores,
        # and their spin-waits make stage times follow other processes' load
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def run(self, argv: list[str], cwd: Path, log: Path) -> dict:
        """Run to completion; wall seconds, peak RSS of this child, exit code."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return {"wall_s": 0.0, "rss_mb": 0.0, "code": -1, "out": "no time left"}
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh, stderr=fh)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "out": log.read_text(errors="replace"),
        }


def stage_argv(stage: str, trace_file: Path | None) -> list[str]:
    """Command line of one stage; ``setup`` is ``pretrain --dry-run``."""
    command = {SETUP: "pretrain", WARMUP: "synth"}.get(stage, stage)
    config = "corpus.json" if command == "synth" else "experiment.json"
    args = [command, "--config", config, "--jobs", "1"]
    if command == "synth":
        args += ["--out", "corpus"]
    if stage == SETUP:
        args.append("--dry-run")
    if trace_file is None:
        return [PY, "-m", "seizenet", *args]
    return [PY, str(HERE / "tracer.py"), str(trace_file), *args]


def next_stage(runs: dict[str, list[dict]], now: float, seconds: float) -> str | None:
    """The stage to run at ``now`` seconds into a measurement of ``seconds``.

    Each stage gets an equal share of the time.  After its first run, a
    stage plans as many runs as fit in its share (``setup`` at least
    ``SETUP_REPEATS``) and spaces them evenly over the whole measurement,
    so its samples meet the machine's slow changes of speed at many points
    instead of in one stretch.  A stage
    starts only after the stage it needs has run once.  Reruns that are due
    go first, then the next first run in chain order, then the rerun due
    soonest.  A rerun starts only if a run of its median length still ends
    within ``seconds``; first runs always start, since the chain needs them.
    """
    share = seconds / len(SAMPLED)

    def due(stage: str) -> float:
        least = SETUP_REPEATS if stage == SETUP else 1
        planned = max(least, int(share // runs[stage][0]["wall_s"]))
        return len(runs[stage]) * seconds / planned

    ready = [s for s in SAMPLED if NEEDS[s] is None or runs[NEEDS[s]]]
    first = [s for s in ready if not runs[s]]
    rerun = [
        s
        for s in ready
        if runs[s] and now + statistics.median(r["wall_s"] for r in runs[s]) <= seconds
    ]
    overdue = [s for s in rerun if due(s) <= now]
    if overdue:
        return min(overdue, key=due)
    if first:
        return first[0]
    if rerun:
        return min(rerun, key=due)
    return None


def run_chain(
    runner: Runner,
    workload: Workload,
    seed: int,
    chain_dir: Path,
    traced: bool = False,
    seconds: float = 0.0,
) -> dict:
    """Run the five stages in order, or sample them for ``seconds``.

    Without ``seconds``, every stage runs once, in chain order, stopping at
    the first failure.  With it, an untimed ``synth`` warms the import path
    and writes the corpus; then ``next_stage`` picks stage after stage,
    ``setup`` among them, until the time is used.  A rerun rewrites the same
    files byte for byte, since every stage is deterministic in its config
    and seed.
    """
    chain_dir.mkdir(parents=True)
    (chain_dir / "corpus.json").write_text(json.dumps(workload.corpus_config(seed)))
    (chain_dir / "experiment.json").write_text(
        json.dumps(workload.experiment_config(seed))
    )

    def run_stage(stage: str) -> dict:
        trace_file = chain_dir / f"trace_{stage}.json" if traced else None
        argv = stage_argv(stage, trace_file)
        return runner.run(argv, chain_dir, chain_dir / f"{stage}.log")

    if seconds:
        runs: dict[str, list[dict]] = {WARMUP: [run_stage(WARMUP)]}
        runs.update({stage: [] for stage in SAMPLED})
        start = time.perf_counter()
        stage = SAMPLED[0] if runs[WARMUP][0]["code"] == 0 else None
        while stage is not None:
            runs[stage].append(run_stage(stage))
            if runs[stage][-1]["code"] != 0:
                break
            stage = next_stage(runs, time.perf_counter() - start, seconds)
    else:
        runs = {stage: [] for stage in STAGES}
        for stage in STAGES:
            runs[stage].append(run_stage(stage))
            if runs[stage][-1]["code"] != 0:
                break

    stages = {}
    for stage, done in runs.items():
        if not done:
            continue
        stages[stage] = {
            "runs": done,
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "rss_mb": max(r["rss_mb"] for r in done),
            "code": next((r["code"] for r in done if r["code"] != 0), 0),
            "out": done[-1]["out"],
        }
        trace_file = chain_dir / f"trace_{stage}.json"
        if traced and trace_file.exists():
            stages[stage]["trace"] = json.loads(trace_file.read_text())
    return {"dir": chain_dir, "stages": stages}


def chain_ok(chain: dict) -> bool:
    stages = chain["stages"]
    return all(s in stages for s in STAGES) and all(
        s["code"] == 0 for s in stages.values()
    )


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _read_json(path: Path):
    return json.loads(path.read_text())


def check_outputs(workload: Workload, chain: dict) -> list[tuple[str, bool, str]]:
    """Checks on one chain: exit codes, hashes, probabilities, sensitivity."""
    checks = []
    for stage, record in chain["stages"].items():
        for run in record["runs"]:
            checks.append((f"{stage} exits 0", run["code"] == 0, f"exit {run['code']}"))
    if not chain_ok(chain):
        return checks

    out = chain["dir"] / "out"
    match = re.search(r"hash ([0-9a-f]{12})", chain["stages"]["pretrain"]["out"])
    prefix = match.group(1) if match else None
    folds = sorted(out.glob("fold_*.json"))
    results = [
        out / name
        for name in (
            "pretrain_result.json",
            "second_result.json",
            "loocv_result.json",
            "eval_result.json",
        )
    ] + folds
    try:
        hashes = {_read_json(p).get("config_hash") for p in results}
    except (OSError, ValueError) as err:
        hashes = {f"unreadable: {err}"}
    checks.append(
        (
            "results carry the experiment hash",
            prefix is not None
            and len(hashes) == 1
            and str(next(iter(hashes))).startswith(prefix),
            f"{len(results)} files, hashes {sorted(map(str, hashes))}",
        )
    )

    bad = []
    for path in folds:
        try:
            probs = _read_json(path)["probs"]
        except (OSError, ValueError, KeyError, TypeError):
            probs = None
        if not probs or not all(
            isinstance(p, float) and math.isfinite(p) and 0.0 <= p <= 1.0
            for p in probs
        ):
            bad.append(path.name)
    checks.append(
        (
            "fold probabilities finite and in [0, 1]",
            len(folds) == workload.folds and not bad,
            f"{len(folds)} of {workload.folds} folds, bad: {bad}",
        )
    )

    try:
        pct = sensitivity_pct(chain)
    except (OSError, ValueError, KeyError, TypeError):
        pct = None
    checks.append(
        (
            "event sensitivity >= 90 %",
            pct is not None and pct >= 90.0,
            f"{pct} %",
        )
    )
    return checks


def check_identical(a: Path, b: Path) -> tuple[str, bool, str]:
    """Result .json and .csv files of two output directories match byte for byte."""

    def results(d: Path) -> dict[str, bytes]:
        return {
            p.name: p.read_bytes()
            for p in sorted(d.iterdir())
            if p.suffix in (".json", ".csv")
        }

    ra, rb = results(a), results(b)
    differ = sorted(n for n in set(ra) | set(rb) if ra.get(n) != rb.get(n))
    return (
        "traced results byte-identical to untraced",
        bool(ra) and not differ,
        f"{len(ra)} files, differing: {differ}",
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def sensitivity_pct(chain: dict) -> float | None:
    overall = _read_json(chain["dir"] / "out" / "loocv_result.json")["overall"]
    sens = overall["sensitivity"]
    return None if sens is None else 100.0 * sens


def train_windows(workload: Workload, chain: dict) -> int:
    """Windows that went through training steps, from result JSONs and config."""
    out = chain["dir"] / "out"
    pre = _read_json(out / "pretrain_result.json")["epochs_run"]
    second = _read_json(out / "second_result.json")["subjects"].values()
    folds = [_read_json(p)["train"]["epochs_run"] for p in out.glob("fold_*.json")]
    return (
        pre * workload.pretrain_windows_per_epoch()
        + sum(s["epochs_run"] for s in second) * workload.second_windows_per_epoch()
        + sum(folds) * workload.fold_windows_per_epoch()
    )


def chain_times(chain: dict) -> dict[str, float]:
    times = {f"{metric_key(s)}_s": chain["stages"][s]["wall_s"] for s in STAGES}
    times["pipeline_s"] = sum(times[f"{metric_key(s)}_s"] for s in STAGES)
    return times


def end_to_end_metrics(workload: Workload, chain: dict) -> dict[str, float]:
    """Stage medians, their sum, throughput, peak memory and sensitivity.

    The stage medians are printed but not bounded in BENCHMARK.json: on a
    shared 2-core host each one spreads too far from run to run to hold a
    bound, while their sum and the training throughput average over the
    whole run.
    """
    values = chain_times(chain)
    train_s = sum(values[f"{metric_key(s)}_s"] for s in TRAINING_STAGES)
    values["train_windows_per_s"] = train_windows(workload, chain) / train_s
    values["setup_s"] = chain["stages"][SETUP]["wall_s"]
    values["peak_rss_mb"] = max(chain["stages"][s]["rss_mb"] for s in STAGES)
    values["sensitivity_pct"] = sensitivity_pct(chain)
    return values


def _span(spans: dict, name: str, field: int = 0) -> float:
    return spans.get(name, [0.0, 0])[field]


def per_layer_metrics(
    workload: Workload, plain: dict, traced: dict, import_s: float
) -> dict[str, float]:
    """Per-layer numbers of a traced chain, summed over its stage processes."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for stage in traced["stages"].values():
        trace = stage.get("trace", {})
        for name, (secs, calls) in trace.get("spans", {}).items():
            rec = spans.setdefault(name, [0.0, 0])
            rec[0] += secs
            rec[1] += calls
        for name, n in trace.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n

    m: dict[str, float] = {"import.seizenet_cli_s": import_s}
    timed = {
        "synthgen.generate_recording_s": "synthgen.generate_recording",
        "eegio.write_edf_s": "eegio.write_edf",
        "eegio.load_corpus_s": "eegio.load_corpus",
        "preprocess.bandpass_s": "preprocess.bandpass",
        "preprocess.normalize_s": "preprocess.normalize",
        "eegio.windows_from_recordings_s": "eegio.windows_from_recordings",
        "training.prepare_recordings_s": "training.prepare_recordings",
        "model.forward_train_s": "model.forward_train",
        "model.forward_eval_s": "model.forward_eval",
        "model.encode_s": "model.encode",
        "model.transformer_s": "model.transformer",
        "model.classify_s": "model.classify",
        "nn.attention_fwd_s": "nn.attention_fwd",
        "nn.linear_fwd_s": "nn.linear_fwd",
        "nn.layer_norm_fwd_s": "nn.layer_norm_fwd",
        "nn.backward_s": "nn.backward",
        "nn.save_checkpoint_s": "nn.save_checkpoint",
        "nn.load_checkpoint_s": "nn.load_checkpoint",
        "objectives.contrastive_loss_s": "objectives.contrastive_loss",
        "objectives.sswce_loss_s": "objectives.sswce_loss",
        "optim.adam_step_s": "optim.adam_step",
        "rand.rng_s": "rand.rng",
        "evalpost.score_track_s": "evalpost.score_track",
        "evalpost.postprocess_labels_s": "evalpost.postprocess_labels",
        "cli.write_atomic_s": "cli.write_atomic",
    }
    for metric, span in timed.items():
        m[metric] = _span(spans, span)
    for op in ("conv1d", "group_norm", "gelu", "dropout"):
        m[f"nn.{op}_fwd_s"] = _span(spans, f"nn.{op}_fwd")
        for i in range(TRACED_BLOCKS):
            m[f"nn.{op}_fwd_s.block{i}"] = _span(spans, f"nn.{op}_fwd.block{i}")

    m["preprocess.normalize_calls"] = _span(spans, "preprocess.normalize", 1)
    m["nn.backward_calls"] = _span(spans, "nn.backward", 1)
    m["optim.adam_step_calls"] = _span(spans, "optim.adam_step", 1)
    m["rand.rng_created"] = _span(spans, "rand.rng", 1)
    for name in (
        "eegio.matrix_calls",
        "eegio.subset_calls",
        "nn.accumulate_grad_calls",
        "nn.tape_nodes",
        "nn.tape_nodes_eval",
        "model.forward_train_windows",
        "model.forward_eval_windows",
    ):
        m[name] = counts.get(name, 0)

    matrix_bytes = counts.get("eegio.matrix_bytes", 0)
    # each training stage prepares the whole corpus as one float64 dataset
    dataset_bytes = len(TRAINING_STAGES) * workload.dataset_bytes
    m["eegio.matrix_mb"] = matrix_bytes / 2**20
    m["eegio.matrix_restack_ratio"] = matrix_bytes / dataset_bytes
    m["nn.tape_eval_share"] = m["nn.tape_nodes_eval"] / max(1, m["nn.tape_nodes"])
    eval_s = m["model.forward_eval_s"]
    m["model.eval_windows_per_s"] = m["model.forward_eval_windows"] / eval_s if eval_s else 0.0

    for stage in STAGES:
        result = traced["stages"][stage]
        covered = result.get("trace", {}).get("covered_s", 0.0)
        m[f"cli.{metric_key(stage)}.wall_s"] = plain["stages"][stage]["wall_s"]
        m[f"cli.{metric_key(stage)}.self_s"] = result["wall_s"] - covered
        m[f"cli.{metric_key(stage)}.peak_rss_mb"] = result["rss_mb"]
        if stage in TRAINING_STAGES:
            m[f"trace.coverage.{metric_key(stage)}"] = covered / result["wall_s"]
    plain_s = chain_times(plain)["pipeline_s"]
    m["trace.overhead_pct"] = 100.0 * (chain_times(traced)["pipeline_s"] - plain_s) / plain_s
    overall = _read_json(traced["dir"] / "out" / "loocv_result.json")["overall"]
    m["evalpost.fp_per_h"] = overall["fp_per_h"]
    return m


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def missing_metrics(spec: dict, section: str, metrics: dict) -> list[str]:
    """Names BENCHMARK.json lists in ``section`` that ``metrics`` lacks."""
    return sorted(m["name"] for m in spec[section] if m["name"] not in metrics)


def load_baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text()) if path.exists() else {}


def stamp_note(stamp: dict) -> str:
    baseline = load_baseline()
    if "stamp" not in baseline:
        return "no baseline recorded"
    keys = [k for k in baseline["stamp"] if k != "seizenet_file"]
    differ = [k for k in keys if baseline["stamp"][k] != stamp.get(k)]
    if not differ:
        return "stamp matches the recorded baseline"
    return (
        "WARNING: stamp differs from the recorded baseline in "
        + ", ".join(f"{k} ({baseline['stamp'][k]} -> {stamp.get(k)})" for k in differ)
        + "; comparisons against the baseline cross environments"
    )


def baseline_medians(workload: str, trace: bool) -> dict:
    entry = load_baseline().get("workloads", {}).get(workload, {})
    return entry.get("per_layer" if trace else "end_to_end", {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seizenet" / "cli.py").is_file():
        print(f"error: no seizenet source tree at {SRC / 'seizenet'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    runner = Runner(start + RUN_BUDGET_S)
    workload = WORKLOADS[args.workload]
    spec = load_spec()

    shutil.rmtree(WORK / "chains", ignore_errors=True)
    (WORK / "chains").mkdir(parents=True)
    subprocess.run(
        [PY, "-m", "compileall", "-q", str(SRC / "seizenet")],
        env=runner.env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    stamp_proc = subprocess.run(
        [PY, str(HERE / "envstamp.py")],
        env=runner.env,
        cwd=WORK,
        check=True,
        capture_output=True,
        text=True,
    )
    stamp = json.loads(stamp_proc.stdout)
    if not Path(stamp["seizenet_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: seizenet imports from {stamp['seizenet_file']}", file=sys.stderr)
        return 2

    checks: list[tuple[str, bool, str]] = []
    metrics: dict[str, float] = {}
    chains = WORK / "chains"
    if args.trace:
        plain = run_chain(runner, workload, args.seed, chains / "plain")
        imports = [
            runner.run([PY, "-c", "import seizenet.cli"], WORK, chains / "import.log")
            for _ in range(IMPORT_REPEATS)
        ]
        checks += [("import exits 0", r["code"] == 0, f"exit {r['code']}") for r in imports]
        traced = run_chain(runner, workload, args.seed, chains / "traced", traced=True)
        checks += check_outputs(workload, plain) + check_outputs(workload, traced)
        if chain_ok(plain) and chain_ok(traced):
            checks.append(check_identical(plain["dir"] / "out", traced["dir"] / "out"))
        if all(ok for _, ok, _ in checks):
            seen = sum(
                s["trace"]["counts"].get("model.forward_train_windows", 0)
                for s in traced["stages"].values()
            )
            expected = train_windows(workload, traced)
            checks.append(
                (
                    "traced training windows match the config arithmetic",
                    seen == expected,
                    f"{seen} traced vs {expected} computed",
                )
            )
            import_s = statistics.median(r["wall_s"] for r in imports)
            metrics = per_layer_metrics(workload, plain, traced, import_s)
            for stage, record in traced["stages"].items():
                if record["trace"]["missing"]:
                    print(f"note: {stage} ran without {record['trace']['missing']}")
    else:
        chain = run_chain(runner, workload, args.seed, chains / "chain", seconds=args.seconds)
        checks += check_outputs(workload, chain)
        if all(ok for _, ok, _ in checks):
            metrics = end_to_end_metrics(workload, chain)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = missing_metrics(spec, section, metrics)
    if metrics:
        checks.append(("every named metric reported", not missing, f"missing: {missing}"))

    failed = [c for c in checks if not c[1]]
    baseline = baseline_medians(args.workload, bool(args.trace))
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"{time.perf_counter() - start:.1f} s"
    )
    print(f"stamp {json.dumps(stamp, sort_keys=True)}")
    print(stamp_note(stamp))
    stages = plain["stages"] if args.trace else chain["stages"]
    print("untraced stage medians (not bounded):")
    for stage, record in stages.items():
        name = f"{metric_key(stage)}_s"
        print(f"  {name:40s} {record['wall_s']:14.6g} s  (runs: {len(record['runs'])})")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check: {name}: {detail}")
    print(f"failed_ops {len(failed)} of ops {len(checks)}")
    for name in units:
        if name in metrics:
            ref = baseline.get(name)
            vs = f"  (baseline {ref:.6g})" if isinstance(ref, (int, float)) else ""
            print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}{vs}")

    result_metrics = {
        name: {"value": metrics[name], "unit": units[name]}
        for name in units
        if name in metrics
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp,
        "checks": checks,
        "metrics": result_metrics,
        "wall_s": {s: [r["wall_s"] for r in rec["runs"]] for s, rec in stages.items()},
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    correct = not failed and not missing and bool(metrics)
    if correct:
        shutil.rmtree(WORK / "chains", ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
