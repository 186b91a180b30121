"""Microbenchmark of GELU, conv, one train step, one eval forward, ingest and setup.

Run from anywhere; ``--src`` picks the seizenet source tree to time, so the
same script measures a checkout and its parent side by side:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/step.py --repeats 9 --out after.json
    OPENBLAS_NUM_THREADS=1 python3 benchmarks/step.py --src ../parent/src \\
        --repeats 9 --out before.json

Cases, each run once untimed and then ``--repeats`` times in this process:

- ``gelu.forward`` and ``gelu.backward``: ``nn.gelu`` on a (32, 64, 683)
  float32 array, the activation of conv block 0 on ``cli-conv``;
- ``conv.forward`` and ``conv.backward``: ``nn.conv1d`` at conv block 1 of
  ``cli-conv``, a (32, 64, 682) float32 input that needs a gradient, a
  (64, 64, 2) weight, a bias and stride 2;
- ``<shape>.train_step``: ``zero_grads``, ``forward_classifier`` with
  dropout, ``sswce_loss``, ``backward`` and ``adam_step``, the step that
  second pretraining and every LOOCV fold take;
- ``<shape>.eval_forward``: ``forward_classifier`` under ``no_grad``;

at the model, window and batch shapes of the ``cli-conv`` and ``cli-attn``
workloads, read from ``perfbench/workloads.py``: 20 channels x 2048
samples, width 64, 4 transformer layers, with 6 conv blocks at batch 32
and 3 conv blocks at batch 16.  Inputs are seeded normal draws, so every
run times the same arithmetic.  One more untimed train step per shape,
under ``tracemalloc``, gives ``tape_peak_mb``: the largest traced heap in
MiB over the step, which the tape of the forward sets.

- ``cli-conv.prepare``: ``load_corpus`` and ``prepare_recordings`` (band-pass,
  windowing, normalisation) on the ``cli-conv`` corpus at seed 1, which is
  synthesised once into a temporary directory.  Every training stage does
  this work before its first step.  One more untimed run under
  ``tracemalloc`` gives ``prepare_peak_mb``, the largest traced heap in MiB,
  with the raw records counted.
- ``bandpass``: ``preprocess_recording_samples`` on the first record of that
  corpus (20 channels x 81,920 samples).
- ``cli-conv.setup``: the wall time of a fresh ``python -m seizenet pretrain
  --dry-run`` process on that corpus, which loads, filters, windows and
  normalises it.  In-process cases hide import cost; this one counts it,
  as every training stage pays it.  A small helper interpreter spawns it
  (``_SPAWN``), and its ``ru_maxrss`` from ``os.wait4``, the largest over
  the runs, gives ``setup_peak_rss_mb``: what ``perfbench`` reports as
  peak RSS for its ``setup`` stage.

The output JSON gives, per case, the repeat count, the median and the
quartiles in ms, and every sample; ``peak_rss_mb`` is this process's
``ru_maxrss`` after the last case.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

GELU_SHAPE = (32, 64, 683)
CONV_SHAPE, CONV_KERNEL = (32, 64, 682), 2


def _gelu_case(sn, rng):
    x_data = rng.normal(size=GELU_SHAPE).astype(np.float32)
    g = rng.normal(size=GELU_SHAPE).astype(np.float32)

    def run(_):
        x = sn.nn.Tensor(x_data, requires_grad=True)
        t0 = time.perf_counter()
        out = sn.nn.gelu(x)
        t1 = time.perf_counter()
        out.backward(g)
        t2 = time.perf_counter()
        return {"gelu.forward": t1 - t0, "gelu.backward": t2 - t1}

    return run


def _conv_case(sn, rng):
    x_data = rng.normal(size=CONV_SHAPE).astype(np.float32)
    c_in = CONV_SHAPE[1]
    w_data = rng.normal(size=(c_in, c_in, CONV_KERNEL)).astype(np.float32)
    g = rng.normal(size=(*CONV_SHAPE[:2], CONV_SHAPE[2] // CONV_KERNEL))
    g = g.astype(np.float32)

    def run(_):
        x = sn.nn.Tensor(x_data, requires_grad=True)
        w = sn.nn.Tensor(w_data, requires_grad=True)
        b = sn.nn.Tensor(np.zeros(c_in, np.float32), requires_grad=True)
        t0 = time.perf_counter()
        out = sn.nn.conv1d(x, w, b, stride=CONV_KERNEL)
        t1 = time.perf_counter()
        out.backward(g)
        t2 = time.perf_counter()
        return {"conv.forward": t1 - t0, "conv.backward": t2 - t1}

    return run


def _model_cases(sn, rng, name):
    workload = WORKLOADS[name]
    config = sn.model.ModelConfig.from_dict(workload.experiment["model"])
    params = sn.model.init_weights(config, "random", sn.rand.Rng(1).child("init"))
    samples = int(workload.experiment["window_s"] * workload.corpus["sample_rate_hz"])
    shape = (workload.batch_size, config.in_channels, samples)
    windows = rng.normal(size=shape).astype(np.float32)
    labels = np.arange(workload.batch_size) % 2
    state = sn.optim.AdamState()
    optim_spec = sn.optim.OptimSpec(lr=5e-4)
    sswce_spec = sn.objectives.SswceSpec()

    def train(i):
        t0 = time.perf_counter()
        sn.optim.zero_grads(params)
        probs = sn.model.forward_classifier(
            config, params, windows, rng=sn.rand.Rng(1).child("step", i), training=True
        )
        loss = sn.objectives.sswce_loss(probs, labels, sswce_spec)
        loss.backward()
        sn.optim.adam_step(params, state, optim_spec)
        return {f"{name}.train_step": time.perf_counter() - t0}

    def evaluate(_):
        t0 = time.perf_counter()
        with sn.nn.no_grad():
            sn.model.forward_classifier(config, params, windows)
        return {f"{name}.eval_forward": time.perf_counter() - t0}

    def tape_peak_mb():
        tracemalloc.start()
        try:
            train(-2)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return [train, evaluate], tape_peak_mb


# Times one command and reads its ru_maxrss from os.wait4.  Linux carries the
# RSS high-water mark of the address space a process execs from (under vfork,
# its parent's) into the new program's ru_maxrss, so the command is spawned
# from this fresh interpreter, which stays far below any stage's peak.
_SPAWN = """
import os, sys, time
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - t0
print(seconds, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _corpus_cases(sn, workdir: Path, src: Path):
    workload = WORKLOADS["cli-conv"]
    corpus_cfg = workdir / "corpus.json"
    corpus_cfg.write_text(json.dumps(workload.corpus_config(1)))
    corpus_dir = workdir / "corpus"
    exp_cfg = workdir / "experiment.json"
    exp_cfg.write_text(
        json.dumps({**workload.experiment_config(1), "corpus_dir": str(corpus_dir)})
    )
    with contextlib.redirect_stdout(sys.stderr):
        code = sn.cli.main(
            ["synth", "--config", str(corpus_cfg), "--out", str(corpus_dir)]
        )
    if code != 0:
        raise RuntimeError(f"synth exited {code}")
    exp = sn.cli.load_experiment(exp_cfg)

    def prepare():
        # the raw records stay referenced while they are prepared, as in the CLI
        recordings = sn.eegio.load_corpus(exp.corpus_dir)
        return sn.training.prepare_recordings(
            recordings,
            window_s=exp.window_s,
            filter_spec=exp.filter_spec,
            normalization=exp.normalization,
        )

    def run(_):
        t0 = time.perf_counter()
        dataset = prepare()
        seconds = time.perf_counter() - t0
        del dataset
        return {"cli-conv.prepare": seconds}

    samples = sn.eegio.load_corpus(exp.corpus_dir)[0].samples

    def bandpass(_):
        t0 = time.perf_counter()
        sn.preprocess.preprocess_recording_samples(samples, exp.filter_spec)
        return {"bandpass": time.perf_counter() - t0}

    dry_run = [sys.executable, "-m", "seizenet", "pretrain", "--dry-run"]
    dry_run += ["--config", str(exp_cfg)]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

    setup_rss_mb = []

    def setup(_):
        argv = [sys.executable, "-c", _SPAWN, *dry_run]
        out = subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=True)
        seconds, maxrss_kib, code = out.stdout.split()
        if int(code) != 0:
            raise subprocess.CalledProcessError(int(code), dry_run)
        setup_rss_mb.append(int(maxrss_kib) / 1024)  # KiB on Linux
        return {"cli-conv.setup": float(seconds)}

    def peak_mb():
        tracemalloc.start()
        try:
            prepare()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return [run, bandpass, setup], peak_mb, setup_rss_mb


def _summary(samples_s: list[float]) -> dict:
    ms = np.array(samples_s) * 1e3
    q1, median, q3 = np.percentile(ms, [25, 50, 75])
    return {
        "unit": "ms",
        "repeats": len(ms),
        "median": round(float(median), 2),
        "q1": round(float(q1), 2),
        "q3": round(float(q3), 2),
        "iqr": round(float(q3 - q1), 2),
        "samples": [round(float(v), 2) for v in ms],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory that holds the seizenet package (default: this checkout)",
    )
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path, default=None, help="JSON output path")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not (args.src / "seizenet" / "__init__.py").is_file():
        parser.error(f"no seizenet package under {args.src}")

    sys.path.insert(0, str(args.src.resolve()))
    import seizenet.cli
    import seizenet.eegio
    import seizenet.model
    import seizenet.nn
    import seizenet.objectives
    import seizenet.optim
    import seizenet.preprocess
    import seizenet.rand
    import seizenet.training

    sn = seizenet
    rng = np.random.default_rng(0)
    runs = [_gelu_case(sn, rng), _conv_case(sn, rng)]
    tape_peaks = {}
    for name in ("cli-conv", "cli-attn"):
        model_runs, tape_peaks[name] = _model_cases(sn, rng, name)
        runs.extend(model_runs)

    samples: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory(prefix="seizenet-step-") as workdir:
        src = args.src.resolve()
        corpus_runs, prepare_peak, setup_rss_mb = _corpus_cases(
            sn, Path(workdir), src
        )
        for run in [*runs, *corpus_runs]:
            run(-1)  # warm-up: first-touch allocations and BLAS setup
            for i in range(args.repeats):
                for key, seconds in run(i).items():
                    samples.setdefault(key, []).append(seconds)
                print(".", end="", file=sys.stderr, flush=True)
        prepare_peak_mb = round(prepare_peak(), 1)
        tape_peak_mb = {name: round(peak(), 1) for name, peak in tape_peaks.items()}
    print(file=sys.stderr)

    result = {
        "src": str(Path(seizenet.__file__).resolve().parent),
        "repeats": args.repeats,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "cases": {key: _summary(vals) for key, vals in samples.items()},
        "tape_peak_mb": tape_peak_mb,
        "prepare_peak_mb": prepare_peak_mb,
        "setup_peak_rss_mb": round(max(setup_rss_mb), 1),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }
    for key, case in result["cases"].items():
        print(f"{key:24s} median {case['median']:9.2f} ms  IQR {case['iqr']:7.2f}")
    for name, peak_mb in tape_peak_mb.items():
        print(f"{name} train step tracemalloc peak {peak_mb} MiB")
    print(f"prepare tracemalloc peak {prepare_peak_mb} MiB")
    print(f"setup child peak RSS {result['setup_peak_rss_mb']} MiB")
    print(f"peak RSS {result['peak_rss_mb']} MiB")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
