"""End-to-end command-line checks.

A session-scoped fixture synthesizes a miniature corpus and drives the
whole chain (pretrain, second-pretrain, loocv, eval) once through
``main``; individual tests then assert on exit codes, written files, and
determinism.  Everything stays tiny (64 Hz, 2 channels, 1 epoch) so the
full chain takes a couple of seconds.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import weakref
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seizenet.cli import Experiment, _build_section, load_experiment, main
from seizenet.eegio import Recording, WindowedDataset, load_corpus, write_edf_file
from seizenet.errors import NumericsError, SeizenetError, TrainError
from seizenet.evalpost import label_runs, truth_events_from_intervals
from seizenet.synthgen import CorpusSpec

CORPUS_SPEC = {
    "subjects": 2,
    "records_per_subject": 3,
    "record_s": 64,
    "seizures_per_record": 1,
    "seizure_len_s": [8.0, 10.0],
    "sample_rate_hz": 64,
    "channels": 2,
    "seed": 11,
}

MODEL = {
    "in_channels": 2,
    "conv_blocks": 3,
    "conv_channels": 16,
    "conv_strides": [3, 2, 2],
    "model_dim": 16,
    "transformer_layers": 2,
    "heads": 4,
    "ffn_dim": 32,
    "dropout_p": 0.0,
    "classifier_dims": [[16, 8], [8, 2]],
    "group_norm_groups": 4,
    "pos_conv_kernel": 5,
    "pos_conv_groups": 4,
}


def experiment_dict(corpus_dir, out_dir, /, **overrides):
    base = {
        "corpus_dir": str(corpus_dir),
        "out_dir": str(out_dir),
        "seed": 5,
        "window_s": 2.0,
        "model": MODEL,
        "optim": {"lr": 0.001},
        "train": {"batch_size": 8, "max_epochs": 1},
        "preprocess": {
            "filter": {
                "order": 4,
                "low_hz": 0.5,
                "high_hz": 30.0,
                "sample_rate_hz": 64,
            }
        },
    }
    base.update(overrides)
    return base


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2))
    return path


def run_chain(config_path, out_dir, jobs=1):
    assert main(["pretrain", "--config", str(config_path)]) == 0
    assert main(["second-pretrain", "--config", str(config_path)]) == 0
    assert (
        main(["loocv", "--config", str(config_path), "--jobs", str(jobs)]) == 0
    )
    assert main(["eval", "--config", str(config_path)]) == 0
    return out_dir


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_cfg = write_json(root / "corpus.json", CORPUS_SPEC)
    corpus_dir = root / "corpus"
    assert (
        main(["synth", "--config", str(corpus_cfg), "--out", str(corpus_dir)])
        == 0
    )
    out_dir = root / "out"
    exp_cfg = write_json(
        root / "exp.json", experiment_dict(corpus_dir, out_dir)
    )
    run_chain(exp_cfg, out_dir)
    return {
        "root": root,
        "corpus_cfg": corpus_cfg,
        "corpus_dir": corpus_dir,
        "exp_cfg": exp_cfg,
        "out_dir": out_dir,
    }


class TestSynth:
    def test_writes_manifest_and_subject_dirs(self, workdir):
        corpus = workdir["corpus_dir"]
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert len(manifest["records"]) == 6
        assert (corpus / "s00").is_dir() and (corpus / "s01").is_dir()

    def test_dry_run_writes_nothing(self, workdir, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(
            [
                "synth",
                "--config",
                str(workdir["corpus_cfg"]),
                "--out",
                str(out),
                "--dry-run",
            ]
        )
        assert code == 0
        assert not out.exists()
        assert "would write 6 records" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"subjects": 2.5}, "corpus spec.subjects must be an integer"),
            ({"channels": True}, "corpus spec.channels must be an integer"),
            ({"seizure_len_s": 5}, "bad 'corpus spec' section"),
            ({"record_s": float("inf")}, "record_s must be a whole number"),
            ({"record_s": float("nan")}, "record_s must be a whole number"),
            ({"seizure_gain": float("nan")}, "seizure_gain must be >= 3"),
            ({"background_amplitude": float("nan")}, "background_amplitude must be"),
            ({"background_amplitude": -1}, "background_amplitude must be finite"),
            ({"record_s": True}, "take numbers, not booleans"),
            ({"subjects": "2"}, "corpus spec.subjects must be an integer"),
            ({"seizure_len_s": [True, 10.0]}, "take numbers, not booleans"),
            ({"seizures_per_record": 5}, "cannot pack 5 seizures"),
        ],
    )
    def test_bad_spec_is_config_error(self, tmp_path, capsys, overrides, message):
        cfg = write_json(tmp_path / "corpus.json", {**CORPUS_SPEC, **overrides})
        out = tmp_path / "never"
        code = main(["synth", "--config", str(cfg), "--out", str(out), "--dry-run"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", [5e6, 1e300])
    def test_amplitude_past_the_edf_range_writes_nothing(
        self, tmp_path, capsys, amplitude
    ):
        spec = {
            "subjects": 1,
            "records_per_subject": 1,
            "record_s": 64,
            "seizures_per_record": 0,
            "channels": 1,
            "background_amplitude": amplitude,
        }
        cfg = write_json(tmp_path / "corpus.json", spec)
        out = tmp_path / "corpus"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "for the EDF physical range" in capsys.readouterr().err
        assert not out.exists()

    def test_seizures_that_cannot_be_packed_write_nothing(self, tmp_path, capsys):
        spec = {"subjects": 1, "records_per_subject": 1, "record_s": 64, "channels": 1}
        cfg = write_json(tmp_path / "corpus.json", spec)
        out = tmp_path / "corpus"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cannot pack 3 seizures" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_hash(self, workdir, tmp_path):
        out = tmp_path / "reseeded"
        code = main(
            [
                "synth",
                "--config",
                str(workdir["corpus_cfg"]),
                "--out",
                str(out),
                "--seed",
                "99",
            ]
        )
        assert code == 0
        fresh = json.loads((out / "manifest.json").read_text())
        base = json.loads(
            (workdir["corpus_dir"] / "manifest.json").read_text()
        )
        assert fresh["spec_hash"] != base["spec_hash"]


class TestPretrain:
    def test_outputs(self, workdir):
        out = workdir["out_dir"]
        assert (out / "pretrain.ckpt").exists()
        result = json.loads((out / "pretrain_result.json").read_text())
        exp = load_experiment(workdir["exp_cfg"])
        assert result["config_hash"] == exp.hash
        assert result["epochs_run"] == 1
        assert len(result["train_losses"]) == 1
        csv = (out / "pretrain_losses.csv").read_text().splitlines()
        assert csv[0] == "epoch,train_loss,val_loss"
        assert len(csv) == 2

    def test_result_records_corpus_hash(self, workdir):
        result = json.loads(
            (workdir["out_dir"] / "pretrain_result.json").read_text()
        )
        manifest = json.loads(
            (workdir["corpus_dir"] / "manifest.json").read_text()
        )
        assert result["corpus_hash"] == manifest["spec_hash"]


class TestSecondPretrain:
    def test_per_subject_checkpoints(self, workdir):
        out = workdir["out_dir"]
        assert (out / "second_s00.ckpt").exists()
        assert (out / "second_s01.ckpt").exists()
        result = json.loads((out / "second_result.json").read_text())
        assert sorted(result["subjects"]) == ["s00", "s01"]
        assert result["subjects"]["s00"]["train_subjects"] == ["s01"]

    def test_requires_pretrain_checkpoint(self, workdir, tmp_path):
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(workdir["corpus_dir"], tmp_path / "out"),
        )
        assert main(["second-pretrain", "--config", str(cfg)]) == 2

    def test_corrupt_pretrain_checkpoint_is_config_error(
        self, workdir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        blob = bytearray((workdir["out_dir"] / "pretrain.ckpt").read_bytes())
        blob[-1] ^= 0x01
        (out / "pretrain.ckpt").write_bytes(bytes(blob))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["second-pretrain", "--config", str(cfg)]) == 2
        assert "sha256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"tensors"', b'"tensorz"'),
            (b'"conv.0.weight"', b'"conv.0.weighs"'),
            (b'"config"', b'"\xffonfig"'),
        ],
        ids=["renamed-tensors", "renamed-weight", "non-utf8"],
    )
    def test_malformed_checkpoint_manifest_is_config_error(
        self, workdir, tmp_path, capsys, old, new
    ):
        # the digest covers the manifest, so each edit fails it
        out = tmp_path / "out"
        out.mkdir()
        blob = (workdir["out_dir"] / "pretrain.ckpt").read_bytes()
        assert blob.count(old) >= 1
        (out / "pretrain.ckpt").write_bytes(blob.replace(old, new, 1))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["second-pretrain", "--config", str(cfg)]) == 2
        assert "sha256" in capsys.readouterr().err

    def test_misshapen_tensor_table_is_config_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        blob = (workdir["out_dir"] / "pretrain.ckpt").read_bytes()
        old, new = b'"conv.0.weight",[16,2,3]', b'"conv.0.weight",[16,2,1]'
        assert blob.count(old) == 1
        (out / "pretrain.ckpt").write_bytes(blob.replace(old, new))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["second-pretrain", "--config", str(cfg)]) == 2
        assert "sha256" in capsys.readouterr().err
        assert not (out / "second_s00.ckpt").exists()

    def test_random_init_skips_checkpoint(self, workdir, tmp_path):
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(
                workdir["corpus_dir"],
                tmp_path / "out",
                init_policy="random",
            ),
        )
        assert main(["second-pretrain", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "second_s00.ckpt").exists()


class TestLoocv:
    def test_fold_files(self, workdir):
        out = workdir["out_dir"]
        folds = sorted(out.glob("fold_*.json"))
        assert len(folds) == 6
        data = json.loads(folds[0].read_text())
        assert data["subject"] == "s00"
        assert len(data["probs"]) == len(data["test_labels"]) == 32
        assert all(0.0 <= p <= 1.0 for p in data["probs"])
        assert data["truth_events"], "every record carries one seizure"
        for a, b in data["truth_events"]:
            assert 0 <= a < b <= 32

    def test_truth_events_are_the_runs_of_the_test_labels(self, workdir):
        # which are the windows of the record's annotated seizures, the rule
        # the labels were made by
        recordings = {r.record_id: r for r in load_corpus(workdir["corpus_dir"])}
        for path in sorted(workdir["out_dir"].glob("fold_*.json")):
            data = json.loads(path.read_text())
            runs = label_runs(data["test_labels"])
            assert data["truth_events"] == [list(run) for run in runs]
            rec = recordings[data["record"]]
            n, fs = len(data["test_labels"]), rec.sample_rate_hz
            assert runs == truth_events_from_intervals(
                rec.seizures, n, data["window_s"], fs
            )

    def test_aggregate_result(self, workdir):
        out = workdir["out_dir"]
        result = json.loads((out / "loocv_result.json").read_text())
        assert sorted(result["per_subject"]) == ["s00", "s01"]
        assert result["overall"]["total_events"] == 6
        table = (out / "loocv_table.csv").read_text().splitlines()
        assert table[0].startswith("subject,folds,")
        assert table[-1].startswith("OVERALL,6,")

    def test_dry_run_prints_plans_without_training(
        self, workdir, tmp_path, capsys
    ):
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(workdir["corpus_dir"], tmp_path / "out"),
        )
        code = main(["loocv", "--config", str(cfg), "--dry-run"])
        assert code == 0
        plans = json.loads(capsys.readouterr().out)
        assert len(plans) == 6
        assert {p["subject"] for p in plans} == {"s00", "s01"}
        assert not (tmp_path / "out").exists()

    def test_raw_records_are_freed_before_the_subject_subsets(
        self, workdir, tmp_path, monkeypatch
    ):
        # the float64 corpus must not coexist with the per-subject copies
        loaded = []

        def tracked_load_corpus(corpus_dir):
            recordings = load_corpus(corpus_dir)
            loaded.extend(weakref.ref(rec) for rec in recordings)
            return recordings

        class Stop(Exception):
            pass

        alive_at_subset = []

        def subset(self, predicate):
            alive_at_subset.append(sum(ref() is not None for ref in loaded))
            raise Stop

        monkeypatch.setattr("seizenet.cli.load_corpus", tracked_load_corpus)
        monkeypatch.setattr(WindowedDataset, "subset", subset)
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(
                workdir["corpus_dir"], tmp_path / "out", init_policy="random"
            ),
        )
        with pytest.raises(Stop):
            main(["loocv", "--config", str(cfg)])
        assert len(loaded) == 6
        assert alive_at_subset == [0]

    def test_jobs_beyond_the_fold_count_start_one_worker_per_fold(
        self, workdir, tmp_path, monkeypatch
    ):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("seizenet.cli.ProcessPoolExecutor", SerialPool)
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(
                workdir["corpus_dir"], tmp_path / "out", init_policy="random"
            ),
        )
        assert main(["loocv", "--config", str(cfg), "--jobs", "64"]) == 0
        assert started == [6]
        assert len(list((tmp_path / "out").glob("fold_*.json"))) == 6

    def test_too_few_records_is_protocol_error(self, tmp_path, capsys):
        spec = dict(CORPUS_SPEC, records_per_subject=1)
        corpus_cfg = write_json(tmp_path / "corpus.json", spec)
        corpus = tmp_path / "corpus"
        assert (
            main(
                ["synth", "--config", str(corpus_cfg), "--out", str(corpus)]
            )
            == 0
        )
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(corpus, tmp_path / "out")
        )
        assert main(["loocv", "--config", str(cfg)]) == 3
        assert "protocol error" in capsys.readouterr().err


class TestEval:
    def test_sweep_rows(self, workdir):
        out = workdir["out_dir"]
        result = json.loads((out / "eval_result.json").read_text())
        rows = result["rows"]
        # 1 "none" row plus 3 widths for each of the 3 smoothing methods
        assert len(rows) == 10
        assert rows[0]["method"] == "none" and rows[0]["w"] is None
        methods = {r["method"] for r in rows}
        assert methods == {"none", "majority", "minpool", "majority+minpool"}
        table = (out / "eval_table.csv").read_text().splitlines()
        assert len(table) == 11

    def test_single_method_and_width(self, workdir, capsys):
        code = main(
            [
                "eval",
                "--config",
                str(workdir["exp_cfg"]),
                "--method",
                "minpool",
                "--w",
                "3",
            ]
        )
        assert code == 0
        result = json.loads(
            (workdir["out_dir"] / "eval_result.json").read_text()
        )
        assert len(result["rows"]) == 1
        assert result["rows"][0]["method"] == "minpool"
        assert result["rows"][0]["w"] == 3
        # restore the full sweep for later tests
        assert main(["eval", "--config", str(workdir["exp_cfg"])]) == 0

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize("w", ["0", "4"])
    def test_bad_width_is_config_error(self, workdir, capsys, w, dry_run):
        cfg = str(workdir["exp_cfg"])
        assert main(["eval", "--config", cfg, "--w", w, *dry_run]) == 2
        assert "smoothing window must be odd" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: b'{"record": "\xff"}', "is not valid JSON"),
            (lambda d: [d], "is not a JSON object"),
            (lambda d: {k: v for k, v in d.items() if k != "record"}, "lacks record"),
            (lambda d: {**d, "window_s": None}, "window_s must be a positive"),
            (lambda d: {k: v for k, v in d.items() if k != "probs"}, "lacks probs"),
            (lambda d: {**d, "probs": ["0.5"]}, "probs must be a list of numbers"),
            (lambda d: {**d, "probs": 0.5}, "probs must be a list of numbers"),
            (lambda d: {**d, "truth_events": [[1]]}, "[a, b] integer pairs"),
            (lambda d: {**d, "truth_events": [3]}, "[a, b] integer pairs"),
            (lambda d: {**d, "window_s": "8"}, "window_s must be a positive number"),
            (lambda d: {**d, "probs": [2.0]}, "probs must be finite and lie in"),
        ],
        ids=[
            "non-utf8", "list", "no-record", "null-window", "no-probs",
            "string-prob", "scalar-probs", "short-event", "scalar-event",
            "string-window", "prob-above-1",
        ],
    )
    def test_malformed_fold_file_is_config_error(
        self, workdir, tmp_path, capsys, edit, message
    ):
        out = tmp_path / "out"
        out.mkdir()
        for path in workdir["out_dir"].glob("fold_*.json"):
            shutil.copy(path, out)
        fold = sorted(out.glob("fold_*.json"))[0]
        edited = edit(json.loads(fold.read_text()))
        if not isinstance(edited, bytes):
            edited = json.dumps(edited).encode()
        fold.write_bytes(edited)
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {fold.name}" in err and message in err
        assert not (out / "eval_result.json").exists()

    def test_no_folds_is_config_error(self, workdir, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(workdir["corpus_dir"], tmp_path / "empty"),
        )
        assert main(["eval", "--config", str(cfg)]) == 2
        assert "no fold prediction files" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_is_byte_identical_and_jobs_invariant(
        self, workdir, tmp_path
    ):
        out2 = tmp_path / "out2"
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(workdir["corpus_dir"], out2),
        )
        run_chain(cfg, out2, jobs=2)
        names = sorted(p.name for p in workdir["out_dir"].iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            workdir["out_dir"], out2, names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert sorted(match) == names

    def test_gradients_do_not_depend_on_the_blas_thread_count(self):
        # one conv block's forward and backward at cli-conv block 0, whose
        # weight-gradient GEMM rounds differently at two OpenBLAS threads
        # unless importing seizenet pins BLAS to one
        script = (
            "import hashlib\n"
            "import seizenet\n"
            "import numpy as np\n"
            "from seizenet.nn import Tensor, conv_block\n"
            "from seizenet.rand import Rng\n"
            "rng = np.random.default_rng(0)\n"
            "x = Tensor(rng.normal(size=(32, 20, 2048)).astype(np.float32))\n"
            "weight = rng.normal(size=(64, 20, 3)) / np.sqrt(60)\n"
            "params = [Tensor(a.astype(np.float32), requires_grad=True)\n"
            "          for a in (weight, np.zeros(64), np.ones(64), np.zeros(64))]\n"
            "out = conv_block(x, *params, 3, 16, 0.1, Rng(1).child('d', 0), True)\n"
            "out.backward(rng.normal(size=out.shape).astype(np.float32))\n"
            "grads = b''.join(p.grad.tobytes() for p in params)\n"
            "print(hashlib.sha256(grads).hexdigest())\n"
        )
        hashes = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.strip())
        assert hashes[0] == hashes[1]


class TestRefusals:
    def test_seed_change_refuses_stale_checkpoint(self, workdir, capsys):
        cfg = str(workdir["exp_cfg"])
        assert main(["second-pretrain", "--config", cfg, "--seed", "99"]) == 2
        assert main(["loocv", "--config", cfg, "--seed", "99"]) == 2
        assert main(["eval", "--config", cfg, "--seed", "99"]) == 2
        err = capsys.readouterr().err
        assert err.count("different configuration") == 3

    def test_out_dir_is_not_part_of_identity(self, workdir, tmp_path):
        moved = tmp_path / "elsewhere"
        cfg = write_json(
            tmp_path / "exp.json",
            experiment_dict(workdir["corpus_dir"], moved),
        )
        assert load_experiment(cfg).hash == load_experiment(
            workdir["exp_cfg"]
        ).hash


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["pretrain", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert main(["pretrain", "--config", str(bad)]) == 2

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "exp.json", {"modle": {}})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        assert "unknown config keys: modle" in capsys.readouterr().err

    def test_unknown_model_field(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", {"model": {"bogus": 1}})
        assert main(["pretrain", "--config", str(cfg)]) == 2

    def test_bad_filter_section_type(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "exp.json", {"preprocess": {"filter": 7}}
        )
        assert main(["pretrain", "--config", str(cfg)]) == 2
        assert "preprocess.filter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window_s", [0, -2.0, "eight", None, float("inf"), True, "8"]
    )
    def test_window_that_is_not_a_positive_number_is_config_error(
        self, workdir, tmp_path, capsys, window_s
    ):
        exp = experiment_dict(workdir["corpus_dir"], tmp_path, window_s=window_s)
        cfg = write_json(tmp_path / "exp.json", exp)
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
        assert "window_s must be a positive number" in capsys.readouterr().err

    def test_window_shorter_than_one_sample_is_config_error(
        self, workdir, tmp_path, capsys
    ):
        exp = experiment_dict(workdir["corpus_dir"], tmp_path, window_s=0.001)
        cfg = write_json(tmp_path / "exp.json", exp)
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
        assert "shorter than one sample at 64 Hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": "one"}, "seed must be an integer"),
            ({"seed": None}, "seed must be an integer"),
            ({"postprocess": {"widths": ["x"]}}, "postprocess widths"),
            ({"postprocess": {"widths": [4]}}, "odd and >= 1"),
            ({"postprocess": {"widths": [0]}}, "odd and >= 1"),
            ({"postprocess": {"methods": ["median"]}}, "postprocess methods"),
            ({"freeze_policy": "freeze_all"}, "freeze_policy must be one of"),
            ({"init_policy": "load_all"}, "init_policy must be one of"),
            ({"seed": 1.9}, "seed must be an integer"),
            ({"postprocess": {"widths": [3.9, 5]}}, "postprocess widths"),
            ({"preprocess": {"normalization": "zscore"}}, "preprocess.normalization"),
            ({"preprocess": {"filter": {"order": 2.5}}}, "order must be an integer"),
            ({"preprocess": None}, "bad 'preprocess' section"),
            ({"postprocess": None}, "bad 'postprocess' section"),
            ({"postprocess": {"widths": 3}}, "postprocess.widths must be a list"),
            ({"postprocess": {"methods": "none"}}, "postprocess.methods must be a list"),
            ({"corpus_dir": 5}, "corpus_dir must be a path string"),
            ({"out_dir": None}, "out_dir must be a path string"),
            ({"optim": {"lr": True}}, "optim.lr must be a number"),
            ({"mask": {"mask_prob": True}}, "mask.mask_prob must be a number"),
            ({"optim": {"eps": "1e-8"}}, "optim.eps must be a number"),
            (
                {"model": {**MODEL, "special_token_value": "-5"}},
                "model.special_token_value must be a number",
            ),
            (
                {"preprocess": {"filter": {"low_hz": True}}},
                "preprocess.filter.low_hz must be a number",
            ),
            ({"preprocess": {"bogus": 1}}, "unknown preprocess keys: bogus"),
            ({"postprocess": {"w": [3]}}, "unknown postprocess keys: w"),
            ({"optim": {"lr": "0.1"}}, "optim.lr must be a number"),
            ({"model": {**MODEL, "heads": 0}}, "heads must be >= 1"),
            (
                {"model": {**MODEL, "group_norm_groups": 0}},
                "group_norm_groups must be >= 1",
            ),
            ({"model": {**MODEL, "pos_conv_groups": 0}}, "pos_conv_groups must be >= 1"),
            (
                {"model": {**MODEL, "classifier_dims": []}},
                "classifier_dims must name at least one layer",
            ),
        ],
    )
    def test_bad_value_is_config_error_at_load(
        self, workdir, tmp_path, capsys, overrides, message
    ):
        exp = experiment_dict(workdir["corpus_dir"], tmp_path, **overrides)
        cfg = write_json(tmp_path / "exp.json", exp)
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
        assert message in capsys.readouterr().err

    def test_integral_float_seed_loads_as_that_int(self, workdir, tmp_path):
        hashes = []
        for seed in (2, 2.0):
            cfg = write_json(
                tmp_path / "exp.json",
                experiment_dict(workdir["corpus_dir"], tmp_path, seed=seed),
            )
            exp = load_experiment(cfg)
            assert exp.seed == 2 and type(exp.seed) is int
            hashes.append(exp.hash)
        assert hashes[0] == hashes[1]

    def test_integral_float_width_loads_as_that_int(self, workdir, tmp_path):
        hashes = []
        for width in (3, 3.0):
            postprocess = {"widths": [width, 5]}
            cfg = write_json(
                tmp_path / "exp.json",
                experiment_dict(
                    workdir["corpus_dir"], tmp_path, postprocess=postprocess
                ),
            )
            exp = load_experiment(cfg)
            assert exp.postprocess.widths == (3, 5)
            assert all(type(w) is int for w in exp.postprocess.widths)
            hashes.append(exp.hash)
        assert hashes[0] == hashes[1]

    def test_integral_float_filter_order_loads_as_that_int(self, workdir, tmp_path):
        hashes = []
        for order in (4, 4.0):
            exp = experiment_dict(workdir["corpus_dir"], tmp_path)
            exp["preprocess"]["filter"]["order"] = order
            exp = load_experiment(write_json(tmp_path / "exp.json", exp))
            loaded = exp.preprocess.filter.order
            assert loaded == 4 and type(loaded) is int
            hashes.append(exp.hash)
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize(
        "path, value, accepted",
        [
            (("model", "heads"), 4.0, True),
            (("model", "transformer_layers"), 2.0, True),
            (("model", "conv_strides"), [3.0, 2, 2], True),
            (("train", "batch_size"), 8.0, True),
            (("mask", "span_len"), 10.0, True),
            (("seed",), True, False),
            (("model", "heads"), 4.5, False),
            (("model", "conv_strides"), [3, 2.5, 2], False),
            (("model", "classifier_dims"), [[16, 8], [8, True]], False),
            (("seed",), "1", False),
            (("model", "heads"), "4", False),
        ],
    )
    def test_integer_fields_take_integral_floats_and_refuse_the_rest(
        self, workdir, tmp_path, capsys, path, value, accepted
    ):
        plain = experiment_dict(workdir["corpus_dir"], tmp_path / "out")
        exp = json.loads(json.dumps(plain))
        *sections, key = path
        target = exp
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = value
        cfg = write_json(tmp_path / "exp.json", exp)
        if accepted:
            plain_cfg = write_json(tmp_path / "plain.json", plain)
            assert load_experiment(cfg).hash == load_experiment(plain_cfg).hash
            assert main(["pretrain", "--config", str(cfg)]) == 0
        else:
            assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
            assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            # 64 s records hold no 100 s window
            ({"window_s": 100.0}, "pretraining needs at least 2 windows"),
            ({"mask": {"mask_prob": 0.0}}, "pretraining requires mask_prob > 0"),
            # a window far past every record: no overflow, no huge allocation
            ({"window_s": 1e300}, "pretraining needs at least 2 windows"),
            ({"window_s": 1e308}, "pretraining needs at least 2 windows"),
        ],
    )
    def test_pretrain_dry_run_rejects_what_pretrain_rejects(
        self, workdir, tmp_path, capsys, overrides, message, dry_run
    ):
        out = tmp_path / "out"
        exp = experiment_dict(workdir["corpus_dir"], out, **overrides)
        cfg = write_json(tmp_path / "exp.json", exp)
        assert main(["pretrain", "--config", str(cfg), *dry_run]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_must_be_positive(self, workdir):
        assert (
            main(
                [
                    "loocv",
                    "--config",
                    str(workdir["exp_cfg"]),
                    "--jobs",
                    "0",
                ]
            )
            == 2
        )


class TestDryRunsPlanFromTheCorpus:
    """loocv and second-pretrain dry runs read the corpus but prepare no
    windows: their plans need only each record's subject and seizures."""

    @pytest.fixture(autouse=True)
    def no_prepare(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("a dry run prepared the windows")

        monkeypatch.setattr("seizenet.cli.prepare_recordings", explode)

    def test_second_pretrain_lists_targets(self, workdir, capsys):
        args = ["second-pretrain", "--config", str(workdir["exp_cfg"]), "--dry-run"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == "would second-pretrain for targets: s00, s01\n"

    def test_loocv_prints_fold_plans(self, workdir, capsys):
        folds = [
            ("s00_r00", "s00_r02", "s00_r01"),
            ("s00_r01", "s00_r02", "s00_r00"),
            ("s00_r02", "s00_r01", "s00_r00"),
            ("s01_r00", "s01_r01", "s01_r02"),
            ("s01_r01", "s01_r02", "s01_r00"),
            ("s01_r02", "s01_r01", "s01_r00"),
        ]
        plans = [
            {"subject": test[:3], "test": test, "train": [train], "val": [val]}
            for test, train, val in folds
        ]
        args = ["loocv", "--config", str(workdir["exp_cfg"]), "--dry-run"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(plans, sort_keys=True, indent=2) + "\n"


# the input files a user hands the stages
INPUT_FILES = ("experiment config", "corpus spec", "annotations.csv")


class TestEditedInputFiles:
    """Edited bytes of a user's input file, read by the dry run that reads
    it, end in a documented exit code and never in a traceback."""

    def _input(self, workdir, tmp_path, target):
        """(the file, its original bytes, the dry run that reads it)."""
        corpus = tmp_path / "corpus"
        if not corpus.exists():
            shutil.copytree(workdir["corpus_dir"], corpus)
        exp = experiment_dict(corpus, tmp_path / "out")
        cfg = write_json(tmp_path / "exp.json", exp)
        pretrain = ["pretrain", "--config", str(cfg), "--dry-run"]
        if target == "experiment config":
            return cfg, cfg.read_bytes(), pretrain
        if target == "annotations.csv":
            original = (workdir["corpus_dir"] / "annotations.csv").read_bytes()
            return corpus / "annotations.csv", original, pretrain
        spec = write_json(tmp_path / "corpus.json", CORPUS_SPEC)
        synth = ["synth", "--config", str(spec), "--out", str(tmp_path / "synth")]
        return spec, spec.read_bytes(), [*synth, "--dry-run"]

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        target=st.sampled_from(INPUT_FILES),
        position=st.integers(0, 2**16),
        byte=st.integers(0, 255),
        op=st.sampled_from(["replace", "insert", "delete"]),
    )
    @example(target="experiment config", position=0, byte=0xFF, op="replace")
    @example(target="corpus spec", position=0, byte=0xFF, op="replace")
    @example(target="annotations.csv", position=0, byte=0xFF, op="replace")
    def test_any_one_byte_edit_ends_in_a_documented_exit_code(
        self, workdir, tmp_path, target, position, byte, op
    ):
        path, data, argv = self._input(workdir, tmp_path, target)
        i = position % (len(data) + 1)
        new = b"" if op == "delete" else bytes([byte])
        path.write_bytes(data[:i] + new + data[i + (op != "insert") :])
        assert main(argv) in (0, 2, 3, 4)

    @pytest.mark.parametrize("target", INPUT_FILES)
    def test_non_utf8_file_is_config_error_naming_it(
        self, workdir, tmp_path, capsys, target
    ):
        path, data, argv = self._input(workdir, tmp_path, target)
        path.write_bytes(data.replace(b"s", b"\xff", 1))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {path} is not" in err
        assert "'utf-8' codec can't decode byte 0xff" in err


# any JSON value: numbers (NaN, infinities and integers past float range
# among them), booleans, strings, null and short lists of these
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**64), 10**400])
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)


def _field_paths(cls, prefix=()):
    """The key path of every field of the config section ``cls``, and of
    every section nested in it."""
    hints = get_type_hints(cls)
    for field in fields(cls):
        path = (*prefix, field.name)
        yield path
        hint = hints[field.name]
        nested = next((c for c in (hint, *get_args(hint)) if is_dataclass(c)), None)
        if nested is not None:
            yield from _field_paths(nested, path)


class TestConfigValues:
    """Any JSON value in any one field of the experiment config or the
    corpus spec loads or raises a SeizenetError, and the dry run that reads
    it ends in a documented exit code."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(path=st.sampled_from(list(_field_paths(Experiment))), value=JSON_VALUES)
    def test_experiment_field(self, workdir, tmp_path, path, value):
        exp = json.loads(
            json.dumps(experiment_dict(workdir["corpus_dir"], tmp_path / "out"))
        )
        *sections, key = path
        section = exp
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
        cfg = write_json(tmp_path / "exp.json", exp)
        try:
            load_experiment(cfg)
        except SeizenetError:
            pass
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) in (0, 2, 3, 4)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(key=st.sampled_from([f.name for f in fields(CorpusSpec)]), value=JSON_VALUES)
    def test_corpus_spec_field(self, tmp_path, key, value):
        spec = {**CORPUS_SPEC, key: value}
        try:
            _build_section(CorpusSpec, spec, "corpus spec")
        except SeizenetError:
            pass
        cfg = write_json(tmp_path / "corpus.json", spec)
        argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus")]
        assert main([*argv, "--dry-run"]) in (0, 2, 3, 4)


def _edit_one_byte(data: bytes, position: int, byte: int, op: str) -> bytes:
    """``data`` with one byte flipped (xor ``byte``, made nonzero), inserted
    or deleted at ``position`` (taken modulo the length)."""
    if op == "insert":
        i = position % (len(data) + 1)
        return data[:i] + bytes([byte]) + data[i:]
    i = position % len(data)
    if op == "delete":
        return data[:i] + data[i + 1 :]
    return data[:i] + bytes([data[i] ^ (byte or 0x80)]) + data[i + 1 :]


BYTE_EDITS = dict(
    # half the positions fall in the first 4 KiB: the EDF header and the
    # checkpoint's magic, length and manifest, where parsers branch most
    position=st.one_of(st.integers(0, 4096), st.integers(0, 2**20)),
    byte=st.integers(0, 255),
    op=st.sampled_from(["flip", "insert", "delete"]),
)


class TestEditedBinaryFiles:
    """One edited byte of a file a stage reads back, a checkpoint or an EDF
    record, ends the dry run that reads it in a documented exit code and
    never in a traceback."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(**BYTE_EDITS)
    @example(position=0, byte=0xFF, op="flip")
    @example(position=10**6, byte=0x01, op="flip")
    def test_pretrain_checkpoint_edit_ends_in_a_documented_exit_code(
        self, workdir, tmp_path, position, byte, op
    ):
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        blob = (workdir["out_dir"] / "pretrain.ckpt").read_bytes()
        (out / "pretrain.ckpt").write_bytes(_edit_one_byte(blob, position, byte, op))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["second-pretrain", "--config", str(cfg), "--dry-run"]) in (
            0, 2, 3, 4,
        )

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(record=st.integers(0, 5), **BYTE_EDITS)
    @example(record=0, position=0, byte=0xFF, op="flip")
    @example(record=0, position=10**6, byte=0, op="delete")
    def test_edf_record_edit_ends_in_a_documented_exit_code(
        self, workdir, tmp_path, record, position, byte, op
    ):
        corpus = tmp_path / "corpus"
        if not corpus.exists():
            shutil.copytree(workdir["corpus_dir"], corpus)
        path = sorted(corpus.glob("*/*.edf"))[record]
        original = (workdir["corpus_dir"] / path.relative_to(corpus)).read_bytes()
        path.write_bytes(_edit_one_byte(original, position, byte, op))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(corpus, tmp_path / "out")
        )
        try:
            assert main(["pretrain", "--config", str(cfg), "--dry-run"]) in (
                0, 2, 3, 4,
            )
        finally:
            path.write_bytes(original)

    def test_dry_run_refuses_a_corrupt_pretrain_checkpoint_if_one_exists(
        self, workdir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        blob = bytearray((workdir["out_dir"] / "pretrain.ckpt").read_bytes())
        blob[-1] ^= 0x01
        (out / "pretrain.ckpt").write_bytes(bytes(blob))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["second-pretrain", "--config", str(cfg), "--dry-run"]) == 2
        assert "sha256" in capsys.readouterr().err
        # before pretrain has run, the dry run still plans
        (out / "pretrain.ckpt").unlink()
        assert main(["second-pretrain", "--config", str(cfg), "--dry-run"]) == 0
        assert capsys.readouterr().out.startswith("would second-pretrain")

    def test_loocv_dry_run_refuses_a_corrupt_second_checkpoint_if_one_exists(
        self, workdir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        blob = bytearray((workdir["out_dir"] / "second_s00.ckpt").read_bytes())
        blob[-1] ^= 0x01
        (out / "second_s00.ckpt").write_bytes(bytes(blob))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main(["loocv", "--config", str(cfg), "--dry-run"]) == 2
        assert "sha256" in capsys.readouterr().err
        # before second-pretrain has run, the dry run still plans
        (out / "second_s00.ckpt").unlink()
        assert main(["loocv", "--config", str(cfg), "--dry-run"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 6

    @pytest.mark.parametrize(
        "stage, checkpoint",
        [("second-pretrain", "pretrain.ckpt"), ("loocv", "second_s01.ckpt")],
    )
    def test_run_refuses_a_corrupt_start_checkpoint_before_preparing(
        self, workdir, tmp_path, capsys, monkeypatch, stage, checkpoint
    ):
        def explode(*args, **kwargs):
            raise RuntimeError("a record was prepared before the checkpoint checks")

        monkeypatch.setattr("seizenet.cli.prepare_recordings", explode)
        out = tmp_path / "out"
        out.mkdir()
        for path in workdir["out_dir"].glob("*.ckpt"):
            shutil.copy(path, out / path.name)
        blob = bytearray((out / checkpoint).read_bytes())
        blob[-1] ^= 0x01
        (out / checkpoint).write_bytes(bytes(blob))
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(workdir["corpus_dir"], out)
        )
        assert main([stage, "--config", str(cfg)]) == 2
        assert "sha256" in capsys.readouterr().err


class TestCorruptCorpus:
    @pytest.fixture(autouse=True)
    def no_filtering(self, monkeypatch):
        # every corpus check runs before the first record is filtered
        def explode(*args, **kwargs):
            raise RuntimeError("a record was filtered before the checks ran")

        monkeypatch.setattr("seizenet.training.preprocess_recording_samples", explode)

    @pytest.mark.parametrize("exists", [True, False], ids=["empty", "missing"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
    @pytest.mark.parametrize("stage", ["pretrain", "second-pretrain", "loocv"])
    def test_corpus_without_records_is_config_error(
        self, tmp_path, capsys, stage, dry_run, exists
    ):
        corpus = tmp_path / "corpus"
        if exists:
            corpus.mkdir()
        exp = experiment_dict(corpus, tmp_path / "out")
        cfg = write_json(tmp_path / "exp.json", exp)
        assert main([stage, "--config", str(cfg), *dry_run]) == 2
        err = capsys.readouterr().err
        assert f"config error: corpus directory {corpus} holds no records" in err

    def test_annotation_past_record_end_is_config_error(
        self, workdir, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(workdir["corpus_dir"], corpus)
        with open(corpus / "annotations.csv", "a") as fh:
            fh.write("s00_r00,100,110\n")
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(corpus, tmp_path / "out")
        )
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "'s00_r00'" in err and "[100.0, 110.0)" in err

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ("[]", "needs a 'records' list"),
            ('{"record": []}', "needs a 'records' list"),
            ('{"records": [{"subject_id": "s00", "record_id": "r"}]}', "string"),
            (
                '{"records": [{"subject_id": 0, "record_id": "r", "path": "p"}]}',
                "string subject_id, record_id and path",
            ),
            ('{"records": ', "is not valid JSON"),
        ],
        ids=["list", "no-records", "no-path", "int-subject", "truncated"],
    )
    def test_malformed_manifest_is_config_error(
        self, workdir, tmp_path, capsys, manifest, message
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(workdir["corpus_dir"], corpus)
        (corpus / "manifest.json").write_text(manifest)
        cfg = write_json(
            tmp_path / "exp.json", experiment_dict(corpus, tmp_path / "out")
        )
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {corpus / 'manifest.json'}" in err
        assert message in err

    def _replace_record(self, corpus, channels, rate):
        # 64 s long at any rate, so the record's annotation still fits
        write_edf_file(
            corpus / "s00" / "s00_r01.edf",
            Recording(
                subject_id="s00",
                record_id="s00_r01",
                sample_rate_hz=rate,
                channels=[f"C{i}" for i in range(channels)],
                samples=np.zeros((channels, rate * 64)),
            ),
        )

    def _dry_run(self, workdir, tmp_path, capsys, channels, rate, **overrides):
        """Dry-run pretrain with s00_r01 swapped for an odd record."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workdir["corpus_dir"], corpus)
        self._replace_record(corpus, channels, rate)
        exp = experiment_dict(corpus, tmp_path / "out", **overrides)
        cfg = write_json(tmp_path / "exp.json", exp)
        assert main(["pretrain", "--config", str(cfg), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'s00_r01'" in err
        return err

    def test_mixed_channel_counts_is_config_error(
        self, workdir, tmp_path, capsys
    ):
        err = self._dry_run(workdir, tmp_path, capsys, channels=3, rate=64)
        assert "3 channels" in err

    def test_mixed_sample_rates_is_config_error(self, workdir, tmp_path, capsys):
        unfiltered = {"filter": None}
        err = self._dry_run(
            workdir, tmp_path, capsys, channels=2, rate=128, preprocess=unfiltered
        )
        assert "sampled at 128 Hz" in err

    def test_filter_rate_mismatch_is_config_error(
        self, workdir, tmp_path, capsys
    ):
        err = self._dry_run(workdir, tmp_path, capsys, channels=2, rate=128)
        assert "designed for 64 Hz" in err


def _error_classes(base=SeizenetError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_every_error_maps_to_a_documented_exit_code(
    cls, workdir, monkeypatch, capsys
):
    def explode(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr("seizenet.cli.run_pretraining", explode)
    assert main(["pretrain", "--config", str(workdir["exp_cfg"])]) in (2, 3, 4)
    assert "boom" in capsys.readouterr().err


class TestNumericFailureMapping:
    def test_train_error_maps_to_exit_4(self, workdir, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise TrainError("non-finite loss at epoch 0")

        monkeypatch.setattr("seizenet.cli.run_pretraining", explode)
        assert main(["pretrain", "--config", str(workdir["exp_cfg"])]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_numerics_error_maps_to_exit_4(self, workdir, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericsError("overflow")

        monkeypatch.setattr("seizenet.cli.run_pretraining", explode)
        assert main(["pretrain", "--config", str(workdir["exp_cfg"])]) == 4


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "seizenet", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("synth", "pretrain", "second-pretrain", "loocv", "eval"):
        assert name in proc.stdout


def test_out_of_memory_exits_2_without_a_traceback(tmp_path):
    # one 10,000,000 s record of 2 channels at 64 Hz needs 9.5 GiB of
    # samples, which a 2 GiB address-space limit (set in the child only)
    # cannot hold
    resource = pytest.importorskip("resource")
    spec = {
        "subjects": 1,
        "records_per_subject": 1,
        "record_s": 10_000_000,
        "seizures_per_record": 0,
        "sample_rate_hz": 64,
        "channels": 2,
    }
    config = write_json(tmp_path / "spec.json", spec)
    argv = ["synth", "--config", str(config), "--out", str(tmp_path / "corpus")]
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "seizenet", *argv],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_leaves_scipy_signal_unloaded():
    # scipy is a test-only reference: the band-pass is numpy-only, so no
    # stage imports scipy, and importing the CLI must not either
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, seizenet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stages_run_with_scipy_unimportable(tmp_path):
    # scipy is a test-only reference: synth, a dry run that filters, and a
    # one-epoch pretrain all finish when every scipy import raises
    corpus_cfg = write_json(tmp_path / "corpus.json", CORPUS_SPEC)
    corpus_dir = tmp_path / "corpus"
    exp_cfg = write_json(
        tmp_path / "exp.json", experiment_dict(corpus_dir, tmp_path / "out")
    )
    stages = [
        ["synth", "--config", str(corpus_cfg), "--out", str(corpus_dir)],
        ["pretrain", "--config", str(exp_cfg), "--dry-run"],
        ["pretrain", "--config", str(exp_cfg)],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from seizenet.cli import main\n"
        "print([main(argv) for argv in json.loads(sys.argv[1])])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(stages)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]"
    assert (tmp_path / "out" / "pretrain.ckpt").is_file()
