"""End-to-end command-line checks.

A session-scoped fixture synthesizes a miniature corpus and drives the
whole chain (pretrain, second-pretrain, loocv, eval) once through
``main``; individual tests then assert on exit codes, written files, and
determinism.  Everything stays tiny (64 Hz, 2 channels, 1 epoch) so the
full chain takes a couple of seconds.
"""

import filecmp
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from seizenet.cli import load_experiment, main
from seizenet.eegio import Recording, WindowedDataset, load_corpus, write_edf_file
from seizenet.errors import NumericsError, SeizenetError, TrainError

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


def experiment_dict(corpus_dir, out_dir, **overrides):
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

    @pytest.mark.parametrize("window_s", [0, -2.0, "eight", None])
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
            assert exp.postprocess_widths == [3, 5]
            assert all(type(w) is int for w in exp.postprocess_widths)
            hashes.append(exp.hash)
        assert hashes[0] == hashes[1]

    def test_integral_float_filter_order_loads_as_that_int(self, workdir, tmp_path):
        hashes = []
        for order in (4, 4.0):
            exp = experiment_dict(workdir["corpus_dir"], tmp_path)
            exp["preprocess"]["filter"]["order"] = order
            exp = load_experiment(write_json(tmp_path / "exp.json", exp))
            assert exp.filter_spec.order == 4 and type(exp.filter_spec.order) is int
            hashes.append(exp.hash)
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            # 64 s records hold no 100 s window
            ({"window_s": 100.0}, "pretraining needs at least 2 windows"),
            ({"mask": {"mask_prob": 0.0}}, "pretraining requires mask_prob > 0"),
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


def test_import_leaves_scipy_signal_unloaded():
    # scipy is the slowest import; only the filtering stages load it
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
