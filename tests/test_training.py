"""Training protocol checks on a miniature synthetic corpus.

Everything here runs a deliberately tiny model (16-dim, 2 transformer
layers, 64 Hz data) so whole protocol stages finish in seconds while still
exercising the real code paths.
"""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from seizenet.eegio import Recording, SeizureInterval
from seizenet.errors import ConfigError, ProtocolError, TrainError
from seizenet.model import (
    MaskSpec,
    ModelConfig,
    forward_classifier,
    forward_pretrain,
    init_weights,
)
from seizenet.nn import no_grad
from seizenet.objectives import ContrastiveSpec, SswceSpec, contrastive_loss
from seizenet.optim import OptimSpec, ScheduleSpec, _smote_samples
from seizenet.preprocess import FilterSpec, normalize, preprocess_recording_samples
from seizenet.rand import Rng
from seizenet.synthgen import CorpusSpec, generate_recording
from seizenet.training import (
    FoldPlan,
    SamplerSpec,
    TrainSpec,
    checkpoint_source,
    contrastive_alignment,
    plan_loocv,
    prepare_recordings,
    run_fold,
    run_pretraining,
    run_second_pretraining,
)

CORPUS = CorpusSpec(
    subjects=3,
    records_per_subject=3,
    record_s=64,
    seizures_per_record=1,
    seizure_len_s=(8.0, 10.0),
    sample_rate_hz=64,
    channels=2,
    seed=3,
)


def tiny_config() -> ModelConfig:
    return ModelConfig(
        in_channels=2,
        conv_blocks=3,
        conv_channels=16,
        conv_strides=(3, 2, 2),
        model_dim=16,
        transformer_layers=2,
        heads=4,
        ffn_dim=32,
        classifier_dims=((16, 8), (8, 4), (4, 2)),
        group_norm_groups=4,
        pos_conv_kernel=5,
        pos_conv_groups=4,
    )


def make_dataset(window_s=2.0):
    recordings = [
        generate_recording(CORPUS, s, r)
        for s in range(CORPUS.subjects)
        for r in range(CORPUS.records_per_subject)
    ]
    return prepare_recordings(recordings, window_s=window_s)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


def fast_specs(**overrides):
    base = dict(
        sswce_spec=SswceSpec(),
        sampler_spec=SamplerSpec(kind="weighted"),
        optim_spec=OptimSpec(lr=1e-3),
        schedule_spec=ScheduleSpec(),
        train_spec=TrainSpec(batch_size=8, max_epochs=1),
    )
    base.update(overrides)
    return base


class TestPlanLoocv:
    def test_five_records(self):
        records = [f"r{i}" for i in range(5)]
        plans = plan_loocv("s00", records, Rng(1).child("plan"))
        assert len(plans) == 5
        assert sorted(p.test_record for p in plans) == sorted(records)
        for plan in plans:
            assert len(plan.val_records) == 1
            assert len(plan.train_records) == 3
            parts = {plan.test_record, *plan.val_records, *plan.train_records}
            assert parts == set(records)
            assert not set(plan.val_records) & set(plan.train_records)

    def test_val_size_is_ceil(self):
        records = [f"r{i}" for i in range(11)]
        plans = plan_loocv("s", records, Rng(0).child("plan"))
        assert all(len(p.val_records) == math.ceil(0.2 * 10) for p in plans)

    def test_two_records_rejected(self):
        with pytest.raises(ProtocolError):
            plan_loocv("s", ["a", "b"], Rng(0).child("plan"))

    def test_single_record_rejected(self):
        with pytest.raises(ProtocolError):
            plan_loocv("s", ["a"], Rng(0).child("plan"))

    def test_deterministic(self):
        records = [f"r{i}" for i in range(6)]
        a = plan_loocv("s", records, Rng(5).child("plan"))
        b = plan_loocv("s", records, Rng(5).child("plan"))
        assert a == b


class TestPrepareRecordings:
    def test_window_counts_and_normalization(self, dataset):
        # 9 records x 64 s / 2 s windows
        assert len(dataset) == 9 * 32
        assert dataset.samples_per_window == 128
        w = dataset.windows[0]
        assert abs(w.data.mean()) < 1e-8
        assert np.allclose(w.data.std(axis=-1), 1.0, atol=1e-6)

    def test_both_classes_present_per_record(self, dataset):
        for record_id in dataset.record_ids():
            labels = dataset.subset(lambda w: w.record_id == record_id).labels()
            assert labels.sum() >= 1
            assert (labels == 0).sum() >= 1

    def test_band_pass_option_filters_before_windowing(self, dataset):
        recordings = [generate_recording(CORPUS, 0, 0)]
        spec = FilterSpec(order=4, low_hz=0.5, high_hz=10.0, sample_rate_hz=64)
        plain = prepare_recordings(recordings, window_s=2.0, normalization=None)
        banded = prepare_recordings(
            recordings, window_s=2.0, filter_spec=spec, normalization=None
        )
        assert len(banded) == len(plain)
        assert banded.windows[0].data.shape == plain.windows[0].data.shape
        # a 10 Hz cutoff at fs 64 strips most power an octave above it
        for before, after in zip(plain.windows, banded.windows):
            pow_b = np.abs(np.fft.rfft(before.data, axis=-1)) ** 2
            pow_a = np.abs(np.fft.rfft(after.data, axis=-1)) ** 2
            freqs = np.fft.rfftfreq(before.data.shape[-1], d=1 / 64)
            high = freqs >= 20.0
            assert pow_a[:, high].sum() < 0.3 * pow_b[:, high].sum()

    def test_holds_one_record_in_float64_at_a_time(self):
        # the records exist before tracing starts, as once load_corpus returns
        rng = np.random.default_rng(0)
        recordings = [
            Recording(
                subject_id=f"s{i // 2}",
                record_id=f"r{i}",
                sample_rate_hz=64,
                channels=["A", "B", "C", "D"],
                samples=rng.normal(size=(4, 64 * 128)),
            )
            for i in range(8)
        ]
        spec = FilterSpec(order=4, low_hz=0.5, high_hz=20.0, sample_rate_hz=64)
        tracemalloc.start()
        try:
            ds = prepare_recordings(recordings, window_s=2.0, filter_spec=spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a filtered copy and a float64 cut of the whole corpus peak at 16
        # records' worth, X plus 12; one record at a time adds about 3.5 to X
        assert peak < ds.X.nbytes + 6 * recordings[0].samples.nbytes


class TestColumnarStore:
    """The column store against the per-window copies it replaced."""

    @pytest.mark.parametrize("method", ["meanstd", "minmax", None])
    def test_matches_per_window_reference(self, method):
        spec = FilterSpec(order=4, low_hz=0.5, high_hz=20.0, sample_rate_hz=64)
        self._check_against_reference(method, spec)

    @pytest.mark.parametrize("method", ["meanstd", "minmax", None])
    def test_matches_per_window_reference_unfiltered(self, method):
        self._check_against_reference(method, None)

    @staticmethod
    def _check_against_reference(method, spec):
        recordings = [
            generate_recording(CORPUS, s, r)
            for s in range(CORPUS.subjects)
            for r in range(CORPUS.records_per_subject)
        ]
        rng = np.random.default_rng(0)

        def record(subject_id, record_id, n_samples, seizures):
            return Recording(
                subject_id=subject_id,
                record_id=record_id,
                sample_rate_hz=64,
                channels=["A", "B"],
                samples=rng.normal(size=(2, n_samples)),
                seizures=[SeizureInterval(a, b) for a, b in seizures],
            )

        # seizures covering only the last sample before a window edge, only
        # the first sample after one, and ending exactly on one
        edges = [(127 / 64, 2.0), (4.0, 4.0 + 1 / 64), (9.0, 10.0)]
        recordings += [
            record("s03", "s03_r00", 64 * 16, edges),
            # no whole window, between two records that have some
            record("s04", "s04_short", 100, [(0.5, 1.0)]),
            # two windows and a partial one that holds the only seizure
            record("s04", "s04_r01", 2 * 128 + 101, [(4.5, 5.5)]),
        ]
        ds = prepare_recordings(
            recordings, window_s=2.0, filter_spec=spec, normalization=method
        )

        T = 128
        cuts, windows, labels, records, indices = [], [], [], [], []
        for rec in recordings:
            samples = rec.samples
            if spec is not None:
                samples = preprocess_recording_samples(samples, spec)
            spans = [
                (int(np.floor(iv.start_s * 64)), int(np.ceil(iv.end_s * 64)))
                for iv in rec.seizures
            ]
            for k in range(samples.shape[1] // T):
                a, b = k * T, (k + 1) * T
                window = samples[:, a:b].copy()
                cuts.append(window)
                if method == "minmax":
                    lo = window.min(axis=-1, keepdims=True)
                    hi = window.max(axis=-1, keepdims=True)
                    window = (window - lo) / (hi - lo + 1e-8)
                elif method == "meanstd":
                    mu = window.mean(axis=-1, keepdims=True)
                    sd = window.std(axis=-1, keepdims=True)
                    window = (window - mu) / (sd + 1e-8)
                windows.append(window)
                labels.append(int(any(max(a, s) < min(b, e) for s, e in spans)))
                records.append(rec.record_id)
                indices.append(k)

        # float64 up to the store, which rounds each window once
        reference = np.stack(windows)
        if method is not None:
            assert normalize(np.stack(cuts), method).tobytes() == reference.tobytes()
        X = ds.matrix()
        assert X.dtype == np.float32
        assert X.flags.c_contiguous and not X.flags.writeable
        assert X.tobytes() == reference.astype(np.float32).tobytes()
        assert np.array_equal(ds.labels(), labels)
        assert ds.labels().dtype == np.int64 and 0 < sum(labels) < len(labels)
        assert [w.record_id for w in ds] == records
        assert ds.index.dtype == np.int64 and ds.index.tolist() == indices
        # the string columns are as wide as the longest id, windows or not
        assert ds.record.dtype == np.array([r.record_id for r in recordings]).dtype
        assert ds.subject_ids() == ["s00", "s01", "s02", "s03", "s04"]
        assert ds.subset(lambda w: w.subject_id == "s03").labels().tolist() == [
            1, 0, 1, 0, 1, 0, 0, 0
        ]
        tail = ds.subset(lambda w: w.subject_id == "s04")
        assert tail.record_ids() == ["s04_r01"] and tail.labels().tolist() == [0, 0]

    def test_matrix_is_the_store_and_subset_keeps_order(self, dataset):
        X = dataset.matrix()
        assert X is dataset.matrix()
        assert X.flags.c_contiguous and not X.flags.writeable
        assert all(np.shares_memory(w.data, X) for w in dataset.windows[:3])

        wanted = {"s02_r01", "s00_r02"}
        sub = dataset.subset(lambda w: w.record_id in wanted)
        rows = [i for i, w in enumerate(dataset) if w.record_id in wanted]
        assert np.array_equal(sub.matrix(), X[rows])
        assert np.array_equal(sub.labels(), dataset.labels()[rows])
        assert sub.record_ids() == ["s00_r02", "s02_r01"]
        assert [w.index for w in sub] == [dataset.windows[i].index for i in rows]


class TestPretraining:
    def test_mask_prob_zero_rejected(self, dataset):
        with pytest.raises(ConfigError):
            run_pretraining(
                dataset.matrix()[:16],
                tiny_config(),
                Rng(0).child("pre"),
                mask_spec=MaskSpec(mask_prob=0.0),
            )

    def test_runs_and_is_deterministic(self, dataset):
        X = dataset.matrix()[:40]

        def go():
            return run_pretraining(
                X,
                tiny_config(),
                Rng(11).child("pre"),
                mask_spec=MaskSpec(mask_prob=0.25, span_len=3),
                contrastive_spec=ContrastiveSpec(num_distractors=5),
                optim_spec=OptimSpec(lr=1e-3),
                train_spec=TrainSpec(batch_size=8, max_epochs=2),
            )

        a, b = go(), go()
        assert a.train_losses == b.train_losses
        assert a.val_losses == b.val_losses
        assert len(a.val_losses) == 2
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_loss_decreases_on_tiny_corpus(self, dataset):
        X = dataset.matrix()[:48]
        result = run_pretraining(
            X,
            tiny_config(),
            Rng(2).child("pre"),
            mask_spec=MaskSpec(mask_prob=0.25, span_len=3),
            contrastive_spec=ContrastiveSpec(num_distractors=5),
            optim_spec=OptimSpec(lr=1e-3),
            train_spec=TrainSpec(batch_size=8, max_epochs=6),
        )
        assert result.train_losses[-1] < result.train_losses[0]
        assert result.best_epoch == int(np.argmin(result.val_losses))
        assert result.info["val_window_count"] == 5

    def test_nan_input_raises_train_error_with_epoch(self, dataset):
        X = dataset.matrix()[:16].copy()
        X[0, 0, 0] = np.nan
        with pytest.raises(TrainError) as err:
            run_pretraining(
                X,
                tiny_config(),
                Rng(0).child("pre"),
                mask_spec=MaskSpec(mask_prob=0.25, span_len=3),
                train_spec=TrainSpec(batch_size=16, max_epochs=1),
            )
        assert err.value.epoch == 0

    def test_alignment_helper_matches_info_keys(self, dataset):
        config = tiny_config()
        params = run_pretraining(
            dataset.matrix()[:16],
            config,
            Rng(4).child("pre"),
            mask_spec=MaskSpec(mask_prob=0.25, span_len=3),
            train_spec=TrainSpec(batch_size=8, max_epochs=1),
        ).params
        out = contrastive_alignment(
            config,
            params,
            dataset.matrix()[:16],
            MaskSpec(mask_prob=0.25, span_len=3),
            ContrastiveSpec(num_distractors=5),
            Rng(9).child("gap"),
        )
        assert set(out) == {"loss", "alignment_gap", "target_sim", "distractor_sim"}
        assert math.isfinite(out["alignment_gap"])

    def test_alignment_is_the_window_weighted_mean_of_batch_losses(self, dataset):
        # 20 windows at batch size 8 make batches of 8, 8 and 4
        config = tiny_config()
        params = init_weights(config, "random", Rng(4).child("init"))
        windows = dataset.matrix()[:20]
        mask_spec = MaskSpec(mask_prob=0.25, span_len=3)
        spec = ContrastiveSpec(num_distractors=5)
        rng = Rng(9).child("gap")
        out = contrastive_alignment(
            config, params, windows, mask_spec, spec, rng, batch_size=8
        )
        weighted = {key: [] for key in out}
        for i, start in enumerate(range(0, 20, 8)):
            batch = windows[start : start + 8]
            srng = rng.child("batch", i)
            with no_grad():
                ctx, targets, masked = forward_pretrain(
                    config, params, batch, mask_spec, srng, training=False
                )
                loss, info = contrastive_loss(
                    ctx, targets, masked, spec, srng.child("distractors")
                )
            values = {**info, "loss": float(loss.data)}
            for key, products in weighted.items():
                products.append(values[key] * len(batch))
        for key, products in weighted.items():
            assert out[key] == sum(products) / 20, key


class TestSecondPretraining:
    def test_excludes_target_subject(self, dataset):
        result = run_second_pretraining(
            dataset,
            "s00",
            tiny_config(),
            Rng(1).child("second"),
            **fast_specs(train_spec=TrainSpec(batch_size=8, max_epochs=0)),
        )
        assert result.info["target_subject"] == "s00"
        assert result.info["train_subjects"] == ["s01", "s02"]

    def test_copies_no_split(self, dataset):
        # rows are picked by index; the pool is never gathered out of X
        pool_bytes = dataset.X[dataset.subject != "s00"].nbytes
        tracemalloc.start()
        try:
            run_second_pretraining(
                dataset,
                "s00",
                tiny_config(),
                Rng(1).child("second"),
                **fast_specs(train_spec=TrainSpec(batch_size=8, max_epochs=0)),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool_bytes

    def test_unknown_target_rejected(self, dataset):
        with pytest.raises(ProtocolError):
            run_second_pretraining(
                dataset, "s99", tiny_config(), Rng(1).child("second")
            )

    def test_single_subject_rejected(self, dataset):
        solo = dataset.subset(lambda w: w.subject_id == "s00")
        with pytest.raises(ProtocolError):
            run_second_pretraining(solo, "s00", tiny_config(), Rng(1).child("x"))

    def test_deterministic_and_trains(self, dataset):
        small = dataset.subset(lambda w: w.record_id.endswith("_r00"))

        def go():
            return run_second_pretraining(
                small,
                "s00",
                tiny_config(),
                Rng(6).child("second"),
                **fast_specs(),
            )

        a, b = go(), go()
        assert a.val_losses == b.val_losses
        assert a.epochs_run == 1
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_accepts_pretrained_init(self, dataset):
        config = tiny_config()
        pre = run_pretraining(
            dataset.matrix()[:16],
            config,
            Rng(3).child("pre"),
            mask_spec=MaskSpec(mask_prob=0.25, span_len=3),
            train_spec=TrainSpec(batch_size=8, max_epochs=1),
        )
        small = dataset.subset(lambda w: w.record_id.endswith("_r00"))
        result = run_second_pretraining(
            small,
            "s00",
            config,
            Rng(3).child("second"),
            init=checkpoint_source(pre),
            **fast_specs(train_spec=TrainSpec(batch_size=8, max_epochs=0)),
        )
        # with zero epochs the encoder weights are exactly the checkpoint
        assert np.array_equal(
            result.params["conv.0.weight"].data, pre.params["conv.0.weight"].data
        )


class TestRunFold:
    def subject_dataset(self, dataset, subject="s00"):
        return dataset.subset(lambda w: w.subject_id == subject)

    def make_plan(self, dataset, subject="s00"):
        subject_ds = self.subject_dataset(dataset, subject)
        plans = plan_loocv(
            subject, subject_ds.record_ids(), Rng(7).child("plan")
        )
        return plans[0], subject_ds

    def test_zero_epoch_uses_init_predictions(self, dataset):
        plan, subject_ds = self.make_plan(dataset)

        def go():
            return run_fold(
                plan,
                subject_ds,
                tiny_config(),
                Rng(8).child("fold"),
                **fast_specs(train_spec=TrainSpec(batch_size=8, max_epochs=0)),
            )

        a, b = go(), go()
        n_test = len(subject_ds.subset(lambda w: w.record_id == plan.test_record))
        assert a.probs.shape == (n_test,)
        assert a.train.epochs_run == 0
        assert a.train.best_epoch == -1
        assert np.array_equal(a.probs, b.probs)
        assert np.all((a.probs >= 0) & (a.probs <= 1))

    def test_reproducible_after_training(self, dataset):
        plan, subject_ds = self.make_plan(dataset)

        def go():
            return run_fold(
                plan,
                subject_ds,
                tiny_config(),
                Rng(9).child("fold"),
                **fast_specs(),
            )

        a, b = go(), go()
        assert np.array_equal(a.probs, b.probs)
        assert a.train.val_losses == b.train.val_losses

    def test_freeze_conv_keeps_encoder_fixed(self, dataset):
        plan, subject_ds = self.make_plan(dataset)
        config = tiny_config()
        init_params = run_fold(
            plan,
            subject_ds,
            config,
            Rng(10).child("fold"),
            **fast_specs(train_spec=TrainSpec(batch_size=8, max_epochs=0)),
        ).train.params
        init = (
            {n: t.data.copy() for n, t in init_params.items()},
            asdict(config),
        )
        trained = run_fold(
            plan,
            subject_ds,
            config,
            Rng(10).child("fold"),
            init=init,
            freeze_policy="freeze_conv",
            **fast_specs(),
        ).train.params
        assert np.array_equal(
            trained["conv.0.weight"].data, init[0]["conv.0.weight"]
        )
        assert not np.array_equal(
            trained["encoder.0.attn.wq"].data, init[0]["encoder.0.attn.wq"]
        )

    def test_unknown_record_gives_protocol_error(self, dataset):
        subject_ds = self.subject_dataset(dataset)
        plan = FoldPlan(
            subject_id="s00",
            test_record="missing",
            train_records=("s00_r00", "s00_r01"),
            val_records=("s00_r02",),
        )
        with pytest.raises(ProtocolError):
            run_fold(plan, subject_ds, tiny_config(), Rng(0).child("fold"))

    def test_unknown_freeze_policy_gives_config_error(self, dataset):
        plan, subject_ds = self.make_plan(dataset)
        with pytest.raises(ConfigError, match="unknown freeze policy"):
            run_fold(
                plan,
                subject_ds,
                tiny_config(),
                Rng(0).child("fold"),
                freeze_policy="freeze_all",
                **fast_specs(),
            )

    def test_sampler_variants_run(self, dataset):
        plan, subject_ds = self.make_plan(dataset)
        for spec in (
            SamplerSpec(kind="none"),
            SamplerSpec(kind="smote", smote_k=1),
        ):
            result = run_fold(
                plan,
                subject_ds,
                tiny_config(),
                Rng(12).child("fold"),
                **fast_specs(sampler_spec=spec),
            )
            assert math.isfinite(result.train.val_losses[0])

    def test_smote_batches_keep_the_store_dtype(self, dataset, monkeypatch):
        seen = []

        def recording(config, params, windows, rng=None, training=False):
            if training:
                seen.append((windows.dtype, len(windows)))
            return forward_classifier(
                config, params, windows, rng=rng, training=training
            )

        monkeypatch.setattr("seizenet.training.forward_classifier", recording)
        plan, subject_ds = self.make_plan(dataset)
        run_fold(
            plan,
            subject_ds,
            tiny_config(),
            Rng(12).child("fold"),
            **fast_specs(sampler_spec=SamplerSpec(kind="smote", smote_k=1)),
        )
        n_train = np.isin(subject_ds.record, plan.train_records).sum()
        # one epoch covers the real rows and the synthetic ones
        assert sum(n for _, n in seen) > n_train
        assert {dtype for dtype, _ in seen} == {np.dtype(np.float32)}


class TestSmoteSamples:
    def test_float32_store_picks_the_float64_neighbours(self, dataset):
        X = dataset.matrix()
        rows = np.arange(0, len(X), 2)
        y = dataset.y[rows]
        synth, synth_y = _smote_samples(X, rows, y, 3, Rng(5).child("s"))
        ref, ref_y = _smote_samples(
            X.astype(np.float64), rows, y, 3, Rng(5).child("s")
        )
        assert len(synth) > 0 and synth.dtype == np.float32
        assert ref.dtype == np.float64
        # the same neighbours and weights, rounded once at the end
        assert synth.tobytes() == ref.astype(np.float32).tobytes()
        assert np.array_equal(synth_y, ref_y)

    def test_balanced_rows_give_an_empty_batch_in_the_store_dtype(self, dataset):
        X = dataset.matrix()
        rows = np.concatenate(
            [np.flatnonzero(dataset.y == 1)[:4], np.flatnonzero(dataset.y == 0)[:4]]
        )
        synth, synth_y = _smote_samples(X, rows, dataset.y[rows], 1, Rng(6))
        assert synth.shape == (0,) + X.shape[1:] and synth.dtype == np.float32
        assert synth_y.size == 0
