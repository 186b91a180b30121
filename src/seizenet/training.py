"""Three-stage training protocol.

Stage one pretrains the encoder and transformer with the masked contrastive
objective on unlabeled windows.  Stage two trains the classifier head on
every subject except the evaluation target.  Stage three fine-tunes per
subject under leave-one-out cross-validation over that subject's records,
restoring the best-validation parameters before test inference.

All stages draw their randomness from named substreams of one Rng, so a
fixed seed reproduces losses, parameters, and test probabilities exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from .eegio import WindowedDataset, window_layout
from .errors import ConfigError, ProtocolError, TrainError
from .evalpost import truth_events_from_intervals
from .model import (
    COMPUTE_DTYPE,
    MaskSpec,
    ModelConfig,
    forward_classifier,
    forward_pretrain,
    init_weights,
    set_trainable,
)
from .nn import Tensor, no_grad
from .objectives import (
    ContrastiveSpec,
    SswceSpec,
    contrastive_loss,
    sswce_loss,
)
from .optim import (
    AdamState,
    OptimSpec,
    PlateauEarlyStopper,
    ScheduleSpec,
    _smote_samples,
    adam_step,
    weighted_sampler,
    zero_grads,
)
from .preprocess import FilterSpec, normalize, preprocess_recording_samples
from .rand import Rng

SAMPLER_KINDS = ("none", "weighted", "smote")


@dataclass(frozen=True)
class SamplerSpec:
    """Oversampling choice for supervised training splits."""

    kind: str = "weighted"
    smote_k: int = 5

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"sampler kind must be one of {SAMPLER_KINDS}")
        if self.smote_k < 1:
            raise ConfigError("smote_k must be >= 1")


@dataclass(frozen=True)
class TrainSpec:
    batch_size: int = 32
    max_epochs: int = 100
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")
        if not 0.0 < self.validation_fraction <= 0.5:
            raise ConfigError("validation_fraction must lie in (0, 0.5]")


@dataclass(frozen=True)
class FoldPlan:
    subject_id: str
    test_record: str
    train_records: tuple[str, ...]
    val_records: tuple[str, ...]


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    config: ModelConfig
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    final_lr: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def epochs_run(self) -> int:
        return len(self.val_losses)


@dataclass
class FoldResult:
    plan: FoldPlan
    probs: np.ndarray
    test_labels: np.ndarray
    train: TrainResult


def checkpoint_source(result: TrainResult) -> tuple[dict[str, np.ndarray], dict]:
    """Adapt a stage's result into the (params, config) init source format."""
    return _snapshot(result.params), asdict(result.config)


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------


def prepare_recordings(
    recordings,
    window_s: float = 8.0,
    filter_spec: FilterSpec | None = None,
    normalization: str | None = "meanstd",
) -> WindowedDataset:
    """Filter, cut, normalize and label one record at a time.

    Each record is filtered in float64 and its whole windows, a trailing
    partial one dropped, are normalized as one (n, C, T) view and rounded
    once into their rows of ``X`` (``COMPUTE_DTYPE``), the form in which
    every stage hands windows to the model.  A window is labeled 1 iff it
    lies in an event of ``truth_events_from_intervals``, the rule scoring
    counts against.  Every check runs before the first filter: ConfigError
    for a filter designed for another sample rate than a record's, then
    those of ``window_layout``.
    """
    if filter_spec is not None:
        for rec in recordings:
            if rec.sample_rate_hz != filter_spec.sample_rate_hz:
                raise ConfigError(
                    f"record {rec.record_id!r} is sampled at "
                    f"{rec.sample_rate_hz} Hz but the band-pass filter is "
                    f"designed for {filter_spec.sample_rate_hz} Hz"
                )
    T, counts = window_layout(recordings, window_s)
    C, fs = recordings[0].n_channels, recordings[0].sample_rate_hz
    X = np.empty((sum(counts), C, T), dtype=COMPUTE_DTYPE)
    y = np.zeros(len(X), dtype=np.int64)
    for rec, n, start in zip(recordings, counts, np.cumsum([0, *counts])):
        samples = rec.samples
        if filter_spec is not None:
            samples = preprocess_recording_samples(samples, filter_spec)
        # (C, n*T) -> (n, C, T) is a view, not a copy
        cuts = samples[:, : n * T].reshape(C, n, T).transpose(1, 0, 2)
        if normalization is not None:
            cuts = normalize(cuts, normalization)
        X[start : start + n] = cuts
        for a, b in truth_events_from_intervals(rec.seizures, n, window_s, fs):
            y[start + a : start + b] = 1
        del samples, cuts  # free this record's float64 copies before the next
    subject = np.repeat([rec.subject_id for rec in recordings], counts)
    record = np.repeat([rec.record_id for rec in recordings], counts)
    index = np.concatenate([np.arange(n) for n in counts])
    return WindowedDataset(X, y, subject, record, index, window_s, fs)


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.items()}


def _check_finite(value: float, stage: str, epoch: int) -> None:
    if not math.isfinite(value):
        raise TrainError(f"{stage} loss diverged to {value}", epoch=epoch)


def _holdout(
    rows: np.ndarray, train_spec: TrainSpec, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` shuffled and split into (validation, training): at least one
    validation row and about ``validation_fraction`` of them."""
    order = rows[rng.child("split").permutation(rows.size)]
    n_val = max(1, int(round(train_spec.validation_fraction * rows.size)))
    if n_val >= rows.size:
        raise ConfigError("validation split consumed every window")
    return order[:n_val], order[n_val:]


def _fit(
    config: ModelConfig,
    params: dict[str, Tensor],
    X: np.ndarray,
    y: np.ndarray | None,
    rows: np.ndarray,
    step_loss,
    validate,
    rng: Rng,
    sampler_spec: SamplerSpec,
    optim_spec: OptimSpec,
    schedule_spec: ScheduleSpec,
    train_spec: TrainSpec,
    stage: str,
    epoch_callback=None,
) -> TrainResult:
    """The epoch loop every stage trains through.

    Trains on the windows ``X[rows]`` (labels ``y[rows]``, or None) and
    gathers only each batch.  ``step_loss(windows, labels, rng)`` returns
    a batch's loss tensor and ``validate(epoch_rng)`` the epoch's
    validation loss.  The learning rate decays on plateaus, training
    stops early, and the best-validation parameters are restored.
    Oversampling, if any, draws from the training rows only.
    """
    result = TrainResult(params=params, config=config, final_lr=optim_spec.lr)
    if train_spec.max_epochs == 0:
        return result

    labels = None if y is None else y[rows]
    synth = None
    if sampler_spec.kind == "smote":
        synth, synth_y = _smote_samples(
            X, rows, labels, sampler_spec.smote_k, rng.child("smote")
        )
        labels = np.concatenate([labels, synth_y])
    n = rows.size if synth is None else rows.size + len(synth)
    index_stream = None
    if sampler_spec.kind == "weighted":
        index_stream = weighted_sampler(labels, rng.child("sampler"))
    size = train_spec.batch_size
    steps_per_epoch = max(1, math.ceil(n / size))

    def batch(idx):
        if synth is None:
            return X[rows[idx]]
        real = idx < rows.size
        windows = np.empty((len(idx),) + X.shape[1:], dtype=X.dtype)
        windows[real] = X[rows[idx[real]]]
        windows[~real] = synth[idx[~real] - rows.size]
        return windows

    state = AdamState()
    stopper = PlateauEarlyStopper(schedule_spec, optim_spec.lr)
    for epoch in range(train_spec.max_epochs):
        erng = rng.child("epoch", epoch)
        if index_stream is None:
            order = erng.child("order").permutation(n)
            batches = [order[start : start + size] for start in range(0, n, size)]
        else:
            draws = islice(index_stream, steps_per_epoch * size)
            batches = np.fromiter(draws, np.int64).reshape(steps_per_epoch, size)
        step_losses = []
        for step, idx in enumerate(batches):
            loss = step_loss(
                batch(idx),
                None if labels is None else labels[idx],
                erng.child("step", step),
            )
            _check_finite(float(loss.data), stage, epoch)
            zero_grads(params)
            loss.backward()
            adam_step(params, state, optim_spec, lr=stopper.lr)
            step_losses.append(float(loss.data))

        val_loss = validate(erng)
        _check_finite(val_loss, f"{stage} validation", epoch)
        result.train_losses.append(float(np.mean(step_losses)))
        result.val_losses.append(val_loss)
        decision = stopper.observe(val_loss)
        if stopper.best_epoch == stopper.epoch:
            best = _snapshot(params)
        if epoch_callback is not None:
            epoch_callback(epoch, params)
        if decision == "stop":
            result.stopped_early = True
            break

    for name, data in best.items():
        params[name].data[...] = data
    result.best_epoch = stopper.best_epoch - 1
    result.final_lr = stopper.lr
    return result


# ---------------------------------------------------------------------------
# Stage 1: masked contrastive pretraining
# ---------------------------------------------------------------------------


def contrastive_alignment(
    config: ModelConfig,
    params: dict[str, Tensor],
    windows,
    mask_spec: MaskSpec,
    contrastive_spec: ContrastiveSpec,
    rng: Rng,
    batch_size: int = 32,
) -> dict:
    """Evaluation-mode contrastive loss and similarity gap over windows."""
    keys = ("loss", "alignment_gap", "target_sim", "distractor_sim")
    totals = dict.fromkeys(keys, 0.0)
    for i, start in enumerate(range(0, len(windows), batch_size)):
        batch = windows[start : start + batch_size]
        srng = rng.child("batch", i)
        with no_grad():
            ctx, targets, masked = forward_pretrain(
                config, params, batch, mask_spec, srng, training=False
            )
            loss, info = contrastive_loss(
                ctx, targets, masked, contrastive_spec, srng.child("distractors")
            )
        info["loss"] = float(loss.data)
        for key in totals:
            totals[key] += info[key] * len(batch)
    return {key: total / len(windows) for key, total in totals.items()}


def check_pretraining(n_windows: int, mask_spec: MaskSpec) -> None:
    """Raise ConfigError unless pretraining can run on ``n_windows`` windows."""
    if mask_spec.mask_prob <= 0.0:
        raise ConfigError("pretraining requires mask_prob > 0")
    if n_windows < 2:
        raise ConfigError("pretraining needs at least 2 windows")


def run_pretraining(
    windows,
    config: ModelConfig,
    rng: Rng,
    mask_spec: MaskSpec = MaskSpec(),
    contrastive_spec: ContrastiveSpec = ContrastiveSpec(),
    optim_spec: OptimSpec = OptimSpec(),
    schedule_spec: ScheduleSpec = ScheduleSpec(),
    train_spec: TrainSpec = TrainSpec(),
) -> TrainResult:
    """Masked contrastive training with a held-out window validation split."""
    X = np.asarray(windows)
    check_pretraining(len(X), mask_spec)

    val_idx, train_idx = _holdout(np.arange(len(X)), train_spec, rng)
    params = init_weights(config, "random", rng.child("init"))
    gaps = []

    def step_loss(batch, labels, srng):
        ctx, targets, masked = forward_pretrain(
            config, params, batch, mask_spec, srng, training=True
        )
        loss, _ = contrastive_loss(
            ctx, targets, masked, contrastive_spec, srng.child("distractors")
        )
        return loss

    def validate(erng):
        val = contrastive_alignment(
            config, params, X[val_idx], mask_spec, contrastive_spec,
            erng.child("val"), train_spec.batch_size,
        )
        gaps.append(val["alignment_gap"])
        return val["loss"]

    result = _fit(
        config, params, X, None, train_idx, step_loss, validate, rng,
        SamplerSpec(kind="none"), optim_spec, schedule_spec, train_spec, "pretraining",
    )
    result.info = {
        "val_alignment_gaps": gaps,
        "final_alignment_gap": gaps[-1] if gaps else None,
        "train_window_count": int(train_idx.size),
        "val_window_count": int(val_idx.size),
    }
    return result


# ---------------------------------------------------------------------------
# Supervised fitting shared by stages 2 and 3
# ---------------------------------------------------------------------------


def _predict_probs(
    config: ModelConfig,
    params: dict[str, Tensor],
    X: np.ndarray,
    batch_size: int,
) -> np.ndarray:
    chunks = []
    with no_grad():
        for start in range(0, len(X), batch_size):
            probs = forward_classifier(
                config, params, X[start : start + batch_size], training=False
            )
            chunks.append(probs.data)
    return np.concatenate(chunks, axis=0)


def _fit_sswce(
    dataset: WindowedDataset,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    config: ModelConfig,
    rng: Rng,
    init: tuple[dict, dict] | None,
    init_policy: str,
    freeze_policy: str,
    sswce_spec: SswceSpec,
    sampler_spec: SamplerSpec,
    optim_spec: OptimSpec,
    schedule_spec: ScheduleSpec,
    train_spec: TrainSpec,
    stage: str,
    epoch_callback=None,
) -> TrainResult:
    """The supervised fit of stages 2 and 3.

    Starts from ``init`` under ``init_policy`` (random init without one),
    applies ``freeze_policy`` and trains the SSWCE loss on ``train_rows`` of
    ``dataset``, validated on ``val_rows``.
    """
    policy = init_policy if init is not None else "random"
    params = init_weights(config, policy, rng.child("init"), source=init)
    set_trainable(params, freeze_policy)

    def step_loss(batch, labels, srng):
        probs = forward_classifier(config, params, batch, rng=srng, training=True)
        return sswce_loss(probs, labels, sswce_spec)

    def validate(erng):
        probs = _predict_probs(
            config, params, dataset.X[val_rows], train_spec.batch_size
        )
        return float(sswce_loss(Tensor(probs), dataset.y[val_rows], sswce_spec).data)

    return _fit(
        config, params, dataset.X, dataset.y, train_rows, step_loss, validate,
        rng.child("fit"), sampler_spec, optim_spec, schedule_spec, train_spec, stage,
        epoch_callback,
    )


# ---------------------------------------------------------------------------
# Stage 2: cross-subject supervised pretraining
# ---------------------------------------------------------------------------


def run_second_pretraining(
    dataset: WindowedDataset,
    target_subject: str,
    config: ModelConfig,
    rng: Rng,
    init: tuple[dict, dict] | None = None,
    init_policy: str = "load_shared",
    sswce_spec: SswceSpec = SswceSpec(),
    sampler_spec: SamplerSpec = SamplerSpec(),
    optim_spec: OptimSpec = OptimSpec(),
    schedule_spec: ScheduleSpec = ScheduleSpec(),
    train_spec: TrainSpec = TrainSpec(),
    epoch_callback=None,
) -> TrainResult:
    """Supervised training on every subject except the evaluation target."""
    subjects = sorted(dataset.subject_ids())
    if target_subject not in subjects:
        raise ProtocolError(f"target subject {target_subject!r} not in corpus")
    if len(subjects) < 2:
        raise ProtocolError("second pretraining needs at least 2 subjects")

    pool = np.flatnonzero(dataset.subject != target_subject)
    if pool.size < 2:
        raise ProtocolError("second pretraining needs at least 2 windows")
    val_rows, train_rows = _holdout(pool, train_spec, rng)

    result = _fit_sswce(
        dataset, train_rows, val_rows, config, rng, init, init_policy, "none",
        sswce_spec, sampler_spec, optim_spec, schedule_spec, train_spec,
        "second pretraining", epoch_callback,
    )
    result.info = {
        "target_subject": target_subject,
        "train_subjects": [s for s in subjects if s != target_subject],
        "train_window_count": int(train_rows.size),
        "val_window_count": int(val_rows.size),
    }
    return result


# ---------------------------------------------------------------------------
# Stage 3: leave-one-out fine-tuning
# ---------------------------------------------------------------------------


def plan_loocv(
    subject_id: str, record_ids: list[str], rng: Rng
) -> list[FoldPlan]:
    """One fold per record; validation records drawn by seeded shuffle."""
    records = sorted(set(record_ids))
    if len(records) < 2:
        raise ProtocolError(
            f"subject {subject_id!r} needs >= 2 seizure-containing records, "
            f"got {len(records)}"
        )
    plans = []
    for test in records:
        pool = [r for r in records if r != test]
        n_val = math.ceil(0.2 * len(pool))
        order = rng.child("fold", test).permutation(len(pool))
        val = sorted(pool[i] for i in order[:n_val])
        train = sorted(pool[i] for i in order[n_val:])
        if not train:
            raise ProtocolError(
                f"subject {subject_id!r}: validation split leaves no "
                f"training records for test fold {test!r}"
            )
        plans.append(
            FoldPlan(
                subject_id=subject_id,
                test_record=test,
                train_records=tuple(train),
                val_records=tuple(val),
            )
        )
    return plans


def run_fold(
    plan: FoldPlan,
    dataset: WindowedDataset,
    config: ModelConfig,
    rng: Rng,
    init: tuple[dict, dict] | None = None,
    init_policy: str = "load_shared",
    freeze_policy: str = "none",
    sswce_spec: SswceSpec = SswceSpec(),
    sampler_spec: SamplerSpec = SamplerSpec(),
    optim_spec: OptimSpec = OptimSpec(),
    schedule_spec: ScheduleSpec = ScheduleSpec(),
    train_spec: TrainSpec = TrainSpec(),
) -> FoldResult:
    """Fine-tune on the fold's training records and score its test record."""
    splits = {
        name: np.flatnonzero(np.isin(dataset.record, records))
        for name, records in (
            ("train", plan.train_records),
            ("val", plan.val_records),
            ("test", [plan.test_record]),
        )
    }
    for name, rows in splits.items():
        if not rows.size:
            raise ProtocolError(f"fold {plan.test_record!r}: empty {name} split")
        if np.any(dataset.subject[rows] != plan.subject_id):
            raise ProtocolError(
                f"fold {plan.test_record!r}: {name} split crosses subjects"
            )

    train = _fit_sswce(
        dataset, splits["train"], splits["val"], config, rng, init, init_policy,
        freeze_policy, sswce_spec, sampler_spec, optim_spec, schedule_spec,
        train_spec, f"fold {plan.test_record}",
    )
    test = splits["test"]
    probs = _predict_probs(config, train.params, dataset.X[test], train_spec.batch_size)
    return FoldResult(
        plan=plan,
        probs=probs[:, 1],
        test_labels=dataset.y[test],
        train=train,
    )
