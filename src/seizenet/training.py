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
from dataclasses import dataclass, field, replace

import numpy as np

from .eegio import WindowedDataset, windows_from_recordings
from .errors import ConfigError, ProtocolError, TrainError
from .model import (
    FREEZE_POLICIES,
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
    adam_step,
    smote,
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
    return (
        {name: t.data.copy() for name, t in result.params.items()},
        result.config.to_dict(),
    )


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------


def prepare_recordings(
    recordings,
    window_s: float = 8.0,
    filter_spec: FilterSpec | None = None,
    normalization: str | None = "meanstd",
) -> WindowedDataset:
    """Filter whole records, cut windows, then normalize each window.

    Raises ConfigError when the filter was designed for another sample
    rate than a record's.
    """
    if filter_spec is not None:
        for rec in recordings:
            if rec.sample_rate_hz != filter_spec.sample_rate_hz:
                raise ConfigError(
                    f"record {rec.record_id!r} is sampled at "
                    f"{rec.sample_rate_hz} Hz but the band-pass filter is "
                    f"designed for {filter_spec.sample_rate_hz} Hz"
                )
        recordings = [
            replace(
                rec, samples=preprocess_recording_samples(rec.samples, filter_spec)
            )
            for rec in recordings
        ]
    ds = windows_from_recordings(recordings, window_s)
    del recordings  # free the filtered copies before normalizing
    if normalization is None:
        return ds
    return replace(ds, X=normalize(ds.X, normalization))


def _as_matrix(windows) -> np.ndarray:
    arr = np.asarray(windows, dtype=np.float64)
    if arr.ndim != 3:
        raise ConfigError(f"expected (N, C, T) windows, got shape {arr.shape}")
    return arr


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.items()}


def _restore(params: dict[str, Tensor], snap: dict[str, np.ndarray]) -> None:
    for name, data in snap.items():
        params[name].data[...] = data


def _epoch_batches(n: int, batch_size: int, rng: Rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _check_finite(value: float, stage: str, epoch: int) -> None:
    if not math.isfinite(value):
        raise TrainError(f"{stage} loss diverged to {value}", epoch=epoch)


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
    X = _as_matrix(windows)
    losses, gaps, target_sims, distractor_sims = [], [], [], []
    for i, start in enumerate(range(0, len(X), batch_size)):
        batch = X[start : start + batch_size]
        srng = rng.child("batch", i)
        with no_grad():
            ctx, targets, masked = forward_pretrain(
                config, params, batch, mask_spec, srng, training=False
            )
            loss, info = contrastive_loss(
                ctx, targets, masked, contrastive_spec, srng.child("distractors")
            )
        weight = len(batch)
        losses.append(float(loss.data) * weight)
        gaps.append(info["alignment_gap"] * weight)
        target_sims.append(info["target_sim"] * weight)
        distractor_sims.append(info["distractor_sim"] * weight)
    n = len(X)
    return {
        "loss": sum(losses) / n,
        "alignment_gap": sum(gaps) / n,
        "target_sim": sum(target_sims) / n,
        "distractor_sim": sum(distractor_sims) / n,
    }


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
    if mask_spec.mask_prob <= 0.0:
        raise ConfigError("pretraining requires mask_prob > 0")
    X = _as_matrix(windows)
    n = len(X)
    if n < 2:
        raise ConfigError("pretraining needs at least 2 windows")

    order = rng.child("split").permutation(n)
    n_val = max(1, int(round(train_spec.validation_fraction * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ConfigError("validation split consumed every window")

    params = init_weights(config, "random", rng.child("init"))
    state = AdamState()
    stopper = PlateauEarlyStopper(schedule_spec, optim_spec.lr)
    result = TrainResult(params=params, config=config)
    best = _snapshot(params)
    best_val = np.inf
    gaps = []

    for epoch in range(train_spec.max_epochs):
        erng = rng.child("epoch", epoch)
        step_losses = []
        for step, idx in enumerate(
            _epoch_batches(train_idx.size, train_spec.batch_size, erng.child("order"))
        ):
            srng = erng.child("step", step)
            ctx, targets, masked = forward_pretrain(
                config, params, X[train_idx[idx]], mask_spec, srng, training=True
            )
            loss, _ = contrastive_loss(
                ctx, targets, masked, contrastive_spec, srng.child("distractors")
            )
            _check_finite(float(loss.data), "pretraining", epoch)
            zero_grads(params)
            loss.backward()
            adam_step(params, state, optim_spec, lr=stopper.lr)
            step_losses.append(float(loss.data))

        val = contrastive_alignment(
            config,
            params,
            X[val_idx],
            mask_spec,
            contrastive_spec,
            erng.child("val"),
            train_spec.batch_size,
        )
        _check_finite(val["loss"], "pretraining validation", epoch)
        result.train_losses.append(float(np.mean(step_losses)))
        result.val_losses.append(val["loss"])
        gaps.append(val["alignment_gap"])
        if val["loss"] < best_val:
            best_val = val["loss"]
            result.best_epoch = epoch
            best = _snapshot(params)
        if stopper.observe(val["loss"]) == "stop":
            result.stopped_early = True
            break

    if result.best_epoch >= 0:
        _restore(params, best)
    result.final_lr = stopper.lr
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


def _sswce_eval(
    config: ModelConfig,
    params: dict[str, Tensor],
    X: np.ndarray,
    y: np.ndarray,
    spec: SswceSpec,
    batch_size: int,
) -> float:
    probs = _predict_probs(config, params, X, batch_size)
    return float(sswce_loss(Tensor(probs), y, spec).data)


def _supervised_fit(
    config: ModelConfig,
    params: dict[str, Tensor],
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    rng: Rng,
    sswce_spec: SswceSpec,
    sampler_spec: SamplerSpec,
    optim_spec: OptimSpec,
    schedule_spec: ScheduleSpec,
    train_spec: TrainSpec,
    stage: str,
    epoch_callback=None,
) -> TrainResult:
    """SSWCE training loop with oversampling on the training split only."""
    result = TrainResult(params=params, config=config)
    if train_spec.max_epochs == 0:
        result.final_lr = optim_spec.lr
        return result

    if sampler_spec.kind == "smote":
        X_train, y_train = smote(
            X_train, y_train, sampler_spec.smote_k, rng.child("smote")
        )
    index_stream = None
    if sampler_spec.kind == "weighted":
        index_stream = weighted_sampler(y_train, rng.child("sampler"))
    steps_per_epoch = max(1, math.ceil(len(X_train) / train_spec.batch_size))

    state = AdamState()
    stopper = PlateauEarlyStopper(schedule_spec, optim_spec.lr)
    best = _snapshot(params)
    best_val = np.inf

    for epoch in range(train_spec.max_epochs):
        erng = rng.child("epoch", epoch)
        if index_stream is None:
            batches = list(
                _epoch_batches(len(X_train), train_spec.batch_size, erng.child("order"))
            )
        else:
            batches = [
                np.array(
                    [next(index_stream) for _ in range(train_spec.batch_size)]
                )
                for _ in range(steps_per_epoch)
            ]
        step_losses = []
        for step, idx in enumerate(batches):
            srng = erng.child("step", step)
            probs = forward_classifier(
                config, params, X_train[idx], rng=srng, training=True
            )
            loss = sswce_loss(probs, y_train[idx], sswce_spec)
            _check_finite(float(loss.data), stage, epoch)
            zero_grads(params)
            loss.backward()
            adam_step(params, state, optim_spec, lr=stopper.lr)
            step_losses.append(float(loss.data))

        val_loss = _sswce_eval(
            config, params, X_val, y_val, sswce_spec, train_spec.batch_size
        )
        _check_finite(val_loss, f"{stage} validation", epoch)
        result.train_losses.append(float(np.mean(step_losses)))
        result.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            result.best_epoch = epoch
            best = _snapshot(params)
        if epoch_callback is not None:
            epoch_callback(epoch, params)
        if stopper.observe(val_loss) == "stop":
            result.stopped_early = True
            break

    if result.best_epoch >= 0:
        _restore(params, best)
    result.final_lr = stopper.lr
    return result


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

    pool = dataset.subset(lambda w: w.subject_id != target_subject)
    if np.any(pool.subject == target_subject):
        raise ProtocolError("target windows leaked into second pretraining")

    X = pool.matrix()
    y = pool.labels()
    n = len(X)
    if n < 2:
        raise ProtocolError("second pretraining needs at least 2 windows")
    order = rng.child("split").permutation(n)
    n_val = max(1, int(round(train_spec.validation_fraction * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]

    policy = init_policy if init is not None else "random"
    params = init_weights(config, policy, rng.child("init"), source=init)
    result = _supervised_fit(
        config,
        params,
        X[train_idx],
        y[train_idx],
        X[val_idx],
        y[val_idx],
        rng.child("fit"),
        sswce_spec,
        sampler_spec,
        optim_spec,
        schedule_spec,
        train_spec,
        stage="second pretraining",
        epoch_callback=epoch_callback,
    )
    result.info = {
        "target_subject": target_subject,
        "train_subjects": sorted(pool.subject_ids()),
        "train_window_count": int(train_idx.size),
        "val_window_count": int(val_idx.size),
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
    epoch_callback=None,
) -> FoldResult:
    """Fine-tune on the fold's training records and score its test record."""
    if freeze_policy not in FREEZE_POLICIES:
        raise ConfigError(f"freeze_policy must be one of {FREEZE_POLICIES}")

    def records_subset(names):
        wanted = set(names)
        return dataset.subset(lambda w: w.record_id in wanted)

    train_ds = records_subset(plan.train_records)
    val_ds = records_subset(plan.val_records)
    test_ds = records_subset([plan.test_record])
    for name, part in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        if not len(part):
            raise ProtocolError(f"fold {plan.test_record!r}: empty {name} split")
        if np.any(part.subject != plan.subject_id):
            raise ProtocolError(
                f"fold {plan.test_record!r}: {name} split crosses subjects"
            )

    policy = init_policy if init is not None else "random"
    params = init_weights(config, policy, rng.child("init"), source=init)
    set_trainable(params, freeze_policy)

    train = _supervised_fit(
        config,
        params,
        train_ds.matrix(),
        train_ds.labels(),
        val_ds.matrix(),
        val_ds.labels(),
        rng.child("fit"),
        sswce_spec,
        sampler_spec,
        optim_spec,
        schedule_spec,
        train_spec,
        stage=f"fold {plan.test_record}",
        epoch_callback=epoch_callback,
    )
    probs = _predict_probs(config, params, test_ds.matrix(), train_spec.batch_size)
    return FoldResult(
        plan=plan,
        probs=probs[:, 1],
        test_labels=test_ds.labels(),
        train=train,
    )
