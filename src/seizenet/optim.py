"""Adam with decoupled weight decay, plateau/early-stop scheduling, and
class-imbalance samplers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, SamplerError
from .nn.tensor import Tensor
from .rand import Rng


@dataclass(frozen=True)
class OptimSpec:
    lr: float = 1e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(
                f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}"
            )
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    spec: OptimSpec,
    lr: float | None = None,
) -> None:
    """One Adam update over the trainable parameters, in place.

    Gradients are read from each tensor's ``grad``; frozen tensors
    (requires_grad False) are skipped entirely, including their optimizer
    state.  Decoupled weight decay shrinks parameters before the moment
    update.  Any non-finite gradient aborts the step untouched.
    """
    lr = spec.lr if lr is None else lr
    trainable = {
        name: t for name, t in params.items() if t.requires_grad
    }
    for name, t in trainable.items():
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            raise NumericsError(f"non-finite gradient in {name!r}; step aborted")

    state.t += 1
    bc1 = 1.0 - spec.beta1**state.t
    bc2 = 1.0 - spec.beta2**state.t
    for name, t in trainable.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        if spec.weight_decay:
            t.data -= lr * spec.weight_decay * t.data
        m = state.m[name]
        v = state.v[name]
        m *= spec.beta1
        m += (1.0 - spec.beta1) * g
        v *= spec.beta2
        v += (1.0 - spec.beta2) * g * g
        t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + spec.eps)


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.zero_grad()


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleSpec:
    plateau_factor: float = 0.1
    plateau_patience: int = 5
    early_stop_patience: int = 15

    def __post_init__(self):
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError(
                f"plateau_factor must lie in (0, 1), got {self.plateau_factor}"
            )
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patiences must be >= 1")


class PlateauEarlyStopper:
    """Tracks validation loss; decides continue / reduce_lr / stop per epoch.

    The learning rate is reduced after ``plateau_patience`` epochs without
    strict improvement counted from the best epoch or the last reduction,
    whichever is later; training stops after ``early_stop_patience`` epochs
    without strict improvement over the best.
    """

    def __init__(self, spec: ScheduleSpec, base_lr: float):
        self.spec = spec
        self.lr = base_lr
        self.best = np.inf
        self.best_epoch = 0
        self.last_reduce_epoch = 0
        self.epoch = 0

    def observe(self, val_loss: float) -> str:
        self.epoch += 1
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = self.epoch
            return "continue"
        if self.epoch - self.best_epoch >= self.spec.early_stop_patience:
            return "stop"
        anchor = max(self.best_epoch, self.last_reduce_epoch)
        if self.epoch - anchor >= self.spec.plateau_patience:
            self.last_reduce_epoch = self.epoch
            self.lr *= self.spec.plateau_factor
            return "reduce_lr"
        return "continue"


def plateau_and_early_stop(history: list[float], spec: ScheduleSpec) -> str:
    """Decision for the latest epoch of a validation-loss history."""
    if not history:
        raise ValueError("history must be non-empty")
    stopper = PlateauEarlyStopper(spec, base_lr=1.0)
    decision = "continue"
    for loss in history:
        decision = stopper.observe(loss)
    return decision


# ---------------------------------------------------------------------------
# Imbalance samplers
# ---------------------------------------------------------------------------


def weighted_sampler(labels, rng: Rng, chunk: int = 1024):
    """Infinite index stream with per-sample weight 1/count(class).

    Expected class mix is 50/50 regardless of imbalance.  Deterministic
    given the rng.  Raises SamplerError when only one class is present.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise SamplerError(
            f"weighted sampling needs both classes, found only {classes.tolist()}"
        )
    weights = np.zeros(len(labels))
    for cls, count in zip(classes, counts):
        weights[labels == cls] = 1.0 / count
    weights /= weights.sum()
    indices = np.arange(len(labels))

    def stream():
        while True:
            yield from rng.choice(indices, size=chunk, replace=True, p=weights)

    return stream()


def smote(
    x: np.ndarray, y: np.ndarray, k: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Oversample the minority class to parity via k-NN interpolation.

    ``x`` is (n, ...) with samples flattened internally for the Euclidean
    neighbor search; synthetic samples are x_i + u * (neighbor - x_i) with
    u ~ Uniform(0, 1).  Requires at least k+1 minority samples.
    """
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"{len(x)} samples vs {len(y)} labels")
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) != 2:
        raise SamplerError(
            f"smote needs exactly two classes, found {classes.tolist()}"
        )
    minority_cls = classes[np.argmin(counts)]
    minority_idx = np.flatnonzero(y == minority_cls)
    n_min, n_maj = counts.min(), counts.max()
    if n_min < k + 1:
        raise SamplerError(
            f"smote with k={k} needs >= {k + 1} minority samples, got {n_min}"
        )
    needed = int(n_maj - n_min)
    if needed == 0:
        return x.copy(), y.copy()

    flat = x[minority_idx].reshape(n_min, -1)
    # pairwise distances; argsort column 0 is each point itself
    sq = (flat**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T)
    neighbor_order = np.argsort(d2, axis=1, kind="stable")
    neighbors = neighbor_order[:, 1 : k + 1]

    base = rng.integers(0, n_min, size=needed)
    pick = rng.integers(0, k, size=needed)
    u = rng.uniform(size=needed)
    chosen = neighbors[base, pick]
    synth_flat = flat[base] + u[:, None] * (flat[chosen] - flat[base])
    synth = synth_flat.reshape((needed,) + x.shape[1:])

    x_aug = np.concatenate([x, synth], axis=0)
    y_aug = np.concatenate([y, np.full(needed, minority_cls, dtype=np.int64)])
    return x_aug, y_aug
