"""Training losses: masked contrastive alignment and class-weighted CE.

The contrastive loss aligns transformer outputs at masked positions with
the pre-masking encoder outputs, against distractors drawn from the same
sequence; it takes (batch, S+1, D) sequences only.  The supervised loss
partitions the batch by class and weights the positive-class term by alpha
(sensitivity) and the negative-class term by beta (false-positive
suppression).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .nn.tensor import Tensor, concat
from .nn.ops import softmax
from .rand import Rng

COSINE_EPS = 1e-8
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ContrastiveSpec:
    num_distractors: int = 20
    temperature: float = 0.1

    def __post_init__(self):
        if self.num_distractors < 1:
            raise ConfigError(
                f"num_distractors must be >= 1, got {self.num_distractors}"
            )
        if self.temperature <= 0:
            raise ConfigError(
                f"temperature must be positive, got {self.temperature}"
            )


@dataclass(frozen=True)
class SswceSpec:
    alpha: float = 0.8
    beta: float = 0.2

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be non-negative")
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise ConfigError(
                f"alpha + beta must equal 1, got {self.alpha + self.beta}"
            )


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity along the last axis, guarded against zero norms."""
    dot = (a * b).sum(axis=-1)
    norm_a = (a * a).sum(axis=-1).sqrt()
    norm_b = (b * b).sum(axis=-1).sqrt()
    return dot / (norm_a * norm_b).clip_min(COSINE_EPS)


def sample_distractor_indices(
    n_positions: int,
    masked: np.ndarray,
    spec: ContrastiveSpec,
    rng: Rng,
    batch: int,
) -> np.ndarray:
    """Distractor position indices of shape (batch, |masked|, K).

    Drawn uniformly from unmasked non-special positions (with replacement
    when the pool is smaller than K).  If masking saturated the sequence,
    the pool falls back to all non-special positions except the target.
    """
    masked_set = set(int(i) for i in masked)
    pool = np.array(
        [i for i in range(1, n_positions + 1) if i not in masked_set],
        dtype=np.int64,
    )
    k = spec.num_distractors
    if pool.size > 0:
        return rng.choice(pool, size=(batch, masked.size, k), replace=True)
    out = np.empty((batch, masked.size, k), dtype=np.int64)
    for j, target in enumerate(masked):
        fallback = np.array(
            [i for i in range(1, n_positions + 1) if i != target], dtype=np.int64
        )
        out[:, j, :] = rng.choice(fallback, size=(batch, k), replace=True)
    return out


def contrastive_loss(
    ctx: Tensor,
    targets: Tensor,
    masked: np.ndarray,
    spec: ContrastiveSpec,
    rng: Rng,
) -> tuple[Tensor, dict]:
    """Mean over masked positions of -log softmax(cos/temperature).

    ``ctx`` and ``targets`` are (batch, S+1, D) with the special token at
    position 0 (never scored).  Returns the scalar loss and a diagnostics
    dict with mean target/distractor similarities.
    """
    if ctx.ndim != 3:
        raise ShapeError(f"expected (batch, S+1, D) sequences, got {ctx.shape}")
    if ctx.shape != targets.shape:
        raise ValueError(f"shape mismatch: {ctx.shape} vs {targets.shape}")
    masked = np.asarray(masked, dtype=np.int64)
    if masked.size == 0:
        raise ValueError("contrastive loss needs a non-empty masked set")
    n, s_plus_1, _ = ctx.shape

    dist_idx = sample_distractor_indices(
        s_plus_1 - 1, masked, spec, rng, batch=n
    )
    batch_idx = np.arange(n)[:, None, None]

    c = ctx[:, masked]  # (N, M, D)
    true_b = targets[:, masked]  # (N, M, D)
    distractors = targets[batch_idx, dist_idx]  # (N, M, K, D)

    sim_true = _cosine(c, true_b)  # (N, M)
    sim_dist = _cosine(c.reshape(n, masked.size, 1, -1), distractors)  # (N,M,K)

    logits = concat(
        [sim_true.reshape(n, masked.size, 1), sim_dist], axis=2
    ) * (1.0 / spec.temperature)
    probs = softmax(logits, axis=-1)
    target_prob = probs[:, :, 0].clip_min(PROB_FLOOR)
    loss = -(target_prob.log().mean())

    info = {
        "target_sim": float(sim_true.data.mean()),
        "distractor_sim": float(sim_dist.data.mean()),
        "alignment_gap": float(sim_true.data.mean() - sim_dist.data.mean()),
    }
    return loss, info


def sswce_loss(probs: Tensor, labels: np.ndarray, spec: SswceSpec) -> Tensor:
    """alpha * mean CE over positives + beta * mean CE over negatives.

    ``probs`` is (batch, 2) of (p_noseizure, p_seizure) rows; an absent
    class contributes zero.  Probabilities are floored at 1e-12 before log.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[1] != 2:
        raise ValueError(f"probs must be (batch, 2), got {probs.shape}")
    if probs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{probs.shape[0]} probability rows vs {labels.shape[0]} labels"
        )
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")

    terms = []
    for weight, cls in ((spec.alpha, 1), (spec.beta, 0)):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0 or weight == 0.0:
            continue
        picked = probs[idx, np.full(idx.size, cls)]
        terms.append(weight * -(picked.clip_min(PROB_FLOOR).log().mean()))
    if not terms:
        return Tensor(np.zeros((), dtype=probs.data.dtype))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total
