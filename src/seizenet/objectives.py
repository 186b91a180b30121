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
from .nn.ops import _softmax, _softmax_backward
from .nn.tensor import Tensor
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


def _norm_grad(gnorm: np.ndarray, norm: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The gradient at ``rows`` of their norms, ``gnorm / norm * rows``;
    a zero row gets none."""
    scale = np.divide(gnorm, norm, out=np.zeros_like(gnorm), where=norm > 0)
    return scale[..., None] * rows


def contrastive_loss(
    ctx: Tensor,
    targets: Tensor,
    masked: np.ndarray,
    spec: ContrastiveSpec,
    rng: Rng,
) -> tuple[Tensor, dict]:
    """Mean over masked positions of -log softmax(cos/temperature).

    ``ctx`` and ``targets`` are (batch, S+1, D) with the special token at
    position 0 (never scored); ``masked`` holds distinct positions.  Each
    masked row of ``ctx`` is scored against its own target row and K
    distractor rows.  Returns the scalar loss and a diagnostics dict with
    mean target/distractor similarities.

    One tape node: the cosines come from one (batch, M, S+1) product of all
    masked rows with all target rows, so no (batch, M, K, D) distractor
    tensor is built.  Norms are clipped below at COSINE_EPS as a product,
    and a row whose norm product is clipped gets no norm gradient.
    """
    if ctx.ndim != 3:
        raise ShapeError(f"expected (batch, S+1, D) sequences, got {ctx.shape}")
    if ctx.shape != targets.shape:
        raise ValueError(f"shape mismatch: {ctx.shape} vs {targets.shape}")
    masked = np.asarray(masked, dtype=np.int64)
    if masked.size == 0:
        raise ValueError("contrastive loss needs a non-empty masked set")
    if np.unique(masked).size != masked.size:
        raise ValueError("masked positions must be distinct")
    n, s_plus_1, _ = ctx.shape
    m = masked.size

    dist_idx = sample_distractor_indices(s_plus_1 - 1, masked, spec, rng, batch=n)
    # column 0 holds each masked row's own target, columns 1..K its distractors
    idx = np.concatenate(
        [np.broadcast_to(masked[:, None], (n, m, 1)), dist_idx], axis=2
    )
    c = ctx.data[:, masked]  # (N, M, D)
    t = targets.data  # (N, S+1, D)
    cn = np.sqrt((c * c).sum(axis=-1))  # (N, M)
    tn = np.sqrt((t * t).sum(axis=-1))  # (N, S+1)
    dot = np.take_along_axis(c @ t.mT, idx, axis=2)  # (N, M, K+1)
    tn_idx = np.take_along_axis(tn[:, None], idx, axis=2)
    den = cn[..., None] * tn_idx
    unclipped = den > COSINE_EPS
    np.maximum(den, COSINE_EPS, out=den)
    sim = dot / den
    p = _softmax(sim * np.asarray(1.0 / spec.temperature, sim.dtype), axis=-1)
    p0 = np.maximum(p[..., 0], PROB_FLOOR)
    inv_count = np.asarray(1.0 / p0.size, p.dtype)
    loss = -(np.log(p0).sum() * inv_count)

    def backward(g):
        gz = np.zeros_like(p)  # at the logits sim / temperature
        gz[..., 0] = (-g * inv_count) / p0 * (p[..., 0] > PROB_FLOOR)
        gs = _softmax_backward(gz, p, axis=-1)
        gs *= np.asarray(1.0 / spec.temperature, gs.dtype)  # at sim
        gden = -gs * sim / den * unclipped  # at the clipped norm products
        gs /= den  # at the dot products
        # scatter into every (row, target) pair; repeated draws add up
        gdot = np.zeros(n * m * s_plus_1, gs.dtype)
        pairs = (np.arange(n * m).reshape(n, m, 1) * s_plus_1 + idx).ravel()
        np.add.at(gdot, pairs, gs.ravel())
        gdot = gdot.reshape(n, m, s_plus_1)
        if ctx.requires_grad:
            gcn = (gden * tn_idx).sum(axis=-1)
            gc = gdot @ t
            gc += _norm_grad(gcn, cn, c)
            gctx = np.zeros_like(ctx.data)
            gctx[:, masked] = gc
            ctx.accumulate_grad(gctx)
        if targets.requires_grad:
            gtn = np.zeros(n * s_plus_1, gs.dtype)
            rows = np.arange(n)[:, None, None] * s_plus_1 + idx
            np.add.at(gtn, rows.ravel(), (gden * cn[..., None]).ravel())
            gt = gdot.mT @ c
            gt += _norm_grad(gtn.reshape(n, s_plus_1), tn, t)
            targets.accumulate_grad(gt)

    # contiguous copies: a float32 mean over a strided view sums in another order
    sim_true = np.ascontiguousarray(sim[..., 0])
    sim_dist = np.ascontiguousarray(sim[..., 1:])
    info = {
        "target_sim": float(sim_true.mean()),
        "distractor_sim": float(sim_dist.mean()),
        "alignment_gap": float(sim_true.mean() - sim_dist.mean()),
    }
    return Tensor.from_op(loss, (ctx, targets), backward), info


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
