"""BENDR-style network assembly.

A strided conv encoder turns an (N, C, T) batch of windows into short
feature sequences (N, S, D); a constant special row is prepended; an
optional span mask substitutes a learned embedding; a pre-norm transformer
contextualizes the sequences; and either a contrastive pretraining view or
the classifier head consumes the result.  Every function takes batches
only.  Parameters live in a flat name->Tensor dict so freezing,
checkpointing, and cross-config weight transfer stay trivial.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Literal

import numpy as np

from .errors import CheckpointError, ConfigError, ShapeError
from .nn.checkpoint import config_hash
from .nn.ops import (
    conv1d,
    conv_block,
    dropout,
    feed_forward,
    gelu,
    kaiming_uniform,
    layer_norm,
    linear,
    multi_head_attention,
    softmax,
)
from .nn.tensor import Tensor, as_tensor, concat
from .rand import Rng

# Parameters are created, and window batches cast, in this dtype, so every
# training and inference graph computes in it; ``prepare_recordings`` stores
# windows in it, so that cast copies nothing.  Gradient checks build their
# own float64 graphs; checkpoints store float32 either way.
COMPUTE_DTYPE = np.float32

CONV_BLOCK_CHOICES = (3, 6)
LAYER_CHOICES = (2, 4, 6, 8, 12)
DEFAULT_STRIDES = {3: (3, 2, 2), 6: (3, 2, 2, 2, 2, 2)}

FreezePolicy = Literal["none", "freeze_conv", "freeze_transformer"]
FREEZE_POLICIES = ("none", "freeze_conv", "freeze_transformer")
InitPolicy = Literal["random", "load_shared", "load_duplicate"]
INIT_POLICIES = ("random", "load_shared", "load_duplicate")


def _default_classifier_dims(width: int) -> tuple[tuple[int, int], ...]:
    chain = [width]
    while chain[-1] > 8:
        chain.append(chain[-1] // 2)
    chain.append(2)
    return tuple(zip(chain[:-1], chain[1:]))


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 20
    conv_blocks: int = 6
    conv_channels: int = 512
    conv_strides: tuple[int, ...] = ()
    transformer_layers: int = 8
    heads: int = 4
    model_dim: int = 512
    ffn_dim: int = 2048
    dropout_p: float = 0.5
    classifier_dims: tuple[tuple[int, int], ...] = (
        (512, 256),
        (256, 128),
        (128, 64),
        (64, 2),
    )
    special_token_value: float = -5.0
    group_norm_groups: int = 16
    pos_conv_kernel: int = 25
    pos_conv_groups: int = 16

    def __post_init__(self):
        for name in ("heads", "group_norm_groups", "pos_conv_groups"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.classifier_dims:
            raise ConfigError("classifier_dims must name at least one layer")
        if self.conv_blocks not in CONV_BLOCK_CHOICES:
            raise ConfigError(
                f"conv_blocks must be one of {CONV_BLOCK_CHOICES}, "
                f"got {self.conv_blocks}"
            )
        if self.transformer_layers not in LAYER_CHOICES:
            raise ConfigError(
                f"transformer_layers must be one of {LAYER_CHOICES}, "
                f"got {self.transformer_layers}"
            )
        if not self.conv_strides:
            object.__setattr__(
                self, "conv_strides", DEFAULT_STRIDES[self.conv_blocks]
            )
        else:
            object.__setattr__(self, "conv_strides", tuple(self.conv_strides))
        if len(self.conv_strides) != self.conv_blocks:
            raise ConfigError(
                f"{self.conv_blocks} blocks need {self.conv_blocks} strides, "
                f"got {self.conv_strides}"
            )
        if self.model_dim != self.conv_channels:
            raise ConfigError(
                f"model_dim {self.model_dim} must equal conv_channels "
                f"{self.conv_channels}"
            )
        if self.model_dim % self.heads:
            raise ConfigError(
                f"heads {self.heads} must divide model_dim {self.model_dim}"
            )
        if self.conv_channels % self.group_norm_groups:
            raise ConfigError(
                f"group_norm_groups {self.group_norm_groups} must divide "
                f"conv_channels {self.conv_channels}"
            )
        if self.model_dim % self.pos_conv_groups:
            raise ConfigError(
                f"pos_conv_groups {self.pos_conv_groups} must divide "
                f"model_dim {self.model_dim}"
            )
        if self.pos_conv_kernel % 2 == 0:
            raise ConfigError("pos_conv_kernel must be odd")
        dims = tuple(tuple(pair) for pair in self.classifier_dims)
        object.__setattr__(self, "classifier_dims", dims)
        if dims[0][0] != self.model_dim:
            raise ConfigError(
                f"classifier input {dims[0][0]} must equal model_dim "
                f"{self.model_dim}"
            )
        if dims[-1][1] != 2:
            raise ConfigError("classifier must end in 2 outputs")
        for (_, out_a), (in_b, _) in zip(dims[:-1], dims[1:]):
            if out_a != in_b:
                raise ConfigError(f"classifier dims do not chain: {dims}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")

    def with_width(self, width: int) -> "ModelConfig":
        """Scale the network width (for desk-scale training runs)."""
        return replace(
            self,
            conv_channels=width,
            model_dim=width,
            ffn_dim=4 * width,
            classifier_dims=_default_classifier_dims(width),
        )


@dataclass(frozen=True)
class MaskSpec:
    mask_prob: float = 0.065
    span_len: int = 10

    def __post_init__(self):
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ConfigError(f"mask_prob must lie in [0, 1], got {self.mask_prob}")
        if self.span_len < 1:
            raise ConfigError(f"span_len must be >= 1, got {self.span_len}")


def encoded_length(config: ModelConfig, n_samples: int) -> int:
    """Sequence length after the conv stage (kernel size = stride)."""
    length = n_samples
    for stride in config.conv_strides:
        if stride > length:
            raise ShapeError(
                f"input of {n_samples} samples is shorter than the conv "
                f"stage receptive field"
            )
        length = (length - stride) // stride + 1
    return length


# ---------------------------------------------------------------------------
# Initialization and freezing
# ---------------------------------------------------------------------------


def _random_params(config: ModelConfig, rng: Rng) -> dict[str, Tensor]:
    p: dict[str, np.ndarray] = {}
    d = config.model_dim
    c_in = config.in_channels
    for i, stride in enumerate(config.conv_strides):
        c_out = config.conv_channels
        r = rng.child("conv", i)
        p[f"conv.{i}.weight"] = kaiming_uniform(
            r.child("w"), (c_out, c_in, stride), fan_in=c_in * stride
        )
        p[f"conv.{i}.bias"] = np.zeros(c_out)
        p[f"conv.{i}.gn.gamma"] = np.ones(c_out)
        p[f"conv.{i}.gn.beta"] = np.zeros(c_out)
        c_in = c_out

    p["mask.embedding"] = kaiming_uniform(rng.child("mask"), (d,), fan_in=d)

    k = config.pos_conv_kernel
    per_group = d // config.pos_conv_groups
    p["pos_conv.weight"] = kaiming_uniform(
        rng.child("pos", "w"), (d, per_group, k), fan_in=per_group * k
    )
    p["pos_conv.bias"] = np.zeros(d)

    for i in range(config.transformer_layers):
        r = rng.child("layer", i)
        p[f"encoder.{i}.ln1.gamma"] = np.ones(d)
        p[f"encoder.{i}.ln1.beta"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            p[f"encoder.{i}.attn.{name}"] = kaiming_uniform(
                r.child(name), (d, d), fan_in=d
            )
        p[f"encoder.{i}.ln2.gamma"] = np.ones(d)
        p[f"encoder.{i}.ln2.beta"] = np.zeros(d)
        p[f"encoder.{i}.ffn.w1"] = kaiming_uniform(
            r.child("ffn1"), (d, config.ffn_dim), fan_in=d
        )
        p[f"encoder.{i}.ffn.b1"] = np.zeros(config.ffn_dim)
        p[f"encoder.{i}.ffn.w2"] = kaiming_uniform(
            r.child("ffn2"), (config.ffn_dim, d), fan_in=config.ffn_dim
        )
        p[f"encoder.{i}.ffn.b2"] = np.zeros(d)

    for i, (dim_in, dim_out) in enumerate(config.classifier_dims):
        r = rng.child("classifier", i)
        p[f"classifier.{i}.weight"] = kaiming_uniform(
            r.child("w"), (dim_in, dim_out), fan_in=dim_in
        )
        p[f"classifier.{i}.bias"] = np.zeros(dim_out)

    return {
        name: Tensor(arr.astype(COMPUTE_DTYPE), requires_grad=True)
        for name, arr in p.items()
    }


def _layer_index(name: str) -> int | None:
    if not name.startswith("encoder."):
        return None
    return int(name.split(".")[1])


def init_weights(
    config: ModelConfig,
    policy: InitPolicy,
    rng: Rng,
    source: tuple[dict[str, np.ndarray], dict] | None = None,
) -> dict[str, Tensor]:
    """Build the parameter dict under an initialization policy.

    ``source`` is (params, config-dict) as returned by checkpoint loading;
    required for load_shared / load_duplicate.  A source of this same
    config must hold every tensor in its shape; across configs, tensors
    missing from the source or shaped differently keep their random init.
    """
    if policy not in INIT_POLICIES:
        raise ConfigError(f"unknown init policy {policy!r}")
    params = _random_params(config, rng)
    if policy == "random":
        return params
    if source is None:
        raise CheckpointError(f"{policy} requires a source checkpoint")

    src_params, src_config = source
    if src_config.get("model_dim") != config.model_dim:
        raise CheckpointError(
            f"source width {src_config.get('model_dim')} incompatible with "
            f"target width {config.model_dim}"
        )

    same_config = config_hash(src_config) == config_hash(asdict(config))
    for name, tensor in params.items():
        if name in src_params and src_params[name].shape == tensor.shape:
            tensor.data = src_params[name].astype(COMPUTE_DTYPE)
        elif same_config:
            raise CheckpointError(f"same-config source lacks {name} {tensor.shape}")

    if policy == "load_duplicate":
        src_layers = src_config.get("transformer_layers", 0)
        if src_layers < 1:
            raise CheckpointError("source checkpoint has no transformer layers")
        if config.transformer_layers < src_layers:
            raise CheckpointError(
                f"load_duplicate needs target layers >= source layers "
                f"({config.transformer_layers} < {src_layers})"
            )
        for name, tensor in params.items():
            i = _layer_index(name)
            if i is None or i < src_layers:
                continue
            # extra layers copy the source stack cyclically from the bottom
            src_name = name.replace(
                f"encoder.{i}.", f"encoder.{(i - src_layers) % src_layers}.", 1
            )
            if src_params[src_name].shape != tensor.shape:
                raise CheckpointError(
                    f"cannot duplicate {src_name} into {name}: shape mismatch"
                )
            tensor.data = src_params[src_name].astype(COMPUTE_DTYPE)
    return params


def set_trainable(
    params: dict[str, Tensor], policy: FreezePolicy
) -> dict[str, bool]:
    """Apply a freeze policy; returns the trainability mask by name."""
    if policy not in FREEZE_POLICIES:
        raise ConfigError(f"unknown freeze policy {policy!r}")
    frozen_prefixes: tuple[str, ...] = ()
    if policy == "freeze_conv":
        frozen_prefixes = ("conv.",)
    elif policy == "freeze_transformer":
        frozen_prefixes = ("pos_conv.", "encoder.")
    mask = {}
    for name, tensor in params.items():
        trainable = not name.startswith(frozen_prefixes)
        tensor.requires_grad = trainable
        mask[name] = trainable
    return mask


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def encode(
    config: ModelConfig,
    params: dict[str, Tensor],
    window,
    rng: Rng | None = None,
    training: bool = False,
) -> Tensor:
    """Conv stage: (N, C, T) window batch -> (N, S, D).

    The window batch is cast to ``COMPUTE_DTYPE``; it is data, not a graph
    node, so no gradient flows back into it.
    """
    x = Tensor(as_tensor(window).data.astype(COMPUTE_DTYPE, copy=False))
    if training and rng is None:
        raise ValueError("training-mode encode needs an rng")
    if x.ndim != 3:
        raise ShapeError(f"expected an (N, C, T) window batch, got {x.shape}")
    if x.shape[1] != config.in_channels:
        raise ShapeError(
            f"window has {x.shape[1]} channels, config expects "
            f"{config.in_channels}"
        )
    encoded_length(config, x.shape[2])  # raises if too short
    h = x
    for i, stride in enumerate(config.conv_strides):
        h = conv_block(
            h,
            params[f"conv.{i}.weight"],
            params[f"conv.{i}.bias"],
            params[f"conv.{i}.gn.gamma"],
            params[f"conv.{i}.gn.beta"],
            stride=stride,
            groups=config.group_norm_groups,
            p=config.dropout_p,
            rng=rng.child("conv_drop", i) if training else None,
            training=training,
        )
    return h.transpose(0, 2, 1)  # (N, S, D)


def prepend_special_token(seq: Tensor, value: float = -5.0) -> Tensor:
    """Insert a constant row at position 0 of each (N, S, D) sequence."""
    seq = as_tensor(seq)
    n, _, d = seq.shape
    rows = Tensor(np.full((n, 1, d), value, dtype=seq.data.dtype))
    return concat([rows, seq], axis=1)


def draw_mask_indices(n_positions: int, spec: MaskSpec, rng: Rng) -> np.ndarray:
    """Masked indices for a sequence with the special token at position 0.

    ``n_positions`` counts maskable (non-special) positions.  Span starts
    are drawn without replacement from 1..n_positions; each span covers
    span_len positions, truncated at the sequence end.
    """
    if spec.mask_prob == 0.0 or n_positions == 0:
        return np.zeros(0, dtype=np.int64)
    num_starts = max(1, int(round(spec.mask_prob * n_positions)))
    starts = rng.choice(
        np.arange(1, n_positions + 1), size=num_starts, replace=False
    )
    masked: set[int] = set()
    for start in starts:
        masked.update(range(start, min(start + spec.span_len, n_positions + 1)))
    return np.array(sorted(masked), dtype=np.int64)


def substitute_rows(seq: Tensor, embedding: Tensor, indices: np.ndarray) -> Tensor:
    """Replace the same rows of every (N, S, D) sequence by a vector."""
    data = seq.data.copy()
    data[:, indices] = embedding.data

    def backward(g):
        if seq.requires_grad:
            gs = g.copy()
            gs[:, indices] = 0.0
            seq.accumulate_grad(gs)
        if embedding.requires_grad:
            embedding.accumulate_grad(g[:, indices].sum(axis=(0, 1)))

    return Tensor.from_op(data, (seq, embedding), backward)


def apply_mask(
    seq: Tensor,
    spec: MaskSpec,
    embedding: Tensor,
    rng: Rng,
) -> tuple[Tensor, np.ndarray]:
    """Mask spans of special-token-prefixed (N, S+1, D) sequences.

    Every sequence of the batch masks the same positions.  Returns the
    masked sequences and the sorted masked index set.  Position 0 is never
    masked.
    """
    indices = draw_mask_indices(seq.shape[1] - 1, spec, rng)
    if indices.size == 0:
        return seq, indices
    return substitute_rows(seq, embedding, indices), indices


def transformer_forward(
    config: ModelConfig,
    params: dict[str, Tensor],
    seq: Tensor,
    rng: Rng | None = None,
    training: bool = False,
) -> Tensor:
    """Positional grouped-conv encoding plus pre-norm transformer stack."""
    seq = as_tensor(seq)
    if training and rng is None:
        raise ValueError("training-mode transformer needs an rng")
    if seq.shape[-1] != config.model_dim:
        raise ShapeError(
            f"sequence width {seq.shape[-1]} != model_dim {config.model_dim}"
        )
    pos = conv1d(
        seq.transpose(0, 2, 1),
        params["pos_conv.weight"],
        params["pos_conv.bias"],
        stride=1,
        padding=config.pos_conv_kernel // 2,
        groups=config.pos_conv_groups,
    )
    h = seq + gelu(pos).transpose(0, 2, 1)

    for i in range(config.transformer_layers):
        pre = layer_norm(
            h, params[f"encoder.{i}.ln1.gamma"], params[f"encoder.{i}.ln1.beta"]
        )
        attn = multi_head_attention(
            pre,
            config.heads,
            params[f"encoder.{i}.attn.wq"],
            params[f"encoder.{i}.attn.wk"],
            params[f"encoder.{i}.attn.wv"],
            params[f"encoder.{i}.attn.wo"],
        )
        if training:
            attn = dropout(
                attn, config.dropout_p, rng.child("attn_drop", i), training
            )
        h = h + attn

        pre = layer_norm(
            h, params[f"encoder.{i}.ln2.gamma"], params[f"encoder.{i}.ln2.beta"]
        )
        ff = feed_forward(
            pre,
            params[f"encoder.{i}.ffn.w1"],
            params[f"encoder.{i}.ffn.b1"],
            params[f"encoder.{i}.ffn.w2"],
            params[f"encoder.{i}.ffn.b2"],
            p=config.dropout_p,
            rng=rng.child("ffn_drop", i) if training else None,
            training=training,
        )
        h = h + ff

    return h


def classify(
    config: ModelConfig,
    params: dict[str, Tensor],
    seq: Tensor,
    rng: Rng | None = None,
    training: bool = False,
) -> Tensor:
    """(N, 2) probability pairs from the special-token rows of (N, S, D)."""
    seq = as_tensor(seq)
    if training and rng is None:
        raise ValueError("training-mode classify needs an rng")
    if seq.shape[1] < 1:
        raise ShapeError("classify needs a sequence with at least one row")
    h = seq[:, 0]
    last = len(config.classifier_dims) - 1
    for i in range(len(config.classifier_dims)):
        h = linear(
            h, params[f"classifier.{i}.weight"], params[f"classifier.{i}.bias"]
        )
        if i < last:
            h = gelu(h)
            if training and i < 2:
                h = dropout(h, config.dropout_p, rng.child("cls_drop", i), training)
    return softmax(h, axis=-1)


def forward_classifier(
    config: ModelConfig,
    params: dict[str, Tensor],
    windows,
    rng: Rng | None = None,
    training: bool = False,
) -> Tensor:
    """Full supervised path: windows (N, C, T) -> (N, 2) probabilities."""
    seq = encode(config, params, windows, rng=rng, training=training)
    seq = prepend_special_token(seq, config.special_token_value)
    ctx = transformer_forward(config, params, seq, rng=rng, training=training)
    return classify(config, params, ctx, rng=rng, training=training)


def forward_pretrain(
    config: ModelConfig,
    params: dict[str, Tensor],
    windows,
    spec: MaskSpec,
    rng: Rng,
    training: bool = True,
) -> tuple[Tensor, Tensor, np.ndarray]:
    """Masked contrastive path.

    Returns (context sequence, target sequence, masked indices); targets are
    the pre-masking encoder outputs the contrastive loss aligns against.
    """
    seq = encode(config, params, windows, rng=rng, training=training)
    targets = prepend_special_token(seq, config.special_token_value)
    masked, indices = apply_mask(
        targets, spec, params["mask.embedding"], rng.child("mask")
    )
    ctx = transformer_forward(config, params, masked, rng=rng, training=training)
    return ctx, targets, indices
