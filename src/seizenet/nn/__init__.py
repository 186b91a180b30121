"""Differentiable kernel set: tensors, ops, FD validation, checkpoints."""

from .checkpoint import (
    checkpoint_bytes,
    config_hash,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from .gradcheck import GradCheckReport, grad_check
from .ops import (
    conv1d,
    dropout,
    gelu,
    group_norm,
    kaiming_uniform,
    layer_norm,
    linear,
    multi_head_attention,
    softmax,
)
from .tensor import Tensor, as_tensor, concat, no_grad

__all__ = [
    "GradCheckReport",
    "Tensor",
    "as_tensor",
    "checkpoint_bytes",
    "concat",
    "config_hash",
    "conv1d",
    "dropout",
    "gelu",
    "grad_check",
    "group_norm",
    "kaiming_uniform",
    "layer_norm",
    "linear",
    "load_checkpoint",
    "multi_head_attention",
    "no_grad",
    "parse_checkpoint",
    "save_checkpoint",
    "softmax",
]
