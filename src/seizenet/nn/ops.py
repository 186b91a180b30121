"""Neural-network kernels with hand-written backward rules.

Shapes follow the conventions: signals are (channels, length) or
(batch, channels, length); sequences are (seq, dim) or (batch, seq, dim).
Unbatched inputs are accepted everywhere and returned unbatched.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, ShapeError
from ..rand import Rng
from .tensor import Tensor

# Python floats, so a float32 operand stays float32 (np.float64 would upcast)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# The float32 erf of Eigen and XLA: erf(z) = z P(z^2) / Q(z^2) on z clamped
# to +-4, highest power first; P is halved (exactly), so Phi = 0.5 + zP/Q.
_ERF_P = tuple(0.5 * c for c in (-2.72614225801306e-10, 2.77068142495902e-08,
    -2.10102402082508e-06, -5.69250639462346e-05, -7.34990630326855e-04,
    -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02)
_CDF_BLOCK = 65536  # elements per in-place pass: four 256 KiB buffers, in L2


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias, with weight shaped (in_features, out_features)."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"linear input width {x.shape[-1]} != weight rows {weight.shape[0]}"
        )
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF in the dtype of ``x``: float32 by the blocked rational
    erf above, clipped to [0, 1], error <= 3e-7; float64 exactly, by math.erf."""
    if x.dtype != np.float32:
        return 0.5 * (1 + np.asarray(np.frompyfunc(math.erf, 1, 1)(x / _SQRT2), float))
    flat = np.ascontiguousarray(x).reshape(-1)
    cdf = np.empty_like(flat)
    z, z2, q = np.empty((3, min(_CDF_BLOCK, flat.size)), np.float32)
    for start in range(0, flat.size, _CDF_BLOCK):
        p = cdf[start : start + _CDF_BLOCK]
        zb, z2b, qb = z[: p.size], z2[: p.size], q[: p.size]
        np.multiply(flat[start : start + _CDF_BLOCK], 1.0 / _SQRT2, out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)
        np.multiply(zb, zb, out=z2b)
        for out, coeffs in ((p, _ERF_P), (qb, _ERF_Q)):
            np.multiply(z2b, coeffs[0], out=out)
            for c in coeffs[1:-1]:
                out += c
                out *= z2b
            out += coeffs[-1]
        p *= zb
        p /= qb
        p += 0.5
        np.clip(p, 0.0, 1.0, out=p)
    return cdf.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x), with Phi from ``_normal_cdf``."""
    cdf = _normal_cdf(x.data)

    def backward(g):
        buf = np.square(x.data)  # g * (cdf + x * pdf), in one buffer
        buf *= -0.5
        np.exp(buf, out=buf)
        buf *= _INV_SQRT_2PI
        buf *= x.data
        buf += cdf
        buf *= g
        x.accumulate_grad(buf)

    return Tensor.from_op(x.data * cdf, (x,), backward)


def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``a`` along ``axis``, computed in place in ``a``."""
    a -= a.max(axis=axis, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=axis, keepdims=True)
    return a


def _softmax_backward(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite ``g``, the gradient at softmax output ``y``, with the input's."""
    g -= (g * y).sum(axis=axis, keepdims=True)
    g *= y
    return g


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    y = _softmax(np.copy(x.data), axis)

    def backward(g):
        # g is this node's own buffer, dropped by the tape after this rule
        x.accumulate_grad(_softmax_backward(g, y, axis))

    return Tensor.from_op(y, (x,), backward)


def dropout(x: Tensor, p: float, rng: Rng | None, training: bool) -> Tensor:
    """Inverted dropout: scale kept activations by 1/(1-p) at train time."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    # a one-byte mask: x * keep * scale gives the bytes of x * (keep / (1 - p)),
    # signed zeros, overflow and NaN included
    keep = rng.uniform(size=x.shape) >= p
    scale = np.asarray(1, x.data.dtype) / (1.0 - p)

    def backward(g):
        gx = g * keep
        gx *= scale
        x.accumulate_grad(gx)

    out = x.data * keep
    out *= scale
    return Tensor.from_op(out, (x,), backward)


def _conv_shape_check(x, weight, stride, padding, groups):
    n, c_in, length = x.shape
    c_out, c_in_g, k = weight.shape
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if groups < 1 or c_in % groups or c_out % groups:
        raise ShapeError(
            f"groups={groups} must divide in={c_in} and out={c_out} channels"
        )
    if c_in_g != c_in // groups:
        raise ShapeError(
            f"weight expects {c_in_g} input channels per group, "
            f"input provides {c_in // groups}"
        )
    padded = length + 2 * padding
    if k > padded:
        raise ShapeError(f"kernel {k} longer than padded input {padded}")
    return n, c_in, length, c_out, k


def _windows(x, k, stride, padding, groups):
    """(N, C_in, L) -> (N, g, C_in/g*K, L_out): column j of group g's matrix
    holds window j of the padded input, tap kk of channel c at row c*K + kk,
    so tap kk of every window is one strided slice of the input."""
    n, c_in, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    l_out = win.shape[2]
    return np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(
        n, groups, (c_in // groups) * k, l_out
    )


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """Strided cross-correlation over the last axis.

    ``x`` is (C_in, L) or (N, C_in, L); ``weight`` is (C_out, C_in/groups, K).
    Output length is floor((L + 2*padding - K)/stride) + 1.

    The window matrix is not kept for backward: the weight gradient rebuilds
    it from the input, which the tape holds anyway.
    """
    squeeze = x.ndim == 2
    xb = x.reshape(1, *x.shape) if squeeze else x
    n, c_in, length, c_out, k = _conv_shape_check(
        xb.data, weight.data, stride, padding, groups
    )
    l_out = (length + 2 * padding - k) // stride + 1
    g = groups
    # (g, C_out/g, C_in/g*K) @ (N, g, C_in/g*K, L_out) writes the
    # (N, C_out, L_out) output directly
    wmat = weight.data.reshape(g, c_out // g, (c_in // g) * k)
    y = (wmat @ _windows(xb.data, k, stride, padding, g)).reshape(n, c_out, l_out)

    def backward(gy):
        gy4 = gy.reshape(n, g, c_out // g, l_out)
        if weight.requires_grad:
            cols = _windows(xb.data, k, stride, padding, g)
            gw = (gy4 @ cols.transpose(0, 1, 3, 2)).sum(axis=0)
            weight.accumulate_grad(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gy.reshape(n, c_out, l_out).sum(axis=(0, 2)))
        if xb.requires_grad:
            gwin = (wmat.transpose(0, 2, 1) @ gy4).reshape(n, c_in, k, l_out)
            gxp = np.zeros((n, c_in, length + 2 * padding), xb.data.dtype)
            span = stride * (l_out - 1) + 1
            for kk in range(k):  # tap kk of window j reads sample j*stride + kk
                gxp[:, :, kk : kk + span : stride] += gwin[:, :, kk]
            xb.accumulate_grad(gxp[:, :, padding : padding + length])

    if bias is not None:
        y = y + bias.data[:, None]
    out = Tensor.from_op(y, (xb, weight) + ((bias,) if bias is not None else ()), backward)
    return out.reshape(c_out, l_out) if squeeze else out


def _standardize(x: np.ndarray, axes, eps: float):
    """(z, mu, inv_std) of ``x`` standardised over ``axes``, keepdims shapes."""
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    return (x - mu) * inv_std, mu, inv_std


def _standardize_backward(ghat, z, inv_std, axes) -> np.ndarray:
    """The input gradient of ``_standardize``, from ``ghat`` at its output z."""
    ghat_mean = ghat.mean(axis=axes, keepdims=True)
    ghat_z_mean = (ghat * z).mean(axis=axes, keepdims=True)
    return (ghat - ghat_mean - z * ghat_z_mean) * inv_std


def _affine_norm(x: Tensor, view, axes, gamma: Tensor, beta: Tensor, reduce_axes, eps):
    """``_standardize`` over ``axes`` of ``x`` viewed as ``view``, then scaled
    by gamma and shifted by beta, which broadcast over ``reduce_axes`` of x.
    The tape keeps mu and inv_std; backward rebuilds z from the input."""
    affine = tuple(1 if i in reduce_axes else s for i, s in enumerate(x.shape))
    z, mu, inv_std = _standardize(x.data.reshape(view), axes, eps)
    y = z.reshape(x.shape) * gamma.data.reshape(affine) + beta.data.reshape(affine)

    def backward(gy):
        if gamma.requires_grad or x.requires_grad:
            z = (x.data.reshape(view) - mu) * inv_std
        if gamma.requires_grad:
            gamma.accumulate_grad((gy * z.reshape(x.shape)).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta.accumulate_grad(gy.sum(axis=reduce_axes))
        if x.requires_grad:
            ghat = (gy * gamma.data.reshape(affine)).reshape(view)
            gx = _standardize_backward(ghat, z, inv_std, axes)
            x.accumulate_grad(gx.reshape(x.shape))

    return Tensor.from_op(y, (x, gamma, beta), backward)


def group_norm(
    x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Per-group normalization over (channels/groups, length) with affine:
    layer norm over each group's channels and length."""
    squeeze = x.ndim == 2
    xb = x.reshape(1, *x.shape) if squeeze else x
    n, c, length = xb.shape
    if c % groups:
        raise ShapeError(f"{c} channels not divisible by {groups} groups")
    view = (n, groups, c // groups, length)
    out = _affine_norm(xb, view, (2, 3), gamma, beta, (0, 2), eps)
    return out.reshape(c, length) if squeeze else out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learned affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    return _affine_norm(x, x.shape, -1, gamma, beta, tuple(range(x.ndim - 1)), eps)


def multi_head_attention(
    x: Tensor,
    heads: int,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
) -> Tensor:
    """Bias-free multi-head self-attention over (S, D) or (N, S, D), as one
    tape node that keeps q, k, v, the softmax ``a`` and ``ctx``; it repeats
    the arithmetic of the attention composed from Tensor ops, byte for byte."""
    d = x.shape[-1]
    if d % heads:
        raise ShapeError(f"model dim {d} not divisible by {heads} heads")
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv), ("wo", wo)):
        if w.shape != (d, d):
            raise ShapeError(f"{name} must be ({d}, {d}), got {w.shape}")
    xd = x.data if x.ndim == 3 else x.data[None]
    n, s, _ = xd.shape
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), xd.dtype)

    def split(t):  # (N, S, D) -> (N, H, S, dh), a view
        return t.reshape(n, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (N, H, S, dh) -> (N, S, D), a copy
        return t.transpose(0, 2, 1, 3).reshape(n, s, d)

    # scale q (N, H, S, dh), not the larger (N, H, S, S) scores
    q = split(xd @ wq.data) * scale
    k = split(xd @ wk.data)
    v = split(xd @ wv.data)
    a = _softmax(q @ k.mT, axis=-1)
    ctx = merge(a @ v)

    def backward(g):
        g = g.reshape(n, s, d)
        if wo.requires_grad:
            wo.accumulate_grad((ctx.mT @ g).sum(axis=0))
        gctx = split(g @ wo.data.mT)
        gs = _softmax_backward(gctx @ v.mT, a, axis=-1)  # at the scores
        # the gradients at x @ wq, x @ wk and x @ wv
        gms = (merge((gs @ k) * scale), merge((q.mT @ gs).mT), merge(a.mT @ gctx))
        for w, gm in zip((wq, wk, wv), gms):
            if w.requires_grad:
                w.accumulate_grad((xd.mT @ gm).sum(axis=0))
        if x.requires_grad:  # summed in the order the composed tape adds them
            gx = gms[0] @ wq.data.mT
            gx += gms[1] @ wk.data.mT
            gx += gms[2] @ wv.data.mT
            x.accumulate_grad(gx.reshape(x.shape))

    out = (ctx @ wo.data).reshape(x.shape)
    return Tensor.from_op(out, (x, wq, wk, wv, wo), backward)


def kaiming_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
