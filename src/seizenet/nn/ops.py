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
from .tensor import Tensor, _unbroadcast

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
_CDF_BLOCK = 65536  # elements per in-place pass: 256 KiB float32 scratch rows, in L2
_NORM_EPS = 1e-5  # added to the variance by group norm and layer norm


def _check_linear(x_shape, w_shape) -> None:
    """The ShapeErrors of ``x @ w`` as ``linear`` and ``Tensor`` raise them."""
    if x_shape[-1] != w_shape[0]:
        raise ShapeError(
            f"linear input width {x_shape[-1]} != weight rows {w_shape[0]}"
        )
    if len(x_shape) < 2 or len(w_shape) < 2:
        raise ShapeError(f"matmul needs >=2 dims, got {x_shape} @ {w_shape}")


def _dense_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b, need_gx: bool):
    """Accumulate the gradients of ``x @ w + b`` at ``g`` into w and b (b may
    be None) where they need one; return the input gradient ``g @ w.T`` if
    ``need_gx``, else None."""
    if w.requires_grad:
        w.accumulate_grad(_unbroadcast(x.mT @ g, w.shape))
    if b is not None and b.requires_grad:
        b.accumulate_grad(_unbroadcast(g, b.shape))
    return g @ w.data.mT if need_gx else None


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias, with weight shaped (in_features, out_features)."""
    _check_linear(x.shape, weight.shape)
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def _cdf_into(x: np.ndarray, p: np.ndarray, work: np.ndarray) -> None:
    """Write Phi of the flat block ``x`` into ``p``: float32 by the rational erf
    above, clipped to [0, 1], error <= 3e-7; float64 exactly, by math.erf.
    ``work`` has three scratch rows at least as long as ``x``."""
    if x.dtype != np.float32:
        p[...] = 0.5 * (1 + np.asarray(np.frompyfunc(math.erf, 1, 1)(x / _SQRT2), float))
        return
    z, z2, q = work[:3, : x.size]
    np.multiply(x, 1.0 / _SQRT2, out=z)
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=z2)
    for out, coeffs in ((p, _ERF_P), (q, _ERF_Q)):
        np.multiply(z2, coeffs[0], out=out)
        for c in coeffs[1:-1]:
            out += c
            out *= z2
        out += coeffs[-1]
    p *= z
    p /= q
    p += 0.5
    np.clip(p, 0.0, 1.0, out=p)


def _work(flat: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` scratch rows, each one ``_CDF_BLOCK`` of ``flat`` long."""
    return np.empty((rows, min(_CDF_BLOCK, flat.size)), flat.dtype)


def _gelu(x: np.ndarray, keep_cdf: bool = False, out: np.ndarray | None = None):
    """(x * Phi(x), Phi(x) if ``keep_cdf`` else None), one ``_CDF_BLOCK`` at a
    time.  ``out``, a C-contiguous array of x's shape, takes the product and
    may be ``x`` itself."""
    flat = np.ascontiguousarray(x).reshape(-1)
    y = np.empty_like(flat) if out is None else out.reshape(-1)
    cdf = np.empty_like(flat) if keep_cdf else None
    work = _work(flat, 4)
    for start in range(0, flat.size, _CDF_BLOCK):
        xb = flat[start : start + _CDF_BLOCK]
        p = work[3, : xb.size] if cdf is None else cdf[start : start + _CDF_BLOCK]
        _cdf_into(xb, p, work)
        np.multiply(xb, p, out=y[start : start + _CDF_BLOCK])
    return y.reshape(x.shape), None if cdf is None else cdf.reshape(x.shape)


def _gelu_backward(g: np.ndarray, x: np.ndarray, cdf: np.ndarray | None = None):
    """g * (Phi(x) + x * pdf(x)), the input gradient of ``_gelu`` from ``g`` at
    its output, one ``_CDF_BLOCK`` at a time; written over ``g`` when g is
    C-contiguous.  Phi is recomputed block by block when ``cdf`` is None."""
    gf = np.ascontiguousarray(g).reshape(-1)
    flat = np.ascontiguousarray(x).reshape(-1)
    cf = None if cdf is None else np.ascontiguousarray(cdf).reshape(-1)
    work = _work(flat, 5)
    for start in range(0, flat.size, _CDF_BLOCK):
        xb = flat[start : start + _CDF_BLOCK]
        buf = work[3, : xb.size]
        np.square(xb, out=buf)
        buf *= -0.5
        np.exp(buf, out=buf)
        buf *= _INV_SQRT_2PI
        buf *= xb
        if cf is None:
            p = work[4, : xb.size]
            _cdf_into(xb, p, work)
            buf += p
        else:
            buf += cf[start : start + _CDF_BLOCK]
        gb = gf[start : start + _CDF_BLOCK]
        np.multiply(buf, gb, out=gb)
    return gf.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x); the tape keeps x and Phi(x)."""
    y, cdf = _gelu(x.data, keep_cdf=True)

    def backward(g):
        # g is this node's own buffer, dropped by the tape after this rule
        x.accumulate_grad(_gelu_backward(g, x.data, cdf))

    return Tensor.from_op(y, (x,), backward)


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


def _dropout_mask(shape, p: float, rng: Rng | None, training: bool):
    """The one-byte keep mask of inverted dropout, or None where dropout is
    the identity (at eval time, or p = 0)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    # uniform(size=shape) >= p, drawn one _CDF_BLOCK at a time from the same
    # stream, so no float64 array of the full shape is made
    keep = np.empty(shape, bool)
    flat = keep.reshape(-1)
    u = np.empty(min(_CDF_BLOCK, flat.size))
    for start in range(0, flat.size, _CDF_BLOCK):
        ub = rng.random(out=u[: flat.size - start])
        np.greater_equal(ub, p, out=flat[start : start + _CDF_BLOCK])
    return keep


def _dropout(a: np.ndarray, keep: np.ndarray, p: float, out=None) -> np.ndarray:
    """a * keep * 1/(1-p): the bytes of a * (keep / (1 - p)), signed zeros,
    overflow and NaN included.  Dropout is linear, so this is both its
    forward and, with ``a`` the output gradient, its backward."""
    out = np.multiply(a, keep, out=out)
    out *= np.asarray(1, a.dtype) / (1.0 - p)
    return out


def dropout(x: Tensor, p: float, rng: Rng | None, training: bool) -> Tensor:
    """Inverted dropout: scale kept activations by 1/(1-p) at train time."""
    keep = _dropout_mask(x.shape, p, rng, training)
    if keep is None:
        return x

    def backward(g):
        # g is this node's own buffer, dropped by the tape after this rule
        x.accumulate_grad(_dropout(g, keep, p, out=g))

    return Tensor.from_op(_dropout(x.data, keep, p), (x,), backward)


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


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride, padding, groups):
    """The forward of ``conv1d`` on an (N, C_in, L) array: (N, C_out, L_out)."""
    n, c_in, length, c_out, k = _conv_shape_check(x, w, stride, padding, groups)
    l_out = (length + 2 * padding - k) // stride + 1
    # (g, C_out/g, C_in/g*K) @ (N, g, C_in/g*K, L_out) writes the
    # (N, C_out, L_out) output directly
    wmat = w.reshape(groups, c_out // groups, (c_in // groups) * k)
    y = (wmat @ _windows(x, k, stride, padding, groups)).reshape(n, c_out, l_out)
    return y if b is None else y + b[:, None]


def _conv_backward(gy, x: Tensor, weight: Tensor, bias, stride, padding, g):
    """Accumulate the gradients of ``_conv`` at output gradient ``gy`` into
    those of x (batched), weight and bias that need one."""
    n, c_in, length = x.shape
    c_out, _, k = weight.shape
    l_out = gy.shape[-1]
    gy4 = gy.reshape(n, g, c_out // g, l_out)
    if weight.requires_grad:
        cols = _windows(x.data, k, stride, padding, g)
        gw = (gy4 @ cols.transpose(0, 1, 3, 2)).sum(axis=0)
        weight.accumulate_grad(gw.reshape(weight.shape))
    if bias is not None and bias.requires_grad:
        bias.accumulate_grad(gy.reshape(n, c_out, l_out).sum(axis=(0, 2)))
    if x.requires_grad:
        wmat = weight.data.reshape(g, c_out // g, (c_in // g) * k)
        gwin = (wmat.transpose(0, 2, 1) @ gy4).reshape(n, c_in, k, l_out)
        gxp = np.zeros((n, c_in, length + 2 * padding), x.data.dtype)
        span = stride * (l_out - 1) + 1
        for kk in range(k):  # tap kk of window j reads sample j*stride + kk
            gxp[:, :, kk : kk + span : stride] += gwin[:, :, kk]
        x.accumulate_grad(gxp[:, :, padding : padding + length])


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
    b = None if bias is None else bias.data
    y = _conv(xb.data, weight.data, b, stride, padding, groups)

    def backward(gy):
        _conv_backward(gy, xb, weight, bias, stride, padding, groups)

    out = Tensor.from_op(y, (xb, weight) + ((bias,) if bias is not None else ()), backward)
    return out.reshape(*y.shape[1:]) if squeeze else out


def _standardize(x: np.ndarray, axes, out: np.ndarray | None = None):
    """(z, mu, inv_std) of ``x`` standardised over ``axes``, keepdims shapes;
    z is written to ``out`` when given, which may be ``x`` itself."""
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
    z = np.subtract(x, mu, out=out)
    z *= inv_std
    return z, mu, inv_std


def _standardize_backward(ghat, z, inv_std, axes) -> np.ndarray:
    """The input gradient of ``_standardize``, from ``ghat`` at its output z,
    written over ``ghat``."""
    ghat_mean = ghat.mean(axis=axes, keepdims=True)
    gz = ghat * z
    ghat_z_mean = gz.mean(axis=axes, keepdims=True)
    ghat -= ghat_mean
    ghat -= np.multiply(z, ghat_z_mean, out=gz)
    ghat *= inv_std
    return ghat


def _affine_shape(shape, reduce_axes):
    return tuple(1 if i in reduce_axes else s for i, s in enumerate(shape))


def _affine(z: np.ndarray, shape, gamma: np.ndarray, beta: np.ndarray, reduce_axes):
    """z viewed as ``shape``, scaled by gamma and shifted by beta, which
    broadcast over ``reduce_axes``."""
    affine = _affine_shape(shape, reduce_axes)
    return z.reshape(shape) * gamma.reshape(affine) + beta.reshape(affine)


def _affine_backward(gy, z, inv_std, axes, gamma, beta, reduce_axes, need_gx, out=None):
    """Accumulate the gamma and beta gradients of ``_affine`` at ``gy``, and
    return the gradient at the input of ``_standardize`` (z's view shape)
    if ``need_gx``, else None; ``out`` may take it."""
    if gamma.requires_grad:
        gamma.accumulate_grad((gy * z.reshape(gy.shape)).sum(axis=reduce_axes))
    if beta.requires_grad:
        beta.accumulate_grad(gy.sum(axis=reduce_axes))
    if not need_gx:
        return None
    affine = _affine_shape(gy.shape, reduce_axes)
    ghat = np.multiply(gy, gamma.data.reshape(affine), out=out).reshape(z.shape)
    return _standardize_backward(ghat, z, inv_std, axes)


def _affine_norm(x: Tensor, view, axes, gamma: Tensor, beta: Tensor, reduce_axes):
    """``_standardize`` over ``axes`` of ``x`` viewed as ``view``, then
    ``_affine`` over ``reduce_axes`` of x.  The tape keeps mu and inv_std;
    backward rebuilds z from the input."""
    z, mu, inv_std = _standardize(x.data.reshape(view), axes)
    y = _affine(z, x.shape, gamma.data, beta.data, reduce_axes)

    def backward(gy):
        z = (x.data.reshape(view) - mu) * inv_std
        need_gx = x.requires_grad
        gx = _affine_backward(gy, z, inv_std, axes, gamma, beta, reduce_axes, need_gx)
        if gx is not None:
            x.accumulate_grad(gx.reshape(x.shape))

    return Tensor.from_op(y, (x, gamma, beta), backward)


def _check_groups(c: int, groups: int) -> None:
    if c % groups:
        raise ShapeError(f"{c} channels not divisible by {groups} groups")


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-group normalization over (channels/groups, length) with affine:
    layer norm over each group's channels and length."""
    squeeze = x.ndim == 2
    xb = x.reshape(1, *x.shape) if squeeze else x
    n, c, length = xb.shape
    _check_groups(c, groups)
    view = (n, groups, c // groups, length)
    out = _affine_norm(xb, view, (2, 3), gamma, beta, (0, 2))
    return out.reshape(c, length) if squeeze else out


def conv_block(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stride: int,
    groups: int,
    p: float,
    rng: Rng | None,
    training: bool,
) -> Tensor:
    """One encoder block as one tape node: ``gelu(group_norm(dropout(conv1d(x,
    weight, bias, stride), p, rng, training), groups, gamma, beta))``, byte
    for byte, with the same errors.

    ``x`` is (N, C_in, L).  The tape keeps the one-byte dropout mask, the
    per-group inv_std and group norm's z, the bytes the composed backward
    rebuilds as (x - mu) * inv_std.  Backward recomputes z * gamma + beta and
    Phi of it block by block, and the conv windows from ``x``, which the tape
    holds anyway.
    """
    if x.ndim != 3:
        raise ShapeError(f"expected an (N, C_in, L) batch, got {x.shape}")
    y = _conv(x.data, weight.data, bias.data, stride, 0, 1)
    keep = _dropout_mask(y.shape, p, rng, training)
    n, c, length = y.shape
    _check_groups(c, groups)
    if keep is not None:
        _dropout(y, keep, p, out=y)
    view, axes, reduce_axes = (n, groups, c // groups, length), (2, 3), (0, 2)
    z, _, inv_std = _standardize(y.reshape(view), axes, out=y.reshape(view))
    h = _affine(z, y.shape, gamma.data, beta.data, reduce_axes)
    out, _ = _gelu(h, out=h)

    def backward(g):
        h = _affine(z, g.shape, gamma.data, beta.data, reduce_axes)
        gh = _gelu_backward(g, h)
        need_gx = x.requires_grad or weight.requires_grad or bias.requires_grad
        # h is spent, so its buffer takes the gradient at the dropout output
        gd = _affine_backward(
            gh, z, inv_std, axes, gamma, beta, reduce_axes, need_gx, out=h
        )
        if gd is None:
            return
        gd = gd.reshape(g.shape)
        if keep is not None:
            _dropout(gd, keep, p, out=gd)
        _conv_backward(gd, x, weight, bias, stride, 0, 1)

    return Tensor.from_op(out, (x, weight, bias, gamma, beta), backward)


def _add_bias(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, written over ``a`` when that keeps the dtype of a + b."""
    return np.add(a, b, out=a if a.dtype == np.result_type(a, b) else None)


def feed_forward(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    p: float,
    rng: Rng | None,
    training: bool,
) -> Tensor:
    """A transformer FFN as one tape node: ``dropout(linear(gelu(linear(x, w1,
    b1)), w2, b2), p, rng, training)``, byte for byte, with the same errors.

    The tape keeps the pre-activation ``u = x @ w1 + b1`` and the one-byte
    dropout mask; GELU(u) is dropped once ``@ w2`` has read it.  Backward
    recomputes GELU(u) and Phi(u) once, for w2's gradient and GELU's.
    """
    _check_linear(x.shape, w1.shape)
    u = _add_bias(x.data @ w1.data, b1.data)
    _check_linear(u.shape, w2.shape)
    out = _add_bias(_gelu(u)[0] @ w2.data, b2.data)
    keep = _dropout_mask(out.shape, p, rng, training)
    if keep is not None:
        _dropout(out, keep, p, out=out)

    def backward(g):
        # g is this node's own buffer, dropped by the tape after this rule
        if keep is not None:
            _dropout(g, keep, p, out=g)
        y, cdf = _gelu(u, keep_cdf=True)
        _dense_backward(g, y, w2, b2, False)
        del y  # before g @ w2.T, so three (N, S, ffn_dim) arrays never coexist
        gu = _gelu_backward(g @ w2.data.mT, u, cdf)
        gx = _dense_backward(gu, x.data, w1, b1, x.requires_grad)
        if gx is not None:
            x.accumulate_grad(gx)

    return Tensor.from_op(out, (x, w1, b1, w2, b2), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalization over the last axis with learned affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    return _affine_norm(x, x.shape, -1, gamma, beta, tuple(range(x.ndim - 1)))


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
        gctx = split(_dense_backward(g.reshape(n, s, d), ctx, wo, None, True))
        gs = _softmax_backward(gctx @ v.mT, a, axis=-1)  # at the scores
        # the gradients at x @ wq, x @ wk and x @ wv
        gms = (merge((gs @ k) * scale), merge((q.mT @ gs).mT), merge(a.mT @ gctx))
        gx = None  # summed in the order the composed tape adds them
        for w, gm in zip((wq, wk, wv), gms):
            part = _dense_backward(gm, xd, w, None, x.requires_grad)
            gx = part if gx is None else np.add(gx, part, out=gx)
            del part  # so no product outlives its sum
        if gx is not None:
            x.accumulate_grad(gx.reshape(x.shape))

    out = (ctx @ wo.data).reshape(x.shape)
    return Tensor.from_op(out, (x, wq, wk, wv, wo), backward)


def kaiming_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
