"""Kernel-level tests: forward values against hand sums, gradients against
central finite differences, graph release and ``no_grad``, and the
checkpoint container format."""

import hashlib
import json
import math
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from seizenet.errors import CheckpointError, ConfigError, NumericsError, ShapeError
from seizenet.nn import (
    Tensor,
    checkpoint_bytes,
    concat,
    config_hash,
    conv1d,
    conv_block,
    dropout,
    feed_forward,
    gelu,
    grad_check,
    group_norm,
    kaiming_uniform,
    layer_norm,
    linear,
    load_checkpoint,
    multi_head_attention,
    no_grad,
    parse_checkpoint,
    save_checkpoint,
    softmax,
)
from seizenet.nn.checkpoint import HEADER
from seizenet.nn.ops import _CDF_BLOCK, _gelu
from seizenet.model import (
    ModelConfig,
    forward_classifier,
    init_weights,
    transformer_forward,
)
from seizenet.preprocess import normalize
from seizenet.rand import Rng
from seizenet.training import _predict_probs


def rand_tensor(rng, *shape, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


class TestTensorBasics:
    def test_broadcast_add_mul_gradients(self):
        rng = Rng(1).child("t")
        a = rand_tensor(rng, 3, 1, 4)
        b = rand_tensor(rng, 5, 1)
        report = grad_check(lambda x, y: ((x + y) * (x * y)).sum(), [a, b])
        assert report.passed(1e-4)

    def test_matmul_batched_gradients(self):
        rng = Rng(2).child("t")
        a = rand_tensor(rng, 2, 3, 4)
        b = rand_tensor(rng, 4, 5)
        report = grad_check(lambda x, y: (x @ y).sum(), [a, b])
        assert report.passed(1e-4)

    def test_reshape_transpose_getitem_concat_gradients(self):
        rng = Rng(3).child("t")
        a = rand_tensor(rng, 4, 6)
        b = rand_tensor(rng, 2, 6)

        def closure(x, y):
            top = x.reshape(2, 2, 6).transpose(1, 0, 2)[0]
            return (concat([top, y], axis=0) ** 2).sum()

        assert grad_check(closure, [a, b]).passed(1e-4)

    def test_elementwise_chain_gradients(self):
        rng = Rng(4).child("t")
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        report = grad_check(
            lambda x: (x.exp().log().sqrt() / (x + 1.0)).mean(), [a]
        )
        assert report.passed(1e-4)

    def test_clip_min_blocks_gradient_where_clipped(self):
        a = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        (a.clip_min(0.0).sum()).backward()
        npt.assert_array_equal(a.grad, [0.0, 1.0])

    def test_backward_requires_scalar_or_seed(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (a * 2.0).backward()

    def test_gradient_accumulates_across_shared_use(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        ((a * a) + a).backward()  # d/da (a^2 + a) = 2a + 1
        npt.assert_allclose(a.grad, [7.0])


class TestGraphRelease:
    @staticmethod
    def two_layer_loss(w1, w2, x):
        return (gelu(x @ w1) @ w2).sum()

    def test_backward_frees_interior_nodes(self):
        rng = Rng(30).child("t")
        w = rand_tensor(rng, 4, 3)
        hidden = gelu(Tensor(rng.normal(size=(2, 4))) @ w)
        alive = weakref.ref(hidden)
        loss = (hidden * hidden).sum()
        del hidden
        assert alive() is not None  # the tape holds it until backward
        loss.backward()
        assert alive() is None
        assert loss.grad is None
        assert w.grad is not None

    def test_leaf_grads_match_an_independent_pass(self):
        rng = Rng(31).child("t")
        w1, w2 = rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
        x = Tensor(rng.normal(size=(3, 4)))
        grads = []
        for _ in range(2):
            a, b = Tensor(w1.copy(), True), Tensor(w2.copy(), True)
            self.two_layer_loss(a, b, x).backward()
            grads.append((a.grad, b.grad))
        npt.assert_array_equal(grads[0][0], grads[1][0])
        npt.assert_array_equal(grads[0][1], grads[1][1])
        hidden = gelu(Tensor(x.data @ w1)).data
        npt.assert_allclose(grads[0][1], hidden.T @ np.ones((3, 2)), rtol=1e-12)

    def test_second_backward_through_a_graph_raises(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        shared = a * 3.0
        loss = (shared * shared).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already released"):
            shared.sum().backward()

    def test_first_gradient_write_keeps_the_layout_of_data(self):
        rng = Rng(32).child("t")
        data = np.asfortranarray(rng.normal(size=(3, 4)))
        t = Tensor(data, requires_grad=True)
        g = rng.normal(size=(3, 4))
        t.accumulate_grad(g)
        assert t.grad.strides == data.strides
        npt.assert_array_equal(t.grad, np.zeros_like(data) + g)
        row = rng.normal(size=4)
        t.zero_grad()
        t.accumulate_grad(row)
        npt.assert_array_equal(t.grad, np.zeros_like(data) + row)


class TestNoGrad:
    def test_ops_record_nothing(self):
        rng = Rng(33).child("t")
        x = rand_tensor(rng, 2, 3, 8)
        w = rand_tensor(rng, 4, 3, 2)
        with no_grad():
            out = softmax(gelu(conv1d(x, w, stride=2)) @ rand_tensor(rng, 4, 4))
        assert not out.requires_grad
        assert (x * 2.0).requires_grad

    def test_flag_restored_after_nesting_and_exceptions(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (a + 1.0).requires_grad
        assert (a + 1.0).requires_grad
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inside")
        assert (a + 1.0).requires_grad

    def test_predict_probs_records_no_tape_and_matches_a_recording_forward(
        self, monkeypatch
    ):
        taped = []
        from_op = Tensor.from_op

        def counting_from_op(data, parents, backward):
            out = from_op(data, parents, backward)
            taped.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "from_op", staticmethod(counting_from_op))
        config = ModelConfig(
            in_channels=2,
            conv_blocks=3,
            conv_channels=16,
            transformer_layers=2,
            heads=4,
            model_dim=16,
            ffn_dim=32,
            classifier_dims=((16, 8), (8, 2)),
            group_norm_groups=4,
            pos_conv_kernel=5,
            pos_conv_groups=4,
        )
        params = init_weights(config, "random", Rng(34).child("init"))
        X = Rng(35).child("x").normal(size=(5, 2, 72))
        recorded = forward_classifier(config, params, X[:3])
        assert recorded.requires_grad
        recorded = np.concatenate(
            [recorded.data, forward_classifier(config, params, X[3:]).data]
        )
        assert any(taped)
        taped.clear()
        npt.assert_array_equal(_predict_probs(config, params, X, 3), recorded)
        assert taped and not any(taped)


class TestTapeMemory:
    def test_training_forward_keeps_no_copies_on_the_tape(self):
        # per element of a conv block's output the tape needs the conv output,
        # the dropout output, the group norm output, GELU's cdf and output
        # (float32 each) and a one-byte dropout mask: 21 bytes; the input
        # window and the transformer add ~6 more at this shape.  A saved
        # im2col matrix, a float32 mask or group norm's z each add 3 or more
        config = ModelConfig(
            in_channels=4,
            conv_blocks=6,
            conv_channels=16,
            transformer_layers=2,
            heads=4,
            model_dim=16,
            ffn_dim=32,
            classifier_dims=((16, 8), (8, 2)),
            group_norm_groups=4,
            pos_conv_kernel=5,
            pos_conv_groups=4,
        )
        params = init_weights(config, "random", Rng(47).child("init"))
        n, length = 4, 96 * 32 + 5
        X = Rng(48).child("x").normal(size=(n, 4, length)).astype(np.float32)
        forward_classifier(config, params, X, rng=Rng(49), training=True)
        tracemalloc.start()
        try:
            probs = forward_classifier(config, params, X, rng=Rng(49), training=True)
            tape = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert probs.requires_grad
        activations = 0
        for stride in config.conv_strides:
            length //= stride
            activations += n * config.conv_channels * length
        assert tape < 29 * activations

    def test_conv_block_keeps_z_and_a_one_byte_mask(self):
        # the block node keeps z (4 bytes) and the mask (1) per element of a
        # conv block's output, and the output (4) is the next block's input:
        # 9 bytes, plus ~5 for the input window and the transformer at this
        # shape.  Any other full-size float32 array kept per block adds 4
        config = ModelConfig(
            in_channels=4,
            conv_blocks=6,
            conv_channels=16,
            transformer_layers=2,
            heads=4,
            model_dim=16,
            ffn_dim=32,
            classifier_dims=((16, 8), (8, 2)),
            group_norm_groups=4,
            pos_conv_kernel=5,
            pos_conv_groups=4,
        )
        params = init_weights(config, "random", Rng(47).child("init"))
        n, length = 4, 96 * 32 + 5
        X = Rng(48).child("x").normal(size=(n, 4, length)).astype(np.float32)
        forward_classifier(config, params, X, rng=Rng(49), training=True)
        tracemalloc.start()
        try:
            probs = forward_classifier(config, params, X, rng=Rng(49), training=True)
            tape = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert probs.requires_grad
        activations = 0
        for stride in config.conv_strides:
            length //= stride
            activations += n * config.conv_channels * length
        assert tape < 20 * activations

    def test_feed_forward_keeps_u_and_a_one_byte_mask(self):
        # per position and layer, at width D and ffn_dim 4D, the FFN node
        # keeps u (16D bytes) and the mask (D), and its output (4D) is the
        # residual add's input; attention, the two layer norms, the residual
        # sums and the positional conv bring the tape to ~101D at this shape.
        # The composed FFN kept x @ w1, GELU's Phi and output (48D more) and
        # two more output-sized arrays (8D): ~158D
        d = 16
        config = ModelConfig(
            in_channels=4,
            conv_blocks=6,
            conv_channels=d,
            transformer_layers=2,
            heads=4,
            model_dim=d,
            ffn_dim=4 * d,
            classifier_dims=((16, 8), (8, 2)),
            group_norm_groups=4,
            pos_conv_kernel=5,
            pos_conv_groups=4,
        )
        params = init_weights(config, "random", Rng(47).child("init"))
        n, s = 4, 24
        x = Rng(48).child("x").normal(size=(n, s, d)).astype(np.float32)
        seq = Tensor(x, requires_grad=True)
        transformer_forward(config, params, seq, rng=Rng(49), training=True)
        tracemalloc.start()
        try:
            out = transformer_forward(config, params, seq, rng=Rng(49), training=True)
            tape = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert tape < 120 * d * n * s * config.transformer_layers


class TestConv1d:
    def test_hand_sum_stride_2(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        w = Tensor(np.array([[[1.0, 1.0]]]))
        b = Tensor(np.array([0.0]))
        y = conv1d(x, w, b, stride=2)
        npt.assert_array_equal(y.data, [[3.0, 7.0]])

    def test_unit_kernel_is_identity(self):
        rng = Rng(5).child("c")
        x = Tensor(rng.normal(size=(3, 9)))
        w = Tensor(np.eye(3)[:, :, None])
        y = conv1d(x, w, stride=1)
        npt.assert_allclose(y.data, x.data)

    def test_kernel_longer_than_input_rejected(self):
        x = Tensor(np.zeros((1, 3)))
        w = Tensor(np.zeros((1, 1, 5)))
        with pytest.raises(ShapeError, match="longer"):
            conv1d(x, w)

    def test_output_length_formula(self):
        x = Tensor(np.zeros((1, 2048)))
        w = Tensor(np.zeros((4, 1, 3)))
        assert conv1d(x, w, stride=3).shape == (4, 682)

    def test_gradients_on_spec_shapes(self):
        rng = Rng(6).child("c")
        x = rand_tensor(rng, 2, 37)
        w = rand_tensor(rng, 3, 2, 5, scale=0.5)
        b = rand_tensor(rng, 3)
        report = grad_check(
            lambda xx, ww, bb: (conv1d(xx, ww, bb, stride=2) ** 2).sum(),
            [x, w, b],
        )
        assert report.max_rel_err < 1e-5

    def test_grouped_conv_equals_independent_convs(self):
        rng = Rng(7).child("c")
        x = Tensor(rng.normal(size=(4, 12)))
        w = Tensor(rng.normal(size=(6, 2, 3)))
        grouped = conv1d(x, w, stride=1, groups=2)
        half_a = conv1d(Tensor(x.data[:2]), Tensor(w.data[:3]), stride=1)
        half_b = conv1d(Tensor(x.data[2:]), Tensor(w.data[3:]), stride=1)
        npt.assert_allclose(
            grouped.data, np.concatenate([half_a.data, half_b.data]), atol=1e-12
        )

    def test_padding_matches_manual_zero_pad(self):
        rng = Rng(8).child("c")
        x = Tensor(rng.normal(size=(2, 10)))
        w = Tensor(rng.normal(size=(3, 2, 5)))
        padded = conv1d(x, w, stride=1, padding=2)
        manual = conv1d(
            Tensor(np.pad(x.data, ((0, 0), (2, 2)))), w, stride=1
        )
        assert padded.shape == (3, 10)
        npt.assert_allclose(padded.data, manual.data, atol=1e-12)

    def test_grouped_padded_gradients(self):
        rng = Rng(9).child("c")
        x = rand_tensor(rng, 4, 8)
        w = rand_tensor(rng, 4, 2, 3, scale=0.5)
        report = grad_check(
            lambda xx, ww: (conv1d(xx, ww, stride=2, padding=1, groups=2)).sum(),
            [x, w],
        )
        assert report.passed(1e-4)

    def test_batched_matches_per_sample(self):
        rng = Rng(10).child("c")
        xb = rng.normal(size=(3, 2, 11))
        w = Tensor(rng.normal(size=(4, 2, 3)))
        batched = conv1d(Tensor(xb), w, stride=2)
        for i in range(3):
            single = conv1d(Tensor(xb[i]), w, stride=2)
            npt.assert_allclose(batched.data[i], single.data, atol=1e-12)

    @pytest.mark.parametrize(
        "k, stride, padding, groups",
        [(2, 3, 0, 1), (3, 3, 0, 1), (5, 2, 0, 1), (3, 2, 1, 2), (5, 1, 2, 4)],
    )
    def test_input_gradient_matches_the_fancy_index_scatter(
        self, k, stride, padding, groups
    ):
        # the strided-slice scatter in conv1d's backward against the
        # fancy-index scatter it replaced, fed the same window gradients
        rng = Rng(11).child("c", k, stride)
        n, c_in, length, c_out = 2, 4, 17, 8
        x = Tensor(rng.normal(size=(n, c_in, length)), requires_grad=True)
        w = Tensor(rng.normal(size=(c_out, c_in // groups, k)))
        y = conv1d(x, w, None, stride, padding, groups)
        gy = rng.normal(size=y.shape)
        y.backward(gy)

        g, l_out = groups, gy.shape[2]
        gy_mat = np.ascontiguousarray(
            gy.reshape(n, g, c_out // g, l_out).transpose(1, 0, 3, 2)
        ).reshape(g, n * l_out, c_out // g)
        gcols = gy_mat @ w.data.reshape(g, c_out // g, (c_in // g) * k)
        gwin = gcols.reshape(g, n, l_out, c_in // g, k).transpose(1, 0, 3, 2, 4)
        gwin = gwin.reshape(n, c_in, l_out, k)
        gxp = np.zeros((n, c_in, length + 2 * padding))
        starts = np.arange(l_out) * stride
        for kk in range(k):
            gxp[:, :, starts + kk] += gwin[:, :, :, kk]
        assert np.array_equal(x.grad, gxp[:, :, padding : padding + length])


def _im2col_conv1d(x, w, b, stride, gy, padding=0, groups=1):
    """The im2col kernel that conv1d ran for every shape but kernel == stride
    before the one window layout, for (N, C_in, L) input: the output and the
    input, weight and bias gradients for the output gradient ``gy``."""
    n, c_in, length = x.shape
    c_out, _, k = w.shape
    g = groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    l_out = win.shape[2]
    cols = np.ascontiguousarray(
        win.reshape(n, g, c_in // g, l_out, k).transpose(1, 0, 3, 2, 4)
    ).reshape(g, n * l_out, (c_in // g) * k)
    wmat = w.reshape(g, c_out // g, (c_in // g) * k)
    y = (cols @ wmat.transpose(0, 2, 1)).reshape(g, n, l_out, c_out // g)
    y = y.transpose(1, 0, 3, 2).reshape(n, c_out, l_out)
    if b is not None:
        y = y + b[:, None]
    gy_mat = np.ascontiguousarray(
        gy.reshape(n, g, c_out // g, l_out).transpose(1, 0, 3, 2)
    ).reshape(g, n * l_out, c_out // g)
    gw = (gy_mat.transpose(0, 2, 1) @ cols).reshape(w.shape)
    gwin = (gy_mat @ wmat).reshape(g, n, l_out, c_in // g, k)
    gwin = gwin.transpose(1, 0, 3, 2, 4).reshape(n, c_in, l_out, k)
    gxp = np.zeros_like(xp)
    span = stride * (l_out - 1) + 1
    for kk in range(k):
        gxp[:, :, kk : kk + span : stride] += gwin[:, :, :, kk]
    return y, gxp[:, :, padding : padding + length], gw, gy.sum(axis=(0, 2))


def _patch_conv1d(x, w, b, gy):
    """The kernel == stride path that conv1d ran for the encoder convs before
    the one window layout: output and input, weight and bias gradients."""
    n, c_in, length = x.shape
    c_out, _, k = w.shape
    l_out = length // k
    win = x[:, :, : l_out * k].reshape(n, c_in, l_out, k)
    patches = np.ascontiguousarray(win.transpose(0, 1, 3, 2))
    patches = patches.reshape(n, c_in * k, l_out)
    wmat = w.reshape(c_out, c_in * k)
    y = wmat @ patches + b[:, None]
    gw = (gy @ patches.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gpatch = (wmat.T @ gy).reshape(n, c_in, k, l_out)
    gx = np.empty_like(x)
    for kk in range(k):
        gx[:, :, kk : l_out * k : k] = gpatch[:, :, kk]
    gx[:, :, l_out * k :] = 0
    return y, gx, gw, gy.sum(axis=(0, 2))


class TestPatchConv:
    """conv1d's one window kernel against the im2col kernel it replaced, and
    at kernel == stride (every encoder conv) against the patch kernel."""

    @pytest.mark.parametrize(
        "n, c_in, length, k",
        [(3, 4, 37, 3), (2, 5, 38, 4), (2, 3, 24, 2), (2, 3, 9, 1), (1, 2, 5, 5)],
    )
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_the_im2col_kernel(self, n, c_in, length, k, with_bias):
        rng = Rng(40).child("patch", n, length, k)
        x = rand_tensor(rng, n, c_in, length)
        w = rand_tensor(rng, 6, c_in, k)
        b = rand_tensor(rng, 6) if with_bias else None
        y = conv1d(x, w, b, stride=k)
        gy = rng.normal(size=y.shape)
        y.backward(gy)
        want = _im2col_conv1d(x.data, w.data, b and b.data, k, gy)
        got = [y.data, x.grad, w.grad] + ([b.grad] if b else [])
        for have, expected in zip(got, want):
            assert have.shape == expected.shape
            npt.assert_allclose(have, expected, rtol=1e-12, atol=1e-12)
        if length % k:
            assert not x.grad[:, :, length - length % k :].any()

    @pytest.mark.parametrize(
        "n, c_in, length, c_out, k, stride, padding, groups",
        [
            (3, 4, 29, 6, 2, 3, 0, 1),  # stride > K: samples no window reads
            (2, 4, 31, 6, 5, 2, 0, 1),  # K > stride: windows overlap
            (2, 6, 23, 4, 3, 2, 1, 2),  # padding with groups
            (2, 32, 40, 32, 25, 1, 12, 16),  # the positional conv
        ],
    )
    def test_padded_grouped_and_strided_match_the_im2col_kernel(
        self, n, c_in, length, c_out, k, stride, padding, groups
    ):
        rng = Rng(44).child("window", k, stride, padding, groups)
        x = rand_tensor(rng, n, c_in, length)
        w = rand_tensor(rng, c_out, c_in // groups, k)
        b = rand_tensor(rng, c_out)
        y = conv1d(x, w, b, stride, padding, groups)
        gy = rng.normal(size=y.shape)
        y.backward(gy)
        want = _im2col_conv1d(x.data, w.data, b.data, stride, gy, padding, groups)
        for have, expected in zip([y.data, x.grad, w.grad, b.grad], want):
            assert have.shape == expected.shape
            npt.assert_allclose(have, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "c_in, length, k",
        [(20, 2048, 3), (64, 682, 2), (64, 42, 2), (20, 2047, 3)],
    )
    def test_float32_bytes_match_the_patch_kernel(self, c_in, length, k):
        # cli-conv encoder blocks 0, 1 and 5, and a tail no window reads
        rng = Rng(45).child("patch32", c_in, length)

        def f32(*shape):
            return rng.normal(size=shape).astype(np.float32)

        x = Tensor(f32(4, c_in, length), requires_grad=True)
        w = Tensor(f32(64, c_in, k), requires_grad=True)
        b = Tensor(f32(64), requires_grad=True)
        y = conv1d(x, w, b, stride=k)
        gy = f32(*y.shape)
        y.backward(gy)
        want = _patch_conv1d(x.data, w.data, b.data, gy)
        for have, expected in zip([y.data, x.grad, w.grad, b.grad], want):
            assert have.dtype == np.float32
            assert have.tobytes() == expected.tobytes()

    def test_unbatched_input_and_frozen_weight(self):
        rng = Rng(41).child("patch")
        x = rand_tensor(rng, 4, 23)
        w = Tensor(rng.normal(size=(6, 4, 3)))
        b = rand_tensor(rng, 6)
        y = conv1d(x, w, b, stride=3)
        assert y.shape == (6, 7)
        gy = rng.normal(size=y.shape)
        y.backward(gy)
        want_y, want_gx, _, want_gb = _im2col_conv1d(
            x.data[None], w.data, b.data, 3, gy[None]
        )
        npt.assert_allclose(y.data, want_y[0], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(x.grad, want_gx[0], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(b.grad, want_gb, rtol=1e-12, atol=1e-12)
        assert w.grad is None

    def test_input_that_needs_no_gradient(self):
        rng = Rng(42).child("patch")
        x = Tensor(rng.normal(size=(3, 4, 20)))
        w = rand_tensor(rng, 5, 4, 2)
        y = conv1d(x, w, stride=2)
        gy = rng.normal(size=y.shape)
        y.backward(gy)
        _, _, want_gw, _ = _im2col_conv1d(x.data, w.data, None, 2, gy)
        npt.assert_allclose(w.grad, want_gw, rtol=1e-12, atol=1e-12)
        assert x.grad is None

    def test_finite_difference_gradients(self):
        rng = Rng(43).child("patch")
        x = rand_tensor(rng, 2, 3, 20)  # 20 mod 3 = 2 samples no window reads
        w = rand_tensor(rng, 4, 3, 3, scale=0.5)
        b = rand_tensor(rng, 4)
        report = grad_check(
            lambda xx, ww, bb: (conv1d(xx, ww, bb, stride=3) ** 2).sum(),
            [x, w, b],
        )
        assert report.max_rel_err < 1e-5


class TestGroupNorm:
    def test_constant_input_maps_to_zeros(self):
        x = Tensor(np.full((4, 6), 3.3))
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        y = group_norm(x, groups=2, gamma=gamma, beta=beta)
        npt.assert_allclose(y.data, 0.0, atol=1e-10)

    def test_groups_equal_channels_matches_meanstd_normalize(self):
        rng = Rng(11).child("g")
        x = rng.normal(size=(6, 40))
        y = group_norm(
            Tensor(x), groups=6, gamma=Tensor(np.ones(6)), beta=Tensor(np.zeros(6))
        )
        npt.assert_allclose(y.data, normalize(x, "meanstd"), atol=1e-4)

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            group_norm(
                Tensor(np.zeros((5, 4))),
                groups=2,
                gamma=Tensor(np.ones(5)),
                beta=Tensor(np.zeros(5)),
            )

    def test_gradients(self):
        rng = Rng(12).child("g")
        x = rand_tensor(rng, 4, 7)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        beta = rand_tensor(rng, 4)
        report = grad_check(
            lambda xx, gg, bb: (group_norm(xx, 2, gg, bb) ** 2).sum(),
            [x, gamma, beta],
        )
        assert report.passed(1e-4)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_the_kernel_that_saved_z(self, dtype):
        rng = Rng(44).child("g")
        n, c, length, groups = 3, 8, 50, 4
        x = rng.normal(loc=-1.0, scale=2.0, size=(n, c, length)).astype(dtype)
        gamma = rng.uniform(-1.5, 1.5, size=c).astype(dtype)
        beta = rng.normal(size=c).astype(dtype)
        gy = rng.normal(size=x.shape).astype(dtype)
        # the forward and backward that kept z on the tape, inline
        xg = x.reshape(n, groups, c // groups, length)
        mu = xg.mean(axis=(2, 3), keepdims=True)
        inv_std = 1.0 / np.sqrt(xg.var(axis=(2, 3), keepdims=True) + 1e-5)
        z = (xg - mu) * inv_std
        zc = z.reshape(n, c, length)
        want_y = zc * gamma[:, None] + beta[:, None]
        want_ggamma = (gy * zc).sum(axis=(0, 2))
        want_gbeta = gy.sum(axis=(0, 2))
        ghat = (gy * gamma[:, None]).reshape(n, groups, c // groups, length)
        ghat_mean = ghat.mean(axis=(2, 3), keepdims=True)
        ghat_z_mean = (ghat * z).mean(axis=(2, 3), keepdims=True)
        want_gx = ((ghat - ghat_mean - z * ghat_z_mean) * inv_std).reshape(x.shape)

        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        y = group_norm(xt, groups, gt, bt)
        y.backward(gy)
        for have, want in [
            (y.data, want_y),
            (xt.grad, want_gx),
            (gt.grad, want_ggamma),
            (bt.grad, want_gbeta),
        ]:
            assert have.dtype == want.dtype == dtype
            assert have.tobytes() == want.tobytes()


def composed_block(x, w, b, gamma, beta, stride, groups, p, rng, training):
    """The encoder block as the four ops ran it, one tape node each."""
    h = conv1d(x, w, b, stride=stride)
    if training:
        h = dropout(h, p, rng, training)
    return gelu(group_norm(h, groups, gamma, beta))


def block_run(op, dtype, training, p, frozen=(), n=3, c_in=5, length=41, seed=50):
    """Run ``op`` forward and backward at a (n, c_in, length) input, a
    (8, c_in, 3) weight, stride 2 and 4 groups; ``frozen`` names the inputs
    (x, w, b, gamma, beta) that need no gradient."""
    rng = Rng(seed).child("block")
    arrays = [
        rng.normal(loc=0.3, scale=1.5, size=(n, c_in, length)),
        rng.normal(scale=0.4, size=(8, c_in, 3)),
        rng.normal(scale=0.2, size=8),
        rng.uniform(-1.5, 1.5, size=8),
        rng.normal(size=8),
    ]
    names = ("x", "w", "b", "gamma", "beta")
    inputs = [
        Tensor(a.astype(dtype), requires_grad=name not in frozen)
        for name, a in zip(names, arrays)
    ]
    out = op(*inputs, 2, 4, p, Rng(seed).child("mask"), training)
    if out.requires_grad:
        out.backward(rng.normal(size=out.shape).astype(dtype))
    return out, inputs


class TestConvBlock:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
    def test_bytes_equal_the_composed_block(self, dtype, training, p):
        out, inputs = block_run(conv_block, dtype, training, p)
        ref, ref_inputs = block_run(composed_block, dtype, training, p)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref.data.tobytes()
        for t, r in zip(inputs, ref_inputs):
            assert t.grad.dtype == dtype
            assert t.grad.tobytes() == r.grad.tobytes()

    @pytest.mark.parametrize(
        "frozen", [("w", "b", "gamma", "beta"), ("x",), ("x", "gamma")]
    )
    def test_frozen_inputs_get_no_gradient(self, frozen):
        out, inputs = block_run(conv_block, np.float32, True, 0.1, frozen)
        ref, ref_inputs = block_run(composed_block, np.float32, True, 0.1, frozen)
        assert out.data.tobytes() == ref.data.tobytes()
        for t, r in zip(inputs, ref_inputs):
            if t.requires_grad:
                assert t.grad.tobytes() == r.grad.tobytes()
            else:
                assert t.grad is None and r.grad is None

    def test_nothing_trainable_records_nothing(self):
        names = ("x", "w", "b", "gamma", "beta")
        out, _ = block_run(conv_block, np.float32, True, 0.1, names)
        ref, _ = block_run(composed_block, np.float32, True, 0.1, names)
        assert not out.requires_grad and out._parents == ()
        assert out.data.tobytes() == ref.data.tobytes()

    def test_one_call_is_one_tape_node_and_no_grad_records_nothing(self):
        rng = Rng(51).child("block")
        x = rand_tensor(rng, 2, 3, 20)
        params = [rand_tensor(rng, 4, 3, 2)] + [rand_tensor(rng, 4) for _ in range(3)]
        out = conv_block(x, *params, 2, 2, 0.5, Rng(52), True)
        assert out._parents == (x, *params)
        assert all(not t._parents for t in out._parents)
        with no_grad():
            out = conv_block(x, *params, 2, 2, 0.5, Rng(52), True)
        assert not out.requires_grad and out._parents == ()

    @pytest.mark.parametrize("training", [True, False])
    def test_finite_difference_gradients(self, training):
        rng = Rng(54).child("block")
        x = rand_tensor(rng, 2, 3, 17)
        w = rand_tensor(rng, 4, 3, 3, scale=0.5)
        b = rand_tensor(rng, 4, scale=0.2)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        beta = rand_tensor(rng, 4)
        weights = Tensor(rng.normal(size=(2, 4, 8)))

        def loss(*inputs):
            mask = Rng(55).child("mask")  # the same mask at every evaluation
            return (conv_block(*inputs, 2, 2, 0.3, mask, training) * weights).sum()

        report = grad_check(loss, [x, w, b, gamma, beta])
        assert report.passed(1e-5)

    def test_errors_match_the_composed_ops(self):
        rng = Rng(56).child("block")
        x = rand_tensor(rng, 2, 3, 20)
        params = [rand_tensor(rng, 4, 3, 2)] + [rand_tensor(rng, 4) for _ in range(3)]
        for bad_p in (1.0, -0.1):
            with pytest.raises(ConfigError) as want:
                composed_block(x, *params, 2, 2, bad_p, Rng(1), True)
            with pytest.raises(ConfigError) as have:
                conv_block(x, *params, 2, 2, bad_p, Rng(1), True)
            assert str(have.value) == str(want.value)
        with pytest.raises(ShapeError) as want:
            composed_block(x, *params, 2, 3, 0.1, Rng(1), True)
        with pytest.raises(ShapeError) as have:
            conv_block(x, *params, 2, 3, 0.1, Rng(1), True)
        assert str(have.value) == str(want.value)
        with pytest.raises(ValueError, match="needs an rng"):
            conv_block(x, *params, 2, 2, 0.1, None, True)


def composed_ffn(x, w1, b1, w2, b2, p, rng, training):
    """The transformer FFN as the ops ran it, one tape node each."""
    h = linear(gelu(linear(x, w1, b1)), w2, b2)
    if training:
        h = dropout(h, p, rng, training)
    return h


def ffn_run(op, dtype, training, p, frozen=(), shape=(3, 7, 6), hidden=24, seed=60):
    """Run ``op`` forward and backward at an input of ``shape``, a (d,
    ``hidden``) and a (``hidden``, d) weight and their biases; ``frozen``
    names the inputs (x, w1, b1, w2, b2) that need no gradient."""
    rng = Rng(seed).child("ffn")
    d = shape[-1]
    arrays = [
        rng.normal(loc=0.2, scale=1.5, size=shape),
        rng.normal(scale=d**-0.5, size=(d, hidden)),
        rng.normal(scale=0.3, size=hidden),
        rng.normal(scale=hidden**-0.5, size=(hidden, d)),
        rng.normal(scale=0.3, size=d),
    ]
    names = ("x", "w1", "b1", "w2", "b2")
    inputs = [
        Tensor(a.astype(dtype), requires_grad=name not in frozen)
        for name, a in zip(names, arrays)
    ]
    out = op(*inputs, p, Rng(seed).child("mask"), training)
    if out.requires_grad:
        out.backward(rng.normal(size=out.shape).astype(dtype))
    return out, inputs


class TestFeedForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
    def test_bytes_equal_the_composed_ffn(self, dtype, training, p):
        out, inputs = ffn_run(feed_forward, dtype, training, p)
        ref, ref_inputs = ffn_run(composed_ffn, dtype, training, p)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref.data.tobytes()
        for t, r in zip(inputs, ref_inputs):
            assert t.grad.dtype == dtype
            assert t.grad.tobytes() == r.grad.tobytes()

    def test_unbatched_input_bytes_equal_the_composed_ffn(self):
        out, inputs = ffn_run(feed_forward, np.float32, True, 0.1, shape=(9, 6))
        ref, ref_inputs = ffn_run(composed_ffn, np.float32, True, 0.1, shape=(9, 6))
        assert out.data.tobytes() == ref.data.tobytes()
        for t, r in zip(inputs, ref_inputs):
            assert t.grad.tobytes() == r.grad.tobytes()

    @pytest.mark.parametrize(
        "frozen",
        [("w1", "b1", "w2", "b2"), ("x",), ("x", "w1", "b1"), ("w2",), ("b2",)],
    )
    def test_frozen_inputs_get_no_gradient(self, frozen):
        out, inputs = ffn_run(feed_forward, np.float32, True, 0.1, frozen)
        ref, ref_inputs = ffn_run(composed_ffn, np.float32, True, 0.1, frozen)
        assert out.data.tobytes() == ref.data.tobytes()
        for t, r in zip(inputs, ref_inputs):
            if t.requires_grad:
                assert t.grad.tobytes() == r.grad.tobytes()
            else:
                assert t.grad is None and r.grad is None

    def test_nothing_trainable_records_nothing(self):
        names = ("x", "w1", "b1", "w2", "b2")
        out, _ = ffn_run(feed_forward, np.float32, True, 0.1, names)
        ref, _ = ffn_run(composed_ffn, np.float32, True, 0.1, names)
        assert not out.requires_grad and out._parents == ()
        assert out.data.tobytes() == ref.data.tobytes()

    def test_one_call_is_one_tape_node_and_no_grad_records_nothing(self):
        rng = Rng(61).child("ffn")
        x = rand_tensor(rng, 2, 5, 4)
        params = [rand_tensor(rng, 4, 8), rand_tensor(rng, 8)]
        params += [rand_tensor(rng, 8, 4), rand_tensor(rng, 4)]
        out = feed_forward(x, *params, 0.5, Rng(62), True)
        assert out._parents == (x, *params)
        assert all(not t._parents for t in out._parents)
        with no_grad():
            out = feed_forward(x, *params, 0.5, Rng(62), True)
        assert not out.requires_grad and out._parents == ()

    @pytest.mark.parametrize("training", [True, False])
    def test_finite_difference_gradients(self, training):
        rng = Rng(63).child("ffn")
        x = rand_tensor(rng, 2, 3, 4)
        w1 = rand_tensor(rng, 4, 6, scale=0.5)
        b1 = rand_tensor(rng, 6, scale=0.3)
        w2 = rand_tensor(rng, 6, 4, scale=0.4)
        b2 = rand_tensor(rng, 4, scale=0.3)
        weights = Tensor(rng.normal(size=(2, 3, 4)))

        def loss(*inputs):
            mask = Rng(64).child("mask")  # the same mask at every evaluation
            return (feed_forward(*inputs, 0.3, mask, training) * weights).sum()

        report = grad_check(loss, [x, w1, b1, w2, b2])
        assert report.passed(1e-5)

    def test_errors_match_the_composed_ops(self):
        rng = Rng(65).child("ffn")
        x = rand_tensor(rng, 2, 5, 4)
        w1, b1 = rand_tensor(rng, 4, 8), rand_tensor(rng, 8)
        w2, b2 = rand_tensor(rng, 8, 4), rand_tensor(rng, 4)
        bad_inputs = [
            (rand_tensor(rng, 2, 5, 3), w1, b1, w2, b2),  # x width != w1 rows
            (x, w1, b1, rand_tensor(rng, 7, 4), b2),  # hidden width != w2 rows
            (rand_tensor(rng, 4), w1, b1, w2, b2),  # 1-d input
            (x, w1, b1, rand_tensor(rng, 8), b2),  # 1-d w2
        ]
        for inputs in bad_inputs:
            with pytest.raises(ShapeError) as want:
                composed_ffn(*inputs, 0.1, Rng(1), True)
            with pytest.raises(ShapeError) as have:
                feed_forward(*inputs, 0.1, Rng(1), True)
            assert str(have.value) == str(want.value)
        for bad_p in (1.0, -0.1):
            with pytest.raises(ConfigError) as want:
                composed_ffn(x, w1, b1, w2, b2, bad_p, Rng(1), True)
            with pytest.raises(ConfigError) as have:
                feed_forward(x, w1, b1, w2, b2, bad_p, Rng(1), True)
            assert str(have.value) == str(want.value)
        with pytest.raises(ValueError) as want:
            composed_ffn(x, w1, b1, w2, b2, 0.1, None, True)
        with pytest.raises(ValueError) as have:
            feed_forward(x, w1, b1, w2, b2, 0.1, None, True)
        assert str(have.value) == str(want.value)


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        rng = Rng(13).child("l")
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 16))
        y = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)))
        npt.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
        npt.assert_allclose(y.data.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 8))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_gradients(self):
        rng = Rng(14).child("l")
        x = rand_tensor(rng, 3, 6)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
        beta = rand_tensor(rng, 6)
        report = grad_check(
            lambda xx, gg, bb: (layer_norm(xx, gg, bb) ** 2).mean(),
            [x, gamma, beta],
        )
        assert report.passed(1e-4)

    @pytest.mark.parametrize(
        "frozen", [(), ("gamma",), ("gamma", "beta"), ("x",)], ids=str
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_the_kernel_that_saved_z(self, dtype, frozen):
        rng = Rng(45).child("l")
        x = rng.normal(loc=-1.0, scale=2.0, size=(3, 20, 16)).astype(dtype)
        gamma = rng.uniform(-1.5, 1.5, size=16).astype(dtype)
        beta = rng.normal(size=16).astype(dtype)
        gy = rng.normal(size=x.shape).astype(dtype)
        # the forward and backward that kept z on the tape, inline
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        z = (x - mu) * inv_std
        want = {"y": z * gamma + beta}
        want["gamma"] = (gy * z).sum(axis=(0, 1))
        want["beta"] = gy.sum(axis=(0, 1))
        ghat = gy * gamma
        ghat_mean = ghat.mean(axis=-1, keepdims=True)
        ghat_z_mean = (ghat * z).mean(axis=-1, keepdims=True)
        want["x"] = (ghat - ghat_mean - z * ghat_z_mean) * inv_std

        tensors = {
            name: Tensor(a, requires_grad=name not in frozen)
            for name, a in (("x", x), ("gamma", gamma), ("beta", beta))
        }
        y = layer_norm(tensors["x"], tensors["gamma"], tensors["beta"])
        y.backward(gy)
        have = {"y": y.data, **{n: t.grad for n, t in tensors.items()}}
        for name, array in have.items():
            if name in frozen:
                assert array is None
                continue
            assert array.dtype == want[name].dtype == dtype
            assert array.tobytes() == want[name].tobytes(), name

    def test_forward_keeps_the_output_and_row_statistics_only(self):
        rng = Rng(46).child("l")
        x = Tensor(rng.normal(size=(4, 128, 64)).astype(np.float32), True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=64).astype(np.float32), True)
        beta = Tensor(np.zeros(64, np.float32), True)
        tracemalloc.start()
        try:
            y = layer_norm(x, gamma, beta)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        # y plus a mean and a 1/std per row is 1.03 y here; a saved z adds 1 y
        assert kept < 1.25 * y.data.nbytes


def composed_attention(x, heads, wq, wk, wv, wo):
    """Reference: multi-head attention composed from Tensor ops."""
    d = x.shape[-1]
    squeeze = x.ndim == 2
    xb = x.reshape(1, *x.shape) if squeeze else x
    n, s, _ = xb.shape
    dh = d // heads

    def split(t):
        return t.reshape(n, s, heads, dh).transpose(0, 2, 1, 3)

    q = split(xb @ wq) * (1.0 / math.sqrt(dh))
    k = split(xb @ wk)
    v = split(xb @ wv)
    attn = softmax(q @ k.transpose(0, 1, 3, 2), axis=-1)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(n, s, d)
    out = ctx @ wo
    return out.reshape(s, d) if squeeze else out


def attention_run(op, shape, heads, dtype, seed, frozen=()):
    """Output and the five gradients (x, wq, wk, wv, wo) of ``op`` under a
    random output gradient; inputs named in ``frozen`` need no gradient."""
    rng = np.random.default_rng(seed)
    d = shape[-1]
    names = ("x", "wq", "wk", "wv", "wo")
    draws = [rng.normal(size=shape)] + [
        rng.normal(size=(d, d)) / math.sqrt(d) for _ in range(4)
    ]
    inputs = [
        Tensor(a.astype(dtype), requires_grad=name not in frozen)
        for name, a in zip(names, draws)
    ]
    out = op(inputs[0], heads, *inputs[1:])
    out.backward(rng.normal(size=shape).astype(dtype))
    return out, inputs


class TestAttention:
    def test_identical_keys_average_the_values(self):
        rng = Rng(15).child("a")
        d, s = 8, 5
        x = Tensor(rng.normal(size=(s, d)))
        wq = Tensor(rng.normal(size=(d, d)))
        wk = Tensor(np.zeros((d, d)))  # all keys identical -> uniform weights
        wv = Tensor(rng.normal(size=(d, d)))
        wo = Tensor(rng.normal(size=(d, d)))
        out = multi_head_attention(x, 2, wq, wk, wv, wo)
        expected = np.tile((x.data @ wv.data).mean(axis=0), (s, 1)) @ wo.data
        npt.assert_allclose(out.data, expected, atol=1e-10)

    def test_single_token_passes_through_value_and_output(self):
        rng = Rng(16).child("a")
        d = 6
        x = Tensor(rng.normal(size=(1, d)))
        ws = [Tensor(rng.normal(size=(d, d))) for _ in range(4)]
        out = multi_head_attention(x, 3, *ws)
        npt.assert_allclose(out.data, x.data @ ws[2].data @ ws[3].data, atol=1e-10)

    def test_head_divisibility_enforced(self):
        x = Tensor(np.zeros((2, 6)))
        w = Tensor(np.zeros((6, 6)))
        with pytest.raises(ShapeError, match="divisible"):
            multi_head_attention(x, 4, w, w, w, w)

    def test_gradients_s5_d8_h2(self):
        rng = Rng(17).child("a")
        x = rand_tensor(rng, 5, 8, scale=0.5)
        ws = [rand_tensor(rng, 8, 8, scale=0.5) for _ in range(4)]
        report = grad_check(
            lambda xx, q, k, v, o: (
                multi_head_attention(xx, 2, q, k, v, o) ** 2
            ).sum(),
            [x, *ws],
        )
        assert report.passed(1e-4)

    def test_batched_matches_per_sequence(self):
        rng = Rng(18).child("a")
        xb = rng.normal(size=(3, 4, 8))
        ws = [Tensor(rng.normal(size=(8, 8))) for _ in range(4)]
        batched = multi_head_attention(Tensor(xb), 2, *ws)
        for i in range(3):
            single = multi_head_attention(Tensor(xb[i]), 2, *ws)
            npt.assert_allclose(batched.data[i], single.data, atol=1e-12)

    @pytest.mark.parametrize("shape, heads", [((3, 7, 8), 2), ((5, 8), 2)])
    def test_matches_composed_reference_float64(self, shape, heads):
        out, inputs = attention_run(multi_head_attention, shape, heads, np.float64, 1)
        ref, ref_inputs = attention_run(
            composed_attention, shape, heads, np.float64, 1
        )
        npt.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
        for t, r in zip(inputs, ref_inputs):
            npt.assert_allclose(t.grad, r.grad, rtol=0, atol=1e-12)

    def test_float32_bytes_equal_composed_at_cli_attn_shape(self):
        # batch 16, 171 positions plus the special token, width 64, 4 heads
        shape = (16, 172, 64)
        out, inputs = attention_run(multi_head_attention, shape, 4, np.float32, 2)
        ref, ref_inputs = attention_run(composed_attention, shape, 4, np.float32, 2)
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, ref.data)
        for t, r in zip(inputs, ref_inputs):
            assert t.grad.dtype == np.float32
            assert np.array_equal(t.grad, r.grad)

    @pytest.mark.parametrize(
        "frozen", [("wq", "wk", "wv", "wo"), ("x",), ("x", "wk", "wo")]
    )
    def test_frozen_inputs_get_no_gradient(self, frozen):
        args = ((2, 5, 8), 2, np.float64, 3, frozen)
        _, inputs = attention_run(multi_head_attention, *args)
        _, ref_inputs = attention_run(composed_attention, *args)
        for t, r in zip(inputs, ref_inputs):
            if not t.requires_grad:
                assert t.grad is None
            else:
                npt.assert_allclose(t.grad, r.grad, rtol=0, atol=1e-12)

    def test_one_call_is_one_tape_node(self):
        rng = Rng(22).child("a")
        x = rand_tensor(rng, 2, 5, 8)
        ws = [rand_tensor(rng, 8, 8) for _ in range(4)]
        assert multi_head_attention(x, 2, *ws)._parents == (x, *ws)
        x2 = rand_tensor(rng, 5, 8)
        assert multi_head_attention(x2, 2, *ws)._parents == (x2, *ws)


class TestElementwiseOps:
    def test_softmax_symmetry_and_simplex(self):
        y = softmax(Tensor(np.array([0.0, 0.0])))
        npt.assert_allclose(y.data, [0.5, 0.5])
        rng = Rng(19).child("s")
        z = softmax(Tensor(rng.normal(scale=10.0, size=(7, 9))), axis=-1)
        npt.assert_allclose(z.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(z.data > 0)

    def test_softmax_empty_axis_rejected(self):
        with pytest.raises(ShapeError, match="empty"):
            softmax(Tensor(np.zeros((3, 0))), axis=-1)

    def test_softmax_gradients(self):
        rng = Rng(20).child("s")
        x = rand_tensor(rng, 4, 5)
        w = Tensor(rng.normal(size=(4, 5)))
        report = grad_check(lambda xx: (softmax(xx, axis=-1) * w).sum(), [x])
        assert report.passed(1e-4)

    def test_gelu_values_and_17_point_gradient_sweep(self):
        x = Tensor(np.array([0.0]))
        npt.assert_allclose(gelu(x).data, [0.0])
        pts = Tensor(np.linspace(-4.0, 4.0, 17), requires_grad=True)
        report = grad_check(lambda p: gelu(p).sum(), [pts])
        assert report.max_rel_err < 1e-6

    def test_linear_matches_affine_map(self):
        rng = Rng(21).child("s")
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)))
        b = Tensor(rng.normal(size=2))
        npt.assert_allclose(linear(x, w, b).data, x.data @ w.data + b.data)
        with pytest.raises(ShapeError):
            linear(x, Tensor(np.zeros((5, 2))))

    def test_dropout_identity_cases(self):
        x = Tensor(np.ones((4, 4)))
        assert dropout(x, 0.0, None, training=True) is x
        assert dropout(x, 0.5, None, training=False) is x

    def test_dropout_scales_and_is_seed_deterministic(self):
        x = Tensor(np.ones((100, 100)))
        y1 = dropout(x, 0.5, Rng(42).child("mask"), training=True)
        y2 = dropout(x, 0.5, Rng(42).child("mask"), training=True)
        npt.assert_array_equal(y1.data, y2.data)
        kept = y1.data != 0
        npt.assert_allclose(y1.data[kept], 2.0)
        assert abs(kept.mean() - 0.5) < 0.02

    def test_dropout_gradient_uses_same_mask(self):
        x = Tensor(np.ones((8, 8)), requires_grad=True)
        y = dropout(x, 0.5, Rng(1).child("mask"), training=True)
        y.backward(np.ones_like(y.data))
        npt.assert_array_equal(x.grad, y.data)

    def test_invalid_probability_rejected(self):
        from seizenet.errors import ConfigError

        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones(3)), 1.0, Rng(1), training=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_bytes_match_the_float_mask_kernel(self, dtype, p):
        rng = Rng(45).child("d")
        x = rng.normal(scale=3.0, size=(4, 16, 300)).astype(dtype)
        x[0, 0, :4] = [0.0, -0.0, -1e-30, -3.0]
        g = rng.normal(size=x.shape).astype(dtype)
        # the kernel that kept a mask of x's dtype on the tape, inline
        mask = (Rng(46).child("mask").uniform(size=x.shape) >= p).astype(dtype)
        mask = mask / (1.0 - p)
        t = Tensor(x, requires_grad=True)
        out = dropout(t, p, Rng(46).child("mask"), training=True)
        out.backward(g)
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == (x * mask).tobytes()
        assert t.grad.tobytes() == (g * mask).tobytes()
        assert np.signbit(out.data[x < 0]).all()

    @pytest.mark.parametrize(
        "shape", [(0,), (3, 0, 5), (7, 11), (2, 3, _CDF_BLOCK // 3 + 1)]
    )
    def test_blocked_mask_is_the_one_shot_draw(self, shape):
        drawn, one_shot = Rng(47).child("mask"), Rng(47).child("mask")
        x = np.ones(shape, np.float32)
        out = dropout(Tensor(x), 0.3, drawn, training=True)
        mask = (one_shot.uniform(size=shape) >= 0.3).astype(np.float32)
        assert out.data.tobytes() == (x * (mask / 0.7)).tobytes()
        # the stream goes on where the one-shot draw leaves it
        assert drawn.uniform(size=5).tobytes() == one_shot.uniform(size=5).tobytes()


def _exact_cdf(x):
    """Phi in float64 from math.erf, one element at a time."""
    flat = [0.5 * (1.0 + math.erf(float(v) / math.sqrt(2.0))) for v in np.ravel(x)]
    return np.array(flat, dtype=np.float64).reshape(np.shape(x))


def _normal_cdf(x):
    """Phi as the GELU kernel keeps it for backward; the product -inf * 0
    beside it is nan, which no assertion here reads."""
    with np.errstate(invalid="ignore"):
        return _gelu(x, keep_cdf=True)[1]


def _scipy_gelu(x, g):
    """The scipy-erf GELU kernel this one replaced: output and input gradient."""
    erf = pytest.importorskip("scipy.special").erf

    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x**2)
    return x * cdf, g * (cdf + x * pdf)


class TestNormalCdf:
    def test_float32_within_3e7_of_math_erf_and_inside_0_1(self):
        x = np.concatenate(
            [np.linspace(-12.0, 12.0, 240_001), [0.0, -0.0, np.inf, -np.inf]]
        ).astype(np.float32)
        cdf = _normal_cdf(x)
        assert cdf.dtype == np.float32
        assert np.max(np.abs(cdf - _exact_cdf(x))) <= 3e-7
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0
        assert cdf[-2] == 1.0 and cdf[-1] == 0.0

    def test_nan_in_gives_nan_out(self):
        cdf = _normal_cdf(np.array([np.nan, 0.5, np.nan], dtype=np.float32))
        assert np.isnan(cdf).tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "shape",
        [
            (0,),
            (3, 0, 5),
            (1,),
            (7, 11),
            (2, 3, _CDF_BLOCK // 3 + 1),
            (2 * _CDF_BLOCK + 17,),
        ],
    )
    def test_any_size_against_the_block(self, shape):
        size = math.prod(shape)
        x = np.linspace(-6.0, 6.0, size, dtype=np.float32).reshape(shape)
        cdf = _normal_cdf(x)
        assert cdf.shape == shape and cdf.dtype == np.float32
        if size:
            assert np.max(np.abs(cdf - _exact_cdf(x))) <= 3e-7

    def test_non_contiguous_input(self):
        x = np.linspace(-5.0, 5.0, 600, dtype=np.float32).reshape(20, 30)
        npt.assert_array_equal(_normal_cdf(x.T), _normal_cdf(x).T)

    def test_float64_is_math_erf_exactly(self):
        rng = Rng(31).child("cdf")
        x = np.concatenate(
            [
                rng.normal(scale=4.0, size=500),
                [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf],
            ]
        )
        cdf = _normal_cdf(x.reshape(2, -1))
        assert cdf.dtype == np.float64
        npt.assert_array_equal(cdf, _exact_cdf(x).reshape(2, -1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_matches_the_scipy_kernel(self, dtype):
        rng = Rng(32).child("gelu")
        x = rng.normal(scale=3.0, size=(4, 16, 300)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        want_out, want_grad = _scipy_gelu(x, g)
        t = Tensor(x, requires_grad=True)
        out = gelu(t)
        out.backward(g)
        assert out.data.dtype == dtype and t.grad.dtype == dtype
        if dtype == np.float64:
            # math.erf and scipy's erf may differ in their last bit
            npt.assert_allclose(out.data, want_out, rtol=1e-14, atol=1e-15)
            npt.assert_allclose(t.grad, want_grad, rtol=1e-14, atol=1e-15)
        else:
            # Phi's 3e-7 absolute error, scaled by x or g, plus a few roundings
            out_err = np.abs(out.data - want_out)
            grad_err = np.abs(t.grad - want_grad)
            assert np.all(out_err <= 3e-7 * np.abs(x) + 1e-6 * np.abs(want_out))
            assert np.all(grad_err <= 3e-7 * np.abs(g) + 1e-6 * np.abs(want_grad))


class TestGradCheckHarness:
    def test_linear_closure_is_tight(self):
        rng = Rng(22).child("h")
        x = rand_tensor(rng, 3, 4)
        w = rand_tensor(rng, 4, 2)
        report = grad_check(lambda xx, ww: linear(xx, ww).sum(), [x, w])
        assert report.max_rel_err < 1e-7

    def test_zero_parameter_closure_gives_empty_report(self):
        report = grad_check(lambda: Tensor(np.array(1.0), requires_grad=True), [])
        assert report.entries == ()
        assert report.passed(1e-4)

    def test_corrupted_gradient_is_detected(self):
        def bad_square(t):
            out = Tensor.from_op(
                t.data**2,
                (t,),
                lambda g: t.accumulate_grad(g * (2.0 * t.data + 1e-2)),
            )
            return out.sum()

        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        report = grad_check(bad_square, [x])
        assert not report.passed(1e-4)
        assert report.max_abs_err > 1e-3

    def test_non_finite_forward_raises(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            grad_check(lambda t: t.log().sum(), [x])


class TestInitAndCheckpoint:
    def test_kaiming_bounds_and_determinism(self):
        r1 = kaiming_uniform(Rng(3).child("init"), (64, 16), fan_in=16)
        r2 = kaiming_uniform(Rng(3).child("init"), (64, 16), fan_in=16)
        npt.assert_array_equal(r1, r2)
        assert np.all(np.abs(r1) <= 0.25)

    def test_round_trip_preserves_float32_content(self):
        rng = Rng(23).child("k")
        params = {
            "conv.0.weight": Tensor(rng.normal(size=(4, 2, 3))),
            "encoder.0.ln1.gamma": Tensor(np.ones(8)),
        }
        config = {"model_dim": 8, "layers": 2}
        blob = checkpoint_bytes(params, config)
        loaded, loaded_config = parse_checkpoint(blob)
        assert loaded_config == config
        assert set(loaded) == set(params)
        for name, t in params.items():
            npt.assert_array_equal(
                loaded[name], t.data.astype(np.float32).astype(np.float64)
            )
            assert loaded[name].dtype == np.float32
            assert loaded[name].flags.writeable

    def test_serialization_ignores_dict_insertion_order(self):
        a = {"x": np.ones(3), "y": np.zeros(2)}
        b = {"y": np.zeros(2), "x": np.ones(3)}
        assert checkpoint_bytes(a, {}) == checkpoint_bytes(b, {})

    def test_malformed_blobs_rejected(self):
        good = checkpoint_bytes({"w": np.ones(4)}, {"d": 1})
        with pytest.raises(CheckpointError, match="magic"):
            parse_checkpoint(b"NOTMAGIC" + good[8:])
        with pytest.raises(CheckpointError, match="truncated"):
            parse_checkpoint(good[:4])
        with pytest.raises(CheckpointError, match="sha256"):
            parse_checkpoint(good[:-8])

    def test_flipped_payload_byte_rejected(self):
        blob = bytearray(checkpoint_bytes({"w": np.arange(4.0)}, {"d": 1}))
        blob[-3] ^= 0x01  # inside the last float32, not the manifest
        with pytest.raises(CheckpointError, match="sha256"):
            parse_checkpoint(bytes(blob))

    @pytest.mark.parametrize("flip", [0x01, 0xFF], ids=["xor1", "0xff"])
    def test_every_byte_flip_is_a_checkpoint_error(self, flip):
        # the magic, the digest, the manifest length, the manifest (names
        # and shapes included) and the payload
        good = checkpoint_bytes({"a.w": np.ones((2, 3)), "b": np.zeros(4)}, {"d": 1})
        for pos in range(len(good)):
            blob = bytearray(good)
            blob[pos] ^= flip
            with pytest.raises(CheckpointError):
                parse_checkpoint(bytes(blob))

    @staticmethod
    def _edited(edit) -> bytes:
        """A two-tensor checkpoint whose manifest ``edit`` changed in place,
        re-digested so that parsing reaches the structural checks."""
        good = checkpoint_bytes({"a.w": np.ones((2, 3)), "b": np.zeros(4)}, {"d": 1})
        (length,) = struct.unpack_from("<Q", good, HEADER)
        manifest = json.loads(good[HEADER + 8 : HEADER + 8 + length])
        edit(manifest)
        raw = json.dumps(manifest).encode()
        body = struct.pack("<Q", len(raw)) + raw + good[HEADER + 8 + length :]
        return good[:8] + hashlib.sha256(body).digest() + body

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("tensors"), "'tensors' list"),
            (lambda m: m.update(tensors={"w": 0}), "'tensors' list"),
            (lambda m: m.update(config=[1]), "'config' object"),
            (lambda m: m["tensors"][0].pop(), "bad tensor entry"),
            (lambda m: m["tensors"][0].append([4]), "bad tensor entry"),
            (lambda m: m["tensors"][0].__setitem__(0, 7), "bad tensor entry"),
            (lambda m: m["tensors"][0][1].append(-4), "bad tensor entry"),
            (lambda m: m["tensors"][0].__setitem__(1, [True]), "bad tensor entry"),
            (lambda m: m["tensors"].append(7), "bad tensor entry"),
        ],
    )
    def test_malformed_manifest_is_checkpoint_error(self, edit, message):
        with pytest.raises(CheckpointError, match=message):
            parse_checkpoint(self._edited(edit))

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a.w holds 24 bytes, b 16
            (lambda t: t[0].__setitem__(1, [2, 1]), "end at byte 24, payload at 40"),
            (lambda t: t.reverse(), "'a.w' breaks the sorted name order"),
            (lambda t: t.append(t[1]), "'b' breaks the sorted name order"),
            (lambda t: t[1].__setitem__(1, [2]), "end at byte 32, payload at 40"),
            (lambda t: t[1].__setitem__(1, [5]), "'b' extends past end of payload"),
            (lambda t: t.pop(), "end at byte 24, payload at 40"),
            (lambda t: t.clear(), "end at byte 0, payload at 40"),
        ],
        ids=[
            "shorter", "reordered", "duplicate", "short-last", "long-last",
            "dropped", "empty",
        ],
    )
    def test_tensor_table_must_tile_the_payload(self, edit, message):
        blob = self._edited(lambda m: edit(m["tensors"]))
        with pytest.raises(CheckpointError, match=message):
            parse_checkpoint(blob)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(4)}, {"run": 1})

        def torn_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.zeros(4)}, {"run": 2})
        monkeypatch.undo()

        params, config = load_checkpoint(path)
        assert config == {"run": 1}
        npt.assert_array_equal(params["w"], np.ones(4))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_config_hash_tracks_config_content(self):
        assert config_hash({"a": 1}) == config_hash({"a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
