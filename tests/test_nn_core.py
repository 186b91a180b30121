"""Kernel-level tests: forward values against hand sums, gradients against
central finite differences, graph release and ``no_grad``, and the
checkpoint container format."""

import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from seizenet.errors import CheckpointError, NumericsError, ShapeError
from seizenet.nn import (
    Tensor,
    checkpoint_bytes,
    concat,
    config_hash,
    conv1d,
    dropout,
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
from seizenet.model import ModelConfig, forward_classifier, init_weights
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
        with pytest.raises(CheckpointError, match="payload"):
            parse_checkpoint(good[:-8])

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
