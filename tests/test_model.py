"""Model assembly tests on width-scaled configs.

The full-width grid sweep lives in the acceptance suite; here we pin shape
arithmetic, masking semantics, zero-weight propagation, init/freeze
policies, and gradient flow on small dimensions.
"""

import struct
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizenet.errors import CheckpointError, ConfigError, ShapeError
from seizenet.model import (
    COMPUTE_DTYPE,
    MaskSpec,
    ModelConfig,
    apply_mask,
    classify,
    draw_mask_indices,
    encode,
    encoded_length,
    forward_classifier,
    forward_pretrain,
    init_weights,
    prepend_special_token,
    set_trainable,
    substitute_rows,
    transformer_forward,
)
from seizenet.nn import Tensor, conv1d, gelu, grad_check
from seizenet.nn.checkpoint import checkpoint_bytes, parse_checkpoint
from seizenet.objectives import (
    ContrastiveSpec,
    SswceSpec,
    contrastive_loss,
    sswce_loss,
)
from seizenet.optim import AdamState, OptimSpec, adam_step
from seizenet.rand import Rng


def tiny_config(layers=2):
    return ModelConfig(
        in_channels=2,
        conv_blocks=3,
        conv_channels=16,
        transformer_layers=layers,
        heads=4,
        model_dim=16,
        ffn_dim=32,
        classifier_dims=((16, 8), (8, 4), (4, 2)),
        group_norm_groups=4,
        pos_conv_kernel=5,
        pos_conv_groups=4,
    )


def tiny_params(layers=2, seed=0):
    return init_weights(tiny_config(layers), "random", Rng(seed).child("init"))


# a checkpoint of tiny_config() and the length of its JSON manifest
_SAME_CONFIG_BLOB = checkpoint_bytes(tiny_params(seed=29), asdict(tiny_config()))
(_MANIFEST_LEN,) = struct.unpack_from("<Q", _SAME_CONFIG_BLOB, 8)


class TestModelConfig:
    def test_default_stride_shapes(self):
        assert ModelConfig().conv_strides == (3, 2, 2, 2, 2, 2)
        assert ModelConfig(conv_blocks=3).conv_strides == (3, 2, 2)

    def test_encoded_length_chain(self):
        assert encoded_length(ModelConfig(), 2048) == 21
        assert encoded_length(ModelConfig(conv_blocks=3), 2048) == 170
        # per-block recurrence L' = floor((L - K)/s) + 1 with K = s
        lengths = [2048]
        for s in (3, 2, 2, 2, 2, 2):
            lengths.append((lengths[-1] - s) // s + 1)
        assert lengths == [2048, 682, 341, 170, 85, 42, 21]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError, match="conv_blocks"):
            ModelConfig(conv_blocks=4)
        with pytest.raises(ConfigError, match="transformer_layers"):
            ModelConfig(transformer_layers=5)
        with pytest.raises(ConfigError, match="model_dim"):
            ModelConfig(conv_channels=256)
        with pytest.raises(ConfigError, match="heads"):
            ModelConfig(heads=7)
        with pytest.raises(ConfigError, match="chain"):
            ModelConfig(classifier_dims=((512, 256), (128, 2)))

    def test_with_width_scales_consistently(self):
        scaled = ModelConfig().with_width(64)
        assert scaled.model_dim == 64
        assert scaled.conv_channels == 64
        assert scaled.ffn_dim == 256
        assert scaled.classifier_dims == ((64, 32), (32, 16), (16, 8), (8, 2))

    def test_dict_round_trip(self):
        config = tiny_config()
        assert ModelConfig(**asdict(config)) == config


class TestEncode:
    def test_output_shapes_single_and_batched(self):
        config, params = tiny_config(), tiny_params()
        single = encode(config, params, np.zeros((1, 2, 72)))
        assert single.shape == (1, 6, 16)
        batched = encode(config, params, np.zeros((3, 2, 72)))
        assert batched.shape == (3, 6, 16)

    def test_zero_weights_propagate_zeros(self):
        config, params = tiny_config(), tiny_params()
        for name, t in params.items():
            if name.startswith("conv.") and "gn" not in name:
                t.data = np.zeros_like(t.data)
        out = encode(config, params, np.ones((1, 2, 72)))
        npt.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_too_short_input_rejected(self):
        config, params = tiny_config(), tiny_params()
        with pytest.raises(ShapeError, match="shorter"):
            encode(config, params, np.zeros((1, 2, 2)))

    def test_channel_mismatch_rejected(self):
        config, params = tiny_config(), tiny_params()
        with pytest.raises(ShapeError, match="channels"):
            encode(config, params, np.zeros((1, 5, 72)))

    @pytest.mark.parametrize("forward", [encode, forward_classifier])
    def test_unbatched_window_rejected(self, forward):
        config, params = tiny_config(), tiny_params()
        with pytest.raises(ShapeError, match=r"\(N, C, T\)"):
            forward(config, params, np.zeros((2, 72)))


class TestSpecialTokenAndMask:
    def test_prepend_inserts_constant_row(self):
        seq = Tensor(np.ones((1, 21, 16)))
        out = prepend_special_token(seq, -5.0)
        assert out.shape == (1, 22, 16)
        npt.assert_array_equal(out.data[0, 0], np.full(16, -5.0))
        npt.assert_array_equal(out.data[:, 1:], seq.data)

    def test_prepend_empty_sequence(self):
        out = prepend_special_token(Tensor(np.zeros((1, 0, 16))), -5.0)
        assert out.shape == (1, 1, 16)
        npt.assert_array_equal(out.data[0, 0], np.full(16, -5.0))

    def test_prepend_twice_gives_two_special_rows(self):
        seq = Tensor(np.ones((1, 3, 4)))
        out = prepend_special_token(prepend_special_token(seq))
        npt.assert_array_equal(out.data[0, 0], out.data[0, 1])

    def test_mask_prob_zero_is_noop(self):
        seq = Tensor(np.ones((1, 5, 4)))
        emb = Tensor(np.zeros(4))
        out, idx = apply_mask(seq, MaskSpec(mask_prob=0.0), emb, Rng(1))
        assert out is seq
        assert idx.size == 0

    def test_saturated_mask_covers_all_but_special(self):
        seq = Tensor(np.ones((1, 5, 4)))  # S = 4 maskable positions
        emb = Tensor(np.full(4, 9.0))
        out, idx = apply_mask(
            seq, MaskSpec(mask_prob=1.0, span_len=1), emb, Rng(2)
        )
        npt.assert_array_equal(idx, [1, 2, 3, 4])
        npt.assert_array_equal(out.data[0, 0], seq.data[0, 0])
        npt.assert_array_equal(out.data[0, 1:], np.full((4, 4), 9.0))

    def test_mask_is_deterministic_per_seed(self):
        a = draw_mask_indices(21, MaskSpec(), Rng(42).child("mask"))
        b = draw_mask_indices(21, MaskSpec(), Rng(42).child("mask"))
        npt.assert_array_equal(a, b)
        assert a.size >= 1
        assert a.min() >= 1
        assert a.max() <= 21

    def test_spans_truncate_at_sequence_end(self):
        for seed in range(20):
            idx = draw_mask_indices(
                12, MaskSpec(mask_prob=0.3, span_len=10), Rng(seed)
            )
            assert idx.max() <= 12

    def test_substitute_rows_gradients(self):
        rng = Rng(3).child("m")
        seq = Tensor(rng.normal(size=(1, 6, 5)), requires_grad=True)
        emb = Tensor(rng.normal(size=5), requires_grad=True)
        idx = np.array([1, 3])
        report = grad_check(
            lambda s, e: (substitute_rows(s, e, idx) ** 2).sum(), [seq, emb]
        )
        assert report.passed(1e-4)

    def test_mask_spec_validation(self):
        with pytest.raises(ConfigError):
            MaskSpec(mask_prob=1.5)
        with pytest.raises(ConfigError):
            MaskSpec(span_len=0)


class TestTransformer:
    def test_zero_branches_reduce_to_positional_encoding(self):
        config, params = tiny_config(), tiny_params()
        for name, t in params.items():
            if name.startswith("encoder.") and ("attn" in name or "ffn" in name):
                t.data = np.zeros_like(t.data)
        rng = Rng(4).child("t")
        seq = Tensor(rng.normal(size=(1, 7, 16)))
        out = transformer_forward(config, params, seq)
        pos = conv1d(
            seq.transpose(0, 2, 1),
            params["pos_conv.weight"],
            params["pos_conv.bias"],
            stride=1,
            padding=2,
            groups=4,
        )
        expected = seq.data + gelu(pos).data.transpose(0, 2, 1)
        npt.assert_allclose(out.data, expected, atol=1e-12)

    def test_position_permutation_changes_output(self):
        config, params = tiny_config(), tiny_params(seed=5)
        rng = Rng(6).child("t")
        seq = rng.normal(size=(1, 7, 16))
        base = transformer_forward(config, params, Tensor(seq)).data
        perm = seq.copy()
        perm[0, 1:] = perm[0, 1:][::-1]
        swapped = transformer_forward(config, params, Tensor(perm)).data
        assert not np.allclose(base[0, 0], swapped[0, 0], atol=1e-8)

    def test_width_mismatch_rejected(self):
        config, params = tiny_config(), tiny_params()
        with pytest.raises(ShapeError, match="width"):
            transformer_forward(config, params, Tensor(np.zeros((1, 7, 8))))

    def test_gradients_through_two_layer_encoder(self):
        config, params = tiny_config(), tiny_params(seed=7)
        rng = Rng(8).child("t")
        seq = Tensor(rng.normal(size=(1, 6, 16)), requires_grad=True)
        probes = [
            seq,
            params["pos_conv.weight"],
            params["encoder.0.attn.wq"],
            params["encoder.1.ffn.w1"],
            params["encoder.0.ln1.gamma"],
        ]
        report = grad_check(
            lambda s, *_: (transformer_forward(config, params, s) ** 2).mean(),
            probes,
        )
        assert report.passed(1e-4)


class TestClassify:
    def test_zero_weights_give_even_odds(self):
        config, params = tiny_config(), tiny_params()
        for name, t in params.items():
            if name.startswith("classifier."):
                t.data = np.zeros_like(t.data)
        rng = Rng(9).child("c")
        probs = classify(config, params, Tensor(rng.normal(size=(1, 7, 16))))
        npt.assert_allclose(probs.data, [[0.5, 0.5]])

    def test_probabilities_form_a_simplex(self):
        config, params = tiny_config(), tiny_params(seed=10)
        rng = Rng(11).child("c")
        seqs = Tensor(rng.normal(size=(100, 7, 16)))
        probs = classify(config, params, seqs)
        assert probs.shape == (100, 2)
        npt.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(probs.data > 0)

    def test_gradients_through_classifier(self):
        config, params = tiny_config(), tiny_params(seed=12)
        rng = Rng(13).child("c")
        seq = Tensor(rng.normal(size=(1, 7, 16)), requires_grad=True)
        probes = [seq, params["classifier.0.weight"], params["classifier.2.bias"]]
        report = grad_check(
            lambda s, *_: classify(config, params, s)[:, 1].sum(), probes
        )
        assert report.passed(1e-4)


class TestFullForward:
    def test_classifier_path_shapes(self):
        config, params = tiny_config(), tiny_params(seed=14)
        rng = Rng(15).child("f")
        single = forward_classifier(config, params, rng.normal(size=(1, 2, 72)))
        assert single.shape == (1, 2)
        batch = forward_classifier(config, params, rng.normal(size=(4, 2, 72)))
        assert batch.shape == (4, 2)

    def test_batched_matches_single_in_eval_mode(self):
        config, params = tiny_config(), tiny_params(seed=16)
        rng = Rng(17).child("f")
        windows = rng.normal(size=(3, 2, 72))
        batch = forward_classifier(config, params, windows)
        for i in range(3):
            one = forward_classifier(config, params, windows[i : i + 1])
            npt.assert_allclose(batch.data[i], one.data[0], atol=1e-10)

    def test_pretrain_path_returns_aligned_shapes(self):
        config, params = tiny_config(), tiny_params(seed=18)
        rng = Rng(19).child("f")
        ctx, targets, idx = forward_pretrain(
            config,
            params,
            rng.normal(size=(2, 2, 72)),
            MaskSpec(mask_prob=0.3, span_len=2),
            Rng(20).child("pre"),
            training=False,
        )
        assert ctx.shape == (2, 7, 16)
        assert targets.shape == (2, 7, 16)
        assert idx.size >= 1
        assert idx.min() >= 1

    def test_training_mode_requires_rng(self):
        config, params = tiny_config(), tiny_params()
        with pytest.raises(ValueError, match="rng"):
            forward_classifier(config, params, np.zeros((1, 2, 72)), training=True)


class TestInitPolicies:
    def test_random_is_seed_reproducible(self):
        a = tiny_params(seed=21)
        b = tiny_params(seed=21)
        for name in a:
            npt.assert_array_equal(a[name].data, b[name].data)

    def _checkpointed(self, layers, seed):
        config = tiny_config(layers)
        params = init_weights(config, "random", Rng(seed).child("init"))
        blob = checkpoint_bytes(params, asdict(config))
        return parse_checkpoint(blob)

    def test_load_shared_copies_common_layers(self):
        source = self._checkpointed(layers=8, seed=22)
        target = init_weights(
            tiny_config(4), "load_shared", Rng(23).child("init"), source=source
        )
        src_params, _ = source
        for i in range(4):
            name = f"encoder.{i}.attn.wq"
            npt.assert_array_equal(target[name].data, src_params[name])
        npt.assert_array_equal(
            target["conv.0.weight"].data, src_params["conv.0.weight"]
        )

    def test_load_duplicate_fills_extra_layers_cyclically(self):
        source = self._checkpointed(layers=8, seed=24)
        target = init_weights(
            tiny_config(12), "load_duplicate", Rng(25).child("init"), source=source
        )
        src_params, _ = source
        # target layers 9..12 (indices 8..11) copy source layers 1..4 (0..3)
        for i in range(8, 12):
            for suffix in ("attn.wq", "ffn.w1", "ln1.gamma"):
                npt.assert_array_equal(
                    target[f"encoder.{i}.{suffix}"].data,
                    src_params[f"encoder.{i - 8}.{suffix}"],
                )

    def test_width_mismatch_rejected(self):
        source = self._checkpointed(layers=2, seed=26)
        wide = ModelConfig(transformer_layers=2)
        with pytest.raises(CheckpointError, match="width"):
            init_weights(wide, "load_shared", Rng(27).child("init"), source=source)

    def test_load_policies_require_source(self):
        with pytest.raises(CheckpointError, match="source"):
            init_weights(tiny_config(), "load_shared", Rng(28).child("init"))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("conv.0.weight"),
            lambda p: p.update({"conv.0.weight": p["conv.0.weight"][..., :1]}),
        ],
        ids=["missing", "misshapen"],
    )
    def test_same_config_source_must_hold_every_tensor(self, edit):
        params, config = parse_checkpoint(_SAME_CONFIG_BLOB)
        edit(params)
        with pytest.raises(CheckpointError, match="conv.0.weight"):
            init_weights(
                tiny_config(), "load_shared", Rng(30).child("init"), (params, config)
            )

    @given(st.integers(0, _MANIFEST_LEN - 1), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_flipped_manifest_bit_is_refused_or_loads_the_same_weights(
        self, pos, bit
    ):
        def load(blob):
            source = parse_checkpoint(blob)
            return init_weights(
                tiny_config(), "load_shared", Rng(31).child("init"), source=source
            )

        want = load(_SAME_CONFIG_BLOB)
        blob = bytearray(_SAME_CONFIG_BLOB)
        blob[16 + pos] ^= 1 << bit
        try:
            got = load(bytes(blob))
        except CheckpointError:
            return
        assert got.keys() == want.keys()
        for name, tensor in want.items():
            assert got[name].data.dtype == tensor.data.dtype
            assert got[name].data.shape == tensor.data.shape
            assert got[name].data.tobytes() == tensor.data.tobytes(), name


class TestFreezePolicies:
    def test_masks_by_prefix(self):
        params = tiny_params(seed=29)
        mask = set_trainable(params, "freeze_conv")
        assert not mask["conv.0.weight"]
        assert mask["encoder.0.attn.wq"]
        assert mask["classifier.0.weight"]

        mask = set_trainable(params, "freeze_transformer")
        assert mask["conv.0.weight"]
        assert not mask["pos_conv.weight"]
        assert not mask["encoder.0.attn.wq"]
        assert mask["classifier.0.weight"]

        mask = set_trainable(params, "none")
        assert all(mask.values())

    def test_frozen_params_receive_no_gradient(self):
        config, params = tiny_config(), tiny_params(seed=30)
        set_trainable(params, "freeze_conv")
        rng = Rng(31).child("f")
        probs = forward_classifier(config, params, rng.normal(size=(1, 2, 72)))
        probs[0, 1].backward()
        assert params["conv.0.weight"].grad is None
        assert params["classifier.0.weight"].grad is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            set_trainable(tiny_params(), "freeze_everything")


def _tape_dtypes(root: Tensor) -> list[tuple[np.dtype, bool]]:
    """(dtype, is an op result) for every node of an unreleased graph."""
    found, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            found.append((node.data.dtype, bool(node._parents)))
            stack.extend(node._parents)
    return found


class TestComputeDtype:
    """Training and inference compute in float32; float64 graphs stay float64."""

    def _steps(self, params, rng, monkeypatch):
        """One contrastive and one classifier step, each with an Adam step.

        Returns the tape dtypes of both losses (read before backward), the
        dtypes of every gradient a backward rule passed on, and the Adam
        state.
        """
        grads = set()
        accumulate = Tensor.accumulate_grad

        def recording(tensor, g):
            grads.add(np.asarray(g).dtype)
            accumulate(tensor, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", recording)
        config = tiny_config()
        windows = rng.normal(size=(4, 2, 72))  # float64, cast by encode
        ctx, targets, masked = forward_pretrain(
            config, params, windows, MaskSpec(0.3, 2), rng.child("m")
        )
        loss = contrastive_loss(
            ctx, targets, masked, ContrastiveSpec(3), rng.child("d")
        )[0]
        tape = _tape_dtypes(loss)
        loss.backward()
        state = AdamState()
        adam_step(params, state, OptimSpec(lr=1e-3))

        probs = forward_classifier(
            config, params, windows, rng=rng.child("c"), training=True
        )
        loss = sswce_loss(probs, np.array([0, 1, 0, 1]), SswceSpec())
        tape += _tape_dtypes(loss)
        for t in params.values():
            t.zero_grad()
        loss.backward()
        adam_step(params, state, OptimSpec(lr=1e-3))
        return tape, grads, state

    @pytest.mark.parametrize("policy", ["random", "load_shared"])
    def test_model_graphs_params_and_moments_are_float32(
        self, policy, monkeypatch
    ):
        assert COMPUTE_DTYPE == np.float32
        source = TestInitPolicies()._checkpointed(layers=2, seed=40)
        params = init_weights(
            tiny_config(), policy, Rng(41).child("init"), source=source
        )
        tape, grads, state = self._steps(params, Rng(42), monkeypatch)
        assert {dtype for dtype, _ in tape} == {np.dtype(np.float32)}
        assert grads == {np.dtype(np.float32)}
        for name, t in params.items():
            assert t.data.dtype == np.float32, name
            assert t.grad is None or t.grad.dtype == np.float32, name
            assert state.m[name].dtype == state.v[name].dtype == np.float32

    def test_float64_parameters_keep_float64_graphs(self, monkeypatch):
        params = tiny_params(seed=43)
        for t in params.values():
            t.data = t.data.astype(np.float64)
        tape, grads, state = self._steps(params, Rng(44), monkeypatch)
        # the window batch itself is cast to COMPUTE_DTYPE; every op result
        # after it follows the float64 parameters
        assert {dtype for dtype, op in tape if op} == {np.dtype(np.float64)}
        assert grads == {np.dtype(np.float64)}
        for name, t in params.items():
            assert t.data.dtype == np.float64, name
            assert t.grad is None or t.grad.dtype == np.float64, name
            assert state.m[name].dtype == state.v[name].dtype == np.float64
