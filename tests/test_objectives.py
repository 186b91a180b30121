"""Loss function tests against closed-form hand evaluations and FD checks."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizenet.errors import ConfigError, ShapeError
from seizenet.model import MaskSpec, ModelConfig, forward_pretrain, init_weights
from seizenet.nn import Tensor, concat, grad_check, softmax
from seizenet.objectives import (
    COSINE_EPS,
    PROB_FLOOR,
    ContrastiveSpec,
    SswceSpec,
    contrastive_loss,
    sample_distractor_indices,
    sswce_loss,
)
from seizenet.rand import Rng


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity along the last axis, guarded against zero norms."""
    dot = (a * b).sum(axis=-1)
    norm_a = (a * a).sum(axis=-1).sqrt()
    norm_b = (b * b).sum(axis=-1).sqrt()
    return dot / (norm_a * norm_b).clip_min(COSINE_EPS)


def composed_contrastive_loss(ctx, targets, masked, spec, rng):
    """Reference: the contrastive loss composed from Tensor ops, with the
    distractor rows gathered into a (batch, M, K, D) tensor."""
    masked = np.asarray(masked, dtype=np.int64)
    n, s_plus_1, _ = ctx.shape
    dist_idx = sample_distractor_indices(s_plus_1 - 1, masked, spec, rng, batch=n)
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


def loss_run(op, ctx, targets, masked, spec, seed):
    """Loss, info and the (ctx, targets) gradients of ``op`` on copies of
    ``ctx`` and ``targets``, with distractors drawn from ``Rng(seed)``."""
    c = Tensor(ctx.copy(), requires_grad=True)
    t = Tensor(targets.copy(), requires_grad=True)
    loss, info = op(c, t, masked, spec, Rng(seed).child("d"))
    loss.backward()
    return loss.data, info, c.grad, t.grad


class TestContrastiveLoss:
    def test_aligned_target_with_orthogonal_distractors(self):
        # one masked position whose context equals its target; the only
        # distractor candidate is orthogonal, so every drawn distractor
        # scores cos=0 while the target scores cos=1.
        d = 4
        e1 = np.eye(d)[0]
        e2 = np.eye(d)[1]
        seq = np.stack([np.full(d, -5.0), e1, e2])[None]
        ctx = Tensor(seq.copy())
        targets = Tensor(seq.copy())
        spec = ContrastiveSpec(num_distractors=20, temperature=0.1)
        loss, info = contrastive_loss(
            ctx, targets, np.array([1]), spec, Rng(0).child("d")
        )
        expected = -np.log(np.exp(10.0) / (np.exp(10.0) + 20.0))
        npt.assert_allclose(loss.item(), expected, rtol=1e-9)
        npt.assert_allclose(loss.item(), 9.1e-4, atol=5e-5)
        npt.assert_allclose(info["alignment_gap"], 1.0)

    def test_uniform_similarities_give_log_k_plus_1(self):
        d = 6
        row = np.ones(d)
        seq = np.stack([np.full(d, -5.0)] + [row] * 4)[None]
        loss, _ = contrastive_loss(
            Tensor(seq),
            Tensor(seq.copy()),
            np.array([1, 2]),
            ContrastiveSpec(num_distractors=20),
            Rng(1).child("d"),
        )
        npt.assert_allclose(loss.item(), np.log(21.0), rtol=1e-12)

    def test_gradients_s8_d16_k3(self):
        rng = Rng(2).child("c")
        ctx = Tensor(rng.normal(size=(1, 9, 16)), requires_grad=True)
        targets = Tensor(rng.normal(size=(1, 9, 16)), requires_grad=True)
        masked = np.array([2, 5, 6])
        spec = ContrastiveSpec(num_distractors=3)

        def closure(c, t):
            loss, _ = contrastive_loss(c, t, masked, spec, Rng(3).child("d"))
            return loss

        assert grad_check(closure, [ctx, targets]).passed(1e-4)

    def test_zero_norm_rows_stay_finite(self):
        seq = np.zeros((1, 4, 8))
        loss, _ = contrastive_loss(
            Tensor(seq),
            Tensor(seq.copy()),
            np.array([1]),
            ContrastiveSpec(num_distractors=5),
            Rng(4).child("d"),
        )
        assert np.isfinite(loss.item())

    def test_empty_masked_set_rejected(self):
        seq = Tensor(np.zeros((1, 4, 8)))
        with pytest.raises(ValueError, match="non-empty"):
            contrastive_loss(
                seq, seq, np.array([]), ContrastiveSpec(), Rng(5)
            )

    def test_unbatched_sequences_rejected(self):
        seq = Tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="batch, S\\+1, D"):
            contrastive_loss(
                seq, seq, np.array([1]), ContrastiveSpec(), Rng(5)
            )

    def test_distractors_avoid_masked_and_special_positions(self):
        masked = np.array([1, 4])
        idx = sample_distractor_indices(
            6, masked, ContrastiveSpec(num_distractors=50), Rng(6).child("d"), 3
        )
        assert idx.shape == (3, 2, 50)
        assert not np.isin(idx, [0, 1, 4]).any()
        assert np.isin(idx, [2, 3, 5, 6]).all()

    def test_saturated_mask_falls_back_to_non_target_pool(self):
        masked = np.array([1, 2, 3])
        idx = sample_distractor_indices(
            3, masked, ContrastiveSpec(num_distractors=8), Rng(7).child("d"), 2
        )
        assert not (idx == 0).any()
        for j, target in enumerate(masked):
            assert not (idx[:, j, :] == target).any()

    def test_cosine_is_scale_invariant_so_ranking_is_stable(self):
        rng = Rng(8).child("c")
        a = Tensor(rng.normal(size=(5, 8)))
        b = Tensor(rng.normal(size=(5, 8)))
        base = _cosine(a, b).data
        scaled = _cosine(Tensor(a.data * 37.0), Tensor(b.data * 0.01)).data
        npt.assert_allclose(base, scaled, atol=1e-12)

    def test_determinism_under_fixed_rng(self):
        rng = Rng(9).child("c")
        ctx = rng.normal(size=(2, 7, 8))
        targets = rng.normal(size=(2, 7, 8))
        masked = np.array([1, 3])
        vals = [
            contrastive_loss(
                Tensor(ctx),
                Tensor(targets),
                masked,
                ContrastiveSpec(num_distractors=4),
                Rng(10).child("d"),
            )[0].item()
            for _ in range(2)
        ]
        assert vals[0] == vals[1]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ContrastiveSpec(num_distractors=0)
        with pytest.raises(ConfigError):
            ContrastiveSpec(temperature=0.0)


class TestFusedContrastiveLoss:
    """The one-node loss against the composed reference."""

    CASES = [
        # shape, masked, K: plain; K above the 4-row pool, so rows repeat;
        # every position masked, so the fallback pool draws masked rows
        ((2, 9, 16), [2, 5, 6], 3),
        ((3, 7, 8), [1, 3], 12),
        ((2, 5, 8), [1, 2, 3, 4], 6),
    ]

    @pytest.mark.parametrize("shape, masked, k", CASES)
    def test_matches_composed_reference_float64(self, shape, masked, k):
        gen = np.random.default_rng(len(masked))
        ctx, targets = gen.normal(size=(2, *shape))
        args = (ctx, targets, np.array(masked), ContrastiveSpec(num_distractors=k), 1)
        fused = loss_run(contrastive_loss, *args)
        ref = loss_run(composed_contrastive_loss, *args)
        npt.assert_allclose(fused[0], ref[0], rtol=0, atol=1e-12)
        for key, value in ref[1].items():
            npt.assert_allclose(fused[1][key], value, rtol=0, atol=1e-12)
        for got, want in zip(fused[2:], ref[2:]):
            assert got.dtype == np.float64
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, masked, k", CASES + [((4, 41, 32), list(range(3, 40, 2)), 20)]
    )
    def test_matches_composed_reference_float32(self, shape, masked, k):
        gen = np.random.default_rng(len(masked))
        ctx, targets = gen.normal(size=(2, *shape)).astype(np.float32)
        args = (ctx, targets, np.array(masked), ContrastiveSpec(num_distractors=k), 2)
        fused = loss_run(contrastive_loss, *args)
        ref = loss_run(composed_contrastive_loss, *args)
        assert fused[0].dtype == np.float32
        npt.assert_allclose(fused[0], ref[0], rtol=1e-5)
        for key, value in ref[1].items():
            npt.assert_allclose(fused[1][key], value, rtol=1e-5, atol=1e-6)
        for got, want in zip(fused[2:], ref[2:]):
            assert got.dtype == np.float32
            npt.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())

    def test_zero_norm_rows_give_finite_gradients(self):
        # sqrt's backward at a zero norm is 0 / 0 in the composed loss; a
        # clipped norm product passes no gradient to the norms
        zeros = np.zeros((1, 4, 8))
        loss, _, gctx, gtargets = loss_run(
            contrastive_loss, zeros, zeros, np.array([1]), ContrastiveSpec(5), 4
        )
        assert np.isfinite(loss) and np.isfinite(gctx).all()
        assert np.isfinite(gtargets).all()

        gen = np.random.default_rng(5)
        ctx, targets = gen.normal(size=(2, 2, 5, 8))
        targets[:, 3] = 0.0  # an unmasked row, drawn as a distractor
        masked, spec = np.array([1]), ContrastiveSpec(num_distractors=20)
        drawn = sample_distractor_indices(4, masked, spec, Rng(6).child("d"), 2)
        assert (drawn == 3).any(axis=(1, 2)).all()
        fused = loss_run(contrastive_loss, ctx, targets, masked, spec, 6)
        assert all(np.isfinite(a).all() for a in fused[2:])
        with np.errstate(invalid="ignore"):
            ref = loss_run(composed_contrastive_loss, ctx, targets, masked, spec, 6)
        npt.assert_allclose(fused[2], ref[2], rtol=0, atol=1e-12)
        keep = [0, 1, 2, 4]  # the composed gradient is NaN on the zero row
        npt.assert_allclose(fused[3][:, keep], ref[3][:, keep], rtol=0, atol=1e-12)

    def test_one_call_is_one_tape_node(self):
        gen = np.random.default_rng(7)
        ctx = Tensor(gen.normal(size=(2, 6, 4)), requires_grad=True)
        targets = Tensor(gen.normal(size=(2, 6, 4)), requires_grad=True)
        loss, _ = contrastive_loss(
            ctx, targets, np.array([2, 3]), ContrastiveSpec(4), Rng(8)
        )
        assert loss._parents == (ctx, targets)

    def test_frozen_targets_get_no_gradient(self):
        gen = np.random.default_rng(9)
        ctx = Tensor(gen.normal(size=(2, 6, 4)), requires_grad=True)
        targets = Tensor(gen.normal(size=(2, 6, 4)))
        loss, _ = contrastive_loss(
            ctx, targets, np.array([2, 3]), ContrastiveSpec(4), Rng(10)
        )
        loss.backward()
        assert targets.grad is None
        assert np.isfinite(ctx.grad).all()
        assert not ctx.grad[:, [0, 1, 4, 5]].any()

    def test_repeated_masked_positions_rejected(self):
        seq = Tensor(np.ones((1, 5, 4)))
        with pytest.raises(ValueError, match="distinct"):
            contrastive_loss(
                seq, seq, np.array([1, 1]), ContrastiveSpec(), Rng(11)
            )


class TestLossMemory:
    def test_training_loss_keeps_no_distractor_tensor(self):
        # at width 32, 50 masked rows and K = 20, one (N, M, K, D) float32
        # tensor is 500 KiB; the fused node keeps ~135 KiB, and the composed
        # loss kept ~1.8 MiB: the gathered distractors and two products of
        # that shape among them
        config = ModelConfig(
            in_channels=2,
            conv_blocks=3,
            conv_channels=32,
            transformer_layers=2,
            heads=4,
            model_dim=32,
            ffn_dim=64,
            classifier_dims=((32, 8), (8, 2)),
            group_norm_groups=4,
            pos_conv_kernel=5,
            pos_conv_groups=4,
        )
        params = init_weights(config, "random", Rng(50).child("init"))
        n, positions = 4, 100
        X = Rng(51).child("x").normal(size=(n, 2, 12 * positions))
        X = X.astype(np.float32)
        mask, spec = MaskSpec(mask_prob=0.5, span_len=1), ContrastiveSpec()
        tracemalloc.start()
        try:
            ctx, targets, masked = forward_pretrain(
                config, params, X, mask, Rng(52), training=True
            )
            tape = tracemalloc.get_traced_memory()[0]
            loss, _ = contrastive_loss(ctx, targets, masked, spec, Rng(53))
            kept = tracemalloc.get_traced_memory()[0] - tape
        finally:
            tracemalloc.stop()
        assert loss.requires_grad and ctx.shape == (n, positions + 1, 32)
        distractors = n * masked.size * spec.num_distractors * 32 * 4
        assert masked.size == 50 and kept < distractors / 2


class TestSswceLoss:
    def test_hand_evaluated_mixed_batch(self):
        probs = Tensor(np.array([[0.3, 0.7], [0.8, 0.2]]))
        loss = sswce_loss(probs, np.array([1, 0]), SswceSpec(alpha=0.8, beta=0.2))
        npt.assert_allclose(loss.item(), 0.32997, atol=1e-5)

    def test_alpha_one_reduces_to_positive_ce(self):
        probs = Tensor(np.array([[0.3, 0.7], [0.8, 0.2], [0.4, 0.6]]))
        labels = np.array([1, 0, 1])
        loss = sswce_loss(probs, labels, SswceSpec(alpha=1.0, beta=0.0))
        expected = np.mean([-np.log(0.7), -np.log(0.6)])
        npt.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_perfect_predictions_give_zero(self):
        probs = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        loss = sswce_loss(probs, np.array([1, 0]), SswceSpec())
        npt.assert_allclose(loss.item(), 0.0, atol=1e-12)

    def test_absent_class_contributes_nothing(self):
        probs = Tensor(np.array([[0.3, 0.7], [0.4, 0.6]]))
        labels = np.array([1, 1])
        loss = sswce_loss(probs, labels, SswceSpec(alpha=0.8, beta=0.2))
        expected = 0.8 * np.mean([-np.log(0.7), -np.log(0.6)])
        npt.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_zero_probability_is_clamped(self):
        probs = Tensor(np.array([[1.0, 0.0]]))
        loss = sswce_loss(probs, np.array([1]), SswceSpec())
        npt.assert_allclose(loss.item(), 0.8 * -np.log(1e-12), rtol=1e-9)

    def test_gradient_through_logits(self):
        rng = Rng(11).child("s")
        logits = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        labels = np.array([1, 0, 1, 1, 0, 0])

        def closure(z):
            return sswce_loss(softmax(z, axis=-1), labels, SswceSpec())

        report = grad_check(closure, [logits])
        assert report.max_rel_err < 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError, match="batch, 2"):
            sswce_loss(Tensor(np.zeros((3, 4))), np.zeros(3), SswceSpec())
        with pytest.raises(ValueError, match="labels"):
            sswce_loss(Tensor(np.ones((2, 2)) / 2), np.array([0, 2]), SswceSpec())
        with pytest.raises(ConfigError, match="equal 1"):
            SswceSpec(alpha=0.5, beta=0.2)

    @given(st.integers(min_value=1, max_value=16), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_loss_is_non_negative(self, batch, seed):
        gen = np.random.default_rng(seed)
        raw = gen.uniform(0.01, 1.0, size=(batch, 2))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = gen.integers(0, 2, size=batch)
        loss = sswce_loss(Tensor(probs), labels, SswceSpec())
        assert loss.item() >= 0.0
