"""Loss function tests against closed-form hand evaluations and FD checks."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizenet.errors import ConfigError, ShapeError
from seizenet.nn import Tensor, grad_check, softmax
from seizenet.objectives import (
    ContrastiveSpec,
    SswceSpec,
    _cosine,
    contrastive_loss,
    sample_distractor_indices,
    sswce_loss,
)
from seizenet.rand import Rng


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
