"""Optimizer, schedule, and sampler tests, including a from-scratch Adam
reference simulation used as the update-rule oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from seizenet.errors import ConfigError, NumericsError, SamplerError
from seizenet.nn import Tensor
from seizenet.optim import (
    AdamState,
    OptimSpec,
    PlateauEarlyStopper,
    ScheduleSpec,
    adam_step,
    smote,
    weighted_sampler,
)
from seizenet.rand import Rng


def reference_adam(p0, grads, spec, lr=None):
    """Plain-loop Adam with decoupled decay, independent of the package."""
    lr = spec.lr if lr is None else lr
    p = float(p0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        p -= lr * spec.weight_decay * p
        m = spec.beta1 * m + (1 - spec.beta1) * g
        v = spec.beta2 * v + (1 - spec.beta2) * g * g
        m_hat = m / (1 - spec.beta1**t)
        v_hat = v / (1 - spec.beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + spec.eps)
    return p


class TestAdamStep:
    def test_zero_gradients_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        adam_step({"p": p}, AdamState(), OptimSpec(weight_decay=0.0))
        npt.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_hand_value(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step({"p": p}, AdamState(), OptimSpec(weight_decay=0.0))
        npt.assert_allclose(p.data, [1.0 - 1e-4], atol=1e-10)

    def test_multi_step_matches_reference_loop(self):
        spec = OptimSpec(lr=0.01, weight_decay=0.02)
        grads = [0.5, -1.0, 2.0, 0.1]
        p = Tensor(np.array([0.7]), requires_grad=True)
        state = AdamState()
        for g in grads:
            p.grad = np.array([g])
            adam_step({"p": p}, state, spec)
        npt.assert_allclose(p.data, [reference_adam(0.7, grads, spec)], rtol=1e-12)

    def test_decay_applies_before_the_moment_update(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.0])
        adam_step({"p": p}, AdamState(), OptimSpec(lr=0.1, weight_decay=0.01))
        npt.assert_allclose(p.data, [0.999], rtol=1e-15)

    def test_frozen_params_bit_identical_and_stateless(self):
        frozen = Tensor(np.array([3.0]), requires_grad=False)
        frozen.grad = np.array([5.0])
        live = Tensor(np.array([1.0]), requires_grad=True)
        live.grad = np.array([1.0])
        state = AdamState()
        before = frozen.data.copy()
        for _ in range(10):
            adam_step({"a": frozen, "b": live}, state, OptimSpec())
        npt.assert_array_equal(frozen.data, before)
        assert "a" not in state.m
        assert live.data[0] != 1.0

    def test_nan_gradient_aborts_whole_step(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        a.grad = np.array([np.nan])
        b.grad = np.array([1.0])
        state = AdamState()
        with pytest.raises(NumericsError, match="aborted"):
            adam_step({"a": a, "b": b}, state, OptimSpec())
        npt.assert_array_equal(a.data, [1.0])
        npt.assert_array_equal(b.data, [2.0])
        assert state.t == 0

    def test_lr_override(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step({"p": p}, AdamState(), OptimSpec(weight_decay=0.0), lr=0.5)
        npt.assert_allclose(p.data, [0.5], atol=1e-8)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            OptimSpec(lr=0.0)
        with pytest.raises(ConfigError):
            OptimSpec(beta1=1.0)


def _decisions(history, spec):
    """Per-epoch decisions of one stopper fed ``history``; epoch n at [n-1]."""
    stopper = PlateauEarlyStopper(spec, base_lr=1.0)
    return [stopper.observe(loss) for loss in history]


class TestSchedule:
    def test_strict_improvement_always_continues(self):
        history = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25]
        assert _decisions(history, ScheduleSpec()) == ["continue"] * len(history)

    def test_best_at_three_reduces_at_eight_stops_at_eighteen(self):
        history = [3.0, 2.0, 1.0] + [1.0] * 15  # best at epoch 3, flat after
        decisions = _decisions(history, ScheduleSpec())
        assert decisions[7 - 1] == "continue"
        assert decisions[8 - 1] == "reduce_lr"
        assert decisions[9 - 1] == "continue"
        assert decisions[13 - 1] == "reduce_lr"
        assert decisions[18 - 1] == "stop"

    def test_improvement_resets_both_counters(self):
        history = [3.0, 2.0, 1.0] + [1.0] * 5 + [0.5]  # improves at epoch 9
        decisions = _decisions(history + [0.5] * 5, ScheduleSpec())
        assert decisions[len(history) - 1] == "continue"
        # next reduction needs 5 more flat epochs after the new best
        assert decisions[len(history) + 4 - 1] == "continue"
        assert decisions[len(history) + 5 - 1] == "reduce_lr"

    def test_two_reductions_scale_lr_by_exactly_001(self):
        stopper = PlateauEarlyStopper(ScheduleSpec(), base_lr=1e-4)
        decisions = [stopper.observe(v) for v in [1.0] + [1.0] * 10]
        assert decisions.count("reduce_lr") == 2
        assert stopper.lr == 1e-4 * 0.1 * 0.1

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(plateau_factor=1.0)
        with pytest.raises(ConfigError):
            ScheduleSpec(plateau_patience=0)


class TestWeightedSampler:
    def test_rebalances_ninety_ten_to_even(self):
        labels = np.array([0] * 90 + [1] * 10)
        stream = weighted_sampler(labels, Rng(0).child("sampler"))
        draws = np.array([next(stream) for _ in range(10_000)])
        positive_fraction = labels[draws].mean()
        assert abs(positive_fraction - 0.5) < 0.02

    def test_balanced_dataset_samples_uniformly(self):
        labels = np.array([0] * 50 + [1] * 50)
        stream = weighted_sampler(labels, Rng(1).child("sampler"))
        draws = np.array([next(stream) for _ in range(20_000)])
        counts = np.bincount(draws, minlength=100)
        npt.assert_allclose(counts / draws.size, 0.01, atol=0.005)

    def test_fixed_seed_gives_identical_stream(self):
        labels = np.array([0] * 20 + [1] * 5)
        s1 = weighted_sampler(labels, Rng(7).child("sampler"))
        s2 = weighted_sampler(labels, Rng(7).child("sampler"))
        assert [next(s1) for _ in range(500)] == [next(s2) for _ in range(500)]

    def test_single_class_rejected(self):
        with pytest.raises(SamplerError, match="both classes"):
            weighted_sampler(np.zeros(10, dtype=int), Rng(2))


class TestSmote:
    def test_balances_ninety_ten_to_parity(self):
        rng = Rng(3).child("data")
        x = rng.normal(size=(100, 4))
        y = np.array([0] * 90 + [1] * 10)
        x_aug, y_aug = smote(x, y, k=5, rng=Rng(4).child("smote"))
        assert (y_aug == 0).sum() == 90
        assert (y_aug == 1).sum() == 90
        npt.assert_array_equal(x_aug[:100], x)

    def test_identical_minority_points_synthesize_themselves(self):
        x = np.vstack([np.zeros((6, 3)), np.ones((2, 3)) * 4.0])
        y = np.array([0] * 6 + [1] * 2)
        x_aug, y_aug = smote(x, y, k=1, rng=Rng(5).child("smote"))
        npt.assert_allclose(x_aug[y_aug == 1], 4.0)

    def test_k1_synthetics_lie_on_the_segment(self):
        a = np.array([0.0, 0.0])
        b = np.array([2.0, 4.0])
        x = np.vstack([np.random.default_rng(0).normal(10, 1, (8, 2)), a, b])
        y = np.array([0] * 8 + [1] * 2)
        x_aug, y_aug = smote(x, y, k=1, rng=Rng(6).child("smote"))
        synth = x_aug[10:]
        assert len(synth) == 6
        # every synthetic is a + u*(b - a) for u in [0, 1]
        u = synth[:, 1] / 4.0
        npt.assert_allclose(synth[:, 0], 2.0 * u, atol=1e-12)
        assert np.all(u >= 0) and np.all(u <= 1)

    def test_window_shaped_samples_keep_their_shape(self):
        rng = Rng(7).child("data")
        x = rng.normal(size=(12, 2, 16))
        y = np.array([0] * 8 + [1] * 4)
        x_aug, y_aug = smote(x, y, k=3, rng=Rng(8).child("smote"))
        assert x_aug.shape == (16, 2, 16)

    def test_insufficient_minority_rejected(self):
        x = np.zeros((10, 2))
        y = np.array([0] * 8 + [1] * 2)
        with pytest.raises(SamplerError, match="k=5"):
            smote(x, y, k=5, rng=Rng(9))

    def test_single_class_rejected(self):
        with pytest.raises(SamplerError, match="two classes"):
            smote(np.zeros((4, 2)), np.zeros(4, dtype=int), k=1, rng=Rng(10))

    def test_determinism(self):
        rng = Rng(11).child("data")
        x = rng.normal(size=(40, 3))
        y = np.array([0] * 30 + [1] * 10)
        a, _ = smote(x, y, k=2, rng=Rng(12).child("smote"))
        b, _ = smote(x, y, k=2, rng=Rng(12).child("smote"))
        npt.assert_array_equal(a, b)
