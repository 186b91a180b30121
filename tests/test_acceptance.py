"""End-to-end acceptance suite.

Ten numbered checks cover the project checklist: kernel gradients, filter
response, metric fidelity, post-processing safety, the config grid, split
protocol, full-pipeline learning, pretraining transfer, determinism, and
oversampling balance.  Each check prints one PASS/FAIL line past pytest's
capture so a piped log always shows the verdict table, then asserts.

The learning checks (07, 08) train real models and dominate the runtime;
everything else completes in seconds.
"""

import filecmp
import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from seizenet.cli import main
from seizenet.evalpost import (
    PredictionTrack,
    aggregate,
    event_sensitivity,
    postprocess_labels,
    score_track,
    truth_events_from_intervals,
)
from seizenet.model import (
    MaskSpec,
    ModelConfig,
    encoded_length,
    forward_classifier,
    forward_pretrain,
    init_weights,
)
from seizenet.nn import (
    Tensor,
    conv1d,
    dropout,
    gelu,
    grad_check,
    group_norm,
    layer_norm,
    linear,
    multi_head_attention,
    softmax,
)
from seizenet.objectives import (
    ContrastiveSpec,
    SswceSpec,
    contrastive_loss,
    sswce_loss,
)
from seizenet.optim import (
    OptimSpec,
    ScheduleSpec,
    smote,
    weighted_sampler,
    zero_grads,
)
from seizenet.preprocess import (
    FilterSpec,
    design_butterworth_bandpass,
    response_db,
    section_poles,
)
from seizenet.rand import Rng
from seizenet.synthgen import CorpusSpec, generate_recording
from seizenet.training import (
    SamplerSpec,
    TrainSpec,
    checkpoint_source,
    plan_loocv,
    prepare_recordings,
    run_fold,
    run_pretraining,
    run_second_pretraining,
)


_RESULTS: list[str] = []


def _report(tag: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"{tag}: {'PASS' if ok else 'FAIL'}{suffix}"
    _RESULTS.append(line)
    print(line, flush=True)


def _eval_probs(config, params, X, batch=32):
    chunks = [
        forward_classifier(
            config, params, X[start : start + batch], training=False
        ).data[:, 1]
        for start in range(0, len(X), batch)
    ]
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# 01: every differentiable kernel and both losses against finite differences
# ---------------------------------------------------------------------------


def _gradient_cases(seed):
    """One closure per kernel; elementwise ops carry the tighter tolerance."""
    rng = Rng(seed).child("gradsuite")

    def t(*shape, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)

    def u(lo, hi, *shape):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)

    cases = []

    x, w, b = t(3, 4), t(4, 2), t(2)
    cases.append(
        ("linear", 1e-4, lambda xx, ww, bb: (linear(xx, ww, bb) ** 2).sum(), [x, w, b])
    )

    g = u(-3.0, 3.0, 13)
    cases.append(("gelu", 1e-6, lambda p: gelu(p).sum(), [g]))

    s = t(4, 5)
    s_w = rng.normal(size=(4, 5))
    cases.append(
        ("softmax", 1e-4, lambda xx: (softmax(xx, axis=-1) * s_w).sum(), [s])
    )

    d = t(6, 6)
    cases.append(
        (
            "dropout",
            1e-6,
            lambda xx: (
                dropout(xx, 0.3, Rng(seed).child("mask"), training=True) ** 2
            ).sum(),
            [d],
        )
    )

    cx, cw, cb = t(2, 17), t(3, 2, 5, scale=0.5), t(3)
    cases.append(
        (
            "conv1d",
            1e-4,
            lambda xx, ww, bb: (conv1d(xx, ww, bb, stride=2) ** 2).sum(),
            [cx, cw, cb],
        )
    )

    gx, gw = t(4, 14), t(4, 2, 3, scale=0.5)
    cases.append(
        (
            "conv1d_grouped_padded",
            1e-4,
            lambda xx, ww: (conv1d(xx, ww, stride=2, padding=1, groups=2) ** 2).sum(),
            [gx, gw],
        )
    )

    nx, ngamma, nbeta = t(4, 7), u(0.5, 1.5, 4), t(4)
    cases.append(
        (
            "group_norm",
            1e-4,
            lambda xx, gg, bb: (group_norm(xx, 2, gg, bb) ** 2).sum(),
            [nx, ngamma, nbeta],
        )
    )

    lx, lgamma, lbeta = t(3, 6), u(0.5, 1.5, 6), t(6)
    cases.append(
        (
            "layer_norm",
            1e-4,
            lambda xx, gg, bb: (layer_norm(xx, gg, bb) ** 2).sum(),
            [lx, lgamma, lbeta],
        )
    )

    ax = t(5, 8, scale=0.5)
    aws = [t(8, 8, scale=0.5) for _ in range(4)]
    cases.append(
        (
            "multi_head_attention",
            1e-4,
            lambda xx, q, k, v, o: (
                multi_head_attention(xx, 2, q, k, v, o) ** 2
            ).sum(),
            [ax, *aws],
        )
    )

    ctx, targets = t(2, 5, 8), t(2, 5, 8)
    masked = np.array([1, 3])
    cspec = ContrastiveSpec(num_distractors=3)
    cases.append(
        (
            "contrastive_loss",
            1e-4,
            lambda cc, tt: contrastive_loss(
                cc, tt, masked, cspec, Rng(seed).child("distractors")
            )[0],
            [ctx, targets],
        )
    )

    probs = u(0.05, 0.95, 6, 2)
    labels = np.array([0, 1, 0, 1, 1, 0])
    cases.append(
        (
            "sswce_loss",
            1e-4,
            lambda pp: sswce_loss(pp, labels, SswceSpec()),
            [probs],
        )
    )

    return cases


def test_01_kernel_and_loss_gradients():
    t0 = time.time()
    failures = []
    for seed in range(20):
        for name, tol, fn, inputs in _gradient_cases(seed):
            report = grad_check(fn, inputs, step=1e-4)
            if not report.passed(tol):
                failures.append((name, seed, report.max_rel_err))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    _report("01 kernel+loss gradients", ok, f"20 seeds, {elapsed:.0f}s")
    assert not failures, f"gradient mismatches: {failures}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 02: band-pass frequency response evaluated from the emitted sections
# ---------------------------------------------------------------------------


def test_02_bandpass_frequency_response():
    spec = FilterSpec()
    sos = design_butterworth_bandpass(spec)
    edges = response_db(sos, np.array([0.5, 50.0]), spec.sample_rate_hz)
    dc = response_db(sos, np.array([0.0]), spec.sample_rate_hz)[0]
    stop = response_db(sos, np.array([80.0]), spec.sample_rate_hz)[0]
    poles_ok = all(
        np.all(np.abs(poles) < 1.0) for poles in section_poles(sos)
    )
    ok = (
        bool(np.all(np.abs(edges - (-3.01)) <= 0.5))
        and dc < -60.0
        and stop <= -20.0
        and poles_ok
    )
    _report(
        "02 band-pass response",
        ok,
        f"edges {edges[0]:.2f}/{edges[1]:.2f} dB, 80Hz {stop:.1f} dB",
    )
    assert np.all(np.abs(edges - (-3.01)) <= 0.5), f"edge gains {edges} dB"
    assert dc < -60.0, f"DC gain {dc} dB"
    assert stop <= -20.0, f"80 Hz gain {stop} dB"
    assert poles_ok, "pole outside the unit circle"


# ---------------------------------------------------------------------------
# 03: event metrics against a brute-force re-implementation
# ---------------------------------------------------------------------------


def _random_track(rng):
    n = int(rng.integers(1, 65))
    window_s = float(rng.choice(np.array([1.0, 2.0, 8.0])))
    density = rng.uniform(0.05, 0.6)
    probs = rng.uniform(size=n)
    # random disjoint sorted truth events, occasionally touching, often none
    events = []
    pos = 0
    for _ in range(int(rng.integers(0, 4))):
        a = pos + int(rng.integers(0, 8))
        b = a + int(rng.integers(1, 6))
        if b > n:
            break
        events.append((a, b))
        pos = b + int(rng.integers(0, 3))
    labels = (rng.uniform(size=n) < density).astype(np.int64)
    return probs, labels, events, window_s


def _positive_runs(labels):
    runs, i = [], 0
    while i < len(labels):
        if not labels[i]:
            i += 1
            continue
        j = i
        while j < len(labels) and labels[j]:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def _brute_metrics(labels, events, window_s):
    """Metric definitions restated from scratch for cross-checking."""
    detected = sum(1 for a, b in events if any(labels[a:b]))
    false_runs = [
        (i, j)
        for i, j in _positive_runs(labels)
        if not any(max(i, a) < min(j, b) for a, b in events)
    ]
    hours = len(labels) * window_s / 3600.0
    sens = None if not events else detected / len(events)
    return sens, len(false_runs) / hours


def test_03_event_metrics_match_brute_force():
    t0 = time.time()
    rng = Rng(7).child("metric-oracle")
    tracked_events = 0
    for _ in range(1000):
        probs, _, events, window_s = _random_track(rng)
        track = PredictionTrack(
            record_id="t", probs=probs, truth_events=events, window_s=window_s
        )
        sens, _ = event_sensitivity(track)
        score = score_track(track)
        brute_sens, brute_fph = _brute_metrics(
            track.labels(), events, window_s
        )
        assert sens == brute_sens
        assert score.sensitivity == brute_sens
        assert score.fp_per_h == brute_fph
        tracked_events += len(events)
    elapsed = time.time() - t0
    ok = elapsed < 10.0 and tracked_events > 500
    _report(
        "03 metric oracle",
        ok,
        f"1000 tracks, {tracked_events} events, {elapsed:.1f}s",
    )
    assert tracked_events > 500, "generator produced too few events"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 04: minPooling never adds positives or alarms
# ---------------------------------------------------------------------------


def test_04_minpool_is_conservative():
    hand = postprocess_labels([0, 1, 1, 1, 0], "minpool", 3)
    hand_ok = hand.tolist() == [0, 0, 1, 0, 0]

    rng = Rng(8).child("minpool")
    violations = 0
    for _ in range(1000):
        _, labels, _, window_s = _random_track(rng)
        w = int(rng.choice(np.array([3, 5, 7])))
        pooled = postprocess_labels(labels, "minpool", w)
        # no truth events: every alarm is false, so FP/h reduces to run count
        raw = PredictionTrack.from_labels("t", labels, window_s=window_s)
        post = PredictionTrack.from_labels("t", pooled, window_s=window_s)
        if pooled.sum() > labels.sum():
            violations += 1
        elif score_track(post).fp_per_h > score_track(raw).fp_per_h:
            violations += 1
    ok = hand_ok and violations == 0
    _report("04 minpool conservative", ok, f"1000 tracks, {violations} violations")
    assert hand_ok, f"hand example gave {hand.tolist()}"
    assert violations == 0


# ---------------------------------------------------------------------------
# 05: the full configuration grid builds and runs forward/backward
# ---------------------------------------------------------------------------


def test_05_config_grid_builds_and_trains():
    t0 = time.time()
    rng = Rng(9).child("grid")
    window = rng.normal(size=(1, 20, 2048))
    label = np.array([1])
    checked = []
    for conv_blocks in (3, 6):
        for layers in (2, 4, 6, 8, 12):
            config = ModelConfig(conv_blocks=conv_blocks, transformer_layers=layers)
            params = init_weights(
                config, "random", Rng(10).child("init", conv_blocks, layers)
            )
            probs = forward_classifier(config, params, window, training=False)
            assert probs.shape == (1, 2)
            assert np.all(np.isfinite(probs.data))
            zero_grads(params)
            loss = sswce_loss(probs, label, SswceSpec())
            loss.backward()
            grads = [
                t.grad for t in params.values() if t.requires_grad and t.grad is not None
            ]
            assert grads, "backward left no gradients"
            assert all(np.all(np.isfinite(g)) for g in grads)
            checked.append((conv_blocks, layers))

    six = ModelConfig()
    assert encoded_length(six, 2048) == 21
    params = init_weights(six, "random", Rng(10).child("init", 6, six.transformer_layers))
    _, targets, _ = forward_pretrain(
        six, params, window, MaskSpec(mask_prob=0.2, span_len=3), Rng(11).child("m")
    )
    with_special_ok = targets.shape[1] == 22

    elapsed = time.time() - t0
    ok = len(checked) == 10 and with_special_ok
    _report(
        "05 config grid",
        ok,
        f"{len(checked)} configs, S=21/22 tokens, {elapsed:.0f}s",
    )
    assert len(checked) == 10
    assert with_special_ok, f"special token gave {targets.shape[1]} positions"


# ---------------------------------------------------------------------------
# 06: split protocol invariants on a 4x5 corpus
# ---------------------------------------------------------------------------


def test_06_split_protocol_invariants():
    spec = CorpusSpec(
        subjects=4,
        records_per_subject=5,
        record_s=64,
        seizures_per_record=1,
        seizure_len_s=(8.0, 10.0),
        sample_rate_hz=64,
        channels=2,
        seed=5,
    )
    recordings = [
        generate_recording(spec, s, r)
        for s in range(spec.subjects)
        for r in range(spec.records_per_subject)
    ]
    dataset = prepare_recordings(recordings, window_s=2.0)
    config = ModelConfig(
        in_channels=2,
        conv_blocks=3,
        conv_channels=16,
        conv_strides=(3, 2, 2),
        model_dim=16,
        transformer_layers=2,
        heads=4,
        ffn_dim=32,
        dropout_p=0.1,
        classifier_dims=((16, 8), (8, 4), (4, 2)),
        group_norm_groups=4,
        pos_conv_kernel=5,
        pos_conv_groups=4,
    )

    subjects = sorted(set(r.subject_id for r in recordings))
    plan_ok = True
    for subject in subjects:
        records = sorted(
            r.record_id for r in recordings if r.subject_id == subject
        )
        plans = plan_loocv(subject, records, Rng(6).child("plan", subject))
        plan_ok &= sorted(p.test_record for p in plans) == records
        for plan in plans:
            train, val = set(plan.train_records), set(plan.val_records)
            pool_size = len(records) - 1
            plan_ok &= plan.test_record not in train | val
            plan_ok &= not train & val
            plan_ok &= train | val | {plan.test_record} == set(records)
            plan_ok &= len(val) == math.ceil(0.2 * pool_size)

    leak_ok = True
    for subject in subjects:
        result = run_second_pretraining(
            dataset,
            subject,
            config,
            Rng(6).child("second", subject),
            train_spec=TrainSpec(batch_size=16, max_epochs=0),
        )
        non_target = sum(
            1 for w in dataset.windows if w.subject_id != subject
        )
        leak_ok &= subject not in result.info["train_subjects"]
        leak_ok &= (
            result.info["train_window_count"] + result.info["val_window_count"]
            == non_target
        )

    ok = plan_ok and leak_ok
    _report("06 split protocol", ok, "4 subjects x 5 records")
    assert plan_ok, "leave-one-out partition invariant violated"
    assert leak_ok, "target windows reached the cross-subject stage"


# ---------------------------------------------------------------------------
# 07: the full pipeline learns the default synthetic corpus
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_07_full_pipeline_learns_default_corpus():
    t0 = time.time()
    corpus = CorpusSpec()
    recordings = [
        generate_recording(corpus, s, r)
        for s in range(corpus.subjects)
        for r in range(corpus.records_per_subject)
    ]
    dataset = prepare_recordings(
        recordings,
        window_s=8.0,
        filter_spec=FilterSpec(),
        normalization="meanstd",
    )
    # width 64 keeps the run inside the budget; the architecture is unchanged
    config = replace(
        ModelConfig(transformer_layers=4, heads=4).with_width(64), dropout_p=0.1
    )
    by_record = {r.record_id: r for r in recordings}
    subjects = sorted(set(r.subject_id for r in recordings))

    wins = 0
    details = []
    for seed in range(10):
        rng = Rng(seed)
        target = subjects[seed % len(subjects)]
        second = run_second_pretraining(
            dataset,
            target,
            config,
            rng.child("second", target),
            init_policy="random",
            sampler_spec=SamplerSpec(kind="weighted"),
            optim_spec=OptimSpec(lr=5e-4),
            schedule_spec=ScheduleSpec(),
            train_spec=TrainSpec(batch_size=32, max_epochs=8),
        )
        init = checkpoint_source(second)

        records = sorted(
            r.record_id
            for r in recordings
            if r.subject_id == target and r.seizures
        )
        plans = plan_loocv(target, records, rng.child("plan", target))
        subj_ds = dataset.subset(lambda w: w.subject_id == target)

        raw_scores, pooled_scores = [], []
        for plan in plans:
            fold = run_fold(
                plan,
                subj_ds,
                config,
                rng.child("fold", plan.test_record),
                init=init,
                init_policy="load_shared",
                freeze_policy="freeze_conv",
                sampler_spec=SamplerSpec(kind="weighted"),
                optim_spec=OptimSpec(lr=5e-4),
                schedule_spec=ScheduleSpec(),
                train_spec=TrainSpec(batch_size=32, max_epochs=2),
            )
            rec = by_record[plan.test_record]
            events = truth_events_from_intervals(
                rec.seizures, len(fold.probs), 8.0, rec.sample_rate_hz
            )
            track = PredictionTrack(
                record_id=plan.test_record,
                probs=fold.probs,
                truth_events=events,
                window_s=8.0,
            )
            raw_scores.append(score_track(track))
            pooled = postprocess_labels(track.labels(), "minpool", 3)
            pooled_scores.append(score_track(track.with_labels(pooled)))

        raw = aggregate(raw_scores)
        pooled = aggregate(pooled_scores)
        seed_ok = (
            raw.sensitivity is not None
            and raw.sensitivity >= 0.9
            and pooled.fp_per_h < raw.fp_per_h
        )
        wins += seed_ok
        details.append(
            f"s{seed}:{raw.sensitivity:.2f}/{raw.fp_per_h:.1f}->{pooled.fp_per_h:.1f}"
        )

    elapsed = time.time() - t0
    ok = wins >= 8 and elapsed < 1800.0
    _report("07 pipeline overfit", ok, f"{wins}/10 seeds, {elapsed:.0f}s")
    assert wins >= 8, f"only {wins}/10 seeds converged: {details}"
    assert elapsed < 1800.0, f"pipeline check took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 08: contrastive pretraining aligns masked positions and speeds up
#     supervised convergence
# ---------------------------------------------------------------------------

_TRANSFER_CORPUS = CorpusSpec(
    subjects=3,
    records_per_subject=3,
    record_s=64,
    seizures_per_record=1,
    seizure_len_s=(8.0, 10.0),
    sample_rate_hz=64,
    channels=2,
    seed=3,
)

_TRANSFER_CONFIG = ModelConfig(
    in_channels=2,
    conv_blocks=3,
    conv_channels=16,
    conv_strides=(3, 2, 2),
    model_dim=16,
    transformer_layers=2,
    heads=4,
    ffn_dim=32,
    dropout_p=0.1,
    classifier_dims=((16, 8), (8, 4), (4, 2)),
    group_norm_groups=4,
    pos_conv_kernel=5,
    pos_conv_groups=4,
)

_TRANSFER_MASK = MaskSpec(mask_prob=0.25, span_len=3)
_TRANSFER_CONTRASTIVE = ContrastiveSpec(num_distractors=10)


def _transfer_pretrain(dataset, seed):
    return run_pretraining(
        dataset.matrix(),
        _TRANSFER_CONFIG,
        Rng(seed).child("pretrain"),
        mask_spec=_TRANSFER_MASK,
        contrastive_spec=_TRANSFER_CONTRASTIVE,
        optim_spec=OptimSpec(lr=1e-3),
        train_spec=TrainSpec(batch_size=16, max_epochs=15),
    )


def _epochs_to_detection(dataset, by_record, init, seed, max_epochs=40):
    """First epoch whose held-out-subject predictions detect every event
    while rejecting at least half the background windows."""
    subjects = sorted(set(w.subject_id for w in dataset.windows))
    subject = subjects[seed % len(subjects)]
    target = dataset.subset(lambda w: w.subject_id == subject)
    X = target.matrix()

    spans = {}
    for w in target.windows:
        spans.setdefault(w.record_id, []).append(w)
    events = []
    outside = np.ones(len(target.windows), dtype=bool)
    base = 0
    for record_id, windows in spans.items():
        rec = by_record[record_id]
        for a, b in truth_events_from_intervals(
            rec.seizures, len(windows), 2.0, rec.sample_rate_hz
        ):
            events.append((base + a, base + b))
            outside[base + a : base + b] = False
        base += len(windows)

    hit = [max_epochs + 1]

    def probe(epoch, params):
        if hit[0] <= max_epochs:
            return
        probs = _eval_probs(_TRANSFER_CONFIG, params, X)
        track = PredictionTrack(
            record_id="pooled", probs=probs, truth_events=events, window_s=2.0
        )
        sens = score_track(track).sensitivity
        reject = (probs[outside] >= 0.5).sum() / outside.sum()
        if sens is not None and sens >= 0.9 and reject <= 0.5:
            hit[0] = epoch + 1

    run_second_pretraining(
        dataset,
        subject,
        _TRANSFER_CONFIG,
        Rng(seed).child("second", subject),
        init=init,
        init_policy="load_shared" if init is not None else "random",
        sampler_spec=SamplerSpec(kind="weighted"),
        optim_spec=OptimSpec(lr=1e-3),
        schedule_spec=ScheduleSpec(),
        train_spec=TrainSpec(batch_size=16, max_epochs=max_epochs),
        epoch_callback=probe,
    )
    return hit[0]


@pytest.mark.slow
def test_08_pretraining_aligns_and_transfers():
    t0 = time.time()
    recordings = [
        generate_recording(_TRANSFER_CORPUS, s, r)
        for s in range(_TRANSFER_CORPUS.subjects)
        for r in range(_TRANSFER_CORPUS.records_per_subject)
    ]
    dataset = prepare_recordings(recordings, window_s=2.0)
    by_record = {r.record_id: r for r in recordings}

    gaps = [
        _transfer_pretrain(dataset, seed).info["final_alignment_gap"]
        for seed in range(20)
    ]
    aligned = sum(gap >= 0.1 for gap in gaps)

    shared = _transfer_pretrain(dataset, 101)
    init = checkpoint_source(shared)
    pretrained = [
        _epochs_to_detection(dataset, by_record, init, seed) for seed in range(10)
    ]
    random = [
        _epochs_to_detection(dataset, by_record, None, seed) for seed in range(10)
    ]
    med_pre = float(np.median(pretrained))
    med_rnd = float(np.median(random))

    elapsed = time.time() - t0
    ok = aligned >= 18 and med_pre < med_rnd
    _report(
        "08 pretraining transfer",
        ok,
        f"gap>=0.1 in {aligned}/20, epochs {med_pre} vs {med_rnd}, {elapsed:.0f}s",
    )
    assert aligned >= 18, f"alignment gaps: {[round(g, 3) for g in gaps]}"
    assert med_pre < med_rnd, (
        f"pretrained {pretrained} vs random {random}"
    )


# ---------------------------------------------------------------------------
# 09: the command-line pipeline is byte-for-byte reproducible
# ---------------------------------------------------------------------------

_SMOKE_CORPUS = {
    "subjects": 2,
    "records_per_subject": 3,
    "record_s": 64,
    "seizures_per_record": 1,
    "seizure_len_s": [8.0, 10.0],
    "sample_rate_hz": 64,
    "channels": 2,
    "seed": 11,
}

_SMOKE_MODEL = {
    "in_channels": 2,
    "conv_blocks": 3,
    "conv_channels": 16,
    "conv_strides": [3, 2, 2],
    "model_dim": 16,
    "transformer_layers": 2,
    "heads": 4,
    "ffn_dim": 32,
    "dropout_p": 0.0,
    "classifier_dims": [[16, 8], [8, 2]],
    "group_norm_groups": 4,
    "pos_conv_kernel": 5,
    "pos_conv_groups": 4,
}


def _run_smoke_chain(root, corpus_dir, out_dir):
    config = {
        "corpus_dir": str(corpus_dir),
        "out_dir": str(out_dir),
        "seed": 5,
        "window_s": 2.0,
        "model": _SMOKE_MODEL,
        "optim": {"lr": 0.001},
        "train": {"batch_size": 8, "max_epochs": 1},
        "preprocess": {"filter": None},
    }
    path = root / f"{out_dir.name}.json"
    path.write_text(json.dumps(config, indent=2))
    for command in ("pretrain", "second-pretrain", "loocv", "eval"):
        assert main([command, "--config", str(path)]) == 0


def test_09_pipeline_is_deterministic(tmp_path):
    corpus_cfg = tmp_path / "corpus.json"
    corpus_cfg.write_text(json.dumps(_SMOKE_CORPUS))
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--config", str(corpus_cfg), "--out", str(corpus_dir)]) == 0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run_smoke_chain(tmp_path, corpus_dir, out_a)
    _run_smoke_chain(tmp_path, corpus_dir, out_b)

    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    results = [n for n in names_a if n.endswith((".json", ".csv"))]
    mismatched = [
        name
        for name in results
        if not filecmp.cmp(out_a / name, out_b / name, shallow=False)
    ]
    ok = names_a == names_b and results and not mismatched
    _report(
        "09 determinism",
        ok,
        f"{len(results)} result files byte-identical",
    )
    assert names_a == names_b
    assert results, "smoke chain wrote no result files"
    assert not mismatched, f"differing outputs: {mismatched}"


# ---------------------------------------------------------------------------
# 10: oversampling balances a 90/10 dataset
# ---------------------------------------------------------------------------


def test_10_oversamplers_balance_classes():
    labels = np.array([0] * 900 + [1] * 100)
    stream = weighted_sampler(labels, Rng(77).child("weighted"))
    drawn = np.fromiter(itertools.islice(stream, 10_000), dtype=np.int64)
    weighted_frac = labels[drawn].mean()

    rng = Rng(78).child("smote")
    x = rng.normal(size=(1000, 6))
    x_aug, y_aug = smote(x, labels, 5, rng.child("fit"))
    picks = rng.child("draw").integers(0, len(y_aug), size=10_000)
    smote_frac = y_aug[picks].mean()

    # k=1 geometry: each synthetic point lies on the segment between one
    # minority sample and that sample's nearest minority neighbor
    x1, _ = smote(x, labels, 1, rng.child("hull"))
    synth = x1[1000:]
    minority = x[labels == 1]
    diff = minority[:, None, :] - minority[None, :, :]
    d2 = (diff**2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    nearest = minority[np.argmin(d2, axis=1)]
    seg = nearest - minority
    seg_len2 = (seg**2).sum(axis=-1)
    t = ((synth[:, None, :] - minority[None]) * seg[None]).sum(-1) / seg_len2[None]
    proj = minority[None] + t[..., None] * seg[None]
    resid = np.linalg.norm(synth[:, None, :] - proj, axis=-1)
    on_segment = (resid < 1e-9) & (t >= -1e-9) & (t <= 1.0 + 1e-9)
    hull_ok = bool(on_segment.any(axis=1).all())

    ok = (
        abs(weighted_frac - 0.5) <= 0.02
        and abs(smote_frac - 0.5) <= 0.02
        and hull_ok
    )
    _report(
        "10 oversampling",
        ok,
        f"weighted {weighted_frac:.3f}, smote {smote_frac:.3f}",
    )
    assert abs(weighted_frac - 0.5) <= 0.02, f"weighted fraction {weighted_frac}"
    assert abs(smote_frac - 0.5) <= 0.02, f"smote fraction {smote_frac}"
    assert hull_ok, "synthetic sample off its neighbor segment"
