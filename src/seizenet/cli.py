"""Command-line orchestration of the full pipeline.

Subcommands cover corpus synthesis, the three training stages, and the
post-processing evaluation sweep.  Every output embeds the experiment
config hash so later stages refuse to resume on top of results produced
under a different configuration.  Outputs carry no timestamps or absolute
paths, which makes reruns with identical config and seed byte-identical.

Exit codes: 0 success, 2 configuration errors, 3 protocol errors,
4 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, is_dataclass
from itertools import repeat
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .eegio import load_corpus
from .errors import (
    ConfigError,
    NumericsError,
    ProtocolError,
    SamplerError,
    SeizenetError,
    TrainError,
)
from .evalpost import (
    POSTPROCESS_METHODS,
    EventScore,
    PredictionTrack,
    _check_window,
    aggregate,
    postprocess_labels,
    score_track,
    truth_events_from_intervals,
)
from .model import FREEZE_POLICIES, INIT_POLICIES, MaskSpec, ModelConfig
from .nn.checkpoint import config_hash, load_checkpoint, save_checkpoint, write_atomic
from .objectives import ContrastiveSpec, SswceSpec
from .optim import OptimSpec, ScheduleSpec
from .preprocess import NORMALIZATION_METHODS, FilterSpec
from .rand import Rng
from .synthgen import CorpusSpec, generate_corpus
from .training import (
    FoldPlan,
    SamplerSpec,
    TrainSpec,
    check_pretraining,
    plan_loocv,
    prepare_recordings,
    run_fold,
    run_pretraining,
    run_second_pretraining,
)

PROTOCOL_FAILURES = (ProtocolError, SamplerError)
NUMERIC_FAILURES = (NumericsError, TrainError)
# caught after the two above, so every other SeizenetError exits 2
CONFIG_FAILURES = (SeizenetError, OSError, json.JSONDecodeError)

@dataclass
class Experiment:
    corpus_dir: Path
    out_dir: Path
    seed: int
    window_s: float
    model: ModelConfig
    mask: MaskSpec
    contrastive: ContrastiveSpec
    sswce: SswceSpec
    optim: OptimSpec
    schedule: ScheduleSpec
    sampler: SamplerSpec
    train: TrainSpec
    freeze_policy: str
    init_policy: str
    filter_spec: FilterSpec | None
    normalization: str | None
    postprocess_methods: list[str]
    postprocess_widths: list[int]
    hash: str


# The spec sections of an experiment config: each Experiment field typed by a
# dataclass is read from the config key of its name and hashed as ``asdict``.
_SECTIONS = {
    key: cls for key, cls in get_type_hints(Experiment).items() if is_dataclass(cls)
}
_EXPERIMENT_KEYS = {
    "corpus_dir", "out_dir", "seed", "window_s", "freeze_policy", "init_policy",
    "preprocess", "postprocess", *_SECTIONS,
}


def _integral(value, name: str) -> int:
    """``int(value)``, else ConfigError naming ``name``: 3.0 is 3; 3.9 and
    booleans are refused."""
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


# how many list levels down a field's integers sit, by its annotation
_INTEGER_DEPTH = {"int": 0, "tuple[int, ...]": 1, "tuple[tuple[int, int], ...]": 2}


def _integers(value, name: str, depth: int):
    """``value`` with ``_integral`` applied ``depth`` list levels down."""
    if depth == 0:
        return _integral(value, name)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [_integers(v, f"{name}[{i}]", depth - 1) for i, v in enumerate(value)]


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"bad {name!r} section: expected an object")
    return value


def _build_section(cls, section, name: str):
    """``cls(**section)``, with every integer field through ``_integral``, so
    4.0 loads as 4 and hashes as 4."""
    depth = {f.name: _INTEGER_DEPTH.get(f.type) for f in fields(cls)}
    section = {
        key: value if depth.get(key) is None
        else _integers(value, f"{name}.{key}", depth[key])
        for key, value in _object(section, name).items()
    }
    try:
        return cls(**section)
    except TypeError as err:
        raise ConfigError(f"bad {name!r} section: {err}") from None


def load_experiment(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> Experiment:
    """Parse, default-fill, and hash an experiment config file.

    The hash covers every behavioral knob but not where inputs and outputs
    live, so moving an experiment between directories keeps its identity.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = sorted(set(raw) - _EXPERIMENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    seed = _integral(seed, "seed")
    corpus_dir = raw.get("corpus_dir", "corpus")
    out_dir = out_override or raw.get("out_dir", "out")
    for key, value in (("corpus_dir", corpus_dir), ("out_dir", out_dir)):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string, got {value!r}")
    window_s = raw.get("window_s", 8.0)
    try:  # a JSON number: neither a boolean nor a string
        window_s = np.nan if isinstance(window_s, (bool, str)) else float(window_s)
    except (TypeError, OverflowError):
        window_s = np.nan
    if not 0 < window_s < np.inf:
        raise ConfigError(
            f"window_s must be a positive number, got {raw['window_s']!r}"
        )

    sections = {
        key: _build_section(cls, raw.get(key, {}), key)
        for key, cls in _SECTIONS.items()
    }

    freeze_policy = raw.get("freeze_policy", "none")
    if freeze_policy not in FREEZE_POLICIES:
        raise ConfigError(f"freeze_policy must be one of {FREEZE_POLICIES}")
    init_policy = raw.get("init_policy", "load_shared")
    if init_policy not in INIT_POLICIES:
        raise ConfigError(f"init_policy must be one of {INIT_POLICIES}")

    preprocess = _object(raw.get("preprocess", {}), "preprocess")
    unknown = sorted(set(preprocess) - {"filter", "normalization"})
    if unknown:
        raise ConfigError(f"unknown preprocess keys: {', '.join(unknown)}")
    filter_section = preprocess.get("filter", "default")
    if filter_section == "default":
        filter_spec = FilterSpec()
    elif filter_section is None:
        filter_spec = None
    elif isinstance(filter_section, dict):
        filter_spec = _build_section(FilterSpec, filter_section, "preprocess.filter")
    else:
        raise ConfigError("preprocess.filter must be null, 'default', or an object")
    normalization = preprocess.get("normalization", "meanstd")
    if normalization not in (None, *NORMALIZATION_METHODS):
        raise ConfigError(
            f"preprocess.normalization must be null or one of "
            f"{NORMALIZATION_METHODS}, got {normalization!r}"
        )

    postprocess = _object(raw.get("postprocess", {}), "postprocess")
    unknown = sorted(set(postprocess) - {"methods", "widths"})
    if unknown:
        raise ConfigError(f"unknown postprocess keys: {', '.join(unknown)}")
    methods = postprocess.get("methods", POSTPROCESS_METHODS)
    widths = postprocess.get("widths", [3, 5, 7])
    for key, value in (("methods", methods), ("widths", widths)):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"postprocess.{key} must be a list, got {value!r}")
    methods = list(methods)
    unknown = [m for m in methods if m not in POSTPROCESS_METHODS]
    if unknown:
        raise ConfigError(
            f"unknown postprocess methods {unknown}; "
            f"choose from {POSTPROCESS_METHODS}"
        )
    widths = [_integral(w, "each of postprocess widths") for w in widths]
    for w in widths:
        _check_window(w)

    resolved = {
        "seed": seed,
        "window_s": window_s,
        **{key: asdict(spec) for key, spec in sections.items()},
        "freeze_policy": freeze_policy,
        "init_policy": init_policy,
        "preprocess": {
            "filter": None if filter_spec is None else asdict(filter_spec),
            "normalization": normalization,
        },
        "postprocess": {"methods": methods, "widths": widths},
    }

    return Experiment(
        corpus_dir=Path(corpus_dir),
        out_dir=Path(out_dir),
        seed=seed,
        window_s=window_s,
        **sections,
        freeze_policy=freeze_policy,
        init_policy=init_policy,
        filter_spec=filter_spec,
        normalization=normalization,
        postprocess_methods=methods,
        postprocess_widths=widths,
        hash=config_hash(resolved),
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def _corpus_hash(corpus_dir: Path) -> str | None:
    manifest = corpus_dir / "manifest.json"
    if not manifest.exists():
        return None
    return json.loads(manifest.read_text()).get("spec_hash")


def _score_dict(score: EventScore) -> dict:
    return {
        **asdict(score), "sensitivity": score.sensitivity, "fp_per_h": score.fp_per_h
    }


def _write_table(path: Path, key_columns: str, rows) -> None:
    """Write and print a score table; ``rows`` are (key, key, score dict)."""
    lines = [f"{key_columns},detected_events,total_events,detected_pct,fp_per_h"]
    for first, second, score in rows:
        sensitivity = score["sensitivity"]
        pct = "" if sensitivity is None else f"{100.0 * sensitivity:.2f}"
        lines.append(
            f"{first},{second},{score['detected_events']},"
            f"{score['total_events']},{pct},{score['fp_per_h']:.4f}"
        )
    _write_atomic(path, "\n".join(lines) + "\n")
    print("\n".join(lines))


def _losses_csv(result) -> str:
    lines = ["epoch,train_loss,val_loss"]
    for epoch, (train_loss, val_loss) in enumerate(
        zip(result.train_losses, result.val_losses)
    ):
        lines.append(f"{epoch},{train_loss!r},{val_loss!r}")
    return "\n".join(lines) + "\n"


def _stage_header(exp: Experiment, stage: str) -> dict:
    """The fields that open every training stage's result JSON."""
    return {
        "stage": stage,
        "config_hash": exp.hash,
        "corpus_hash": _corpus_hash(exp.corpus_dir),
        "seed": exp.seed,
    }


def _save_stage(exp: Experiment, name: str, stage: str, result) -> None:
    """Write ``<name>.ckpt``, tagged with the model and config hash that
    ``_require_checkpoint`` checks, and ``<name>_losses.csv``."""
    meta = {"model": asdict(exp.model), "experiment_hash": exp.hash, "stage": stage}
    save_checkpoint(exp.out_dir / f"{name}.ckpt", result.params, meta)
    _write_atomic(exp.out_dir / f"{name}_losses.csv", _losses_csv(result))


def _train_summary(result) -> dict:
    return {
        "train_losses": result.train_losses,
        "val_losses": result.val_losses,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
        "final_lr": result.final_lr,
    }


def _prepare(exp: Experiment, recordings):
    """The experiment's windows of ``recordings``, ready for training."""
    return prepare_recordings(
        recordings,
        window_s=exp.window_s,
        filter_spec=exp.filter_spec,
        normalization=exp.normalization,
    )


def _require_checkpoint(path: Path, exp: Experiment):
    if not path.exists():
        raise ConfigError(f"checkpoint {path} not found; run the earlier stage")
    params, meta = load_checkpoint(path)
    if meta.get("experiment_hash") != exp.hash:
        raise ConfigError(
            f"checkpoint {path} was produced under a different configuration; "
            f"refusing to resume"
        )
    return params, meta["model"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec_dict = json.loads(Path(args.config).read_text())
    if not isinstance(spec_dict, dict):
        raise ConfigError("corpus spec must be a JSON object")
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = _build_section(CorpusSpec, spec_dict, "corpus spec")
    out = Path(args.out or "corpus")
    if args.dry_run:
        total = spec.subjects * spec.records_per_subject
        print(f"would write {total} records to {out} (seed {spec.seed})")
        return 0
    manifest = generate_corpus(spec, out)
    print(
        f"wrote {len(manifest['records'])} records to {out} "
        f"(spec hash {manifest['spec_hash'][:12]})"
    )
    return 0


def cmd_pretrain(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    dataset = _prepare(exp, load_corpus(exp.corpus_dir))
    if args.dry_run:
        check_pretraining(len(dataset), exp.mask)
        print(
            f"would pretrain on {len(dataset)} windows "
            f"(config hash {exp.hash[:12]})"
        )
        return 0
    result = run_pretraining(
        dataset.matrix(),
        exp.model,
        Rng(exp.seed).child("pretrain"),
        mask_spec=exp.mask,
        contrastive_spec=exp.contrastive,
        optim_spec=exp.optim,
        schedule_spec=exp.schedule,
        train_spec=exp.train,
    )
    _save_stage(exp, "pretrain", "pretrain", result)
    payload = {
        **_stage_header(exp, "pretrain"),
        **_train_summary(result),
        "final_alignment_gap": result.info.get("final_alignment_gap"),
    }
    _write_atomic(exp.out_dir / "pretrain_result.json", _dump_json(payload))
    print(
        f"pretrained {result.epochs_run} epochs "
        f"(best {result.best_epoch}, hash {exp.hash[:12]})"
    )
    return 0


def cmd_second_pretrain(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    recordings = load_corpus(exp.corpus_dir)
    if args.dry_run:
        subjects = sorted({rec.subject_id for rec in recordings})
        print(f"would second-pretrain for targets: {', '.join(subjects)}")
        return 0
    dataset = _prepare(exp, recordings)
    del recordings
    subjects = sorted(dataset.subject_ids())
    init = None
    if exp.init_policy != "random":
        init = _require_checkpoint(exp.out_dir / "pretrain.ckpt", exp)
    summaries = {}
    for subject in subjects:
        result = run_second_pretraining(
            dataset,
            subject,
            exp.model,
            Rng(exp.seed).child("second", subject),
            init=init,
            init_policy=exp.init_policy,
            sswce_spec=exp.sswce,
            sampler_spec=exp.sampler,
            optim_spec=exp.optim,
            schedule_spec=exp.schedule,
            train_spec=exp.train,
        )
        _save_stage(exp, f"second_{subject}", f"second:{subject}", result)
        summaries[subject] = {
            **_train_summary(result),
            "train_subjects": result.info["train_subjects"],
        }
        print(f"second-pretrained target {subject}: {result.epochs_run} epochs")
    payload = {**_stage_header(exp, "second-pretrain"), "subjects": summaries}
    _write_atomic(exp.out_dir / "second_result.json", _dump_json(payload))
    return 0


def _fold_task(plan: FoldPlan, dataset, init, exp: Experiment) -> dict:
    """One fold, self-contained so it can run in a worker process."""
    result = run_fold(
        plan,
        dataset,
        exp.model,
        Rng(exp.seed, ("fold", plan.subject_id, plan.test_record)),
        init=init,
        init_policy=exp.init_policy,
        freeze_policy=exp.freeze_policy,
        sswce_spec=exp.sswce,
        sampler_spec=exp.sampler,
        optim_spec=exp.optim,
        schedule_spec=exp.schedule,
        train_spec=exp.train,
    )
    return {
        "plan": plan,
        "probs": result.probs,
        "test_labels": result.test_labels,
        "train": _train_summary(result.train),
    }


def cmd_loocv(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    recordings = load_corpus(exp.corpus_dir)
    seizures = {rec.record_id: rec.seizures for rec in recordings}
    subjects = sorted(set(rec.subject_id for rec in recordings))

    plans: list[FoldPlan] = []
    for subject in subjects:
        eligible = sorted(
            rec.record_id
            for rec in recordings
            if rec.subject_id == subject and rec.seizures
        )
        plans.extend(
            plan_loocv(subject, eligible, Rng(exp.seed).child("fold", subject))
        )

    if args.dry_run:
        print(
            _dump_json(
                [
                    {
                        "subject": p.subject_id,
                        "test": p.test_record,
                        "train": list(p.train_records),
                        "val": list(p.val_records),
                    }
                    for p in plans
                ]
            ),
            end="",
        )
        return 0

    dataset = _prepare(exp, recordings)
    del recordings  # the float64 corpus, before the per-subject copies
    init_by_subject: dict[str, tuple | None] = {}
    for subject in subjects:
        if exp.init_policy == "random":
            init_by_subject[subject] = None
        else:
            init_by_subject[subject] = _require_checkpoint(
                exp.out_dir / f"second_{subject}.ckpt", exp
            )

    # subsets are copies: build one per subject, shared by its folds, and
    # drop the full dataset before any fold trains
    by_subject = {
        subject: dataset.subset(lambda w, s=subject: w.subject_id == s)
        for subject in subjects
    }
    sample_rate_hz = dataset.sample_rate_hz
    del dataset
    tasks = (
        plans,
        [by_subject[plan.subject_id] for plan in plans],
        [init_by_subject[plan.subject_id] for plan in plans],
        repeat(exp),
    )
    workers = min(args.jobs, len(plans))  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_fold_task, *tasks))
    else:
        outcomes = list(map(_fold_task, *tasks))

    scores_by_subject: dict[str, list[EventScore]] = {}
    for outcome in outcomes:
        plan = outcome["plan"]
        n_windows = len(outcome["probs"])
        events = truth_events_from_intervals(
            seizures[plan.test_record], n_windows, exp.window_s, sample_rate_hz
        )
        track = PredictionTrack(
            record_id=plan.test_record,
            probs=outcome["probs"],
            truth_events=events,
            window_s=exp.window_s,
        )
        score = score_track(track)
        scores_by_subject.setdefault(plan.subject_id, []).append(score)
        payload = {
            "subject": plan.subject_id,
            "record": plan.test_record,
            "config_hash": exp.hash,
            "window_s": exp.window_s,
            "probs": [float(p) for p in outcome["probs"]],
            "test_labels": [int(x) for x in outcome["test_labels"]],
            "truth_events": [list(e) for e in events],
            "score": _score_dict(score),
            "train": outcome["train"],
        }
        _write_atomic(
            exp.out_dir / f"fold_{plan.subject_id}_{plan.test_record}.json",
            _dump_json(payload),
        )

    per_subject = {
        subject: aggregate(scores) for subject, scores in scores_by_subject.items()
    }
    overall = aggregate([s for scores in scores_by_subject.values() for s in scores])

    payload = {
        **_stage_header(exp, "loocv"),
        "per_subject": {s: _score_dict(v) for s, v in per_subject.items()},
        "overall": _score_dict(overall),
    }
    _write_atomic(exp.out_dir / "loocv_result.json", _dump_json(payload))

    rows = [
        (subject, len(scores_by_subject[subject]), payload["per_subject"][subject])
        for subject in sorted(per_subject)
    ]
    rows.append(("OVERALL", len(plans), payload["overall"]))
    _write_table(exp.out_dir / "loocv_table.csv", "subject,folds", rows)
    return 0


def cmd_eval(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    if args.w is not None:
        _check_window(args.w)
    pred_dir = exp.out_dir
    files = sorted(pred_dir.glob("fold_*.json"))
    if not files:
        raise ConfigError(f"no fold prediction files in {pred_dir}")

    tracks = []
    for path in files:
        data = json.loads(path.read_text())
        if data.get("config_hash") != exp.hash:
            raise ConfigError(
                f"{path.name} was produced under a different configuration; "
                f"refusing to evaluate"
            )
        tracks.append(
            PredictionTrack(
                record_id=data["record"],
                probs=np.array(data["probs"], dtype=np.float64),
                truth_events=[tuple(e) for e in data["truth_events"]],
                window_s=float(data["window_s"]),
            )
        )

    methods = [args.method] if args.method else exp.postprocess_methods
    widths = [args.w] if args.w is not None else exp.postprocess_widths

    if args.dry_run:
        n_rows = sum(1 if m == "none" else len(widths) for m in methods)
        print(f"would evaluate {len(tracks)} tracks over {n_rows} setups")
        return 0

    rows = []
    for method in methods:
        for w in [None] if method == "none" else widths:
            scores = []
            for track in tracks:
                labels = postprocess_labels(
                    track.labels(), method, w if w is not None else 3
                )
                scores.append(score_track(track.with_labels(labels)))
            total = aggregate(scores)
            rows.append(
                {
                    "method": method,
                    "w": w,
                    **_score_dict(total),
                }
            )

    payload = {
        "stage": "eval",
        "config_hash": exp.hash,
        "rows": rows,
    }
    _write_atomic(pred_dir / "eval_result.json", _dump_json(payload))

    _write_table(
        pred_dir / "eval_table.csv",
        "method,w",
        [(row["method"], "" if row["w"] is None else row["w"], row) for row in rows],
    )
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seizenet",
        description="Seizure-detection pipeline: synthesize, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--jobs", type=int, default=1, help="parallel folds")
        p.add_argument("--dry-run", action="store_true", dest="dry_run")
        p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="masked contrastive pretraining")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser(
        "second-pretrain", help="cross-subject supervised pretraining"
    )
    common(p)
    p.set_defaults(func=cmd_second_pretrain)

    p = sub.add_parser("loocv", help="leave-one-out fine-tuning and scoring")
    common(p)
    p.set_defaults(func=cmd_loocv)

    p = sub.add_parser("eval", help="post-processing sweep over predictions")
    common(p)
    p.add_argument(
        "--method",
        choices=POSTPROCESS_METHODS,
        default=None,
        help="evaluate a single post-processing method",
    )
    p.add_argument("--w", type=int, default=None, help="single smoothing width")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except PROTOCOL_FAILURES as err:
        print(f"protocol error: {err}", file=sys.stderr)
        return 3
    except NUMERIC_FAILURES as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4
    except CONFIG_FAILURES as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
