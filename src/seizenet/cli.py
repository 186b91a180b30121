"""Command-line orchestration of the full pipeline.

Subcommands cover corpus synthesis, the three training stages, and the
post-processing evaluation sweep.  Every output embeds the experiment
config hash so later stages refuse to resume on top of results produced
under a different configuration.  Outputs carry no timestamps or absolute
paths, which makes reruns with identical config and seed byte-identical.

Exit codes: 0 success, 2 configuration and input errors and running out of
memory, 3 protocol errors, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import get_args, get_type_hints

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
    PostprocessSpec,
    PredictionTrack,
    aggregate,
    label_runs,
    postprocess_labels,
    score_track,
)
from .model import FREEZE_POLICIES, INIT_POLICIES, MaskSpec, ModelConfig, init_weights
from .nn import config_hash, load_checkpoint, save_checkpoint
from .nn.checkpoint import json_text, read_json, write_atomic
from .objectives import ContrastiveSpec, SswceSpec
from .optim import OptimSpec, ScheduleSpec
from .preprocess import PreprocessSpec
from .rand import Rng
from .synthgen import CorpusSpec, generate_corpus, pack_corpus
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
CONFIG_FAILURES = (SeizenetError, OSError)

@dataclass
class Experiment:
    """An experiment config as loaded.

    Each field is read from the config key of its name. A field typed by a
    dataclass is a spec section, owned and checked by its module.
    """

    corpus_dir: Path = Path("corpus")
    out_dir: Path = Path("out")
    seed: int = 0
    window_s: float = 8.0
    model: ModelConfig = ModelConfig()
    mask: MaskSpec = MaskSpec()
    contrastive: ContrastiveSpec = ContrastiveSpec()
    sswce: SswceSpec = SswceSpec()
    optim: OptimSpec = OptimSpec()
    schedule: ScheduleSpec = ScheduleSpec()
    sampler: SamplerSpec = SamplerSpec()
    train: TrainSpec = TrainSpec()
    freeze_policy: str = "none"
    init_policy: str = "load_shared"
    preprocess: PreprocessSpec = PreprocessSpec()
    postprocess: PostprocessSpec = PostprocessSpec()

    def __post_init__(self):
        for key in ("corpus_dir", "out_dir"):
            value = getattr(self, key)
            if not isinstance(value, (str, Path)):
                raise ConfigError(f"{key} must be a path string, got {value!r}")
            setattr(self, key, Path(value))
        window_s = self.window_s  # a JSON number, neither a boolean nor a string
        if type(window_s) not in (int, float) or not 0 < window_s <= sys.float_info.max:
            raise ConfigError(f"window_s must be a positive number, got {window_s!r}")
        self.window_s = float(window_s)
        if self.freeze_policy not in FREEZE_POLICIES:
            raise ConfigError(f"freeze_policy must be one of {FREEZE_POLICIES}")
        if self.init_policy not in INIT_POLICIES:
            raise ConfigError(f"init_policy must be one of {INIT_POLICIES}")

    @cached_property
    def hash(self) -> str:
        """The hash of every field but where inputs and outputs live, so
        moving an experiment between directories keeps its identity."""
        config = asdict(self)
        del config["corpus_dir"], config["out_dir"]
        return config_hash(config)


def _integral(value, name: str) -> int:
    """``int(value)``, else ConfigError naming ``name``: 3.0 is 3; 3.9,
    booleans and strings are refused."""
    try:
        if isinstance(value, (bool, str)) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


# how many list levels down a field's integers sit, by its annotation
_INTEGER_DEPTH = {int: 0, tuple[int, ...]: 1, tuple[tuple[int, int], ...]: 2}
# the annotations of fields that take numbers, bare or as a [low, high] pair
_FLOATS = (float, tuple[float, float])


def _integers(value, name: str, depth: int, each: str = ""):
    """``value`` with ``_integral`` applied ``depth`` list levels down; its
    elements are named in words, as "each of postprocess widths"."""
    if depth == 0:
        return _integral(value, name)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    each = each or "each of " + name.replace(".", " ")
    return [_integers(v, each, depth - 1, each) for v in value]


def _build_section(cls, section, name: str, prefix: str | None = None):
    """``cls(**section)``, each key read by its field's annotation.

    Unknown keys are refused. A dataclass field, or an ``X | None`` field
    given an object, is a nested section. Integer fields go through
    ``_integral``, so 4.0 loads and hashes as 4. Once ``cls`` has checked
    its own values, or failed on them, a float field refuses all but numbers
    within float range; ints stay ints, so their hashes do not move. A field
    is named ``<prefix><key>``, ``prefix`` being ``<name>.`` unless given.
    """
    prefix = f"{name}." if prefix is None else prefix
    if not isinstance(section, dict):
        raise ConfigError(f"bad {name!r} section: expected an object")
    hints = get_type_hints(cls)
    unknown = sorted(set(section) - hints.keys())
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
    values = {}
    for key, value in section.items():
        hint = hints[key]
        nested = next((c for c in (hint, *get_args(hint)) if is_dataclass(c)), None)
        if nested is hint or (nested and isinstance(value, dict)):
            value = _build_section(nested, value, prefix + key)
        elif hint in _INTEGER_DEPTH:
            value = _integers(value, prefix + key, _INTEGER_DEPTH[hint])
        values[key] = value
    numbers = [key for key in values if hints[key] in _FLOATS]
    try:
        spec = cls(**values)
    except (TypeError, OverflowError) as err:  # a string compared, a huge int
        _check_numbers({key: values[key] for key in numbers}, prefix)
        raise ConfigError(f"bad {name!r} section: {err}") from None
    _check_numbers({key: getattr(spec, key) for key in numbers}, prefix)
    return spec


def _check_numbers(values: dict, prefix: str) -> None:
    """ConfigError unless each value is a float, or an int that converts to
    one, or a list of these."""
    for key, value in values.items():
        if not all(
            isinstance(v, float)
            or type(v) is int and abs(v) <= sys.float_info.max  # not a bool
            for v in (value if isinstance(value, (list, tuple)) else (value,))
        ):
            raise ConfigError(
                f"{prefix}{key} must be a number, got {value!r}: float "
                f"fields take numbers, not booleans or strings, in float range"
            )


def load_experiment(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> Experiment:
    """Read an experiment config file: every key through ``_build_section``,
    with ``Experiment``'s defaults for those it leaves out."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    if seed_override is not None:
        raw["seed"] = seed_override
    if out_override:
        raw["out_dir"] = out_override
    return _build_section(Experiment, raw, "config", prefix="")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def _corpus_hash(corpus_dir: Path) -> str | None:
    manifest = corpus_dir / "manifest.json"
    if not manifest.exists():
        return None
    return read_json(manifest).get("spec_hash")


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
    ``_stage_source`` checks, and ``<name>_losses.csv``."""
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
        filter_spec=exp.preprocess.filter,
        normalization=exp.preprocess.normalization,
    )


def _stage_source(exp: Experiment, name: str, dry_run: bool):
    """The init source a stage starts from: ``<name>.ckpt``, as
    ``_save_stage`` wrote it, checked by the transfer the stage makes.

    None under random init, and in a dry run before the earlier stage has
    written the checkpoint.  ConfigError for a checkpoint that is missing,
    corrupt, written under another configuration or that does not transfer.
    """
    path = exp.out_dir / f"{name}.ckpt"
    if exp.init_policy == "random" or (dry_run and not path.exists()):
        return None
    if not path.exists():
        raise ConfigError(f"checkpoint {path} not found; run the earlier stage")
    params, meta = load_checkpoint(path)
    if meta.get("experiment_hash") != exp.hash:
        raise ConfigError(
            f"checkpoint {path} was produced under a different configuration; "
            f"refusing to resume"
        )
    init = params, meta["model"]
    init_weights(exp.model, exp.init_policy, Rng(exp.seed), source=init)
    return init


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec_dict = read_json(args.config)
    if not isinstance(spec_dict, dict):
        raise ConfigError("corpus spec must be a JSON object")
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = _build_section(CorpusSpec, spec_dict, "corpus spec")
    out = Path(args.out or "corpus")
    indices = pack_corpus(spec)
    if args.dry_run:
        print(f"would write {len(indices)} records to {out} (seed {spec.seed})")
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
    _write_atomic(exp.out_dir / "pretrain_result.json", json_text(payload))
    print(
        f"pretrained {result.epochs_run} epochs "
        f"(best {result.best_epoch}, hash {exp.hash[:12]})"
    )
    return 0


def cmd_second_pretrain(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    recordings = load_corpus(exp.corpus_dir)
    subjects = sorted({rec.subject_id for rec in recordings})
    init = _stage_source(exp, "pretrain", args.dry_run)
    if args.dry_run:
        print(f"would second-pretrain for targets: {', '.join(subjects)}")
        return 0
    dataset = _prepare(exp, recordings)
    del recordings
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
    _write_atomic(exp.out_dir / "second_result.json", json_text(payload))
    return 0


def _fold_task(plan: FoldPlan, dataset, init, exp: Experiment):
    """One fold, self-contained so it can run in a worker process: its score
    and the ``fold_*.json`` object."""
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
    # the test windows were labelled from the record's truth events
    track = PredictionTrack(
        record_id=plan.test_record,
        probs=result.probs,
        truth_events=label_runs(result.test_labels),
        window_s=exp.window_s,
    )
    score = score_track(track)
    return score, {
        "subject": plan.subject_id,
        "record": plan.test_record,
        "config_hash": exp.hash,
        "window_s": exp.window_s,
        "probs": [float(p) for p in result.probs],
        "test_labels": [int(x) for x in result.test_labels],
        "truth_events": [list(e) for e in track.truth_events],
        "score": _score_dict(score),
        "train": _train_summary(result.train),
    }


def cmd_loocv(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    recordings = load_corpus(exp.corpus_dir)
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
    init_by_subject = {
        subject: _stage_source(exp, f"second_{subject}", args.dry_run)
        for subject in subjects
    }

    if args.dry_run:
        print(
            json_text(
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

    # subsets are copies: build one per subject, shared by its folds, and
    # drop the full dataset before any fold trains
    by_subject = {
        subject: dataset.subset(lambda w, s=subject: w.subject_id == s)
        for subject in subjects
    }
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
    for plan, (score, payload) in zip(plans, outcomes):
        scores_by_subject.setdefault(plan.subject_id, []).append(score)
        _write_atomic(
            exp.out_dir / f"fold_{plan.subject_id}_{plan.test_record}.json",
            json_text(payload),
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
    _write_atomic(exp.out_dir / "loocv_result.json", json_text(payload))

    rows = [
        (subject, len(scores_by_subject[subject]), payload["per_subject"][subject])
        for subject in sorted(per_subject)
    ]
    rows.append(("OVERALL", len(plans), payload["overall"]))
    _write_table(exp.out_dir / "loocv_table.csv", "subject,folds", rows)
    return 0


def _read_track(path: Path, exp: Experiment) -> PredictionTrack:
    """One ``fold_*.json`` as a track, else ConfigError naming the file."""
    data = read_json(path, path.name)
    if not isinstance(data, dict):
        raise ConfigError(f"{path.name} is not a JSON object")
    if data.get("config_hash") != exp.hash:
        raise ConfigError(
            f"{path.name} was produced under a different configuration; "
            f"refusing to evaluate"
        )
    keys = ("record", "probs", "truth_events", "window_s")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ConfigError(f"{path.name} lacks {', '.join(missing)}")
    try:
        return PredictionTrack(
            data["record"], data["probs"], data["truth_events"], data["window_s"]
        )
    except ConfigError as err:
        raise ConfigError(f"{path.name}: {err}") from None


def cmd_eval(args) -> int:
    exp = load_experiment(args.config, args.seed, args.out)
    post = exp.postprocess  # --method and --w pass the same checks
    if args.method:
        post = replace(post, methods=(args.method,))
    if args.w is not None:
        post = replace(post, widths=(args.w,))
    pred_dir = exp.out_dir
    files = sorted(pred_dir.glob("fold_*.json"))
    if not files:
        raise ConfigError(f"no fold prediction files in {pred_dir}")

    tracks = [_read_track(path, exp) for path in files]

    if args.dry_run:
        n_rows = sum(1 if m == "none" else len(post.widths) for m in post.methods)
        print(f"would evaluate {len(tracks)} tracks over {n_rows} setups")
        return 0

    rows = []
    for method in post.methods:
        for w in [None] if method == "none" else post.widths:
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
    _write_atomic(pred_dir / "eval_result.json", json_text(payload))

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
    except MemoryError as err:  # numpy's text names the allocation that failed
        print(f"out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
