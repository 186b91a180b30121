"""EEG seizure detection with a contrastively pretrained conv-transformer.

The package splits into ingestion (:mod:`seizenet.eegio`), signal
conditioning (:mod:`seizenet.preprocess`), a small autograd core
(:mod:`seizenet.nn`), the model and its objectives, the three-stage
training protocol, event-based evaluation, a deterministic synthetic
corpus generator, and a command-line front end.
"""

import os

# OpenBLAS picks GEMM kernels by thread count, so result bytes would depend
# on it; this pin takes effect only when numpy is not yet imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .eegio import (
    Recording,
    SeizureInterval,
    Window,
    WindowedDataset,
    load_annotations,
    load_corpus,
    parse_edf,
    read_edf_file,
    write_edf,
    write_edf_file,
)
from .evalpost import (
    AlarmReport,
    EventScore,
    PredictionTrack,
    aggregate,
    event_sensitivity,
    false_positives_per_hour,
    postprocess_labels,
    score_track,
    smooth_majority,
    smooth_minpool,
    truth_events_from_intervals,
)
from .model import (
    MaskSpec,
    ModelConfig,
    forward_classifier,
    forward_pretrain,
    init_weights,
    set_trainable,
)
from .objectives import ContrastiveSpec, SswceSpec, contrastive_loss, sswce_loss
from .optim import (
    AdamState,
    OptimSpec,
    PlateauEarlyStopper,
    ScheduleSpec,
    adam_step,
    smote,
    weighted_sampler,
)
from .preprocess import (
    FilterSpec,
    design_butterworth_bandpass,
    normalize,
    preprocess_recording_samples,
)
from .rand import Rng
from .synthgen import CorpusSpec, generate_corpus, generate_recording
from .training import (
    FoldPlan,
    FoldResult,
    SamplerSpec,
    TrainResult,
    TrainSpec,
    checkpoint_source,
    contrastive_alignment,
    plan_loocv,
    prepare_recordings,
    run_fold,
    run_pretraining,
    run_second_pretraining,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AlarmReport",
    "ContrastiveSpec",
    "CorpusSpec",
    "EventScore",
    "FilterSpec",
    "FoldPlan",
    "FoldResult",
    "MaskSpec",
    "ModelConfig",
    "OptimSpec",
    "PlateauEarlyStopper",
    "PredictionTrack",
    "Recording",
    "Rng",
    "SamplerSpec",
    "ScheduleSpec",
    "SeizureInterval",
    "SswceSpec",
    "TrainResult",
    "TrainSpec",
    "Window",
    "WindowedDataset",
    "adam_step",
    "aggregate",
    "checkpoint_source",
    "contrastive_alignment",
    "contrastive_loss",
    "design_butterworth_bandpass",
    "event_sensitivity",
    "false_positives_per_hour",
    "forward_classifier",
    "forward_pretrain",
    "generate_corpus",
    "generate_recording",
    "init_weights",
    "load_annotations",
    "load_corpus",
    "normalize",
    "parse_edf",
    "plan_loocv",
    "postprocess_labels",
    "prepare_recordings",
    "preprocess_recording_samples",
    "read_edf_file",
    "run_fold",
    "run_pretraining",
    "run_second_pretraining",
    "score_track",
    "set_trainable",
    "smooth_majority",
    "smooth_minpool",
    "smote",
    "sswce_loss",
    "truth_events_from_intervals",
    "weighted_sampler",
    "write_edf",
    "write_edf_file",
]
