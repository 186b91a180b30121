"""The benchmark's three corpus and model shapes.

Each workload is a synthetic corpus spec plus an experiment config, both
written as the JSON files a user hands to ``seizenet synth`` and the
training stages.  The workload seed becomes the corpus seed and the
experiment seed, so the same seed always gives the same inputs and, since
the pipeline is deterministic, the same result files.

All three train for one epoch per stage: the benchmark measures the cost
of the pipeline, and one epoch already reaches full event sensitivity on
these corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The test_07 network at width 64: six conv blocks turn an 8 s, 256 Hz
# window (2048 samples) into 21 positions, then four transformer layers.
_WIDTH64 = {
    "in_channels": 20,
    "conv_channels": 64,
    "model_dim": 64,
    "ffn_dim": 256,
    "transformer_layers": 4,
    "heads": 4,
    "dropout_p": 0.1,
    "classifier_dims": [[64, 32], [32, 16], [16, 8], [8, 2]],
}

# The test_08/09 smoke network: 2 channels at 64 Hz, width 16, 2 layers.
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


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict  # CorpusSpec fields other than the seed
    experiment: dict  # experiment config keys other than dirs and seed

    def corpus_config(self, seed: int) -> dict:
        return {**self.corpus, "seed": seed}

    def experiment_config(self, seed: int) -> dict:
        return {
            "corpus_dir": "corpus",
            "out_dir": "out",
            "seed": seed,
            **self.experiment,
        }

    # -- window arithmetic -------------------------------------------------
    # These mirror the pipeline's own split rules, so the count of windows
    # that pass through training steps follows from the config and the
    # epochs each stage reports in its result JSON.

    @property
    def windows_per_record(self) -> int:
        return int(self.corpus["record_s"] // self.experiment["window_s"])

    @property
    def total_windows(self) -> int:
        return (
            self.corpus["subjects"]
            * self.corpus["records_per_subject"]
            * self.windows_per_record
        )

    @property
    def dataset_bytes(self) -> int:
        """Size of the prepared corpus as float64 (N, C, T) windows."""
        samples = int(self.experiment["window_s"] * self.corpus["sample_rate_hz"])
        return self.total_windows * self.corpus["channels"] * samples * 8

    @property
    def folds(self) -> int:
        return self.corpus["subjects"] * self.corpus["records_per_subject"]

    @property
    def batch_size(self) -> int:
        return self.experiment["train"]["batch_size"]

    def _sampled(self, n_train: int) -> int:
        # the weighted sampler draws full batches for ceil(n / batch) steps
        return math.ceil(n_train / self.batch_size) * self.batch_size

    @staticmethod
    def _minus_val(n: int) -> int:
        return n - max(1, int(round(0.1 * n)))

    def pretrain_windows_per_epoch(self) -> int:
        return self._minus_val(self.total_windows)

    def second_windows_per_epoch(self) -> int:
        per_subject = self.corpus["records_per_subject"] * self.windows_per_record
        return self._sampled(self._minus_val(self.total_windows - per_subject))

    def fold_windows_per_epoch(self) -> int:
        pool = self.corpus["records_per_subject"] - 1
        train_records = pool - math.ceil(0.2 * pool)
        return self._sampled(train_records * self.windows_per_record)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-conv",
            corpus={
                "subjects": 2,
                "records_per_subject": 3,
                "record_s": 320,
                "sample_rate_hz": 256,
                "channels": 20,
            },
            experiment={
                "window_s": 8.0,
                "model": {**_WIDTH64, "conv_blocks": 6},
                "optim": {"lr": 0.0005},
                "train": {"batch_size": 32, "max_epochs": 1},
            },
        ),
        Workload(
            name="cli-attn",
            corpus={
                "subjects": 2,
                "records_per_subject": 3,
                "record_s": 160,
                "sample_rate_hz": 256,
                "channels": 20,
            },
            experiment={
                "window_s": 8.0,
                "model": {**_WIDTH64, "conv_blocks": 3},
                "optim": {"lr": 0.0005},
                "train": {"batch_size": 16, "max_epochs": 1},
            },
        ),
        Workload(
            name="cli-smoke",
            corpus={
                "subjects": 4,
                "records_per_subject": 4,
                "record_s": 64,
                "seizures_per_record": 1,
                "seizure_len_s": [8.0, 10.0],
                "sample_rate_hz": 64,
                "channels": 2,
            },
            experiment={
                "window_s": 2.0,
                "model": _SMOKE_MODEL,
                "optim": {"lr": 0.001},
                "train": {"batch_size": 8, "max_epochs": 1},
                # the default band-pass (0.5-50 Hz) needs 256 Hz input
                "preprocess": {
                    "filter": {
                        "order": 5,
                        "low_hz": 0.5,
                        "high_hz": 25.0,
                        "sample_rate_hz": 64,
                    }
                },
            },
        ),
    )
}
