"""Golden values for the formats seizenet writes.

Reruns on one commit are compared elsewhere; these literals pin the corpus
spec hash, the experiment config hash and the EDF bytes across commits, so
a refactor of how a format is declared cannot change what is written.
"""

import hashlib
import json

import pytest

from seizenet.cli import load_experiment
from seizenet.eegio import write_edf
from seizenet.synthgen import CorpusSpec, generate_recording, spec_hash

# The perfbench cli-conv / cli-attn network: width 64, four layers.
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


# The perfbench cli-smoke network: 2 channels at 64 Hz, width 16.
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

_SMOKE_EXPERIMENT = {
    "corpus_dir": "corpus",
    "out_dir": "out",
    "seed": 1,
    "window_s": 2.0,
    "model": _SMOKE_MODEL,
    "optim": {"lr": 0.001},
    "train": {"batch_size": 8, "max_epochs": 1},
    "preprocess": {
        "filter": {"order": 5, "low_hz": 0.5, "high_hz": 25.0, "sample_rate_hz": 64}
    },
}


def _bench_experiment(conv_blocks: int, batch_size: int) -> dict:
    return {
        "corpus_dir": "corpus",
        "out_dir": "out",
        "seed": 1,
        "window_s": 8.0,
        "model": {**_WIDTH64, "conv_blocks": conv_blocks},
        "optim": {"lr": 0.0005},
        "train": {"batch_size": batch_size, "max_epochs": 1},
    }


def test_default_corpus_spec_hash():
    assert spec_hash(CorpusSpec()) == (
        "bb191de7aab0098e77039509114ccf883a6b520e6750e51cc919dd292f8d4e75"
    )


@pytest.mark.parametrize(
    "config, expected",
    [
        ({}, "3a6813416a06bb30d8857f20c11ade04d2a4b85d182f7ecfe0304d1c983f10ab"),
        (
            _bench_experiment(6, 32),
            "d925f49c00ab0e109693f0551bd90537baa0d05c7ffd66b0dd05ccdbbe5550d8",
        ),
        (
            _bench_experiment(3, 16),
            "f802fc2a94586e95087bc27de7a587ee8525699362ca616ab9414dd22c9d011c",
        ),
        (
            {
                "preprocess": {
                    "filter": {
                        "order": 4.0,
                        "low_hz": 0.5,
                        "high_hz": 30.0,
                        "sample_rate_hz": 64,
                    }
                }
            },
            "61a53a8bddb257f12746f8c0ad205d0bfc9c8519b98d07f3912849145e988322",
        ),
        (
            {"preprocess": {"filter": None, "normalization": "minmax"}},
            "132f6b88bad5213d11e95cf0934fd2b62af87d827b7ac1f6f881533644fa9840",
        ),
        (
            {"preprocess": {"normalization": None}},
            "64f2c28e53b05f29ea1f7e5382fae6ddcd2c376952db6d3976418ea2ee2e7d95",
        ),
        (
            {"preprocess": {"filter": "default"}},
            "3a6813416a06bb30d8857f20c11ade04d2a4b85d182f7ecfe0304d1c983f10ab",
        ),
        (
            {"postprocess": {"methods": ["none", "minpool"], "widths": [5.0]}},
            "31914e197b7d33a4c0a613e2cbe00f6d693a497992075d3a75c502c5f8690c0e",
        ),
        (
            {"postprocess": {"widths": [3, 9]}},
            "78520eada22c371957736e232d5aa8f299f3eb698e05256d5e44115a53100d7b",
        ),
        (
            _SMOKE_EXPERIMENT,
            "b7f675e90a3f18cd0fb840e4e5962e624c8d61f903be747d786b744a07baa59b",
        ),
    ],
    ids=[
        "default",
        "cli-conv",
        "cli-attn",
        "filter-order-4.0",
        "no-filter-minmax",
        "no-normalization",
        "filter-default",
        "postprocess-subset",
        "postprocess-widths",
        "cli-smoke",
    ],
)
def test_experiment_hash(tmp_path, config, expected):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert load_experiment(path).hash == expected


def test_edf_bytes():
    spec = CorpusSpec(
        subjects=1,
        records_per_subject=1,
        record_s=64,
        seizures_per_record=1,
        seizure_len_s=(8.0, 10.0),
        sample_rate_hz=64,
        channels=2,
        seed=5,
    )
    edf = write_edf(generate_recording(spec, 0, 0))
    assert hashlib.sha256(edf).hexdigest() == (
        "bb6d4815d323c2ff99e812048a5f76d7d73808f79df2d6c9d68125b761808e5b"
    )
