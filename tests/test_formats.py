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
    ],
    ids=["default", "cli-conv", "cli-attn"],
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
