"""Seconds-long self-test of the benchmark's own logic.

Usage (from the repository root): python3 perfbench/selftest.py

It trains nothing.  It checks BENCHMARK.json against the benchmark's
contract and the stage scheduler's order and deadline, builds the result
files of a pipeline run by hand, and shows that the correctness gate
passes them, that each kind of corrupted output trips it, and that both
metric sets carry every name BENCHMARK.json lists and a missing one is
caught.  Exit code 0 means every assertion held.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import sys

import run
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HASH = "abcdef123456" + "0" * 52


def check_spec(spec: dict) -> None:
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }, sorted(spec)
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert 2 <= len(names) <= 8 and set(names) <= set(WORKLOADS), names
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    seen = set(names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and m["name"] not in seen, m["name"]
        seen.add(m["name"])
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    setup = bounds["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def fake_chain(workload, chain_dir, traced: bool) -> dict:
    """A finished chain's stage records and result files, written by hand."""
    out = chain_dir / "out"
    out.mkdir(parents=True)

    def write(name, data):
        (out / name).write_text(json.dumps(data, sort_keys=True))

    write("pretrain_result.json", {"config_hash": HASH, "epochs_run": 1})
    subjects = [f"s{i:02d}" for i in range(workload.corpus["subjects"])]
    write(
        "second_result.json",
        {"config_hash": HASH, "subjects": {s: {"epochs_run": 1} for s in subjects}},
    )
    overall = {"sensitivity": 1.0, "fp_per_h": 0.5}
    write("loocv_result.json", {"config_hash": HASH, "overall": overall})
    write("eval_result.json", {"config_hash": HASH, "rows": []})
    per_subject = workload.corpus["records_per_subject"]
    for fold in range(workload.folds):
        subject = subjects[fold // per_subject]
        write(
            f"fold_{subject}_{subject}_r{fold % per_subject:02d}.json",
            {"config_hash": HASH, "probs": [0.0, 0.25, 1.0], "train": {"epochs_run": 1}},
        )
    (out / "loocv_table.csv").write_text("subject,folds\nOVERALL,1\n")

    stages = {}
    names = run.STAGES if traced else run.STAGES + (run.SETUP,)
    for i, stage in enumerate(names):
        process = {
            "wall_s": 1.0 + i,
            "rss_mb": 100.0 + i,
            "code": 0,
            "out": f"pretrained 1 epochs (best 0, hash {HASH[:12]})",
        }
        stages[stage] = {"runs": [process], **process}
        if traced:
            stages[stage]["trace"] = {
                "import_s": 0.5,
                "covered_s": 0.8,
                "missing": [],
                "spans": {"model.forward_eval": [0.25, 2], "nn.backward": [0.5, 3]},
                "counts": {"nn.tape_nodes": 40, "nn.tape_nodes_eval": 10},
            }
    return {"dir": chain_dir, "stages": stages}


def check_schedule() -> None:
    """``next_stage`` keeps chain order, spaces reruns and keeps the deadline."""

    def runs(**walls):
        done = {stage: [] for stage in run.SAMPLED}
        for stage, times in walls.items():
            done[stage.replace("_", "-")] = [{"wall_s": t} for t in times]
        return done

    assert run.next_stage(runs(synth=[2.0]), 2.0, 60.0) == run.SETUP
    assert run.next_stage(runs(synth=[2.0], setup=[2.0]), 4.0, 60.0) == "pretrain"
    first = {"synth": [2.0], "setup": [2.0], "pretrain": [6.0]}
    # synth plans 5 runs, due every 12 s: the next one jumps ahead of a first run
    assert run.next_stage(runs(**first), 11.0, 60.0) == "second-pretrain"
    assert run.next_stage(runs(**first), 12.0, 60.0) == "synth"
    chain = {**first, "second_pretrain": [6.0], "loocv": [11.0], "eval": [1.5]}
    # eval plans 6 runs, due every 10 s, so it is the most overdue at 30 s
    assert run.next_stage(runs(**chain), 30.0, 60.0) == "eval"
    assert run.next_stage(runs(**chain), 58.0, 60.0) == "eval"
    assert run.next_stage(runs(**chain), 59.0, 60.0) is None


def failed_checks(workload, chain) -> list[str]:
    return [name for name, ok, _ in run.check_outputs(workload, chain) if not ok]


def main() -> int:
    spec = run.load_spec()
    check_spec(spec)
    check_schedule()

    root = run.WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    workload = WORKLOADS["cli-smoke"]
    try:
        plain = fake_chain(workload, root / "plain", traced=False)
        traced = fake_chain(workload, root / "traced", traced=True)
        assert failed_checks(workload, plain) == []
        assert run.check_identical(plain["dir"] / "out", traced["dir"] / "out")[1]

        e2e = run.end_to_end_metrics(workload, plain)
        layer = run.per_layer_metrics(workload, plain, traced, import_s=0.4)
        assert run.missing_metrics(spec, "end_to_end", e2e) == []
        assert run.missing_metrics(spec, "per_layer", layer) == []
        assert e2e["pipeline_s"] == sum(range(1, 6)) and e2e["sensitivity_pct"] == 100
        assert layer["nn.tape_eval_share"] == 0.25
        assert layer["cli.loocv.wall_s"] == 4.0
        del e2e["pipeline_s"]
        assert run.missing_metrics(spec, "end_to_end", e2e) == ["pipeline_s"]

        out = plain["dir"] / "out"
        fold = sorted(out.glob("fold_*.json"))[0]
        corruptions = {
            "probability above 1": (fold, lambda d: d["probs"].__setitem__(0, 1.5)),
            "non-finite probability": (
                fold,
                lambda d: d["probs"].__setitem__(0, float("nan")),
            ),
            "foreign hash": (
                out / "eval_result.json",
                lambda d: d.__setitem__("config_hash", "f" * 64),
            ),
            "low sensitivity": (
                out / "loocv_result.json",
                lambda d: d["overall"].__setitem__("sensitivity", 0.5),
            ),
        }
        for what, (path, corrupt) in corruptions.items():
            original = path.read_text()
            data = json.loads(original)
            corrupt(data)
            path.write_text(json.dumps(data))
            assert failed_checks(workload, plain), f"gate missed: {what}"
            assert not run.check_identical(out, traced["dir"] / "out")[1], what
            path.write_text(original)
        (out / "loocv_result.json").unlink()
        assert failed_checks(workload, plain), "gate missed: missing loocv result"
        fold.unlink()
        assert failed_checks(workload, plain), "gate missed: missing fold file"

        crashed = copy.deepcopy(plain)
        crashed["stages"]["loocv"]["code"] = 1
        crashed["stages"]["loocv"]["runs"][0]["code"] = 1
        del crashed["stages"]["eval"]
        assert failed_checks(workload, crashed) == ["loocv exits 0"]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
