"""Smoke test of the benchmark itself at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced on a small corpus with a few
steps, and checks that each metric BENCHMARK.json names is reported with
its unit, that the traced run restores every patched function, and that
the launcher refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Profile(
    per_language=(("train", 8), ("dev", 3), ("test", 3)),
    unit_steps=4,
    batch_size=4,
    setup_reps=2,
    ckpt_steps=4,
    ckpt_batch=2,
    probe_k=8,
    max_test_per=math.inf,
    min_lid_acc=0.0,
)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _originals():
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in tracer.TARGETS
    ] + [workloads.trainer.adam_step, workloads.SshrModel.__dict__["decode"]]


def _run(workload, trace, tmp_path, seed=3):
    run = workloads.Run(workload, seed, 0.0, trace, str(tmp_path / f"{workload}-{trace}-{seed}"), TINY)
    return run.execute()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_reported_with_its_unit(workload, tmp_path):
    before = _originals()
    plain, plain_info = _run(workload, False, tmp_path)
    traced, info = _run(workload, True, tmp_path)
    assert _originals() == before, "a patched function was not restored"
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        for metric in BENCH[section]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
        assert set(result["metrics"]) == {m["name"] for m in BENCH[section]}
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    for name, unit in workloads.HOST_SENSITIVE.items():
        assert plain_info["host_sensitive"][name]["unit"] == unit
        assert plain_info["host_sensitive"][name]["value"] > 0
    # a few tiny steps need not lower the loss; every other check must pass
    for failed in (info["checks_failed"], plain_info["checks_failed"]):
        assert all("loss falls" in name for name in failed), failed
    expected_ctc = {"train_b0": 1, "train_c4": 3, "analyze_c4": 0}[workload]
    assert traced["metrics"]["ctc.ctc_loss.calls_per_utt"]["value"] == expected_ctc
    assert set(info["trace_overhead"]) <= set(workloads.END_TO_END) | set(workloads.HOST_SENSITIVE)


def test_same_seed_same_digest(tmp_path):
    _, first = _run("train_b0", False, tmp_path, seed=5)
    _, second = _run("train_b0", True, tmp_path, seed=5)
    assert first["digest"] == second["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    cmd = BENCH["command"] + ["--workload", "train_b0", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
