"""The benchmark's own tests: every workload at a tiny size, end to end.

    python3 -m pytest -q bench/selftest.py

Not named test_*.py, so the repository's own test run does not collect
it; each case starts a few interpreters and takes about a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tiny_output(name: str, seed: int = 3) -> tuple[str, dict]:
    workload = WORKLOADS["tiny"][name]
    inputs = workload.make_inputs(seed)
    runner = run.Runner(time.perf_counter() + 60)
    path = run.WORK / "selftest-inputs.json"
    path.write_text(json.dumps(inputs))
    sample = runner.run(workload.untraced_argv(path))
    assert sample["rc"] == 0, sample["stderr"]
    return sample["stdout"], inputs


def test_spec_matches_the_metrics_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(WORKLOADS["full"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS["tiny"]))
def test_tiny_run_passes_gate_and_emits_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("provenance ")
    prov = json.loads(lines[-2].split(" ", 1)[1])
    assert prov["seed"] == 3 and prov["nproc"] >= 1 and prov["src_acstk_lines"] > 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_rejects_corrupted_output():
    for name in sorted(WORKLOADS["tiny"]):
        workload = WORKLOADS["tiny"][name]
        text, inputs = _tiny_output(name)
        assert workload.gate(text, inputs) == []
        assert workload.gate(text.replace("1", "2", 1), inputs) != []


def test_oracles_catch_corruption_the_digest_does_not_cover():
    # sphere-algebra digests only its probe line; a wrong tensor value
    # elsewhere must still be caught by the independent 1-jet oracle
    text, inputs = _tiny_output("sphere-algebra")
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("nijenhuis ") and '"sphere":6' in line)
    record = json.loads(lines[i].split(" ", 1)[1])
    record["N"][1] = str(oracles.Fraction(record["N"][1]) + 1)
    lines[i] = "nijenhuis " + json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert WORKLOADS["tiny"]["sphere-algebra"].gate("\n".join(lines) + "\n", inputs) != []
    # the classify and lpoly oracles stand on their own as well
    classify, _ = _tiny_output("classify-sweep")
    assert oracles.check_classify(classify, 1, 14) == []
    assert oracles.check_classify(classify.replace('"s_k": "1/3"', '"s_k": "1/4"'), 1, 14) != []
    lpoly, _ = _tiny_output("lpoly-tower")
    assert oracles.check_lpoly(lpoly, 3) == []
    assert oracles.check_lpoly(lpoly.replace("62/945", "61/945"), 3) != []


def test_seed_fixes_the_sphere_inputs():
    make = WORKLOADS["full"]["sphere-algebra"].make_inputs
    assert make(7) == make(7) and make(7) != make(8)
    assert len(make(7)["nijenhuis"]) == 24


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "lpoly-tower", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
