"""Smoke test of the benchmark itself at p = 13, in seconds.

    python3 -m pytest perfbench/test_smoke.py

Runs the three op paths untraced and traced at the SMOKE scale and checks
that every metric named in BENCHMARK.json is printed with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=3):
    rc = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                     "--trace", str(trace)], scale=workloads.SMOKE)
    lines = capsys.readouterr().out.splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed(capsys, workload, trace):
    rc, lines, result = _run(capsys, workload, trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.split()[3] == m["unit"]
                   for line in lines)
    assert any(line.startswith("error_rate = ") for line in lines)
    assert any(line.startswith("env {") for line in lines)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_count_draws_agrees_with_the_pool():
    pool = bench.load_refs()["pools"]["degenerate_p13"]
    for entry in pool[:6]:
        assert workloads.count_draws(13, entry["seed"], "degenerate") == entry["draws"]
        assert workloads.count_draws(13, entry["seed"], "degenerate",
                                     hint=entry["draws"] + 1) == entry["draws"]


def test_wrong_output_fails_the_run(capsys, monkeypatch):
    refs = bench.load_refs()
    for entry in refs["pools"]["degenerate_p13"]:
        entry["digest"] = "0" * 16
    monkeypatch.setattr(bench, "load_refs", lambda: refs)
    rc, _, result = _run(capsys, "degenerate_p101", 0)
    assert rc == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit_scalar", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_count_drift_fails_the_run(capsys, monkeypatch):
    refs = bench.load_refs()
    key = workloads.ref_key("census_p503", workloads.SMOKE)
    wrong = dict.fromkeys(bench.COUNTS, 0)
    refs.setdefault("outputs", {})[key] = {"3": {"digests": None, "counts": wrong}}
    monkeypatch.setattr(bench, "load_refs", lambda: refs)
    rc, lines, result = _run(capsys, "census_p503", 1)
    assert rc == 1 and not result["correct"]
    assert any(line.startswith("nondeterminism: ") for line in lines)
