"""Tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest perfbench``.
Every workload runs at its ``--tiny`` size through the command line the
benchmark is driven by.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("perfbench") / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
        text=True, timeout=900,
    )


def test_spec_names_the_code_workloads_and_metrics():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.LAYER_MAP)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        assert f"limit {workload.limit_ms:g} ms" in entry["why"]
        n = workload.nominal.requests
        _, percentile = layers.tail_value(list(range(n)))
        assert f"tail p{percentile:.3g} of {n}" in entry["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks_and_prints_the_listed_metrics(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "11", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run(
        "--workload", "ebnn-serve", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_a_wrong_output_fails_the_check():
    tiny = workloads.EBNN_SERVE.tiny_variant()
    workload = replace(tiny, overload=replace(tiny.overload, requests=40), expect=())
    bench = workloads.Bench(workload, seed=3)
    references = bench.references()
    key = next(iter(references))
    references[key] = references[key] + 1
    rep = bench.repetition(references)
    assert rep.bad_outputs > 0
    assert rep.problems


def test_fingerprint_sees_a_changed_completion_time():
    tiny = workloads.EBNN_SERVE.tiny_variant()
    workload = replace(tiny, overload=replace(tiny.overload, requests=40), expect=())
    bench = workloads.Bench(workload, seed=5)
    references = bench.references()
    first, second = bench.repetition(references), bench.repetition(references)
    assert first.fingerprint() == second.fingerprint()
    second.results["nominal"].responses[0].completed_s += 1e-12
    assert first.fingerprint() != second.fingerprint()


@pytest.mark.parametrize(
    "n, index, percentile",
    [(20, 9, 50.0), (160, 149, 93.75), (2000, 1989, 99.5), (5, 0, 20.0)],
)
def test_tail_leaves_ten_samples_beyond_it(n, index, percentile):
    assert layers.tail_value(list(range(n))) == (index, percentile)
