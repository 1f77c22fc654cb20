"""Checks on the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py

A short traced run, made twice with one seed, must repeat its exact work
counts and op counts; the metrics a run prints must be the ones
BENCHMARK.json declares; and a directory without the program must make
the benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

EXACT_COUNTS = (
    "invariants.sparse_terms",
    "entanglement.subsets",
    "witness.copies_n",
    "witness.trivial",
)


def _run(workload, seed, trace, cwd=ROOT, extra=("--seconds", "0")):
    argv = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=str(cwd), capture_output=True, text=True, timeout=900)


def _result(workload, seed, trace):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).read_text())
    return result, record


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_counts_repeat(workload):
    (first, first_record), (second, second_record) = (_result(workload, 5, 1) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    assert first_record["op_counts"] == second_record["op_counts"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_declared_metrics_match_output():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    result, _ = _result("sparse-ladder", 5, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sparse-ladder", 1, 0, cwd=tmp_path, extra=("--seconds", "1"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
