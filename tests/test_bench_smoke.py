"""One traced round of the benchmark, checked as a strict reader would.

The last line a benchmark run prints is its result.  Strict JSON has no
NaN or Infinity, and readers that hold numbers as doubles lose integers
past 2^53, so the result must avoid both.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError("non-finite JSON constant %s" % constant)


def _integers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _integers(item)
    elif isinstance(obj, int):
        yield obj


def test_traced_round_prints_strict_json():
    argv = [
        sys.executable,
        str(ROOT / "benchmarks" / "run.py"),
        "--workload", "sparse-ladder",
        "--seed", "5",
        "--seconds", "0",
        "--trace", "1",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)), name
        assert math.isfinite(value), name
    assert all(abs(v) < 2**53 for v in _integers(result))
