"""The witness sweep tool end to end on its smallest family and d.

``tools/witness_sweep.py`` writes ``BENCH_witness_sweep.json``.  Here it
runs psi3d d=3, two cases in fresh interpreters, into a temporary file.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_psi3d_d3_record(tmp_path):
    out = tmp_path / "sweep.json"
    argv = [sys.executable, str(ROOT / "tools" / "witness_sweep.py")]
    argv += ["--family", "psi3d", "--d", "3", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    record = json.loads(out.read_text())
    assert set(record) == {"tool", "python", "numpy", "machine", "cpus", "cases"}
    assert record["tool"] == "tools/witness_sweep.py"
    cases = record["cases"]
    assert [(c["family"], c["d"], c["kernel_index"]) for c in cases] == [
        ("psi3d", 3, 0),
        ("psi3d", 3, 1),
    ]
    assert all(c["witness"] and c["certified"] for c in cases)
    assert cases[0]["term_counts"] == {"-1": 6, "0": 69, "1": 6}
