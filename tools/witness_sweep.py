"""Find and certify the witnesses of the psi3d and psi5d arrays across d.

Each case (family, d, kernel_index) runs in a fresh interpreter, so the
peak resident set size it reports is that case's own.  Per case the
record holds the seconds ``find_witness`` and ``verify_witness`` took,
the peak RSS after the find and after the verify, n, the number of
nonzero kernel entries, the verdict and the exact term counts c_e.  A
case without a witness (psi3d d=2) is recorded with ``"witness": false``.

Usage, from the repository root:

    python tools/witness_sweep.py                        # the whole sweep
    python tools/witness_sweep.py --family psi5d --d 24 32 40 --out run.json

The package is imported from the ``src`` directory next to this file and
the psi rows from ``benchmarks/reference.py``.  Only the standard library
and numpy are used.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from benchmarks.reference import psi3d_rows, psi5d_rows  # noqa: E402

# psi3d has a witness for d > 2 and psi5d for d >= 2; d=2 psi3d has none
SWEEP = {"psi3d": range(2, 62), "psi5d": range(2, 49)}
ROWS = {"psi3d": psi3d_rows, "psi5d": psi5d_rows}


def _peak_mb():
    # ru_maxrss is in KiB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_case(family, d, kernel_index):
    """One case in this interpreter, as a JSON-ready record."""
    sys.path.insert(0, str(ROOT / "src"))
    from luinv import OrthogonalArray, find_witness, verify_witness

    rows = ROWS[family](d)
    oa = OrthogonalArray(rows=rows, num_parties=len(rows[0]), local_dim=d)
    record = {"family": family, "d": d, "kernel_index": kernel_index, "r": oa.r}
    start = time.perf_counter()
    w = find_witness(oa, kernel_index=kernel_index)
    record["find_s"] = round(time.perf_counter() - start, 4)
    record["find_rss_mb"] = _peak_mb()
    record["witness"] = w is not None
    if w is None:
        return record
    start = time.perf_counter()
    report = verify_witness(oa, w)
    record["verify_s"] = round(time.perf_counter() - start, 4)
    record["ru_maxrss_mb"] = _peak_mb()
    record["n"] = w.n
    record["kernel_nonzero"] = sum(v != 0 for v in w.kernel)
    record["certified"] = report.certified
    record["term_counts"] = {str(e): c for e, c in report.term_counts.items()}
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", choices=sorted(SWEEP), nargs="+")
    parser.add_argument("--d", type=int, nargs="+", help="default: the whole sweep")
    parser.add_argument("--out", default=str(ROOT / "BENCH_witness_sweep.json"))
    parser.add_argument("--case", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        family, d, kernel_index = args.case
        print(json.dumps(run_case(family, int(d), int(kernel_index))))
        return 0
    import numpy

    cases = []
    for family in args.family or sorted(SWEEP):
        for d in args.d or SWEEP[family]:
            for kernel_index in (0, 1):
                case = [family, str(d), str(kernel_index)]
                out = subprocess.run(
                    [sys.executable, __file__, "--case", *case],
                    check=True,
                    capture_output=True,
                    text=True,
                ).stdout
                cases.append(json.loads(out))
                print(out.strip(), file=sys.stderr)
    header = {
        "tool": "tools/witness_sweep.py",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    # one case per line
    with open(args.out, "w") as fh:
        fh.write(json.dumps(header)[:-1] + ', "cases": [\n ')
        fh.write(",\n ".join(json.dumps(case) for case in cases))
        fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
