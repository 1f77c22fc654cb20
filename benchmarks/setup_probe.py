"""Time one set-up in a fresh interpreter: import luinv, then build the
inputs of a workload's first round from the seed.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

prints the seconds taken.  ``run.py`` runs it several times and reports
the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports luinv)


def main(name, seed):
    workdir = ROOT / ".bench_out" / ("probe-%s-%d" % (name, os.getpid()))
    workload = WORKLOADS[name](seed, str(workdir))
    try:
        workload.round(0)
    finally:
        workload.close()
    return time.perf_counter() - START


if __name__ == "__main__":
    print("%.9f" % main(sys.argv[1], int(sys.argv[2])))
