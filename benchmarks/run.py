"""Benchmark for luinv: seeded closed-loop workloads, checked results.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sparse-ladder --seed 1 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 60 --trace 0

One client runs one op at a time (a closed loop) for about ``--seconds``
seconds, in whole rounds; an untraced run holds at least ``MIN_OPS`` ops.
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run that records a span around every call into
luinv and reports the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (environment, every failure and refusal, spans) goes to
``.bench_out/`` in the checkout.  ``--workload all`` runs each workload in
a fresh child process and prints a table.  See README.md here.
"""

from __future__ import annotations

import os

# one single-threaded client; set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NULL_TRACER, Counts, OpContext, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sparse-ladder", "classify-pipeline")
SETUP_REPEATS = 15
# an untraced run holds at least this many ops, so at least ten lie above p90
MIN_OPS = 100

# name -> unit; the same names, units and directions are in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "oa.parse",
    "oa.validate",
    "states.build",
    "entanglement.uniform",
    "invariants.sparse",
    "invariants.dense",
    "witness.find",
    "witness.verify",
    "cli.oa_validate",
)
PER_LAYER = dict(
    [(name + "_s", "s") for name in LAYER_TIMES]
    + [
        ("entanglement.subsets", "count"),
        ("entanglement.dense_entries", "count"),
        ("entanglement.refusals", "count"),
        ("invariants.sparse_calls", "count"),
        ("invariants.sparse_terms", "count"),
        ("invariants.dense_calls", "count"),
        ("invariants.auto_sparse", "count"),
        ("invariants.auto_dense", "count"),
        ("witness.copies_n", "count"),
        ("witness.trivial", "count"),
        ("witness.spread_min", "abs"),
        ("bench.self_s", "s"),
        ("bench.trace_overhead_frac", "ratio"),
    ]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import luinv from this checkout's src/, or exit 2 if it is missing."""
    if not (SRC / "luinv" / "__init__.py").is_file():
        print("error: %s/luinv not found; run from a checkout of the repository" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import luinv

    if Path(luinv.__file__).resolve().parent != SRC / "luinv":
        print("error: luinv was imported from %s, not %s" % (luinv.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return luinv


def commit_id():
    """The checkout's commit read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, traced):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit_id(),
        "seed": seed,
        "traced": bool(traced),
    }


def execute(ops, tracer, counts, records):
    """Run one round's ops in order; returns the round's wall time."""
    from workloads import Mismatch, Refusal

    start = time.perf_counter()
    for op in ops:
        tracer.op = len(records)
        root = tracer.open("bench.op", op.kind)
        ctx = OpContext(tracer, counts)
        status, detail = "ok", None
        try:
            op.fn(ctx)
        except Refusal as exc:
            status, detail = "refused", str(exc)
        except Mismatch as exc:
            status, detail = "failed", "Mismatch: %s" % exc
        except Exception as exc:  # noqa: BLE001 - every error is a counted failure
            status, detail = "failed", "%s: %s" % (type(exc).__name__, exc)
        tracer.close(root)
        records.append({"op": tracer.op, "kind": op.kind, "latency_s": ctx.busy, "status": status, "detail": detail})
    return time.perf_counter() - start


def measure(workload, first_round, seconds, min_ops, traced):
    """The closed loop.  Traced runs repeat each round untraced, alternating
    which goes first, to measure the tracing overhead on identical work."""
    tracer = Tracer() if traced else None
    counts = Counts()
    records = []
    walls = {"plain": 0.0, "traced": 0.0}
    start = time.perf_counter()
    i = 0
    while True:
        if i:
            elapsed = time.perf_counter() - start
            # stop where the expected end of the next round is past the
            # deadline, once the run holds min_ops ops
            if elapsed + elapsed / i >= seconds and len(records) >= min_ops:
                break
        ops = first_round if i == 0 else workload.round(i)
        if traced:
            for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_pass:
                    walls["traced"] += execute(ops, tracer, counts, records)
                else:
                    walls["plain"] += execute(ops, NULL_TRACER, Counts(), [])
        else:
            walls["plain"] += execute(ops, NULL_TRACER, counts, records)
        i += 1
    return records, counts, tracer, walls, i


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_children(args_list, env):
    """Run child interpreters one at a time; returns each one's stdout."""
    outputs = []
    for args in args_list:
        proc = subprocess.run(
            [sys.executable] + args,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            timeout=120,
            check=True,
        )
        outputs.append(proc.stdout.decode())
    return outputs


def setup_seconds(workload_name, seed):
    """Median over fresh interpreters of: import luinv, build the inputs."""
    probe = str(Path(__file__).with_name("setup_probe.py"))
    outs = run_children([[probe, workload_name, str(seed)]] * SETUP_REPEATS, dict(os.environ))
    return statistics.median(float(out.split()[-1]) for out in outs)


def end_to_end(records):
    """Every end-to-end metric but setup_s."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [r["latency_s"] for r in records]
    completed = sum(1 for r in records if r["status"] != "failed")
    return {
        "ops_per_s": completed / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * p90(latencies),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(counts, tracer, walls):
    metrics = {name: 0.0 if unit in ("s", "abs", "ratio") else 0 for name, unit in PER_LAYER.items()}
    for span, self_time in tracer.self_times():
        if span.name == "bench.op":
            metrics["bench.self_s"] += self_time
        elif span.name + "_s" in metrics:
            metrics[span.name + "_s"] += self_time
    for source in (counts.sums, counts.lows, counts.highs):
        for name, value in source.items():
            metrics[name] = value
    metrics["bench.trace_overhead_frac"] = walls["traced"] / walls["plain"] - 1.0
    return metrics


def run_one(args):
    import_program()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(OUT / ("%s-%d" % (args.workload, os.getpid()))))
    first_round = workload.round(0)
    try:
        records, counts, tracer, walls, rounds = measure(
            workload, first_round, args.seconds, 0 if args.trace else MIN_OPS, args.trace
        )
    finally:
        workload.close()

    if args.trace:
        metrics = per_layer(counts, tracer, walls)
        units = PER_LAYER
    else:
        metrics = end_to_end(records)
        metrics = {"setup_s": setup_seconds(args.workload, args.seed), **metrics}
        units = END_TO_END

    failed = [r for r in records if r["status"] == "failed"]
    refused = [r for r in records if r["status"] == "refused"]
    env = environment(args.seed, args.trace)
    kinds = {}
    for r in records:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    detail = {
        "workload": args.workload,
        "environment": env,
        "rounds": rounds,
        "wall_s": walls,
        "op_counts": kinds,
        "fail_frac": (len(failed) + len(refused)) / len(records),
        "failures": failed,
        "refusals": refused,
        "metrics": metrics,
    }
    if args.trace:
        detail["spans"] = [s.as_dict() for s in tracer.spans]
    out_file = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    latencies = [r["latency_s"] for r in records]
    cut = p90(latencies)
    above = sum(1 for v in latencies if v > cut)
    print("workload %s: %d rounds, %d ops, %d above p90" % (args.workload, rounds, len(records), above))
    for name, value in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, units[name]))
    print(
        "  %-28s %14.6g ratio  (failed %d + refused %d of %d; refusals: %s)"
        % ("fail_frac", detail["fail_frac"], len(failed), len(refused), len(records),
           ", ".join(sorted({"%s %s" % (r["kind"], r["detail"]) for r in refused})) or "none")
    )
    for r in failed[:10]:
        print("  FAILED op %d %s: %s" % (r["op"], r["kind"], r["detail"]))
    print("  environment %s" % json.dumps(env, sort_keys=True))
    print("  record %s" % out_file.relative_to(ROOT))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def run_all(args):
    """Each workload in a fresh child process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = run_children([argv], dict(os.environ))[0]
        results[name] = json.loads(out.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print("%-28s %-6s " % ("metric", "unit") + " ".join("%18s" % w for w in WORKLOAD_NAMES))
    for metric in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        row = " ".join("%18.6g" % results[w]["metrics"][metric]["value"] for w in WORKLOAD_NAMES)
        print("%-28s %-6s %s" % (metric, unit, row))
    print(" ".join("%s: %d/%d failed" % (w, results[w]["failed"], results[w]["attempted"]) for w in WORKLOAD_NAMES))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        if not (SRC / "luinv" / "__init__.py").is_file():
            print("error: %s/luinv not found" % SRC, file=sys.stderr)
            return 2
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
