"""The two benchmark workloads: seeded inputs, the calls an op makes, and
the reference checks on its results.

Each workload is a closed loop of rounds.  A round holds every input class
of the workload in fixed proportions, so every run, whatever its seed,
does the same mix of work; the seed draws the angles, states,
permutations, text layout and op order.  Round ``i`` of seed ``s`` depends
on ``(s, i)`` only.  See README.md in this directory for why each
workload and proportion was chosen.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os

import numpy as np

from luinv import (
    CapacityError,
    PermutationSet,
    catalog_state,
    check_strength,
    find_witness,
    from_iroa,
    invariant,
    is_irredundant,
    is_k_uniform,
    parse_oa,
    verify_witness,
)
from luinv.cli import main as cli_main

import reference as ref

# Inputs above this size may be refused with CapacityError: the d^N entry
# cap of uniformity as of this benchmark.  A refusal of a smaller input is
# a failure; a value returned for a larger one is checked like any other.
REFUSABLE_ENTRIES = 10**7

CYCLIC3 = PermutationSet(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
# sigma_1 = sigma_5, sigma_2 = sigma_4: the five-party triple pattern
FIVE_PARTY_TRIPLE = PermutationSet(
    3, ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 3, 1), (1, 2, 3))
)


class Mismatch(Exception):
    """A result missed its reference check."""


class Refusal(Exception):
    """The program declined an input the benchmark predicts may be refused."""


class Op:
    __slots__ = ("kind", "fn")

    def __init__(self, kind, fn):
        self.kind = kind
        self.fn = fn


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _theta(rng):
    return float(rng.uniform(0.0, 2 * math.pi))


def _shuffled(rng, ops):
    return [ops[j] for j in rng.permutation(len(ops))]


def _expand(classes):
    """(kind, d, weight) classes -> one (kind, d) entry per op of a round."""
    return [(kind, d) for kind, d, weight in classes for _ in range(weight)]


def _evaluate(ctx, state, p):
    """invariant() with the auto engine, filed under the engine it chose."""
    result = ctx.call("invariants.auto", invariant, state, p)
    ctx.rename_last("invariants." + result.engine)
    ctx.counts.add("invariants.auto_" + result.engine)
    ctx.counts.add("invariants.%s_calls" % result.engine)
    if result.engine == "sparse":
        ctx.counts.add("invariants.sparse_terms", result.term_count)
    return result


def _close(name, got, want, tol):
    dev = abs(got - want)
    if not dev <= tol:
        raise Mismatch("%s off by %.3e (tolerance %.0e)" % (name, dev, tol))


class SparseLadder:
    """catalog_state + invariant() (auto engine) over a ladder of sizes."""

    name = "sparse-ladder"
    # Proportions put the median inside the psi3d d=9 class and the 90th
    # percentile inside the psi3d d=12 class, away from class boundaries.
    CLASSES = (
        ("psi5d", 4, 1),
        ("psi3d", 6, 1),
        ("psi3d", 8, 1),
        ("psi5d", 5, 1),
        ("psi3d", 9, 2),
        ("psi3d", 10, 1),
        ("psi5d", 6, 1),
        ("psi3d", 12, 2),
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    def round(self, i):
        rng = _rng(self.seed, i)
        ops = [
            Op("%s-%d" % (kind, d), functools.partial(self._op, kind, d, _theta(rng)))
            for kind, d in _expand(self.CLASSES)
        ]
        return _shuffled(rng, ops)

    @staticmethod
    def _op(kind, d, theta, ctx):
        state = ctx.call("states.build", catalog_state, kind, d=d, theta=theta)
        p = CYCLIC3 if kind == "psi3d" else FIVE_PARTY_TRIPLE
        got = _evaluate(ctx, state, p).value
        form = ref.psi3d_form if kind == "psi3d" else ref.psi5d_form
        _close("%s d=%d" % (kind, d), got, form(d, theta), 1e-10)

    def close(self):
        pass


def _array_rows(kind, d):
    if kind == "psi3d":
        return ref.psi3d_rows(d)
    if kind == "psi5d":
        return ref.psi5d_rows(d)
    return ref.reed_solomon_rows(d)


def _array_text(rng, rows):
    """The rows as text with a seeded whitespace layout."""
    sep = (" ", "  ", "\t", " \t ")[int(rng.integers(4))]
    tail = ("", " ", "\n")[int(rng.integers(3))]
    return "\n".join(sep.join(str(v) for v in row) + tail for row in rows) + "\n"


class _ArrayFacts:
    """Reference verdicts for one array, from the definitions."""

    def __init__(self, rows, d):
        num_parties = len(rows[0])
        self.shape = (len(rows), num_parties, d)
        self.k = min(2, num_parties // 2)
        self.lam2 = ref.strength_index(rows, d, 2)
        self.lam_k = ref.strength_index(rows, d, self.k)
        self.irredundant = ref.irredundant(rows, d, self.k)
        self.kernel_dim = ref.kernel_dim(rows, d)
        self.rows = rows


def _run_cli(argv):
    """luinv's command line in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


class ClassifyPipeline:
    """One array text through parse, validation, state build, uniformity,
    witness find/verify and the command line's ``oa validate``."""

    name = "classify-pipeline"
    # Proportions put the median in the middle of the psi3d d=7 class
    # (eight cheaper ops, eight psi3d d=7, eight dearer) and the 90th
    # percentile in the middle of the psi3d d=9 class.
    CLASSES = (
        ("rs", 3, 1),
        ("psi5d", 2, 1),
        ("psi3d", 3, 1),
        ("psi3d", 4, 1),
        ("psi3d", 5, 1),
        ("psi5d", 3, 1),
        ("psi3d", 6, 1),
        ("psi3d", 7, 8),
        ("psi3d", 8, 2),
        ("psi5d", 4, 1),
        ("rs", 5, 1),
        ("rs", 11, 1),
        ("psi3d", 9, 3),
        ("rs", 7, 1),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self._facts = {}
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.array_path = os.path.join(workdir, "a.oa")

    def round(self, i):
        rng = _rng(self.seed, i)
        ops = []
        for kind, d in _expand(self.CLASSES):
            rows = _array_rows(kind, d)
            text = _array_text(rng, rows)
            row = rows[int(rng.integers(len(rows)))]
            ops.append(
                Op("%s-%d" % (kind, d), functools.partial(self._op, kind, d, text, row, _theta(rng)))
            )
        return _shuffled(rng, ops)

    def facts(self, kind, d):
        key = (kind, d)
        if key not in self._facts:
            self._facts[key] = _ArrayFacts(_array_rows(kind, d), d)
        return self._facts[key]

    def _op(self, kind, d, text, phase_row, theta, ctx):
        oa = ctx.call("oa.parse", parse_oa, text)
        facts = self.facts(kind, d)
        k = facts.k
        strength = ctx.call("oa.validate", check_strength, oa, 2)
        irredundant = ctx.call("oa.validate", is_irredundant, oa, k)
        state = ctx.call("states.build", from_iroa, oa, {phase_row: theta})
        refused = None
        try:
            uniform = ctx.call("entanglement.uniform", is_k_uniform, state, k)
        except (CapacityError, MemoryError) as exc:
            ctx.counts.add("entanglement.refusals")
            if state.local_dim**state.num_parties <= REFUSABLE_ENTRIES:
                raise
            refused, uniform = type(exc).__name__, None
        witness = ctx.call("witness.find", find_witness, oa)
        report = None
        if witness is not None:
            report = ctx.call("witness.verify", verify_witness, oa, witness)

        problems = []
        _, num_parties, d = facts.shape
        if (oa.r, oa.num_parties, oa.local_dim) != facts.shape:
            problems.append("parsed shape %r" % ((oa.r, oa.num_parties, oa.local_dim),))
        if strength.holds != bool(facts.lam2) or strength.index_lambda != facts.lam2:
            problems.append("strength 2 verdict %r" % (strength,))
        if irredundant != facts.irredundant:
            problems.append("irredundant(k=%d) = %r" % (k, irredundant))
        if uniform is not None:
            subsets = math.comb(num_parties, k)
            ctx.counts.add("entanglement.subsets", subsets)
            ctx.counts.add("entanglement.dense_entries", subsets * d**num_parties)
            # uniform magnitudes: k-uniform iff an IrOA of strength k
            if uniform.passed != bool(facts.lam_k and facts.irredundant):
                problems.append("%d-uniform verdict %r" % (k, uniform.passed))
        if witness is None:
            ctx.counts.add("witness.trivial")
            if facts.kernel_dim:
                problems.append("no witness, kernel dimension %d" % facts.kernel_dim)
        else:
            ctx.counts.add("witness.copies_n", witness.n)
            if not facts.kernel_dim:
                problems.append("witness found for a trivial kernel")
            problems.extend(ref.witness_problems(facts.rows, d, witness))
            ctx.counts.low("witness.spread_min", report.spread)
            if not report.certified:
                problems.append("witness not certified, spread %.3e" % report.spread)
        problems.extend(self._cli_validate(ctx, text, facts))
        if problems:
            raise Mismatch("; ".join(problems))
        if refused:
            raise Refusal(refused)

    def _cli_validate(self, ctx, text, facts):
        """``luinv oa validate --json`` on the same text, against the facts."""
        with open(self.array_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = ["oa", "validate", self.array_path, "--strength", "2", "--irredundant", str(facts.k), "--json"]
        code, out = ctx.call("cli.oa_validate", _run_cli, argv)
        r, num_parties, d = facts.shape
        want = {
            "r": r,
            "num_parties": num_parties,
            "local_dim": d,
            "strength": {"k": 2, "holds": bool(facts.lam2), "index_lambda": facts.lam2},
            "irredundant": {"k": facts.k, "holds": facts.irredundant},
        }
        want_code = 0 if facts.lam2 and facts.irredundant else 2
        if code != want_code or json.loads(out) != want:
            return ["oa validate exited %s and printed %r" % (code, out)]
        return []

    def close(self):
        try:
            os.remove(self.array_path)
        except FileNotFoundError:
            pass
        try:
            os.rmdir(self.workdir)
        except OSError:
            pass


WORKLOADS = {cls.name: cls for cls in (SparseLadder, ClassifyPipeline)}
