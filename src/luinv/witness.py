"""Witness synthesis for theta-dependent invariant families.

The pipeline follows the constructive argument that an orthogonal array
with more rows than independent symbol-count constraints carries a
non-constant invariant family:

1. ``build_system``: the (N*d) x r 0/1 incidence matrix whose (party,
   symbol) row marks the array rows carrying that symbol at that party.
2. ``integral_kernel``: an exact integer kernel vector K of the system,
   found by fraction-free elimination; N - 1 of the N*d equations are
   redundant, so a nonzero K exists whenever r > N*d - (N-1).
3. ``split_multisets``: X collects rows with multiplicity max(K, 0),
   Y with max(-K, 0); the kernel conditions force equal per-position
   symbol counts, hence |X| = |Y|.
4. ``build_permutations``: one-line permutations sigma_nu with
   (y_l)_nu = (x_{sigma_nu(l)})_nu, pairing equal symbols by ascending
   copy index.
5. A marked row with K != 0 receives the phase theta; the invariant for
   the synthesized permutations picks up an uncancelled power of
   e^{i theta}, so scanning theta certifies infinitely many classes.
   The support does not depend on theta, so ``theta_values`` enumerates
   once and evaluates every grid point from exact term counts.

All arithmetic through step 4 is exact integer arithmetic; only the
final certification is numerical.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ArgumentError, DuplicateRowError, WitnessError
from .invariants import PermutationSet, _sparse_terms

__all__ = [
    "Witness",
    "CertificationReport",
    "DEFAULT_THETA_GRID",
    "CERT_SPREAD_TOL",
    "build_system",
    "integral_kernel",
    "split_multisets",
    "build_permutations",
    "find_witness",
    "theta_values",
    "verify_witness",
    "witness_to_dict",
]

DEFAULT_THETA_GRID = (0.0, math.pi / 3, math.pi / 2, math.pi)
CERT_SPREAD_TOL = 1e-6


@dataclass(frozen=True)
class Witness:
    """Integral kernel vector plus the derived multisets and permutations.

    ``rows`` are the source array rows; ``kernel[i]`` is the K value of
    ``rows[i]``.  ``X`` and ``Y`` list rows with multiplicities from the
    positive and negative kernel parts, ``marked_row`` carries the theta
    phase during certification.
    """

    rows: tuple
    kernel: tuple
    X: tuple
    Y: tuple
    n: int
    perms: PermutationSet
    marked_row: tuple


@dataclass(frozen=True)
class CertificationReport:
    certified: bool
    theta_values: tuple
    invariant_values: tuple
    spread: float


def build_system(oa):
    """The (N*d) x r incidence matrix of symbol counts.

    Row nu*d + l holds 1 in column i iff array row i carries symbol l at
    party nu.  Summing K over each such row expresses the per-position
    count conditions; their rank is at most N*d - (N-1).
    """
    if len(set(oa.rows)) != len(oa.rows):
        raise DuplicateRowError("array rows are not pairwise distinct")
    mat = np.zeros((oa.num_parties * oa.local_dim, oa.r), dtype=np.int64)
    for col, row in enumerate(oa.rows):
        for nu, sym in enumerate(row):
            mat[nu * oa.local_dim + sym, col] = 1
    return mat


def _bareiss_echelon(mat):
    """Fraction-free row echelon over exact integers.

    Returns (rows, pivot_cols): the eliminated integer rows and the
    pivot column of each.  Entries stay integral by Sylvester's identity;
    the pivot choice (first usable row, columns left to right) is
    deterministic.
    """
    a = [[int(v) for v in row] for row in mat]
    m = len(a)
    cols = len(a[0]) if m else 0
    pivot_cols = []
    rank = 0
    prev = 1
    for c in range(cols):
        p = next((i for i in range(rank, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        pivot = a[rank][c]
        for i in range(rank + 1, m):
            f = a[i][c]
            row_i = a[i]
            row_r = a[rank]
            for j in range(c, cols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
        prev = pivot
        pivot_cols.append(c)
        rank += 1
        if rank == m:
            break
    return a[:rank], pivot_cols


def integral_kernel(mat, kernel_index=0):
    """A gcd-normalized integer kernel vector of ``mat``, or None.

    The free columns are the non-pivot columns in ascending order;
    ``kernel_index`` selects which free column is set to drive the back
    substitution.  The returned vector has entry gcd 1 and a positive
    first nonzero entry, making the choice reproducible.
    """
    ech, pivot_cols = _bareiss_echelon(mat)
    cols = len(mat[0]) if len(mat) else 0
    pivot_set = set(pivot_cols)
    free = [c for c in range(cols) if c not in pivot_set]
    if not free:
        return None
    if not 0 <= kernel_index < len(free):
        raise ArgumentError(
            "kernel_index %d out of range 0..%d" % (kernel_index, len(free) - 1)
        )
    x = [Fraction(0)] * cols
    x[free[kernel_index]] = Fraction(1)
    for i in reversed(range(len(pivot_cols))):
        c = pivot_cols[i]
        row = ech[i]
        s = Fraction(0)
        for j in range(c + 1, cols):
            if row[j] and x[j]:
                s += Fraction(row[j]) * x[j]
        x[c] = -s / row[c]
    scale = math.lcm(*(v.denominator for v in x))
    ints = [int(v * scale) for v in x]
    g = math.gcd(*ints)
    assert g > 0
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def split_multisets(kernel, oa):
    """Rows with positive K go to X, negated negative parts to Y."""
    values = [int(v) for v in kernel]
    if len(values) != oa.r:
        raise ArgumentError("kernel length %d != row count %d" % (len(values), oa.r))
    if all(v == 0 for v in values):
        raise ArgumentError("kernel vector is zero")
    x_rows = []
    y_rows = []
    for row, v in zip(oa.rows, values):
        if v > 0:
            x_rows.extend([row] * v)
        elif v < 0:
            y_rows.extend([row] * (-v))
    return tuple(x_rows), tuple(y_rows)


def build_permutations(X, Y):
    """One-line permutations connecting two ordered row lists.

    For each party nu, copy indices are grouped by symbol and the Y
    indices are paired with the X indices of the same symbol in
    ascending order, giving (y_l)_nu = (x_{sigma_nu(l)})_nu.
    """
    x_rows = [tuple(v) for v in X]
    y_rows = [tuple(v) for v in Y]
    if not x_rows or len(x_rows) != len(y_rows):
        raise WitnessError(
            "cardinalities differ: |X|=%d, |Y|=%d" % (len(x_rows), len(y_rows))
        )
    n = len(x_rows)
    num_parties = len(x_rows[0])
    perms = []
    for nu in range(num_parties):
        xs_by = defaultdict(list)
        ys_by = defaultdict(list)
        for i, row in enumerate(x_rows):
            xs_by[row[nu]].append(i)
        for i, row in enumerate(y_rows):
            ys_by[row[nu]].append(i)
        if {k: len(v) for k, v in xs_by.items()} != {
            k: len(v) for k, v in ys_by.items()
        }:
            raise WitnessError("coordinate multiset mismatch at party %d" % (nu + 1))
        perm = [0] * n
        for sym, xs in xs_by.items():
            for yi, xi in zip(ys_by[sym], xs):
                perm[yi] = xi + 1
        perms.append(tuple(perm))
    return PermutationSet(n=n, perms=tuple(perms))


def find_witness(oa, kernel_index=0):
    """Chain the full pipeline; None when the kernel is trivial.

    The marked row maximizes |K|, ties broken by lexicographically
    smallest row.
    """
    kern = integral_kernel(build_system(oa), kernel_index=kernel_index)
    if kern is None:
        return None
    x_rows, y_rows = split_multisets(kern, oa)
    perms = build_permutations(x_rows, y_rows)
    top = max(abs(v) for v in kern)
    marked = min(row for row, v in zip(oa.rows, kern) if abs(v) == top)
    return Witness(
        rows=oa.rows,
        kernel=kern,
        X=x_rows,
        Y=y_rows,
        n=len(x_rows),
        perms=perms,
        marked_row=marked,
    )


def _check_structure(oa, w):
    if w.rows != oa.rows:
        raise WitnessError("witness rows do not match the array")
    if len(w.kernel) != oa.r:
        raise WitnessError("kernel length mismatch")
    if all(v == 0 for v in w.kernel):
        raise WitnessError("kernel vector is zero")
    if len(w.X) != w.n or len(w.Y) != w.n or w.n < 1:
        raise WitnessError("|X| and |Y| must both equal n >= 1")
    if Counter(w.X) == Counter(w.Y):
        raise WitnessError("X equals Y as multisets")
    # kernel conditions, exact: object entries stay Python integers
    violated = np.flatnonzero(build_system(oa) @ np.array(w.kernel, dtype=object))
    if violated.size:
        nu, sym = divmod(int(violated[0]), oa.local_dim)
        raise WitnessError(
            "kernel violates the count condition at party %d symbol %d"
            % (nu + 1, sym)
        )
    expected_x, expected_y = split_multisets(w.kernel, oa)
    if Counter(w.X) != Counter(expected_x) or Counter(w.Y) != Counter(expected_y):
        raise WitnessError("X/Y do not match the kernel sign parts")
    if w.perms.n != w.n or w.perms.num_parties != oa.num_parties:
        raise WitnessError("permutation shape mismatch")
    for nu in range(oa.num_parties):
        perm = w.perms.perms[nu]
        for l in range(w.n):
            if w.Y[l][nu] != w.X[perm[l] - 1][nu]:
                raise WitnessError(
                    "permutations do not connect X to Y at party %d" % (nu + 1)
                )
    kernel_at = dict(zip(oa.rows, w.kernel))
    if kernel_at.get(tuple(w.marked_row), 0) == 0:
        raise WitnessError("marked row must carry a nonzero kernel value")


def theta_values(oa, w, thetas):
    """The invariant of ``from_iroa(oa, {w.marked_row: theta})`` per theta:
    weight 2 on kets and 1/2 on bras of the marked row make each term 2^e,
    e = marked kets - marked bras, and the exact count c_e of each e gives
    the value r^{-n} sum_e c_e e^{i e theta} at any theta."""
    _check_structure(oa, w)
    n = w.n
    if n > 1022:
        raise ArgumentError("copy count n=%d exceeds the float64 exponent range" % n)
    weight = np.ones(oa.r)
    weight[oa.rows.index(tuple(w.marked_row))] = 2.0
    terms = _sparse_terms(np.array(oa.rows), weight, 1 / weight, oa.local_dim, w.perms)
    counts = np.bincount(np.frexp(terms)[1] - 1 + n, minlength=2 * n + 1)
    phases = np.exp(1j * np.outer(thetas, np.arange(-n, n + 1)))
    # float power: a large n underflows to 0 rather than overflowing
    return tuple(complex(v) for v in float(oa.r) ** -n * (phases @ counts))


def verify_witness(oa, w, theta_grid=None, spread_tol=CERT_SPREAD_TOL):
    """Certify theta-dependence of the witnessed invariant numerically.

    The structural invariants are checked exactly first.  Then the state
    with phase theta on the marked row is evaluated at each grid point;
    certification passes iff the maximum pairwise value difference
    exceeds ``spread_tol``.  A single-point grid can never certify.
    """
    if theta_grid is None:
        theta_grid = DEFAULT_THETA_GRID
    thetas = tuple(float(t) for t in theta_grid)
    values = theta_values(oa, w, thetas)
    spread = max((abs(a - b) for a, b in combinations(values, 2)), default=0.0)
    return CertificationReport(
        certified=spread > spread_tol,
        theta_values=thetas,
        invariant_values=tuple(values),
        spread=spread,
    )


def witness_to_dict(w, report):
    """JSON-ready form; kernel entries with K = 0 are omitted."""
    return {
        "n": w.n,
        "K": [
            {"row": list(row), "value": int(v)}
            for row, v in zip(w.rows, w.kernel)
            if v != 0
        ],
        "X": [list(row) for row in w.X],
        "Y": [list(row) for row in w.Y],
        "perms": [list(perm) for perm in w.perms.perms],
        "marked_row": list(w.marked_row),
        "certified": bool(report.certified),
        "theta_values": list(report.theta_values),
        "invariant_values": [
            {"re": v.real, "im": v.imag} for v in report.invariant_values
        ],
    }
