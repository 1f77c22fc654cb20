"""Witness synthesis for theta-dependent invariant families.

The pipeline follows the constructive argument that an orthogonal array
with more rows than independent symbol-count constraints carries a
non-constant invariant family:

1. ``build_system``: the (N*d) x r 0/1 incidence matrix whose (party,
   symbol) row marks the array rows carrying that symbol at that party.
2. ``integral_kernel``: an exact integer kernel vector K of the system;
   N - 1 of the N*d equations are redundant, so a nonzero K exists
   whenever r > N*d - (N-1).  K is found by elimination modulo a
   word-size prime, rational reconstruction and an exact integer check of
   the whole kernel basis; an input the check cannot certify is answered
   by fraction-free (Bareiss) elimination, which gives the same K.
3. ``split_multisets``: X collects rows with multiplicity max(K, 0),
   Y with max(-K, 0); the kernel conditions force equal per-position
   symbol counts, hence |X| = |Y|.
4. ``build_permutations``: one-line permutations sigma_nu with
   (y_l)_nu = (x_{sigma_nu(l)})_nu, pairing equal symbols by ascending
   copy index.
5. A marked row with K != 0 receives the phase theta.  The support does
   not depend on theta, so one sparse contraction counts the terms of the
   invariant for the synthesized permutations per power e of e^{i theta},
   exactly: the invariant is sum_e (c_e / r^n) e^{i e theta}.  It depends
   on theta, and so separates infinitely many classes, iff c_e != 0 for
   some e != 0, and ``verify_witness`` certifies exactly that.

All arithmetic, the verdict included, is exact integer arithmetic; only
the reported values on a theta grid are floating point.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ArgumentError, DuplicateRowError, WitnessError
from .invariants import PermutationSet, _contract, _ones

__all__ = [
    "Witness",
    "CertificationReport",
    "DEFAULT_THETA_GRID",
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
# a prime below 2^31: two residues multiply to under 2^62
_PRIME = 2147483629
# common denominators past 2^31 send a kernel basis to Bareiss
_LCM_LIMIT = 1 << 31


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
    """The exact verdict and the grid values it is cross-checked by.

    ``term_counts`` maps each power e of e^{i theta} to its exact term
    count c_e, and ``r_to_n`` is r^n, so the invariant at theta is
    sum_e (c_e / r^n) e^{i e theta}.  ``certified`` holds iff c_e != 0 for
    some e != 0.  ``spread`` is the largest difference between the values
    at two grid points.
    """

    certified: bool
    theta_values: tuple
    invariant_values: tuple
    spread: float
    term_counts: dict
    r_to_n: int


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


def _bareiss_kernel(mat, kernel_index):
    """``integral_kernel`` by Bareiss elimination and exact rational back
    substitution: the path for inputs the modular path cannot certify."""
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
    return _primitive([int(v * scale) for v in x])


def _primitive(ints):
    """Divide out the gcd and make the first nonzero entry positive."""
    g = math.gcd(*ints)
    assert g > 0
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _rref_mod_p(a):
    """Reduced row echelon form of ``a`` modulo ``_PRIME``.

    Returns (rows, pivot_cols): the rank nonzero rows, each with a 1 in
    its pivot column, and those columns in ascending order.  Each step
    jumps to the next column with a nonzero entry at or below the current
    row, and updates only the rows that are nonzero in that column, and
    only in the columns where the pivot row is nonzero.
    """
    red = a % _PRIME
    m, cols = red.shape
    pivot_cols = []
    rank = c = 0
    while rank < m and c < cols:
        hit = red[rank:, c].nonzero()[0]
        if not hit.size:
            ahead = red[rank:, c:].any(axis=0).nonzero()[0]
            if not ahead.size:
                break
            c += int(ahead[0])
            hit = red[rank:, c].nonzero()[0]
        p = rank + int(hit[0])
        if p != rank:
            red[[rank, p]] = red[[p, rank]]
        pivot = red[rank]
        pivot[c:] = pivot[c:] * pow(int(pivot[c]), -1, _PRIME) % _PRIME
        rows = red[:, c].nonzero()[0]
        rows = rows[rows != rank, None]
        if rows.size:
            at = c + pivot[c:].nonzero()[0]
            # residues below 2^31, so the product stays under 2^62
            red[rows, at] = (red[rows, at] - red[rows, c] * pivot[at]) % _PRIME
        pivot_cols.append(c)
        rank += 1
        c += 1
    return red[:rank], pivot_cols


def _rational(u, bound):
    """(num, den) with num = den * u mod ``_PRIME`` and |num| <= bound, by
    the extended Euclidean algorithm run on every entry at once; den is
    positive, and exceeds ``bound`` where no such pair has den <= bound."""
    r0 = np.full(u.size, _PRIME, dtype=np.int64)
    r1 = u.ravel().copy()
    t0 = np.zeros(u.size, dtype=np.int64)
    t1 = np.ones(u.size, dtype=np.int64)
    active = np.flatnonzero(r1 > bound)
    while active.size:
        q = r0[active] // r1[active]
        r0[active], r1[active] = r1[active], r0[active] - q * r1[active]
        t0[active], t1[active] = t1[active], t0[active] - q * t1[active]
        active = active[r1[active] > bound]
    num = np.where(t1 < 0, -r1, r1)
    return num.reshape(u.shape), np.abs(t1).reshape(u.shape)


def _modular_basis(a):
    """The pivot columns and a kernel basis of ``a``, certified exactly, or
    None when the modular path cannot certify them.

    Returns (pivot_cols, free_cols, num, den): free column f has the
    kernel vector with den[k] at f = free_cols[k], -num[:, k] at the pivot
    columns and 0 elsewhere.  With no free column the basis is empty,
    which is exact: columns independent mod p are independent over Q.

    Otherwise every RREF entry of a free column is rationally
    reconstructed, each free column is put over a common denominator, and
    ``a[:, pivot_cols] @ num == a[:, free_cols] * den`` is checked exactly
    in int64 under a bound that rules out overflow.  Passing proves that
    each free column is a rational combination of the pivot columns
    before it; as the pivot columns are independent, the pivot columns
    over Q are then exactly the pivot columns mod p.
    """
    ech, pivot_cols = _rref_mod_p(a)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivot_cols] = False
    free = is_free.nonzero()[0]
    if not free.size:
        return pivot_cols, free, None, None
    bound = math.isqrt(_PRIME // 2)
    num, den = _rational(ech[:, free], bound)
    if (den > bound).any():
        return None
    common = np.ones(free.size, dtype=np.int64)
    for row in den[(den > 1).any(axis=1)]:
        common = common // np.gcd(common, row) * row
        if common.max() > _LCM_LIMIT:
            return None
    num = num * (common // den)
    # |entries| of both sides are at most (row sum of |a|) * max(|num|, den)
    top = float(max(np.abs(num).max(initial=0), common.max()))
    if np.abs(a, dtype=np.float64).sum(axis=1).max() * top >= 2.0**62:
        return None
    # a[:, pivot_cols] @ num over the nonzero entries of each pivot column:
    # an incidence system has N of them, and integer matmul has no BLAS
    lhs = np.zeros((a.shape[0], free.size), dtype=np.int64)
    for j, c in enumerate(pivot_cols):
        rows = np.flatnonzero(a[:, c])
        lhs[rows] += a[rows, c, None] * num[j]
    if not np.array_equal(lhs, a[:, free] * common):
        return None
    return pivot_cols, free, num, common


def integral_kernel(mat, kernel_index=0):
    """A gcd-normalized integer kernel vector of ``mat``, or None.

    The free columns are the non-pivot columns in ascending order;
    ``kernel_index`` selects which free column is set to drive the back
    substitution.  The returned vector has entry gcd 1 and a positive
    first nonzero entry, making the choice reproducible.

    The kernel is found by elimination modulo a word-size prime and
    checked exactly (``_modular_basis``); an input that check cannot
    certify is answered by Bareiss elimination instead.  Both give the
    same vector.
    """
    try:
        a = np.array(mat, dtype=np.int64)
    except OverflowError:
        return _bareiss_kernel(mat, kernel_index)
    if not a.size:
        return None
    basis = _modular_basis(a)
    if basis is None:
        return _bareiss_kernel(mat, kernel_index)
    pivot_cols, free, num, den = basis
    if not free.size:
        return None
    if not 0 <= kernel_index < free.size:
        raise ArgumentError(
            "kernel_index %d out of range 0..%d" % (kernel_index, free.size - 1)
        )
    x = [0] * a.shape[1]
    x[free[kernel_index]] = int(den[kernel_index])
    for c, v in zip(pivot_cols, num[:, kernel_index].tolist()):
        x[c] = -v
    return _primitive(x)


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


def _term_counts(oa, w):
    """{e: c_e}, the exact number of terms of the witnessed invariant with
    e = marked kets - marked bras, from one contraction over ones with
    charge 1 on the marked row."""
    _check_structure(oa, w)
    charge = np.zeros(oa.r, dtype=np.int64)
    charge[oa.rows.index(tuple(w.marked_row))] = 1
    ones = (_ones(oa.r, w.n),)
    counts = _contract(np.array(oa.rows, dtype=np.int64), ones, ones, charge, w.perms)
    return {e: counts[e][0] for e in sorted(counts)}


def _values(term_counts, r_to_n, thetas):
    """sum_e (c_e / r^n) e^{i e theta} at each theta."""
    powers = list(term_counts)
    # int / int is correctly rounded, whatever the size of r^n
    weights = np.array([term_counts[e] / r_to_n for e in powers])
    phases = np.exp(1j * np.outer(thetas, powers))
    return tuple(complex(v) for v in phases @ weights)


def theta_values(oa, w, thetas):
    """The invariant of ``from_iroa(oa, {w.marked_row: theta})`` per theta:
    sum_e (c_e / r^n) e^{i e theta} over the exact term counts c_e."""
    return _values(_term_counts(oa, w), oa.r**w.n, thetas)


def verify_witness(oa, w, theta_grid=None):
    """Certify theta-dependence of the witnessed invariant exactly.

    The structural invariants are checked exactly first.  The invariant
    of the state with phase theta on the marked row is the trigonometric
    polynomial sum_e (c_e / r^n) e^{i e theta}, with c_e exact integer
    term counts; it depends on theta iff c_e != 0 for some e != 0, and
    that is the verdict.  The values on ``theta_grid`` and their largest
    pairwise difference (``spread``) are reported alongside.
    """
    if theta_grid is None:
        theta_grid = DEFAULT_THETA_GRID
    thetas = tuple(float(t) for t in theta_grid)
    term_counts = _term_counts(oa, w)
    r_to_n = oa.r**w.n
    values = _values(term_counts, r_to_n, thetas)
    spread = max((abs(a - b) for a, b in combinations(values, 2)), default=0.0)
    return CertificationReport(
        certified=any(c != 0 for e, c in term_counts.items() if e != 0),
        theta_values=thetas,
        invariant_values=values,
        spread=spread,
        term_counts=term_counts,
        r_to_n=r_to_n,
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
