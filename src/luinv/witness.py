"""Witness synthesis for theta-dependent invariant families.

The pipeline follows the constructive argument that an orthogonal array
with more rows than independent symbol-count constraints carries a
non-constant invariant family:

1. ``build_system``: the (N*d) x r 0/1 incidence matrix whose (party,
   symbol) row marks the array rows carrying that symbol at that party.
2. ``integral_kernel``: an exact integer kernel vector K of the system;
   N - 1 of the N*d equations are redundant, so a nonzero K exists
   whenever r > N*d - (N-1).  K is found on the first N*d +
   kernel_index + 1 columns, brought to reduced row echelon form modulo
   a word-size prime by one Gauss-Jordan pass; only the selected free
   column and those before it are rationally reconstructed and checked
   exactly in Python integers.  An input the check cannot certify is
   answered by fraction-free (Bareiss) elimination of the same columns,
   which gives the same K.
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
    _require_distinct(oa)
    rows = np.array(oa.rows, dtype=np.int64).reshape(oa.r, oa.num_parties)
    mat = np.zeros((oa.num_parties * oa.local_dim, oa.r), dtype=np.int64)
    mat[np.arange(oa.num_parties) * oa.local_dim + rows, np.arange(oa.r)[:, None]] = 1
    return mat


def _require_distinct(oa):
    if len(set(oa.rows)) != len(oa.rows):
        raise DuplicateRowError("array rows are not pairwise distinct")


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
    """Reduced row echelon form of ``a`` modulo ``_PRIME``, by Gauss-Jordan
    elimination in one pass.

    Returns (rows, pivot_cols): the rank nonzero rows, each with a 1 in
    its pivot column and 0 in the others, and those columns in ascending
    order.  The columns are visited from the left; at each pivot the pivot
    row is scaled, and the pivot column is cleared in every other row
    nonzero there, on the columns from the pivot on.
    """
    red = a % _PRIME
    m, cols = red.shape
    pivot_cols = []
    rank = 0
    for c in range(cols):
        hit = red[rank:, c].nonzero()[0]
        if not hit.size:
            continue
        p = rank + int(hit[0])
        if p != rank:
            red[[rank, p]] = red[[p, rank]]
        pivot = red[rank, c:]
        pivot[:] = pivot * pow(int(pivot[0]), -1, _PRIME) % _PRIME
        rows = red[:, c].nonzero()[0]
        rows = rows[rows != rank]
        # residues below 2^31, so the product stays under 2^62
        red[rows, c:] = (red[rows, c:] - red[rows, c : c + 1] * pivot) % _PRIME
        pivot_cols.append(c)
        rank += 1
        if rank == m:
            break
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


def _certified_kernel(a, ech, pivot_cols, free):
    """The primitive kernel vector of ``a`` driven by the last of the free
    columns ``free`` of its RREF ``ech`` mod p, or None when the modular
    path cannot certify it.

    Each of these columns' entries is rationally reconstructed, put over
    its own least common denominator, and checked exactly, in Python
    integers, against the pivot columns: den * a[:, f] == a[:, pivots] @ num.
    """
    bound = math.isqrt(_PRIME // 2)
    num, den = _rational(ech[:, free], bound)
    if (den > bound).any():
        return None
    pivots = np.array(pivot_cols, dtype=np.intp)
    for f, col_num, col_den in zip(free.tolist(), num.T, den.T):
        on = col_num.nonzero()[0]
        common = math.lcm(*col_den[on].tolist())
        x = col_num[on].astype(object) * (common // col_den[on].astype(object))
        lhs = a[:, pivots[on]].astype(object) @ x
        if not np.array_equal(lhs, a[:, f].astype(object) * common):
            return None
    vec = np.zeros(a.shape[1], dtype=object)
    vec[f] = common
    vec[pivots[on]] = -x
    return _primitive(vec.tolist())


def integral_kernel(mat, kernel_index=0):
    """A gcd-normalized integer kernel vector of ``mat``, or None.

    The free columns are the non-pivot columns in ascending order;
    ``kernel_index`` selects which free column is set to drive the back
    substitution.  The returned vector has entry gcd 1 and a positive
    first nonzero entry, making the choice reproducible.

    Only the first min(cols, rows + kernel_index + 1) columns are
    eliminated, and the vector is padded with zeros.  The rank is at most
    rows, so this prefix holds kernel_index + 1 free columns, and they are
    the first free columns of the whole matrix; the RREF vector of a free
    column lies on that column and the pivots before it, all inside the
    prefix.  So a ``kernel_index`` out of range, or a matrix without a
    kernel, shows only when the prefix is the whole matrix.

    The prefix is brought to reduced row echelon form modulo a word-size
    prime (``_rref_mod_p``); with no free column mod p there is no kernel,
    as columns independent mod p are independent over Q.  Otherwise the
    free columns up to f, the one selected, are certified
    (``_certified_kernel``): each lies in the Q-span of the pivot columns
    before it, which are independent over Q, so over Q the pivot and free
    columns up to f are those mod p and f's vector is the one
    Bareiss elimination gives.  A ``kernel_index`` out of range is raised
    after every free column is certified, so the count it names is exact.
    Inputs the check cannot certify (a denominator past sqrt(p/2), pivots
    that differ mod p, entries past int64) go to Bareiss elimination of
    the same prefix.
    """
    if kernel_index < 0:
        raise ArgumentError("kernel_index %d is negative" % kernel_index)
    try:
        a = np.asarray(mat, dtype=np.int64)
    except OverflowError:
        a = np.array(mat, dtype=object)
    if not a.size:
        return None
    rows, cols = a.shape
    width = min(cols, rows + kernel_index + 1)
    head = a[:, :width]
    kern = None
    if a.dtype == np.int64:
        ech, pivot_cols = _rref_mod_p(head)
        free = np.delete(np.arange(width), pivot_cols)
        if not free.size:
            return None
        kern = _certified_kernel(head, ech, pivot_cols, free[: kernel_index + 1])
        if kern is not None and kernel_index >= free.size:
            raise ArgumentError(
                "kernel_index %d out of range 0..%d" % (kernel_index, free.size - 1)
            )
    if kern is None:
        kern = _bareiss_kernel(head, kernel_index)
    return None if kern is None else kern + (0,) * (cols - width)


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
    _require_distinct(oa)
    # kernel conditions, exact: the K of each (party, symbol) sums to 0
    totals = Counter()
    for row, v in zip(oa.rows, w.kernel):
        if v:
            for nu, sym in enumerate(row):
                totals[nu, sym] += v
    violated = [key for key, total in totals.items() if total]
    if violated:
        nu, sym = min(violated)
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
