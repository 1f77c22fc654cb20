"""Witness synthesis for theta-dependent invariant families.

The pipeline follows the constructive argument that an orthogonal array
with more rows than independent symbol-count constraints carries a
non-constant invariant family:

1. ``build_system``: the (N*d) x r 0/1 incidence matrix whose (party,
   symbol) row marks the array rows carrying that symbol at that party.
2. ``integral_kernel``: an exact integer kernel vector K of the system;
   N - 1 of the N*d equations are redundant, so a nonzero K exists
   whenever r > N*d - (N-1).  For an array of strength 2 the rank is
   exactly N*(d-1) + 1, so the condition is an iff: an array that meets
   the Rao bound r >= N*(d-1) + 1 with equality has no witness, and
   ``find_witness`` returns None without building the system.  K is
   found on the first N*d + kernel_index + 1 columns by forward
   elimination in integers, each updated row divided by its content, up
   to the selected free column; its few nonzero entries are
   back-substituted in Python integers.
3. ``split_multisets``: X collects rows with multiplicity max(K, 0),
   Y with max(-K, 0); the kernel conditions force equal per-position
   symbol counts, hence |X| = |Y|.
4. ``build_permutations``: one-line permutations sigma_nu with
   (y_l)_nu = (x_{sigma_nu(l)})_nu, pairing equal symbols by ascending
   copy index.
5. A marked row with K = K_m != 0 receives the phase theta.  The support
   does not depend on theta, so one sparse contraction counts the terms
   of the invariant per power e of e^{i theta}, exactly: the invariant is
   sum_e (c_e / r^n) e^{i e theta}.  It depends on theta, and so separates
   infinitely many classes, iff c_e != 0 for some e != 0, and every
   witness carries such a term, of net charge K_m (``verify_witness``).

All arithmetic is exact integer arithmetic; only the reported values on
a theta grid are floating point.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ArgumentError, WitnessError
from .invariants import PermutationSet, _contract, _ones
from .oa import _integer, check_strength, require_distinct_rows

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
# elimination entries below this bound are int64: two multiply to under 2^62
_WORD = 2**31


@dataclass(frozen=True, eq=False)
class Witness:
    """Integral kernel vector plus the derived multisets and permutations.

    ``rows`` is the source array's table; ``kernel[i]`` is the K value of
    ``rows[i]``.  ``X`` and ``Y`` list rows, as tuples of ints, with
    multiplicities from the positive and negative kernel parts;
    ``marked_row`` carries the theta phase during certification.
    """

    rows: np.ndarray
    kernel: tuple
    X: tuple
    Y: tuple
    n: int
    perms: PermutationSet
    marked_row: tuple


@dataclass(frozen=True)
class CertificationReport:
    """The exact term counts and the invariant's values on a theta grid.

    ``term_counts`` maps each power e of e^{i theta} to its exact term
    count c_e, and ``r_to_n`` is r^n, so the invariant at theta is
    sum_e (c_e / r^n) e^{i e theta}.  ``certified`` is always True, as
    c_{K_m} >= 1 (``verify_witness``).  ``spread`` is the largest
    difference between the values at two grid points.
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
    require_distinct_rows(oa)
    mat = np.zeros((oa.num_parties * oa.local_dim, oa.r), dtype=np.int64)
    mat[np.arange(oa.num_parties) * oa.local_dim + oa.rows, np.arange(oa.r)[:, None]] = 1
    return mat


def _primitive(ints):
    """Divide out the gcd and make the first nonzero entry positive."""
    g = math.gcd(*ints)
    assert g > 0
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _wide(a):
    """Whether ``a`` has an entry of magnitude ``_WORD`` or more."""
    return a.max() >= _WORD or a.min() <= -_WORD


def _echelon(a, stop):
    """Forward integer elimination of ``a`` up to its ``stop``-th free column.

    Returns (rows, pivot_cols, free_cols): the echelon rows, the pivot
    column of each, and the free columns met, at most ``stop`` of them.
    The columns are visited from the left; the first row at or below the
    rank that is nonzero there is the pivot row p, and every row below it
    that is nonzero there becomes p[c] * row - row[c] * p and is divided
    by the gcd of its entries.  The entries are int64 while they stay
    below ``_WORD``, Python ints from the first update that reaches it.
    """
    a = a.astype(object) if a.dtype == object or _wide(a) else a.copy()
    m, cols = a.shape
    pivot_cols = []
    free_cols = []
    for c in range(cols):
        rank = len(pivot_cols)
        hit = rank + a[rank:, c].nonzero()[0]
        if not hit.size:
            free_cols.append(c)
            if len(free_cols) == stop:
                break
            continue
        p = int(hit[0])
        if p != rank:
            # the row moved to p is zero in column c
            a[[rank, p]] = a[[p, rank]]
        below = hit[1:]
        if below.size:
            block = a[below, c:]
            # entries below _WORD keep both products under 2^62
            block = block * a[rank, c] - block[:, :1] * a[rank, c:]
            block //= np.maximum(np.gcd.reduce(block, axis=1), 1)[:, None]
            if a.dtype != object and _wide(block):
                a = a.astype(object)
            a[below, c:] = block
        pivot_cols.append(c)
    return a[: len(pivot_cols)], pivot_cols, free_cols


def integral_kernel(mat, kernel_index=0):
    """A gcd-normalized integer kernel vector of ``mat``, or None.

    The free columns are the non-pivot columns in ascending order;
    ``kernel_index`` selects which free column is set to drive the back
    substitution.  The returned vector has entry gcd 1 and a positive
    first nonzero entry, making the choice reproducible.

    Only the first min(cols, rows + kernel_index + 1) columns are
    eliminated, and the vector is padded with zeros.  The rank is at most
    rows, so this prefix holds kernel_index + 1 free columns, and they are
    the first free columns of the whole matrix; the kernel vector of a
    free column lies on that column and the pivots before it, all inside
    the prefix.  So a ``kernel_index`` out of range, or a matrix without a
    kernel, shows only when the prefix is the whole matrix, and the count
    the error names is exact.

    The prefix is eliminated in integers (``_echelon``) up to the selected
    free column.  Each row operation replaces a row by an integer
    combination with a nonzero coefficient on it, and dividing a row by
    its content scales it, so the span over Q of the rows at and below
    each pivot is kept: the pivot columns, the free columns and the
    vector are the ones over Q, those fraction-free (Bareiss) elimination
    gives.  The vector is back-substituted exactly, in Python integers,
    over its nonzero entries.
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
    ech, pivot_cols, free_cols = _echelon(a[:, :width], kernel_index + 1)
    if not free_cols:
        return None
    if kernel_index >= len(free_cols):
        raise ArgumentError(
            "kernel_index %d out of range 0..%d" % (kernel_index, len(free_cols) - 1)
        )
    # x holds the nonzero entries; each pivot solves row . x = 0 for x[c]
    x = {free_cols[-1]: 1}
    for row, c in zip(ech[::-1], reversed(pivot_cols)):
        s = sum(int(row[j]) * v for j, v in x.items())
        if s:
            pivot = int(row[c])
            g = math.gcd(s, pivot)
            x = {j: v * (pivot // g) for j, v in x.items()}
            x[c] = -s // g
    vec = [0] * width
    for j, v in x.items():
        vec[j] = v
    return _primitive(vec) + (0,) * (cols - width)


def _kernel_rows(rows, kernel):
    """(row as a tuple of ints, K) for each row of ``rows`` with K != 0."""
    nonzero = [i for i, v in enumerate(kernel) if v]
    return zip(map(tuple, rows[nonzero].tolist()), (kernel[i] for i in nonzero))


def split_multisets(kernel, oa):
    """Rows with positive K go to X, negated negative parts to Y."""
    values = [_integer(v, "kernel entry %r") for v in kernel]
    if len(values) != oa.r:
        raise ArgumentError("kernel length %d != row count %d" % (len(values), oa.r))
    if all(v == 0 for v in values):
        raise ArgumentError("kernel vector is zero")
    x_rows = []
    y_rows = []
    for row, v in _kernel_rows(oa.rows, values):
        if v > 0:
            x_rows.extend([row] * v)
        else:
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

    The system M of a strength-2 array with N >= 2 parties has
    M M^T = (r/d) I + (r/d^2) (J_N - I_N) (x) J_d, of rank N(d-1) + 1, so
    at r = N(d-1) + 1 (the Rao bound met with equality) M has full column
    rank: None is returned without building or eliminating M.  Two equal
    rows would be two equal columns of M, so an array with a repeated row
    never takes this exit and ``build_system`` still refuses it; a
    negative ``kernel_index`` still raises.

    The marked row maximizes |K|, ties broken by lexicographically
    smallest row.
    """
    num_parties, d = oa.num_parties, oa.local_dim
    if (
        kernel_index >= 0
        and num_parties >= 2
        and oa.r == num_parties * (d - 1) + 1
        and check_strength(oa, 2).holds
    ):
        return None
    kern = integral_kernel(build_system(oa), kernel_index=kernel_index)
    if kern is None:
        return None
    x_rows, y_rows = split_multisets(kern, oa)
    perms = build_permutations(x_rows, y_rows)
    top = max(abs(v) for v in kern)
    marked = min(row for row, v in _kernel_rows(oa.rows, kern) if abs(v) == top)
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
    if not np.array_equal(w.rows, oa.rows):
        raise WitnessError("witness rows do not match the array")
    if len(w.kernel) != oa.r:
        raise WitnessError("kernel length mismatch")
    if all(v == 0 for v in w.kernel):
        raise WitnessError("kernel vector is zero")
    if len(w.X) != w.n or len(w.Y) != w.n or w.n < 1:
        raise WitnessError("|X| and |Y| must both equal n >= 1")
    if Counter(w.X) == Counter(w.Y):
        raise WitnessError("X equals Y as multisets")
    require_distinct_rows(oa)
    # kernel conditions, exact: the K of each (party, symbol) sums to 0
    totals = Counter()
    for row, v in _kernel_rows(oa.rows, w.kernel):
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
    if tuple(w.marked_row) not in dict(_kernel_rows(oa.rows, w.kernel)):
        raise WitnessError("marked row must carry a nonzero kernel value")


def _term_counts(oa, w):
    """{e: c_e}, the exact number of terms of the witnessed invariant with
    e = marked kets - marked bras, from one contraction over ones with
    charge 1 on the marked row, checked to hold the witness's own term."""
    _check_structure(oa, w)
    charge = (oa.rows == w.marked_row).all(axis=1).astype(np.int64)
    ones = (_ones(oa.r, w.n),)
    counts = _contract(oa.rows, ones, ones, charge, w.perms)
    own = w.kernel[charge.argmax()]
    if counts.get(own, (0,))[0] < 1:
        raise WitnessError("missing the witness's own term, net charge K_m = %d" % own)
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
    every witness has such a term.  Give ket copy l the row x_l: bra copy
    l then reads y_l, a support row, so this is a term, of net charge
    K_m != 0, the marked row's copies in X less those in Y.  Every term
    counts +1, so nothing cancels it: c_{K_m} >= 1, which the contraction
    is checked against.  The values on ``theta_grid`` and their largest
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
        certified=True,
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
            for row, v in _kernel_rows(w.rows, w.kernel)
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
