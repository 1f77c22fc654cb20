"""Independent references the benchmark checks luinv's results against.

Closed forms come from the paper's families; the orthogonal-array and
witness checks are written from the definitions with numpy and share no
code with luinv.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def psi3d_form(d, theta):
    """Cyclic n=3 invariant of the psi3d family."""
    return (d**4 + 6 * (d - 1) * (d - 2) * (math.cos(theta) - 1)) / d**6


def psi5d_form(d, theta):
    """Five-party triple invariant of the psi5d family."""
    return (d**4 + 6 * (d - 1) * (d - 2) * (math.cos(theta) - 1)) / d**8


def psi3d_rows(d):
    return [(j, k, (j + k) % d) for j in range(d) for k in range(d)]


def psi5d_rows(d):
    return [
        (j, k, (j + k) % d, (l + k) % d, l)
        for j in range(d)
        for k in range(d)
        for l in range(d)
    ]


def reed_solomon_rows(p):
    """Doubly extended Reed-Solomon code of dimension 2 over GF(p).

    The codeword of a + b x is its value at every x in GF(p), then b at
    infinity.  Two codewords agree in at most one position, so the p^2
    rows form an IrOA(p^2, p+1, p, 2) of index 1.
    """
    return [
        tuple((a + b * x) % p for x in range(p)) + (b,)
        for a in range(p)
        for b in range(p)
    ]


def _codes(table, cols, d):
    code = np.zeros(len(table), dtype=np.int64)
    for c in cols:
        code = code * d + table[:, c]
    return code


def strength_index(rows, d, k):
    """lambda when every k columns hold each k-tuple lambda times, else 0."""
    table = np.array(rows, dtype=np.int64)
    r, num_parties = table.shape
    lam, rem = divmod(r, d**k)
    if rem or not lam:
        return 0
    for cols in itertools.combinations(range(num_parties), k):
        counts = np.bincount(_codes(table, cols, d), minlength=d**k)
        if (counts != lam).any():
            return 0
    return lam


def irredundant(rows, d, k):
    """Every N-k columns keep the rows pairwise distinct."""
    table = np.array(rows, dtype=np.int64)
    r, num_parties = table.shape
    for cols in itertools.combinations(range(num_parties), num_parties - k):
        if np.unique(_codes(table, cols, d)).size != r:
            return False
    return True


def incidence(rows, d):
    """The (N d) x r 0/1 matrix: row nu*d + s marks rows with symbol s at nu."""
    table = np.array(rows, dtype=np.int64)
    r, num_parties = table.shape
    mat = np.zeros((num_parties * d, r), dtype=np.int64)
    for nu in range(num_parties):
        mat[nu * d + table[:, nu], np.arange(r)] = 1
    return mat


def kernel_dim(rows, d):
    """Dimension of the symbol-count kernel; 0 means no witness exists."""
    mat = incidence(rows, d)
    return mat.shape[1] - int(np.linalg.matrix_rank(mat.astype(float)))


def witness_problems(rows, d, w):
    """Structural defects of a witness, checked from its definition."""
    problems = []
    kern = np.array(w.kernel, dtype=np.int64)
    if len(w.rows) != len(rows) or any(tuple(a) != tuple(b) for a, b in zip(w.rows, rows)):
        problems.append("rows differ from the array")
        return problems
    if not kern.any():
        problems.append("zero kernel")
    if (incidence(rows, d) @ kern).any():
        problems.append("kernel misses a count condition")
    if w.n != int(np.maximum(kern, 0).sum()) or w.n != int(np.maximum(-kern, 0).sum()):
        problems.append("n differs from the kernel's positive or negative mass")
    want_x = sorted(tuple(row) for row, v in zip(rows, kern) for _ in range(max(v, 0)))
    want_y = sorted(tuple(row) for row, v in zip(rows, kern) for _ in range(max(-v, 0)))
    if sorted(map(tuple, w.X)) != want_x or sorted(map(tuple, w.Y)) != want_y:
        problems.append("X/Y differ from the kernel's sign parts")
    for nu, perm in enumerate(w.perms.perms):
        if sorted(perm) != list(range(1, w.n + 1)):
            problems.append("party %d permutation is not one-line" % (nu + 1))
        elif any(w.Y[l][nu] != w.X[perm[l] - 1][nu] for l in range(w.n)):
            problems.append("party %d permutation does not connect X to Y" % (nu + 1))
    marked = dict(zip(map(tuple, rows), kern.tolist())).get(tuple(w.marked_row), 0)
    if marked == 0:
        problems.append("marked row has zero kernel value")
    return problems
