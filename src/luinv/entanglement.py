"""Reduced density matrices, purities, entropies and uniformity checks.

Parties are 1-indexed throughout.  A bipartition is described by a
permutation sigma of [N] and a split point k; the matricization collects
the parties sigma(1..k) into the row index and sigma(k+1..N) into the
column index, both flattened row-major in the listed order.  Then
rho_S = M M^dagger for any sigma placing S first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError
from .states import DENSE_CAP

__all__ = [
    "Matricization",
    "ReducedDensityMatrix",
    "UniformityReport",
    "UNIFORMITY_TOL",
    "matricize",
    "reduced_density",
    "purity",
    "entropy",
    "is_k_uniform",
    "is_ame",
]

UNIFORMITY_TOL = 1e-10


@dataclass(frozen=True)
class Matricization:
    sigma: tuple
    k: int
    matrix: np.ndarray


@dataclass(frozen=True)
class ReducedDensityMatrix:
    subset: tuple
    matrix: np.ndarray


@dataclass(frozen=True)
class UniformityReport:
    """Outcome of a k-uniformity check over all size-k subsets."""

    k: int
    passed: bool
    max_deviation: float
    worst_subset: tuple

    def as_dict(self):
        return {
            "k": self.k,
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "worst_subset": list(self.worst_subset),
        }


def matricize(s, sigma, k, cap=DENSE_CAP):
    """Reshape the state into a d^k x d^(N-k) matrix along ``sigma``.

    ``sigma`` lists all parties 1..N; parties sigma[:k] index rows and
    sigma[k:] index columns, each flattened row-major in listed order.
    """
    n = s.num_parties
    d = s.local_dim
    sigma = tuple(int(p) for p in sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ArgumentError("sigma %r is not a permutation of 1..%d" % (sigma, n))
    if not 0 < k < n:
        raise ArgumentError("split k=%d out of range 1..%d" % (k, n - 1))
    if d**n > cap:
        raise CapacityError("matricization needs %d entries, cap is %d" % (d**n, cap))
    mat = np.zeros((d**k, d ** (n - k)), dtype=complex)
    row_parties = [p - 1 for p in sigma[:k]]
    col_parties = [p - 1 for p in sigma[k:]]
    for key, value in s.amplitudes.items():
        row = 0
        for p in row_parties:
            row = row * d + key[p]
        col = 0
        for p in col_parties:
            col = col * d + key[p]
        mat[row, col] = value
    return Matricization(sigma=sigma, k=k, matrix=mat)


def _subset_tuple(s, subset):
    parties = tuple(sorted(int(p) for p in subset))
    n = s.num_parties
    if len(set(parties)) != len(parties):
        raise ArgumentError("subset %r has repeats" % (subset,))
    if not parties or len(parties) >= n:
        raise ArgumentError("subset must be non-empty and proper")
    if parties[0] < 1 or parties[-1] > n:
        raise ArgumentError("parties are 1-indexed in 1..%d" % n)
    return parties


def reduced_density(s, subset):
    """Reduced density matrix of the given party subset (1-indexed)."""
    parties = _subset_tuple(s, subset)
    rest = [p for p in range(1, s.num_parties + 1) if p not in parties]
    m = matricize(s, parties + tuple(rest), len(parties)).matrix
    return ReducedDensityMatrix(subset=parties, matrix=m @ m.conj().T)


def purity(s, subset):
    """Tr(rho_S^2), via the Frobenius norm of the Hermitian rho_S."""
    rho = reduced_density(s, subset).matrix
    return float(np.vdot(rho, rho).real)


def entropy(s, subset, base=None):
    """Von Neumann entropy of rho_S in the given base (default d)."""
    if base is None:
        base = s.local_dim
    if not base > 1:
        raise ArgumentError("entropy base must be > 1")
    rho = reduced_density(s, subset).matrix
    eigvals = np.linalg.eigvalsh(rho)
    total = 0.0
    for w in eigvals:
        if w > 1e-15:
            total -= w * math.log(w)
    return total / math.log(base)


def is_k_uniform(s, k, tol=UNIFORMITY_TOL):
    """Check whether every size-k reduction equals I / d^k.

    Only the C(N, k) subsets of size exactly k are checked; smaller
    subsets follow by partial trace.  Reports the worst subset and its
    max-entry deviation.
    """
    n = s.num_parties
    if not 1 <= k <= n // 2:
        raise ArgumentError("k=%d out of range 1..%d" % (k, n // 2))
    # compare in place: nothing d^k x d^k is allocated before matricize
    # has applied its d^N cap
    diag = 1 / s.local_dim**k
    worst = None
    worst_dev = -1.0
    for subset in itertools.combinations(range(1, n + 1), k):
        rho = reduced_density(s, subset).matrix
        rho[np.diag_indices_from(rho)] -= diag
        dev = float(np.abs(rho).max())
        if dev > worst_dev:
            worst_dev = dev
            worst = subset
    return UniformityReport(
        k=k, passed=worst_dev <= tol, max_deviation=worst_dev, worst_subset=worst
    )


def is_ame(s, tol=UNIFORMITY_TOL):
    """k-uniformity at the maximal k = floor(N/2)."""
    if s.num_parties < 2:
        raise ArgumentError("AME check needs at least two parties")
    return is_k_uniform(s, s.num_parties // 2, tol=tol)
