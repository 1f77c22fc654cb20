"""Polynomial local-unitary invariants.

The invariant of an N-party state for copy count n and one-line
permutations sigma_1..sigma_N of {1..n} is the full contraction

    sum  prod_{l=1}^{n}  Psi[i_l^(1), ..., i_l^(N)]
                       * conj(Psi[i_{sigma_1(l)}^(1), ..., i_{sigma_N(l)}^(N)])

over all N*n indices.  Permutations are ONE-LINE throughout: the tuple
(a_1 ... a_n) means sigma(l) = a_l.

Two engines are provided.  The dense engine contracts the full amplitude
tensor and serves as the brute-force oracle.  The sparse engine
enumerates assignments of support tuples to the n ket copies one copy at
a time, through per-(party, symbol) bitmask indexes of the support: after
each partial assignment every bra copy keeps a mask of support rows still
compatible with its pinned positions.  A level first finds each parent's
candidate rows by a semijoin (every pin of the new copy must leave its bra
some live row with the candidate's symbol), then builds masks only for
those candidates and drops any whose bra mask empties.  A bra whose
source copies are all assigned collapses to exactly one support row,
contributing its conjugate amplitude to the running product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError, ParseError
from .states import DENSE_CAP, SparseState, compose

__all__ = [
    "PermutationSet",
    "InvariantValue",
    "FactorizationReport",
    "INVARIANT_TOL",
    "DENSE_TERM_CAP",
    "invariant_dense",
    "invariant_sparse",
    "invariant",
    "purity_perms",
    "factorization_check",
    "parse_perms",
    "format_perms",
]

INVARIANT_TOL = 1e-10

# default cap on d^(N*n), the dense summand count
DENSE_TERM_CAP = 10**8

# upper bound on the bytes the sparse engine holds for one chunk of
# parents or candidates; bounds peak memory, does not affect results
_CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class PermutationSet:
    """n copies plus one one-line permutation of {1..n} per party."""

    n: int
    perms: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ArgumentError("copy count n must be >= 1")
        if not self.perms:
            raise ArgumentError("need at least one party permutation")
        clean = []
        for perm in self.perms:
            perm = tuple(int(v) for v in perm)
            if sorted(perm) != list(range(1, self.n + 1)):
                raise ArgumentError(
                    "%r is not a one-line permutation of 1..%d" % (perm, self.n)
                )
            clean.append(perm)
        object.__setattr__(self, "perms", tuple(clean))

    @property
    def num_parties(self):
        return len(self.perms)

    @classmethod
    def identity(cls, n, num_parties):
        return cls(n=n, perms=(tuple(range(1, n + 1)),) * num_parties)


@dataclass(frozen=True)
class InvariantValue:
    """Invariant value plus provenance.  ``term_count`` counts the
    surviving complete assignments on the sparse path; dense runs
    report None."""

    value: complex
    term_count: object
    engine: str


@dataclass(frozen=True)
class FactorizationReport:
    left: complex
    right: complex
    deviation: float
    passed: bool


def _dense_tensor(state, dense_cap):
    if isinstance(state, SparseState):
        return state.dense(cap=dense_cap)
    tensor = np.asarray(state, dtype=complex)
    if tensor.ndim < 1 or len(set(tensor.shape)) != 1:
        raise ArgumentError("dense state must be a (d,)*N tensor")
    return tensor


def invariant_dense(state, p, cap=DENSE_TERM_CAP, dense_cap=DENSE_CAP):
    """Brute-force contraction of the full amplitude tensor.

    ``state`` may be a SparseState or a dense (d,)*N array.  The summand
    count d^(N*n) must stay at or below ``cap``.
    """
    tensor = _dense_tensor(state, dense_cap)
    num_parties = tensor.ndim
    if p.num_parties != num_parties:
        raise ArgumentError(
            "permutation set covers %d parties, state has %d"
            % (p.num_parties, num_parties)
        )
    d = tensor.shape[0]
    n = p.n
    if d ** (num_parties * n) > cap:
        raise CapacityError(
            "dense contraction has %d summands, cap is %d"
            % (d ** (num_parties * n), cap)
        )
    conj = tensor.conj()
    # index id of party j, copy l is j*n + l
    operands = []
    for l in range(n):
        operands.append(tensor)
        operands.append([j * n + l for j in range(num_parties)])
    for l in range(n):
        operands.append(conj)
        operands.append([j * n + (p.perms[j][l] - 1) for j in range(num_parties)])
    operands.append([])
    value = np.einsum(*operands, optimize=True)
    return InvariantValue(value=complex(value), term_count=None, engine="dense")


def _greedy_order(deps, n):
    # next copy is the one completing the most bras, ties to the smallest
    order = []
    assigned = set()
    while len(order) < n:
        best = None
        best_score = -1
        for m in range(n):
            if m in assigned:
                continue
            score = sum(1 for l in range(n) if deps[l] - assigned == {m})
            if score > best_score:
                best = m
                best_score = score
        order.append(best)
        assigned.add(best)
    return order


def invariant_sparse(state, p):
    """Pruned enumeration over support^n ket assignments.

    Cost is governed by the support size r, the local dimension d and the
    copy count n, never by d^N.  With w = ceil(r/64) mask words, a level
    costs parents x pins x (d*w + r) word and byte operations to find
    candidates, plus candidates x n x w to build and check their masks;
    a pin is one party of the copy assigned at that level.  Parents and
    candidates are processed in chunks of at most ``_CHUNK_BYTES`` bytes.
    The result is deterministic: assignments are visited in lexicographic
    order of (copy order, support index) and partial sums accumulate in
    that order, whatever the chunking.
    """
    if not isinstance(state, SparseState):
        raise ArgumentError("sparse engine needs a SparseState")
    num_parties = state.num_parties
    if p.num_parties != num_parties:
        raise ArgumentError(
            "permutation set covers %d parties, state has %d"
            % (p.num_parties, num_parties)
        )
    items = sorted(state.amplitudes.items())
    rows = np.array([k for k, _ in items], dtype=np.int64)
    amp = np.array([v for _, v in items], dtype=complex)
    prod = _sparse_terms(rows, amp, amp.conj(), state.local_dim, p)
    return InvariantValue(
        value=complex(prod.sum()), term_count=int(prod.size), engine="sparse"
    )


def _sparse_terms(rows, ket, bra, local_dim, p):
    """One product per surviving assignment, in visit order: ``ket[i]`` per
    ket copy on support row i, times ``bra[i]`` per bra copy collapsing to i."""
    r, num_parties = rows.shape
    n = p.n
    nwords = (r + 63) // 64

    # sig[j][l]: ket copy feeding party j of bra copy l (all 0-based)
    sig = [[p.perms[j][l] - 1 for l in range(n)] for j in range(num_parties)]

    # support bitmask per (party, symbol)
    bits = [[[0] * nwords for _ in range(local_dim)] for _ in range(num_parties)]
    for i in range(r):
        for j in range(num_parties):
            bits[j][rows[i, j]][i >> 6] |= 1 << (i & 63)
    masks = np.array(bits, dtype=np.uint64)

    pins = [[] for _ in range(n)]
    for j in range(num_parties):
        for l in range(n):
            pins[sig[j][l]].append((j, l))
    deps = [frozenset(sig[j][l] for j in range(num_parties)) for l in range(n)]
    order = _greedy_order(deps, n)
    level_of = {m: t for t, m in enumerate(order)}
    complete_at = [max(level_of[m] for m in deps[l]) for l in range(n)]

    prod = np.ones(1, dtype=ket.dtype)
    bms = np.full((1, n, nwords), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    # bytes per parent: one pin's (d, nwords) word AND and (d,) table, then
    # the (r,) candidate row and its gathered pin column
    parent_step = max(1, _CHUNK_BYTES // (local_dim * (8 * nwords + 1) + 2 * r))
    cand_step = max(1, _CHUNK_BYTES // (8 * n * nwords))

    for t, m in enumerate(order):
        pinned = [l for _, l in pins[m]]
        twice = sorted({l for l in pinned if pinned.count(l) > 1})
        finishing = [l for l in range(n) if complete_at[l] == t]
        out_prod, out_bms = [], []
        for start in range(0, prod.size, parent_step):
            pb = bms[start : start + parent_step]
            # semijoin: row i is a candidate when every pin (j, l) leaves
            # bra l a live row with symbol rows[i, j] at party j
            ok = np.ones((pb.shape[0], r), dtype=bool)
            for j, l in pins[m]:
                ok &= (pb[:, l, None, :] & masks[j][None]).any(axis=2)[:, rows[:, j]]
            cand_parent, cand_row = np.nonzero(ok)
            for c in range(0, cand_parent.size, cand_step):
                ci, ri = cand_parent[c : c + cand_step], cand_row[c : c + cand_step]
                cb = pb[ci]
                for j, l in pins[m]:
                    cb[:, l] &= masks[j][rows[ri, j]]
                if twice:  # the semijoin is exact for a bra pinned once
                    alive = (cb[:, twice] != 0).any(axis=2).all(axis=1)
                    cb, ci, ri = cb[alive], ci[alive], ri[alive]
                cp = prod[start + ci] * ket[ri]
                for l in finishing:
                    single = cb[:, l, :]
                    widx = np.argmax(single != 0, axis=1)
                    word = np.take_along_axis(single, widx[:, None], axis=1)[:, 0]
                    # a completed mask holds exactly one bit, a power of two,
                    # so the float64 exponent recovers the bit position exactly
                    expo = np.frexp(word.astype(np.float64))[1]
                    rowidx = widx * 64 + (expo - 1)
                    cp = cp * bra[rowidx]
                out_prod.append(cp)
                if t < n - 1:  # nothing reads the last level's masks
                    out_bms.append(cb)
        # never empty: giving every copy the same support row always survives
        prod = np.concatenate(out_prod) if len(out_prod) > 1 else out_prod[0]
        if t < n - 1:
            bms = np.concatenate(out_bms) if len(out_bms) > 1 else out_bms[0]
    return prod


def invariant(state, p, cap=DENSE_TERM_CAP):
    """Engine auto-selection: sparse when support^n < d^(N*n), else dense."""
    if not isinstance(state, SparseState):
        return invariant_dense(state, p, cap=cap)
    lhs = state.support_size**p.n
    rhs = state.local_dim ** (state.num_parties * p.n)
    if lhs < rhs:
        return invariant_sparse(state, p)
    return invariant_dense(state, p, cap=cap)


def purity_perms(subset, num_parties):
    """The n=2 swap pattern whose invariant equals Tr(rho_subset^2)."""
    parties = sorted(int(v) for v in subset)
    if not parties or len(set(parties)) != len(parties):
        raise ArgumentError("subset must be non-empty without repeats")
    if parties[0] < 1 or parties[-1] > num_parties or len(parties) >= num_parties:
        raise ArgumentError("subset must be a proper subset of 1..%d" % num_parties)
    chosen = set(parties)
    perms = tuple(
        (2, 1) if j in chosen else (1, 2) for j in range(1, num_parties + 1)
    )
    return PermutationSet(n=2, perms=perms)


def factorization_check(s1, s2, p, tol=INVARIANT_TOL):
    """Compare the composite invariant with the product of the parts."""
    if s1.num_parties != s2.num_parties:
        raise ArgumentError(
            "party counts differ: %d vs %d" % (s1.num_parties, s2.num_parties)
        )
    left = invariant(compose(s1, s2), p).value
    right = invariant(s1, p).value * invariant(s2, p).value
    deviation = abs(left - right)
    return FactorizationReport(
        left=left, right=right, deviation=deviation, passed=deviation <= tol
    )


def parse_perms(text):
    """Read the permutation file format: first line ``n N``, then N lines
    of n space-separated integers in 1..n (one-line notation)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty permutation file")
    try:
        header = [int(v) for v in lines[0]]
    except ValueError:
        raise ParseError("bad header %r, expected 'n N'" % (lines[0],))
    if len(header) != 2:
        raise ParseError("bad header %r, expected 'n N'" % (lines[0],))
    n, num_parties = header
    if len(lines) - 1 != num_parties:
        raise ParseError(
            "expected %d permutation lines, found %d" % (num_parties, len(lines) - 1)
        )
    perms = []
    for fields in lines[1:]:
        try:
            perm = tuple(int(v) for v in fields)
        except ValueError:
            raise ParseError("non-integer permutation entry in %r" % (fields,))
        perms.append(perm)
    try:
        return PermutationSet(n=n, perms=tuple(perms))
    except ArgumentError as exc:
        raise ParseError(str(exc))


def format_perms(p):
    lines = ["%d %d" % (p.n, p.num_parties)]
    for perm in p.perms:
        lines.append(" ".join(str(v) for v in perm))
    return "\n".join(lines) + "\n"
