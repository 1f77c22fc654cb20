"""Polynomial local-unitary invariants.

The invariant of an N-party state for copy count n and one-line
permutations sigma_1..sigma_N of {1..n} is the full contraction

    sum  prod_{l=1}^{n}  Psi[i_l^(1), ..., i_l^(N)]
                       * conj(Psi[i_{sigma_1(l)}^(1), ..., i_{sigma_N(l)}^(N)])

over all N*n indices.  Permutations are ONE-LINE throughout: the tuple
(a_1 ... a_n) means sigma(l) = a_l.

Two engines are provided.  The dense engine contracts the full amplitude
tensor and serves as the brute-force oracle.  The sparse engine is
variable elimination over 2n tables, one per ket or bra copy, each
holding the r support rows on that copy's N index labels.  Every label
sits on exactly two tables, so a sort-merge join of two tables sums the
labels they share out at once.  A join's size is known from its merge
counts before it is built; one that would hold over ``_JOIN_BYTES`` bytes
is built and grouped in runs that fit, so memory follows the output.
One plan carries a tuple of value arrays, so the amplitudes and the ones
that count terms share every join.  A per-row charge splits the sum by
the net charge of its terms, which counts each power of a marked phase
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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

# upper bound on the bytes one join of the sparse engine may hold
_JOIN_BYTES = 1 << 30


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
    count d^(N*n) must stay at or below ``cap``; the contraction path is
    planned greedily with no intermediate over ``dense_cap`` entries.
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
    value = np.einsum(*operands, optimize=("greedy", dense_cap))
    return InvariantValue(value=complex(value), term_count=None, engine="dense")


def invariant_sparse(state, p):
    """Variable elimination over the support tables of the 2n copies.

    A join building m rows of width w from tables A and B costs
    O((|A| + |B|) log |B| + m (w + log m)); the next pair joined is the
    one with the smallest |A| |B| / d^shared, so cost follows the plan's
    largest intermediate, never d^N.  A join that would hold over
    ``_JOIN_BYTES`` bytes is built in runs of A's rows that fit beside
    the grouped rows already held; CapacityError is raised, before the
    run is built, only when one row's matches with those grouped rows do
    not fit.  ``term_count`` is the exact number of assignments of support
    rows to the n ket copies whose every bra tuple lies in the support:
    ones carried through the same plan beside the amplitudes, in int64
    while r^n < 2^63 and in Python integers past that.
    """
    if not isinstance(state, SparseState):
        raise ArgumentError("sparse engine needs a SparseState")
    num_parties = state.num_parties
    if p.num_parties != num_parties:
        raise ArgumentError(
            "permutation set covers %d parties, state has %d"
            % (p.num_parties, num_parties)
        )
    rows, amp = _support_table(state)
    neutral = np.zeros(len(rows), dtype=np.int64)
    ones = _ones(len(rows), p.n)
    value, term_count = _contract(rows, (amp, ones), (amp.conj(), ones), neutral, p)[0]
    return InvariantValue(
        value=complex(value), term_count=int(term_count), engine="sparse"
    )


def _support_table(state):
    """The support as an (r, N) int64 array of rows, sorted, and the
    complex amplitudes on them."""
    items = sorted(state.amplitudes.items())
    rows = np.array([k for k, _ in items], dtype=np.int64)
    amp = np.array([v for _, v in items], dtype=complex)
    return rows, amp


def _ones(r, n):
    """Counting ones: int64 while r^n, a bound on every partial count, fits."""
    return np.ones(r, dtype=np.int64 if r**n < 2**63 else object)


def _codes(keys):
    """int64 codes, equal exactly where rows of ``keys`` are equal: a radix
    code re-compressed to group ids before a column would carry it past int64."""
    low = keys.min(axis=0, initial=0)
    spans = keys.max(axis=0, initial=0) - low + 1
    code = np.zeros(len(keys), dtype=np.int64)
    bound = 1
    for col, span in zip((keys - low).T, spans.tolist()):
        if bound * span > 1 << 62:
            code = np.unique(code, return_inverse=True)[1]
            bound = int(code.max(initial=0)) + 1
        code = code * span + col
        bound *= span
    return code


def _group(keys, vals, charge):
    """Sum the value arrays over rows with equal (keys, charge)."""
    code = _codes(np.column_stack([keys, charge]))
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.diff(code, prepend=code[:1] - 1))
    rep = order[starts]
    sums = tuple(np.add.reduceat(v[order], starts) for v in vals)
    return keys[rep], sums, charge[rep]


def _join(a, b):
    """Join two tables on their shared labels and sum those labels out:
    the result holds one row per distinct (remaining labels, charge).

    A is cut into runs of rows whose pairs, with the grouped rows of the
    runs before, fit ``_JOIN_BYTES``; each run is grouped as it is built
    and the parts are grouped once more at the end.  A join that fits
    one run is built and grouped whole."""
    (labels_a, keys_a, vals_a, charge_a), (labels_b, keys_b, vals_b, charge_b) = a, b
    shared = [x for x in labels_a if x in labels_b]
    on_a = [labels_a.index(x) for x in shared]
    on_b = [labels_b.index(x) for x in shared]
    code = _codes(np.concatenate([keys_a[:, on_a], keys_b[:, on_b]]))
    code_a, code_b = code[: len(keys_a)], code[len(keys_a) :]
    order = np.argsort(code_b, kind="stable")
    first = np.searchsorted(code_b[order], code_a, "left")
    counts = np.searchsorted(code_b[order], code_a, "right") - first
    ends = np.cumsum(counts)
    total = int(ends[-1])
    keep_a = [i for i, x in enumerate(labels_a) if x not in shared]
    keep_b = [i for i, x in enumerate(labels_b) if x not in shared]
    keys_a, keys_b = keys_a[:, keep_a], keys_b[:, keep_b]
    # per row at the peak, while grouping: the keys with their stacked and
    # shifted copies (3 width + 2), the charge, two codes and every value
    # array, plus the two row indexes, let go before grouping, as margin;
    # a grouped row held is counted the same
    row_bytes = 8 * (3 * (len(keep_a) + len(keep_b)) + 7) + sum(
        v.itemsize for v in vals_a
    )
    parts = []
    held = done = 0
    while done < total:
        # the run starts at the first row with pairs left; its rows' pairs
        # start at ends - counts, so ib walks each row's matches in order
        lo = int(np.searchsorted(ends, done, "right"))
        need = held + int(counts[lo])
        if need * row_bytes > _JOIN_BYTES:
            raise CapacityError(
                "sparse join plans %d rows, %d bytes; the budget is %d bytes"
                % (need, need * row_bytes, _JOIN_BYTES)
            )
        hi = int(np.searchsorted(ends, done + _JOIN_BYTES // row_bytes - held, "right"))
        size = int(ends[hi - 1]) - done
        ia = np.repeat(np.arange(lo, hi), counts[lo:hi])
        ib = order[
            np.repeat(first[lo:hi] + counts[lo:hi] - ends[lo:hi] + done, counts[lo:hi])
            + np.arange(size)
        ]
        pairs = (
            np.concatenate([keys_a[ia], keys_b[ib]], axis=1),
            tuple(va[ia] * vb[ib] for va, vb in zip(vals_a, vals_b)),
            charge_a[ia] + charge_b[ib],
        )
        # drop each run's indexes and pairs before the next allocation, so
        # no two runs' pairs are alive at once
        del ia, ib
        part = _group(*pairs)
        del pairs
        parts.append(part)
        held += len(part[0])
        done += size
    if len(parts) > 1:
        keys, vals, charge = zip(*parts)
        parts = [
            _group(
                np.concatenate(keys),
                tuple(np.concatenate(v) for v in zip(*vals)),
                np.concatenate(charge),
            )
        ]
    labels = [labels_a[i] for i in keep_a] + [labels_b[i] for i in keep_b]
    return (labels, *parts[0])


def _contract(rows, ket, bra, charge, p):
    """{net charge: tuple of summed values} over n ket and n bra copies of
    the support ``rows``, for a tuple of value arrays carried through one
    plan: on row i a ket copy holds ``ket[k][i]`` and charge ``charge[i]``,
    a bra copy ``bra[k][i]`` and ``-charge[i]``."""
    n = p.n
    num_parties = rows.shape[1]
    local_dim = int(rows.max(initial=0)) + 1
    # label j*n + l is party j of ket copy l, read by bra copy sigma_j^-1(l)
    tables = [
        ([j * n + l for j in range(num_parties)], rows, ket, charge)
        for l in range(n)
    ] + [
        ([j * n + p.perms[j][l] - 1 for j in range(num_parties)], rows, bra, -charge)
        for l in range(n)
    ]
    while len(tables) > 1:
        # tables that share labels first, smallest estimated output first;
        # label-free tables are left for last and joined as cross products
        labels = [set(t[0]) for t in tables]
        _, x, y = min(
            (
                (len(tables[x][1]) * len(tables[y][1]) / local_dim ** len(shared), x, y)
                for x, y in combinations(range(len(tables)), 2)
                if (shared := labels[x] & labels[y])
            ),
            default=(0, 0, 1),
        )
        joined = _join(tables[x], tables[y])
        tables = [t for i, t in enumerate(tables) if i not in (x, y)] + [joined]
    _, _, vals, charges = tables[0]
    return dict(zip(charges.tolist(), zip(*(v.tolist() for v in vals))))


def invariant(state, p, cap=DENSE_TERM_CAP):
    """Every SparseState takes the sparse engine (``invariant_sparse`` gives
    its cost, byte bound and ``term_count``); a dense array takes the
    oracle, bounded by ``cap`` summands."""
    if isinstance(state, SparseState):
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
