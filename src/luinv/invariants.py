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
holding the r support rows as one contiguous int64 column per index
label of that copy: N columns, split from the support once.  Every label
sits on exactly two tables, so a sort-merge join of two tables sums the
labels they share out at once.  Its pairs are grouped by one int64 code
each, combining a code of each table's remaining labels, computed once on
that table's columns, with the pair's net charge; each remaining column
is gathered, by one take, only for the grouped rows, so a pair costs the
same whatever the key width.  A join's size is known from its merge
counts before it is built; one that would hold over ``_JOIN_BYTES`` bytes
is built and grouped in runs that fit, so memory follows the output.
Every ket copy holds the same data, as does every bra copy, so tables
are named by their data and a join whose twin (the same two names,
sharing labels at the same positions) is still held reuses that table's
arrays instead of running.  One plan carries a tuple of value arrays, so
the amplitudes and the ones that count terms share every join.  A
per-row charge splits the sum by the net charge of its terms, which
counts each power of a marked phase exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ArgumentError, CapacityError, ParseError
from .oa import _codes, _integer, _ranks
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

# cap on the terms the planned dense contraction sums, over all its steps
DENSE_TERM_CAP = 10**8

# upper bound on the bytes one join of the sparse engine may hold
_JOIN_BYTES = 1 << 30


@dataclass(frozen=True)
class PermutationSet:
    """n copies plus one one-line permutation of {1..n} per party."""

    n: int
    perms: tuple

    def __post_init__(self):
        n = _integer(self.n, "copy count n=%r")
        if n < 1:
            raise ArgumentError("copy count n must be >= 1")
        object.__setattr__(self, "n", n)
        if not self.perms:
            raise ArgumentError("need at least one party permutation")
        clean = []
        for perm in self.perms:
            perm = tuple(_integer(v, "permutation entry %r") for v in perm)
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
        n = _integer(n, "copy count n=%r")
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


def _dense_tensor(state):
    if isinstance(state, SparseState):
        return state.dense()
    tensor = np.asarray(state, dtype=complex)
    if tensor.ndim < 1 or len(set(tensor.shape)) != 1:
        raise ArgumentError("dense state must be a (d,)*N tensor")
    return tensor


def _require_parties(p, num_parties):
    if p.num_parties != num_parties:
        raise ArgumentError(
            "permutation set covers %d parties, state has %d"
            % (p.num_parties, num_parties)
        )


def invariant_dense(state, p):
    """Brute-force contraction of the full amplitude tensor.

    ``state`` may be a SparseState or a dense (d,)*N array.  The path is
    planned once, greedily with no intermediate over DENSE_CAP entries,
    and checked by ``_check_dense_plan`` before it runs.
    """
    tensor = _dense_tensor(state)
    _require_parties(p, tensor.ndim)
    n, parties = p.n, range(tensor.ndim)
    # index id of party j, copy l is j*n + l; the n ket copies, then the bras
    indices = [[j * n + l for j in parties] for l in range(n)]
    indices += [[j * n + p.perms[j][l] - 1 for j in parties] for l in range(n)]
    tensors = [tensor] * n + [tensor.conj()] * n
    operands = [x for pair in zip(tensors, indices) for x in pair] + [[]]
    path = np.einsum_path(*operands, optimize=("greedy", DENSE_CAP))[0]
    _check_dense_plan(indices, path, tensor.shape[0])
    value = np.einsum(*operands, optimize=path)
    return InvariantValue(value=complex(value), term_count=None, engine="dense")


def _check_dense_plan(indices, path, d):
    """Refuse an ``np.einsum_path`` plan over ``indices`` that sums over
    DENSE_TERM_CAP terms or holds an intermediate over DENSE_CAP entries.
    A step over t indices sums d^t terms; its result, appended last, keeps
    the indices that a remaining operand still carries."""
    sets = [set(ix) for ix in indices]
    terms = largest = 0
    for step in path[1:]:
        touched = set().union(*(sets[i] for i in step))
        sets = [s for i, s in enumerate(sets) if i not in step]
        sets.append(touched & set().union(*sets))
        terms += d ** len(touched)
        largest = max(largest, d ** len(sets[-1]))
    if terms > DENSE_TERM_CAP or largest > DENSE_CAP:
        raise CapacityError(
            "dense contraction plan sums %d terms and holds %d entries at once,"
            " caps are %d and %d" % (terms, largest, DENSE_TERM_CAP, DENSE_CAP)
        )


def invariant_sparse(state, p):
    """Variable elimination over the support tables of the 2n copies.

    A join of tables A and B over q matched pairs into m rows of width w
    costs O((|A| + |B|) (w + log |B|) + q log q + m w); the next pair
    joined is the one with the smallest |A| |B| / d^shared, so cost
    follows the plan's largest intermediate, never d^N.  A join that
    would hold over ``_JOIN_BYTES`` bytes is built in runs of A's rows
    that fit beside the grouped rows already held; CapacityError is
    raised, before the run is built, only when the join's tables, or one
    row's matches with those grouped rows, do not fit.  ``term_count`` is
    the exact number of assignments of support rows to the n ket copies
    whose every bra tuple lies in the support: ones carried through the
    same plan beside the amplitudes, in int64 while r^n < 2^63 and in
    Python integers past that.
    """
    if not isinstance(state, SparseState):
        raise ArgumentError("sparse engine needs a SparseState")
    _require_parties(p, state.num_parties)
    rows, amp = state.rows, state.values
    neutral = np.zeros(len(rows), dtype=np.int64)
    ones = _ones(len(rows), p.n)
    value, term_count = _contract(rows, (amp, ones), (amp.conj(), ones), neutral, p)[0]
    return InvariantValue(
        value=complex(value), term_count=int(term_count), engine="sparse"
    )


def _ones(r, n):
    """Counting ones: int64 while r^n, a bound on every partial count, fits."""
    return np.ones(r, dtype=np.int64 if r**n < 2**63 else object)


def _group(code, vals):
    """Sum the value arrays over rows of equal ``code``: the first row of
    each group, in code order, and the sums."""
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
    del code
    return order[starts], tuple(np.add.reduceat(v[order], starts) for v in vals)


def _join(a, b):
    """Join two tables on their shared labels and sum those labels out:
    the result holds one row per distinct (remaining labels, charge).

    A table is (labels, columns, value arrays, charge): one contiguous
    int64 column per label, and one charge per row.  Each table row gets
    one group code, of its remaining labels and its charge, so a pair's
    code is the sum of its two rows' codes: pairs are grouped by one int64
    column whatever the key width, and each remaining column is gathered
    by one take for the grouped rows only.  A is cut into runs of rows
    whose pairs, with the rows grouped so far and the arrays kept per table
    row, fit ``_JOIN_BYTES``; each run's pairs are grouped together with the
    rows grouped so far, so between runs the join holds at most its
    output.  A join that fits one run is built and grouped whole."""
    (labels_a, cols_a, vals_a, charge_a), (labels_b, cols_b, vals_b, charge_b) = a, b
    rows_a, rows_b = len(charge_a), len(charge_b)
    shared = [x for x in labels_a if x in labels_b]
    code, _ = _codes(
        rows_a + rows_b,
        (
            np.concatenate([cols_a[labels_a.index(x)], cols_b[labels_b.index(x)]])
            for x in shared
        ),
    )
    code_a, code_b = code[:rows_a], code[rows_a:]
    order = np.argsort(code_b, kind="stable")
    code_b = code_b[order]
    first = np.searchsorted(code_b, code_a, "left")
    counts = np.searchsorted(code_b, code_a, "right")
    counts -= first
    del code, code_a, code_b
    ends = np.cumsum(counts)
    total = int(ends[-1])
    keep_a = [i for i, x in enumerate(labels_a) if x not in shared]
    keep_b = [i for i, x in enumerate(labels_b) if x not in shared]
    code_a, span_a = _codes(rows_a, (cols_a[i] for i in keep_a))
    code_b, span_b = _codes(rows_b, (cols_b[j] for j in keep_b))
    low = int(charge_a.min(initial=0) + charge_b.min(initial=0))
    span_c = int(charge_a.max(initial=0) + charge_b.max(initial=0)) - low + 1
    if span_a * span_b * span_c > 1 << 62:
        (code_a, span_a), (code_b, span_b) = _ranks(code_a), _ranks(code_b)
        if span_a * span_b * span_c > 1 << 62:
            raise CapacityError(
                "sparse join needs %d group codes, past int64"
                % (span_a * span_b * span_c)
            )
    # a row's group code, in place: a pair's code, the sum of its two
    # rows', is one radix code of their key codes and their net charge
    code_a *= span_b * span_c
    code_a += charge_a
    code_a -= low
    code_b *= span_c
    code_b += charge_b
    # before the pairs, coding and matching the keys a column at a time
    # hold at most four words a table row
    pre_bytes = 32 * (rows_a + rows_b)
    # held beside the pairs: first, counts, ends and the group code on A's
    # rows, the order and the group code on B's
    table_bytes = 8 * (4 * rows_a + 2 * rows_b)
    # per pair at the peak, while grouping: the two row indexes, the group
    # code, its sorted copy and the sort's index and work space (5 words),
    # and every value array twice, as products and sorted; as any pair may
    # be an output row, its first-row index, its group start and its sums;
    # an object entry's products and sums are new Python ints, each at most
    # the pair count times the largest product
    value_bytes = sum(v.itemsize for v in vals_a)
    int_bytes = sum(
        sys.getsizeof(total * int(abs(va).max()) * int(abs(vb).max()))
        for va, vb in zip(vals_a, vals_b)
        if object in (va.dtype, vb.dtype)
    )
    row_bytes = 56 + 3 * value_bytes + 2 * int_bytes
    # an output row once the pairs and the tables are gone: its two row
    # indexes, its sums, its key columns, each one take (a word a column),
    # and its charge with the two words that sum it
    out_bytes = 40 + value_bytes + int_bytes + 8 * (len(keep_a) + len(keep_b))
    held = done = 0
    while done < total:
        # the run starts at the first row with pairs left; its rows' pairs
        # start at ends - counts, so ib walks each row's matches in order
        lo = int(np.searchsorted(ends, done, "right"))
        rows = held + int(counts[lo])
        need = rows * row_bytes
        peak = max(pre_bytes, need + table_bytes, rows * out_bytes)
        if peak > _JOIN_BYTES:
            raise CapacityError(
                "sparse join plans %d rows, %d bytes, and with its tables %d bytes;"
                " the budget is %d bytes" % (rows, need, peak, _JOIN_BYTES)
            )
        fit = min((_JOIN_BYTES - table_bytes) // row_bytes, _JOIN_BYTES // out_bytes)
        hi = int(np.searchsorted(ends, done + fit - held, "right"))
        size = int(ends[hi - 1]) - done
        run_a = np.repeat(np.arange(lo, hi), counts[lo:hi])
        run_b = order[
            np.repeat(first[lo:hi] + counts[lo:hi] - ends[lo:hi] + done, counts[lo:hi])
            + np.arange(size)
        ]
        vals = tuple(va[run_a] * vb[run_b] for va, vb in zip(vals_a, vals_b))
        if done:
            # the rows grouped so far are grouped again with this run's
            # pairs, so at most the output's rows are held between runs
            run_a, run_b = np.concatenate([ia, run_a]), np.concatenate([ib, run_b])
            vals = tuple(np.concatenate(v) for v in zip(sums, vals))
            del ia, ib, sums
        rep, sums = _group(code_a[run_a] + code_b[run_b], vals)
        ia, ib = run_a[rep], run_b[rep]
        # drop the run's pairs before the next allocation
        del run_a, run_b, rep, vals
        held = len(ia)
        done += size
    # the per-table arrays go before the output is gathered
    del order, first, counts, ends, code_a, code_b
    labels = [labels_a[i] for i in keep_a] + [labels_b[j] for j in keep_b]
    cols = tuple(cols_a[i][ia] for i in keep_a) + tuple(cols_b[j][ib] for j in keep_b)
    return labels, cols, sums, charge_a[ia] + charge_b[ib]


def _contract(rows, ket, bra, charge, p):
    """{net charge: tuple of summed values} over n ket and n bra copies of
    the support ``rows``, for a tuple of value arrays carried through one
    plan: on row i a ket copy holds ``ket[k][i]`` and charge ``charge[i]``,
    a bra copy ``bra[k][i]`` and ``-charge[i]``.

    Each table carries a name for its data: every ket copy has one name,
    every bra copy another, and a join is named by its two tables' names
    and the positions in each of the labels they share.  ``_join``'s result
    depends on nothing else, so a join named as a live table takes that
    table's columns, values and charges under its own labels (A's kept, then
    B's) and is not run again: the twin joins of the paper's families."""
    n = p.n
    num_parties = rows.shape[1]
    local_dim = int(rows.max(initial=0)) + 1
    cols = tuple(np.ascontiguousarray(rows.T))
    anti = -charge
    # label j*n + l is party j of ket copy l, read by bra copy sigma_j^-1(l)
    tables = [
        ([j * n + l for j in range(num_parties)], cols, ket, charge, "ket")
        for l in range(n)
    ] + [
        ([j * n + q[l] - 1 for j, q in enumerate(p.perms)], cols, bra, anti, "bra")
        for l in range(n)
    ]
    while len(tables) > 1:
        # tables that share labels first, smallest estimated output first;
        # label-free tables are left for last and joined as cross products
        labels = [set(t[0]) for t in tables]
        _, x, y = min(
            (
                (len(tables[x][3]) * len(tables[y][3]) / local_dim ** len(shared), x, y)
                for x, y in combinations(range(len(tables)), 2)
                if (shared := labels[x] & labels[y])
            ),
            default=(0, 0, 1),
        )
        (labels_a, *_, name_a), (labels_b, *_, name_b) = tables[x], tables[y]
        pairs = tuple(
            (i, labels_b.index(v)) for i, v in enumerate(labels_a) if v in labels_b
        )
        name = (name_a, name_b, pairs)
        twin = next((t for t in tables if t[4] == name), None)
        if twin is None:
            joined = _join(tables[x][:4], tables[y][:4]) + (name,)
        else:
            kept = [v for v in labels_a if v not in labels_b]
            joined = (kept + [v for v in labels_b if v not in labels_a],) + twin[1:]
        tables = [t for i, t in enumerate(tables) if i not in (x, y)] + [joined]
    _, _, vals, charges, _ = tables[0]
    return dict(zip(charges.tolist(), zip(*(v.tolist() for v in vals))))


def invariant(state, p):
    """Every SparseState takes the sparse engine (``invariant_sparse`` gives
    its cost, byte bound and ``term_count``); a dense array takes the
    oracle, bounded by the DENSE_TERM_CAP terms its plan sums."""
    if isinstance(state, SparseState):
        return invariant_sparse(state, p)
    return invariant_dense(state, p)


def _subset(subset, num_parties):
    """``subset`` as a sorted tuple of parties: non-empty, without repeats,
    proper, each in 1..num_parties."""
    parties = tuple(sorted(_integer(v, "party %r") for v in subset))
    if not parties or len(set(parties)) != len(parties):
        raise ArgumentError("subset must be non-empty without repeats")
    if parties[0] < 1 or parties[-1] > num_parties or len(parties) >= num_parties:
        raise ArgumentError("subset must be a proper subset of 1..%d" % num_parties)
    return parties


def purity_perms(subset, num_parties):
    """The n=2 swap pattern whose invariant equals Tr(rho_subset^2)."""
    chosen = set(_subset(subset, num_parties))
    perms = tuple(
        (2, 1) if j in chosen else (1, 2) for j in range(1, num_parties + 1)
    )
    return PermutationSet(n=2, perms=perms)


def factorization_check(s1, s2, p, tol=INVARIANT_TOL):
    """Compare the composite invariant with the product of the parts;
    ``compose`` refuses parts whose party counts differ."""
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
