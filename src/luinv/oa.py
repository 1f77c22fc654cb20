"""Orthogonal array parsing and classification.

An orthogonal array OA(r, N, d, k) is an r x N table over the symbols
{0, ..., d-1} such that every set of k columns contains each of the d^k
possible k-tuples equally often; the repetition count lambda = r / d^k
is called the index of the array.  The array is irredundant, written
IrOA(r, N, d, k), if every subset of N - k columns contains no repeated
rows.  Irredundant arrays of strength k are the combinatorial backbone
of k-uniform state construction (see the states module).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ParseError, SymbolRangeError

__all__ = [
    "OrthogonalArray",
    "StrengthReport",
    "parse_oa",
    "check_strength",
    "is_irredundant",
    "witness_condition",
    "minimal_support_condition",
]

# bytes of row comparisons held at once by is_irredundant
_COMPARE_BYTES = 1 << 20


@dataclass(frozen=True)
class OrthogonalArray:
    """An r x N symbol table over the alphabet {0..d-1}.

    Attributes
    ----------
    rows : tuple of tuple of int
        The r rows, each an N-tuple of symbols.
    num_parties : int
        Number of columns N.
    local_dim : int
        Alphabet size d.
    """

    rows: tuple
    num_parties: int
    local_dim: int

    def __post_init__(self):
        if self.num_parties < 1 or self.local_dim < 1:
            raise ArgumentError("num_parties and local_dim must be >= 1")
        if len(self.rows) < 1:
            raise ArgumentError("an orthogonal array needs at least one row")
        for row in self.rows:
            if len(row) != self.num_parties:
                raise ParseError(
                    "row %r has %d entries, expected %d"
                    % (row, len(row), self.num_parties)
                )
            for s in row:
                if not 0 <= s < self.local_dim:
                    raise SymbolRangeError(
                        "symbol %r outside {0..%d}" % (s, self.local_dim - 1)
                    )

    @property
    def r(self):
        """Row count."""
        return len(self.rows)


@dataclass(frozen=True)
class StrengthReport:
    """Outcome of a strength check.

    ``holds`` is true when every k-column projection contains all d^k
    tuples exactly ``index_lambda`` times; then r = index_lambda * d^k.
    """

    k: int
    holds: bool
    index_lambda: int


def _tokenize(lines):
    table = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        row = []
        for f in fields:
            try:
                v = int(f)
            except ValueError:
                raise ParseError("line %d: %r is not an integer" % (lineno, f))
            if v < 0:
                raise ParseError("line %d: negative symbol %d" % (lineno, v))
            row.append(v)
        table.append(row)
    return table


def _header(lines):
    """The shape ``# r N d`` on the first non-blank line, blanked out of
    ``lines``; None when that line carries no marker."""
    for lineno, line in enumerate(lines):
        if line.strip():
            break
    else:
        return None
    if not line.lstrip().startswith("#"):
        return None
    fields = line.lstrip()[1:].split()
    try:
        header = tuple(int(v) for v in fields)
    except ValueError:
        header = ()
    if len(header) != 3 or min(header) < 1:
        raise ParseError("line %d: header must read '# r N d'" % (lineno + 1))
    lines[lineno] = ""
    return header


def parse_oa(text, local_dim=None):
    """Parse an orthogonal array from whitespace-separated text.

    One row per line.  An optional first line ``# r N d`` declares the
    shape: there must be r rows of N symbols each, and d is the alphabet
    size.  A first line without the marker is a row; one that would also
    fit as a header (three fields r N d, then r rows of N fields) is
    refused as ambiguous.  Without a header the column count is taken
    from the first row and d is inferred as (max symbol) + 1.  An
    explicit ``local_dim`` wins over both.

    Raises
    ------
    ParseError
        Empty input, ragged rows, non-integer fields, a header the rows
        do not match, or an unmarked first line that reads as a header.
    SymbolRangeError
        A symbol at or above the declared local dimension.
    """
    lines = text.splitlines()
    header = _header(lines)
    table = _tokenize(lines)
    if not table:
        raise ParseError("empty input")

    if header is not None:
        r, num_parties, d = header
        if len(table) != r or any(len(row) != num_parties for row in table):
            raise ParseError(
                "header declares %d rows of %d symbols; the rows do not match"
                % (r, num_parties)
            )
    else:
        first = table[0]
        if (
            len(first) == 3
            and first[0] == len(table) - 1 >= 1
            and first[2] >= 1
            and all(len(row) == first[1] for row in table[1:])
        ):
            raise ParseError(
                "first line %r reads as a header 'r N d' and as a row; "
                "mark a header as '# r N d'" % " ".join(map(str, first))
            )
        num_parties = len(first)
        for row in table:
            if len(row) != num_parties:
                raise ParseError(
                    "ragged rows: expected %d fields, got %d" % (num_parties, len(row))
                )
        d = max(max(row) for row in table) + 1
    if local_dim is not None:
        d = local_dim

    return OrthogonalArray(
        rows=tuple(tuple(row) for row in table),
        num_parties=num_parties,
        local_dim=d,
    )


def check_strength(oa, k):
    """Check whether ``oa`` has strength k and compute the index lambda.

    Every k-subset of columns is enumerated exactly; for each, all d^k
    symbol tuples must occur the same number of times r / d^k.  A tuple
    is counted by its radix-d code, which stays below d^k <= r.

    Returns a StrengthReport; ``index_lambda`` is 0 when the check fails.
    """
    if not 1 <= k <= oa.num_parties:
        raise ArgumentError("k=%d out of range 1..%d" % (k, oa.num_parties))
    lam, rem = divmod(oa.r, oa.local_dim**k)
    if rem != 0 or lam == 0:
        return StrengthReport(k=k, holds=False, index_lambda=0)
    table = np.array(oa.rows, dtype=np.int64)
    radix = oa.local_dim ** np.arange(k, dtype=np.int64)
    for cols in itertools.combinations(range(oa.num_parties), k):
        counts = np.bincount(table[:, cols] @ radix, minlength=oa.local_dim**k)
        if (counts != lam).any():
            return StrengthReport(k=k, holds=False, index_lambda=0)
    return StrengthReport(k=k, holds=True, index_lambda=lam)


def is_irredundant(oa, k):
    """True iff every (N - k)-column projection of ``oa`` has distinct rows.

    Equivalently, no two rows agree on N - k or more columns: the minimum
    pairwise Hamming distance is at least k + 1.  Rows are compared in
    blocks of at most ``_COMPARE_BYTES``.  k = N is rejected: the empty
    projection makes irredundancy undefined.
    """
    if not 1 <= k < oa.num_parties:
        raise ArgumentError("k=%d out of range 1..%d" % (k, oa.num_parties - 1))
    keep = oa.num_parties - k
    columns = np.array(oa.rows, dtype=np.int64).T.copy()
    count = np.min_scalar_type(oa.num_parties)
    # per block row: an agreement count and a bool for each earlier row
    step = max(1, _COMPARE_BYTES // (oa.r * (count.itemsize + 1)))
    for start in range(0, oa.r, step):
        stop = min(start + step, oa.r)
        agree = np.zeros((stop - start, stop), dtype=count)
        for col in columns:
            agree += col[start:stop, None] == col[:stop]
        # every row agrees with itself; any other pair over keep is a repeat
        if np.count_nonzero(agree >= keep) > stop - start:
            return False
    return True


def witness_condition(r, num_parties, d):
    """True iff r > N*d - (N - 1), the row-count surplus that guarantees a
    nontrivial integral kernel of the symbol-count system."""
    if r < 1 or num_parties < 1 or d < 1:
        raise ArgumentError("r, num_parties, d must be positive")
    return r > num_parties * d - (num_parties - 1)


def minimal_support_condition(num_parties, d):
    """True iff d^floor(N/2) > N*d - (N - 1).

    This is the witness condition evaluated at the minimal possible
    support size d^floor(N/2) of an AME state.
    """
    if num_parties < 2 or d < 2:
        raise ArgumentError("need num_parties >= 2 and d >= 2")
    return d ** (num_parties // 2) > num_parties * d - (num_parties - 1)
