"""Orthogonal array parsing and classification.

An orthogonal array OA(r, N, d, k) is an r x N table over the symbols
{0, ..., d-1} such that every set of k columns contains each of the d^k
possible k-tuples equally often; the repetition count lambda = r / d^k
is called the index of the array.  The array is irredundant, written
IrOA(r, N, d, k), if every subset of N - k columns contains no repeated
rows.  Irredundant arrays of strength k are the combinatorial backbone
of k-uniform state construction (see the states module).

An ``OrthogonalArray`` holds its rows once, as a read-only (r, N) int64
table in the array's own row order, which a witness's kernel vector
depends on; a state's support is sorted.  Every layer reads it as stored.

Both checks code the projections onto a run of column subsets at once,
with ``_codes``, the radix coder the sparse joins use too: strength counts
the codes, irredundancy sorts them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DuplicateRowError, ParseError, SymbolRangeError

__all__ = [
    "OrthogonalArray",
    "StrengthReport",
    "parse_oa",
    "check_strength",
    "is_irredundant",
    "require_distinct_rows",
    "witness_condition",
    "minimal_support_condition",
]

# rows per stacked table: the array checks and is_k_uniform stack one
# table per column subset, in runs of subsets that fit (see _runs)
_STACK_ROWS = 1 << 18


@dataclass(frozen=True, eq=False)
class OrthogonalArray:
    """An r x N symbol table over the alphabet {0..d-1}; instances compare
    by identity.  A symbol that is not an integer, such as 0.5, or one
    past int64 raises ArgumentError.

    Attributes
    ----------
    rows : (r, N) int64 array
        A read-only copy, in the given order (not sorted), of the rows given
        as any nested integer sequence or integer array.
    num_parties : int
        Number of columns N.
    local_dim : int
        Alphabet size d.
    """

    rows: np.ndarray
    num_parties: int
    local_dim: int

    def __post_init__(self):
        num_parties, local_dim = _dims(self.num_parties, self.local_dim)
        object.__setattr__(self, "num_parties", num_parties)
        object.__setattr__(self, "local_dim", local_dim)
        if len(self.rows) < 1:
            raise ArgumentError("an orthogonal array needs at least one row")
        try:
            table = np.array(self.rows)
        except ValueError:
            table = np.empty(0)
        if table.shape[1:2] != (self.num_parties,):
            raise ParseError("rows are not all %d symbols long" % self.num_parties)
        if table.dtype != np.int64 or table.ndim != 2:
            table = _int64_table(self.rows)
        _require_symbols(table, self.local_dim, SymbolRangeError)
        table.flags.writeable = False
        object.__setattr__(self, "rows", table)

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


def _int64_table(rows):
    """The nested integer sequence ``rows`` as an int64 table, read symbol
    by symbol, so that a symbol that is not an integer, or one past int64,
    raises ArgumentError rather than being truncated or wrapped."""
    ints = [[_integer(s, "symbol %r") for s in row] for row in rows]
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        bad = max((s for row in ints for s in row), key=abs)
        raise ArgumentError("symbol %d is past int64" % bad)


def _integer(value, name):
    """``value`` as an int; ArgumentError, naming ``name % value``, if not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ArgumentError((name + " is not an integer") % (value,))


def _dims(num_parties, local_dim):
    """``num_parties`` and ``local_dim`` as ints, each at least 1."""
    try:
        num_parties = operator.index(num_parties)
        local_dim = operator.index(local_dim)
    except TypeError:
        raise ArgumentError("num_parties and local_dim must be integers")
    if num_parties < 1 or local_dim < 1:
        raise ArgumentError("num_parties and local_dim must be >= 1")
    return num_parties, local_dim


def _require_symbols(rows, local_dim, error):
    """Raise ``error`` on the first symbol of ``rows`` outside {0..local_dim-1}."""
    if rows.min(initial=0) < 0 or rows.max(initial=0) >= local_dim:
        outside = rows[(rows < 0) | (rows >= local_dim)]
        raise error("symbol %d outside {0..%d}" % (outside[0], local_dim - 1))


def _increasing(rows):
    """Whether each row of the table ``rows`` is lexicographically greater
    than the one before: sorted, and no row repeated."""
    step = rows[1:] - rows[:-1]
    first = (step != 0).argmax(axis=1)
    return bool((step[np.arange(len(step)), first] > 0).all())


def _row_order(rows):
    """The permutation that sorts the table ``rows`` by row, None when it
    already increases, and whether its rows are pairwise distinct."""
    order = None if _increasing(rows) else np.lexsort(rows.T[::-1])
    return order, order is None or _increasing(rows[order])


def _codes(size, columns):
    """int64 codes for ``size`` rows given by an iterable of non-negative
    ``columns``, equal exactly where rows are equal, and a bound on them:
    a radix code built in place a column at a time, so it holds one word a
    row beside the column, and re-compressed to group ids before a column
    would carry it past int64."""
    code = np.zeros(size, dtype=np.int64)
    bound = 1
    for col in columns:
        span = int(col.max(initial=0)) + 1
        if bound * span > 1 << 62:
            code, bound = _ranks(code)
        code *= span
        code += col
        bound *= span
    return code, bound


def _ranks(code):
    """``code`` as ranks among its distinct values, and their count."""
    distinct, ranks = np.unique(code, return_inverse=True)
    return ranks.reshape(code.shape), len(distinct)


def _runs(items, size):
    """``items`` in lists of as many as fit ``_STACK_ROWS`` rows when each
    stacks ``size``, one at least."""
    items = iter(items)
    step = max(1, _STACK_ROWS // size)
    while run := list(itertools.islice(items, step)):
        yield run


def _projections(rows, m):
    """``_codes`` of the projections of the table ``rows`` onto its m-column
    subsets, in combinations order and in runs: an (s, r) table whose row i
    codes the projection onto the run's i-th subset, and a bound.  The
    columns are gathered in the narrowest type that holds the symbols."""
    columns = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(rows.max()))
    for run in _runs(itertools.combinations(range(len(columns)), m), len(rows)):
        yield _codes((len(run), len(rows)), (columns[c] for c in np.array(run).T))


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
        d = max(max(row) for row in table) + 1
    if local_dim is not None:
        d = local_dim

    return OrthogonalArray(rows=table, num_parties=num_parties, local_dim=d)


def check_strength(oa, k):
    """Check whether ``oa`` has strength k and compute the index lambda.

    ``k`` must be an integer.  Every k-subset of columns must hold each of
    the d^k symbol tuples r / d^k times: a run of subsets is counted by one
    ``bincount`` of their codes, each subset's offset past the last's.  The
    cost is C(N, k) r, and memory is bounded by ``_STACK_ROWS``.

    Returns a StrengthReport; ``index_lambda`` is 0 when the check fails.
    """
    k = _integer(k, "k=%r")
    if not 1 <= k <= oa.num_parties:
        raise ArgumentError("k=%d out of range 1..%d" % (k, oa.num_parties))
    lam, rem = divmod(oa.r, oa.local_dim**k)
    if rem != 0 or lam == 0:
        return StrengthReport(k=k, holds=False, index_lambda=0)
    for code, bound in _projections(oa.rows, k):
        # every cell reads lambda only if bound is d^k <= r
        code += np.arange(0, len(code) * bound, bound)[:, None]
        if (np.bincount(code.ravel(), minlength=len(code) * bound) != lam).any():
            return StrengthReport(k=k, holds=False, index_lambda=0)
    return StrengthReport(k=k, holds=True, index_lambda=lam)


def require_distinct_rows(oa):
    """Raise DuplicateRowError unless the rows of ``oa`` are pairwise distinct."""
    if not _row_order(oa.rows)[1]:
        raise DuplicateRowError("array rows are not pairwise distinct")


def is_irredundant(oa, k):
    """True iff every (N - k)-column projection of ``oa`` has distinct rows.

    ``k`` must be an integer.  Each projection's codes are sorted, and the
    first with two equal neighbours answers False.  The cost is
    C(N, k) r log r, and memory is bounded by ``_STACK_ROWS``.  k = N is
    rejected: the empty projection makes irredundancy undefined.
    """
    k = _integer(k, "k=%r")
    if not 1 <= k < oa.num_parties:
        raise ArgumentError("k=%d out of range 1..%d" % (k, oa.num_parties - 1))
    for code, _ in _projections(oa.rows, oa.num_parties - k):
        code.sort(axis=1)
        if (code[:, 1:] == code[:, :-1]).any():
            return False
    return True


def witness_condition(r, num_parties, d):
    """True iff r > N*d - (N - 1), the row-count surplus that guarantees a
    nontrivial integral kernel of the symbol-count system.

    For an array of strength 2 with N >= 2 the condition is also
    necessary: the system has rank exactly N*(d - 1) + 1 = N*d - (N - 1),
    so such an array has a nontrivial kernel iff the condition holds."""
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
