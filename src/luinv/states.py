"""Sparse multipartite pure states.

A state of N parties with local dimension d is stored as its support:
an (r, N) int64 table of the r kets with a nonzero amplitude, sorted by
row, and the (r,) complex amplitudes on them, both read-only.
Constructors cover the generic build from an irredundant orthogonal
array with per-row phases, a small catalog of named one-parameter
families, and the composite pairing that merges two N-party states into
one with local dimension d1 * d2.  Each builds the two arrays with numpy
and passes them through the one check every state's support takes.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from types import MappingProxyType

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    CatalogError,
    DuplicateRowError,
    ParseError,
)
from .oa import _codes, _dims, _int64_table, _integer, _require_symbols, _row_order

__all__ = [
    "SparseState",
    "NORM_TOL",
    "DENSE_CAP",
    "from_iroa",
    "catalog_state",
    "compose",
    "random_local_unitary_apply",
    "state_to_dict",
    "state_from_dict",
]

NORM_TOL = 1e-12

# dense expansion guard, in complex entries
DENSE_CAP = 10**7


class SparseState:
    """Immutable sparse amplitude table for an N-party pure state.

    Parameters
    ----------
    num_parties : int
    local_dim : int
    amplitudes : mapping from N-tuples to complex
        Exact zeros are dropped; the remaining keys are the support.
        ``num_parties``, ``local_dim`` and the key symbols must be
        integers (numpy integers included), and the amplitudes numbers
        (``numbers.Number``, numpy scalars included); anything else, such
        as a symbol 1.7 or an amplitude "1", raises ArgumentError rather
        than being truncated or parsed.
    normalize : bool
        When true the amplitudes are rescaled to unit norm; otherwise the
        norm must already be 1 within NORM_TOL.  A norm that is not finite
        (a NaN or infinite amplitude, or squares past the float range), or
        that underflows to zero, raises ArgumentError either way.

    Attributes
    ----------
    rows : (r, N) int64 array
        The support, sorted by row; read-only.
    values : (r,) complex128 array
        The amplitude on each row; read-only.
    amplitudes : mapping
        The same support as a read-only {N-tuple: complex} mapping, built
        from the arrays on first access.
    """

    __slots__ = ("num_parties", "local_dim", "rows", "values", "_amplitudes")

    def __init__(self, num_parties, local_dim, amplitudes, normalize=False):
        num_parties, local_dim = _dims(num_parties, local_dim)
        keys, values = [], []
        for key, value in amplitudes.items():
            try:
                key = tuple(operator.index(s) for s in key)
            except TypeError:
                raise ArgumentError("key %r holds a non-integer symbol" % (key,))
            if len(key) != num_parties:
                raise ArgumentError("key %r is not an %d-tuple" % (key, num_parties))
            if not isinstance(value, numbers.Number):
                raise ArgumentError("amplitude %r at %r is not a number" % (value, key))
            try:
                values.append(complex(value))
            except (TypeError, ValueError, OverflowError):
                raise ArgumentError(
                    "amplitude %r at %r is not a complex number" % (value, key)
                )
            keys.append(key)
        if normalize:
            # Python arithmetic term by term in the given order, so rescaled
            # amplitudes do not depend on numpy's summation; a norm that is
            # zero or not finite is left for _set to refuse
            try:
                norm = math.sqrt(sum(abs(v) ** 2 for v in values))
            except OverflowError:
                norm = math.inf
            if 0 < norm < math.inf:
                values = [v / norm for v in values]
        values = np.array(values, dtype=complex)
        self._set(num_parties, local_dim, _int64_table(keys), values)

    @classmethod
    def _from_arrays(cls, num_parties, local_dim, rows, values):
        """The state on the (r, N) integer table ``rows``, in any order, with
        the r amplitudes ``values``; it takes the same check as a mapping."""
        state = cls.__new__(cls)
        state._set(
            *_dims(num_parties, local_dim),
            np.asarray(rows, dtype=np.int64),
            np.asarray(values, dtype=complex),
        )
        return state

    def _set(self, num_parties, local_dim, rows, values):
        """Check the support and store it, sorted and read-only: symbols in
        range, exact zeros dropped, distinct rows, and a norm of 1 within
        NORM_TOL."""
        _require_symbols(rows, local_dim, ArgumentError)
        nonzero = values != 0
        if not nonzero.all():
            rows, values = rows[nonzero], values[nonzero]
        if not len(values):
            raise ArgumentError("state has empty support")
        norm = _norm(values)
        if not 0 < norm < math.inf:
            raise ArgumentError("state norm %r is zero or not finite" % norm)
        if abs(norm - 1.0) > NORM_TOL:
            raise ArgumentError("state norm %.17g is not 1 within %g" % (norm, NORM_TOL))
        order, distinct = _row_order(rows)
        if not distinct:
            raise ArgumentError("support rows are not distinct")
        if order is not None:
            rows, values = rows[order], values[order]
        rows.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "num_parties", num_parties)
        object.__setattr__(self, "local_dim", local_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_amplitudes", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparseState is immutable")

    @property
    def amplitudes(self):
        if self._amplitudes is None:
            mapping = dict(zip(map(tuple, self.rows.tolist()), self.values.tolist()))
            object.__setattr__(self, "_amplitudes", MappingProxyType(mapping))
        return self._amplitudes

    @property
    def support_size(self):
        return len(self.values)

    def support(self):
        """Support tuples in lexicographic order."""
        return list(map(tuple, self.rows.tolist()))

    def norm(self):
        return _norm(self.values)

    def dense(self):
        """Expand to a dense (d,) * N complex tensor of at most DENSE_CAP entries."""
        size = self.local_dim**self.num_parties
        if size > DENSE_CAP:
            raise CapacityError(
                "dense expansion needs %d entries, cap is %d" % (size, DENSE_CAP)
            )
        out = np.zeros((self.local_dim,) * self.num_parties, dtype=complex)
        out[tuple(self.rows.T)] = self.values
        return out

    def __repr__(self):
        return "SparseState(num_parties=%d, local_dim=%d, support=%d)" % (
            self.num_parties,
            self.local_dim,
            self.support_size,
        )


def _norm(values):
    """The 2-norm of the complex vector ``values``: inf once the squares
    pass the float range, 0.0 once they all underflow."""
    return math.sqrt(np.vdot(values, values).real)


def _uniform(num_parties, local_dim, rows, phases):
    """The uniform-magnitude state on the (r, N) table ``rows``: amplitude
    exp(i theta) / sqrt(r) on row i for each (i, theta) of ``phases``, and
    1 / sqrt(r) elsewhere."""
    scale = 1.0 / math.sqrt(len(rows))
    values = np.full(len(rows), scale, dtype=complex)
    for i, theta in phases:
        values[i] = cmath.exp(1j * theta) * scale
    return SparseState._from_arrays(num_parties, local_dim, rows, values)


def from_iroa(oa, phases=None):
    """Build the uniform-magnitude state carried by an orthogonal array.

    Each row s of ``oa`` contributes the ket |s> with amplitude
    exp(i * theta_s) / sqrt(r).  ``phases`` maps rows to angles in radians;
    absent rows default to phase 0.

    Raises
    ------
    DuplicateRowError
        The array has a repeated full row (amplitude keys must be unique).
    KeyError
        A phase key is not a row of the array.
    """
    phases = dict(phases or {})
    keys = list(phases)
    # the rows and the keys that may be rows, coded together: the code
    # increases with the rows, so one sort orders them and finds each key
    top = int(oa.rows.max())
    fits = [
        len(k) == oa.num_parties
        and all(isinstance(s, numbers.Integral) and 0 <= s <= top for s in k)
        for k in keys
    ]
    wanted = [tuple(k) if ok else oa.rows[0] for k, ok in zip(keys, fits)]
    wanted = np.array(wanted, dtype=np.int64).reshape(-1, oa.num_parties)
    table = np.concatenate([oa.rows, wanted])
    code, _ = _codes(len(table), table.T)
    order = np.argsort(code[: oa.r], kind="stable")
    code, wanted = code[order], code[oa.r :]
    if not (code[1:] > code[:-1]).all():
        raise DuplicateRowError("array rows are not pairwise distinct")
    at = np.searchsorted(code, wanted).clip(max=oa.r - 1)
    found = np.logical_and(fits, code[at] == wanted)
    if not found.all():
        raise KeyError("phase key %r is not an array row" % (keys[np.argmin(found)],))
    marked = zip(at.tolist(), phases.values())
    return _uniform(oa.num_parties, oa.local_dim, oa.rows[order], marked)


# five-qubit code words: (ket, sign) with amplitude sign / sqrt(8)
_CODE_ZERO = (
    ((0, 0, 0, 0, 0), 1),
    ((0, 0, 1, 1, 1), 1),
    ((0, 1, 0, 1, 0), -1),
    ((0, 1, 1, 0, 1), 1),
    ((1, 0, 0, 0, 1), -1),
    ((1, 0, 1, 1, 0), -1),
    ((1, 1, 0, 1, 1), -1),
    ((1, 1, 1, 0, 0), 1),
)
_CODE_ONE = (
    ((0, 0, 0, 1, 1), 1),
    ((0, 0, 1, 0, 0), 1),
    ((0, 1, 0, 0, 1), -1),
    ((0, 1, 1, 1, 0), 1),
    ((1, 0, 0, 1, 0), 1),
    ((1, 0, 1, 0, 1), 1),
    ((1, 1, 0, 0, 0), 1),
    ((1, 1, 1, 1, 1), -1),
)


def _require_dim(name, d, forced):
    if d is None:
        return forced
    if d != forced:
        raise ArgumentError("catalog state %r forces d=%d, got d=%d" % (name, forced, d))
    return forced


def catalog_state(name, d=None, theta=0.0):
    """Build a named one-parameter state family.

    Known names:

    ``psi3d``
        Three parties, (1/d) * sum_{j,k} e^{i theta_{jk}} |j, k, j+k mod d>
        with theta_{0,0} = theta and all other phases zero.  Needs d >= 2.
    ``ghz``
        (|000> + |111>) / sqrt(2) with phase theta on |000>.  Forces d = 2.
    ``ame43``
        The minimal-support four-qutrit state with the nine kets
        |a, b, a+b, 2a+b> (mod 3) of amplitude 1/3, phase theta on |0000>.
        Forces d = 3.
    ``ame52``
        cos(theta) |c0> + sin(theta) |c1> over the five-qubit code words
        |c0>, |c1>, kept at unit norm.  Forces d = 2.
    ``psi5d``
        Five parties: amplitude e^{i theta_{jk}} e^{2 pi i j l / d} / d^{3/2}
        on the tuple (j, k, j+k, l+k, l) mod d, theta_{0,0} = theta.
        Needs d >= 2.

    Raises CatalogError for unknown names and ArgumentError for an
    incompatible or non-integer local dimension.
    """
    if d is not None:
        d = _integer(d, "local dimension d=%r")
    key = str(name).lower()
    if key == "psi3d":
        if d is None or d < 2:
            raise ArgumentError("psi3d needs an explicit local dimension d >= 2")
        j, k = np.divmod(np.arange(d * d), d)
        return _uniform(3, d, np.column_stack((j, k, (j + k) % d)), [(0, theta)])
    if key == "ghz":
        d = _require_dim(key, d, 2)
        return _uniform(3, d, [[0, 0, 0], [1, 1, 1]], [(0, theta)])
    if key == "ame43":
        d = _require_dim(key, d, 3)
        a, b = np.divmod(np.arange(9), 3)
        rows = np.column_stack((a, b, (a + b) % 3, (2 * a + b) % 3))
        return _uniform(4, d, rows, [(0, theta)])
    if key == "ame52":
        d = _require_dim(key, d, 2)
        scale = 1.0 / math.sqrt(8.0)
        kets, signs = zip(*(_CODE_ZERO + _CODE_ONE))
        weights = np.repeat([math.cos(theta), math.sin(theta)], len(_CODE_ZERO))
        # cos^2 + sin^2 keeps the norm at exactly 1; zero branches drop out
        return SparseState._from_arrays(5, d, kets, np.array(signs) * weights * scale)
    if key == "psi5d":
        if d is None or d < 2:
            raise ArgumentError("psi5d needs an explicit local dimension d >= 2")
        # rows (j, k, j+k, m, l) with m = l+k mod d, in sorted order
        j, k, m = np.unravel_index(np.arange(d**3), (d, d, d))
        l = (m - k) % d
        scale = d**-1.5

        def amplitude(phase, a, b):
            # the per-row formula as cmath evaluates it, on the d^2 distinct
            # (j, l) and the d marked rows (0, 0, l)
            return cmath.exp(1j * phase) * cmath.exp(2j * math.pi * a * b / d) * scale

        table = [[amplitude(0.0, a, b) for b in range(d)] for a in range(d)]
        values = np.array(table)[j, l]
        values[:d] = [amplitude(theta, 0, b) for b in range(d)]
        rows = np.column_stack((j, k, (j + k) % d, m, l))
        return SparseState._from_arrays(5, d, rows, values)
    raise CatalogError("unknown catalog state %r" % (name,))


def compose(s1, s2):
    """Pair two N-party states into one of local dimension d1 * d2.

    Party i of the result carries the composite symbol l = i1 * d2 + i2
    (row-major flattening); the amplitude is the product of the
    constituent amplitudes.
    """
    if s1.num_parties != s2.num_parties:
        raise ArgumentError(
            "party counts differ: %d vs %d" % (s1.num_parties, s2.num_parties)
        )
    rows = s1.rows[:, None, :] * s2.local_dim + s2.rows[None, :, :]
    return SparseState._from_arrays(
        s1.num_parties,
        s1.local_dim * s2.local_dim,
        rows.reshape(-1, s1.num_parties),
        np.multiply.outer(s1.values, s2.values).ravel(),
    )


def _seeded_unitaries(rng, num_parties, d):
    out = []
    for _ in range(num_parties):
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
        q, upper = np.linalg.qr(z)
        diag = np.diagonal(upper)
        q = q * (diag / np.abs(diag))[np.newaxis, :]
        out.append(q)
    return out


def random_local_unitary_apply(s, seed):
    """Apply a seeded product of Haar-like local unitaries, densely.

    Each d x d factor is obtained by QR-orthonormalizing a seeded complex
    Gaussian matrix with the usual phase fix.  Returns the transformed
    amplitude tensor of shape (d,) * N; the same seed gives the same output.
    """
    tensor = s.dense()
    rng = np.random.default_rng(seed)
    for j, u in enumerate(_seeded_unitaries(rng, s.num_parties, s.local_dim)):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [j])), 0, j)
    return tensor


def state_to_dict(s):
    """JSON-ready form: terms sorted by index tuple for stable output."""
    terms = [
        {"idx": key, "re": value.real, "im": value.imag}
        for key, value in zip(s.rows.tolist(), s.values.tolist())
    ]
    return {
        "num_parties": s.num_parties,
        "local_dim": s.local_dim,
        "terms": terms,
    }


def _number(value, kind):
    """``value`` if it is a JSON number of that kind (``numbers.Integral``
    or ``numbers.Real``); a bool, a string or, for an integer, a float is
    refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise TypeError("%r is not %s" % (value, what))
    return value


def state_from_dict(data, allow_unnormalized=False):
    """Read the state JSON object form.

    ``num_parties``, ``local_dim`` and every ``idx`` entry must be JSON
    integers, and ``re``/``im`` JSON numbers; anything else, a float or a
    bool included, is a ParseError.  Duplicate ``idx`` keys are rejected.
    A non-unit norm is rejected unless ``allow_unnormalized`` is set, in
    which case the amplitudes are rescaled to unit norm; a norm that is
    not finite (a ``NaN`` or ``Infinity`` amplitude) is rejected either way.
    """
    try:
        num_parties = _number(data["num_parties"], numbers.Integral)
        local_dim = _number(data["local_dim"], numbers.Integral)
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError("bad state object: %s" % exc)
    if not isinstance(terms, list) or not terms:
        raise ParseError("state object needs a non-empty 'terms' list")
    amps = {}
    for term in terms:
        try:
            if not isinstance(term["idx"], list):
                raise TypeError("idx %r is not a list" % (term["idx"],))
            idx = tuple(_number(v, numbers.Integral) for v in term["idx"])
            value = complex(
                _number(term["re"], numbers.Real),
                _number(term.get("im", 0.0), numbers.Real),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError("bad term %r: %s" % (term, exc))
        if idx in amps:
            raise ParseError("duplicate idx %r" % (idx,))
        amps[idx] = value
    try:
        return SparseState(num_parties, local_dim, amps, normalize=allow_unnormalized)
    except ArgumentError as exc:
        raise ParseError(str(exc))
