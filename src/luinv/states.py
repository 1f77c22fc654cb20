"""Sparse multipartite pure states.

A state of N parties with local dimension d is stored as a map from
N-tuples over {0..d-1} to complex amplitudes.  Constructors cover the
generic build from an irredundant orthogonal array with per-row phases,
a small catalog of named one-parameter families, and the composite
pairing that merges two N-party states into one with local dimension
d1 * d2.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    CatalogError,
    ParseError,
)
from .oa import OrthogonalArray, require_distinct_rows

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
    """Immutable sparse amplitude map for an N-party pure state.

    Parameters
    ----------
    num_parties : int
    local_dim : int
    amplitudes : mapping from N-tuples to complex
        Exact zeros are dropped; the remaining keys are the support.
        ``num_parties``, ``local_dim`` and the key symbols must be
        integers (numpy integers included); anything else, such as 1.7,
        raises ArgumentError rather than being truncated.
    normalize : bool
        When true the amplitudes are rescaled to unit norm; otherwise the
        norm must already be 1 within NORM_TOL.  A norm that is not finite
        (a NaN or infinite amplitude, or squares past the float range), or
        that underflows to zero, raises ArgumentError either way.
    """

    __slots__ = ("num_parties", "local_dim", "amplitudes")

    def __init__(self, num_parties, local_dim, amplitudes, normalize=False):
        try:
            num_parties = operator.index(num_parties)
            local_dim = operator.index(local_dim)
        except TypeError:
            raise ArgumentError("num_parties and local_dim must be integers")
        if num_parties < 1 or local_dim < 1:
            raise ArgumentError("num_parties and local_dim must be >= 1")
        amps = {}
        for key, value in amplitudes.items():
            try:
                key = tuple(operator.index(s) for s in key)
            except TypeError:
                raise ArgumentError("key %r holds a non-integer symbol" % (key,))
            if len(key) != num_parties:
                raise ArgumentError("key %r is not an %d-tuple" % (key, num_parties))
            for s in key:
                if not 0 <= s < local_dim:
                    raise ArgumentError(
                        "symbol %d outside {0..%d}" % (s, local_dim - 1)
                    )
            value = complex(value)
            if value != 0:
                amps[key] = value
        if not amps:
            raise ArgumentError("state has empty support")
        try:
            norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        except OverflowError:
            norm = math.inf
        if not 0 < norm < math.inf:
            raise ArgumentError("state norm %r is zero or not finite" % norm)
        if normalize:
            amps = {k: v / norm for k, v in amps.items()}
        elif abs(norm - 1.0) > NORM_TOL:
            raise ArgumentError("state norm %.17g is not 1 within %g" % (norm, NORM_TOL))
        object.__setattr__(self, "num_parties", num_parties)
        object.__setattr__(self, "local_dim", local_dim)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("SparseState is immutable")

    @property
    def support_size(self):
        return len(self.amplitudes)

    def support(self):
        """Support tuples in lexicographic order."""
        return sorted(self.amplitudes)

    def norm(self):
        return math.sqrt(sum(abs(v) ** 2 for v in self.amplitudes.values()))

    def dense(self):
        """Expand to a dense (d,) * N complex tensor of at most DENSE_CAP entries."""
        size = self.local_dim**self.num_parties
        if size > DENSE_CAP:
            raise CapacityError(
                "dense expansion needs %d entries, cap is %d" % (size, DENSE_CAP)
            )
        out = np.zeros((self.local_dim,) * self.num_parties, dtype=complex)
        for key, value in self.amplitudes.items():
            out[key] = value
        return out

    def __repr__(self):
        return "SparseState(num_parties=%d, local_dim=%d, support=%d)" % (
            self.num_parties,
            self.local_dim,
            self.support_size,
        )


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
    require_distinct_rows(oa)
    rows = oa.rows
    phases = dict(phases) if phases else {}
    row_set = set(rows)
    for key in phases:
        if tuple(key) not in row_set:
            raise KeyError("phase key %r is not an array row" % (key,))
    scale = 1.0 / math.sqrt(len(rows))
    amps = {}
    for row in rows:
        theta = phases.get(row, 0.0)
        amps[row] = cmath.exp(1j * theta) * scale
    return SparseState(oa.num_parties, oa.local_dim, amps)


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
    incompatible local dimension.
    """
    key = str(name).lower()
    if key == "psi3d":
        if d is None or d < 2:
            raise ArgumentError("psi3d needs an explicit local dimension d >= 2")
        rows = tuple((j, k, (j + k) % d) for j in range(d) for k in range(d))
        return from_iroa(OrthogonalArray(rows, 3, d), {rows[0]: theta})
    if key == "ghz":
        d = _require_dim(key, d, 2)
        rows = ((0, 0, 0), (1, 1, 1))
        return from_iroa(OrthogonalArray(rows, 3, d), {rows[0]: theta})
    if key == "ame43":
        d = _require_dim(key, d, 3)
        rows = tuple(
            (a, b, (a + b) % 3, (2 * a + b) % 3) for a in range(3) for b in range(3)
        )
        return from_iroa(OrthogonalArray(rows, 4, d), {rows[0]: theta})
    if key == "ame52":
        d = _require_dim(key, d, 2)
        scale = 1.0 / math.sqrt(8.0)
        c, s = math.cos(theta), math.sin(theta)
        amps = {}
        for ket, sign in _CODE_ZERO:
            amps[ket] = sign * c * scale
        for ket, sign in _CODE_ONE:
            amps[ket] = sign * s * scale
        # cos^2 + sin^2 keeps the norm at exactly 1; zero branches drop out
        return SparseState(5, d, amps)
    if key == "psi5d":
        if d is None or d < 2:
            raise ArgumentError("psi5d needs an explicit local dimension d >= 2")
        scale = d**-1.5
        amps = {}
        for j in range(d):
            for k in range(d):
                phase = theta if (j == 0 and k == 0) else 0.0
                front = cmath.exp(1j * phase)
                for l in range(d):
                    ket = (j, k, (j + k) % d, (l + k) % d, l)
                    amps[ket] = front * cmath.exp(2j * math.pi * j * l / d) * scale
        return SparseState(5, d, amps)
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
    d2 = s2.local_dim
    amps = {}
    for k1, a1 in s1.amplitudes.items():
        for k2, a2 in s2.amplitudes.items():
            key = tuple(i * d2 + j for i, j in zip(k1, k2))
            amps[key] = a1 * a2
    return SparseState(s1.num_parties, s1.local_dim * d2, amps)


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
        {"idx": list(key), "re": value.real, "im": value.imag}
        for key, value in sorted(s.amplitudes.items())
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
