"""State construction: IrOA build, catalog families, composition, I/O."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from luinv import (
    ArgumentError,
    CapacityError,
    CatalogError,
    DuplicateRowError,
    OrthogonalArray,
    ParseError,
    SparseState,
    catalog_state,
    compose,
    from_iroa,
    parse_oa,
    random_local_unitary_apply,
    state_from_dict,
    state_to_dict,
)
from tests.conftest import EXAMPLE_OA_TEXT


def test_sparse_state_drops_exact_zeros():
    s = SparseState(2, 2, {(0, 0): 1.0, (1, 1): 0.0})
    assert s.support() == [(0, 0)]
    assert s.support_size == 1


def test_sparse_state_rejects_norm_off_unit():
    with pytest.raises(ArgumentError):
        SparseState(2, 2, {(0, 0): 0.5})


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "amps",
    [
        {(0, 0): math.nan, (1, 1): 0.5},
        {(0, 0): complex(0.6, math.inf), (1, 1): 0.8},
        # finite amplitudes whose square, or sum of squares, overflows
        {(0, 0): 1e200, (1, 1): 1.0},
        {(0, 0): 1e154, (1, 1): 1e154},
    ],
)
def test_sparse_state_rejects_non_finite_norm(amps, normalize):
    with pytest.raises(ArgumentError, match="not finite"):
        SparseState(2, 2, amps, normalize=normalize)


@pytest.mark.parametrize("normalize", [False, True])
def test_sparse_state_rejects_zero_norm(normalize):
    # each square underflows to 0.0
    with pytest.raises(ArgumentError, match="norm 0.0 is zero"):
        SparseState(2, 2, {(0, 0): 1e-200, (1, 1): 1e-200}, normalize=normalize)


def test_sparse_state_normalize_flag():
    s = SparseState(2, 2, {(0, 0): 3.0, (1, 1): 4.0}, normalize=True)
    assert abs(s.norm() - 1.0) < 1e-15
    assert abs(s.amplitudes[(0, 0)] - 0.6) < 1e-15


def test_sparse_state_rejects_bad_keys():
    with pytest.raises(ArgumentError):
        SparseState(2, 2, {(0, 0, 0): 1.0})
    with pytest.raises(ArgumentError):
        SparseState(2, 2, {(0, 2): 1.0})
    with pytest.raises(ArgumentError):
        SparseState(2, 2, {})


def test_sparse_state_rejects_non_integer_symbols():
    # int() would truncate these to the key (0, 1)
    for key in ((0.9, 1.7), (0, 1.0), (0, np.float64(1.0))):
        with pytest.raises(ArgumentError, match="non-integer symbol"):
            SparseState(2, 2, {key: 1.0})
    s = SparseState(2, 2, {(np.int64(0), np.int32(1)): 1.0})
    assert s.amplitudes == {(0, 1): 1.0}
    assert all(type(v) is int for v in s.support()[0])
    # symbol 2 would pass a check against local_dim 2.5
    with pytest.raises(ArgumentError, match="must be integers"):
        SparseState(2, 2.5, {(0, 2): 1.0})
    with pytest.raises(ArgumentError, match="must be integers"):
        SparseState(2.0, 2, {(0, 1): 1.0})
    assert SparseState(np.int64(2), np.int64(3), {(0, 2): 1.0}).local_dim == 3


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("value", ["1", b"1", None, np.bool_(True), [1.0]])
def test_sparse_state_rejects_non_numeric_amplitudes(value, normalize):
    # complex("1") would read the string as amplitude 1
    with pytest.raises(ArgumentError, match="is not a number"):
        SparseState(1, 2, {(0,): value}, normalize=normalize)


@pytest.mark.parametrize(
    "value", [1, np.int64(1), np.float32(1.0), np.complex64(1.0), Fraction(1)]
)
def test_sparse_state_accepts_numbers(value):
    assert SparseState(1, 2, {(0,): value}).amplitudes == {(0,): 1.0}


def test_sparse_state_rejects_amplitude_past_float_range():
    with pytest.raises(ArgumentError, match="not a complex number"):
        SparseState(1, 2, {(0,): 10**400})


def test_sparse_state_rejects_symbol_past_int64():
    with pytest.raises(ArgumentError, match="past int64"):
        SparseState(2, 2, {(0, 2**64): 1.0})


class _Symbol:
    """An integer symbol whose hash is its identity, so two of them with
    one value are two keys of a dict."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_sparse_state_rejects_repeated_rows():
    amps = {(_Symbol(0), 1): 0.6, (_Symbol(0), 1): 0.8}
    with pytest.raises(ArgumentError, match="not distinct"):
        SparseState(2, 2, amps)


def test_sparse_state_immutable():
    s = SparseState(2, 2, {(0, 0): 1.0})
    with pytest.raises(AttributeError):
        s.local_dim = 5
    with pytest.raises(AttributeError):
        s.rows = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(TypeError):
        s.amplitudes[(0, 0)] = 0.5
    with pytest.raises(TypeError):
        del s.amplitudes[(0, 0)]
    assert s.amplitudes == {(0, 0): 1.0}


def _random_mapping_state(seed):
    gen = np.random.default_rng(seed)
    num_parties, local_dim = int(gen.integers(1, 6)), int(gen.integers(1, 5))
    keys = {
        tuple(int(v) for v in gen.integers(0, local_dim, size=num_parties))
        for _ in range(int(gen.integers(1, 40)))
    }
    amps = {k: complex(*gen.standard_normal(2)) for k in keys}
    return SparseState(num_parties, local_dim, amps, normalize=True)


HALF_PI = math.pi / 2

STORED_STATES = {
    **{"random-%d" % seed: (_random_mapping_state, seed) for seed in range(20)},
    **{"psi3d-%d" % d: (catalog_state, "psi3d", d, 0.4) for d in range(2, 8)},
    **{"psi5d-%d" % d: (catalog_state, "psi5d", d, 2.2) for d in range(2, 6)},
    **{"ame52-%g" % t: (catalog_state, "ame52", None, t) for t in (0, 0.3, HALF_PI)},
    "ghz": (catalog_state, "ghz", None, 1.0),
    "ame43": (catalog_state, "ame43", None, 3.0),
    "iroa": (lambda: from_iroa(parse_oa(EXAMPLE_OA_TEXT), {(1, 2, 0): 0.5}),),
    "iroa-reversed": (
        lambda: from_iroa(OrthogonalArray(parse_oa(EXAMPLE_OA_TEXT).rows[::-1], 3, 3)),
    ),
    "compose": (
        lambda: compose(catalog_state("ghz", theta=0.2), catalog_state("psi3d", d=3)),
    ),
}


class TestSupportArrays:
    @pytest.mark.parametrize("name", sorted(STORED_STATES))
    def test_sorted_read_only_and_equal_to_the_mapping(self, name):
        build, *args = STORED_STATES[name]
        s = build(*args)
        rows, values = s.rows, s.values
        assert rows.dtype == np.int64 and values.dtype == np.complex128
        assert rows.shape == (s.support_size, s.num_parties)
        assert values.shape == (s.support_size,)
        tuples = [tuple(row) for row in rows.tolist()]
        assert tuples == sorted(set(tuples))
        assert list(zip(tuples, values.tolist())) == sorted(s.amplitudes.items())
        assert s.support() == tuples
        for array in (rows, values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_mapping_order_does_not_matter(self):
        amps = {(1, 0): 0.6, (0, 1): 0.8j}
        s = SparseState(2, 2, amps)
        assert s.rows.tolist() == [[0, 1], [1, 0]]
        assert s.values.tolist() == [0.8j, 0.6]
        assert s.amplitudes == amps

    @pytest.mark.parametrize("d", range(2, 20))
    def test_psi5d_matches_the_per_row_formula(self, d):
        theta = 0.9
        s = catalog_state("psi5d", d=d, theta=theta)
        assert s.support_size == d**3
        for (j, k, a, b, l), amp in s.amplitudes.items():
            assert (a, b) == ((j + k) % d, (l + k) % d)
            phase = theta if j == k == 0 else 0.0
            want = cmath.exp(1j * phase) * cmath.exp(2j * math.pi * j * l / d) * d**-1.5
            assert abs(amp - want) <= 1e-15


def test_dense_round_trip():
    s = SparseState(2, 2, {(0, 1): 0.6, (1, 0): 0.8j})
    t = s.dense()
    assert t.shape == (2, 2)
    assert t[0, 1] == 0.6
    assert t[1, 0] == 0.8j
    assert t[0, 0] == 0


def test_dense_cap():
    # 8^8 entries, over DENSE_CAP
    s = SparseState(8, 8, {(0,) * 8: 1.0})
    with pytest.raises(CapacityError, match="16777216 entries"):
        s.dense()


class TestFromIroa:
    def test_example_oa_uniform(self, example_oa):
        s = from_iroa(example_oa)
        assert s.support_size == 9
        assert all(abs(a - 1 / 3) < 1e-15 for a in s.amplitudes.values())

    def test_phase_marks_single_row(self, example_oa):
        s = from_iroa(example_oa, {(0, 0, 0): math.pi})
        assert abs(s.amplitudes[(0, 0, 0)] + 1 / 3) < 1e-15
        assert abs(s.amplitudes[(1, 2, 0)] - 1 / 3) < 1e-15

    def test_ghz(self, ghz_oa):
        s = from_iroa(ghz_oa)
        assert s.local_dim == 2
        assert abs(s.amplitudes[(0, 0, 0)] - 1 / math.sqrt(2)) < 1e-15

    def test_duplicate_rows_rejected(self):
        oa = OrthogonalArray(rows=((0, 0), (0, 0)), num_parties=2, local_dim=1)
        with pytest.raises(DuplicateRowError):
            from_iroa(oa)

    def test_unknown_phase_key(self, example_oa):
        with pytest.raises(KeyError):
            from_iroa(example_oa, {(0, 0, 1): 0.5})

    @pytest.mark.parametrize(
        "key", [(0, 0, 1), (0, 0), (0, 0, 0, 0), (0, 0, 3), (0, -1, 2), (1.0, 1.0, 2.0)]
    )
    def test_first_key_not_a_row_named(self, example_oa, key):
        """Keys are looked up in the sorted table; the first that is not a
        row, in the mapping's order, is named."""
        with pytest.raises(KeyError, match=re.escape("phase key %r is not" % (key,))):
            from_iroa(example_oa, {(1, 2, 0): 0.5, key: 0.5, (2, 2, 2): 0.5})

    def test_every_row_phased_on_unsorted_rows(self, example_oa):
        rows = example_oa.rows.tolist()[::-1]
        thetas = {tuple(row): 0.1 * i for i, row in enumerate(rows)}
        # numpy integer symbols name the same rows
        keys = {tuple(np.int8(v) for v in k): t for k, t in thetas.items()}
        s = from_iroa(OrthogonalArray(rows, 3, 3), keys)
        for key, theta in thetas.items():
            assert s.amplitudes[key] == cmath.exp(1j * theta) * (1 / 3)


class TestCatalog:
    def test_psi3d_matches_example_oa(self, example_oa):
        s = catalog_state("psi3d", d=3)
        t = from_iroa(example_oa)
        assert s.amplitudes.keys() == t.amplitudes.keys()
        assert all(
            abs(s.amplitudes[k] - t.amplitudes[k]) < 1e-15 for k in s.amplitudes
        )

    def test_psi3d_theta_on_origin_only(self):
        s = catalog_state("psi3d", d=3, theta=1.0)
        assert abs(s.amplitudes[(0, 0, 0)] - cmath.exp(1j) / 3) < 1e-15
        assert abs(s.amplitudes[(1, 0, 1)] - 1 / 3) < 1e-15

    def test_psi3d_needs_dim(self):
        with pytest.raises(ArgumentError):
            catalog_state("psi3d")
        with pytest.raises(ArgumentError):
            catalog_state("psi3d", d=1)

    def test_ghz_support(self):
        s = catalog_state("ghz")
        assert s.support() == [(0, 0, 0), (1, 1, 1)]
        assert s.local_dim == 2

    def test_ghz_forces_qubits(self):
        with pytest.raises(ArgumentError):
            catalog_state("ghz", d=3)

    def test_ame43_rows(self):
        s = catalog_state("ame43")
        assert s.num_parties == 4
        assert s.support_size == 9
        assert (1, 2, 0, 1) in s.amplitudes
        assert all(abs(a - 1 / 3) < 1e-15 for a in s.amplitudes.values())

    def test_ame52_code_word_zero(self):
        """theta = 0 leaves the first code word: 8 kets, four minus signs."""
        s = catalog_state("ame52")
        assert s.support_size == 8
        scale = 1 / math.sqrt(8)
        assert abs(s.amplitudes[(0, 0, 0, 0, 0)] - scale) < 1e-15
        assert abs(s.amplitudes[(0, 1, 0, 1, 0)] + scale) < 1e-15
        signs = sorted(
            round(a.real * math.sqrt(8)) for a in s.amplitudes.values()
        )
        assert signs == [-1, -1, -1, -1, 1, 1, 1, 1]

    def test_ame52_code_word_one(self):
        """Near theta = pi/2 the second code word dominates: two minus signs.

        cos(pi/2) rounds to 6e-17 rather than zero, so the first code word
        is suppressed but not dropped; only exact zeros leave the support.
        """
        s = catalog_state("ame52", theta=math.pi / 2)
        big = {k: a for k, a in s.amplitudes.items() if abs(a) > 1e-12}
        assert len(big) == 8
        assert (1, 1, 0, 0, 0) in big
        scale = 1 / math.sqrt(8)
        assert abs(big[(0, 1, 0, 0, 1)] + scale) < 1e-15
        assert abs(big[(1, 1, 1, 1, 1)] + scale) < 1e-15
        signs = sorted(round(a.real * math.sqrt(8)) for a in big.values())
        assert signs == [-1, -1, 1, 1, 1, 1, 1, 1]

    def test_ame52_superposition_norm(self):
        s = catalog_state("ame52", theta=0.3)
        assert s.support_size == 16
        assert abs(s.norm() - 1.0) < 1e-12

    def test_psi5d_qubit_case(self):
        """At d=2 the amplitudes reduce to (-1)^(jl) / 2^(3/2)."""
        s = catalog_state("psi5d", d=2)
        assert s.support_size == 8
        scale = 2**-1.5
        for (j, k, a, b, l), amp in s.amplitudes.items():
            assert a == (j + k) % 2
            assert b == (l + k) % 2
            assert abs(amp - ((-1) ** (j * l)) * scale) < 1e-15

    def test_psi5d_support_size(self):
        s = catalog_state("psi5d", d=3)
        assert s.num_parties == 5
        assert s.support_size == 27

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            catalog_state("bell")

    @pytest.mark.parametrize(
        "name,d", [("psi3d", 3.0), ("psi5d", 2.0), ("ghz", 2.0), ("ame43", 3.0)]
    )
    def test_non_integer_dim_refused(self, name, d):
        # range() would raise TypeError; 2.0 == 2 would pass a forced d
        with pytest.raises(ArgumentError, match="not an integer"):
            catalog_state(name, d=d)

    def test_numpy_integer_dim(self):
        s = catalog_state("psi3d", d=np.int64(3), theta=0.5)
        t = catalog_state("psi3d", d=3, theta=0.5)
        assert type(s.local_dim) is int
        assert s.amplitudes == t.amplitudes
        assert catalog_state("ghz", d=np.int32(2)).local_dim == 2


class TestCompose:
    def test_ghz_pair(self):
        g = catalog_state("ghz")
        c = compose(g, g)
        assert c.local_dim == 4
        assert c.support() == [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
        assert abs(c.amplitudes[(1, 1, 1)] - 0.5) < 1e-15

    def test_norm_unit(self):
        a = catalog_state("psi3d", d=2, theta=0.7)
        b = catalog_state("ghz")
        assert abs(compose(a, b).norm() - 1.0) < 1e-12

    def test_flattening_is_row_major(self):
        a = SparseState(2, 2, {(1, 0): 1.0})
        b = SparseState(2, 3, {(2, 1): 1.0})
        c = compose(a, b)
        assert c.support() == [(1 * 3 + 2, 0 * 3 + 1)]

    def test_associative_under_flattening(self):
        a = catalog_state("ghz", theta=0.2)
        b = catalog_state("psi3d", d=2)
        c = catalog_state("psi3d", d=3, theta=1.1)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.local_dim == right.local_dim == 12
        assert left.amplitudes.keys() == right.amplitudes.keys()
        assert all(
            abs(left.amplitudes[k] - right.amplitudes[k]) < 1e-14
            for k in left.amplitudes
        )

    def test_party_count_mismatch(self):
        a = catalog_state("ghz")
        b = catalog_state("ame43")
        with pytest.raises(ArgumentError):
            compose(a, b)


class TestRandomLocalUnitary:
    def test_norm_preserved(self):
        s = catalog_state("psi3d", d=3, theta=0.4)
        t = random_local_unitary_apply(s, seed=11)
        assert abs(np.linalg.norm(t.ravel()) - 1.0) < 1e-12

    def test_seed_determinism(self):
        s = catalog_state("ghz")
        t1 = random_local_unitary_apply(s, seed=5)
        t2 = random_local_unitary_apply(s, seed=5)
        t3 = random_local_unitary_apply(s, seed=6)
        assert np.array_equal(t1, t2)
        assert not np.allclose(t1, t3)


def _state(**fields):
    """A valid two-qubit state object, with ``fields`` replaced."""
    data = {"num_parties": 2, "local_dim": 2, "terms": [{"idx": [0, 1], "re": 1.0}]}
    data.update(fields)
    return data


class TestDictForm:
    def test_round_trip(self):
        s = catalog_state("ame52", theta=0.3)
        data = state_to_dict(s)
        t = state_from_dict(data)
        assert t.amplitudes == s.amplitudes
        assert t.num_parties == 5 and t.local_dim == 2

    def test_terms_sorted(self):
        s = catalog_state("ghz")
        data = state_to_dict(s)
        assert [term["idx"] for term in data["terms"]] == [[0, 0, 0], [1, 1, 1]]

    def test_duplicate_idx_rejected(self):
        data = {
            "num_parties": 1,
            "local_dim": 2,
            "terms": [
                {"idx": [0], "re": 1.0, "im": 0.0},
                {"idx": [0], "re": 0.0, "im": 0.0},
            ],
        }
        with pytest.raises(ParseError):
            state_from_dict(data)

    def test_unnormalized_rejected_by_default(self):
        data = {"num_parties": 1, "local_dim": 2, "terms": [{"idx": [0], "re": 2.0}]}
        with pytest.raises(ParseError):
            state_from_dict(data)
        s = state_from_dict(data, allow_unnormalized=True)
        assert abs(s.amplitudes[(0,)] - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "data",
        [
            # read by int() and float(), this was the qubit state |0,1>
            {
                "num_parties": 2.9,
                "local_dim": 2.5,
                "terms": [{"idx": [0.9, 1.7], "re": True}],
            },
            _state(num_parties=2.0),
            _state(local_dim=True),
            _state(terms=[{"idx": [0.0, 1], "re": 1.0}]),
            _state(terms=[{"idx": [0, False], "re": 1.0}]),
            _state(terms=[{"idx": [0, 1], "re": True}]),
            _state(terms=[{"idx": [0, 1], "re": 1.0, "im": False}]),
            _state(terms=[{"idx": [0, 1], "re": "1"}]),
            # an integer past the float range
            _state(terms=[{"idx": [0, 1], "re": 10**400}]),
            _state(terms=[{"idx": "01", "re": 1.0}]),
        ],
    )
    def test_non_integer_fields_rejected(self, data):
        with pytest.raises(ParseError):
            state_from_dict(data)

    def test_integer_amplitudes_accepted(self):
        data = _state(terms=[{"idx": [0, 1], "re": 1, "im": 0}])
        assert state_from_dict(data).amplitudes == {(0, 1): 1.0}

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            state_from_dict({"num_parties": 2, "terms": []})
        with pytest.raises(ParseError):
            state_from_dict({"num_parties": 2, "local_dim": 2, "terms": []})


def test_from_iroa_spec_fixture_matches_catalog(example_oa):
    """parse -> build -> compare against the catalog AME(3,3) with a phase."""
    s = from_iroa(example_oa, {(0, 0, 0): 2.0})
    t = catalog_state("psi3d", d=3, theta=2.0)
    assert s.amplitudes.keys() == t.amplitudes.keys()
    assert all(abs(s.amplitudes[k] - t.amplitudes[k]) < 1e-15 for k in s.amplitudes)


def test_parse_oa_then_ghz4():
    oa = parse_oa("0 0 0 0\n1 1 1 1")
    s = from_iroa(oa)
    assert s.num_parties == 4
    assert s.local_dim == 2
