"""Incidence system, exact kernel, multiset pairing, and certification."""

import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from luinv import invariants as invariants_mod
from luinv import witness as witness_mod
from luinv import (
    ArgumentError,
    CapacityError,
    DuplicateRowError,
    OrthogonalArray,
    PermutationSet,
    WitnessError,
    build_permutations,
    build_system,
    find_witness,
    from_iroa,
    integral_kernel,
    invariant_sparse,
    parse_oa,
    split_multisets,
    theta_values,
    verify_witness,
    witness_to_dict,
)
from luinv.cli import main

from tests.conftest import EXAMPLE_OA_TEXT
from tests.test_entanglement import reed_solomon

KNOWN_X = ((0, 0, 0), (1, 1, 2), (2, 2, 1))
KNOWN_Y = ((0, 2, 2), (1, 0, 1), (2, 1, 0))


class TestBuildSystem:
    def test_example_counts(self, example_oa):
        m = build_system(example_oa)
        assert m.shape == (9, 9)
        # every symbol appears r/d = 3 times per party; every row has N ones
        assert m.sum(axis=1).tolist() == [3] * 9
        assert m.sum(axis=0).tolist() == [3] * 9

    def test_ghz_system(self, ghz_oa):
        m = build_system(ghz_oa)
        assert m.shape == (6, 2)
        assert np.linalg.matrix_rank(m) == 2

    def test_entry_layout(self):
        oa = parse_oa("1 0\n0 2", local_dim=3)
        m = build_system(oa)
        # row nu*d + sym
        assert m[1, 0] == 1  # party 1 symbol 1 in array row 0
        assert m[3, 0] == 1  # party 2 symbol 0 in array row 0
        assert m[0, 1] == 1
        assert m[5, 1] == 1

    def test_duplicate_rows(self):
        oa = OrthogonalArray(rows=((0, 1), (0, 1)), num_parties=2, local_dim=2)
        with pytest.raises(DuplicateRowError):
            build_system(oa)


class TestIntegralKernel:
    def test_example_kernel_is_exact(self, example_oa):
        m = build_system(example_oa)
        kern = integral_kernel(m)
        assert kern is not None
        assert all(isinstance(v, int) for v in kern)
        assert (m @ np.array(kern)).tolist() == [0] * 9
        assert any(v != 0 for v in kern)

    def test_normalization(self, example_oa):
        kern = integral_kernel(build_system(example_oa))
        import math

        assert math.gcd(*kern) == 1
        assert next(v for v in kern if v != 0) > 0

    def test_every_free_column_gives_a_kernel_vector(self, example_oa):
        m = build_system(example_oa)
        seen = set()
        for idx in range(9 - int(np.linalg.matrix_rank(m))):
            kern = integral_kernel(m, kernel_index=idx)
            assert (m @ np.array(kern)).tolist() == [0] * 9
            seen.add(kern)
        assert len(seen) >= 2

    def test_kernel_index_out_of_range(self, example_oa):
        with pytest.raises(ArgumentError):
            integral_kernel(build_system(example_oa), kernel_index=99)

    def test_full_rank_returns_none(self, ghz_oa):
        assert integral_kernel(build_system(ghz_oa)) is None
        assert integral_kernel(np.eye(3, dtype=int)) is None

    def test_known_small_kernel(self):
        # x + y = 0 twice over: kernel (1, -1)
        mat = np.array([[1, 1], [2, 2]])
        assert integral_kernel(mat) == (1, -1)

    def test_fractional_backsolve_scales_to_integers(self):
        mat = np.array([[2, 0, 1], [0, 3, 1]])
        kern = integral_kernel(mat)
        assert kern == (3, 2, -6)

    def test_rectangular_wide(self):
        mat = np.array([[1, 2, 3, 4]])
        for idx in range(3):
            kern = integral_kernel(mat, kernel_index=idx)
            assert sum(a * b for a, b in zip(mat[0], kern)) == 0


def psi3d_oa(d):
    rows = tuple((j, k, (j + k) % d) for j in range(d) for k in range(d))
    return OrthogonalArray(rows=rows, num_parties=3, local_dim=d)


def psi5d_oa(d):
    rows = tuple(
        (j, k, (j + k) % d, (l + k) % d, l)
        for j in range(d)
        for k in range(d)
        for l in range(d)
    )
    return OrthogonalArray(rows=rows, num_parties=5, local_dim=d)


def _reference_kernel(mat, kernel_index):
    """Bareiss elimination and its back substitution, or the error it raises."""
    try:
        return witness_mod._bareiss_kernel(mat, kernel_index)
    except ArgumentError as exc:
        return str(exc)


def _kernel(mat, kernel_index):
    try:
        return integral_kernel(mat, kernel_index=kernel_index)
    except ArgumentError as exc:
        return str(exc)


def _kernel_fixtures():
    cases = {
        "example": parse_oa(EXAMPLE_OA_TEXT),
        "ghz": parse_oa("0 0 0\n1 1 1\n", local_dim=2),
    }
    cases.update({"psi3d-%d" % d: psi3d_oa(d) for d in range(2, 14)})
    cases.update({"psi5d-%d" % d: psi5d_oa(d) for d in range(2, 7)})
    cases.update({"rs-%d" % p: reed_solomon(p) for p in (3, 5, 7, 11)})
    return cases


KERNEL_FIXTURES = _kernel_fixtures()


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []
    bareiss = witness_mod._bareiss_kernel

    def counted(mat, kernel_index):
        calls.append(kernel_index)
        return bareiss(mat, kernel_index)

    monkeypatch.setattr(witness_mod, "_bareiss_kernel", counted)
    return calls


class TestModularKernel:
    """The modular path against Bareiss, its fallback and reference."""

    @pytest.mark.parametrize("name", sorted(KERNEL_FIXTURES))
    def test_fixture_matches_bareiss(self, name):
        mat = build_system(KERNEL_FIXTURES[name])
        # certified on the modular path, with no fallback
        basis = witness_mod._modular_basis(mat)
        assert basis is not None
        free = len(basis[1])
        # index ``free`` is one past the last free column: both paths raise
        for kernel_index in (0, 1, free):
            assert _kernel(mat, kernel_index) == _reference_kernel(mat, kernel_index)

    def test_none_and_range_error_cases(self):
        mat = build_system(KERNEL_FIXTURES["rs-11"])
        assert integral_kernel(mat) is None
        mat = build_system(KERNEL_FIXTURES["psi3d-7"])
        with pytest.raises(ArgumentError, match="out of range 0..29$"):
            integral_kernel(mat, kernel_index=30)

    def test_random_matrices(self, bareiss_calls):
        rng = np.random.default_rng(2024)
        fallbacks = 0
        for trial in range(400):
            rows, cols = (int(v) for v in rng.integers(1, 8, size=2))
            # small entries give small denominators, large ones often
            # denominators past the reconstruction bound
            top = (3, 300, 50000)[trial % 3]
            mat = rng.integers(-top, top + 1, size=(rows, cols))
            mat *= rng.random((rows, cols)) < 0.7
            if trial % 2 and rows > 1:
                mat = np.vstack([mat, 3 * mat[:1] - 2 * mat[-1:]])
            for kernel_index in (0, 1):
                before = len(bareiss_calls)
                got = _kernel(mat, kernel_index)
                fallbacks += len(bareiss_calls) > before
                assert got == _reference_kernel(mat, kernel_index), mat
        assert 0 < fallbacks < 800

    def test_small_prime_falls_back(self, monkeypatch, bareiss_calls):
        """Mod 5 the pivots can differ from those over Q and the
        reconstruction bound is 1; every answer still matches Bareiss."""
        want = {
            name: [_reference_kernel(build_system(oa), k) for k in (0, 1)]
            for name, oa in KERNEL_FIXTURES.items()
        }
        monkeypatch.setattr(witness_mod, "_PRIME", 5)
        fell_back = set()
        for name, oa in KERNEL_FIXTURES.items():
            del bareiss_calls[:]
            mat = build_system(oa)
            assert [_kernel(mat, k) for k in (0, 1)] == want[name], name
            if bareiss_calls:
                fell_back.add(name)
        # among them the arrays whose symbol count is a multiple of 5
        assert {"psi3d-5", "psi3d-10", "psi5d-5", "rs-5"} <= fell_back
        # column 0 vanishes mod 5 but is the pivot over Q
        del bareiss_calls[:]
        assert integral_kernel(np.array([[5, 1]])) == (1, -5)
        # rank 1 mod 5, rank 2 over Q: no kernel
        assert integral_kernel(np.array([[5, 0], [0, 1]])) is None
        assert len(bareiss_calls) == 2

    def test_denominators_past_reconstruction_bound(self, bareiss_calls):
        # the RREF entries are 1/40009 and 1/40013, past sqrt(p/2) ~ 32768
        mat = np.array([[40009, 0, 1], [0, 40013, 1]])
        assert witness_mod._modular_basis(mat) is None
        assert integral_kernel(mat) == (40013, 40009, -40009 * 40013)
        assert bareiss_calls == [0]

    def test_entries_past_int64(self):
        assert integral_kernel([[2**70, 1]]) == (1, -(2**70))
        big = 2**40
        kern = integral_kernel(np.array([[big, 0, 1], [0, big + 1, 1]]))
        assert kern == (big + 1, big, -big * (big + 1))


class TestSplitMultisets:
    def test_example_split(self, example_oa):
        kern = integral_kernel(build_system(example_oa))
        X, Y = split_multisets(kern, example_oa)
        assert len(X) == len(Y) == 3
        assert set(X).isdisjoint(set(Y))

    def test_multiplicity(self):
        oa = parse_oa("0 0\n1 1", local_dim=2)
        X, Y = split_multisets((2, -2), oa)
        assert X == ((0, 0), (0, 0))
        assert Y == ((1, 1), (1, 1))

    def test_errors(self, example_oa):
        with pytest.raises(ArgumentError):
            split_multisets((1, -1), example_oa)
        with pytest.raises(ArgumentError):
            split_multisets((0,) * 9, example_oa)


class TestBuildPermutations:
    def test_known_pairing(self):
        """The ascending-index pairing is deterministic on this fixture."""
        p = build_permutations(KNOWN_X, KNOWN_Y)
        assert p.perms == ((1, 2, 3), (3, 1, 2), (2, 3, 1))

    def test_connection_property(self):
        p = build_permutations(KNOWN_X, KNOWN_Y)
        for nu in range(3):
            for l in range(3):
                assert KNOWN_Y[l][nu] == KNOWN_X[p.perms[nu][l] - 1][nu]

    def test_identity_when_equal(self):
        p = build_permutations(KNOWN_X, KNOWN_X)
        assert p.perms == ((1, 2, 3),) * 3

    def test_cardinality_mismatch(self):
        with pytest.raises(WitnessError):
            build_permutations(KNOWN_X, KNOWN_Y[:2])
        with pytest.raises(WitnessError):
            build_permutations((), ())

    def test_symbol_mismatch(self):
        with pytest.raises(WitnessError):
            build_permutations(((0, 0),), ((0, 1),))


class TestFindWitness:
    def test_example_witness(self, example_oa):
        w = find_witness(example_oa)
        assert w is not None
        assert w.n == 3
        assert w.rows == example_oa.rows
        assert sum(v for v in w.kernel if v > 0) == w.n

    def test_marked_row_rule(self, example_oa):
        w = find_witness(example_oa)
        top = max(abs(v) for v in w.kernel)
        candidates = [r for r, v in zip(w.rows, w.kernel) if abs(v) == top]
        assert w.marked_row == min(candidates)

    def test_ghz_absent(self, ghz_oa):
        assert find_witness(ghz_oa) is None

    def test_single_row_absent(self):
        assert find_witness(parse_oa("0 0 0")) is None

    def test_kernel_index_selects_other_vectors(self, example_oa):
        w0 = find_witness(example_oa, kernel_index=0)
        w1 = find_witness(example_oa, kernel_index=1)
        assert w0.kernel != w1.kernel


class TestVerifyWitness:
    def test_example_certifies(self, example_oa):
        w = find_witness(example_oa)
        rep = verify_witness(example_oa, w)
        assert rep.certified
        assert rep.spread > 1e-6
        assert len(rep.invariant_values) == len(rep.theta_values) == 4

    def test_alternate_kernel_also_certifies(self, example_oa):
        # the incidence system has rank 7, so exactly two free columns
        w = find_witness(example_oa, kernel_index=1)
        assert verify_witness(example_oa, w).certified

    def test_single_point_grid_certifies(self, example_oa):
        # the verdict reads the exact term counts, not the grid: one point
        # has no spread, yet the family is non-constant
        w = find_witness(example_oa)
        rep = verify_witness(example_oa, w, theta_grid=(0.7,))
        assert rep.certified
        assert rep.spread == 0.0
        assert rep.term_counts == verify_witness(example_oa, w).term_counts

    def test_term_counts_are_exact(self, example_oa):
        w = find_witness(example_oa)
        rep = verify_witness(example_oa, w)
        assert rep.r_to_n == example_oa.r**w.n
        assert all(isinstance(c, int) and c >= 0 for c in rep.term_counts.values())
        # the same state with theta = 0 has every term, so the counts sum
        # to the sparse engine's term count
        total = invariant_sparse(from_iroa(example_oa), w.perms).term_count
        assert sum(rep.term_counts.values()) == total
        assert any(c for e, c in rep.term_counts.items() if e != 0)

    def test_constant_family_not_certified(self, monkeypatch, example_oa):
        w = find_witness(example_oa)
        counts = witness_mod._term_counts(example_oa, w)
        monkeypatch.setattr(witness_mod, "_term_counts", lambda oa, w: {0: counts[0]})
        rep = verify_witness(example_oa, w, theta_grid=FAMILY_GRID)
        assert not rep.certified
        assert rep.spread == 0.0

    def test_tampered_marked_row(self, example_oa):
        w = find_witness(example_oa)
        zero_row = next(r for r, v in zip(w.rows, w.kernel) if v == 0)
        bad = dataclasses.replace(w, marked_row=zero_row)
        with pytest.raises(WitnessError):
            verify_witness(example_oa, bad)

    def test_tampered_kernel(self, example_oa):
        w = find_witness(example_oa)
        kern = list(w.kernel)
        kern[0] += 1
        bad = dataclasses.replace(w, kernel=tuple(kern))
        with pytest.raises(WitnessError):
            verify_witness(example_oa, bad)

    def test_tampered_perms(self, example_oa):
        w = find_witness(example_oa)
        perms = list(w.perms.perms)
        perms[0] = (perms[0][1], perms[0][0], perms[0][2])
        bad = dataclasses.replace(
            w, perms=PermutationSet(n=w.n, perms=tuple(perms))
        )
        with pytest.raises(WitnessError):
            verify_witness(example_oa, bad)

    def test_tampered_multisets(self, example_oa):
        w = find_witness(example_oa)
        bad = dataclasses.replace(w, X=w.Y, Y=w.X)
        with pytest.raises(WitnessError):
            verify_witness(example_oa, bad)

    def test_rows_must_match(self, example_oa, ghz_oa):
        w = find_witness(example_oa)
        with pytest.raises(WitnessError):
            verify_witness(ghz_oa, w)


class TestWitnessDict:
    def test_schema(self, example_oa):
        w = find_witness(example_oa)
        rep = verify_witness(example_oa, w)
        d = witness_to_dict(w, rep)
        assert set(d) == {
            "n",
            "K",
            "X",
            "Y",
            "perms",
            "marked_row",
            "certified",
            "theta_values",
            "invariant_values",
        }
        assert d["certified"] is True
        assert all(entry["value"] != 0 for entry in d["K"])
        assert len(d["K"]) == sum(1 for v in w.kernel if v != 0)
        assert all(set(v) == {"re", "im"} for v in d["invariant_values"])

    def test_json_serializable(self, example_oa):
        import json

        w = find_witness(example_oa)
        rep = verify_witness(example_oa, w)
        text = json.dumps(witness_to_dict(w, rep))
        assert json.loads(text)["n"] == 3


class TestCheckStructure:
    def test_count_violation_names_first_party_and_symbol(self, example_oa):
        w = find_witness(example_oa)
        kern = list(w.kernel)
        # row (1, 2, 0) breaks party 1 symbol 1 first, in party-major order
        kern[example_oa.rows.index((1, 2, 0))] += 1
        bad = dataclasses.replace(w, kernel=tuple(kern))
        with pytest.raises(WitnessError, match="party 1 symbol 1$"):
            verify_witness(example_oa, bad)

    def test_repeated_row_is_rejected(self, example_oa):
        w = find_witness(example_oa)
        dup = OrthogonalArray(
            rows=example_oa.rows + example_oa.rows[:1], num_parties=3, local_dim=3
        )
        bad = dataclasses.replace(w, rows=dup.rows, kernel=w.kernel + (0,))
        with pytest.raises(DuplicateRowError):
            verify_witness(dup, bad)


FAMILY_CASES = {
    "example-k0": lambda: (parse_oa(EXAMPLE_OA_TEXT), 0),
    "example-k1": lambda: (parse_oa(EXAMPLE_OA_TEXT), 1),
    "psi3d-3": lambda: (psi3d_oa(3), 0),
    "psi3d-5": lambda: (psi3d_oa(5), 0),
    "psi3d-7": lambda: (psi3d_oa(7), 0),
    "psi5d-2": lambda: (psi5d_oa(2), 0),
    "psi5d-3": lambda: (psi5d_oa(3), 0),
}

# nine points, 0 and pi among them
FAMILY_GRID = tuple(k * math.pi / 4 for k in range(9))


@pytest.fixture(params=sorted(FAMILY_CASES))
def family(request):
    oa, kernel_index = FAMILY_CASES[request.param]()
    return oa, find_witness(oa, kernel_index=kernel_index)


class TestThetaValues:
    def test_matches_per_theta_engine(self, family):
        oa, w = family
        got = theta_values(oa, w, FAMILY_GRID)
        assert len(got) == len(FAMILY_GRID)
        for theta, value in zip(FAMILY_GRID, got):
            state = from_iroa(oa, {w.marked_row: theta})
            want = invariant_sparse(state, w.perms).value
            assert abs(value - want) <= 1e-14

    def test_zero_is_term_count_over_r_to_the_n(self, family):
        oa, w = family
        (value,) = theta_values(oa, w, (0.0,))
        term_count = invariant_sparse(from_iroa(oa), w.perms).term_count
        assert value.imag == 0.0
        assert value.real == pytest.approx(term_count / oa.r**w.n, rel=1e-15, abs=0)

    @pytest.mark.parametrize("points", [1, 4, 50])
    def test_one_enumeration_per_call(self, monkeypatch, tmp_path, capsys, points):
        calls = []
        engine = invariants_mod._contract

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(invariants_mod, "_contract", counted)
        monkeypatch.setattr(witness_mod, "_contract", counted)
        oa = parse_oa(EXAMPLE_OA_TEXT)
        w = find_witness(oa)
        grid = tuple(np.linspace(0.0, math.pi, points))

        report = verify_witness(oa, w, theta_grid=grid)
        assert len(report.invariant_values) == points
        assert len(calls) == 1

        path = tmp_path / "example.oa"
        path.write_text(EXAMPLE_OA_TEXT)
        text_grid = ",".join(repr(float(t)) for t in grid)
        assert main(["witness", "scan", str(path), "--theta-grid", text_grid]) == 0
        assert len(capsys.readouterr().out.splitlines()) == points + 1
        assert len(calls) == 2


class TestWitnessJoins:
    """The psi3d d=17 witness at kernel_index 1: its largest join pairs
    two d^3-row tables on two labels, d^4 pairs grouping into about d^3."""

    @pytest.fixture(scope="class")
    def witness(self):
        oa = psi3d_oa(17)
        return oa, find_witness(oa, kernel_index=1)

    def test_chunked_joins_give_the_same_values(self, monkeypatch, witness):
        oa, w = witness
        whole = theta_values(oa, w, FAMILY_GRID)
        joins, groups = [], []
        join, group = invariants_mod._join, invariants_mod._group

        def counted_join(a, b):
            joins.append(1)
            return join(a, b)

        def counted_group(*args):
            groups.append(1)
            return group(*args)

        monkeypatch.setattr(invariants_mod, "_join", counted_join)
        monkeypatch.setattr(invariants_mod, "_group", counted_group)
        # under a third of the largest join's 13.4 MB plan
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 1 << 22)
        # the c_e are exact integers, so the values are the same floats
        assert theta_values(oa, w, FAMILY_GRID) == whole
        # a join in one chunk groups once; one in k > 1 chunks groups each
        # chunk and then the parts, so extra groupings mean chunked joins
        assert len(groups) > len(joins)

    def test_join_peak_within_plan(self, monkeypatch, witness):
        oa, w = witness
        calls = []
        join = invariants_mod._join

        def recorded(a, b):
            calls.append((a, b))
            return join(a, b)

        monkeypatch.setattr(invariants_mod, "_join", recorded)
        theta_values(oa, w, (0.0,))
        monkeypatch.setattr(invariants_mod, "_join", join)

        def pairs(a, b):
            shared = [x for x in a[0] if x in b[0]]
            on_a = a[1][:, [a[0].index(x) for x in shared]].tolist()
            on_b = b[1][:, [b[0].index(x) for x in shared]].tolist()
            matches = Counter(map(tuple, on_b))
            return sum(matches[tuple(key)] for key in on_a)

        a, b = max(calls, key=lambda t: pairs(*t))
        total = pairs(a, b)
        assert total == 17**4
        # at a zero budget the refusal names the first row's matches and
        # their bytes, which gives the planned bytes per row
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 0)
        with pytest.raises(CapacityError) as refused:
            join(a, b)
        found = re.search(r"(\d+) rows, (\d+) bytes", str(refused.value))
        rows, planned = found.groups()
        planned = total * int(planned) // int(rows)
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", planned)
        tracemalloc.start()
        try:
            join(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * planned


@pytest.mark.slow
def test_paper_families_certify():
    """The paper's claim at sizes past the fast suite: psi3d arrays for
    d > 2 and psi5d arrays for d >= 2 carry certified witnesses at two
    kernel vectors each; the d=2 psi3d array has none."""
    assert find_witness(psi3d_oa(2)) is None
    arrays = [psi3d_oa(d) for d in (3, 5, 7, 31)] + [psi5d_oa(d) for d in (2, 7, 12)]
    for oa in arrays:
        for kernel_index in (0, 1):
            w = find_witness(oa, kernel_index=kernel_index)
            report = verify_witness(oa, w)
            assert report.certified, (oa.num_parties, oa.local_dim, kernel_index)
            assert sum(report.term_counts.values()) <= report.r_to_n
