"""Incidence system, exact kernel, multiset pairing, and certification."""

import dataclasses
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

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
from tests.test_invariants import invariant_loops, recorded_joins

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

    def test_negative_kernel_index_refused(self):
        for mat, idx in (
            (np.eye(3, dtype=int), -1),
            ([[1, 2, 3, 4]], -1),
            ([[1, 2, 3, 4]], -3),
            ([[2**70, 1]], -1),
        ):
            with pytest.raises(ArgumentError, match="%d is negative" % idx):
                integral_kernel(mat, kernel_index=idx)

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


def drop_charge(charge):
    """A ``_contract`` whose result lacks the terms of one net charge."""

    def contract(*args):
        counts = invariants_mod._contract(*args)
        del counts[charge]
        return counts

    return contract


def _bareiss_echelon(mat):
    """Fraction-free row echelon over exact integers.

    Returns (rows, pivot_cols): the eliminated integer rows and the
    pivot column of each.  Entries stay integral by Sylvester's identity;
    the pivot choice (first usable row, columns left to right) is
    deterministic.
    """
    a = [[int(v) for v in row] for row in mat]
    m = len(a)
    cols = len(a[0]) if m else 0
    pivot_cols = []
    rank = 0
    prev = 1
    for c in range(cols):
        p = next((i for i in range(rank, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        pivot = a[rank][c]
        for i in range(rank + 1, m):
            f = a[i][c]
            row_i = a[i]
            row_r = a[rank]
            for j in range(c, cols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
        prev = pivot
        pivot_cols.append(c)
        rank += 1
        if rank == m:
            break
    return a[:rank], pivot_cols


def _bareiss_kernel(mat, kernel_index):
    """``integral_kernel`` by Bareiss elimination of the whole matrix and
    exact rational back substitution: the reference."""
    ech, pivot_cols = _bareiss_echelon(mat)
    cols = len(mat[0]) if len(mat) else 0
    pivot_set = set(pivot_cols)
    free = [c for c in range(cols) if c not in pivot_set]
    if not free:
        return None
    if not 0 <= kernel_index < len(free):
        raise ArgumentError(
            "kernel_index %d out of range 0..%d" % (kernel_index, len(free) - 1)
        )
    x = [Fraction(0)] * cols
    x[free[kernel_index]] = Fraction(1)
    for i in reversed(range(len(pivot_cols))):
        c = pivot_cols[i]
        row = ech[i]
        s = Fraction(0)
        for j in range(c + 1, cols):
            if row[j] and x[j]:
                s += Fraction(row[j]) * x[j]
        x[c] = -s / row[c]
    scale = math.lcm(*(v.denominator for v in x))
    return witness_mod._primitive([int(v * scale) for v in x])


def _reference_kernel(mat, kernel_index):
    """Bareiss elimination and its back substitution, or the error it raises."""
    try:
        return _bareiss_kernel(mat, kernel_index)
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


class TestKernelAgainstBareiss:
    """Integer elimination of the prefix against Bareiss, the reference."""

    @pytest.mark.parametrize("name", sorted(KERNEL_FIXTURES))
    def test_fixture_matches_bareiss(self, name):
        mat = build_system(KERNEL_FIXTURES[name])
        # index ``free`` is one past the last free column: both raise
        free = mat.shape[1] - int(np.linalg.matrix_rank(mat))
        want = [_reference_kernel(mat, k) for k in (0, 1, free)]
        assert [_kernel(mat, k) for k in (0, 1, free)] == want

    @pytest.mark.parametrize("name", sorted(KERNEL_FIXTURES))
    def test_prefix_reduced_row_echelon(self, name):
        """The prefix ``integral_kernel`` eliminates comes back in row
        echelon form with Bareiss's pivot columns, each row reduced to the
        primitive integer vector on the line of Bareiss's row, so no entry
        is larger than Bareiss's: full-rank rs-11, which has no free
        column, included."""
        mat = build_system(KERNEL_FIXTURES[name])
        rows, cols = mat.shape
        head = mat[:, : min(cols, rows + 1)]
        ech, pivot_cols, _ = witness_mod._echelon(head, head.shape[1] + 1)
        want, want_cols = _bareiss_echelon(head)
        assert pivot_cols == want_cols
        for row, ref in zip(ech.tolist(), want):
            assert math.gcd(*row) == 1
            c = next(j for j, v in enumerate(ref) if v)
            # ref is an integer multiple of row
            assert ref[c] % row[c] == 0
            assert [v * (ref[c] // row[c]) for v in row] == ref
        if name == "rs-11":
            assert len(pivot_cols) == cols

    def test_none_and_range_error_cases(self):
        mat = build_system(KERNEL_FIXTURES["rs-11"])
        assert integral_kernel(mat) is None
        mat = build_system(KERNEL_FIXTURES["psi3d-7"])
        with pytest.raises(ArgumentError, match="out of range 0..29$"):
            integral_kernel(mat, kernel_index=30)

    @pytest.mark.parametrize("kernel_index", [0, 1, 2])
    def test_eliminates_only_the_prefix(self, monkeypatch, kernel_index):
        """The 30 x 216 psi5d d=6 system: N*d = 30 rows bound the rank, so
        the first 30 + kernel_index + 1 columns hold the free column, and
        elimination stops there."""
        oa = psi5d_oa(6)
        widths = []
        echelon = witness_mod._echelon

        def spied(a, stop):
            widths.append(a.shape[1])
            ech, pivot_cols, free_cols = echelon(a, stop)
            assert len(free_cols) == stop == kernel_index + 1
            return ech, pivot_cols, free_cols

        monkeypatch.setattr(witness_mod, "_echelon", spied)
        w = find_witness(oa, kernel_index=kernel_index)
        assert widths and max(widths) <= 5 * 6 + kernel_index + 1
        full = _bareiss_kernel(build_system(oa), kernel_index)
        assert w.kernel == full

    def test_random_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(400):
            rows, cols = (int(v) for v in rng.integers(1, 8, size=2))
            # small, medium and large entries; large ones push the
            # elimination past int64 entries
            top = (3, 300, 50000)[trial % 3]
            mat = rng.integers(-top, top + 1, size=(rows, cols))
            mat *= rng.random((rows, cols)) < 0.7
            if trial % 2 and rows > 1:
                mat = np.vstack([mat, 3 * mat[:1] - 2 * mat[-1:]])
            for kernel_index in (0, 1):
                assert _kernel(mat, kernel_index) == _reference_kernel(
                    mat, kernel_index
                ), mat

    def test_non_unit_pivots(self):
        """Matrices whose pivots vanish mod a small prime: column 0 of
        [[5, 1]] is the pivot over Q, and [[5, 0], [0, 1]] has rank 2 over
        Q; both match Bareiss at every index."""
        for mat in ([[5, 1]], [[5, 0], [0, 1]]):
            for k in (0, 1):
                assert _kernel(np.array(mat), k) == _reference_kernel(mat, k)
        assert integral_kernel(np.array([[5, 1]])) == (1, -5)
        assert integral_kernel(np.array([[5, 0], [0, 1]])) is None

    def test_two_coprime_pivots(self):
        # over Q the reduced rows hold 1/40009 and 1/40013
        mat = np.array([[40009, 0, 1], [0, 40013, 1]])
        assert integral_kernel(mat) == (40013, 40009, -40009 * 40013)
        assert integral_kernel(mat) == _bareiss_kernel(mat, 0)

    def test_three_coprime_pivots(self):
        # over Q the reduced rows hold 1/32749, 1/32719 and 1/32717; the
        # vector's last entry is their common denominator, about 3.5e13
        mat = np.array([[32749, 0, 0, 1], [0, 32719, 0, 1], [0, 0, 32717, 1]])
        want = _bareiss_kernel(mat, 0)
        assert integral_kernel(mat) == want
        assert want[-1] == -32749 * 32719 * 32717

    def test_entries_past_int64(self):
        assert integral_kernel([[2**70, 1]]) == (1, -(2**70))
        big = 2**40
        kern = integral_kernel(np.array([[big, 0, 1], [0, big + 1, 1]]))
        assert kern == (big + 1, big, -big * (big + 1))

    @pytest.mark.parametrize("top, wide", [(46340, False), (46341, True)])
    def test_switches_to_python_ints(self, top, wide):
        """The update top^2 - 1 stays int64 below 2^31 and switches the
        elimination to Python ints from 2^31 on, partway through."""
        mat = np.array([[top, 1, 0], [1, top, 1]])
        ech, _, _ = witness_mod._echelon(mat, 1)
        assert ech[1, 1] == top * top - 1
        assert (ech.dtype == object) is wide
        assert integral_kernel(mat) == _bareiss_kernel(mat, 0)
        if wide:
            assert integral_kernel(mat) == (1, -46341, 2147488280)


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

    @pytest.mark.parametrize("kernel", [(1.5, -1.5), (2.0, -2), (1, -1.0)])
    def test_float_entries_refused(self, kernel):
        # an entry of 1.5 was read as 1, so X and Y came out one row short
        oa = parse_oa("0 0\n1 1", local_dim=2)
        with pytest.raises(ArgumentError, match="kernel entry .* is not an integer"):
            split_multisets(kernel, oa)

    def test_numpy_integer_entries(self):
        oa = parse_oa("0 0\n1 1", local_dim=2)
        kernel = np.array([2, -2], dtype=np.int64)
        assert split_multisets(kernel, oa) == split_multisets((2, -2), oa)


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
        assert np.array_equal(w.rows, example_oa.rows)
        assert sum(v for v in w.kernel if v > 0) == w.n

    def test_marked_row_rule(self, example_oa):
        w = find_witness(example_oa)
        top = max(abs(v) for v in w.kernel)
        rows = map(tuple, w.rows.tolist())
        candidates = [r for r, v in zip(rows, w.kernel) if abs(v) == top]
        assert w.marked_row == min(candidates)

    def test_ghz_absent(self, ghz_oa):
        assert find_witness(ghz_oa) is None

    def test_single_row_absent(self):
        assert find_witness(parse_oa("0 0 0")) is None

    def test_kernel_index_selects_other_vectors(self, example_oa):
        w0 = find_witness(example_oa, kernel_index=0)
        w1 = find_witness(example_oa, kernel_index=1)
        assert w0.kernel != w1.kernel


class TestRaoTightExit:
    """A strength-2 array with r = N(d-1) + 1 rows has a system of full
    column rank, so ``find_witness`` returns None without building or
    eliminating it."""

    @pytest.mark.parametrize(
        "oa", [reed_solomon(3), reed_solomon(5), reed_solomon(7), psi3d_oa(2)],
        ids=["rs-3", "rs-5", "rs-7", "psi3d-2"],
    )
    @pytest.mark.parametrize("kernel_index", [0, 1])
    def test_returns_none_without_elimination(self, monkeypatch, oa, kernel_index):
        def refused(*args, **kwargs):
            raise AssertionError("the system was built or eliminated")

        monkeypatch.setattr(witness_mod, "build_system", refused)
        monkeypatch.setattr(witness_mod, "integral_kernel", refused)
        assert oa.r == oa.num_parties * (oa.local_dim - 1) + 1
        assert find_witness(oa, kernel_index=kernel_index) is None

    def test_tight_count_without_strength_two(self):
        # r = 4 = N(d-1) + 1, but party 1 always reads 0
        oa = parse_oa("0 0 0\n0 0 1\n0 1 0\n0 1 1", local_dim=2)
        w = find_witness(oa)
        assert w.kernel in ((1, -1, -1, 1), (-1, 1, 1, -1))

    def test_single_party_skips_the_strength_check(self, monkeypatch):
        def refused(oa, k):
            raise AssertionError("check_strength(oa, %d) called" % k)

        monkeypatch.setattr(witness_mod, "check_strength", refused)
        # r = 2 = N(d-1) + 1 with N = 1: the 2 x 2 identity has no kernel
        assert find_witness(parse_oa("0\n1")) is None

    def test_repeated_row_still_refused(self):
        # r = 3 = N(d-1) + 1 rows, one of them twice
        with pytest.raises(DuplicateRowError):
            find_witness(parse_oa("0 0\n0 0\n1 1"))

    def test_negative_kernel_index_refused(self):
        with pytest.raises(ArgumentError, match="-1 is negative"):
            find_witness(reed_solomon(3), kernel_index=-1)


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

    def test_missing_own_term_raises(self, monkeypatch, example_oa):
        # a contraction without the witness's own term (c_{K_m} = 0) is wrong
        w = find_witness(example_oa)
        own = dict(zip(map(tuple, w.rows.tolist()), w.kernel))[w.marked_row]
        monkeypatch.setattr(witness_mod, "_contract", drop_charge(own))
        with pytest.raises(WitnessError, match="K_m = %d$" % own):
            verify_witness(example_oa, w, theta_grid=FAMILY_GRID)
        with pytest.raises(WitnessError, match="K_m = %d$" % own):
            theta_values(example_oa, w, FAMILY_GRID)

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
        kern[example_oa.rows.tolist().index([1, 2, 0])] += 1
        bad = dataclasses.replace(w, kernel=tuple(kern))
        with pytest.raises(WitnessError, match="party 1 symbol 1$"):
            verify_witness(example_oa, bad)

    def test_repeated_row_is_rejected(self, example_oa):
        w = find_witness(example_oa)
        dup = OrthogonalArray(
            rows=np.concatenate((example_oa.rows, example_oa.rows[:1])),
            num_parties=3,
            local_dim=3,
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
        a, b, total = _largest_join(monkeypatch, oa, w)
        assert total == 17**4
        planned = _planned_bytes(monkeypatch, a, b, total)
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", planned)
        assert _traced_peak(a, b) <= 1.1 * planned

    @pytest.mark.parametrize("share", [3, 10])
    def test_chunked_join_peak_within_budget(self, monkeypatch, share):
        """psi3d d=31's largest join (kernel_index 0) at a third and a
        tenth of its whole plan: the per-table arrays, 29,791 rows a
        side, are in the plan, so the traced peak stays under the budget."""
        oa = psi3d_oa(31)
        a, b, total = _largest_join(monkeypatch, oa, find_witness(oa))
        assert total == 31**4
        budget = _planned_bytes(monkeypatch, a, b, total) // share
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", budget)
        assert _traced_peak(a, b) <= budget

    @pytest.mark.parametrize("share", [0.5, 0.35])
    def test_join_within_budget_or_refused(self, monkeypatch, witness, share):
        """Every join of the witness over 100 kB, at a share of its whole
        traced peak, stays within the budget or is refused.  Among them the
        last join pairs two 5,905-row tables one to one into 3 rows, so
        its peak is all per-table arrays, the key coding included."""
        oa, w = witness
        joins = _joins(monkeypatch, oa, w)
        assert any(len(a[3]) == len(b[3]) == 5905 for a, b in joins)
        wholes = [(a, b, _traced_peak(a, b)) for a, b in joins]
        for a, b, whole in wholes:
            if whole < 100_000:
                continue
            budget = int(share * whole)
            monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", budget)
            try:
                peak = _traced_peak(a, b)
            except CapacityError:
                continue
            assert peak <= budget, (len(a[3]), len(b[3]))


def test_n4_witness_runs_three_joins(monkeypatch):
    """psi3d d=4 at kernel_index 1 has n = 4: 3 of the 7 joins of its 8
    tables run, the rest are twins, and the values match the loops."""
    oa = psi3d_oa(4)
    w = find_witness(oa, kernel_index=1)
    assert w.n == 4
    calls = recorded_joins(monkeypatch)
    thetas = (0.0, 1.1)
    got = theta_values(oa, w, thetas)
    assert len(calls) == 3
    for theta, value in zip(thetas, got):
        want, _ = invariant_loops(from_iroa(oa, {w.marked_row: theta}), w.perms)
        assert abs(value - want) < 1e-12


def _joins(monkeypatch, oa, w):
    """The two tables of every join in ``theta_values``."""
    calls = []
    join = invariants_mod._join

    def recorded(a, b):
        calls.append((a, b))
        return join(a, b)

    monkeypatch.setattr(invariants_mod, "_join", recorded)
    theta_values(oa, w, (0.0,))
    monkeypatch.setattr(invariants_mod, "_join", join)
    return calls


def _largest_join(monkeypatch, oa, w):
    """The two tables of the join with the most pairs in ``theta_values``,
    and that pair count."""

    def pairs(a, b):
        shared = [x for x in a[0] if x in b[0]]
        on_a = zip(*(a[1][a[0].index(x)].tolist() for x in shared))
        on_b = zip(*(b[1][b[0].index(x)].tolist() for x in shared))
        matches = Counter(on_b)
        return sum(matches[key] for key in on_a)

    calls = _joins(monkeypatch, oa, w)
    a, b = max(calls, key=lambda t: pairs(*t))
    return a, b, pairs(a, b)


def _planned_bytes(monkeypatch, a, b, total):
    """The join's planned bytes per pair, times ``total`` pairs: at a zero
    budget the refusal names the first row's matches and their bytes."""
    monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 0)
    with pytest.raises(CapacityError) as refused:
        invariants_mod._join(a, b)
    found = re.search(r"(\d+) rows, (\d+) bytes", str(refused.value))
    rows, planned = found.groups()
    return total * int(planned) // int(rows)


def _traced_peak(a, b):
    tracemalloc.start()
    try:
        invariants_mod._join(a, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPinnedTermCounts:
    """Exact c_e of psi3d witnesses whose largest join pairs d^4 rows, as
    the engine gave them when it grouped pairs by their full keys: at the
    default byte budget, where every join runs whole, and at 4 MiB, where
    the largest join runs in chunks."""

    CASES = {
        "psi3d-17-k1": (17, 1, {-1: 16320, 0: 1387217, 1: 16320}),
        "psi3d-31-k0": (31, 0, {-1: 2610, 0: 918301, 1: 2610}),
        "psi3d-31-k1": (31, 1, {-1: 107880, 0: 28413391, 1: 107880}),
    }

    @pytest.mark.parametrize("budget", [None, 1 << 22], ids=["whole", "chunked"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_term_counts(self, monkeypatch, case, budget):
        d, kernel_index, want = self.CASES[case]
        oa = psi3d_oa(d)
        w = find_witness(oa, kernel_index=kernel_index)
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
        if budget is not None:
            monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", budget)
        report = verify_witness(oa, w)
        assert report.term_counts == want
        assert report.certified
        # one grouping per whole join; a chunked join adds one per run
        assert (len(groups) > len(joins)) == (budget is not None)


@pytest.mark.slow
def test_paper_families_certify():
    """The paper's claim at sizes past the fast suite: psi3d arrays for
    d > 2 and psi5d arrays for d >= 2 carry certified witnesses at two
    kernel vectors each, with exact term counts pinned at the largest
    sizes; the d=2 psi3d array has none."""
    assert find_witness(psi3d_oa(2)) is None
    arrays = [psi3d_oa(d) for d in (3, 5, 7, 31)]
    arrays += [psi5d_oa(d) for d in (2, 7, 12, 32)]
    for oa in arrays:
        for kernel_index in (0, 1):
            w = find_witness(oa, kernel_index=kernel_index)
            report = verify_witness(oa, w)
            assert report.certified, (oa.num_parties, oa.local_dim, kernel_index)
            assert sum(report.term_counts.values()) <= report.r_to_n
    # psi3d d=61's biggest join pairs 61^4 = 13,845,841 rows; psi5d d=48
    # has r = 110,592 rows, and r^n passes 2^63 at kernel_index 1
    pinned = {
        (psi3d_oa, 61, 0): {-1: 10620, 0: 13824601, 1: 10620},
        (psi3d_oa, 61, 1): {-1: 863760, 0: 842868781, 1: 863760},
        (psi5d_oa, 48, 0): {-1: 15579936, 0: 587037182400, 1: 15579936},
        (psi5d_oa, 48, 1): {
            -2: 207646,
            -1: 47860732808,
            0: 1352509738713780,
            1: 47860732808,
            2: 207646,
        },
    }
    for (family, d, kernel_index), want in pinned.items():
        oa = family(d)
        report = verify_witness(oa, find_witness(oa, kernel_index=kernel_index))
        assert report.certified
        assert report.term_counts == want, (family.__name__, d, kernel_index)
