"""Parsing, strength, irredundancy, and the row-count conditions."""

import itertools
from collections import Counter

import numpy as np
import pytest

from luinv import oa as oa_mod
from luinv import (
    ArgumentError,
    OrthogonalArray,
    ParseError,
    StrengthReport,
    SymbolRangeError,
    check_strength,
    is_irredundant,
    minimal_support_condition,
    parse_oa,
    witness_condition,
)
from tests.conftest import EXAMPLE_OA_TEXT


class TestParse:
    def test_example_shape(self, example_oa):
        assert example_oa.r == 9
        assert example_oa.num_parties == 3
        assert example_oa.local_dim == 3

    def test_example_rows_in_order(self, example_oa):
        assert example_oa.rows[0] == (0, 0, 0)
        assert example_oa.rows[4] == (1, 1, 2)
        assert example_oa.rows[-1] == (2, 2, 1)

    def test_single_line(self):
        oa = parse_oa("0 0 0")
        assert (oa.r, oa.num_parties, oa.local_dim) == (1, 3, 1)

    def test_header_detected(self):
        oa = parse_oa("# 9 3 3\n" + EXAMPLE_OA_TEXT)
        assert (oa.r, oa.num_parties, oa.local_dim) == (9, 3, 3)
        assert oa.rows == parse_oa(EXAMPLE_OA_TEXT).rows

    def test_header_with_unused_symbols(self):
        """A header may declare symbols that never occur."""
        oa = parse_oa("# 2 3 5\n0 0 0\n1 1 1")
        assert oa.local_dim == 5

    def test_mismatched_header_is_data(self):
        # the first line only acts as a header when the row count matches
        oa = parse_oa("9 3 3\n0 0 0")
        assert oa.r == 2
        assert oa.local_dim == 10

    def test_explicit_d_overrides_header(self):
        oa = parse_oa("# 2 3 2\n0 0 0\n1 1 1", local_dim=4)
        assert oa.local_dim == 4

    def test_unmarked_header_refused(self):
        # two rows over d=2, or three rows with symbol 3: neither is assumed
        with pytest.raises(ParseError, match="mark a header"):
            parse_oa("2 3 2\n0 1 1\n1 0 1\n")

    @pytest.mark.parametrize(
        "text",
        ["# 3 3 2\n0 0 0\n1 1 1", "# 2 2 2\n0 0 0\n1 1 1", "# 2 3\n0 0 0", "#\n0 0 0"],
    )
    def test_marked_header_must_match(self, text):
        with pytest.raises(ParseError):
            parse_oa(text)

    def test_explicit_d_overrides_inference(self):
        oa = parse_oa("0 0\n1 1", local_dim=3)
        assert oa.local_dim == 3

    def test_blank_lines_skipped(self):
        oa = parse_oa("\n0 0 0\n\n1 1 1\n\n")
        assert oa.r == 2

    def test_ragged_rows(self):
        with pytest.raises(ParseError):
            parse_oa("0 1\n1 0 1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_oa("")

    def test_non_integer_field(self):
        with pytest.raises(ParseError):
            parse_oa("0 x 0")

    def test_negative_symbol(self):
        with pytest.raises(ParseError):
            parse_oa("0 -1 0")

    def test_symbol_at_declared_dim(self):
        with pytest.raises(SymbolRangeError):
            parse_oa("0 0\n2 0", local_dim=2)

    def test_direct_construction_validates(self):
        with pytest.raises(ParseError):
            OrthogonalArray(rows=((0, 0), (0,)), num_parties=2, local_dim=1)
        with pytest.raises(ArgumentError):
            OrthogonalArray(rows=(), num_parties=2, local_dim=2)


class TestStrength:
    def test_example_strength_2(self, example_oa):
        rep = check_strength(example_oa, 2)
        assert rep.holds
        assert rep.index_lambda == 1

    def test_example_strength_1(self, example_oa):
        rep = check_strength(example_oa, 1)
        assert rep.holds
        assert rep.index_lambda == 3

    def test_example_strength_3_fails(self, example_oa):
        """9 rows cannot cover the 27 triples."""
        rep = check_strength(example_oa, 3)
        assert not rep.holds
        assert rep.index_lambda == 0

    def test_ghz_strengths(self, ghz_oa):
        assert check_strength(ghz_oa, 1).holds
        assert check_strength(ghz_oa, 1).index_lambda == 1
        assert not check_strength(ghz_oa, 2).holds

    def test_monotone_in_k(self, example_oa):
        """Strength k implies strength k' for all k' < k."""
        assert check_strength(example_oa, 2).holds
        assert check_strength(example_oa, 1).holds

    def test_row_permutation_invariance(self, example_oa):
        rows = example_oa.rows[::-1]
        oa = OrthogonalArray(rows=rows, num_parties=3, local_dim=3)
        assert check_strength(oa, 2).holds

    def test_symbol_relabeling_invariance(self, example_oa):
        relabel = {0: 2, 1: 0, 2: 1}
        rows = tuple(tuple(relabel[s] for s in row) for row in example_oa.rows)
        oa = OrthogonalArray(rows=rows, num_parties=3, local_dim=3)
        rep = check_strength(oa, 2)
        assert rep.holds and rep.index_lambda == 1

    def test_broken_array(self, example_oa):
        rows = list(example_oa.rows)
        rows[0] = (0, 0, 1)
        oa = OrthogonalArray(rows=tuple(rows), num_parties=3, local_dim=3)
        assert not check_strength(oa, 2).holds

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, example_oa, k):
        with pytest.raises(ArgumentError):
            check_strength(example_oa, k)


class TestIrredundant:
    def test_example(self, example_oa):
        assert is_irredundant(example_oa, 1)
        assert not is_irredundant(example_oa, 2)

    def test_ghz(self, ghz_oa):
        assert is_irredundant(ghz_oa, 1)
        assert is_irredundant(ghz_oa, 2)

    def test_monotone_in_k(self):
        """Irredundancy at k implies it at every smaller k."""
        rows = tuple(
            (a, b, (a + b) % 3, (a + 2 * b) % 3)
            for a, b in itertools.product(range(3), repeat=2)
        )
        oa = OrthogonalArray(rows=rows, num_parties=4, local_dim=3)
        assert is_irredundant(oa, 2)
        assert is_irredundant(oa, 1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_out_of_range(self, example_oa, k):
        with pytest.raises(ArgumentError):
            is_irredundant(example_oa, k)


def strength_by_counting(oa, k):
    """check_strength from the definition: count every k-tuple per subset."""
    if not 1 <= k <= oa.num_parties:
        raise ArgumentError("k=%d out of range 1..%d" % (k, oa.num_parties))
    lam, rem = divmod(oa.r, oa.local_dim**k)
    failed = StrengthReport(k=k, holds=False, index_lambda=0)
    if rem != 0 or lam == 0:
        return failed
    for cols in itertools.combinations(range(oa.num_parties), k):
        counts = Counter(tuple(row[c] for c in cols) for row in oa.rows)
        if len(counts) != oa.local_dim**k or any(v != lam for v in counts.values()):
            return failed
    return StrengthReport(k=k, holds=True, index_lambda=lam)


def irredundant_by_projection(oa, k):
    """is_irredundant from the definition: every (N - k)-column projection."""
    if not 1 <= k < oa.num_parties:
        raise ArgumentError("k=%d out of range 1..%d" % (k, oa.num_parties - 1))
    keep = oa.num_parties - k
    for cols in itertools.combinations(range(oa.num_parties), keep):
        if len({tuple(row[c] for c in cols) for row in oa.rows}) != oa.r:
            return False
    return True


def _outcome(check, oa, k):
    try:
        return check(oa, k)
    except ArgumentError as exc:
        return str(exc)


def _random_arrays(seed, count):
    """Linear arrays over Z_d (strength 2, some irredundant), some with a
    row dropped or repeated, and arrays of random rows."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        if trial % 2 and n >= 2:
            coef = rng.integers(0, d, size=(n - 2, 2))
            rows = [
                (a, b) + tuple(int(c) for c in (coef @ (a, b)) % d)
                for a, b in itertools.product(range(d), repeat=2)
            ]
            if rng.random() < 0.3 and len(rows) > 1:
                rows.pop(int(rng.integers(len(rows))))
            if rng.random() < 0.3:
                rows.append(rows[int(rng.integers(len(rows)))])
        else:
            r = int(rng.integers(1, 20))
            rows = [tuple(int(v) for v in rng.integers(0, d, n)) for _ in range(r)]
        yield OrthogonalArray(rows=tuple(rows), num_parties=n, local_dim=d)


class TestChecksAgainstDefinitions:
    def test_random_arrays(self):
        seen = Counter()
        for oa in _random_arrays(7, 600):
            for k in range(-1, oa.num_parties + 2):
                got = _outcome(check_strength, oa, k)
                assert got == _outcome(strength_by_counting, oa, k), (oa, k)
                seen["strength", getattr(got, "holds", "error")] += 1
                got = _outcome(is_irredundant, oa, k)
                assert got == _outcome(irredundant_by_projection, oa, k), (oa, k)
                seen["irredundant", got if isinstance(got, bool) else "error"] += 1
        # both verdicts and the range error occur for each check
        for check in ("strength", "irredundant"):
            assert all(seen[check, v] for v in (True, False, "error"))

    def test_compare_in_small_blocks(self, monkeypatch):
        # a block of one row at a time
        monkeypatch.setattr(oa_mod, "_COMPARE_BYTES", 1)
        for oa in _random_arrays(8, 200):
            for k in range(1, oa.num_parties):
                assert is_irredundant(oa, k) == irredundant_by_projection(oa, k)


class TestConditions:
    def test_witness_condition_example(self):
        # 9 rows against N*d - (N-1) = 7
        assert witness_condition(9, 3, 3)
        assert not witness_condition(2, 3, 2)
        assert not witness_condition(7, 3, 3)

    def test_witness_condition_rejects_nonpositive(self):
        with pytest.raises(ArgumentError):
            witness_condition(0, 3, 3)
        with pytest.raises(ArgumentError):
            witness_condition(9, 0, 3)
        with pytest.raises(ArgumentError):
            witness_condition(9, 3, -1)

    @pytest.mark.parametrize(
        "num_parties,d,expected",
        [
            (4, 4, True),
            (4, 3, False),
            (4, 2, False),
            (5, 5, True),
            (5, 4, False),
            (7, 3, True),
            (7, 2, False),
            (6, 2, True),
            (2, 2, False),
            (3, 3, False),
            (9, 2, True),
            (12, 2, True),
        ],
    )
    def test_minimal_support_condition(self, num_parties, d, expected):
        assert minimal_support_condition(num_parties, d) is expected

    def test_minimal_support_matches_formula(self):
        for num_parties in range(2, 13):
            for d in range(2, 13):
                lhs = d ** (num_parties // 2)
                rhs = num_parties * d - (num_parties - 1)
                got = minimal_support_condition(num_parties, d)
                assert got == (lhs > rhs)

    def test_minimal_support_rejects_degenerate(self):
        with pytest.raises(ArgumentError):
            minimal_support_condition(1, 3)
        with pytest.raises(ArgumentError):
            minimal_support_condition(4, 1)
