"""Parsing, strength, irredundancy, and the row-count conditions."""

import itertools
import json
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
    find_witness,
    is_irredundant,
    minimal_support_condition,
    parse_oa,
    witness_condition,
)
from luinv.cli import main
from luinv.oa import _ranks
from tests.conftest import EXAMPLE_OA_TEXT
from tests.test_witness import psi5d_oa


class TestParse:
    def test_example_shape(self, example_oa):
        assert example_oa.r == 9
        assert example_oa.num_parties == 3
        assert example_oa.local_dim == 3

    def test_example_rows_in_order(self, example_oa):
        assert example_oa.rows[0].tolist() == [0, 0, 0]
        assert example_oa.rows[4].tolist() == [1, 1, 2]
        assert example_oa.rows[-1].tolist() == [2, 2, 1]

    def test_single_line(self):
        oa = parse_oa("0 0 0")
        assert (oa.r, oa.num_parties, oa.local_dim) == (1, 3, 1)

    def test_header_detected(self):
        oa = parse_oa("# 9 3 3\n" + EXAMPLE_OA_TEXT)
        assert (oa.r, oa.num_parties, oa.local_dim) == (9, 3, 3)
        assert np.array_equal(oa.rows, parse_oa(EXAMPLE_OA_TEXT).rows)

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


class TestRowTable:
    """``OrthogonalArray.rows`` is one read-only int64 table, in the given
    row order, whatever form the rows come in."""

    def test_input_forms_give_one_table(self, example_oa):
        rows = example_oa.rows.tolist()[::-1]
        given = np.array(rows, dtype=np.int32)
        forms = [tuple(map(tuple, rows)), rows, given]
        tables = [OrthogonalArray(form, 3, 3).rows for form in forms]
        for table in tables:
            assert table.dtype == np.int64 and table.shape == (9, 3)
            assert not table.flags.writeable
            assert table.tolist() == rows
        # the array holds a copy: the caller's array stays its own
        given[0, 0] = 0
        assert tables[2][0, 0] == rows[0][0] == 2

    def test_rows_cannot_be_written(self, example_oa):
        with pytest.raises(ValueError):
            example_oa.rows[0, 0] = 1

    def test_witness_holds_the_same_table(self, example_oa):
        assert find_witness(example_oa).rows is example_oa.rows

    def test_numpy_integer_symbols(self):
        rows = ((np.int64(0), np.uint8(1)), (np.int32(1), np.uint64(0)))
        assert OrthogonalArray(rows, 2, 2).rows.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 0.5), (1, 1.5)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            ((0, 1), ("1", 0)),
        ],
    )
    def test_non_integer_symbol_refused(self, rows):
        with pytest.raises(ArgumentError, match="is not an integer"):
            OrthogonalArray(rows, 2, 2)

    @pytest.mark.parametrize("local_dim", [2, 10**23 + 1])
    def test_symbol_past_int64_refused(self, local_dim):
        with pytest.raises(ArgumentError, match="symbol 10+ is past int64"):
            OrthogonalArray(((0, 0), (1, 10**23)), 2, local_dim)

    def test_dims_must_be_integers(self):
        with pytest.raises(ArgumentError, match="must be integers"):
            OrthogonalArray([[0, 1], [1, 0]], 2.0, 2.0)
        oa = OrthogonalArray([[0, 1], [1, 0]], np.int64(2), np.uint8(2))
        assert type(oa.num_parties) is type(oa.local_dim) is int


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

    @pytest.mark.parametrize("k", [0, 4, -1, 2.0, 1.0])
    def test_k_out_of_range(self, example_oa, k):
        with pytest.raises(ArgumentError):
            check_strength(example_oa, k)

    def test_k_read_as_an_integer(self, example_oa):
        rep = check_strength(example_oa, True)
        assert type(rep.k) is int and rep == check_strength(example_oa, 1)
        assert check_strength(example_oa, np.int8(2)).index_lambda == 1


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

    @pytest.mark.parametrize("k", [0, 3, 2.0, 1.0])
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

    def test_one_subset_per_run(self, monkeypatch):
        # a stack too small for two subsets: every run codes one
        monkeypatch.setattr(oa_mod, "_STACK_ROWS", 1)
        for oa in _random_arrays(8, 200):
            for k in range(1, oa.num_parties + 1):
                assert check_strength(oa, k) == strength_by_counting(oa, k), (oa, k)
                if k < oa.num_parties:
                    assert is_irredundant(oa, k) == irredundant_by_projection(oa, k)

    def test_projection_codes_past_int64(self, monkeypatch):
        """21 columns over d=10 pass 2^62, so the codes are re-ranked on
        the way, and both verdicts still match the definition."""
        ranked = []
        monkeypatch.setattr(oa_mod, "_ranks", lambda code: ranked.append(1) or _ranks(code))
        rows = np.random.default_rng(26).integers(0, 10, size=(50, 22))
        near = rows.copy()
        near[-1] = near[0]
        near[-1, 5] = (near[0, 5] + 1) % 10
        for table, holds in ((rows, True), (near, False)):
            oa = OrthogonalArray(table, 22, 10)
            assert is_irredundant(oa, 1) is irredundant_by_projection(oa, 1) is holds
        assert ranked


@pytest.mark.slow
def test_psi5d_d48_irredundant(tmp_path, capsys):
    """The paper's largest psi5d array, r = 110,592, is irredundant at
    k = 1, through the library and through the CLI."""
    oa = psi5d_oa(48)
    assert is_irredundant(oa, 1)
    path = tmp_path / "psi5d_48.oa"
    path.write_text("\n".join(" ".join(map(str, row)) for row in oa.rows.tolist()))
    assert main(["oa", "validate", str(path), "--irredundant", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["irredundant"] == {"k": 1, "holds": True}


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
