"""Invariant engines against a direct loop oracle, plus the permutation I/O."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from luinv import invariants as invariants_mod
from luinv import (
    ArgumentError,
    CapacityError,
    ParseError,
    PermutationSet,
    SparseState,
    catalog_state,
    compose,
    factorization_check,
    format_perms,
    from_iroa,
    invariant,
    invariant_dense,
    invariant_sparse,
    parse_oa,
    parse_perms,
    purity,
    purity_perms,
)
from tests.test_acceptance import FIVE_PARTY_TRIPLE

CYCLIC3 = PermutationSet(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


def rng(seed=0):
    return np.random.default_rng(seed)


def invariant_loops(state, p):
    """Direct evaluation of the defining sum, no pruning, no numpy.

    For each assignment of support tuples to the n ket copies, bra copy l
    takes its party-j symbol from ket copy sigma_j(l); the term dies when
    that bra tuple falls outside the support.  Returns the value and the
    number of assignments that survive.
    """
    amps = state.amplitudes
    num_parties = state.num_parties
    support = sorted(amps)
    total = 0j
    survivors = 0
    for assign in itertools.product(support, repeat=p.n):
        term = 1 + 0j
        for ket in assign:
            term *= amps[ket]
        for l in range(p.n):
            bra = tuple(
                assign[p.perms[j][l] - 1][j] for j in range(num_parties)
            )
            a = amps.get(bra)
            if a is None:
                term = 0j
                break
            term *= a.conjugate()
        else:
            survivors += 1
        total += term
    return total, survivors


def random_sparse_state(gen, num_parties, local_dim, size):
    if size > local_dim**num_parties:
        raise ValueError(
            "%d distinct rows asked for, only %d exist"
            % (size, local_dim**num_parties)
        )
    keys = set()
    while len(keys) < size:
        keys.add(tuple(int(v) for v in gen.integers(0, local_dim, size=num_parties)))
    amps = {
        k: complex(gen.standard_normal(), gen.standard_normal()) for k in keys
    }
    return SparseState(num_parties, local_dim, amps, normalize=True)


def random_perms(gen, n, num_parties):
    return PermutationSet(
        n,
        tuple(
            tuple(int(v) + 1 for v in gen.permutation(n))
            for _ in range(num_parties)
        ),
    )


def test_random_state_refuses_more_rows_than_exist():
    with pytest.raises(ValueError, match="6 distinct rows asked for, only 4"):
        random_sparse_state(rng(), 2, 2, 6)


class TestPermutationSet:
    def test_one_line_reading(self):
        p = PermutationSet(3, ((2, 3, 1),))
        assert p.perms[0][0] == 2  # sigma(1) = 2

    def test_identity(self):
        p = PermutationSet.identity(3, 4)
        assert p.perms == ((1, 2, 3),) * 4
        assert p.num_parties == 4

    def test_rejects_non_bijection(self):
        with pytest.raises(ArgumentError):
            PermutationSet(3, ((1, 1, 2),))
        with pytest.raises(ArgumentError):
            PermutationSet(3, ((0, 1, 2),))
        with pytest.raises(ArgumentError):
            PermutationSet(2, ((1, 2), (1, 2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            PermutationSet(2, ())
        with pytest.raises(ArgumentError):
            PermutationSet(0, ((),))

    @pytest.mark.parametrize(
        "n,perms",
        [
            (2, ((1.5, 2), (2, 1))),
            (2, ((2.0, 1.0),)),
            (2.0, ((1, 2), (2, 1))),
            (2.5, ((1, 2),)),
        ],
    )
    def test_rejects_non_integers(self, n, perms):
        with pytest.raises(ArgumentError, match="is not an integer"):
            PermutationSet(n, perms)

    def test_identity_rejects_float_n(self):
        with pytest.raises(ArgumentError, match="is not an integer"):
            PermutationSet.identity(2.0, 3)

    def test_numpy_integers_read_as_ints(self):
        p = PermutationSet(np.int64(2), ((np.int32(2), np.int64(1)), (1, 2)))
        assert p == PermutationSet(2, ((2, 1), (1, 2)))
        assert type(p.n) is int and type(p.perms[0][0]) is int


class TestPermIO:
    def test_round_trip(self):
        text = format_perms(CYCLIC3)
        assert text.splitlines()[0] == "3 3"
        assert parse_perms(text) == CYCLIC3

    def test_parse_fixture(self):
        p = parse_perms("2 3\n2 1\n1 2\n2 1\n")
        assert p.n == 2
        assert p.perms == ((2, 1), (1, 2), (2, 1))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x y\n1 2",
            "2\n1 2",
            "2 2\n1 2",
            "2 1\n1 2\n2 1",
            "2 1\n1 x",
            "2 1\n1 1",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_perms(text)


class TestAgainstLoopOracle:
    """Both engines must reproduce the defining sum exactly."""

    CASES = [
        (2, 2, 2, 3, 11),
        (2, 3, 3, 4, 12),
        (3, 2, 2, 4, 13),
        (3, 3, 2, 5, 14),
        (2, 4, 2, 4, 15),
        (3, 2, 3, 3, 16),
        # r = 64 fills one mask word exactly, r = 65 spills into a second
        (3, 4, 2, 64, 17),
        (3, 4, 3, 65, 18),
    ]

    @pytest.mark.parametrize("local_dim,num_parties,n,size,seed", CASES)
    def test_sparse_matches_loops(self, local_dim, num_parties, n, size, seed):
        gen = rng(seed)
        s = random_sparse_state(gen, num_parties, local_dim, size)
        p = random_perms(gen, n, num_parties)
        want, survivors = invariant_loops(s, p)
        got = invariant_sparse(s, p)
        assert got.engine == "sparse"
        assert got.term_count == survivors
        assert abs(got.value - want) < 1e-12

    @pytest.mark.parametrize("local_dim,num_parties,n,size,seed", CASES)
    def test_dense_matches_loops(self, local_dim, num_parties, n, size, seed):
        gen = rng(seed)
        s = random_sparse_state(gen, num_parties, local_dim, size)
        p = random_perms(gen, n, num_parties)
        want, _ = invariant_loops(s, p)
        got = invariant_dense(s, p)
        assert got.engine == "dense"
        assert got.term_count is None
        assert abs(got.value - want) < 1e-12

    def test_term_count_is_surviving_assignments(self):
        s = catalog_state("psi3d", d=3)
        got = invariant_sparse(s, CYCLIC3)
        # the loop oracle sees 81 of 9^3 assignments survive for this family
        assert got.term_count == invariant_loops(s, CYCLIC3)[1] == 81

    # bra l takes parties 1, 2 from ket copy l and parties 3, 4 from the
    # next copy, so one level pins two parties of the same bra: rows that
    # pass each pin alone can still leave that bra with no live row
    @pytest.mark.parametrize(
        "p",
        [
            PermutationSet(2, ((1, 2), (1, 2), (2, 1), (2, 1))),
            PermutationSet(3, ((1, 2, 3), (1, 2, 3), (2, 3, 1), (2, 3, 1))),
        ],
    )
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_bra_pinned_twice_by_one_copy(self, p, seed):
        s = random_sparse_state(rng(seed), 4, 3, 20)
        want, survivors = invariant_loops(s, p)
        got = invariant_sparse(s, p)
        assert got.term_count == survivors
        assert abs(got.value - want) < 1e-12

    @pytest.mark.parametrize("local_dim,num_parties,n,size,seed", CASES)
    def test_join_budget_refused_before_building(
        self, monkeypatch, local_dim, num_parties, n, size, seed
    ):
        gen = rng(seed)
        s = random_sparse_state(gen, num_parties, local_dim, size)
        p = random_perms(gen, n, num_parties)

        # counts the byte plan can size, but that refuse to be multiplied
        class NoProducts(int):
            def __mul__(self, other):
                raise AssertionError("a join over budget was built")

        rows = np.array(s.support(), dtype=np.int64)
        poison = np.empty(len(rows), dtype=object)
        poison[:] = [NoProducts(1) for _ in rows]
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 0)
        with pytest.raises(CapacityError, match=r"plans \d+ rows, [1-9]\d* bytes"):
            invariants_mod._contract(
                rows, (poison,), (poison,), np.zeros(len(rows), int), p
            )

    @staticmethod
    def at_tightest_budget(monkeypatch, s, p):
        """``invariant_sparse`` under a byte budget raised only to each
        refused join's planned bytes, so every join runs at its limit;
        also returns the number of joins and of groupings run."""
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
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 0)
        while True:
            joins.clear()
            groups.clear()
            try:
                return invariant_sparse(s, p), len(joins), len(groups)
            except CapacityError as exc:
                planned = int(re.search(r"(\d+) bytes;", str(exc)).group(1))
                assert planned > invariants_mod._JOIN_BYTES
                monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", planned)

    @pytest.mark.parametrize("local_dim,num_parties,n,size,seed", CASES)
    def test_chunking_does_not_change_result(
        self, monkeypatch, local_dim, num_parties, n, size, seed
    ):
        gen = rng(seed)
        s = random_sparse_state(gen, num_parties, local_dim, size)
        p = random_perms(gen, n, num_parties)
        whole = invariant_sparse(s, p)
        limited, _, _ = self.at_tightest_budget(monkeypatch, s, p)
        assert limited.term_count == whole.term_count
        assert abs(limited.value - whole.value) < 1e-12

    def test_tight_budgets_run_joins_in_chunks(self, monkeypatch):
        # a join in one chunk groups once; one in k > 1 chunks groups each
        # chunk and then the parts, so extra groupings mean chunked joins
        chunked = 0
        for local_dim, num_parties, n, size, seed in self.CASES:
            gen = rng(seed)
            s = random_sparse_state(gen, num_parties, local_dim, size)
            p = random_perms(gen, n, num_parties)
            whole = invariant_sparse(s, p)
            with monkeypatch.context() as patch:
                limited, joins, groups = self.at_tightest_budget(patch, s, p)
            assert limited.term_count == whole.term_count
            chunked += groups > joins
        assert chunked > 0

    def test_keys_wider_than_int64_radix(self, monkeypatch):
        # a power-of-two alphabet, so a plain d^width code that wraps past
        # int64 drops whole columns; few distinct symbols, so copies share
        # rows and joins keep many wide keys
        local_dim, num_parties = 2**16, 6
        gen = rng(31)
        symbols = np.array([0, 1, 30011, local_dim - 1])
        keys = {tuple(gen.choice(symbols, num_parties).tolist()) for _ in range(40)}
        amps = {k: complex(gen.standard_normal(), gen.standard_normal()) for k in keys}
        s = SparseState(num_parties, local_dim, amps, normalize=True)
        p = PermutationSet(
            3, ((3, 2, 1), (2, 1, 3), (3, 2, 1), (3, 1, 2), (2, 3, 1), (1, 3, 2))
        )

        widths = []
        join = invariants_mod._join

        def recorded(a, b):
            out = join(a, b)
            widths.append(len(out[0]))
            return out

        monkeypatch.setattr(invariants_mod, "_join", recorded)
        got = invariant_sparse(s, p)
        want, survivors = invariant_loops(s, p)
        assert local_dim ** max(widths) > 2**63
        assert got.term_count == survivors > len(keys)
        assert abs(got.value - want) < 1e-12


class TestObjectCountBudget:
    """Two 4,000-row tables on three labels over 8 symbols, sharing two, so
    about 250,000 pairs.  Counts near 3^40 are an object array, as
    ``_ones`` gives past r^n >= 2^63: every product and every sum is a new
    Python int, which the byte plan counts beside the pointer."""

    @staticmethod
    def tables(values):
        gen = rng(11)
        zero = np.zeros(len(values), dtype=np.int64)
        tables = []
        for labels in ([0, 1, 2], [0, 1, 3]):
            keys = gen.integers(0, 8, size=(len(values), 3))
            tables.append((labels, tuple(keys.T.copy()), (values,), zero))
        return tables

    @staticmethod
    def whole_plan(monkeypatch, a, b):
        """The bytes the join plans when it runs whole: at a zero budget
        the refusal names the first row's matches, their bytes and those
        with the per-table arrays."""
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 0)
        with pytest.raises(CapacityError) as refused:
            invariants_mod._join(a, b)
        found = re.search(
            r"(\d+) rows, (\d+) bytes, and with its tables (\d+)", str(refused.value)
        )
        rows, need, peak = map(int, found.groups())
        # the pairs: per value of the two shared labels, A's rows times B's
        on_a, on_b = (
            np.bincount(cols[0] * 8 + cols[1], minlength=64)
            for _, cols, _, _ in (a, b)
        )
        return int(on_a @ on_b) * need // rows + peak - need

    @pytest.mark.parametrize("share", [1, 3, 10])
    def test_traced_peak_within_budget(self, monkeypatch, share):
        values = np.array([3**40 + i for i in range(4000)], dtype=object)
        a, b = self.tables(values)
        whole = invariants_mod._join(a, b)
        budget = self.whole_plan(monkeypatch, a, b) // share
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", budget)
        tracemalloc.start()
        try:
            got = invariants_mod._join(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget
        assert sorted(got[2][0].tolist()) == sorted(whole[2][0].tolist())

    def test_int64_plan_unchanged(self, monkeypatch):
        # 80 bytes a pair: 56 for indexes and codes, 3 words of values
        a, b = self.tables(np.ones(4000, dtype=np.int64))
        monkeypatch.setattr(invariants_mod, "_JOIN_BYTES", 0)
        with pytest.raises(CapacityError) as refused:
            invariants_mod._join(a, b)
        rows, need = re.search(r"(\d+) rows, (\d+) bytes", str(refused.value)).groups()
        assert int(need) == 80 * int(rows)


def recorded_joins(monkeypatch):
    """The list that every ``_join`` call appends its two tables to."""
    calls = []
    join = invariants_mod._join

    def recorded(a, b):
        calls.append((a, b))
        return join(a, b)

    monkeypatch.setattr(invariants_mod, "_join", recorded)
    return calls


class TestTwinJoins:
    """Every ket copy holds the same table, as does every bra copy, so a
    join of the same two tables on the same label positions as a table
    still held takes that table's arrays instead of running."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("theta", [0.0, 0.9, math.pi])
    def test_cyclic3_runs_three_joins(self, monkeypatch, d, theta):
        calls = recorded_joins(monkeypatch)
        got = invariant_sparse(catalog_state("psi3d", d=d, theta=theta), CYCLIC3)
        # 6 tables take 5 joins; two of them are twins of the first
        assert len(calls) == 3
        want = (d**4 + 6 * (d - 1) * (d - 2) * (math.cos(theta) - 1)) / d**6
        assert abs(got.value - want) < 1e-12

    def test_ket_and_bra_tables_never_twins(self, monkeypatch):
        """Identity permutations on some parties put a ket copy's labels
        and a bra copy's at equal positions; with complex amplitudes their
        data differ (Psi against conj Psi), and every value still matches
        the loops, whether twins were reused or not."""
        calls = recorded_joins(monkeypatch)
        gen = rng(41)
        reused = 0
        for trial in range(40):
            num_parties = int(gen.integers(3, 5))
            n = int(gen.integers(2, 4))
            s = random_sparse_state(gen, num_parties, 2 + trial % 2, 6)
            fixed = int(gen.integers(1, num_parties + 1))
            perms = random_perms(gen, n, num_parties).perms
            p = PermutationSet(n, (tuple(range(1, n + 1)),) * fixed + perms[fixed:])
            calls.clear()
            want, survivors = invariant_loops(s, p)
            got = invariant_sparse(s, p)
            assert got.term_count == survivors
            assert abs(got.value - want) < 1e-12, (trial, p)
            reused += len(calls) < 2 * n - 1
        assert reused > 0


class TestKnownValues:
    def test_identity_gives_one(self):
        for s in (catalog_state("ghz"), catalog_state("ame43")):
            for n in (1, 2, 3):
                p = PermutationSet.identity(n, s.num_parties)
                v = invariant_sparse(s, p)
                assert abs(v.value - 1.0) < 1e-12

    def test_counts_past_int64_are_exact(self):
        # r^n = 2^64: int64 counts would wrap around to 0
        s = catalog_state("ghz")
        got = invariant_sparse(s, PermutationSet.identity(64, 3))
        assert got.term_count == 2**64
        assert abs(got.value - 1.0) < 1e-12

    def test_ghz_swap_purity(self):
        s = catalog_state("ghz")
        p = purity_perms((1,), 3)
        assert p.perms == ((2, 1), (1, 2), (1, 2))
        v = invariant_sparse(s, p)
        assert abs(v.value - 0.5) < 1e-14

    def test_purity_correspondence_on_fixtures(self):
        for s in (
            catalog_state("psi3d", d=3, theta=0.8),
            catalog_state("ame52", theta=0.4),
        ):
            for size in range(1, s.num_parties):
                for subset in itertools.combinations(
                    range(1, s.num_parties + 1), size
                ):
                    p = purity_perms(subset, s.num_parties)
                    v = invariant(s, p).value
                    assert abs(v - purity(s, subset)) < 1e-10

    def test_ame33_closed_form_point(self):
        # theta = pi gives (81 + 12(cos pi - 1)) / 729 = 57/729
        s = catalog_state("psi3d", d=3, theta=math.pi)
        v = invariant_sparse(s, CYCLIC3)
        assert abs(v.value - 57 / 729) < 1e-12

    def test_value_is_real_for_these_fixtures(self):
        v = invariant_sparse(catalog_state("psi3d", d=4, theta=1.0), CYCLIC3)
        assert abs(v.value.imag) < 1e-14


class TestEngineSelection:
    def test_sparse_chosen_for_narrow_support(self):
        s = catalog_state("ghz")
        assert invariant(s, CYCLIC3).engine == "sparse"

    def test_full_support_takes_sparse_engine(self):
        gen = rng(2)
        s = random_sparse_state(gen, 2, 2, 4)  # full support on 2 qubits
        p = random_perms(gen, 2, 2)
        got = invariant(s, p)
        assert got.engine == "sparse"
        assert abs(got.value - invariant_dense(s, p).value) < 1e-12

    def test_dense_array_takes_oracle(self):
        t = catalog_state("ghz").dense()
        assert invariant(t, CYCLIC3).engine == "dense"

    def test_dense_cap_enforced(self, monkeypatch):
        # d^(N*n) is 2.0e13; the greedy plan sums 8.0e8 terms, over the cap
        def fail(*args, **kwargs):
            raise AssertionError("einsum ran")

        monkeypatch.setattr(np, "einsum", fail)
        s = catalog_state("psi3d", d=30, theta=0.7)
        with pytest.raises(CapacityError, match="plan sums 801927000 terms"):
            invariant_dense(s, CYCLIC3)

    @pytest.mark.parametrize("name,d", [("psi3d", 12), ("psi5d", 4), ("psi5d", 6)])
    def test_dense_past_the_naive_count(self, name, d):
        # d^(N*n) is 5.2e9 to 4.7e11, the plan sums 4.6e5 to 1.5e7 terms
        p = CYCLIC3 if name == "psi3d" else FIVE_PARTY_TRIPLE
        s = catalog_state(name, d=d, theta=0.7)
        got = invariant_dense(s, p).value
        assert abs(got - invariant_sparse(s, p).value) < 1e-10

    def test_plan_intermediate_and_single_step_refused(self):
        index_lists = [[0, 1], [2, 3], [0, 1, 2, 3]]
        # an outer product kept whole: 60^4 entries at once, 2 * 60^4 terms
        with pytest.raises(CapacityError, match="holds 12960000 entries at once"):
            invariants_mod._check_dense_plan(
                index_lists, ["einsum_path", (0, 1), (0, 1)], 60
            )
        # one step over all four indices sums d^4 terms: 10^8 is the cap
        single = ["einsum_path", (0, 1, 2)]
        invariants_mod._check_dense_plan(index_lists, single, 100)
        with pytest.raises(CapacityError, match="sums 104060401 terms"):
            invariants_mod._check_dense_plan(index_lists, single, 101)

    def test_dense_accepts_raw_tensor(self):
        t = catalog_state("ghz").dense()
        p = PermutationSet(2, ((2, 1), (1, 2), (1, 2)))
        v = invariant_dense(t, p)
        assert abs(v.value - 0.5) < 1e-14

    def test_dense_rejects_ragged_tensor(self):
        with pytest.raises(ArgumentError):
            invariant_dense(np.zeros((2, 3)), PermutationSet.identity(1, 2))

    def test_party_count_mismatch(self):
        s = catalog_state("ghz")
        with pytest.raises(ArgumentError):
            invariant_sparse(s, PermutationSet.identity(2, 4))
        with pytest.raises(ArgumentError):
            invariant_dense(s, PermutationSet.identity(2, 4))

    def test_sparse_requires_sparse_state(self):
        with pytest.raises(ArgumentError):
            invariant_sparse(np.zeros((2, 2)), PermutationSet.identity(1, 2))


class TestPurityPerms:
    def test_pattern(self):
        p = purity_perms((2, 4), 5)
        assert p.perms == ((1, 2), (2, 1), (1, 2), (2, 1), (1, 2))

    @pytest.mark.parametrize(
        "subset", [(), (1, 1), (0,), (6,), (1, 2, 3, 4, 5), (1.5,), (2.0, 4)]
    )
    def test_rejects_bad_subsets(self, subset):
        with pytest.raises(ArgumentError):
            purity_perms(subset, 5)

    def test_numpy_integer_parties(self):
        assert purity_perms((np.int64(2), np.int32(4)), 5) == purity_perms((2, 4), 5)


class TestFactorization:
    def test_composite_value_factorizes(self):
        s1 = catalog_state("psi3d", d=3, theta=math.pi)
        s2 = catalog_state("psi3d", d=3)
        rep = factorization_check(s1, s2, CYCLIC3)
        assert rep.passed
        assert rep.deviation <= 1e-10
        assert abs(rep.left - (57 / 729) * (1 / 9)) < 1e-12

    def test_ghz_pair_purity_value(self):
        g = catalog_state("ghz")
        p = purity_perms((1,), 3)
        rep = factorization_check(g, g, p)
        assert rep.passed
        assert abs(rep.left - 0.25) < 1e-12

    def test_party_mismatch(self):
        with pytest.raises(ArgumentError):
            factorization_check(
                catalog_state("ghz"), catalog_state("ame43"), CYCLIC3
            )


def test_compose_then_invariant_agrees_with_product():
    """Randomized spot check of the multiplicative law used by criterion 7."""
    gen = rng(77)
    for _ in range(10):
        s1 = random_sparse_state(gen, 3, 2, 3)
        s2 = random_sparse_state(gen, 3, 2, 4)
        p = random_perms(gen, 2, 3)
        left = invariant_sparse(compose(s1, s2), p).value
        right = invariant_sparse(s1, p).value * invariant_sparse(s2, p).value
        assert abs(left - right) < 1e-12


def test_engines_agree_on_marked_iroa_state(example_oa):
    s = from_iroa(example_oa, {(1, 2, 0): 1.3})
    for p in (CYCLIC3, PermutationSet(2, ((2, 1), (2, 1), (1, 2)))):
        a = invariant_sparse(s, p).value
        b = invariant_dense(s, p).value
        assert abs(a - b) < 1e-12


def test_zero_value_short_circuit():
    # disjoint support rows: every cross assignment dies, value 0
    amps = {(0, 0, 0): 1 / math.sqrt(2), (1, 1, 1): 1j / math.sqrt(2)}
    s = SparseState(3, 3, amps)
    v = invariant_sparse(s, CYCLIC3)
    # only the two all-same-row assignments survive
    assert v.term_count == 2
    assert abs(v.value - (0.5**3 + 0.5**3)) < 1e-15


def test_ghz4_oa_state_engines(example_oa):
    s = from_iroa(parse_oa("0 0 0 0\n1 1 1 1"))
    p = PermutationSet(2, ((2, 1), (2, 1), (1, 2), (1, 2)))
    a = invariant_sparse(s, p).value
    b = invariant_dense(s, p).value
    assert abs(a - b) < 1e-14
    assert abs(a - 0.5) < 1e-14
