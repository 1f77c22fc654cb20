"""Marginals, purity, entropy, and the uniformity reports."""

import itertools
import math

import numpy as np
import pytest

from luinv import (
    DENSE_CAP,
    UNIFORMITY_TOL,
    ArgumentError,
    CapacityError,
    OrthogonalArray,
    SparseState,
    catalog_state,
    check_strength,
    entanglement,
    entropy,
    from_iroa,
    invariant_sparse,
    is_ame,
    is_irredundant,
    is_k_uniform,
    parse_oa,
    purity,
    purity_perms,
    reduced_density,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_state(gen, num_parties, local_dim):
    shape = (local_dim,) * num_parties
    t = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    t /= np.linalg.norm(t.ravel())
    amps = {idx: t[idx] for idx in np.ndindex(shape)}
    return SparseState(num_parties, local_dim, amps, normalize=True)


def reed_solomon(p, drop_row=False):
    """IrOA(p^2, p + 1, p, 2) over GF(p): row (a, b) reads a + b x at each
    x in GF(p), then b.  ``drop_row`` leaves out the row (0, 0)."""
    rows = [
        tuple((a + b * x) % p for x in range(p)) + (b,)
        for a in range(p)
        for b in range(p)
    ]
    return OrthogonalArray(rows=tuple(rows[drop_row:]), num_parties=p + 1, local_dim=p)


def reduced_oracle(s, subset):
    """Partial trace straight off the dense tensor, party by party."""
    t = s.dense()
    keep = [p - 1 for p in sorted(subset)]
    drop = [a for a in range(s.num_parties) if a not in keep]
    rho = np.tensordot(
        np.transpose(t, keep + drop),
        np.transpose(t.conj(), keep + drop),
        axes=(drop and [len(keep) + i for i in range(len(drop))] or [],) * 2
        if drop
        else 0,
    )
    k = len(keep)
    return rho.reshape(s.local_dim**k, s.local_dim**k)


class TestReducedDensity:
    def test_ghz_marginal(self):
        rho = reduced_density(catalog_state("ghz"), (1,)).matrix
        assert np.allclose(rho, np.eye(2) / 2)

    def test_subset_recorded_sorted(self):
        r = reduced_density(catalog_state("ame43"), (3, 1))
        assert r.subset == (1, 3)

    def test_trace_one(self):
        s = random_state(rng(3), 3, 3)
        for size in (1, 2):
            for subset in itertools.combinations(range(1, 4), size):
                rho = reduced_density(s, subset).matrix
                assert abs(np.trace(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("num_parties,local_dim", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_matches_partial_trace_oracle(self, num_parties, local_dim):
        s = random_state(rng(num_parties * 10 + local_dim), num_parties, local_dim)
        for size in range(1, num_parties):
            for subset in itertools.combinations(range(1, num_parties + 1), size):
                got = reduced_density(s, subset).matrix
                want = reduced_oracle(s, subset)
                assert np.allclose(got, want, atol=1e-12)

    def test_bad_subsets(self):
        s = catalog_state("ghz")
        for subset in ((), (1, 1), (0,), (4,), (1, 2, 3)):
            with pytest.raises(ArgumentError):
                reduced_density(s, subset)

    def test_cap_on_result(self):
        # the d^k x d^k result is capped, not d^N: 60^4 entries are refused
        # for a three-party product state, 60^2 are not
        s = SparseState(3, 60, {(0, 1, 2): 1.0})
        assert 60**4 > DENSE_CAP >= 60**2
        with pytest.raises(CapacityError):
            reduced_density(s, (1, 3))
        with pytest.raises(CapacityError):
            entropy(s, (1, 3))
        rho = reduced_density(s, (2,)).matrix
        assert rho.shape == (60, 60) and rho[1, 1] == 1.0
        assert purity(s, (1, 3)) == 1.0


class TestPurityEntropy:
    def test_ghz_party_purity(self):
        assert abs(purity(catalog_state("ghz"), (1,)) - 0.5) < 1e-12

    def test_product_state_purity(self):
        s = SparseState(2, 2, {(0, 1): 1.0})
        assert abs(purity(s, (1,)) - 1.0) < 1e-15

    def test_ghz_entropy_one_bit(self):
        assert abs(entropy(catalog_state("ghz"), (2,)) - 1.0) < 1e-12

    def test_entropy_base(self):
        s = catalog_state("ghz")
        e2 = entropy(s, (1,), base=2)
        e4 = entropy(s, (1,), base=4)
        assert abs(e2 - 2 * e4) < 1e-12

    def test_entropy_bad_base(self):
        with pytest.raises(ArgumentError):
            entropy(catalog_state("ghz"), (1,), base=1)

    def test_psi3d_maximal_marginal_entropy(self):
        s = catalog_state("psi3d", d=3)
        assert abs(entropy(s, (1,)) - 1.0) < 1e-12

    def test_pure_product_entropy_zero(self):
        s = SparseState(3, 2, {(1, 1, 0): 1.0})
        assert entropy(s, (1, 2)) < 1e-12


class TestUniformity:
    def test_ame33_is_1_uniform(self, example_oa):
        rep = is_k_uniform(from_iroa(example_oa), 1)
        assert rep.passed
        assert rep.max_deviation <= 1e-10

    def test_ame43_is_ame(self):
        rep = is_ame(catalog_state("ame43"))
        assert rep.passed
        assert rep.k == 2

    def test_ame52_is_ame(self):
        rep = is_ame(catalog_state("ame52", theta=0.3))
        assert rep.passed
        assert rep.k == 2

    def test_ghz4_fails_ame(self):
        s = from_iroa(parse_oa("0 0 0 0\n1 1 1 1"))
        rep = is_ame(s)
        assert not rep.passed
        # the marginal is diag(1/2, 0, 0, 1/2); entries miss I/4 by 1/4
        assert abs(rep.max_deviation - 0.25) < 1e-12
        assert len(rep.worst_subset) == 2

    def test_phase_does_not_break_uniformity(self, example_oa):
        rep = is_k_uniform(from_iroa(example_oa, {(0, 0, 0): 1.234}), 1)
        assert rep.passed

    def test_worst_subset_reported(self):
        # spoil uniformity on party 3 only
        amps = {(0, 0, 0): 1 / math.sqrt(2), (1, 1, 0): 1 / math.sqrt(2)}
        rep = is_k_uniform(SparseState(3, 2, amps), 1)
        assert not rep.passed
        assert rep.worst_subset == (3,)

    def test_missing_diagonal_entry_counts(self):
        # each marginal is diag(1/2, 1/2, 0): the entry the support never
        # reaches misses I/3 by 1/3, the present ones by 1/6
        amps = {(0, 0): 1.0, (1, 1): 1.0}
        rep = is_k_uniform(SparseState(2, 3, amps, normalize=True), 1)
        assert rep.worst_subset == (1,)
        assert abs(rep.max_deviation - 1 / 3) < 1e-15

    def test_over_cap_refused_before_allocating(self):
        # the 121-row Reed-Solomon IrOA over GF(11): N = 12, d^N = 11^12
        s = from_iroa(reed_solomon(11))
        with pytest.raises(CapacityError):
            is_ame(s)

    def test_benchmark_refusal_kept(self):
        # The sparse path answers this in milliseconds (TestIrOAUniformity),
        # yet the refusal stays: the classify-pipeline benchmark adds
        # C(N, k) * d^N to its entanglement.dense_entries counter for every
        # answered check, which at 11^12 carries a 60-s traced run past
        # 2^53.  Lifting it waits for that counter's fix (ROADMAP item 5).
        with pytest.raises(CapacityError):
            is_k_uniform(from_iroa(reed_solomon(11)), 2)

    @pytest.mark.parametrize("stack_rows", [1, 96])
    def test_runs_of_subsets_agree(self, monkeypatch, stack_rows):
        # one subset per join, or runs of three (r = 32 and 27), gives the
        # report of one stacked join
        states = [random_state(rng(7), 5, 2), catalog_state("psi5d", d=3)]
        states.append(from_iroa(parse_oa("0 0 0 0\n1 1 1 1")))
        whole = [is_k_uniform(s, 2) for s in states]
        monkeypatch.setattr(entanglement, "_STACK_ROWS", stack_rows)
        assert [is_k_uniform(s, 2) for s in states] == whole

    def test_k_range(self):
        s = catalog_state("ghz")
        with pytest.raises(ArgumentError):
            is_k_uniform(s, 0)
        with pytest.raises(ArgumentError):
            is_k_uniform(s, 2)

    def test_as_dict_shape(self):
        rep = is_ame(catalog_state("ame43"))
        d = rep.as_dict()
        assert set(d) == {"k", "pass", "max_deviation", "worst_subset"}
        assert d["pass"] is True
        assert isinstance(d["worst_subset"], list)

    def test_tolerance_is_respected(self):
        s = catalog_state("ame43")
        tight = is_k_uniform(s, 1, tol=1e-18)
        loose = is_k_uniform(s, 1, tol=1e-6)
        assert loose.passed
        # float noise in the ninth-amplitude sums sits above 1e-18
        assert tight.max_deviation == loose.max_deviation


class TestIrOAUniformity:
    """from_iroa(oa) is k-uniform iff oa is an IrOA of strength k
    (Goyeneche & Zyczkowski, PRA 90, 022316, 2014), on Reed-Solomon
    arrays and the same arrays less one row."""

    @pytest.mark.parametrize("drop_row", [False, True])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_verdict_iff_iroa(self, p, drop_row):
        oa = reed_solomon(p, drop_row)
        iroa = check_strength(oa, 2).holds and is_irredundant(oa, 2)
        assert iroa is not drop_row
        assert is_k_uniform(from_iroa(oa), 2).passed is iroa

    @pytest.mark.parametrize("drop_row", [False, True])
    @pytest.mark.parametrize("p", [11, 13])
    def test_past_the_kept_guard(self, p, drop_row):
        # p^(p+1) is over DENSE_CAP, so check each 2-subset directly: its
        # reduced density against I / p^2, and the exact integer test
        # c * d^k == r^2, where Tr rho_S^2 = c / r^2 for the term count c
        # of the swap invariant on a phase-free state
        oa = reed_solomon(p, drop_row)
        s = from_iroa(oa)
        uniform = []
        for subset in itertools.combinations(range(1, p + 2), 2):
            rho = reduced_density(s, subset).matrix
            close = bool(np.abs(rho - np.eye(p**2) / p**2).max() <= UNIFORMITY_TOL)
            c = invariant_sparse(s, purity_perms(subset, p + 1)).term_count
            assert (c * p**2 == oa.r**2) is close
            uniform.append(close)
        assert all(uniform) is not drop_row
