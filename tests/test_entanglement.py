"""Marginals, purity, entropy, and the uniformity reports."""

import itertools
import math

import numpy as np
import pytest

from luinv import (
    ArgumentError,
    CapacityError,
    SparseState,
    catalog_state,
    entropy,
    from_iroa,
    is_ame,
    is_k_uniform,
    matricize,
    parse_oa,
    purity,
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


class TestMatricize:
    def test_ghz_single_party_rows(self):
        m = matricize(catalog_state("ghz"), (1, 2, 3), 1).matrix
        expect = np.zeros((2, 4), dtype=complex)
        expect[0, 0] = expect[1, 3] = 1 / math.sqrt(2)
        assert np.allclose(m, expect)

    def test_row_major_order(self):
        s = SparseState(3, 2, {(1, 0, 1): 1.0})
        m = matricize(s, (2, 1, 3), 2).matrix
        # row index is (party2, party1) = (0, 1) -> 1; column is party3 -> 1
        assert m.shape == (4, 2)
        assert m[1, 1] == 1.0

    def test_bad_sigma(self):
        s = catalog_state("ghz")
        with pytest.raises(ArgumentError):
            matricize(s, (1, 1, 2), 1)
        with pytest.raises(ArgumentError):
            matricize(s, (1, 2), 1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_bad_split(self, k):
        with pytest.raises(ArgumentError):
            matricize(catalog_state("ghz"), (1, 2, 3), k)

    def test_cap(self):
        s = catalog_state("ame43")
        with pytest.raises(CapacityError):
            matricize(s, (1, 2, 3, 4), 2, cap=80)


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

    def test_over_cap_refused_before_allocating(self):
        # the 121-row Reed-Solomon IrOA over GF(11): N = 12, d^N = 11^12
        rows = [
            " ".join(str(v) for v in [(a + b * x) % 11 for x in range(11)] + [b])
            for a in range(11)
            for b in range(11)
        ]
        s = from_iroa(parse_oa("\n".join(rows)))
        with pytest.raises(CapacityError):
            is_ame(s)

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
