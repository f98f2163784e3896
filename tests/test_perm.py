import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from oracles import from_cycles
from soficlab.perm import (DegreeMismatchError, HammingValue, Permutation,
                           displacement, hamming, iterate, orbit_order)


def periodic_points(p, k):
    """|{i : p^k(i) = i}| from Permutation.cycle_lengths: a point is
    k-periodic iff its cycle length divides k."""
    return sum(length for length in p.cycle_lengths() if k % length == 0)


def periodic_points_by_iteration(p, k):
    return int(np.count_nonzero(iterate(p.image, k) == np.arange(p.n)))


def random_perm(n, seed):
    return Permutation(np.random.default_rng(seed).permutation(n))


perm_strategy = st.integers(1, 60).flatmap(
    lambda n: st.integers(0, 2**32 - 1).map(lambda s: random_perm(n, s)))


class TestComposeInverse:
    def test_identity_compose(self):
        p = Permutation([2, 0, 1])
        assert Permutation.identity(3).compose(p) == p
        assert p.compose(Permutation.identity(3)) == p

    def test_involution(self):
        p = Permutation([1, 0])
        assert p.compose(p).is_identity()

    def test_three_cycle_inverse(self):
        p = from_cycles(3, [(0, 1, 2)])
        assert p.inverse() == from_cycles(3, [(0, 2, 1)])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            Permutation([0, 1]).compose(Permutation([0, 1, 2]))

    @given(perm_strategy)
    def test_inverse_cancels(self, p):
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()


class TestHamming:
    def test_identical(self):
        p = Permutation([3, 1, 0, 2])
        assert hamming(p, p).numerator == 0

    def test_three_cycle_vs_identity(self):
        p = from_cycles(5, [(0, 1, 2)])
        assert hamming(p, Permutation.identity(5)).value == Fraction(3, 5)

    def test_transposition_vs_identity(self):
        p = from_cycles(4, [(0, 1)])
        assert hamming(p, Permutation.identity(4)).value == Fraction(2, 4)

    def test_exact_not_float(self):
        h = hamming(Permutation([1, 0, 2]), Permutation.identity(3))
        assert isinstance(h.value, Fraction) and h.value == Fraction(2, 3)

    @given(perm_strategy, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_metric_axioms(self, p, s1, s2):
        q, r = random_perm(p.n, s1), random_perm(p.n, s2)
        assert hamming(p, q).value == hamming(q, p).value
        assert (hamming(p, q).numerator == 0) == (p == q)
        assert hamming(p, r).value <= hamming(p, q).value + hamming(q, r).value

    @given(perm_strategy, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_bi_invariance(self, p, s1, s2):
        q, r = random_perm(p.n, s1), random_perm(p.n, s2)
        base = hamming(p, q).value
        assert hamming(r.compose(p), r.compose(q)).value == base
        assert hamming(p.compose(r), q.compose(r)).value == base


class TestPeriodicPoints:
    def test_identity_all_k(self):
        p = Permutation.identity(7)
        for k in (1, 2, 3, 4, 12):
            assert periodic_points(p, k) == 7

    def test_four_cycle(self):
        p = from_cycles(4, [(0, 1, 2, 3)])
        assert periodic_points(p, 2) == 0
        assert periodic_points(p, 4) == 4

    @given(perm_strategy, st.integers(1, 12))
    def test_matches_iteration_oracle(self, p, k):
        assert periodic_points(p, k) == periodic_points_by_iteration(p, k)

    def test_large_degree_agreement(self):
        p = random_perm(10_000, 7)
        for k in (1, 3, 8, 12):
            assert periodic_points(p, k) == periodic_points_by_iteration(p, k)


class TestDisplacementOrbitOrder:
    def test_displacement_of_identity(self):
        assert displacement(Permutation.identity(5)).numerator == 0

    @given(perm_strategy)
    def test_orbit_order_is_permutation(self, p):
        order = orbit_order(p)
        assert sorted(order.tolist()) == list(range(p.n))

    @given(perm_strategy, st.integers(0, 2**32 - 1))
    def test_orbit_order_equivariant_blockwise(self, p, s):
        # conjugation relabels every cycle; the multiset of consecutive-run
        # cycle lengths in the orbit order is invariant
        sigma = random_perm(p.n, s)
        q = sigma.compose(p).compose(sigma.inverse())
        assert sorted(p.cycle_lengths()) == sorted(q.cycle_lengths())

    @given(perm_strategy)
    def test_orbit_order_blocks_are_cycles_from_their_least_point(self, p):
        # cut at the running sums of the cycle lengths, the orbit order is
        # one cycle per block, entered at its smallest point, blocks in
        # increasing order of that point
        order = orbit_order(p).tolist()
        cuts = np.cumsum([0] + p.cycle_lengths()).tolist()
        assert cuts[-1] == p.n
        blocks = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        for block in blocks:
            assert block[0] == min(block)
            assert [p(x) for x in block] == block[1:] + block[:1]
        firsts = [block[0] for block in blocks]
        assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)


class TestValidation:
    def test_trusted_image_kept_read_only(self):
        image = np.array([2, 0, 1], dtype=np.int64)
        p = Permutation(image, _trusted=True)
        assert p.image is image
        assert not image.flags.writeable

    def test_untrusted_image_copied(self):
        image = np.array([2, 0, 1], dtype=np.int64)
        p = Permutation(image)
        assert not np.shares_memory(p.image, image)
        assert not p.image.flags.writeable
        image[0] = 7
        assert p.image.tolist() == [2, 0, 1]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation([0, 3])

    def test_hamming_value_range(self):
        with pytest.raises(ValueError):
            HammingValue(5, 4)
