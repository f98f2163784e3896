from fractions import Fraction

import numpy as np
import pytest

from soficlab.bsgroup import bs_a1, bs_a2
from soficlab.cli import conjugate_domain
from soficlab.conjugacy import (Conjugator, InsufficientSupportError,
                                build_conjugator, conjugacy_defect)
from soficlab.perm import Permutation, hamming
from soficlab.soficcheck import ArithmeticModel, SoficApprox

N = 1000
M = N - 1
EPS = Fraction(1, 4)


def base_model(n=N, m=M):
    return ArithmeticModel(n, m).approx_on(conjugate_domain(m)[2])


def conjugated(phi, sigma):
    sigma_inv = sigma.inverse()
    return SoficApprox(phi.n,
                       {g: sigma.compose(p).compose(sigma_inv)
                        for g, p in phi.table.items()})


def shapes_and_grid(m=M):
    """The conjugate subcommand's shapes and the grid of the top one."""
    shapes, grid, _ = conjugate_domain(m)
    return shapes, grid


def build(phi1, phi2, eps=EPS):
    return build_conjugator(phi1, phi2, eps, *shapes_and_grid())


@pytest.fixture(scope="module")
def phi1():
    return base_model()


class TestBuildConjugator:
    def test_equal_inputs_small_defect(self, phi1):
        conj = build(phi1, phi1)
        rep = conjugacy_defect(conj, phi1, phi1, [bs_a1(M), bs_a2(M)])
        assert rep.max_defect <= EPS

    def test_conjugate_inputs_small_defect(self, phi1):
        sigma = Permutation(np.random.default_rng(42).permutation(N))
        phi2 = conjugated(phi1, sigma)
        conj = build(phi1, phi2)
        rep = conjugacy_defect(conj, phi1, phi2, [bs_a1(M), bs_a2(M)])
        assert rep.max_defect <= EPS

    def test_tau_is_bijection(self, phi1):
        sigma = Permutation(np.random.default_rng(7).permutation(N))
        conj = build(phi1, conjugated(phi1, sigma))
        img = conj.tau.image
        assert sorted(img.tolist()) == list(range(N))

    def test_support_bound(self, phi1):
        sigma = Permutation(np.random.default_rng(3).permutation(N))
        conj = build(phi1, conjugated(phi1, sigma))
        assert conj.support_fraction() >= 1 - 4 * EPS / 7
        assert len(conj.lambda1) == len(conj.lambda2)
        assert np.array_equal(np.sort(conj.tau.image[conj.lambda1]), conj.lambda2)
        for support in (conj.lambda1, conj.lambda2):
            assert support.dtype == np.int64 and not support.flags.writeable
            assert (np.diff(support) > 0).all()

    def test_degree_mismatch(self, phi1):
        small = ArithmeticModel(500, 499).approx_on([bs_a1(499), bs_a2(499)])
        with pytest.raises(ValueError):
            build_conjugator(phi1, small, EPS, *shapes_and_grid())

    def test_insufficient_support_detected(self):
        # m = 3 is a genuine BS(1, 3) quotient; its matched support collapses
        phi = base_model(m=3)
        sigma = Permutation(np.random.default_rng(0).permutation(N))
        with pytest.raises(InsufficientSupportError,
                           match=r"matched support 714/1000 below 857\.1"):
            build_conjugator(phi, conjugated(phi, sigma), EPS, *shapes_and_grid(3))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabelled_table_gives_the_plain_tables_conjugator(self, phi1, seed):
        """phi1.conjugated(sigma) reads B off phi1's forms and builds its
        images on demand; the conjugator is the one built from the plain
        composed table."""
        sigma = Permutation(np.random.default_rng(seed).permutation(N))
        relabelled = phi1.conjugated(sigma)
        assert relabelled.relabelling() is not None
        got, want = build(phi1, relabelled), build(phi1, conjugated(phi1, sigma))
        assert got.tau == want.tau
        assert np.array_equal(got.lambda1, want.lambda1)
        assert np.array_equal(got.lambda2, want.lambda2)

    def test_relabelled_table_fails_the_same_support_check(self):
        phi = base_model(m=3)
        sigma = Permutation(np.random.default_rng(0).permutation(N))
        errors = []
        for phi2 in (phi.conjugated(sigma), conjugated(phi, sigma)):
            with pytest.raises(InsufficientSupportError) as exc:
                build_conjugator(phi, phi2, EPS, *shapes_and_grid(3))
            errors.append(str(exc.value))
        assert errors == ["matched support 714/1000 below 857.1"] * 2

    def test_shapes_off_the_inner_plan_rejected(self, phi1):
        with pytest.raises(ValueError, match="need 21 Folner shapes for eps=1/8"):
            shapes, grid = shapes_and_grid()
            build_conjugator(phi1, phi1, EPS, shapes[:-1], grid)


class TestConjugacyDefect:
    def test_identity_tau_zero_defect(self, phi1):
        conj = build(phi1, phi1)
        ident = Conjugator(Permutation.identity(N), conj.lambda1, conj.lambda1, EPS)
        rep = conjugacy_defect(ident, phi1, phi1, [bs_a1(M), bs_a2(M)])
        assert rep.max_defect.numerator == 0

    def test_random_tau_large_defect(self, phi1):
        sigma = Permutation(np.random.default_rng(11).permutation(N))
        phi2 = conjugated(phi1, sigma)
        conj = build(phi1, phi2)
        rand = Conjugator(Permutation(np.random.default_rng(12).permutation(N)),
                          conj.lambda1, conj.lambda2, EPS)
        rep = conjugacy_defect(rand, phi1, phi2, [bs_a1(M), bs_a2(M)])
        assert rep.max_defect > Fraction(1, 2)

    def test_missing_key(self, phi1):
        conj = build(phi1, phi1)
        with pytest.raises(KeyError):
            conjugacy_defect(conj, phi1, phi1, [bs_a1(2)])

    def test_empty_keys(self, phi1):
        conj = build(phi1, phi1)
        with pytest.raises(ValueError):
            conjugacy_defect(conj, phi1, phi1, [])

    def test_defect_matches_manual(self, phi1):
        sigma = Permutation(np.random.default_rng(21).permutation(N))
        phi2 = conjugated(phi1, sigma)
        conj = build(phi1, phi2)
        rep = conjugacy_defect(conj, phi1, phi2, [bs_a2(M)])
        tau, tau_inv = conj.tau, conj.tau.inverse()
        manual = hamming(tau.compose(phi1.table[bs_a2(M)]).compose(tau_inv),
                         phi2.table[bs_a2(M)])
        assert rep.per_key[bs_a2(M)].value == manual.value


class TestSerialization:
    def test_json_has_tau_and_supports(self, phi1):
        import json
        conj = build(phi1, phi1)
        data = json.loads(conj.to_json())
        assert data["n"] == N
        assert data["lambda1"] == conj.lambda1.tolist()
        assert data["lambda2"] == conj.lambda2.tolist()
        assert sorted(data["tau"]) == list(range(N))
