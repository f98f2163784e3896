from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import affine_approx, affine_fixed_points, eval_word, evaluate_word, plain_copy
from soficlab.bsgroup import BsElement, bs_a1, bs_a2
from soficlab.expcycles import MAX_MODULUS
from soficlab.perm import DegreeMismatchError, Permutation, hamming
from soficlab.soficcheck import (ArithmeticModel, SoficApprox, amplify,
                                 check_sofic, congruence_solutions)


def ball(m, e_bound=2, num_bound=4):
    out = []
    for e in range(-e_bound, e_bound + 1):
        for d in range(0, e_bound + 1):
            for num in range(-num_bound, num_bound + 1):
                if d > 0 and num % m == 0:
                    continue
                out.append(BsElement(m, e, num, d))
    return out


# degrees prime, odd composite and even, each with a base coprime to it
DEGREES = (101, 1009, 63, 105, 225, 1001, 64, 100, 210)


@st.composite
def degree_and_base(draw):
    n = draw(st.sampled_from(DEGREES))
    return n, draw(st.sampled_from([m for m in (2, 3, 5, 7, 11, n - 1) if gcd(m, n) == 1]))


word_strategy = st.lists(
    st.tuples(st.sampled_from(["a1", "a2"]), st.integers(-3, 3)),
    min_size=0, max_size=8).map(tuple)


class TestArithmeticModel:
    def test_a1_is_inverse_multiplication(self):
        psi = ArithmeticModel(5, 2)
        img = psi.permutation(bs_a1(2)).image
        assert img.tolist() == [(3 * x) % 5 for x in range(5)]

    def test_a2_no_fixed_points(self):
        for n in (2, 7, 101):
            psi = ArithmeticModel(n, 3 if n != 3 else 2)
            assert psi.permutation(bs_a2(psi.m)).fixed_point_count() == 0

    def test_relator_maps_to_identity(self):
        for m, n in ((2, 101), (3, 101)):
            psi = ArithmeticModel(n, m)
            a1, a2 = bs_a1(m), bs_a2(m)
            rel = a1.inverse() * a2 * a1 * evaluate_word((("a2", m),), m).inverse()
            assert psi.permutation(rel).is_identity()

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            ArithmeticModel(10, 2)

    def test_degree_above_int64_bound_rejected(self):
        """a x < n^2 fits in int64 only up to MAX_MODULUS; the constructor
        allocates nothing, so both ends of the bound are cheap to build."""
        assert ArithmeticModel(MAX_MODULUS, 2).n == MAX_MODULUS
        with pytest.raises(ValueError, match="exceeds"):
            ArithmeticModel(MAX_MODULUS + 2, 3)

    def test_images_are_read_only_windows_of_one_table_per_dilation(self):
        n, m = 101, 3
        psi = ArithmeticModel(n, m)
        same_a = [psi.permutation(BsElement(m, 2, num, d)) for num, d in ((0, 0), (1, 0), (-7, 3))]
        other_a = psi.permutation(BsElement(m, 1, 1, 0))
        for perm in same_a + [other_a]:
            assert not perm.image.flags.writeable
            with pytest.raises(ValueError):
                perm.image[0] = 0
        assert all(np.shares_memory(same_a[0].image, p.image) for p in same_a[1:])
        assert not np.shares_memory(same_a[0].image, other_a.image)

    def test_large_shift(self):
        n, m = 101, 2
        psi = ArithmeticModel(n, m)
        for g in (BsElement(m, 0, 10 ** 20, 0), BsElement(m, 3, -10 ** 20 - 1, 5)):
            a = pow(m, g.e, n)
            b = g.num * pow(m, -g.d, n)
            assert psi.permutation(g).image.tolist() == [(a * x - b) % n for x in range(n)]

    @pytest.mark.parametrize("n, m", [(7, 2), (101, 3), (1000, 999), (30011, 2)])
    def test_image_matches_direct_formula(self, n, m):
        """Keys with num < 0, d > 0 and e < 0, keys of either sign of e and
        num, and keys whose window starts at the second copy of the table
        (shift c = num m^-(d+e) = 0 mod n), against (m^e x - num m^-d) mod n."""
        psi = ArithmeticModel(n, m)
        rng = np.random.default_rng(n)
        x = np.arange(n, dtype=np.int64)
        keys = []
        for _ in range(25):
            e, d = -int(rng.integers(1, 7)), int(rng.integers(1, 7))
            num = -(m * int(rng.integers(0, 10 ** 4 // m)) + 1)
            keys.append(BsElement(m, e, num, d))
        for _ in range(25):
            e, d = int(rng.integers(-6, 7)), int(rng.integers(0, 7))
            num = int(rng.integers(-10 ** 4, 10 ** 4))
            keys.append(BsElement(m, e, num + (d > 0 and num % m == 0), d))
        zero_shift = [BsElement(m, e, 0, 0) for e in (-2, 0, 3)]
        zero_shift += [BsElement(m, 4, n, 2), BsElement(m, -1, -3 * n, 0)]
        assert all(g.num * pow(m, -(g.d + g.e), n) % n == 0 for g in zero_shift)
        for g in keys + zero_shift:
            expected = (pow(m, g.e, n) * x - g.num * pow(m, -g.d, n)) % n
            perm = psi.permutation(g)
            assert perm.image.dtype == np.int64
            assert perm.image.tolist() == expected.tolist()
            assert psi.permutation(g) == perm

    def test_homomorphism_on_random_pairs(self):
        psi = ArithmeticModel(101, 3)
        rng = np.random.default_rng(0)
        elems = ball(3)
        for _ in range(50):
            g, h = (elems[rng.integers(len(elems))] for _ in range(2))
            lhs = psi.permutation(g).compose(psi.permutation(h))
            assert lhs == psi.permutation(g * h)


class TestCheckSofic:
    def test_psi_defect_zero(self):
        phi = ArithmeticModel(101, 2).approx_on(ball(2))
        report = check_sofic(phi, Fraction(1, 8))
        assert report.max_defect is not None
        assert report.max_defect.numerator == 0
        assert report.passed

    def test_identity_image_fails_displacement(self):
        m = 2
        table = {BsElement(m, 0, 0, 0): Permutation.identity(10),
                 bs_a2(m): Permutation.identity(10)}
        report = check_sofic(SoficApprox(10, table), Fraction(1, 8))
        assert report.min_displacement.numerator == 0
        assert not report.passed

    def test_random_images_have_large_defect(self):
        rng = np.random.default_rng(1)
        m = 2
        table = {g: Permutation(rng.permutation(100))
                 for g in (bs_a1(m), bs_a2(m), bs_a1(m) * bs_a2(m))}
        report = check_sofic(SoficApprox(100, table), Fraction(1, 8))
        assert report.max_defect > Fraction(1, 2)

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            check_sofic(SoficApprox(5, {}), Fraction(1, 8))

    @given(degree_and_base(), st.integers(0, 1), st.integers(0, 4),
           st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(99, 100)]))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_table_route(self, nm, e_bound, num_bound, delta):
        n, m = nm
        phi = ArithmeticModel(n, m).approx_on(ball(m, e_bound, num_bound))
        plain = plain_copy(phi)
        assert phi.is_affine() and not plain.is_affine()
        assert check_sofic(phi, delta) == check_sofic(plain, delta)

    @given(degree_and_base(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_table_route_off_a_homomorphism(self, nm, data):
        """Forms drawn at random, the identity's among them: defects,
        fixed-point counts with gcd(a - 1, n) > 1, and a = 1 with b = 0 or
        not, all against plain tables of the same images."""
        n, m = nm
        units = st.sampled_from([a for a in range(1, n) if gcd(a, n) == 1] + [1] * 8)
        points = st.sampled_from([0, 0, 1, n - 1]) | st.integers(0, n - 1)
        forms = {g: (data.draw(units), data.draw(points)) for g in ball(m, 1, 2)}
        phi = affine_approx(n, forms)
        plain = plain_copy(phi)
        assert phi.is_affine() and not plain.is_affine()
        for delta in (Fraction(1, 8), Fraction(1, 2)):
            assert check_sofic(phi, delta) == check_sofic(plain, delta)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 80))
@settings(max_examples=300)
def test_congruence_solutions_match_brute_force(A, B, n):
    brute = [x for x in range(n) if (A * x - B) % n == 0]
    solutions = congruence_solutions(A, B, n)
    if solutions is None:
        assert brute == []
    else:
        x0, step = solutions
        assert brute == list(range(x0, n, step)) and len(brute) == gcd(A, n)


class TestAffineForms:
    def test_model_table_and_forms_refuse_edits(self):
        phi = ArithmeticModel(11, 2).approx_on([bs_a1(2), bs_a2(2)])
        with pytest.raises(TypeError):
            phi.table[bs_a2(2)] = phi.table[bs_a1(2)]
        with pytest.raises(TypeError):
            del phi.table[bs_a1(2)]
        p = phi.table[bs_a2(2)]
        assert p.image.tolist() == [(x - 1) % 11 for x in range(11)]
        assert (p.a, p.b) == (1, 1)

    def test_derived_approximations_carry_no_forms(self):
        phi = ArithmeticModel(11, 2).approx_on([bs_a1(2), bs_a2(2)])
        assert phi.is_affine()
        assert not phi.conjugated(Permutation.identity(11)).is_affine()
        assert not amplify(phi, 30).is_affine()

    def test_check_sofic_builds_no_table(self):
        model = ArithmeticModel(1009, 3)
        assert check_sofic(model.approx_on(ball(3)), Fraction(1, 8)).passed
        assert not model._doubled

    def test_conjugated_builds_no_image(self):
        model = ArithmeticModel(1009, 3)
        sigma = Permutation(np.random.default_rng(0).permutation(1009))
        psi = model.approx_on(ball(3)).conjugated(sigma)
        assert all(p._image is None for p in psi.table.values())
        assert not model._doubled
        with pytest.raises(TypeError):
            psi.table[bs_a1(3)] = sigma

    @pytest.mark.parametrize("n, m", [(101, 3), (100, 3), (1001, 2), (30011, 2)])
    def test_form_is_the_affine_map_of_the_table(self, n, m):
        phi = ArithmeticModel(n, m).approx_on(ball(m, 2, 6))
        x = np.arange(n, dtype=np.int64)
        for p in phi.table.values():
            assert 0 <= p.a < n and 0 <= p.b < n
            assert np.array_equal(p.image, (p.a * x - p.b) % n)


class TestSoficApprox:
    def test_conjugated_by_other_degree_rejected(self):
        phi = ArithmeticModel(11, 2).approx_on([bs_a1(2), bs_a2(2)])
        with pytest.raises(DegreeMismatchError):
            phi.conjugated(Permutation.identity(12))

    def test_non_element_key_rejected(self):
        with pytest.raises(TypeError):
            SoficApprox(3, {(("a1", 1),): Permutation.identity(3)})

    def test_conjugated_relabels_points(self):
        n = 11
        phi = ArithmeticModel(n, 2).approx_on(ball(2, 1, 2))
        sigma = Permutation(np.random.default_rng(5).permutation(n))
        psi = phi.conjugated(sigma)
        assert psi.table.keys() == phi.table.keys()
        for g, p in phi.table.items():
            assert [psi.table[g](sigma(x)) for x in range(n)] == [sigma(p(x)) for x in range(n)]


class TestEvalWord:
    def test_empty_word(self):
        phi = ArithmeticModel(11, 2).approx_on([bs_a1(2), bs_a2(2)])
        assert eval_word(phi, ()).is_identity()

    def test_empty_approximation(self):
        with pytest.raises(ValueError, match="empty domain"):
            eval_word(SoficApprox(5, {}), ())

    def test_a2_cubed(self):
        n = 13
        phi = ArithmeticModel(n, 2).approx_on([bs_a1(2), bs_a2(2)])
        img = eval_word(phi, (("a2", 3),)).image
        assert img.tolist() == [(x - 3) % n for x in range(n)]

    @given(word_strategy)
    @settings(max_examples=50)
    def test_w_winv_cancels(self, w):
        phi = ArithmeticModel(17, 2).approx_on([bs_a1(2), bs_a2(2)])
        winv = tuple((g, -e) for g, e in reversed(w))
        assert eval_word(phi, w + winv).is_identity()

    @given(word_strategy)
    @settings(max_examples=50)
    def test_agrees_with_element_table(self, w):
        m, n = 3, 101
        psi = ArithmeticModel(n, m)
        phi = psi.approx_on([bs_a1(m), bs_a2(m)])
        assert eval_word(phi, w) == psi.permutation(evaluate_word(w, m))


class TestAmplify:
    def test_same_degree_unchanged(self):
        phi = ArithmeticModel(7, 2).approx_on([bs_a2(2)])
        amp = amplify(phi, 7)
        assert amp.table[bs_a2(2)] == phi.table[bs_a2(2)]

    def test_blocks_and_tail(self):
        phi = ArithmeticModel(3, 2).approx_on([bs_a2(2)])
        amp = amplify(phi, 7)
        img = amp.table[bs_a2(2)].image
        # two 3-blocks plus one identity point
        assert img[6] == 6
        assert img[:3].tolist() == [(x - 1) % 3 for x in range(3)]
        assert img[3:6].tolist() == [3 + (x - 1) % 3 for x in range(3)]

    def test_displacement_is_block_fraction(self):
        phi = ArithmeticModel(101, 2).approx_on([bs_a2(2)])
        amp = amplify(phi, 1000)
        r = 1000 // 101
        moved = amp.n - amp.table[bs_a2(2)].fixed_point_count()
        assert moved == r * 101

    def test_shrink_rejected(self):
        phi = ArithmeticModel(7, 2).approx_on([bs_a2(2)])
        with pytest.raises(ValueError):
            amplify(phi, 5)

    def test_multiplicativity_preserved(self):
        phi = ArithmeticModel(101, 3).approx_on(ball(3, 1, 2))
        amp = amplify(phi, 950)
        report = check_sofic(amp, Fraction(1, 8))
        assert report.max_defect.numerator == 0


class TestAffineFixedPoints:
    def test_relator_identity(self):
        w = (("a1", -1), ("a2", 1), ("a1", 1), ("a2", -2))
        rep = affine_fixed_points(w, 2, 11)
        assert rep.word_is_identity and rep.count == 11

    def test_translation_no_fixed_points(self):
        rep = affine_fixed_points((("a2", 1),), 2, 7)
        assert rep.a == 0 and rep.count == 0

    def test_a1_single_fixed_point(self):
        rep = affine_fixed_points((("a1", 1),), 2, 7)
        assert rep.count == 1

    @given(word_strategy, st.sampled_from([2, 3, 5]),
           st.sampled_from([11, 101, 997]))
    @settings(max_examples=120, deadline=None)
    def test_prediction_matches_bruteforce(self, w, m, n):
        phi = ArithmeticModel(n, m).approx_on([bs_a1(m), bs_a2(m)])
        predicted = affine_fixed_points(w, m, n).count
        assert predicted == eval_word(phi, w).fixed_point_count()
