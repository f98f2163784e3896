from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from soficlab.bsgroup import (BaseMismatchError, BsElement, BudgetExceededError,
                              Presentation, a2_interval, bs_a1, bs_a2,
                              bs_identity, bs_presentation, bs_rectangle,
                              canonical_word, cyclic_extension_presentation,
                              evaluate_word, folner_diagnostics, folner_set,
                              higman_presentation, reduce_word, word_concat,
                              word_inverse, word_value)


def _from_b(m, b):
    from soficlab.bsgroup import bs_from_affine
    return bs_from_affine(m, 0, Fraction(b))


elements = st.tuples(st.sampled_from([2, 3]), st.integers(-4, 4),
                     st.integers(-50, 50), st.integers(0, 3)).map(
    lambda t: _from_b(t[0], Fraction(t[2], t[0] ** t[3])) * BsElement(t[0], t[1], 0, 0))


class TestGroupLaw:
    def test_defining_relator(self):
        for m in (2, 3, 5):
            a1, a2 = bs_a1(m), bs_a2(m)
            assert a1.inverse() * a2 * a1 == a2 ** m

    def test_a2_squared(self):
        g = bs_a2(2) * bs_a2(2)
        assert (g.e, g.num, g.d) == (0, 2, 0)

    def test_a1_times_a2(self):
        g = bs_a1(2) * bs_a2(2)       # x -> (x+1)/2
        assert (g.e, g.num, g.d) == (-1, 1, 1)
        assert g.apply(Fraction(3)) == 2

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatchError):
            bs_a1(2) * bs_a1(3)

    @given(elements, elements, elements)
    def test_associativity(self, a, b, c):
        if not (a.m == b.m == c.m):
            return
        assert (a * b) * c == a * (b * c)

    @given(elements)
    def test_inverse(self, g):
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            BsElement(2, 0, 4, 1)

    @given(elements)
    def test_json_obj_roundtrip(self, g):
        assert BsElement.from_obj(g.to_obj()) == g


class TestCanonicalWord:
    def test_identity_empty(self):
        assert canonical_word(bs_identity(3)) == ()

    def test_pure_translation(self):
        assert canonical_word(bs_a2(2) ** 3) == (("a2", 3),)

    def test_mixed(self):
        g = bs_a1(2) * bs_a2(2)
        assert canonical_word(g) == (("a1", 1), ("a2", 1))

    @given(elements)
    def test_roundtrip(self, g):
        assert evaluate_word(canonical_word(g), g.m) == g

    def test_roundtrip_large(self):
        g = _from_b(2, Fraction(999_983, 2 ** 8)) * BsElement(2, -8, 0, 0)
        assert evaluate_word(canonical_word(g), 2) == g


class TestWordValue:
    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            word_value((("t", 1),), {"a1": bs_a1(2)}, bs_identity(2))


class TestWords:
    def test_reduce_merges(self):
        assert reduce_word([("a1", 1), ("a1", -1), ("a2", 2)]) == (("a2", 2),)

    def test_inverse_concat_cancels(self):
        w = (("a1", 2), ("a2", -3))
        assert word_concat(w, word_inverse(w)) == ()


class TestFolnerSets:
    def test_cardinality_m2(self):
        assert len(folner_set(1, 1, 2)) == 16

    def test_cardinality_m3(self):
        assert len(folner_set(1, 1, 3)) == 36

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            folner_set(5, 1, 3, budget=1000)

    def test_rectangle_distinct(self):
        rect = bs_rectangle(3, 5, 2)
        assert len(rect) == 15

    def test_interval(self):
        iv = a2_interval(4, 3)
        assert iv == {bs_a2(3) ** k for k in range(4)}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_translate_defect_bound(self, j, m):
        F = folner_set(j, 1, m, budget=10**7)
        # singleton F_prev keeps the growth-product part cheap; only the
        # translation defect is under test here
        for s in (bs_a1(m), bs_a2(m)):
            rep = folner_diagnostics({bs_identity(m)}, F, s, eta=1, j=j)
            assert rep.translate_ratio <= Fraction(1, j)

    def test_singleton_translate(self):
        F = {bs_identity(2)}
        rep = folner_diagnostics(F, F, bs_a2(2), eta=10)
        assert rep.translate_ratio == 2

    def test_growth_matches_bruteforce(self):
        F = folner_set(1, 1, 2)
        rep = folner_diagnostics(F, F, bs_a2(2), eta=10)
        brute = {g.inverse() * h for g in F for h in F}
        assert rep.growth_ratio == Fraction(len(brute - F), len(F))


class TestPresentations:
    def test_bs_relator(self):
        pres = bs_presentation(3)
        assert pres.relators == ((("a1", -1), ("a2", 1), ("a1", 1), ("a2", -3)),)

    def test_cyclic_pattern(self):
        pres = higman_presentation(4, 2)
        assert len(pres.relators) == 4
        assert pres.generators == ("a1", "a2", "a3", "a4")

    def test_extension_has_t(self):
        pres = cyclic_extension_presentation(2)
        assert "t" in pres.generators
        assert (("t", 4),) in pres.relators

    def test_json_roundtrip(self):
        pres = higman_presentation(3, 2)
        assert Presentation.from_json(pres.to_json()) == pres

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Presentation(("a",), ((("a", 1), ("a", 1)),))
