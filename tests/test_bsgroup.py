from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from soficlab.bsgroup import (BaseMismatchError, BsElement, _from_affine,
                              a2_interval, bs_a1, bs_a2, bs_identity,
                              bs_rectangle, canonical_word, evaluate_word,
                              reduce_word, word_value)


def _from_b(m, b):
    return _from_affine(m, 0, Fraction(b))


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
        inverse = tuple((gen, -exp) for gen, exp in reversed(w))
        assert reduce_word(w + inverse) == ()


def folner_rectangle(j, M, m):
    """The Folner rectangle {a_1^i a_2^l : 0 <= i < 2j, 0 <= l < 2M m^(2j)}."""
    return bs_rectangle(2 * j, 2 * M * m ** (2 * j), m)


def translate_ratio(s, F):
    """|sF symmetric-difference F| / |F|."""
    return Fraction(len({s * g for g in F} ^ F), len(F))


class TestFolnerSets:
    def test_cardinality_m2(self):
        assert len(folner_rectangle(1, 1, 2)) == 16

    def test_cardinality_m3(self):
        assert len(folner_rectangle(1, 1, 3)) == 36

    def test_rectangle_distinct(self):
        rect = bs_rectangle(3, 5, 2)
        assert len(rect) == 15

    def test_interval(self):
        iv = a2_interval(4, 3)
        assert iv == {bs_a2(3) ** k for k in range(4)}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_translate_defect_bound(self, j, m):
        F = folner_rectangle(j, 1, m)
        for s in (bs_a1(m), bs_a2(m)):
            assert translate_ratio(s, F) <= Fraction(1, j)

    def test_singleton_translate(self):
        assert translate_ratio(bs_a2(2), frozenset({bs_identity(2)})) == 2
