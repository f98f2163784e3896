import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import apply, shift, word_value
from soficlab.bsgroup import (BaseMismatchError, BsElement, _normal,
                              a2_interval, bs_a1, bs_a2, bs_rectangle)


def _affine_oracle(m, e, b):
    """x -> m^e x + b for an m-adic rational b, normalized in Fraction
    arithmetic: scale b by m until it is an integer."""
    b, d = Fraction(b), 0
    while b.denominator != 1:
        b, d = b * m, d + 1
    return BsElement(m, e, int(b), d)


def _from_b(m, b):
    return _affine_oracle(m, 0, b)


elements = st.tuples(st.sampled_from([2, 3]), st.integers(-4, 4),
                     st.integers(-50, 50), st.integers(0, 3)).map(
    lambda t: _from_b(t[0], Fraction(t[2], t[0] ** t[3])) * BsElement(t[0], t[1], 0, 0))


class TestGroupLaw:
    def test_defining_relator(self):
        for m in (2, 3, 5):
            a1, a2 = bs_a1(m), bs_a2(m)
            assert a1.inverse() * a2 * a1 == word_value((("a2", m),), {"a2": a2},
                                                        BsElement(m, 0, 0, 0))

    def test_a2_squared(self):
        g = bs_a2(2) * bs_a2(2)
        assert (g.e, g.num, g.d) == (0, 2, 0)

    def test_a1_times_a2(self):
        g = bs_a1(2) * bs_a2(2)       # x -> (x+1)/2
        assert (g.e, g.num, g.d) == (-1, 1, 1)
        assert apply(g, Fraction(3)) == 2

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


def _elements_of(m):
    return st.tuples(st.integers(-4, 4), st.integers(-50, 50), st.integers(0, 3)).map(
        lambda t: _from_b(m, Fraction(t[1], m ** t[2])) * BsElement(m, t[0], 0, 0))


same_base_pairs = st.sampled_from([2, 3]).flatmap(lambda m: st.tuples(_elements_of(m),
                                                                      _elements_of(m)))


class TestElementKey:
    """Elements are immutable tuples of (m, e, num, d): dict and set keys
    hashed and compared in C, with no order and no tuple arithmetic."""

    @given(same_base_pairs)
    def test_equal_values_are_one_key(self, pair):
        g, h = pair
        identity = BsElement(g.m, 0, 0, 0)
        copies = [BsElement(g.m, g.e, g.num, g.d), BsElement(*g), g * identity, identity * g,
                  (g * h) * h.inverse(), BsElement.from_obj(g.to_obj()), g.inverse().inverse(),
                  pickle.loads(pickle.dumps(g))]
        for c in copies:
            assert type(c) is BsElement
            assert c == g and not c != g and hash(c) == hash(g)
        assert len({g, *copies}) == 1
        assert {g: "g"}[copies[-1]] == "g"

    @given(elements)
    def test_hash_is_the_field_tuple_hash(self, g):
        # the hash the frozen dataclass had: set and dict orders, and so
        # domains, tables and artifacts, rest on it
        assert hash(g) == hash((g.m, g.e, g.num, g.d))
        assert g == (g.m, g.e, g.num, g.d)

    def test_repr(self):
        assert repr(BsElement(3, -1, 5, 1)) == "BsElement(m=3, e=-1, num=5, d=1)"
        assert str(bs_a2(7)) == "BsElement(m=7, e=0, num=1, d=0)"

    @pytest.mark.parametrize("op", [
        lambda g, h: g < h, lambda g, h: g <= h, lambda g, h: g > h, lambda g, h: g >= h,
        lambda g, h: g < (2, 0, 0, 0), lambda g, h: (2, 0, 0, 0) >= g,
        lambda g, h: sorted([g, h]), lambda g, h: max(g, h),
        lambda g, h: g + h, lambda g, h: g + (1,), lambda g, h: (1,) + g,
        lambda g, h: 3 * g,
    ], ids=["lt", "le", "gt", "ge", "lt-tuple", "tuple-ge", "sorted", "max",
            "add", "add-tuple", "tuple-add", "int-mul"])
    def test_no_order_and_no_tuple_arithmetic(self, op):
        with pytest.raises(TypeError, match="sort by BsElement.sort_key"):
            op(bs_a1(2), bs_a2(2))

    @pytest.mark.parametrize("field", ["m", "e", "num", "d", "other"])
    def test_immutable(self, field):
        g = bs_a2(3)
        with pytest.raises(AttributeError):
            setattr(g, field, 1)
        assert g == BsElement(3, 0, 1, 0)

    @given(elements)
    def test_pickle_round_trip(self, g):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(g, protocol))
            assert type(back) is BsElement and back == g

    @pytest.mark.parametrize("args, message", [
        ((1, 0, 0, 0), "base m must be >= 2"),
        ((2, 0, 1, -1), "denominator exponent must be >= 0"),
        ((2, 0, 4, 1), "not normalized: m=2 divides num=4 with d=1"),
    ])
    def test_constructor_errors(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BsElement(*args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            BsElement(2, 0, 1, 1)._replace(**dict(zip(("m", "e", "num", "d"), args)))


raw_affine = st.tuples(st.sampled_from([2, 3, 5, 1999]), st.integers(-6, 6),
                       st.integers(-10 ** 4, 10 ** 4), st.integers(0, 6))
POINTS = (Fraction(0), Fraction(1), Fraction(-7, 3))


def _normalized(g):
    return g.d == 0 or g.num % g.m != 0


class TestIntegerNormalForm:
    """Products, inverses and the normalizer against the Fraction route."""

    @given(raw_affine)
    def test_normal_matches_fraction_route(self, t):
        m, e, num, d = t
        assert _normal(m, e, num, d) == _affine_oracle(m, e, Fraction(num, m ** d))

    @given(raw_affine, raw_affine)
    def test_product_is_affine_composition(self, s, t):
        (m, e1, num1, d1), (_, e2, num2, d2) = s, t      # one base for both
        g = _affine_oracle(m, e1, Fraction(num1, m ** d1))
        h = _affine_oracle(m, e2, Fraction(num2, m ** d2))
        gh = g * h
        assert _normalized(gh)
        assert gh == _affine_oracle(m, e1 + e2, Fraction(m) ** e1 * shift(h) + shift(g))
        for x in POINTS:
            assert apply(gh, x) == apply(g, apply(h, x))

    @given(raw_affine)
    def test_inverse_is_affine_inverse(self, t):
        m, e, num, d = t
        g = _affine_oracle(m, e, Fraction(num, m ** d))
        gi = g.inverse()
        assert _normalized(gi)
        assert gi == _affine_oracle(m, -e, -shift(g) * Fraction(m) ** -e)
        for x in POINTS:
            assert apply(gi, apply(g, x)) == x and apply(g, apply(gi, x)) == x


class TestWordValue:
    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            word_value((("t", 1),), {"a1": bs_a1(2)}, BsElement(2, 0, 0, 0))


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
        assert iv == {word_value((("a2", k),), {"a2": bs_a2(3)}, BsElement(3, 0, 0, 0))
                      for k in range(4)}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_translate_defect_bound(self, j, m):
        F = folner_rectangle(j, 1, m)
        for s in (bs_a1(m), bs_a2(m)):
            assert translate_ratio(s, F) <= Fraction(1, j)

    def test_singleton_translate(self):
        assert translate_ratio(bs_a2(2), frozenset({BsElement(2, 0, 0, 0)})) == 2
