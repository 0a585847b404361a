import random

import pytest
from hypothesis import given, settings, strategies as st

from elemcalc.errors import (
    DescriptorMismatch,
    IdealMismatch,
    LengthMismatch,
    NotAUnit,
    TwoNotInvertible,
    UnknownVariable,
)
from elemcalc.rings import (
    CertifiedElement,
    IdealPresentation,
    LocRing,
    PolyRing,
    ZmodRing,
    certify,
    half,
    invert_unit,
    product_certificate,
    square_factors,
    substitute,
)
from elemcalc.sampling import sample_element

Z27 = ZmodRing(27)
Z8 = ZmodRing(8)
Z5 = ZmodRing(5)


def test_zmod_basic_arithmetic():
    a = Z27.el(5)
    b = Z27.el(11)
    assert (a * b) == Z27.one
    assert (a + b).payload == 16
    assert (a - b).payload == (5 - 11) % 27
    assert (-a).payload == 22
    assert (a ** 3).payload == pow(5, 3, 27)
    assert Z27.el(30).payload == 3


def test_zmod_units_and_half():
    assert invert_unit(Z27.el(2)) == Z27.el(14)
    assert half(Z27) == Z27.el(14)
    assert half(Z5) == Z5.el(3)
    with pytest.raises(NotAUnit):
        invert_unit(Z27.el(3))
    with pytest.raises(TwoNotInvertible):
        half(Z8)


def test_element_equality_only_within_ring():
    with pytest.raises(DescriptorMismatch):
        Z27.el(5) == ZmodRing(25).el(5)
    assert Z27.el(5) == 5
    assert Z27.el(0).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_zmod_ring_axioms(x, y, z):
    a, b, c = Z27.el(x), Z27.el(y), Z27.el(z)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Z27.zero == a
    assert a * Z27.one == a
    assert a + (-a) == Z27.zero


def make_pxy(base=None):
    return PolyRing(base or Z27, ("X", "Y"))


def test_poly_construction_and_repr():
    P = make_pxy()
    x = P.var("X")
    y = P.var("Y")
    p = x * x * P.el(2) + y * P.el(7) + P.el(5)
    assert p.payload == {(0, 0): 5, (2, 0): 2, (0, 1): 7}
    with pytest.raises(UnknownVariable):
        P.var("Z")


def test_poly_substitute():
    P = make_pxy()
    x = P.var("X")
    y = P.var("Y")
    p = x * x + y * P.el(3) + P.el(1)
    q = substitute(p, {"X": P.el(2), "Y": P.el(4)})
    assert q == P.el((4 + 12 + 1) % 27)
    # partial substitution keeps the other variable
    r = substitute(p, {"Y": P.zero})
    assert r == x * x + P.el(1)
    with pytest.raises(UnknownVariable):
        substitute(p, {"Q": P.zero})


def test_var_power_is_one_monomial(poly_mul_calls):
    P = make_pxy()
    assert P.var("Y", 4 ** 8).payload == {(0, 4 ** 8): 1}
    assert P.var("X", 0) == P.one
    assert not poly_mul_calls
    assert P.var("Y", 5) == P.var("Y") ** 5


def test_monomial_from_named_exponents(poly_mul_calls):
    P = make_pxy()
    m = P.monomial([("X", 2), ("Y", 3), ("X", 1)], P.base.el(5))
    assert m.payload == {(3, 3): 5}
    assert P.monomial({"Y": 4 ** 8}.items()) == P.var("Y", 4 ** 8)
    assert P.monomial([("X", 1)], P.base.el(27)) == P.zero
    assert not poly_mul_calls
    with pytest.raises(UnknownVariable):
        P.monomial([("Z", 1)])
    rng = random.Random(0)
    with pytest.raises(UnknownVariable):
        sample_element(rng, P, variables=("X", "Z"), terms=1, max_degree=0)


def test_substitute_raises_by_squaring(poly_mul_calls):
    P = make_pxy()
    y = P.var("Y")
    p = P.var("Y", 4 ** 8)
    poly_mul_calls.clear()
    q = substitute(p, {"Y": P.var("Y", 4)})
    assert len(poly_mul_calls) <= (4 ** 8).bit_length() + 1
    assert q == P.var("Y", 4 ** 9)
    # one power per (variable, exponent), shared between monomials
    p = P.var("X") * P.var("Y", 4 ** 8) + P.var("Y", 4 ** 8)
    poly_mul_calls.clear()
    q = substitute(p, {"Y": P.el(2) * y})
    assert len(poly_mul_calls) <= (4 ** 8).bit_length() + 2
    assert q == (P.var("X") + P.el(1)) * P.el(pow(2, 4 ** 8, 27)) \
        * P.var("Y", 4 ** 8)


def test_poly_product_prunes_cancelled_terms():
    # (3X + 3) * 9X = 27X^2 + 27X = 0 over (Z/27)[X]
    P = PolyRing(Z27, ("X",))
    x = P.var("X")
    assert P.p_mul((P.el(3) * x + P.el(3)).payload,
                   (P.el(9) * x).payload) == {}
    # one coefficient cancels, the other stays
    assert P.p_mul((P.el(3) * x + P.el(1)).payload,
                   (P.el(9) * x).payload) == {(1,): 9}


def test_poly_lifts_base_elements():
    P = make_pxy()
    assert P.el(Z27.el(5)) == P.el(5)
    with pytest.raises(DescriptorMismatch):
        P.el(ZmodRing(25).el(5))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 2),
       st.integers(0, 2))
def test_poly_product_matches_evaluation(c1, c2, e1, e2):
    P = make_pxy()
    x = P.var("X")
    p = P.el(c1) * x ** e1 + P.el(1)
    q = P.el(c2) * x ** e2 + P.el(2)
    x0 = P.el(5)
    lhs = substitute(p * q, {"X": x0, "Y": P.zero})
    rhs = substitute(p, {"X": x0, "Y": P.zero}) \
        * substitute(q, {"X": x0, "Y": P.zero})
    assert lhs == rhs


def test_loc_ring_equality_and_inverse():
    L = LocRing(Z27, 2)
    x = L.wrap((5, 1))          # 5 / 2
    y = L.wrap((10, 2))         # 10 / 4
    assert x == y
    assert L.el(5) * invert_unit(L.el(5)) == L.one
    inv2 = L.wrap((1, 1))       # 1 / 2
    assert L.el(2) * inv2 == L.one


def test_loc_ring_refuses_zero_divisors():
    # at 3, Z/27 would get 3**3 == 0 and (1/3) * 3 == 1
    with pytest.raises(ValueError):
        LocRing(Z27, 3)
    with pytest.raises(ValueError):
        LocRing(Z27, 0)
    T = PolyRing(ZmodRing(25), ("T",))
    t = T.var("T")
    LocRing(T, t)
    LocRing(T, T.el(1) + T.el(5) * t)    # content 1: not a zero-divisor
    with pytest.raises(ValueError):
        LocRing(T, T.el(5) * t + T.el(10))
    with pytest.raises(ValueError):
        LocRing(LocRing(T, t), T.el(5) * t)


def test_loc_ring_large_exponent():
    L = LocRing(Z27, 2)
    x = L.wrap((5, 10 ** 9))
    assert x == x
    assert x == L.wrap((10, 10 ** 9 + 1))
    assert L.wrap((1, 10 ** 9)) == L.el(pow(2, -10 ** 9, 27))
    assert L.wrap((1, 10 ** 9)) != L.el(pow(2, -10 ** 9, 27) + 1)


def test_ideal_presentation_and_square():
    P = PolyRing(Z27, ("X",))
    I = IdealPresentation(P, (P.el(3), P.var("X")))
    assert I.square_pairs() == ((0, 0), (0, 1), (1, 1))
    sq = I.square()
    assert sq.base == I
    assert sq.generators == (P.el(9), P.el(3) * P.var("X"),
                             P.var("X") * P.var("X"))


@pytest.mark.parametrize("ring", [Z27, PolyRing(Z27, ("X", "Y"))],
                         ids=["Z/27", "(Z/27)[X,Y]"])
def test_square_factors(ring):
    if isinstance(ring, PolyRing):
        gens = (ring.el(3), ring.el(3) * ring.var("X"), ring.var("Y"))
        coeffs = (ring.var("X") + 2, 0, ring.el(5), 0, ring.var("Y"), 0)
    else:
        gens = (ring.el(3), ring.el(6), ring.el(9))
        coeffs = (4, 0, 7, 0, 11, 0)
    base = IdealPresentation(ring, gens)
    p = certify(base.square(), coeffs)
    pairs = square_factors(p)
    # one pair per nonzero coefficient, in square_pairs order
    nonzero = [(ij, ring.el(c)) for ij, c in zip(base.square_pairs(), coeffs)
               if not ring.el(c).is_zero()]
    assert len(pairs) == len(nonzero)
    total = ring.zero
    for ((i, j), c), (x, y) in zip(nonzero, pairs):
        assert x.ideal is base and y.ideal is base
        assert x.check() and y.check()
        assert x.value == c * gens[i] and y.value == gens[j]
        total = total + x.value * y.value
    assert total == p.value
    assert square_factors(base.square().zero_cert()) == []


def test_certify_and_check():
    I = IdealPresentation(Z27, (Z27.el(3),))
    c = certify(I, [Z27.el(4)])
    assert c.value == Z27.el(12)
    assert c.check()
    assert (c + c).value == Z27.el(24)
    assert (-c).value == Z27.el(-12)
    assert c.scale(Z27.el(2)).value == Z27.el(24)
    assert c.scale(Z27.el(2)).check()
    assert I.zero_cert().is_zero()
    bad = CertifiedElement(I, [Z27.el(4)], value=Z27.el(1))
    assert not bad.check()
    with pytest.raises(LengthMismatch):
        certify(I, [Z27.el(1), Z27.el(2)])


def test_certificates_mixed_ideals_rejected():
    I = IdealPresentation(Z27, (Z27.el(3),))
    J = IdealPresentation(Z27, (Z27.el(3), Z27.el(6)))
    with pytest.raises(IdealMismatch):
        certify(I, [Z27.el(1)]) + certify(J, [Z27.el(1), Z27.el(0)])


def test_product_certificate_frozen_example():
    P = PolyRing(Z27, ("X",))
    I = IdealPresentation(P, (P.el(3), P.var("X")))
    a = certify(I, [P.el(1), P.el(2)])    # 3 + 2X
    b = certify(I, [P.el(1), P.el(0)])    # 3
    ab = product_certificate(a, b)
    assert ab.ideal == I.square()
    assert ab.coefficients == (P.el(1), P.el(2), P.el(0))
    assert ab.value == a.value * b.value
    assert ab.check()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26),
       st.integers(0, 26))
def test_product_certificate_always_valid(a1, a2, b1, b2):
    I = IdealPresentation(Z27, (Z27.el(3), Z27.el(6)))
    a = certify(I, [Z27.el(a1), Z27.el(a2)])
    b = certify(I, [Z27.el(b1), Z27.el(b2)])
    ab = product_certificate(a, b)
    assert ab.check()
    assert ab.value == a.value * b.value


def test_principal_cert():
    I = IdealPresentation(Z27, (Z27.el(3), Z27.el(6)))
    c = certify(I, [Z27.el(2), Z27.el(1)])
    assert c.check() and c.value == Z27.el(12)


def test_certificate_substitute():
    P = make_pxy()
    I = IdealPresentation(P, (P.el(3), P.el(3) * P.var("X")))
    c = certify(I, [P.var("Y"), P.el(2)])
    c0 = c.substitute({"Y": P.zero})
    assert c0.check()
    assert c0.value == substitute(c.value, {"Y": P.zero})
