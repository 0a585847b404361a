import random
from math import comb

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
from elemcalc.jsonio import certified_to_json
from elemcalc.rings import (
    CertifiedElement,
    IdealPresentation,
    PolyRing,
    Ring,
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


def test_substitute_one_term_values_cost_no_product(poly_mul_calls):
    # each term maps to one term: coefficient times c^e, exponents plus
    # e*f, with no polynomial product however large e is
    P = make_pxy()
    n = 4 ** 8
    p = P.var("X") * P.var("Y", n) + P.var("Y", n) + P.el(5)
    x1 = P.var("X") + P.el(1)
    cases = [
        ({"Y": P.var("Y", 4)}, x1 * P.var("Y", 4 ** 9) + P.el(5)),
        ({"Y": P.el(2)}, x1 * P.el(pow(2, n, 27)) + P.el(5)),
        ({"Y": P.el(2) * P.var("Y")},
         x1 * P.el(pow(2, n, 27)) * P.var("Y", n) + P.el(5)),
        ({"Y": P.el(2) * P.var("X") * P.var("Y")},
         P.monomial([("X", n), ("Y", n)], Z27.el(pow(2, n, 27))) * x1
         + P.el(5)),
        ({"Y": P.zero}, P.el(5)),
        ({"Y": P.el(3) * P.var("X")}, P.el(5)),     # 3^n = 0 mod 27
        ({"X": P.el(3), "Y": P.el(4)},
         P.el((3 * pow(4, n, 27) + pow(4, n, 27) + 5) % 27)),
    ]
    poly_mul_calls.clear()
    for bindings, want in cases:
        assert substitute(p, bindings) == want
    assert not poly_mul_calls


def test_substitute_raises_by_squaring(poly_mul_calls):
    # a value of two terms is raised by square-and-multiply, one power
    # per (variable, exponent), shared between monomials; over Z/27,
    # (Y^4 + 3X)^n keeps the three terms with 3^k != 0
    P = make_pxy()
    n = 4 ** 8
    p = P.var("X") * P.var("Y", n) + P.var("Y", n)
    want = P.zero
    for k in range(3):
        want = want + P.monomial([("X", k), ("Y", 4 * (n - k))],
                                 Z27.el(comb(n, k) * 3 ** k))
    want = want * (P.var("X") + P.el(1))
    poly_mul_calls.clear()
    q = substitute(p, {"Y": P.var("Y", 4) + P.el(3) * P.var("X")})
    assert len(poly_mul_calls) <= n.bit_length() + 2
    assert q == want


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


def test_poly_coefficients_lie_in_zmod():
    # ((Z/25)[T])[X] is the ring (Z/25)[T, X], which is built flat
    Z25 = ZmodRing(25)
    with pytest.raises(ValueError, match="must lie in Z/m"):
        PolyRing(PolyRing(Z25, ("T",)), ("X",))
    assert PolyRing(Z25, ("T", "X")).m == 25


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


_CERT_RINGS = (Z27, PolyRing(Z27, ("X",)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CERT_RINGS),
       st.lists(st.integers(0, 26), min_size=8, max_size=8))
def test_derived_certificates_check(ring, ints):
    # scale, +, - and product_certificate skip the constructor's
    # coercion; their results still check, over Z/27 and (Z/27)[X]
    if isinstance(ring, PolyRing):
        x = ring.var("X")
        gens = (ring.el(3), ring.el(3) * x)
        els = [ring.el(ints[k]) + ring.el(ints[k + 1]) * x
               for k in range(0, 8, 2)]
    else:
        gens = (ring.el(3), ring.el(6))
        els = [ring.el(k) for k in ints[:4]]
    I = IdealPresentation(ring, gens)
    a, b = certify(I, els[:2]), certify(I, els[2:])
    for c in (a.scale(els[0]), a.scale(ints[5]), a + b, -a, a - b,
              product_certificate(a, b)):
        assert c.check()
        assert all(coeff.ring == ring for coeff in c.coefficients)
        assert len(c.coefficients) == len(c.ideal.generators)
        with pytest.raises(AttributeError):
            c.value = ring.zero
    assert (a + b).value == a.value + b.value
    assert (-a).value == -a.value
    assert product_certificate(a, b).value == a.value * b.value


_P27 = PolyRing(Z27, ("X",))
# (ring, ideal generators): the certificate operations compute on
# payloads over each kind of ring in the tower
_PAYLOAD_CERT_CASES = (
    (Z27, (3, 6)),
    (ZmodRing(3 ** 161), (3, 9)),
    (_P27, (3, _P27.var("X"))),
)


def _assert_same_cert(got, ideal, coeffs, value):
    """got has the given coefficients and value, payload for payload,
    still checks, and prints and serializes like the certificate the
    constructor builds from them."""
    want = CertifiedElement(ideal, coeffs, value)
    assert got.ideal == ideal
    assert [c.payload for c in got.coefficients] == [c.payload for c in coeffs]
    assert got.value.payload == value.payload
    assert got.check()
    assert repr(got) == repr(want)
    assert certified_to_json(got) == certified_to_json(want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_PAYLOAD_CERT_CASES), st.integers(0, 2 ** 32))
def test_certificate_operations_match_element_arithmetic(case, seed):
    # each operation gives what the same formula in RingElement
    # arithmetic gives, with the operands in the same order
    ring, gens = case
    rng = random.Random(seed)
    I = IdealPresentation(ring, gens)
    G = I.generators
    a, b = (certify(I, [sample_element(rng, ring, 1) for _ in G])
            for _ in range(2))
    r = sample_element(rng, ring, 1)
    value = ring.zero
    for c, g in zip(a.coefficients, G):
        value = value + c * g
    assert a.value.payload == value.payload
    ca, cb = a.coefficients, b.coefficients
    _assert_same_cert(a.scale(r), I, [r * c for c in ca], r * a.value)
    five = ring.el(5)
    _assert_same_cert(a.scale(5), I, [five * c for c in ca], five * a.value)
    _assert_same_cert(a + b, I, [x + y for x, y in zip(ca, cb)],
                      a.value + b.value)
    _assert_same_cert(-a, I, [-c for c in ca], -a.value)
    _assert_same_cert(a - b, I, [x + (-y) for x, y in zip(ca, cb)],
                      a.value + (-b.value))
    ab = product_certificate(a, b)
    _assert_same_cert(
        ab, I.square(),
        [ca[i] * cb[i] if i == j else ca[i] * cb[j] + ca[j] * cb[i]
         for i, j in I.square_pairs()],
        a.value * b.value)
    nonzero = [(i, j, c) for (i, j), c in zip(I.square_pairs(),
                                              ab.coefficients)
               if not c.is_zero()]
    factors = square_factors(ab)
    assert len(factors) == len(nonzero)
    for (x, y), (i, j, c) in zip(factors, nonzero):
        cx = [ring.zero] * len(G)
        cx[i] = c
        cy = [ring.zero] * len(G)
        cy[j] = ring.one
        _assert_same_cert(x, I, cx, c * G[i])
        _assert_same_cert(y, I, cy, G[j])


def test_certificate_reprs_are_pinned():
    I = IdealPresentation(Z27, (Z27.el(3), Z27.el(6)))
    a, b = certify(I, [2, 1]), certify(I, [5, 7])
    assert repr(a.scale(4)) == "cert(21 = 8*3 + 4*6)"
    assert repr(a + b) == "cert(15 = 7*3 + 8*6)"
    assert repr(a - b) == "cert(9 = 24*3 + 21*6)"
    assert repr(-a) == "cert(15 = 25*3 + 26*6)"
    ab = product_certificate(a, b)
    assert repr(ab) == "cert(9 = 10*9 + 19*18 + 7*9)"
    assert certified_to_json(ab) == [10, 19, 7]
    assert [(repr(x), repr(y)) for x, y in square_factors(ab)] == [
        ("cert(3 = 10*3 + 0*6)", "cert(3 = 1*3 + 0*6)"),
        ("cert(3 = 19*3 + 0*6)", "cert(6 = 0*3 + 1*6)"),
        ("cert(15 = 0*3 + 7*6)", "cert(6 = 0*3 + 1*6)")]


def _grid_entry(ring):
    return st.one_of(st.just(0), st.integers(0, ring.m - 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((Z27, ZmodRing(3 ** 161))), st.data())
def test_zmod_column_op_matches_generic_body(ring, data):
    # ZmodRing's int loop leaves the same grid as Ring's generic body,
    # zero source columns and c = 0 included
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(2, 6))
    s = data.draw(st.integers(0, cols - 1))
    d = data.draw(st.integers(0, cols - 1).filter(lambda x: x != s))
    grid = [[data.draw(_grid_entry(ring)) for _ in range(cols)]
            for _ in range(rows)]
    if data.draw(st.booleans()):
        for row in grid:
            row[s] = 0
    c = data.draw(_grid_entry(ring))
    want = [list(row) for row in grid]
    Ring.p_column_op(ring, want, s, d, c)
    got = [list(row) for row in grid]
    ring.p_column_op(got, s, d, c)
    assert got == want
    assert all(0 <= x < ring.m for row in got for x in row)


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


_CANONICAL_RINGS = (
    ZmodRing(15), Z27, ZmodRing(3 ** 161), make_pxy(),
    PolyRing(ZmodRing(25), ("T", "X")),
)


def _drawn_payload(data, ring):
    """A payload of ring built by from_int and monomial: any int over
    Z/m; over a polynomial ring a sum of up to three monomials, each
    given by (name, exponent) pairs (names may repeat or be missing)
    and an int coefficient drawn the same way, zero included."""
    if isinstance(ring, ZmodRing):
        return ring.from_int(data.draw(st.one_of(
            st.integers(-3, 3), st.integers(-2 * ring.m, 2 * ring.m))))
    out = ring.from_int(0)
    for _ in range(data.draw(st.integers(0, 3))):
        exps = data.draw(st.lists(st.tuples(st.sampled_from(ring.variables),
                                            st.integers(0, 2)), max_size=3))
        coeff = ring.base.wrap(_drawn_payload(data, ring.base))
        out = ring.p_add(out, ring.monomial(exps, coeff).payload)
    return out


def _assert_canonical(ring, p):
    if isinstance(ring, ZmodRing):
        assert type(p) is int and 0 <= p < ring.m
        return
    assert type(p) is dict
    for exps, c in p.items():
        assert type(exps) is tuple and len(exps) == ring.nvars
        assert type(c) is int and 0 < c < ring.m


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CANONICAL_RINGS), st.data())
def test_payloads_stay_canonical(ring, data):
    # elements compare by payload, which is sound only while every
    # operation returns the one canonical payload of its value
    x, y = _drawn_payload(data, ring), _drawn_payload(data, ring)
    k = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(-10 ** 6, 10 ** 6))
    out = [x, y, ring.from_int(n), ring.p_add(x, y), ring.p_add(y, x),
           ring.p_sub(x, y), ring.p_add(x, ring.p_neg(y)), ring.p_neg(x),
           ring.p_mul(x, y), ring.p_mul(y, x), ring.p_pow(x, k)]
    if ring.p_is_unit(x):
        inv = ring.p_invert(x)
        assert ring.p_mul(x, inv) == ring.from_int(1)
        out.append(inv)
    grid = [[x, y, ring.p_neg(x)], [y, ring.from_int(0), x]]
    ring.p_column_op(grid, 0, 2, y)
    ring.p_column_op(grid, 1, 0, x)
    out += grid[0] + grid[1]
    if isinstance(ring, PolyRing):
        name = data.draw(st.sampled_from(ring.variables))
        out.append(ring.p_substitute(x, {name: y}))
        out.append(ring.p_substitute(
            x, {v: y if v == name else x for v in ring.variables}))
    for p in out:
        _assert_canonical(ring, p)
    for p in out:
        for q in out:
            a, b = ring.wrap(p), ring.wrap(q)
            assert (a == b) == (a - b).is_zero()
