"""Polynomial substitution and powers over (Z/m)[X, Y], checked against
sympy: the same polynomial over the integers, coefficients reduced
mod m afterwards."""

import random

import pytest

from elemcalc.rings import PolyRing, ZmodRing, substitute

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("X Y")
MODULI = (25, 27, 121)
Y_EXPONENTS = (0, 1, 2, 3, 4, 16, 64, 256, 1024, 4096)


def sparse_pair(rng, m, y_exps, terms=3):
    """One random sparse polynomial, as an element and as a sympy
    expression."""
    P = PolyRing(ZmodRing(m), ("X", "Y"))
    el, ex = P.zero, sympy.Integer(0)
    for _ in range(terms):
        c, ex_x, ex_y = rng.randrange(m), rng.randrange(3), rng.choice(y_exps)
        el = el + P.el(c) * P.var("X", ex_x) * P.var("Y", ex_y)
        ex = ex + c * X ** ex_x * Y ** ex_y
    return el, ex


def reduced(expr, m):
    coeffs = sympy.Poly(expr, X, Y).as_dict()
    return {k: int(c) % m for k, c in coeffs.items() if int(c) % m}


@pytest.mark.parametrize("m", MODULI)
def test_substitute_matches_sympy(m):
    rng = random.Random(m)
    for _ in range(12):
        p, pe = sparse_pair(rng, m, Y_EXPONENTS)
        if rng.random() < 0.5:
            c = rng.randrange(m)        # constant value, Y -> c
            v, ve = p.ring.el(c), sympy.Integer(c)
        else:                           # monomial value, Y -> c X^i Y^k
            v, ve = sparse_pair(rng, m, (0, 1, 4), terms=1)
        bindings, subs = {"Y": v}, {Y: ve}
        if rng.random() < 0.5:
            x0 = rng.randrange(m)
            bindings["X"] = x0
            subs[X] = x0
        got = substitute(p, bindings)
        want = reduced(sympy.expand(pe.subs(subs, simultaneous=True)), m)
        assert got.payload == want


@pytest.mark.parametrize("m", MODULI)
def test_power_matches_sympy(m):
    rng = random.Random(m)
    for k in (0, 1, 2, 3, 5, 8, 13):
        p, pe = sparse_pair(rng, m, (0, 1, 2))
        assert (p ** k).payload == reduced(pe ** k, m)
    for k, terms in ((4 ** 3, 2), (4 ** 6, 1)):
        p, pe = sparse_pair(rng, m, (0, 1, 2), terms)
        assert (p ** k).payload == reduced(pe ** k, m)
