"""Ring and matrix arithmetic checked against independent oracles.

Polynomial products, substitution, powers, determinants and matrix
arithmetic over Z/m and (Z/m)[X, Y] are checked against sympy: the same
computation over the integers, reduced mod m afterwards. Pfaffians are checked against the
sum over perfect matchings of tests/test_matrices.py, and at sizes
beyond its reach against Pf^2 = det. The Z/m elimination behind det
and pfaffian is also checked against the division-free _det and _pf
that polynomial rings keep."""

import functools
import random

import pytest

from elemcalc.matrices import (ColumnVector, ExactMatrix, _det, _pf,
                               block_diagonal, det, from_rows, pfaffian,
                               rank_two_update, tilde, tilde_pair)
from elemcalc.rings import PolyRing, Ring, ZmodRing, substitute
from elemcalc.sampling import prime_of
from test_matrices import pfaffian_matching_oracle

sympy = pytest.importorskip("sympy")
from sympy import ZZ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

X, Y = sympy.symbols("X Y")
MODULI = (25, 27, 121)
MATRIX_MODULI = (2, 8, 25, 27, 121)
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


def assert_substitute_matches(p, pe, bindings, subs, m):
    got = substitute(p, bindings)
    want = reduced(sympy.expand(pe.subs(subs, simultaneous=True)), m)
    assert got.payload == want
    return got


@pytest.mark.parametrize("m", MODULI)
def test_substitute_matches_sympy(m):
    # one-term values (constants, zero, c X^i Y^k) take the closed form,
    # two-term values the square-and-multiply path; the latter only at
    # small Y-exponents, since their powers have many terms
    rng = random.Random(m)
    P = PolyRing(ZmodRing(m), ("X", "Y"))
    for kind in ("constant", "zero", "one-term", "two-term") * 6:
        small = kind == "two-term"
        p, pe = sparse_pair(rng, m, (0, 1, 2, 3, 16) if small else Y_EXPONENTS)
        if kind == "constant":          # Y -> c
            c = rng.randrange(m)
            v, ve = P.el(c), sympy.Integer(c)
        elif kind == "zero":            # Y -> 0
            v, ve = P.zero, sympy.Integer(0)
        else:                           # Y -> c X^i Y^k (+ c' X^i' Y^k')
            v, ve = sparse_pair(rng, m, (0, 1, 4), terms=1 + small)
        bindings, subs = {"Y": v}, {Y: ve}
        if rng.random() < 0.5:
            x0 = rng.randrange(m)
            bindings["X"] = x0
            subs[X] = x0
        assert_substitute_matches(p, pe, bindings, subs, m)
    # two terms that cannot merge, so the square-and-multiply path runs
    p, pe = sparse_pair(rng, m, (1, 3, 16))
    v, ve = P.el(2) * P.var("X") + P.el(m - 1) * P.var("Y", 4), 2 * X - Y ** 4
    assert_substitute_matches(p, pe, {"Y": v}, {Y: ve}, m)
    # the simultaneous swap, plain and scaled
    for c, d in ((1, 1), (2, m - 3)):
        p, pe = sparse_pair(rng, m, Y_EXPONENTS, terms=5)
        bindings = {"X": P.el(c) * P.var("Y"), "Y": P.el(d) * P.var("X")}
        assert_substitute_matches(p, pe, bindings, {X: c * Y, Y: d * X}, m)


@pytest.mark.parametrize("m", MODULI)
def test_substitute_drops_vanishing_powers(m):
    # X -> qX with m = q^k: a term of X-degree k or more vanishes, and
    # the result keeps no zero coefficient
    q = prime_of(m)
    P = PolyRing(ZmodRing(m), ("X", "Y"))
    p, pe = P.zero, sympy.Integer(0)
    for e in (0, 1, 2, 3, 4, 4 ** 5):
        p, pe = p + P.var("X", e) * P.var("Y", e), pe + X ** e * Y ** e
    for bindings, subs in (({"X": P.el(q) * P.var("X")}, {X: q * X}),
                           ({"X": P.el(q) * P.var("Y", 4)}, {X: q * Y ** 4}),
                           ({"Y": P.el(q)}, {Y: q})):
        got = assert_substitute_matches(p, pe, bindings, subs, m)
        assert all(got.payload.values())


@pytest.mark.parametrize("m", MODULI + (8,))
def test_zmod_power_matches_pow(m):
    # every residue, zero divisors and zero included
    Z = ZmodRing(m)
    for a in range(m):
        for k in (0, 1, 4 ** 8):
            assert Z.p_pow(a, k) == pow(a, k, m)
            assert Z.p_pow(a, k) == Ring.p_pow(Z, a, k)


@pytest.mark.parametrize("m", MODULI)
def test_product_matches_sympy(m):
    # each factor is a multiple of p half the time, so that sums of
    # coefficient products cancel mod m = p^2 or p^3
    p = prime_of(m)
    rng = random.Random(m)
    for _ in range(24):
        f, fe = sparse_pair(rng, m, Y_EXPONENTS, terms=rng.randint(1, 5))
        g, ge = sparse_pair(rng, m, (0, 1, 2, 4), terms=rng.randint(1, 5))
        if rng.random() < 0.5:
            f, fe = f * p, fe * p
        if rng.random() < 0.5:
            g, ge = g * p, ge * p
        got = f.ring.p_mul(f.payload, g.payload)
        assert got == reduced(sympy.expand(fe * ge), m)
        assert all(c % m for c in got.values())


@pytest.mark.parametrize("m", MODULI)
def test_power_matches_sympy(m):
    rng = random.Random(m)
    for k in (0, 1, 2, 3, 5, 8, 13):
        p, pe = sparse_pair(rng, m, (0, 1, 2))
        assert (p ** k).payload == reduced(pe ** k, m)
    for k, terms in ((4 ** 3, 2), (4 ** 6, 1)):
        p, pe = sparse_pair(rng, m, (0, 1, 2), terms)
        assert (p ** k).payload == reduced(pe ** k, m)


def int_grid(rng, m, size, density, alternating=False):
    """A size x size grid of ints in [0, m), each nonzero with the given
    probability; skew-symmetric with zero diagonal if alternating."""
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1 if alternating else 0, size):
            if rng.random() < density:
                g[i][j] = rng.randrange(m)
            if alternating:
                g[j][i] = -g[i][j]
    return g


def poly_grid(rng, m, size, alternating=False):
    """A grid of sparse polynomials over (Z/m)[X, Y], as elements and as
    sympy expressions."""
    P = PolyRing(ZmodRing(m), ("X", "Y"))
    els = [[P.zero] * size for _ in range(size)]
    exs = [[sympy.Integer(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1 if alternating else 0, size):
            if rng.random() < 0.7:
                els[i][j], exs[i][j] = sparse_pair(rng, m, (0, 1, 2), terms=2)
            if alternating:
                els[j][i], exs[j][i] = -els[i][j], -exs[i][j]
    return P, els, exs


@pytest.mark.parametrize("m", MATRIX_MODULI)
def test_det_matches_sympy(m):
    rng = random.Random(m)
    R = ZmodRing(m)
    for size in range(1, 13):
        for density in (1.0, 0.3):
            g = int_grid(rng, m, size, density)
            want = int(sympy.Matrix(g).det(method="bareiss")) % m
            assert det(from_rows(R, g)) == R.el(want)


def test_det_matches_sympy_over_polynomials():
    rng = random.Random(0)
    for size in range(1, 5):
        for _ in range(3):
            P, els, exs = poly_grid(rng, 27, size)
            want = sympy.expand(sympy.Matrix(exs).det(method="bareiss"))
            assert det(from_rows(P, els)).payload == reduced(want, 27)


@pytest.mark.parametrize("m", MATRIX_MODULI)
def test_pfaffian_matches_matching_sum(m):
    rng = random.Random(m)
    R = ZmodRing(m)
    for size in range(2, 11, 2):
        for density in (1.0, 0.4):
            a = from_rows(R, int_grid(rng, m, size, density, alternating=True))
            assert pfaffian(a) == pfaffian_matching_oracle(a)
    for size in (2, 4, 6):
        P, els, _ = poly_grid(rng, m, size, alternating=True)
        a = from_rows(P, els)
        assert pfaffian(a) == pfaffian_matching_oracle(a)


@pytest.mark.parametrize("m", MATRIX_MODULI)
def test_pfaffian_square_is_det_at_large_sizes(m):
    rng = random.Random(m)
    R = ZmodRing(m)
    for size in (12, 14, 16):
        for density in (1.0, 0.3):
            a = from_rows(R, int_grid(rng, m, size, density, alternating=True))
            pf = pfaffian(a)
            assert pf * pf == det(a)


# moduli with two or more prime factors, a prime power, and a 256-bit one
ELIMINATION_MODULI = (6, 12, 27, 30, 210, 3 ** 161)
ELIMINATION_IDS = ("6", "12", "27", "30", "210", "3^161")
SHAPES = ("dense", "sparse", "zero row", "zero divisors", "rank deficient")


def shaped_grid(rng, m, size, shape, alternating=False):
    """A grid of int_grid's kind in one of SHAPES: "zero row" clears a
    row (and its column, if alternating), "zero divisors" fills one with
    multiples of m's least prime factor, and "rank deficient" is a sum
    of rank-one (rank-two, if alternating) integer terms, fewer than
    size allows, so its determinant and Pfaffian vanish over Z and mod
    m; its entries are reduced mod m."""
    if shape == "rank deficient":
        g = [[0] * size for _ in range(size)]
        for _ in range(max(0, size // 2 - 1) if alternating else size - 1):
            u = [rng.randrange(m) for _ in range(size)]
            v = [rng.randrange(m) for _ in range(size)]
            for i in range(size):
                for j in range(size):
                    g[i][j] += u[i] * v[j] - (u[j] * v[i] if alternating
                                              else 0)
        return [[x % m for x in row] for row in g]
    g = int_grid(rng, m, size, 0.2 if shape == "sparse" else 1.0,
                 alternating)
    if size and shape in ("zero row", "zero divisors"):
        k, p = rng.randrange(size), prime_of(m)
        for j in range(size):
            x = 0 if shape == "zero row" else p * rng.randrange(m)
            if not alternating:
                g[k][j] = x
            elif j != k:
                g[k][j], g[j][k] = x, -x
    return g


def bareiss_det(g):
    """sympy's fraction-free (Bareiss) determinant over Z of an int grid."""
    n = len(g)
    return int(DomainMatrix([[ZZ(x) for x in row] for row in g],
                            (n, n), ZZ).det())


def grid_matrix(R, g):
    n = len(g)
    return ExactMatrix(R, n, n, [R.from_int(x) for row in g for x in row])


def shapes_at(size):
    """Dense at every size, and each other shape at every fourth size."""
    return ("dense", SHAPES[1 + size % 4])


@pytest.mark.parametrize("m", ELIMINATION_MODULI, ids=ELIMINATION_IDS)
def test_zmod_det_matches_bareiss_and_berkowitz(m):
    rng = random.Random(m)
    R = ZmodRing(m)
    assert det(ExactMatrix(R, 0, 0, ())) == R.one
    for size in range(1, 25):
        for shape in shapes_at(size):
            g = shaped_grid(rng, m, size, shape)
            a = grid_matrix(R, g)
            got = det(a)
            assert got.payload == bareiss_det(g) % m, (size, shape)
            assert got.payload == _det(R, a.payload_grid()), (size, shape)


@pytest.mark.parametrize("m", ELIMINATION_MODULI, ids=ELIMINATION_IDS)
def test_zmod_pfaffian_matches_clow_sum_and_bareiss(m):
    rng = random.Random(m)
    R = ZmodRing(m)
    assert pfaffian(ExactMatrix(R, 0, 0, ())) == R.one
    for size in range(2, 25, 2):
        for shape in shapes_at(size // 2):
            g = shaped_grid(rng, m, size, shape, alternating=True)
            a = grid_matrix(R, g)
            got = pfaffian(a)
            assert got.payload == _pf(R, a.payload_grid()), (size, shape)
            assert (got * got).payload == bareiss_det(g) % m, (size, shape)
            if shape == "rank deficient":
                assert got.is_zero()


def standard_psi(size):
    psi = sympy.zeros(size, size)
    for t in range(0, size, 2):
        psi[t, t + 1], psi[t + 1, t] = 1, -1
    return psi


def arithmetic_cases(ring, grids, scalar):
    """(name, library result, sympy result) for every matrix and vector
    operation, from three (elements, sympy expressions) grids of one size
    and one (element, expression) scalar; the vectors are first columns
    of the third and second grids."""
    (a, ae), (b, be), (c, ce) = grids
    A, B = from_rows(ring, a), from_rows(ring, b)
    MA, MB, MC = sympy.Matrix(ae), sympy.Matrix(be), sympy.Matrix(ce)
    size = len(a)
    v = ColumnVector(ring, [row[0] for row in c])
    u = ColumnVector(ring, [row[0] for row in b])
    MV, MU = MC[:, 0], MB[:, 0]
    s, se = scalar
    yield "A + B", A + B, MA + MB
    yield "A - B", A - B, MA - MB
    yield "-A", -A, -MA
    yield "A * B", A * B, MA * MB
    yield "A * s", A * s, MA * se
    yield "s * A", s * A, se * MA
    yield "transpose", A.transpose(), MA.T
    yield "A * v", A * v, MA * MV
    yield "v + u", v + u, MV + MU
    yield "v - u", v - u, MV - MU
    yield "-v", -v, -MV
    yield "v.scale(s)", v.scale(s), se * MV
    yield "v.dot(u)", ColumnVector(ring, [v.dot(u)]), MV.T * MU
    yield "block_diagonal", block_diagonal(A, B), sympy.diag(MA, MB)
    if size % 2 == 0:
        w = ColumnVector(ring, [row[1] for row in c])
        zero = from_rows(ring, [[0] * size for _ in range(size)])
        yield ("rank_two_update", rank_two_update(v, tilde(w), base=zero),
               MC[:, 0] * (MC[:, 1].T * standard_psi(size)))
        yield ("tilde_pair", ColumnVector(ring, [tilde_pair(v, w)]),
               MV.T * standard_psi(size) * MC[:, 1])


def assert_cases_match(cases, to_payload):
    for name, got, want in cases:
        if isinstance(got, ColumnVector):
            got = [[e.payload] for e in got.entries]
        else:
            got = got.payload_grid()
        assert got == [[to_payload(x) for x in row]
                       for row in want.tolist()], name


@pytest.mark.parametrize("m", MATRIX_MODULI)
def test_matrix_arithmetic_matches_sympy(m):
    rng = random.Random(m)
    R = ZmodRing(m)
    for size in range(1, 9):
        grids = []
        for density in (1.0, 0.5, 0.3):
            g = int_grid(rng, m, size, density)
            grids.append((g, g))
        c = rng.randrange(m)
        assert_cases_match(arithmetic_cases(R, grids, (R.el(c), c)),
                           lambda x: int(x) % m)


def test_matrix_arithmetic_matches_sympy_over_polynomials():
    rng = random.Random(1)
    for size in range(1, 4):
        for _ in range(2):
            grids = []
            for _ in range(3):
                ring, els, exs = poly_grid(rng, 27, size)
                grids.append((els, exs))
            scalar = sparse_pair(rng, 27, (0, 1, 2))
            assert_cases_match(arithmetic_cases(ring, grids, scalar),
                               lambda x: reduced(sympy.expand(x), 27))
