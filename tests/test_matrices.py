import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import elemcalc.matrices as matrices
from elemcalc.errors import (NotAUnit, NotInKernel, OddDimension,
                             VerificationFailed)
from elemcalc.matrices import (
    ColumnVector,
    ExactMatrix,
    adjugate_inverse,
    basis_vector,
    block_diagonal,
    check_equal,
    det,
    from_rows,
    identity,
    is_alternating,
    is_symplectic,
    kernel_decomposition,
    pfaffian,
    sigma_index,
    standard_symplectic_form,
    tilde,
    tilde_pair,
    zero_vector,
)
from elemcalc.rings import ZmodRing
from elemcalc.words import MuLetter, RhoLetter, SympLetter, Word, evaluate

Z27 = ZmodRing(27)


def pfaffian_matching_oracle(m):
    """Sum over perfect matchings with crossing signs.

    Independent of the library's recursive expansion: enumerates the
    pairings of {1..2n} directly and accumulates sign(pairing) times
    the product of entries.
    """
    ring = m.ring
    size = m.rows
    if size % 2:
        raise OddDimension("odd size")

    def pairings(items):
        if not items:
            yield []
            return
        first = items[0]
        for idx in range(1, len(items)):
            rest = items[1:idx] + items[idx + 1:]
            for tail in pairings(rest):
                yield [(first, items[idx])] + tail

    total = ring.zero
    for pairing in pairings(list(range(1, size + 1))):
        perm = [x for pair in pairing for x in pair]
        sign = 1
        for a, b in itertools.combinations(range(size), 2):
            if perm[a] > perm[b]:
                sign = -sign
        term = ring.one
        for i, j in pairing:
            term = term * m.entry(i, j)
        total = total + (term if sign == 1 else -term)
    return total


def rand_matrix(rng, ring, size):
    return from_rows(ring, [[ring.el(rng.randrange(27))
                             for _ in range(size)] for _ in range(size)])


def rand_alternating(rng, ring, size):
    rows = [[ring.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            x = ring.el(rng.randrange(27))
            rows[i][j] = x
            rows[j][i] = -x
    return from_rows(ring, rows)


def test_matrix_basics():
    I3 = identity(Z27, 3)
    assert I3 * I3 == I3
    m = from_rows(Z27, [[1, 2], [3, 4]])
    assert m.entry(1, 2) == Z27.el(2)
    assert m.transpose().entry(2, 1) == Z27.el(2)
    assert (m + m).entry(2, 2) == Z27.el(8)
    assert (m - m) == from_rows(Z27, [[0, 0], [0, 0]])
    assert (m * identity(Z27, 2)) == m
    v = ColumnVector(Z27, (Z27.el(1), Z27.el(1)))
    assert (m * v).entries == (Z27.el(3), Z27.el(7))


def test_first_mismatch():
    a = from_rows(Z27, [[1, 2], [3, 4]])
    b = from_rows(Z27, [[1, 2], [5, 4]])
    assert a.first_mismatch(b) == (2, 1, Z27.el(3), Z27.el(5))
    assert a.first_mismatch(a) is None


def test_check_equal():
    a = from_rows(Z27, [[1, 2], [3, 4]])
    assert check_equal(a, from_rows(Z27, [[1, 2], [3, 4]]), "same") is a
    v = ColumnVector(Z27, [1, 2, 3])
    assert check_equal(v, ColumnVector(Z27, [1, 2, 30]), "same") is v
    for got, want, where in (
            (a, from_rows(Z27, [[1, 2], [5, 4]]), "(2, 1, 3, 5)"),
            (v, ColumnVector(Z27, [1, 7, 3]), "(2, 1, 2, 7)")):
        with pytest.raises(VerificationFailed) as caught:
            check_equal(got, want, "check")
        assert str(caught.value) == "check at " + where
    # different shapes name both; the common block may agree
    with pytest.raises(VerificationFailed) as caught:
        check_equal(identity(Z27, 2), identity(Z27, 3), "x")
    assert str(caught.value) == "x: shape 2x2 vs 3x3"


def test_vectors():
    v = basis_vector(Z27, 4, 2)
    assert v.entries == (Z27.zero, Z27.one, Z27.zero, Z27.zero)
    assert v.support() == [2]
    w = v.with_entry(4, Z27.el(5)).scale(Z27.el(2))
    assert w.entry(4) == Z27.el(10)
    assert zero_vector(Z27, 3).is_zero()
    assert v.dot(basis_vector(Z27, 4, 2)) == Z27.one


def test_one_column_results_are_vectors():
    m = from_rows(Z27, [[1, 2], [3, 4]])
    v = ColumnVector(Z27, (1, 2))
    w = ColumnVector(Z27, (5, 26))
    cases = [
        (m * v, (5, 11)),
        (v + w, (6, 1)),
        (v - w, (23, 3)),
        (-v, (26, 25)),
        (v.scale(3), (3, 6)),
        (m.column(2), (2, 4)),
        (tilde(v).transpose(), (25, 1)),
        (v.with_entry(2, 7), (1, 7)),
        (basis_vector(Z27, 2, 2), (0, 1)),
    ]
    for got, want in cases:
        assert type(got) is ColumnVector
        assert got.payloads == want
        assert got.length == 2
        assert [got.entry(i) for i in (1, 2)] == [Z27.el(x) for x in want]
        assert repr(got) == "col(%d, %d)" % want
    # a vector is the n x 1 matrix of its entries; shape and ring are
    # compared, and a mismatch in + raises as for any matrix
    assert v == from_rows(Z27, [[1], [2]])
    assert v != ColumnVector(ZmodRing(9), (1, 2))
    with pytest.raises(ValueError):
        v + ColumnVector(Z27, (1, 2, 3))


def test_block_diagonal_matches_from_rows():
    psi1 = standard_symplectic_form(Z27, 1)
    m = from_rows(Z27, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert block_diagonal(psi1, m) == from_rows(Z27, [
        [0, 1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [0, 0, 1, 2, 3],
        [0, 0, 4, 5, 6],
        [0, 0, 7, 8, 9]])
    one = identity(Z27, 1)
    assert block_diagonal(one, m) == from_rows(Z27, [
        [1, 0, 0, 0], [0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]])
    assert block_diagonal(one, one, m) == block_diagonal(identity(Z27, 2), m)
    assert block_diagonal(m) == m
    with pytest.raises(ValueError):
        block_diagonal(one, from_rows(Z27, [[1, 2]]))


def test_block_diagonal_random_blocks():
    rng = random.Random(5)
    for _ in range(20):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        blocks = [rand_matrix(rng, Z27, k) for k in sizes]
        total = sum(sizes)
        rows = [[0] * total for _ in range(total)]
        at = 0
        for b in blocks:
            for r in range(b.rows):
                for c in range(b.cols):
                    rows[at + r][at + c] = b.entry(r + 1, c + 1)
            at += b.rows
        assert block_diagonal(*blocks) == from_rows(Z27, rows)


def test_sigma_index():
    assert [sigma_index(i) for i in range(1, 7)] == [2, 1, 4, 3, 6, 5]


def test_standard_form_and_tilde():
    psi1 = standard_symplectic_form(Z27, 1)
    assert psi1 == from_rows(Z27, [[0, 1], [-1, 0]])
    e1 = basis_vector(Z27, 2, 1)
    e2 = basis_vector(Z27, 2, 2)
    assert tilde(e1).entries == (Z27.zero, Z27.one)
    assert tilde(e2).entries == (Z27.el(-1), Z27.zero)
    assert tilde_pair(e1, e2) == Z27.one
    assert tilde_pair(e2, e1) == -Z27.one
    assert tilde_pair(e1, e1).is_zero()


def test_is_symplectic_and_alternating():
    psi2 = standard_symplectic_form(Z27, 2)
    assert is_alternating(psi2)
    assert is_symplectic(identity(Z27, 4))
    assert not is_symplectic(from_rows(
        Z27, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert not is_alternating(identity(Z27, 2))


def test_pfaffian_two_by_two():
    m = from_rows(Z27, [[0, 7], [-7, 0]])
    assert pfaffian(m) == Z27.el(7)


def test_pfaffian_four_by_four_formula():
    rng = random.Random(2)
    for _ in range(20):
        m = rand_alternating(rng, Z27, 4)
        a = m.entry
        expect = a(1, 2) * a(3, 4) - a(1, 3) * a(2, 4) + a(1, 4) * a(2, 3)
        assert pfaffian(m) == expect
        assert pfaffian(m) == pfaffian_matching_oracle(m)


def test_pfaffian_standard_form_is_one():
    for n in range(0, 5):
        assert pfaffian(standard_symplectic_form(Z27, n)) == Z27.one


def test_pfaffian_matches_matching_oracle_6x6():
    rng = random.Random(3)
    for _ in range(5):
        m = rand_alternating(rng, Z27, 6)
        assert pfaffian(m) == pfaffian_matching_oracle(m)


def test_pfaffian_square_is_determinant():
    rng = random.Random(4)
    for size in (2, 4, 6):
        for _ in range(10):
            m = rand_alternating(rng, Z27, size)
            assert pfaffian(m) * pfaffian(m) == det(m)


def test_pfaffian_congruence_covariance():
    rng = random.Random(5)
    for _ in range(10):
        phi = rand_alternating(rng, Z27, 4)
        a = rand_matrix(rng, Z27, 4)
        assert pfaffian(a.transpose() * phi * a) == det(a) * pfaffian(phi)


def test_pfaffian_odd_size_rejected():
    with pytest.raises(OddDimension):
        pfaffian(from_rows(Z27, [[0, 0, 0]] * 3))


@pytest.mark.parametrize("which", ["pfaffian", "det"])
def test_pfaffian_and_det_take_order_n4_products(which, zmod_mul_budget):
    # First-row expansion would take 19!! (about 6.5e8) products at size
    # 20 and the subset-memo determinant millions; both algorithms now
    # take well under size**4.
    size = 20
    m = rand_alternating(random.Random(12), Z27, size)
    zmod_mul_budget[0] = size ** 4
    (pfaffian if which == "pfaffian" else det)(m)


@pytest.mark.parametrize("which", ["_pf", "_det"])
def test_division_free_bodies_take_order_n4_products(which, zmod_mul_budget):
    # Z/m takes the elimination, which multiplies ints directly; the
    # bodies polynomial rings and localizations use are held to size**4
    # here through Z/27's p_mul
    size = 20
    m = rand_alternating(random.Random(12), Z27, size)
    zmod_mul_budget[0] = size ** 4
    getattr(matrices, which)(Z27, m.payload_grid())


def non_unimodular_bezout(monkeypatch):
    """Replace matrices._bezout by a step of determinant 2 that still
    clears its entry; returns the list of the calls it answered."""
    orig, calls = matrices._bezout, []

    def doubled(x, y):
        calls.append((x, y))
        s, t, u, v = orig(x, y)
        return s, t, 2 * u, 2 * v

    monkeypatch.setattr(matrices, "_bezout", doubled)
    return calls


# row 0 pairs 2 with 3: neither divides the other, so both eliminations
# take a Bezout step
BEZOUT_FORM = [[0, 2, 3, 0], [-2, 0, 0, 1], [-3, 0, 0, 0], [0, -1, 0, 0]]


@pytest.mark.parametrize("which", [pfaffian, det])
def test_non_unimodular_step_is_refused(monkeypatch, which):
    a = from_rows(Z27, BEZOUT_FORM)
    calls = non_unimodular_bezout(monkeypatch)
    with pytest.raises(VerificationFailed):
        which(a)
    assert calls


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(10):
        a = rand_matrix(rng, Z27, 3)
        b = rand_matrix(rng, Z27, 3)
        assert det(a * b) == det(a) * det(b)
    assert det(identity(Z27, 5)) == Z27.one
    assert det(identity(Z27, 0)) == Z27.one


def test_adjugate_inverse():
    rng = random.Random(7)
    found = 0
    while found < 5:
        m = rand_matrix(rng, Z27, 3)
        try:
            inv = adjugate_inverse(m)
        except NotAUnit:
            continue
        found += 1
        assert m * inv == identity(Z27, 3)
        assert inv * m == identity(Z27, 3)


def test_delete_row_col():
    m = from_rows(Z27, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    d = m.delete_row_col(2, 1)
    assert d == from_rows(Z27, [[2, 3], [8, 9]])


def invert_entry_somewhere(w):
    from elemcalc.rings import invert_unit
    for m in range(1, w.length + 1):
        try:
            return m, invert_unit(w.entry(m))
        except NotAUnit:
            continue
    raise LookupError


def test_kernel_decomposition_contract():
    rng = random.Random(8)
    size = 6
    done = 0
    while done < 10:
        w = ColumnVector(Z27, tuple(Z27.el(rng.randrange(27))
                                    for _ in range(size)))
        try:
            m0, inv0 = invert_entry_somewhere(w)
        except LookupError:
            continue
        u = basis_vector(Z27, size, m0).scale(inv0)
        assert u.dot(w) == Z27.one
        c0 = ColumnVector(Z27, tuple(Z27.el(rng.randrange(27))
                                     for _ in range(size)))
        c = c0 - u.scale(c0.dot(w))
        assert c.dot(w).is_zero()
        coeffs = kernel_decomposition(c, w, u)
        recon = zero_vector(Z27, size)
        for (i, j), a in coeffs.items():
            term = zero_vector(Z27, size)
            term = term.with_entry(i, w.entry(j)).with_entry(j, -w.entry(i))
            recon = recon + term.scale(a)
        assert recon == c
        # a dense u = e_m0/w_m0 + (c1 - e_m0 (c1 . w)/w_m0) works too; both
        # give the a_ij of the full double loop, in the same order
        c1 = ColumnVector(Z27, tuple(Z27.el(rng.randrange(27))
                                     for _ in range(size)))
        dense = u + c1 - u.scale(c1.dot(w))
        assert dense.dot(w) == Z27.one
        for cert in (u, dense):
            full = [((i, j), c.entry(i) * cert.entry(j)
                     - c.entry(j) * cert.entry(i))
                    for i in range(1, size + 1)
                    for j in range(i + 1, size + 1)]
            assert list(kernel_decomposition(c, w, cert).items()) == [
                (ij, a) for ij, a in full if not a.is_zero()]
        done += 1


def test_kernel_decomposition_rejects_bad_inputs():
    from elemcalc.errors import CertificateInvalid
    w = ColumnVector(Z27, tuple(Z27.el(x) for x in (1, 0, 0, 0, 0, 0)))
    u = basis_vector(Z27, 6, 1)
    with pytest.raises(CertificateInvalid):
        kernel_decomposition(zero_vector(Z27, 6), w, zero_vector(Z27, 6))
    with pytest.raises(NotInKernel):
        kernel_decomposition(u, w, u)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=4, max_size=4),
       st.lists(st.integers(0, 26), min_size=4, max_size=4))
def test_tilde_pair_antisymmetric(xs, ys):
    v = ColumnVector(Z27, tuple(Z27.el(x) for x in xs))
    w = ColumnVector(Z27, tuple(Z27.el(y) for y in ys))
    assert tilde_pair(v, w) == -tilde_pair(w, v)
    assert tilde_pair(v, v).is_zero()


def test_matrix_operations_wrap_few_elements(ring_element_count):
    """Matrices store payloads, so evaluating a word of size letters and
    A * B, A + B and A == B build O(size) ring elements, not one per
    entry."""
    size = 16
    rng = random.Random(16)
    a, b = rand_matrix(rng, Z27, size), rand_matrix(rng, Z27, size)
    q = ColumnVector(Z27, [rng.randrange(27) for _ in range(size - 2)])
    form = standard_symplectic_form(Z27, size // 2 - 1)
    letters = [RhoLetter(q, 3, form), MuLetter(q, 6, form)]
    while len(letters) < size:
        i, j = rng.sample(range(1, size + 1), 2)
        letters.append(SympLetter(size, i, j, Z27.el(rng.randrange(1, 27))))
    w = Word(Z27, size, [(x, rng.random() < 0.5) for x in letters])
    for what, op in (("evaluate", lambda: evaluate(w)),
                     ("A * B", lambda: a * b),
                     ("A + B", lambda: a + b),
                     ("A == B", lambda: a == b)):
        ring_element_count.clear()
        op()
        assert len(ring_element_count) <= 3 * size, what
