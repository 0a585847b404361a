import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from elemcalc import (
    BadIndices,
    CertifiedElement,
    DescriptorMismatch,
    IdealPresentation,
    LengthMismatch,
    LinLetter,
    LowerTransLetter,
    MuLetter,
    NotAlternating,
    NotCertified,
    PolyRing,
    RELATION_TAGS,
    RhoLetter,
    SideConditionViolated,
    SympLetter,
    UpperTransLetter,
    Word,
    ZmodRing,
    certify,
    check_relation,
    commutator_word,
    conjugate_word,
    evaluate,
    expand_mu,
    expand_rho,
    from_rows,
    identity,
    index1_form,
    invert_word,
    jsonio,
    recording,
    sigma_index,
    standard_symplectic_form,
    symplectic_entry_pattern,
    word,
    word_certified,
    word_in_E1,
    word_in_ESp1,
)
from elemcalc.matrices import ColumnVector, adjugate_inverse
from elemcalc.words import (ElementaryLetter, ShearLetter, TransvectionLetter,
                            note)

Z27 = ZmodRing(27)
Z25 = ZmodRing(25)
I3_27 = IdealPresentation(Z27, (Z27.el(3),))


def product_oracle(w):
    """Multiply the letter matrices directly, bypassing column ops."""
    acc = identity(w.ring, w.size)
    for letter, inv in w.letters:
        acc = acc * letter.matrix(inv)
    return acc


def test_linear_generator_frozen():
    g = LinLetter(3, 1, 2, Z27.el(5)).matrix()
    assert g == from_rows(Z27, [[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(BadIndices):
        LinLetter(3, 2, 2, Z27.el(5))
    with pytest.raises(BadIndices):
        LinLetter(3, 0, 2, Z27.el(5))


def test_symplectic_generator_frozen():
    g = SympLetter(4, 2, 1, Z27.el(5)).matrix()
    assert g == from_rows(Z27, [
        [1, 0, 0, 0], [5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    g = SympLetter(4, 1, 3, Z27.el(5)).matrix()
    assert g == from_rows(Z27, [
        [1, 0, 5, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 22, 0, 1]])
    with pytest.raises(BadIndices):
        SympLetter(4, 3, 3, Z27.el(5))


def test_entry_pattern():
    assert symplectic_entry_pattern(2, 1) == ((2, 1, 1),)
    assert symplectic_entry_pattern(1, 3) == ((1, 3, 1), (4, 2, -1))
    assert symplectic_entry_pattern(1, 4) == ((1, 4, 1), (3, 2, 1))


def test_sigma_identification():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice((2, 3))
        i = rng.randrange(1, 2 * n + 1)
        j = rng.randrange(1, 2 * n + 1)
        if i == j:
            continue
        z = rng.randrange(27)
        left = SympLetter(2 * n, i, j, Z27.el(z)).matrix()
        zz = z if (i + j) % 2 == 1 else -z
        right = SympLetter(
            2 * n, sigma_index(j), sigma_index(i), Z27.el(zz)).matrix()
        assert left == right


def test_letters_are_immutable():
    a = LinLetter(3, 1, 2, Z27.el(5))
    with pytest.raises(AttributeError):
        a.param = Z27.el(6)
    s = SympLetter(4, 2, 1, Z27.el(5))
    with pytest.raises(AttributeError):
        s.i = 3


def test_letter_matrices_match_generators():
    a = LinLetter(3, 2, 3, Z27.el(7))
    assert a.matrix() == from_rows(Z27, [[1, 0, 0], [0, 1, 7], [0, 0, 1]])
    assert a.matrix(inverted=True) == LinLetter(3, 2, 3, Z27.el(-7)).matrix()
    s = SympLetter(4, 1, 3, Z27.el(7))
    assert s.matrix() == from_rows(Z27, [
        [1, 0, 7, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -7, 0, 1]])
    assert s.matrix() * s.matrix(inverted=True) == identity(Z27, 4)
    # every letter class: evaluation (column operations where the class
    # has them) agrees with the letter's own matrix, inverted or not
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(5), Z27.el(0), Z27.el(7)])
    phi = standard_symplectic_form(Z27, 2)
    dense = from_rows(Z27, [[0, 2, 5, 1], [-2, 0, 3, 4], [-5, -3, 0, 6],
                            [-1, -4, -6, 0]])
    v = ColumnVector(Z27, [Z27.el(4), Z27.el(0), Z27.el(9)])
    letters = (
        (LinLetter(3, 2, 3, Z27.el(7)), "E", "E[2,3]("),
        (SympLetter(6, 1, 4, Z27.el(7)), "se", "se[1,4]("),
        (RhoLetter(q, 5, phi), "rho", "rho("),
        (MuLetter(q, 5, phi), "mu", "mu("),
        (RhoLetter(q, 11, dense), "rho", "rho("),
        (MuLetter(q, 11, dense), "mu", "mu("),
        (LowerTransLetter(v), "trans-lower", "shear-lower("),
        (UpperTransLetter(v), "trans-upper", "shear-upper("),
    )
    for letter, kind, prefix in letters:
        assert letter.kind == kind and repr(letter).startswith(prefix)
        size = letter.size
        assert evaluate(word(Z27, size, letter)) == letter.matrix()
        assert evaluate(word(Z27, size, (letter, True))) == letter.matrix(True)
        assert letter.matrix() * letter.matrix(True) == identity(Z27, size)
        if kind in ("rho", "mu"):   # closed-form inverse
            assert letter.matrix(True) == adjugate_inverse(letter.matrix())


def kind_table():
    """One letter per public constructor, certified over (3) in Z/27,
    with the repr each constructor gave before the letter classes were
    merged."""
    c = [certify(I3_27, [Z27.el(k)]) for k in range(4)]
    qc, vc = (c[1], c[2], c[0], c[3]), (c[2], c[0], c[1])
    q = ColumnVector(Z27, [x.value for x in qc])
    v = ColumnVector(Z27, [x.value for x in vc])
    phi = standard_symplectic_form(Z27, 2)
    return {
        "E": (LinLetter(3, 2, 3, c[2].value, cert=c[2]), "E[2,3](6)"),
        "se": (SympLetter(6, 1, 4, c[1].value, cert=c[1]), "se[1,4](3)"),
        "rho": (RhoLetter(q, c[3].value, phi, certs=(c[3], qc)),
                "rho(col(3, 6, 0, 9), 9)"),
        "mu": (MuLetter(q, c[1].value, phi, certs=(c[1], qc)),
               "mu(col(3, 6, 0, 9), 3)"),
        "trans-lower": (LowerTransLetter(v, vc), "shear-lower(col(6, 0, 3))"),
        "trans-upper": (UpperTransLetter(v, vc), "shear-upper(col(6, 0, 3))"),
    }


# sha256 of repr([(size, i, j, form), ...]) over every i != j at sizes
# 3-8, recorded from LinLetter.index1_form and SympLetter.index1_form
# before index1_form(kind, i, j) replaced them
INDEX1_DIGESTS = {
    "E": "faa4d68fb030692b8357a3ce0e54fb91c69b3388f282948660547b86cd81bd14",
    "se": "3ce120fbc16d0f3ebd53aaae6f637e2f0524d0e7d0885d8ba4f7aeeeb4fc9527",
}


def check_index1_table(kind):
    make = LinLetter if kind == "E" else SympLetter
    rows = []
    for size in range(3, 9):
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                if i == j:
                    continue
                form = index1_form(kind, i, j)
                rows.append((size, i, j, form))
                touching = {i, j} if kind == "E" else \
                    {i, j, sigma_index(i), sigma_index(j)}
                assert (form is None) is (1 not in touching)
                if form is None:
                    continue
                assert 1 in form[:2]
                if 1 in (i, j):
                    assert form == (i, j, 1)
                if kind == "E" or size % 2 == 0:
                    i2, j2, sign = form
                    assert make(size, i, j, Z27.el(5)).matrix() \
                        == make(size, i2, j2, Z27.el(5 * sign)).matrix()
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == INDEX1_DIGESTS[kind]


@pytest.mark.parametrize("inv", [False, True], ids=["plain", "inverted"])
@pytest.mark.parametrize("kind", ["E", "se", "rho", "mu", "trans-lower",
                                  "trans-upper"])
def test_kind_table(kind, inv):
    """Each constructor keeps its kind and repr; the four JSON kinds
    encode as gen = kind and decode to the same bytes; index1_form
    gives the old class methods' table."""
    letter, text = kind_table()[kind]
    assert letter.kind == kind and repr(letter) == text
    assert evaluate(word(Z27, letter.size, (letter, inv))) \
        == letter.matrix(inv)
    if kind.startswith("trans-"):
        with pytest.raises(DescriptorMismatch):
            jsonio.letter_to_json(letter, inv)
        return
    data = jsonio.letter_to_json(letter, inv)
    assert data["gen"] == letter.kind and data["inv"] is inv
    back, back_inv = jsonio.letter_from_json(Z27, letter.size,
                                             json.loads(jsonio.dumps(data)),
                                             I3_27)
    assert back.kind == kind and repr(back) == text
    assert jsonio.dumps(jsonio.letter_to_json(back, back_inv)) \
        == jsonio.dumps(data)
    if kind in ("E", "se"):
        check_index1_table(kind)


DENSE = from_rows(Z27, [[0, 2, 5, 1], [-2, 0, 3, 4], [-5, -3, 0, 6],
                        [-1, -4, -6, 0]])


def random_letters(rng):
    """One letter of each class with random parameters; rho and mu over
    the standard form and over DENSE."""
    def el():
        return Z27.el(rng.randrange(27))

    q = ColumnVector(Z27, [el() for _ in range(4)])
    v = ColumnVector(Z27, [el() for _ in range(3)])
    yield LinLetter(4, *rng.sample(range(1, 5), 2), el())
    yield SympLetter(6, *rng.sample(range(1, 7), 2), el())
    for form in (standard_symplectic_form(Z27, 2), DENSE):
        yield RhoLetter(q, el(), form)
        yield MuLetter(q, el(), form)
    yield LowerTransLetter(v)
    yield UpperTransLetter(v)


def test_letter_cells_are_column_operations():
    """Every letter is 1 + N given by the ordered cells of N: applied in
    turn as column operations to the identity they give matrix(), and
    no cell reads a column an earlier cell has written."""
    rng = random.Random(41)
    for _ in range(15):
        for letter in random_letters(rng):
            size = letter.size
            for inv in (False, True):
                ops = letter.column_ops(inv)
                assert isinstance(ops, list)
                grid = [[int(r == c) for c in range(size)]
                        for r in range(size)]
                written = set()
                for cell in ops:
                    r, c, p = cell
                    assert len(cell) == 3 and type(r) is int
                    assert type(c) is int and type(p) is int   # Z/27 payload
                    assert r not in written
                    written.add(c)
                    for row in grid:
                        row[c - 1] = (row[c - 1] + row[r - 1] * p) % 27
                assert from_rows(Z27, grid) == letter.matrix(inv)
            one = identity(Z27, size)
            assert letter.matrix() * letter.matrix(True) == one


def test_dense_form_blocks_frozen():
    """rho and mu over a nonstandard form, inverted or not: the head
    row carries the scalar and q^t form, the tail column -q."""
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(5), Z27.el(0), Z27.el(7)])
    assert RhoLetter(q, 11, DENSE).matrix() == from_rows(Z27, [
        [1, 0, 0, 0, 0, 0],
        [16, 1, 10, 5, 15, 23],
        [24, 0, 1, 0, 0, 0],
        [22, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [20, 0, 0, 0, 0, 1]])
    assert RhoLetter(q, 11, DENSE).matrix(True) == from_rows(Z27, [
        [1, 0, 0, 0, 0, 0],
        [11, 1, 17, 22, 12, 4],
        [3, 0, 1, 0, 0, 0],
        [5, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [7, 0, 0, 0, 0, 1]])
    assert MuLetter(q, 11, DENSE).matrix() == from_rows(Z27, [
        [1, 11, 17, 22, 12, 4],
        [0, 1, 0, 0, 0, 0],
        [0, 24, 1, 0, 0, 0],
        [0, 22, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 20, 0, 0, 0, 1]])
    assert MuLetter(q, 11, DENSE).matrix(True) == from_rows(Z27, [
        [1, 16, 10, 5, 15, 23],
        [0, 1, 0, 0, 0, 0],
        [0, 3, 1, 0, 0, 0],
        [0, 5, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 7, 0, 0, 0, 1]])


def test_is_index1():
    assert SympLetter(6, 2, 5, Z27.el(1)).is_index1()
    assert SympLetter(6, 5, 1, Z27.el(1)).is_index1()
    assert not SympLetter(6, 3, 5, Z27.el(1)).is_index1()
    assert LinLetter(3, 1, 3, Z27.el(1)).is_index1()
    assert not LinLetter(3, 2, 3, Z27.el(1)).is_index1()


def test_evaluate_matches_direct_product():
    rng = random.Random(11)
    for _ in range(25):
        letters = []
        for _ in range(rng.randrange(1, 7)):
            i = rng.randrange(1, 5)
            j = rng.randrange(1, 5)
            if i == j:
                continue
            letters.append((SympLetter(4, i, j, Z27.el(rng.randrange(27))),
                            rng.random() < 0.4))
        w = Word(Z27, 4, letters)
        assert evaluate(w) == product_oracle(w)


def test_word_algebra():
    a = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(4)))
    b = word(Z27, 3, LinLetter(3, 2, 3, Z27.el(5)))
    ab = a * b
    assert len(ab) == 2
    assert evaluate(ab) == evaluate(a) * evaluate(b)
    assert evaluate(invert_word(ab)) * evaluate(ab) == identity(Z27, 3)
    assert evaluate(conjugate_word(a, b)) == product_oracle(conjugate_word(a, b))
    assert evaluate(commutator_word(a, b)) == \
        evaluate(a) * evaluate(b) * evaluate(invert_word(a)) * \
        evaluate(invert_word(b))
    w2 = ab.append(LinLetter(3, 1, 3, Z27.el(2)), inverted=True)
    assert len(ab) == 2 and len(w2) == 3
    assert evaluate(Word(Z27, 3, ())).is_identity()


def test_note_outside_a_recording_formats_nothing():
    class Loud:
        def __repr__(self):
            raise AssertionError("formatted")

    note("stage", "%r", Loud())
    with recording() as events:
        with pytest.raises(AssertionError):
            note("stage", "%r", Loud())
        note("stage", "%d pieces", 3)
        with recording() as inner:
            note("inner", "no arguments")
    note("stage", "%r", Loud())
    assert events == [("stage", "3 pieces")]
    assert inner == [("inner", "no arguments")]


def test_relation_tags_frozen():
    assert RELATION_TAGS == ("linear", "symplectic-long", "symplectic-short",
                             "symplectic-mixed", "symplectic-disjoint")


def test_linear_relation():
    assert check_relation("linear", Z27, 3, (1, 2, 3), 4, 5)
    assert check_relation("linear", Z25, 4, (2, 4, 1), 7, 9)
    with pytest.raises(SideConditionViolated):
        check_relation("linear", Z27, 3, (1, 2, 2), 4, 5)


def test_long_relation():
    assert check_relation("symplectic-long", Z27, 3, (1, 3, 5), 4, 5)
    assert check_relation("symplectic-long", Z27, 3, (2, 5, 4), 7, 2)
    with pytest.raises(SideConditionViolated):
        check_relation("symplectic-long", Z27, 3, (1, 2, 5), 4, 5)
    with pytest.raises(SideConditionViolated):
        check_relation("symplectic-long", Z27, 3, (1, 3, 4), 4, 5)


def test_short_relation():
    assert check_relation("symplectic-short", Z27, 2, (1, 2, 3), 4, 5)
    assert check_relation("symplectic-short", Z27, 3, (3, 4, 1), 7, 2)
    with pytest.raises(SideConditionViolated):
        check_relation("symplectic-short", Z27, 2, (1, 3, 4), 4, 5)
    with pytest.raises(SideConditionViolated):
        check_relation("symplectic-short", Z27, 2, (1, 2, 2), 4, 5)


def test_mixed_relation():
    assert check_relation("symplectic-mixed", Z27, 2, (1, 3), 4, 5)
    assert check_relation("symplectic-mixed", Z27, 2, (1, 4), 4, 5)
    assert check_relation("symplectic-mixed", Z27, 3, (4, 5), 7, 2)
    with pytest.raises(SideConditionViolated):
        check_relation("symplectic-mixed", Z27, 2, (1, 2), 4, 5)


def test_disjoint_relation():
    assert check_relation("symplectic-disjoint", Z27, 2, (1, 2, 3, 4), 4, 5)
    assert check_relation("symplectic-disjoint", Z27, 3, (1, 3, 5, 6), 7, 2)
    with pytest.raises(SideConditionViolated):
        check_relation("symplectic-disjoint", Z27, 2, (1, 3, 2, 4), 4, 5)


def test_relations_randomized():
    rng = random.Random(23)
    for _ in range(40):
        a = rng.randrange(27)
        b = rng.randrange(27)
        assert check_relation("linear", Z27, 4, (1, 2, 4), a, b)
        assert check_relation("symplectic-long", Z27, 3, (1, 3, 6), a, b)
        assert check_relation("symplectic-short", Z27, 2, (2, 1, 4), a, b)
        assert check_relation("symplectic-mixed", Z27, 2, (2, 3), a, b)
        assert check_relation("symplectic-disjoint", Z27, 3, (1, 2, 5, 6), a, b)


def test_expand_rho_matches_block_matrix():
    rng = random.Random(31)
    phi = standard_symplectic_form(Z27, 2)
    for _ in range(20):
        q = ColumnVector(Z27, [Z27.el(rng.randrange(27)) for _ in range(4)])
        alpha = rng.randrange(27)
        letter = RhoLetter(q, alpha, phi)
        w = expand_rho(q, alpha)
        assert evaluate(w) == letter.matrix()
        for lt, inv in w.letters:
            assert lt.is_index1() and not inv


def test_expand_mu_matches_block_matrix():
    rng = random.Random(37)
    phi = standard_symplectic_form(Z27, 2)
    for _ in range(20):
        q = ColumnVector(Z27, [Z27.el(rng.randrange(27)) for _ in range(4)])
        beta = rng.randrange(27)
        letter = MuLetter(q, beta, phi)
        w = expand_mu(q, beta)
        assert evaluate(w) == letter.matrix()
        for lt, inv in w.letters:
            assert lt.is_index1() and not inv


def test_expand_carries_certificates():
    ideal = IdealPresentation(Z27, (Z27.el(3),))
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(6), Z27.el(0), Z27.el(12)])
    q_certs = [certify(ideal, [Z27.el(1)]), certify(ideal, [Z27.el(2)]),
               certify(ideal, [Z27.el(0)]), certify(ideal, [Z27.el(4)])]
    a_cert = certify(ideal, [Z27.el(5)])
    w = expand_rho(q, 15, alpha_cert=a_cert, q_certs=q_certs)
    assert word_in_ESp1(w, ideal)
    w = expand_mu(q, 15, beta_cert=a_cert, q_certs=q_certs)
    assert word_in_ESp1(w, ideal)


@pytest.mark.parametrize("expand", [expand_rho, expand_mu])
def test_expand_with_one_certificate_kind(expand):
    # the head letter mixes the scalar with q, so it is certified only
    # when both kinds of certificate are given; the others follow q's
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(6), Z27.el(0), Z27.el(12)])
    q_certs = [certify(I3_27, [Z27.el(k)]) for k in (1, 2, 0, 4)]
    a_cert = certify(I3_27, [Z27.el(5)])
    full = expand(q, 15, a_cert, q_certs)
    assert word_in_ESp1(full, I3_27)
    for sc, qcs in ((a_cert, None), (None, q_certs)):
        w = expand(q, 15, sc, qcs)
        assert evaluate(w) == evaluate(full)
        assert [lt.param for lt, _ in w.letters] == \
            [lt.param for lt, _ in full.letters]
        assert w.letters[0][0].cert is None
        for lt, _ in w.letters[1:]:
            assert (lt.cert is not None) == (qcs is not None)


@pytest.mark.parametrize("expand", [expand_rho, expand_mu])
def test_expand_checks_its_certificates(expand):
    # one certificate per entry of q, each of its entry's value, as the
    # transvection letters require
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(6), Z27.el(0), Z27.el(12)])
    q_certs = [certify(I3_27, [Z27.el(k)]) for k in (1, 2, 0, 4)]
    with pytest.raises(LengthMismatch):
        expand(q, 3, None, q_certs[:1])
    with pytest.raises(LengthMismatch):
        expand(q, 3, None, q_certs + q_certs[:1])
    with pytest.raises(NotCertified):
        expand(q, 3, None, q_certs[:2] + q_certs[:2])


def test_transvection_letters_reject_bad_forms():
    q = ColumnVector(Z27, [Z27.el(1), Z27.el(2)])
    not_alt = from_rows(Z27, [[0, 1], [1, 0]])
    with pytest.raises(NotAlternating):
        RhoLetter(q, 1, not_alt)
    with pytest.raises(NotAlternating):
        MuLetter(q, 1, not_alt)


def test_word_membership_predicates():
    ideal = IdealPresentation(Z27, (Z27.el(3),))
    c6 = certify(ideal, [Z27.el(2)])
    c3 = certify(ideal, [Z27.el(1)])
    good = word(Z27, 3,
                LinLetter(3, 1, 2, c6.value, cert=c6),
                (LinLetter(3, 3, 1, c3.value, cert=c3), True))
    assert word_in_E1(good, ideal)
    assert word_certified(good)
    assert word_certified(good, ideal)
    bare = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(6)))
    assert not word_in_E1(bare, ideal)
    assert not word_certified(bare)
    off_index = word(Z27, 3, LinLetter(3, 2, 3, c6.value, cert=c6))
    assert not word_in_E1(off_index, ideal)
    s = certify(ideal, [Z27.el(4)])
    symp = word(Z27, 4, SympLetter(4, 2, 3, s.value, cert=s))
    assert word_in_ESp1(symp, ideal)
    assert not word_in_E1(symp, ideal)
    assert not word_in_ESp1(good, ideal)
    far = word(Z27, 6, SympLetter(6, 3, 5, s.value, cert=s))
    assert not word_in_ESp1(far, ideal)


def test_certificate_value_must_match_param():
    ideal = IdealPresentation(Z27, (Z27.el(3),))
    cert = certify(ideal, [Z27.el(2)])
    with pytest.raises(NotCertified):
        LinLetter(3, 1, 2, Z27.el(5), cert=cert)
    with pytest.raises(NotCertified):
        SympLetter(4, 1, 2, Z27.el(5), cert=cert)


def test_block_letters_check_their_certificates():
    """Every shape checks its certificates where the letter is made: a
    wrong count raises LengthMismatch, a wrong value NotCertified."""
    ideal = IdealPresentation(Z27, (Z27.el(3),))
    c3, c6 = certify(ideal, [Z27.el(1)]), certify(ideal, [Z27.el(2)])
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(6)])
    form = standard_symplectic_form(Z27, 1)
    for make in (RhoLetter, MuLetter):
        assert make(q, 6, form, certs=(c6, (c3, c6))).certs == (c6, (c3, c6))
        with pytest.raises(LengthMismatch):
            make(q, 6, form, certs=(c6, (c3,)))
        with pytest.raises(NotCertified):
            make(q, 3, form, certs=(c6, (c3, c6)))
        with pytest.raises(NotCertified):
            make(q, 6, form, certs=(c6, (c6, c6)))
    v = ColumnVector(Z27, [Z27.el(3), Z27.el(6), Z27.el(0)])
    for make in (LowerTransLetter, UpperTransLetter):
        with pytest.raises(LengthMismatch):
            make(v, (c3, c6))
        with pytest.raises(NotCertified):
            make(v, (c6, c6, None))


def uncertified_variants(letter):
    """The kind_table letter rebuilt with one certificate slot empty, or
    forged: a certificate of the right value 6 whose coefficients give 3
    (entry 2 of q, entry 1 of the shear vector)."""
    forged = CertifiedElement(I3_27, (Z27.el(1),), Z27.el(6))
    if letter.kind in ("E", "se"):
        yield letter.with_param(letter.param)
        yield letter.with_param(Z27.el(6), forged)
    elif letter.kind in ("rho", "mu"):
        sc, qcs = letter.certs
        make = functools.partial(TransvectionLetter, letter.kind, letter.q,
                                 letter.scalar, letter.form)
        yield make()
        yield make((sc, None))
        yield make((None, qcs))
        yield make((sc, (None,) + qcs[1:]))
        yield make((sc, qcs[:1] + (forged,) + qcs[2:]))
    else:
        make = functools.partial(ShearLetter, letter.kind, letter.vec)
        yield make()
        yield make(letter.certs[:1] + (None,) + letter.certs[2:])
        yield make((forged,) + letter.certs[1:])


@pytest.mark.parametrize("kind", ["E", "se", "rho", "mu", "trans-lower",
                                  "trans-upper"])
def test_word_certified_reads_every_shape(kind):
    """word_certified answers for every letter shape: each certificate
    slot must be filled, over the given ideal, and pass check()."""
    letter, _ = kind_table()[kind]
    I9 = IdealPresentation(Z27, (Z27.el(9),))
    for inv in (False, True):
        w = word(Z27, letter.size, (letter, inv))
        assert word_certified(w) and word_certified(w, I3_27)
        assert not word_certified(w, I9)
        for bare in uncertified_variants(letter):
            w = word(Z27, letter.size, (letter, inv), (bare, inv))
            assert not word_certified(w)
            assert not word_certified(w, I3_27)


def count_column_ops(monkeypatch):
    """Record every letter whose column_ops is called."""
    applied = []
    for cls in (ElementaryLetter, TransvectionLetter, ShearLetter):
        def counted(self, inverted=False, _orig=cls.column_ops):
            applied.append(self)
            return _orig(self, inverted)
        monkeypatch.setattr(cls, "column_ops", counted)
    return applied


def test_evaluate_stores_the_value(monkeypatch):
    applied = count_column_ops(monkeypatch)
    for letter, _ in kind_table().values():
        w = word(Z27, letter.size, letter, (letter, True))
        first = evaluate(w)
        assert applied == [letter, letter]
        assert evaluate(w) is first
        assert applied == [letter, letter]
        assert first == product_oracle(w)
        del applied[:]


def test_derived_words_start_without_a_value():
    a = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(4)))
    b = word(Z27, 3, LinLetter(3, 2, 3, Z27.el(5)))
    evaluate(a)
    evaluate(b)
    derived = (a * b, a.append(LinLetter(3, 1, 3, Z27.el(2))),
               invert_word(a), conjugate_word(a, b), commutator_word(a, b))
    for w in derived:
        assert w._value is None
        assert evaluate(w) == product_oracle(w)
    with pytest.raises(AttributeError):
        a._value = None


def test_empty_word_is_the_product_identity():
    a = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(4)))
    one = Word(Z27, 3)
    assert one * a is a and a * one is a
    assert one * one is one
    with pytest.raises(BadIndices):
        Word(Z27, 4) * a


def test_append_checks_the_letter_size():
    with pytest.raises(BadIndices):
        Word(Z27, 3).append(LinLetter(4, 1, 2, Z27.el(1)))


_RESUME_RINGS = (Z27, PolyRing(Z27, ("X",)))


def _resume_letter(ring, spec):
    """A size-6 letter of one of the three shapes from integer draws."""
    shape, ints = spec
    els = [ring.el(x) for x in ints]
    if ring != Z27:
        x = ring.var("X")
        els = [e + ring.el(y) * x for e, y in zip(els, reversed(ints))]
    if shape in ("E", "se"):
        i, j = ints[0] % 6 + 1, ints[1] % 6 + 1
        if i == j:
            j = j % 6 + 1
        return ElementaryLetter(shape, 6, i, j, els[2])
    if shape in ("rho", "mu"):
        return TransvectionLetter(shape, ColumnVector(ring, els[:4]), els[4],
                                  standard_symplectic_form(ring, 2))
    return ShearLetter(shape, ColumnVector(ring, els[:5]))


_RESUME_SPECS = st.tuples(
    st.sampled_from(("E", "se", "rho", "mu", "trans-lower", "trans-upper")),
    st.lists(st.integers(0, 26), min_size=5, max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RESUME_RINGS),
       st.lists(st.tuples(_RESUME_SPECS, st.booleans()), min_size=1,
                max_size=6),
       st.integers(0, 6), st.booleans())
def test_evaluation_resumes_from_an_evaluated_prefix(ring, specs, cut,
                                                     by_append):
    """After evaluate(p), evaluate(p * s) resumes from p's stored value
    and gives the value of a fresh word with the same letters."""
    letters = [(_resume_letter(ring, spec), inv) for spec, inv in specs]
    cut = min(cut, len(letters))
    p = Word(ring, 6, letters[:cut])
    evaluate(p)
    if by_append:
        w = p
        for letter, inv in letters[cut:]:
            w = w.append(letter, inv)
    else:
        w = p * Word(ring, 6, letters[cut:])
    fresh = Word(ring, 6, letters)
    assert evaluate(w) == evaluate(fresh)
    assert evaluate(w) == product_oracle(fresh)


def test_evaluation_applies_only_the_letters_after_the_prefix(monkeypatch):
    applied = count_column_ops(monkeypatch)
    a = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(4)),
             LinLetter(3, 2, 3, Z27.el(5)))
    b = word(Z27, 3, LinLetter(3, 3, 1, Z27.el(7)))
    c = word(Z27, 3, LinLetter(3, 1, 3, Z27.el(2)))
    evaluate(a)
    del applied[:]
    # the prefix a carries through a product that was never evaluated
    abc = a * b * c
    evaluate(abc)
    assert applied == [b.letters[0][0], c.letters[0][0]]
    # once evaluated, abc is the prefix of what extends it
    more = abc.append(LinLetter(3, 2, 1, Z27.el(1)), inverted=True)
    evaluate(more)
    assert len(applied) == 3
    # a word whose prefix was never evaluated starts from the identity
    bc = b * c
    evaluate(bc)
    assert len(applied) == 5
    # the conjugate g . w . g^-1 of an evaluated g applies |g| + |w|
    gw = conjugate_word(a, b)
    evaluate(gw)
    assert len(applied) == 5 + len(a) + len(b)
    for w in (abc, more, bc, gw):
        assert evaluate(w) == product_oracle(w)
