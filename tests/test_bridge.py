import pytest

from elemcalc import (
    AlternatingForm,
    BadIndices,
    E1_to_etrans,
    ESp1_to_etranssp,
    FormMismatch,
    FormRelationFails,
    IdealMismatch,
    IdealPresentation,
    LengthMismatch,
    LinLetter,
    LowerTransLetter,
    MuLetter,
    NonstandardForm,
    NotAlternating,
    NotCertified,
    NotCongruentToStandard,
    NotLocalRing,
    PfaffianNotOne,
    RhoLetter,
    SympLetter,
    UpperTransLetter,
    Word,
    ZmodRing,
    certify,
    etrans_word_to_E1,
    etranssp_word_to_ESp1,
    evaluate,
    from_rows,
    mu_matrix,
    rho_matrix,
    standard_symplectic_form,
    standardize_alternating,
    transport_conjugation,
    word,
    word_certified,
    word_in_E1,
    word_in_ESp1,
)
from elemcalc.matrices import ColumnVector, identity

Z27 = ZmodRing(27)
I3 = IdealPresentation(Z27, (Z27.el(3),))
PSI1 = standard_symplectic_form(Z27, 1)
PSI2 = standard_symplectic_form(Z27, 2)


def cvec(ring, *entries):
    return ColumnVector(ring, [ring.el(e) for e in entries])


def form_pairing(q1, phi, q2):
    ring = q1.ring
    acc = ring.zero
    for r in range(1, q1.length + 1):
        for c in range(1, q2.length + 1):
            acc = acc + q1.entry(r) * phi.entry(r, c) * q2.entry(c)
    return acc


def test_rho_block_frozen():
    q = cvec(Z27, 2, 3)
    m = rho_matrix(q, 5, PSI1)
    assert m == from_rows(Z27, [
        [1, 0, 0, 0],
        [-5, 1, -3, 2],
        [-2, 0, 1, 0],
        [-3, 0, 0, 1]])


def test_mu_block_frozen():
    q = cvec(Z27, 2, 3)
    m = mu_matrix(q, 5, PSI1)
    assert m == from_rows(Z27, [
        [1, 5, 3, -2],
        [0, 1, 0, 0],
        [0, -2, 1, 0],
        [0, -3, 0, 1]])


def test_rho_composition_law():
    q1 = cvec(Z27, 2, 3, 0, 7)
    q2 = cvec(Z27, 1, 0, 4, 5)
    a1, a2 = Z27.el(5), Z27.el(8)
    lhs = rho_matrix(q1, a1, PSI2) * rho_matrix(q2, a2, PSI2)
    scalar = a1 + a2 + form_pairing(q1, PSI2, q2)
    rhs = rho_matrix(q1 + q2, scalar, PSI2)
    assert lhs == rhs


def test_mu_composition_law():
    q1 = cvec(Z27, 1, 2, 3, 4)
    q2 = cvec(Z27, 0, 5, 1, 6)
    b1, b2 = Z27.el(4), Z27.el(9)
    lhs = mu_matrix(q1, b1, PSI2) * mu_matrix(q2, b2, PSI2)
    scalar = b1 + b2 + form_pairing(q1, PSI2, q2)
    rhs = mu_matrix(q1 + q2, scalar, PSI2)
    assert lhs == rhs


def test_transvection_form_mismatch():
    q = cvec(Z27, 2, 3)
    with pytest.raises(FormMismatch):
        rho_matrix(q, 5, PSI2)
    with pytest.raises(FormMismatch):
        mu_matrix(q, 5, PSI2)


def test_linear_transvection_frozen():
    v = cvec(Z27, 3, 0)
    assert LowerTransLetter(v).matrix() == from_rows(
        Z27, [[1, 0, 0], [3, 1, 0], [0, 0, 1]])
    assert UpperTransLetter(v).matrix() == from_rows(
        Z27, [[1, 3, 0], [0, 1, 0], [0, 0, 1]])


def test_shear_letter_certs_must_match():
    v = cvec(Z27, 3, 0)
    good = (certify(I3, [Z27.el(1)]), certify(I3, [Z27.el(0)]))
    letter = LowerTransLetter(v, good)
    assert letter.matrix() == LowerTransLetter(v).matrix()
    with pytest.raises(NotCertified):
        LowerTransLetter(v, (certify(I3, [Z27.el(2)]), good[1]))
    with pytest.raises(LengthMismatch):
        UpperTransLetter(v, (good[0],))


def test_shear_word_to_first_index_frozen():
    v = cvec(Z27, 3, 0)
    certs = (certify(I3, [Z27.el(1)]), certify(I3, [Z27.el(0)]))
    w = Word(Z27, 3, ((LowerTransLetter(v, certs), False),))
    out = etrans_word_to_E1(w)
    assert len(out) == 1
    letter, inv = out.letters[0]
    assert (letter.i, letter.j, letter.param) == (2, 1, Z27.el(3))
    assert not inv
    assert word_in_E1(out, I3)


def test_shear_round_trip():
    c1 = certify(I3, [Z27.el(1)])
    c2 = certify(I3, [Z27.el(4)])
    c0 = certify(I3, [Z27.el(0)])
    lower = LowerTransLetter(cvec(Z27, 3, 12), (c1, c2))
    upper = UpperTransLetter(cvec(Z27, 0, 3), (c0, c1))
    w = Word(Z27, 3, ((lower, False), (upper, True)))
    flat = etrans_word_to_E1(w)
    assert word_in_E1(flat, I3)
    assert evaluate(flat) == evaluate(w)
    grouped = E1_to_etrans(flat, ideal=I3)
    assert evaluate(grouped) == evaluate(w)
    assert len(grouped) == 2
    kinds = [letter.kind for letter, _ in grouped.letters]
    assert kinds == ["trans-lower", "trans-upper"]


def test_first_index_grouping_merges_runs():
    c1 = certify(I3, [Z27.el(1)])
    c2 = certify(I3, [Z27.el(2)])
    w = word(Z27, 4,
             LinLetter(4, 2, 1, c1.value, cert=c1),
             LinLetter(4, 3, 1, c2.value, cert=c2),
             LinLetter(4, 1, 4, c1.value, cert=c1))
    grouped = E1_to_etrans(w)
    assert len(grouped) == 2
    assert evaluate(grouped) == evaluate(w)
    back = etrans_word_to_E1(grouped)
    assert evaluate(back) == evaluate(w)
    assert word_in_E1(back, I3)


def test_first_index_grouping_rejects_off_index():
    w = word(Z27, 3, LinLetter(3, 2, 3, Z27.el(5)))
    with pytest.raises(BadIndices):
        E1_to_etrans(w)
    bare = word(Z27, 3, LinLetter(3, 2, 1, Z27.el(5)))
    with pytest.raises(NotCertified):
        E1_to_etrans(bare, ideal=I3)


def test_symplectic_dictionary_round_trip():
    c3 = certify(I3, [Z27.el(1)])
    c6 = certify(I3, [Z27.el(2)])
    c0 = certify(I3, [Z27.el(0)])
    q = cvec(Z27, 3, 6, 0, 3)
    qc = (c3, c6, c0, c3)
    rho = RhoLetter(q, Z27.el(6), PSI2, certs=(c6, qc))
    mu = MuLetter(q, Z27.el(3), PSI2, certs=(c3, qc))
    w = Word(Z27, 6, ((rho, False), (mu, True)))
    flat = etranssp_word_to_ESp1(w)
    assert word_in_ESp1(flat, I3)
    assert evaluate(flat) == evaluate(w)
    grouped = ESp1_to_etranssp(flat, ideal=I3)
    assert evaluate(grouped) == evaluate(w)
    kinds = [letter.kind for letter, _ in grouped.letters]
    assert kinds == ["rho", "mu"]


def test_symplectic_grouping_normalizes_indices():
    c3 = certify(I3, [Z27.el(1)])
    w = word(Z27, 4, SympLetter(4, 3, 2, c3.value, cert=c3))
    grouped = ESp1_to_etranssp(w)
    assert evaluate(grouped) == evaluate(w)
    off = word(Z27, 6, SympLetter(6, 3, 5, Z27.el(3)))
    with pytest.raises(BadIndices):
        ESp1_to_etranssp(off)


def test_symplectic_expansion_needs_standard_form():
    twisted = from_rows(Z27, [[0, 4, 0, 0], [-4, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]])
    rho = RhoLetter(cvec(Z27, 3, 0, 0, 0), Z27.el(3), twisted)
    w = Word(Z27, 6, ((rho, False),))
    with pytest.raises(NonstandardForm):
        etranssp_word_to_ESp1(w)
    with pytest.raises(BadIndices):
        etranssp_word_to_ESp1(word(Z27, 4, LinLetter(4, 1, 2, Z27.el(3))))


def test_transport_identity():
    q = cvec(Z27, 3, 6, 0, 3)
    rho = RhoLetter(q, Z27.el(6), PSI2)
    moved = transport_conjugation(rho, Word(Z27, 3, ()))
    assert moved.kind == "rho"
    assert moved.form == PSI2
    assert moved.q == q
    assert moved.scalar == rho.scalar


def test_transport_real_conjugator():
    q = cvec(Z27, 3, 6, 9, 3)
    certs = (certify(I3, [Z27.el(2)]),
             (certify(I3, [Z27.el(1)]), certify(I3, [Z27.el(2)]),
              certify(I3, [Z27.el(3)]), certify(I3, [Z27.el(1)])))
    rho = RhoLetter(q, Z27.el(6), PSI2, certs=certs)
    eps = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(2)),
               (LinLetter(3, 3, 1, Z27.el(5)), True))
    moved = transport_conjugation(rho, eps)
    emb_small = evaluate(eps)
    emb = identity(Z27, 4).payload_grid()
    for r in range(3):
        for c in range(3):
            emb[1 + r][1 + c] = emb_small.entry(r + 1, c + 1).payload
    emb = from_rows(Z27, [[Z27.wrap(p) for p in row] for row in emb])
    assert moved.form == emb.transpose() * PSI2 * emb
    assert moved.scalar == rho.scalar
    assert moved.certs is not None
    sc, qc = moved.certs
    for idx, c in enumerate(qc):
        assert c.value == moved.q.entry(idx + 1)
    with pytest.raises(FormRelationFails):
        transport_conjugation(rho, eps, target_form=PSI2)
    with pytest.raises(FormMismatch):
        transport_conjugation(rho, Word(Z27, 2, ()))
    with pytest.raises(BadIndices):
        transport_conjugation(LinLetter(3, 1, 2, Z27.el(1)), eps)


def test_alternating_form_container():
    phi = AlternatingForm(PSI2)
    assert phi.size == 4
    assert phi.pfaffian_cache == Z27.one
    assert phi.matrix == PSI2
    with pytest.raises(NotAlternating):
        AlternatingForm(from_rows(Z27, [[0, 1], [1, 0]]))
    with pytest.raises(NotAlternating):
        AlternatingForm(from_rows(Z27, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))


def test_standardize_trivial():
    res = standardize_alternating(AlternatingForm(PSI2), I3)
    assert res.relative
    assert len(res.eps_word) == 0


def reconstruct(eps_word, n):
    ring = eps_word.ring
    small = evaluate(eps_word)
    size = 2 * n
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            if r == 0 or c == 0:
                row.append(1 if r == c else 0)
            else:
                row.append(small.entry(r, c).payload)
        rows.append(row)
    emb = from_rows(ring, rows)
    return emb.transpose() * standard_symplectic_form(ring, n) * emb


def test_standardize_relative_instance():
    eps = word(Z27, 3, LinLetter(3, 2, 1, Z27.el(3)),
               LinLetter(3, 1, 3, Z27.el(6)),
               (LinLetter(3, 3, 2, Z27.el(12)), True))
    phi_matrix = reconstruct(eps, 2)
    res = standardize_alternating(AlternatingForm(phi_matrix), I3)
    assert res.relative
    assert word_certified(res.eps_word, I3)
    assert reconstruct(res.eps_word, 2) == phi_matrix


def test_standardize_congruent_but_not_relative():
    phi = from_rows(Z27, [[0, 4, 0, 0], [-4, 0, 0, 0],
                          [0, 0, 0, 7], [0, 0, -7, 0]])
    res = standardize_alternating(AlternatingForm(phi), I3)
    assert not res.relative
    assert reconstruct(res.eps_word, 2) == phi


def test_standardize_rejections():
    bad_pf = from_rows(Z27, [[0, 2, 0, 0], [-2, 0, 0, 0],
                             [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(PfaffianNotOne):
        standardize_alternating(AlternatingForm(bad_pf), I3)
    off_ideal = from_rows(Z27, [[0, 2, 0, 0], [-2, 0, 0, 0],
                                [0, 0, 0, 14], [0, 0, -14, 0]])
    with pytest.raises(NotCongruentToStandard):
        standardize_alternating(AlternatingForm(off_ideal), I3)
    Z6 = ZmodRing(6)
    I6 = IdealPresentation(Z6, (Z6.el(2),))
    std6 = standard_symplectic_form(Z6, 1)
    with pytest.raises(NotLocalRing):
        standardize_alternating(AlternatingForm(std6), I6)
    I25 = IdealPresentation(ZmodRing(25), (ZmodRing(25).el(5),))
    with pytest.raises(IdealMismatch):
        standardize_alternating(AlternatingForm(PSI2), I25)


def _one_run(family):
    # three certified first-index letters of one direction: lower shear
    # summands (linear) or row-type summands (symplectic)
    c1 = certify(I3, [Z27.el(1)])
    c2 = certify(I3, [Z27.el(2)])
    if family == "linear":
        return [LinLetter(4, 2, 1, c1.value, c1),
                LinLetter(4, 3, 1, c2.value, c2),
                LinLetter(4, 2, 1, c2.value, c2)]
    return [SympLetter(6, 3, 1, c1.value, c1),
            SympLetter(6, 4, 1, c2.value, c2),
            SympLetter(6, 2, 1, c2.value, c2)]


def _regroup(family, letters):
    size = letters[0].size
    w = word(Z27, size, *letters)
    grouped = (E1_to_etrans if family == "linear" else ESp1_to_etranssp)(w)
    assert evaluate(grouped) == evaluate(w)
    return grouped


def _certs_of(letter):
    if letter.certs is None:
        return None
    if letter.kind in ("rho", "mu"):
        return (letter.certs[0],) + tuple(letter.certs[1])
    return letter.certs


@pytest.mark.parametrize("family", ["linear", "symplectic"])
def test_regrouped_run_certificates(family):
    letters = _one_run(family)
    grouped = _regroup(family, letters)
    assert len(grouped) == 1
    certs = _certs_of(grouped.letters[0][0])
    assert certs is not None and all(c.check() for c in certs)
    # one uncertified summand: the regrouped letter has no certificates
    bare = letters[1].with_param(letters[1].param, None)
    grouped = _regroup(family, [letters[0], bare, letters[2]])
    assert len(grouped) == 1
    assert grouped.letters[0][0].certs is None


def test_cancelled_runs():
    # a run that sums to zero, linear or symplectic, is dropped
    lin, symp = _one_run("linear")[0], _one_run("symplectic")[0]
    w = Word(Z27, 4, ((lin, False), (lin, True)))
    assert len(E1_to_etrans(w)) == 0
    w = Word(Z27, 6, ((symp, False), (symp, True)))
    grouped = ESp1_to_etranssp(w)
    assert len(grouped) == 0
