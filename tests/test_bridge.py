import hashlib
import random
from collections import Counter

import pytest

from elemcalc import (
    AlternatingForm,
    BadIndices,
    DimensionTooSmall,
    ElemcalcError,
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
    PairwiseSquare,
    PfaffianNotOne,
    RhoLetter,
    ShearLetter,
    SympLetter,
    UpperTransLetter,
    VerificationFailed,
    Word,
    ZmodRing,
    certify,
    etrans_word_to_E1,
    etranssp_word_to_ESp1,
    evaluate,
    from_rows,
    invert_unit,
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
from elemcalc import bridge, jsonio
from elemcalc.matrices import ColumnVector, ExactMatrix, identity
from elemcalc.sampling import (prime_of, sample_alternating,
                               sample_relative_form)
from elemcalc.words import TransvectionLetter

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


def partly_certified(make, q, scalar):
    """The letter certified in its scalar only, then in its q only."""
    sc = certify(I3, [scalar // 3])
    qc = tuple(certify(I3, [q.entry(k).payload // 3])
               for k in range(1, q.length + 1))
    return [make(q, Z27.el(scalar), PSI2, certs=certs)
            for certs in ((sc, None), (None, qc))]


def test_partly_certified_letters_expand():
    q = cvec(Z27, 3, 6, 0, 3)
    for rho, mu in zip(partly_certified(RhoLetter, q, 6),
                       partly_certified(MuLetter, q, 3)):
        w = Word(Z27, 6, ((rho, False), (mu, True)))
        flat = etranssp_word_to_ESp1(w)
        assert evaluate(flat) == evaluate(w)
        assert not word_in_ESp1(flat, I3)


def test_transport_partly_certified_letter():
    q = cvec(Z27, 3, 6, 9, 3)
    eps = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(2)))
    bare = transport_conjugation(RhoLetter(q, Z27.el(6), PSI2), eps)
    for rho in partly_certified(RhoLetter, q, 6):
        moved = transport_conjugation(rho, eps)
        assert moved.certs is None
        assert moved.q == bare.q and moved.form == bare.form


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


PINNED_MODULI = (8, 25, 27, 32, 49, 121, 125, 243)
PINNED_OUTCOMES = {"relative": 172, "standardized": 46,
                   "NotCongruentToStandard": 50, "PfaffianNotOne": 32}
PINNED_DIGEST = ("ae2796958cfce8a3ef24de1119943bd2"
                 "ebb79d9373c4eaac0da9e982e1ac54d6")


def _pinned_ideal(rng, ring, p):
    m = ring.m
    shape = rng.randrange(4)
    if shape == 0:
        unit = rng.choice([u for u in range(1, m) if u % p])
        gens = (p * unit,)
    elif shape == 1:
        gens = (p, p * p * rng.randrange(m))
    elif shape == 2:
        gens = (p * p,)
    else:
        gens = (p, 1 + p)
    return IdealPresentation(ring, [ring.el(g) for g in gens])


def _scaled(form, ideal, r):
    """D^t form D for D = diag(1, u, 1, 1/u, 1, ...), u = 1 + g r with g
    the first generator: the first two pairs are scaled by u and 1/u, so
    the Pfaffian and the class modulo the ideal are kept."""
    ring = form.ring
    u = ring.one + ideal.generators[0] * ring.el(r)
    diag = [ring.one] * form.rows
    diag[1], diag[3] = u, invert_unit(u)
    d = from_rows(ring, [[diag[r] if r == c else 0 for c in range(form.rows)]
                         for r in range(form.rows)])
    return d.transpose() * form * d


def _pinned_inputs():
    """300 seeded standardize inputs over Z/p^k: forms relative to the
    ideal, some with two pairs scaled by a unit and its inverse, forms
    relative to the unit ideal (which the ideal may not hold), and
    random alternating forms."""
    rng = random.Random(2028)
    for index in range(300):
        ring = ZmodRing(PINNED_MODULI[index % len(PINNED_MODULI)])
        p = prime_of(ring.m)
        ideal = _pinned_ideal(rng, ring, p)
        n = rng.randint(2, 6)
        source = rng.random()
        if source < 0.1:
            form = sample_alternating(rng, ring, 2 * n)
        else:
            drawn = ideal if source < 0.75 else IdealPresentation(
                ring, (ring.one,))
            form, _ = sample_relative_form(rng, ring, n, drawn,
                                           letters=rng.randint(1, 4 * n))
            if source < 0.4:
                form = _scaled(form, ideal, rng.randrange(1, ring.m))
        yield form, ideal


def test_standardize_outputs_are_pinned():
    # the digest and the outcome counts were taken before standardize
    # moved to the payload grid; they pin its output byte for byte
    digest = hashlib.sha256()
    outcomes = Counter()
    for form, ideal in _pinned_inputs():
        try:
            res = standardize_alternating(AlternatingForm(form), ideal)
        except ElemcalcError as e:
            text = "%s: %s" % (type(e).__name__, e)
            outcomes[type(e).__name__] += 1
        else:
            text = jsonio.dumps(jsonio.standardization_to_json(res))
            outcomes["relative" if res.relative else "standardized"] += 1
        digest.update(text.encode() + b"\n")
    assert dict(outcomes) == PINNED_OUTCOMES
    assert digest.hexdigest() == PINNED_DIGEST


SWEEP_MODULI = (8, 9, 25, 27, 32, 49, 121, 125, 243, 3 ** 12)


def test_standardize_accepts_every_relative_form():
    # 300 forms drawn relative to (p), (p, 1 + p), (p^2) or (1), some with
    # two pairs scaled by a unit and its inverse: each has Pfaffian one
    # and is congruent to the standard form modulo its ideal, so each
    # standardizes, and an unscaled one is relative to that ideal
    rng = random.Random(30)
    for index in range(300):
        ring = ZmodRing(SWEEP_MODULI[index % len(SWEEP_MODULI)])
        p = prime_of(ring.m)
        gens = rng.choice([(p,), (p, 1 + p), (p * p,), (1,)])
        ideal = IdealPresentation(ring, [ring.el(g) for g in gens])
        n = rng.randint(2, 6)
        form, _ = sample_relative_form(rng, ring, n, ideal,
                                       letters=rng.randint(1, 4 * n))
        scaled = rng.random() < 0.3
        if scaled:
            # a multiple of p keeps the scale a unit when the ideal is (1)
            form = _scaled(form, ideal, p * rng.randrange(1, ring.m))
        res = standardize_alternating(AlternatingForm(form), ideal)
        assert res.relative or scaled, index
        assert reconstruct(res.eps_word, n) == form


def test_relative_form_with_one_pair_refuses_letters():
    # at n = 1 the inner word has size 1, where no letter fits: the draw
    # is refused before it touches the generator
    rng = random.Random(31)
    state = rng.getstate()
    with pytest.raises(DimensionTooSmall, match="n = 1"):
        sample_relative_form(rng, Z27, 1, I3, letters=1)
    assert rng.getstate() == state
    form, eps0 = sample_relative_form(rng, Z27, 1, I3, letters=0)
    assert form == PSI1 and len(eps0) == 0


def _prime_power_exponent(m):
    """k when m = p^k for a prime p, else None, by trial division."""
    p, k = prime_of(m), 0
    while m % p == 0:
        m //= p
        k += 1
    return k if m == 1 else None


def test_local_data_agrees_with_trial_division():
    for m in range(2, 20000):
        try:
            k = bridge._local_data(ZmodRing(m))
        except NotLocalRing:
            k = None
        assert k == _prime_power_exponent(m), m


@pytest.mark.parametrize("m, k", [(2 ** 61 - 1, 1), (2 ** 127 - 1, 1),
                                  ((2 ** 61 - 1) ** 2, 2), (3 ** 161, 161)],
                         ids=["2^61-1", "2^127-1", "(2^61-1)^2", "3^161"])
def test_local_data_of_large_prime_powers(m, k):
    assert bridge._local_data(ZmodRing(m)) == k


# the last is the least strong pseudoprime to the bases 2, ..., 37
@pytest.mark.parametrize("m", [(2 ** 31 - 1) * (2 ** 61 - 1), 2 ** 256 - 1,
                               318665857834031151167461],
                         ids=["(2^31-1)(2^61-1)", "2^256-1", "spsp(2..37)"])
def test_local_data_refuses_large_composites(m):
    with pytest.raises(NotLocalRing, match="is not a prime power"):
        bridge._local_data(ZmodRing(m))


# Fault injection: each test breaks what feeds one check and expects
# that check to raise.

def test_regroup_checks_its_evaluation(monkeypatch):
    w = word(Z27, 4, *_one_run("linear"))
    honest = bridge._ShearFold.letter

    def shifted(self):
        letter = honest(self)
        entries = list(letter.vec.entries)
        entries[0] = entries[0] + 1
        return ShearLetter(letter.kind, ColumnVector(Z27, entries), None)

    monkeypatch.setattr(bridge._ShearFold, "letter", shifted)
    with pytest.raises(VerificationFailed,
                       match="regrouped word changed the evaluation"):
        E1_to_etrans(w)


def test_spell_checks_its_evaluation(monkeypatch):
    shears = E1_to_etrans(word(Z27, 4, *_one_run("linear")))
    honest = bridge._shear_letters
    monkeypatch.setattr(bridge, "_shear_letters",
                        lambda letter, inv: honest(letter, inv)[:-1])
    with pytest.raises(VerificationFailed,
                       match="translated word changed the evaluation"):
        etrans_word_to_E1(shears)


def test_transvection_matrix_checks_the_form(monkeypatch):
    # the letter's matrix loses the last cell of N, so it no longer
    # preserves the extended form
    honest = TransvectionLetter.matrix

    def dropped(self, inverted=False):
        m = honest(self, inverted)
        r, c, _ = self.column_ops(inverted)[-1]
        payloads = list(m.payloads)
        payloads[(r - 1) * m.cols + c - 1] = m.ring.from_int(0)
        return ExactMatrix(m.ring, m.rows, m.cols, payloads)

    monkeypatch.setattr(TransvectionLetter, "matrix", dropped)
    for build in (rho_matrix, mu_matrix):
        with pytest.raises(VerificationFailed, match="transvection matrix "
                           "does not preserve the extended form"):
            build(cvec(Z27, 2, 3), 5, PSI1)


def test_transport_checks_the_conjugate(monkeypatch):
    # the transported letter is built on a vector one off in its first
    # entry, so it no longer equals the conjugate of the original
    honest = bridge.TransvectionLetter

    def shifted(kind, q, scalar, form, certs=None):
        entries = list(q.entries)
        entries[0] = entries[0] + 1
        return honest(kind, ColumnVector(q.ring, entries), scalar, form)

    monkeypatch.setattr(bridge, "TransvectionLetter", shifted)
    rho = RhoLetter(cvec(Z27, 3, 6, 9, 3), Z27.el(6), PSI2)
    eps = word(Z27, 3, LinLetter(3, 1, 2, Z27.el(2)))
    with pytest.raises(VerificationFailed, match="transported letter does "
                       "not reproduce the conjugate"):
        transport_conjugation(rho, eps)


# pairs scaled by 4 and 7 = 1/4: the pivot must be normalized from 4 to 1
SCALED = from_rows(Z27, [[0, 4, 0, 0], [-4, 0, 0, 0],
                         [0, 0, 0, 7], [0, 0, -7, 0]])


def test_pivot_normalization_is_guarded(monkeypatch):
    # a zero certificate over the square ideal gives no sandwich step,
    # so the pivot stays at 4
    honest = bridge._member_cert

    def zero_square(ideal, v):
        if isinstance(ideal, PairwiseSquare):
            return ideal.zero_cert()
        return honest(ideal, v)

    monkeypatch.setattr(bridge, "_member_cert", zero_square)
    with pytest.raises(VerificationFailed,
                       match="working form did not reach the standard form"):
        standardize_alternating(AlternatingForm(SCALED), I3)


def test_recorded_word_is_guarded(monkeypatch):
    # the working form reaches the standard one, but the word records
    # the operations themselves, not their inverse
    monkeypatch.setattr(bridge, "invert_word", lambda w: w)
    with pytest.raises(VerificationFailed, match="recorded word does not "
                       "reconstruct the input form"):
        standardize_alternating(AlternatingForm(SCALED), I3)
