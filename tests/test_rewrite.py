import hashlib

import pytest

from elemcalc import (
    BadIndices,
    CertifiedElement,
    DimensionTooSmall,
    IdealMismatch,
    IdealPresentation,
    LinLetter,
    NotCertified,
    PolyRing,
    SideConditionViolated,
    SympLetter,
    TwoNotInvertible,
    UnknownVariable,
    VerificationFailed,
    Word,
    ZmodRing,
    certify,
    evaluate,
    include_I2_linear,
    include_I2_symplectic,
    invert_word,
    rewrite_conjugation_linear,
    rewrite_conjugation_symplectic,
    specialize_and_check,
    substitute,
    word,
    word_in_E1,
    word_in_ESp1,
)
import elemcalc.rewrite as rewrite_module
from elemcalc import jsonio
from elemcalc.sampling import (
    prime_of,
    sample_certified,
    sample_index1_linear_word,
    sample_index1_symplectic,
    sample_index1_symplectic_word,
    sample_linear_index1,
    trial_rng,
)

Z27 = ZmodRing(27)
R = PolyRing(Z27, ("X", "Y"))
I3 = IdealPresentation(R, (R.el(3), R.el(3) * R.var("X")))


def c(i0, i1):
    return certify(I3, [R.el(i0) if isinstance(i0, int) else i0,
                        R.el(i1) if isinstance(i1, int) else i1])


def y_divisible(value):
    ring = value.ring
    return substitute(value, {"Y": ring.zero}).is_zero()


def test_include_linear_single_letter():
    I = IdealPresentation(Z27, (Z27.el(3),))
    sq = I.square()
    p = CertifiedElement(sq, [Z27.el(2)])
    out = include_I2_linear(3, 1, 2, p)
    assert len(out) == 1
    assert evaluate(out) == LinLetter(3, 1, 2, Z27.el(18)).matrix()
    assert word_in_E1(out, I)


def test_include_linear_corner_commutator():
    I = IdealPresentation(Z27, (Z27.el(3),))
    p = CertifiedElement(I.square(), [Z27.el(2)])
    out = include_I2_linear(3, 2, 3, p)
    assert evaluate(out) == LinLetter(3, 2, 3, Z27.el(18)).matrix()
    assert word_in_E1(out, I)
    zero = include_I2_linear(3, 2, 3, I.square().zero_cert())
    assert len(zero) == 0 and evaluate(zero).is_identity()
    with pytest.raises(BadIndices):
        include_I2_linear(3, 2, 2, p)


def test_include_symplectic_cases():
    I = IdealPresentation(Z27, (Z27.el(3),))
    p = CertifiedElement(I.square(), [Z27.el(2)])
    out = include_I2_symplectic(2, 1, 4, p)
    assert evaluate(out) == SympLetter(4, 1, 4, Z27.el(18)).matrix()
    assert word_in_ESp1(out, I)
    out = include_I2_symplectic(2, 3, 4, p)
    assert evaluate(out) == SympLetter(4, 3, 4, Z27.el(18)).matrix()
    assert word_in_ESp1(out, I)
    out = include_I2_symplectic(3, 3, 5, p)
    assert evaluate(out) == SympLetter(6, 3, 5, Z27.el(18)).matrix()
    assert word_in_ESp1(out, I)
    with pytest.raises(DimensionTooSmall):
        include_I2_symplectic(1, 1, 2, p)


def test_include_symplectic_short_needs_half():
    Z8 = ZmodRing(8)
    I = IdealPresentation(Z8, (Z8.el(2),))
    p = CertifiedElement(I.square(), [Z8.el(1)])
    assert evaluate(include_I2_symplectic(2, 1, 3, p)) == \
        SympLetter(4, 1, 3, Z8.el(4)).matrix()
    with pytest.raises(TwoNotInvertible):
        include_I2_symplectic(2, 3, 4, p)


def test_rewrite_linear_empty_conjugator():
    a = c(2, 0)
    eps = Word(R, 3, ())
    res = rewrite_conjugation_linear(eps, 1, 3, a)
    assert res.verified
    assert len(res.output) == 1
    letter = res.output.letters[0][0]
    assert letter.param == R.var("Y") * a.value


def test_rewrite_linear_r1():
    a = c(2, 0)
    g = c(1, 0)
    eps = word(R, 3, LinLetter(3, 2, 1, g.value, cert=g))
    res = rewrite_conjugation_linear(eps, 1, 3, a)
    assert res.verified
    assert word_in_E1(res.output, I3)
    for letter, _ in res.output.letters:
        assert y_divisible(letter.param)
    assert len(res.case_trace) >= 1
    assert evaluate(res.output) == evaluate(res.lhs)
    specialize_and_check(res, 5, 2)
    assert specialize_and_check(res, 4, 0).is_identity()


def test_rewrite_linear_r2():
    a = c(0, 1)
    g1 = c(1, 0)
    g2 = c(0, 2)
    eps = word(R, 3,
               LinLetter(3, 1, 2, g1.value, cert=g1),
               (LinLetter(3, 3, 1, g2.value, cert=g2), True))
    res = rewrite_conjugation_linear(eps, 1, 2, a)
    assert res.verified
    assert word_in_E1(res.output, I3)
    for letter, _ in res.output.letters:
        assert y_divisible(letter.param)
    at_point = specialize_and_check(res, 2, 1)
    direct = evaluate(res.lhs)
    assert at_point == evaluate(Word(R, 3, tuple(
        (l.with_param(substitute(l.param, {"X": R.el(2), "Y": R.el(1)})), inv)
        for l, inv in res.lhs.letters)))
    assert direct == evaluate(res.output)


def test_rewrite_symplectic_r1():
    a = c(1, 1)
    g = c(2, 0)
    eps = word(R, 6, SympLetter(6, 2, 3, g.value, cert=g))
    res = rewrite_conjugation_symplectic(eps, 1, 4, a)
    assert res.verified
    assert word_in_ESp1(res.output, I3)
    for letter, _ in res.output.letters:
        assert y_divisible(letter.param)
    specialize_and_check(res, 3, 2)
    assert specialize_and_check(res, 1, 0).is_identity()


def test_rewrite_symplectic_r2():
    a = c(2, 0)
    g1 = c(1, 0)
    g2 = c(0, 1)
    eps = word(R, 6,
               SympLetter(6, 1, 2, g1.value, cert=g1),
               (SympLetter(6, 5, 1, g2.value, cert=g2), True))
    res = rewrite_conjugation_symplectic(eps, 2, 6, a)
    assert res.verified
    assert word_in_ESp1(res.output, I3)
    for letter, _ in res.output.letters:
        assert y_divisible(letter.param)
    specialize_and_check(res, 7, 3)


def test_rewrite_target_exponent():
    a = c(2, 0)
    g = c(1, 0)
    eps = word(R, 3, LinLetter(3, 2, 1, g.value, cert=g))
    res = rewrite_conjugation_linear(eps, 1, 3, a)
    mid = res.lhs.letters[1][0]
    y4 = R.var("Y")
    for _ in range(3):
        y4 = y4 * R.var("Y")
    assert mid.param == y4 * a.value


def test_term_y_power_cost_is_independent_of_exponent(poly_mul_calls):
    a = c(2, 1)
    counts = set()
    for e in (1, 4, 4 ** 8):
        term = rewrite_module._Term(R, e, (a, a), R.el(5))
        poly_mul_calls.clear()
        value = term.value()
        cert = term.cert()
        counts.add(len(poly_mul_calls))
        assert value == R.el(5) * R.var("Y") ** e * a.value * a.value
        assert cert.value == value and cert.check()
    assert len(counts) == 1


def test_finish_target_cost_is_independent_of_exponent(poly_mul_calls,
                                                       monkeypatch):
    # Conjugators E_13(g) commute with the target E_12, so the rewrite
    # is the target itself, E_12(Y^(4^r) a); stand in for the recursion
    # to keep _finish's own work: the Y^(4^r) target, the divisibility
    # check and the exact comparison.
    def commuting(system, gs, i, j, a_tpoly):
        return [(i, j, a_tpoly.with_extra_y(4 ** len(gs)))]

    monkeypatch.setattr(rewrite_module, "_rewrite_rec", commuting)
    a = c(2, 1)
    g = c(1, 2)
    counts = []
    for r in (6, 7, 8):
        eps = Word(R, 3, [(LinLetter(3, 1, 3, g.value, cert=g), False)] * r)
        poly_mul_calls.clear()
        res = rewrite_conjugation_linear(eps, 1, 2, a)
        counts.append(len(poly_mul_calls))
        assert res.verified
        assert res.lhs.letters[r][0].param == R.var("Y", 4 ** r) * a.value
    # each letter costs the same, though the exponent grows fourfold
    assert counts[2] - counts[1] == counts[1] - counts[0]


def test_rewrite_rejects_bad_inputs():
    a = c(2, 0)
    g = c(1, 0)
    eps = word(R, 3, LinLetter(3, 2, 1, g.value, cert=g))
    with pytest.raises(BadIndices):
        rewrite_conjugation_linear(eps, 2, 3, a)
    with pytest.raises(DimensionTooSmall):
        rewrite_conjugation_linear(Word(R, 2, ()), 1, 2, a)
    bare = word(R, 3, LinLetter(3, 2, 1, g.value))
    with pytest.raises(NotCertified):
        rewrite_conjugation_linear(bare, 1, 3, a)
    y_cert = certify(I3, [R.var("Y"), R.el(0)])
    bad_eps = word(R, 3, LinLetter(3, 2, 1, y_cert.value, cert=y_cert))
    with pytest.raises(SideConditionViolated):
        rewrite_conjugation_linear(bad_eps, 1, 3, a)
    with pytest.raises(SideConditionViolated):
        rewrite_conjugation_linear(eps, 1, 3, y_cert)
    wrong = CertifiedElement(I3, [R.el(1), R.el(0)], value=R.el(5))
    with pytest.raises(NotCertified):
        rewrite_conjugation_linear(eps, 1, 3, wrong)


def test_rewrite_rejects_wrong_rings():
    no_y = PolyRing(Z27, ("X",))
    J = IdealPresentation(no_y, (no_y.el(3),))
    a = certify(J, [no_y.el(2)])
    with pytest.raises(UnknownVariable):
        rewrite_conjugation_linear(Word(no_y, 3, ()), 1, 2, a)
    other = PolyRing(ZmodRing(25), ("X", "Y"))
    K = IdealPresentation(other, (other.el(5),))
    b = certify(K, [other.el(2)])
    with pytest.raises(IdealMismatch):
        rewrite_conjugation_linear(Word(R, 3, ()), 1, 2, b)
    R8 = PolyRing(ZmodRing(8), ("X", "Y"))
    I8 = IdealPresentation(R8, (R8.el(2),))
    a8 = certify(I8, [R8.el(1)])
    with pytest.raises(TwoNotInvertible):
        rewrite_conjugation_symplectic(Word(R8, 6, ()), 1, 4, a8)


def test_rewrite_symplectic_bad_target_index():
    a = c(1, 0)
    with pytest.raises(BadIndices):
        rewrite_conjugation_symplectic(Word(R, 6, ()), 3, 5, a)
    with pytest.raises(DimensionTooSmall):
        rewrite_conjugation_symplectic(Word(R, 5, ()), 1, 3, a)


def test_corrupted_case_table_is_caught(monkeypatch):
    a = c(2, 0)
    g = c(1, 0)
    eps = word(R, 3, LinLetter(3, 2, 1, g.value, cert=g))
    orig = rewrite_module._peel

    def sabotaged(system, grid):
        records = list(orig(system, grid))
        for k, (i, j, poly) in enumerate(records):
            if not poly.value().is_zero():
                records[k] = (i, j, poly.neg())
                break
        return records

    monkeypatch.setattr(rewrite_module, "_peel", sabotaged)
    with pytest.raises(VerificationFailed):
        rewrite_conjugation_linear(eps, 1, 3, a)


def test_rewrite_deterministic():
    a = c(1, 1)
    g = c(2, 0)
    eps = word(R, 6, SympLetter(6, 2, 3, g.value, cert=g))
    r1 = rewrite_conjugation_symplectic(eps, 1, 4, a)
    r2 = rewrite_conjugation_symplectic(eps, 1, 4, a)
    assert repr(r1.output.letters) == repr(r2.output.letters)
    assert r1.case_trace == r2.case_trace


def test_symplectic_case_trace_frozen():
    # one line per conjugation step, innermost conjugator first
    a, g, k, h = c(1, 1), c(2, 0), c(0, 1), c(1, 2)
    eps = word(R, 6, SympLetter(6, 2, 3, g.value, cert=g),
               SympLetter(6, 1, 3, k.value, cert=k),
               SympLetter(6, 1, 5, h.value, cert=h))
    res = rewrite_conjugation_symplectic(eps, 1, 4, a)
    assert len(res.output) == 6
    assert res.case_trace == (
        "symplectic/untouched g=(1,5) t=(1,4) -> 1 letters",
        "symplectic/overlap g=(1,3) t=(1,4) -> 2 letters",
        "symplectic/untouched g=(2,3) t=(1,2) -> 1 letters",
        "symplectic/reflection g=(2,3) t=(1,4) -> 5 letters",
    )


@pytest.mark.parametrize("mode, seed", [("linear", 10), ("symplectic", 0)])
def test_rewrite_six_letter_conjugator(mode, seed):
    # the identity is proved at Y^4096
    rng = trial_rng(seed, 6)
    if mode == "linear":
        eps = sample_index1_linear_word(rng, I3, 3, 6, variables=("X",))
        i, j = sample_linear_index1(rng, 3)
        rewrite, in_group = rewrite_conjugation_linear, word_in_E1
    else:
        eps = sample_index1_symplectic_word(rng, I3, 6, 6, variables=("X",))
        i, j = sample_index1_symplectic(rng, 6)
        rewrite, in_group = rewrite_conjugation_symplectic, word_in_ESp1
    a = sample_certified(rng, I3, max_degree=1, variables=("X",))
    res = rewrite(eps, i, j, a)
    assert res.verified
    assert res.lhs.letters[6][0].param == R.var("Y", 4 ** 6) * a.value
    assert len(res.output) > 100
    assert in_group(res.output, I3)
    for letter, _ in res.output.letters:
        assert y_divisible(letter.param)
    specialize_and_check(res, 5, 2)
    assert specialize_and_check(res, 4, 0).is_identity()


# Seeded rewrites over (Z/m)[X, Y] with the ideal (p, pX), p the prime
# of m: r conjugator letters, size 4 (linear) or 6 (symplectic).
SEEDED = [(mode, m, r) for r in (1, 2, 3, 4) for m in (25, 27, 121)
          for mode in ("linear", "symplectic")]


def seeded_rewrite(index):
    mode, m, r = SEEDED[index]
    ring = PolyRing(ZmodRing(m), ("X", "Y"))
    p = prime_of(m)
    ideal = IdealPresentation(ring, (ring.el(p), ring.el(p) * ring.var("X")))
    rng = trial_rng(3, index)
    if mode == "linear":
        eps = sample_index1_linear_word(rng, ideal, 4, r, variables=("X",))
        i, j = sample_linear_index1(rng, 4)
        rewrite = rewrite_conjugation_linear
    else:
        eps = sample_index1_symplectic_word(rng, ideal, 6, r,
                                            variables=("X",))
        i, j = sample_index1_symplectic(rng, 6)
        rewrite = rewrite_conjugation_symplectic
    a = sample_certified(rng, ideal, max_degree=1, variables=("X",))
    return rewrite(eps, i, j, a)


def term_multiplied_out(term):
    acc = term.coeff * term.ring.var("Y", term.y_exp)
    for a in term.atoms:
        acc = acc * a.value
    return acc


def test_carried_values_equal_their_products(monkeypatch):
    # every value a term is handed (sign, scale, product, Y-shift,
    # merge) and every cached sum is the one multiplied out afresh
    Term, TPoly = rewrite_module._Term, rewrite_module._TPoly
    init, value = Term.__init__, TPoly.value
    carried = []

    def checked_init(self, ring, y_exp, atoms, coeff, value=None):
        init(self, ring, y_exp, atoms, coeff, value)
        if value is not None:
            assert value.payload == term_multiplied_out(self).payload
            carried.append(value)

    def checked_value(self):
        got = value(self)
        want = self.ring.zero
        for t in self.terms:
            want = want + term_multiplied_out(t)
        assert got.payload == want.payload
        return got

    monkeypatch.setattr(Term, "__init__", checked_init)
    monkeypatch.setattr(TPoly, "value", checked_value)
    for index in range(len(SEEDED)):
        assert seeded_rewrite(index).verified
    assert len(carried) > 1000


# SHA-256 of the canonical JSON of six seeded rewrites, pinned from the
# rewriter that multiplied every tracked value out afresh
SEEDED_DIGESTS = {
    2: "2764f6e7b9031ea0bf1a0c45d42741e13f9b87c65d6210489013c8239f04f0bf",
    8: "01a138733ff036bae555c0c38bfe6cb6d7249ba3f12e24d63e44b65fdc124330",
    13: "527728c11fcfba26bd01373031ed8d87b81c70910ddb3a8cde520d90b14fe480",
    15: "373cc023d4ccd689d299ec6261c2f01966d783816c4b6d7033aa6af7bdc921ca",
    20: "6cae35de240567ddc80279d819e2fdc35d201985dbccc9eafb4f2a56c31e42b2",
    22: "054c12c501b873db8ab5f1d30d6cb28926c6a85f8eada4c60fe04b0ad4dda200",
}


@pytest.mark.parametrize("index", sorted(SEEDED_DIGESTS))
def test_seeded_rewrite_output_is_pinned(index):
    text = jsonio.dumps(jsonio.rewrite_to_json(seeded_rewrite(index)))
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_DIGESTS[index]
