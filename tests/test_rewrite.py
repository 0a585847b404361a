import hashlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

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
    conjugate_word,
    evaluate,
    include_I2_linear,
    include_I2_symplectic,
    index1_form,
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
    assert len(res.output) == 1
    letter = res.output.letters[0][0]
    assert letter.param == R.var("Y") * a.value


def test_rewrite_linear_r1():
    a = c(2, 0)
    g = c(1, 0)
    eps = word(R, 3, LinLetter(3, 2, 1, g.value, cert=g))
    res = rewrite_conjugation_linear(eps, 1, 3, a)
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
        assert res.lhs.letters[r][0].param == R.var("Y", 4 ** r) * a.value
    # each letter costs the same, though the exponent grows fourfold
    assert counts[2] - counts[1] == counts[1] - counts[0]


def exactly(message):
    """A pytest.raises pattern matching message and nothing else."""
    return "^%s$" % re.escape(message)


def rewriter(mode):
    """The mode's rewriter, its size and its index-1 letter x_21 or
    se_23 at a certified parameter."""
    if mode == "linear":
        return (rewrite_conjugation_linear, 3,
                lambda cert: LinLetter(3, 2, 1, cert.value, cert=cert))
    return (rewrite_conjugation_symplectic, 6,
            lambda cert: SympLetter(6, 2, 3, cert.value, cert=cert))


def test_rewrite_rejects_bad_inputs():
    a = c(2, 0)
    g = c(1, 0)
    y_cert = certify(I3, [R.var("Y"), R.el(0)])
    wrong = CertifiedElement(I3, [R.el(1), R.el(0)], value=R.el(5))
    y_ideal = IdealPresentation(R, (R.el(3), R.var("Y")))
    # not nilpotent: some requests over (X) ran for minutes before the
    # rewriter refused it, as its peel ends only when products vanish
    x_cert = certify(IdealPresentation(R, (R.el(3), R.var("X"))),
                     [R.el(1), R.el(1)])
    refusals = {
        "linear": ((2, 3), "target generator must be first-index",
                   "linear rewriting needs size at least 3"),
        "symplectic": ((3, 5),
                       "target generator must be first-index up to sigma",
                       "symplectic rewriting needs even size at least 4"),
    }
    for mode, (bad_target, not_index1, too_small) in refusals.items():
        rewrite, size, letter = rewriter(mode)
        eps = word(R, size, letter(g))
        with pytest.raises(BadIndices, match=exactly(not_index1)):
            rewrite(eps, *bad_target, a)
        with pytest.raises(BadIndices, match=exactly(
                "bad target indices (1, %d)" % (size + 1))):
            rewrite(eps, 1, size + 1, a)
        with pytest.raises(DimensionTooSmall, match=exactly(too_small)):
            rewrite(Word(R, 2, ()), 1, 2, a)
        bare = word(R, size, letter(g).with_param(g.value))
        with pytest.raises(NotCertified, match=exactly(
                "conjugator must be certified first-index %s letters"
                % mode)):
            rewrite(bare, 1, 3, a)
        with pytest.raises(SideConditionViolated, match=exactly(
                "conjugator parameters must not involve Y")):
            rewrite(word(R, size, letter(y_cert)), 1, 3, a)
        with pytest.raises(SideConditionViolated, match=exactly(
                "target parameter must not involve Y")):
            rewrite(eps, 1, 3, y_cert)
        with pytest.raises(NotCertified, match=exactly(
                "target parameter certificate does not check")):
            rewrite(eps, 1, 3, wrong)
        with pytest.raises(SideConditionViolated, match=exactly(
                "ideal generators must not involve Y")):
            rewrite(Word(R, size, ()), 1, 3,
                    certify(y_ideal, [R.el(1), R.el(0)]))
        with pytest.raises(SideConditionViolated, match=exactly(
                "ideal must be nilpotent")):
            rewrite(word(R, size, letter(x_cert)), 1, 3, x_cert)


def test_rewrite_rejects_wrong_rings():
    no_y = PolyRing(Z27, ("X",))
    J = IdealPresentation(no_y, (no_y.el(3),))
    a = certify(J, [no_y.el(2)])
    other = PolyRing(ZmodRing(25), ("X", "Y"))
    K = IdealPresentation(other, (other.el(5),))
    b = certify(K, [other.el(2)])
    for mode in ("linear", "symplectic"):
        rewrite, size, _ = rewriter(mode)
        with pytest.raises(UnknownVariable, match=exactly(
                "rewriting needs a polynomial ring with variable Y")):
            rewrite(Word(no_y, size, ()), 1, 2, a)
        with pytest.raises(IdealMismatch, match=exactly(
                "target certificate lives over the wrong ring")):
            rewrite(Word(R, size, ()), 1, 2, b)
    R8 = PolyRing(ZmodRing(8), ("X", "Y"))
    I8 = IdealPresentation(R8, (R8.el(2),))
    a8 = certify(I8, [R8.el(1)])
    # only the symplectic rewriter needs 1/2, and asks for it before
    # checking the ring
    linear = rewrite_conjugation_linear(Word(R8, 3, ()), 1, 3, a8)
    assert len(linear.output) == 1
    for ring in (R8, PolyRing(ZmodRing(8), ("X",))):
        with pytest.raises(TwoNotInvertible,
                           match=exactly("2 is not a unit in %r" % (ring,))):
            rewrite_conjugation_symplectic(Word(ring, 6, ()), 1, 4, a8)


def test_rewrite_symplectic_bad_target_index():
    a = c(1, 0)
    with pytest.raises(BadIndices, match=exactly(
            "target generator must be first-index up to sigma")):
        rewrite_conjugation_symplectic(Word(R, 6, ()), 3, 5, a)
    with pytest.raises(DimensionTooSmall, match=exactly(
            "symplectic rewriting needs even size at least 4")):
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
    # no level is checked on its own: _finish's comparison is the guard
    final = "derived word fails the exact comparison"
    with pytest.raises(VerificationFailed, match=final):
        rewrite_conjugation_linear(eps, 1, 3, a)
    eps = word(R, 6, SympLetter(6, 1, 3, g.value, cert=g))
    with pytest.raises(VerificationFailed, match=final):
        rewrite_conjugation_symplectic(eps, 1, 4, a)


def pad_output(monkeypatch, term):
    """Put x_ij(t) x_ij(-t), t the one-term parameter term, in front of
    the rewriter's output, (i, j) its first letter's cell: the derived
    word keeps its value, so only the per-letter checks can see it."""
    orig = rewrite_module._records_word

    def padded(system, records):
        i, j, _ = records[0]
        t = rewrite_module._TPoly(R, [term])
        return orig(system, [(i, j, t), (i, j, t.neg())] + list(records))

    monkeypatch.setattr(rewrite_module, "_records_word", padded)


def test_output_letters_must_be_divisible_by_y(monkeypatch):
    a = c(2, 0)
    g = c(1, 0)
    pad_output(monkeypatch, rewrite_module._Term(R, 0, (a,), R.one))
    with pytest.raises(VerificationFailed, match="is not divisible by Y"):
        rewrite_conjugation_linear(
            word(R, 3, LinLetter(3, 2, 1, g.value, cert=g)), 1, 3, a)


def test_output_letters_must_carry_a_certified_factor(monkeypatch):
    a = c(2, 0)
    g = c(1, 0)
    pad_output(monkeypatch, rewrite_module._Term(R, 1, (), R.one))
    with pytest.raises(VerificationFailed,
                       match="parameter term without a certified factor"):
        rewrite_conjugation_symplectic(
            word(R, 6, SympLetter(6, 1, 3, g.value, cert=g)), 1, 4, a)


def letter_record(i, j, y_exp, atom, coeff=1):
    """The rewriter's record of x_ij(coeff * Y^y_exp * atom)."""
    term = rewrite_module._Term(R, y_exp, (atom,), R.el(coeff))
    return i, j, rewrite_module._TPoly(R, [term])


@st.composite
def conjugated_products(draw):
    """A rewriter system, one first-index letter record g (Y-free) and
    a product of one to four Y-divisible first-index letter records,
    each with one certified factor and Y-exponent a multiple of 4, as
    the records of a level are after Y -> Y^4."""
    if draw(st.booleans()):
        system = rewrite_module._System("E", R, 3)
    else:
        system = rewrite_module._System("se", R, 6)
    pairs = [(i, j) for i in range(1, system.size + 1)
             for j in range(1, system.size + 1)
             if i != j and index1_form(system.kind, i, j) is not None]

    def record(y_exp):
        i, j = draw(st.sampled_from(pairs))
        atom = c(draw(st.integers(0, 8)), draw(st.integers(0, 8)))
        return letter_record(i, j, y_exp, atom,
                             draw(st.sampled_from([1, -1, 2])))

    g = record(0)
    exps = draw(st.lists(st.sampled_from([4, 8, 16]), min_size=1,
                         max_size=4))
    return system, g, [record(e) for e in exps]


@settings(max_examples=60, deadline=None)
@given(conjugated_products())
# the residual's (1, 1) entry holds 18X Y^4 and 9X Y^4 from different
# factors: they cancel over Z/27, but the lowest exponent present stayed
# Y^4, so peeling found no layer and ran into its rounds guard
@example((rewrite_module._System("se", R, 6),
          letter_record(2, 1, 0, c(0, 1)),
          [letter_record(1, 2, 4, c(0, 1)), letter_record(1, 2, 8, c(0, 1))]))
def test_peel_factors_a_conjugated_product(case):
    # g . (L1 ... Lm) . g^-1, multiplied out as one residual, peels into
    # certified, Y-divisible first-index letters of the same value
    system, g, records = case
    grid = rewrite_module._Grid(R, system.size)
    for i, j, poly in records:
        grid.mul_letter_right(system.pattern(i, j), poly)
    gpat = system.pattern(g[0], g[1])
    grid.mul_letter_left(gpat, g[2])
    grid.mul_letter_right(gpat, g[2], invert=True)
    peeled = rewrite_module._peel(system, grid)
    assert not grid.cells
    words = rewrite_module._records_word
    out = words(system, peeled)
    want = conjugate_word(words(system, [g]), words(system, records))
    assert evaluate(out) == evaluate(want)
    in_group = word_in_E1 if system.kind == "E" else word_in_ESp1
    assert in_group(out, I3)
    for letter, _ in out.letters:
        assert y_divisible(letter.param)


def one_term(y_exp, atoms):
    """The rewriter's parameter Y^y_exp * atoms."""
    term = rewrite_module._Term(R, y_exp, atoms, R.one)
    return rewrite_module._TPoly(R, [term])


def peel_cells(kind, size, cells, rounds=500):
    grid = rewrite_module._Grid(R, size)
    grid.cells.update(cells)
    return rewrite_module._peel(rewrite_module._System(kind, R, size), grid,
                                rounds)


def emit(kind, size, p, q, poly):
    system = rewrite_module._System(kind, R, size)
    return rewrite_module._emit_cell(system, p, q, poly, [])


def diag(kind, size, cells):
    return rewrite_module._System(kind, R, size).diag_records(cells)


ATOM = c(1, 0)
LAYER = one_term(4, (ATOM,))

# each internal guard of the peel, on a crafted residual that breaks it
INTERNAL_GUARDS = {
    "one-factor": (lambda: emit("E", 3, 2, 3, LAYER), VerificationFailed,
                   "cannot split a one-factor parameter term"),
    "y-power": (lambda: emit("se", 6, 3, 4, one_term(1, (ATOM, ATOM))),
                VerificationFailed, "cannot distribute Y-powers 1 = 1 + 0"),
    "trace": (lambda: diag("E", 3, {(2, 2): LAYER}), VerificationFailed,
              "diagonal residual layer has nonzero trace"),
    "form": (lambda: diag("se", 6, {(3, 3): LAYER}), VerificationFailed,
             "diagonal residual is not form-compatible at index 3"),
    "no-free-pair": (lambda: diag("se", 2, {(1, 1): LAYER,
                                            (2, 2): LAYER.neg()}),
                     DimensionTooSmall,
                     "no free coordinate pair for a diagonal insertion"),
    "pattern": (lambda: peel_cells("se", 6, {(2, 3): LAYER}),
                VerificationFailed,
                "residual breaks the generator pattern at (4, 1)"),
    "rounds": (lambda: peel_cells("E", 3, {(1, 2): LAYER}, rounds=0),
               VerificationFailed,
               "residual failed to terminate while peeling"),
}


@pytest.mark.parametrize("guard", sorted(INTERNAL_GUARDS))
def test_peel_internal_guards(guard):
    call, error, message = INTERNAL_GUARDS[guard]
    with pytest.raises(error, match=exactly(message)):
        call()


def test_rewrite_deterministic():
    a = c(1, 1)
    g = c(2, 0)
    eps = word(R, 6, SympLetter(6, 2, 3, g.value, cert=g))
    r1 = rewrite_conjugation_symplectic(eps, 1, 4, a)
    r2 = rewrite_conjugation_symplectic(eps, 1, 4, a)
    assert repr(r1.output.letters) == repr(r2.output.letters)
    assert r1.case_trace == r2.case_trace


def test_symplectic_case_trace_frozen():
    # one line per level, innermost conjugator first
    a, g, k, h = c(1, 1), c(2, 0), c(0, 1), c(1, 2)
    eps = word(R, 6, SympLetter(6, 2, 3, g.value, cert=g),
               SympLetter(6, 1, 3, k.value, cert=k),
               SympLetter(6, 1, 5, h.value, cert=h))
    res = rewrite_conjugation_symplectic(eps, 1, 4, a)
    assert len(res.output) == 6
    assert res.case_trace == (
        "symplectic/level g=(1,5) 1 -> 1 letters",
        "symplectic/level g=(1,3) 1 -> 2 letters",
        "symplectic/level g=(2,3) 2 -> 6 letters",
    )


def sampled_rewrite(mode, seed, r):
    """A rewrite sampled at stream trial_rng(seed, r): an r-letter
    conjugator over (Z/27)[X, Y], size 3 linear or size 6 symplectic;
    returns it with its membership test."""
    rng = trial_rng(seed, r)
    if mode == "linear":
        eps = sample_index1_linear_word(rng, I3, 3, r, variables=("X",))
        i, j = sample_linear_index1(rng, 3)
        rewrite, in_group = rewrite_conjugation_linear, word_in_E1
    else:
        eps = sample_index1_symplectic_word(rng, I3, 6, r, variables=("X",))
        i, j = sample_index1_symplectic(rng, 6)
        rewrite, in_group = rewrite_conjugation_symplectic, word_in_ESp1
    a = sample_certified(rng, I3, max_degree=1, variables=("X",))
    return rewrite(eps, i, j, a), a, in_group


def assert_sound_rewrite(res, in_group):
    assert in_group(res.output, I3)
    for letter, _ in res.output.letters:
        assert y_divisible(letter.param)
    specialize_and_check(res, 5, 2)
    assert specialize_and_check(res, 4, 0).is_identity()


@pytest.mark.parametrize("mode, seed", [("linear", 10), ("symplectic", 0)])
def test_rewrite_six_letter_conjugator(mode, seed):
    # the identity is proved at Y^4096
    res, a, in_group = sampled_rewrite(mode, seed, 6)
    assert res.lhs.letters[6][0].param == R.var("Y", 4 ** 6) * a.value
    # each level is peeled once, so the output stays short
    assert len(res.output) <= 30
    assert_sound_rewrite(res, in_group)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", ["linear", "symplectic"])
def test_rewrite_output_does_not_grow_per_letter(mode, seed):
    # sixteen conjugating letters (Y^(4^16)); peeling every inner record
    # on its own multiplied the output 2-4x per letter
    res, _, in_group = sampled_rewrite(mode, seed, 16)
    assert len(res.output) <= 80
    assert_sound_rewrite(res, in_group)


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
    # merge), every total a residual cell is handed and every cached sum
    # is the one multiplied out afresh
    Term, TPoly = rewrite_module._Term, rewrite_module._TPoly
    init, value, plus = Term.__init__, TPoly.value, TPoly.plus
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

    def checked_plus(self, other, total=None):
        out = plus(self, other, total)
        if total is not None:
            checked_value(out)
            carried.append(total)
        return out

    monkeypatch.setattr(Term, "__init__", checked_init)
    monkeypatch.setattr(TPoly, "value", checked_value)
    monkeypatch.setattr(TPoly, "plus", checked_plus)
    for index in range(len(SEEDED)):
        seeded_rewrite(index)
    assert len(carried) > 600


# SHA-256 of the canonical JSON of six seeded rewrites, pinned from the
# rewriter that peels each level once
SEEDED_DIGESTS = {
    2: "eeec16f853eedb0bb2d59b7993808965c021c3822d71a5b0b46c672cc76fd7f6",
    8: "1027a23f039ca406ff05f36d9ee129eeba16e481e3a2146fef35dac4b85cc728",
    13: "45f1270093ee638007464df57b89323889a1f0223940830fc21d9ab48e4028cb",
    15: "d37971aabd70fbca6fa4983280b6a944563c6b03c836ceb91779e298b294b378",
    20: "1b025641f5fa14971af689dd25755dc15e998c0761f3b0695fa08372136da56c",
    22: "7f5ef342019490164390d82c967153fd774759ac2f4985fc229fd752a7569214",
}


@pytest.mark.parametrize("index", sorted(SEEDED_DIGESTS))
def test_seeded_rewrite_output_is_pinned(index):
    text = jsonio.dumps(jsonio.rewrite_to_json(seeded_rewrite(index)))
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_DIGESTS[index]


@pytest.mark.parametrize("index", [14, 15])
def test_point_specialization_makes_no_polynomial_product(poly_mul_calls,
                                                          monkeypatch,
                                                          index):
    # every parameter of an r = 3 rewrite is bound at a point: the
    # substitutions map each term to a constant in closed form
    assert SEEDED[index][2] == 3
    res = seeded_rewrite(index)
    products = []

    def counting(p, bindings):
        before = len(poly_mul_calls)
        out = substitute(p, bindings)
        products.append(len(poly_mul_calls) - before)
        return out

    monkeypatch.setattr(rewrite_module, "substitute", counting)
    specialize_and_check(res, 5, 2)
    assert len(products) == len(res.output) + len(res.lhs)
    assert not any(products)
