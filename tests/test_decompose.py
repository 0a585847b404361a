import hashlib
import random
import sys
from collections import Counter

import pytest

from elemcalc import (
    BadIndices,
    CertificateInvalid,
    DimensionTooSmall,
    IdealPresentation,
    NotAUnit,
    PairNotZero,
    PairingNonzero,
    PolyRing,
    SupportOverlap,
    SympLetter,
    TwoNotInvertible,
    VerificationFailed,
    Word,
    ZmodRing,
    certify,
    decompose_conjugate,
    evaluate,
    from_rows,
    invert_unit,
    invert_word,
    long_root_pair,
    long_root_reduce,
    long_root_unimodular,
    recording,
    short_root_pair,
    short_root_split,
    sigma_index,
    sum_to_product,
    word,
    word_certified,
)
import elemcalc.decompose as decompose_module
from elemcalc.decompose import _product_form, pair_outer, sym_outer
import elemcalc.words as words_module
from elemcalc.matrices import ColumnVector, identity, tilde, zero_vector
from elemcalc import jsonio
from elemcalc.sampling import sample_element, sample_symplectic_word

Z27 = ZmodRing(27)
Z8 = ZmodRing(8)
Z15 = ZmodRing(15)
I3 = IdealPresentation(Z27, (Z27.el(3),))
I15 = IdealPresentation(Z15, (Z15.el(3),))


def vec(ring, *entries):
    return ColumnVector(ring, [ring.el(e) for e in entries])


def tilde_entries(v):
    """Row vector tilde(v): entry c is +v_{sigma(c)} for even c, else -."""
    out = []
    for c in range(1, v.length + 1):
        s = v.entry(sigma_index(c))
        out.append(s if c % 2 == 0 else -s)
    return out


def closed_short(v, coeff):
    """I + coeff * v vtilde, assembled entrywise."""
    ring = v.ring
    tl = tilde_entries(v)
    rows = []
    for r in range(1, v.length + 1):
        row = []
        for c in range(1, v.length + 1):
            val = v.entry(r) * tl[c - 1] * coeff
            if r == c:
                val = val + ring.one
            row.append(val)
        rows.append(row)
    return from_rows(ring, rows)


def closed_long(v, w, coeff):
    """I + coeff * (v wtilde + w vtilde), assembled entrywise."""
    ring = v.ring
    tv = tilde_entries(v)
    tw = tilde_entries(w)
    rows = []
    for r in range(1, v.length + 1):
        row = []
        for c in range(1, v.length + 1):
            val = (v.entry(r) * tw[c - 1] + w.entry(r) * tv[c - 1]) * coeff
            if r == c:
                val = val + ring.one
            row.append(val)
        rows.append(row)
    return from_rows(ring, rows)


def test_short_root_pair():
    v = vec(Z27, 3, 6, 0, 0)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    with recording() as trace:
        out = short_root_pair(v, a, b, 2)
    assert evaluate(out) == closed_short(v, a.value * b.value)
    assert word_certified(out, I3)
    assert trace and trace[0][0] == "short-root-pair"


def test_short_root_pair_embedding():
    v = vec(Z27, 3, 6, 9, 12)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(4)])
    out = short_root_pair(v, a, b, 3)
    assert out.size == 6
    ext = vec(Z27, 3, 6, 9, 12, 0, 0)
    assert evaluate(out) == closed_short(ext, a.value * b.value)


def test_short_root_pair_errors():
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    with pytest.raises(SupportOverlap):
        short_root_pair(vec(Z27, 3, 6, 0, 0), a, b, 1)
    I8 = IdealPresentation(Z8, (Z8.el(2),))
    a8 = certify(I8, [Z8.el(1)])
    with pytest.raises(TwoNotInvertible):
        short_root_pair(vec(Z8, 2, 0, 0, 0), a8, a8, 2)


def test_long_root_pair():
    v = vec(Z27, 3, 0, 0, 0, 0, 0)
    w = vec(Z27, 0, 0, 6, 0, 0, 0)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    out = long_root_pair(v, w, a, b, 3)
    assert evaluate(out) == closed_long(v, w, a.value * b.value)
    assert word_certified(out, I3)


def test_long_root_pair_errors():
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(PairingNonzero):
        long_root_pair(vec(Z27, 3, 0, 0, 0), vec(Z27, 0, 3, 0, 0), a, a, 2)
    with pytest.raises(SupportOverlap):
        long_root_pair(vec(Z27, 3, 0, 0, 0), vec(Z27, 0, 0, 3, 0), a, a, 2)


def test_long_root_reduce():
    v = vec(Z27, 3, 6, 0, 0, 0, 0)
    w = vec(Z27, 0, 0, 12, 0, 9, 3)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    with recording() as trace:
        out = long_root_reduce(v, w, a, b, 3)
    assert out.size == 6
    assert evaluate(out) == closed_long(v, w, a.value * b.value)
    assert word_certified(out, I3)
    assert trace[0][0] == "long-root-reduce"


def test_long_root_reduce_errors():
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(PairNotZero):
        long_root_reduce(vec(Z27, 3, 0, 0, 3), vec(Z27, 0, 0, 3, 0), a, a, 2)
    with pytest.raises(PairingNonzero):
        long_root_reduce(vec(Z27, 3, 0, 0, 0), vec(Z27, 0, 3, 0, 0), a, a, 2)
    with pytest.raises(BadIndices):
        long_root_reduce(vec(Z27, 3, 0, 0, 0), vec(Z27, 0, 0, 3, 0), a, a, 5)


def test_short_root_split():
    v = vec(Z27, 3, 6, 9, 12)
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(3)])
    with recording() as trace:
        out = short_root_split(v, a, b)
    assert evaluate(out) == closed_short(v, a.value * b.value)
    assert word_certified(out, I3)
    tags = {t for t, _ in trace}
    assert "short-root-split" in tags


def test_short_root_split_small_dimension():
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(DimensionTooSmall):
        short_root_split(vec(Z27, 3, 6), a, a)


def test_sum_to_product():
    w = vec(Z27, 5, 0, 0, 0, 0, 0)
    u1 = vec(Z27, 3, 0, 6, 0, 0, 0)
    u2 = vec(Z27, 0, 0, 0, 3, 9, 0)
    us = [u1, u2]
    certs = []
    for u in us:
        certs.append([certify(I3, [Z27.el(u.entry(k).payload // 3)])
                      for k in range(1, 7)])
    ordering, x = sum_to_product(us, certs, w)
    assert sorted(ordering) == [0, 1]
    assert x.ideal == I3.square()
    assert x.check()
    lhs = closed_long(u1, w, Z27.one) + closed_long(u2, w, Z27.one) \
        - from_rows(Z27, [[1 if r == c else 0 for c in range(6)]
                          for r in range(6)])
    rhs = from_rows(Z27, [[1 if r == c else 0 for c in range(6)]
                          for r in range(6)])
    for idx in ordering:
        rhs = rhs * closed_long(us[idx], w, Z27.one)
    rhs = rhs * closed_short(w, x.value)
    assert lhs == rhs


def dense_sym(v, s):
    """I + v tilde(v) s, from dense matrix products: the reference for
    sym_outer's rank-two update."""
    return identity(v.ring, v.length) + (v * tilde(v)) * s


def dense_pair(v, w, s):
    """I + (v tilde(w) + w tilde(v)) s, the reference for pair_outer."""
    return identity(v.ring, v.length) + (v * tilde(w) + w * tilde(v)) * s


P27 = PolyRing(Z27, ("X",))


def random_element(rng, ring):
    """A random element, zero about one time in three."""
    if rng.random() < 0.3:
        return ring.zero
    if isinstance(ring, ZmodRing):
        return ring.el(rng.randrange(ring.m))
    return sum((ring.el(rng.randrange(ring.base.m)) * ring.var("X", e)
                for e in range(rng.randrange(1, 4))), ring.zero)


def random_vector(rng, ring, size):
    return ColumnVector(ring, [random_element(rng, ring)
                               for _ in range(size)])


@pytest.mark.parametrize("ring", [Z27, ZmodRing(25), Z15, P27],
                         ids=["Z27", "Z25", "Z15", "Z27[X]"])
def test_closed_forms_match_dense_products(ring):
    rng = random.Random(repr(ring))
    for size in (2, 4, 6):
        zero = zero_vector(ring, size)
        for trial in range(6):
            v, w = random_vector(rng, ring, size), random_vector(rng, ring, size)
            s = ring.zero if trial == 0 else random_element(rng, ring)
            for x, y in ((v, w), (zero, w), (v, zero), (zero, zero)):
                assert sym_outer(x, s) == dense_sym(x, s)
                assert pair_outer(x, y, s) == dense_pair(x, y, s)
            assert pair_outer(v, w) == dense_pair(v, w, ring.one)


@pytest.mark.parametrize("ring", [Z27, P27], ids=["Z27", "Z27[X]"])
def test_product_form_matches_dense_products(ring):
    """sum_to_product's product, one rank-two update per factor, equals
    the product of the dense factors."""
    rng = random.Random(repr(ring))
    for size in (2, 4, 6):
        for pieces in (1, 2, 3):
            w = random_vector(rng, ring, size)
            us = [random_vector(rng, ring, size) for _ in range(pieces)]
            x = random_element(rng, ring)
            want = identity(ring, size)
            for u in us:
                want = want * dense_pair(u, w, ring.one)
            want = want * dense_sym(w, x)
            assert _product_form(us, w, x) == want


def test_sum_to_product_names_the_failed_entry(monkeypatch):
    # a wrong correction term x breaks the regrouping identity
    orig = decompose_module.product_certificate
    monkeypatch.setattr(decompose_module, "product_certificate",
                        lambda ci, cj: -orig(ci, cj))
    w = vec(Z27, 5, 0, 0, 0, 0, 0)
    us = [vec(Z27, 3, 0, 6, 0, 0, 0), vec(Z27, 0, 0, 0, 3, 9, 0)]
    certs = [[certify(I3, [Z27.el(u.entry(k).payload // 3)])
              for k in range(1, 7)] for u in us]
    with pytest.raises(VerificationFailed,
                       match=r"regrouping identity failed at \("):
        sum_to_product(us, certs, w)


def test_sum_to_product_errors():
    w = vec(Z27, 5, 0, 0, 0)
    bad = vec(Z27, 0, 3, 0, 0)
    c = [certify(I3, [Z27.el(0)])] * 4
    with pytest.raises(PairingNonzero):
        sum_to_product([bad], [c], w)
    with pytest.raises(PairingNonzero):
        sum_to_product([], [], w)


def test_long_root_unimodular():
    v = vec(Z27, 3, 0, 6, 0, 15, 0)
    w = vec(Z27, 5, 0, 0, 2, 0, 1)
    u = zero_vector(Z27, 6).with_entry(6, 1)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    pairing = Z27.zero
    for c in range(6):
        pairing = pairing + tilde_entries(v)[c] * w.entry(c + 1)
    assert pairing.is_zero()
    with recording() as trace:
        out = long_root_unimodular(v, w, a, b, u)
    assert evaluate(out) == closed_long(v, w, a.value * b.value)
    assert word_certified(out, I3)
    tags = {t for t, _ in trace}
    assert "long-root-unimodular" in tags and "kernel-decomposition" in tags


def test_long_root_unimodular_dense_certificate():
    # Z/15 is not local: no coordinate of w = (3, 5, 0, ...) is a unit,
    # and u = (12, 2, 0, ...) (36 + 10 = 1 mod 15) is dense on its pair,
    # so c on coordinates 3..6 meets both u_1 and u_2: 4 x 2 pieces
    v = vec(Z15, 0, 0, 1, 2, 4, 7)
    w = vec(Z15, 3, 5, 0, 0, 0, 0)
    u = vec(Z15, 12, 2, 0, 0, 0, 0)
    a = certify(I15, [Z15.el(1)])
    b = certify(I15, [Z15.el(2)])
    with recording() as trace:
        out = long_root_unimodular(v, w, a, b, u)
    assert evaluate(out) == closed_long(v, w, a.value * b.value)
    assert word_certified(out, I15)
    assert ("kernel-decomposition", "8 pieces") in trace


def test_long_root_unimodular_zero_v():
    # I + ab (0 wtilde + w 0tilde) = I: the empty word, not a refusal
    w = vec(Z27, 5, 0, 0, 2, 0, 1)
    u = zero_vector(Z27, 6).with_entry(6, 1)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    out = long_root_unimodular(zero_vector(Z27, 6), w, a, b, u)
    assert out.size == 6 and len(out) == 0
    # u is still checked
    with pytest.raises(CertificateInvalid):
        long_root_unimodular(zero_vector(Z27, 6), w, a, b,
                             vec(Z27, 0, 1, 0, 0, 0, 0))


def test_long_root_unimodular_errors():
    a = certify(I3, [Z27.el(1)])
    v = vec(Z27, 3, 0, 0, 0)
    w = vec(Z27, 1, 0, 0, 0)
    u = vec(Z27, 1, 0, 0, 0)
    with pytest.raises(DimensionTooSmall):
        long_root_unimodular(v, w, a, a, u)
    v6 = vec(Z27, 0, 3, 0, 0, 0, 0)
    w6 = vec(Z27, 1, 0, 0, 0, 0, 0)
    u6 = vec(Z27, 1, 0, 0, 0, 0, 0)
    with pytest.raises(PairingNonzero):
        long_root_unimodular(v6, w6, a, a, u6)
    ok_v = vec(Z27, 3, 0, 0, 0, 0, 0)
    bad_u = vec(Z27, 0, 1, 0, 0, 0, 0)
    with pytest.raises(CertificateInvalid):
        long_root_unimodular(ok_v, w6, a, a, bad_u)


def conjugate_oracle(g, i, j, ab):
    ring = g.ring
    size = g.size
    mid = word(ring, size, SympLetter(size, i, j, ab))
    full = g * mid * invert_word(g)
    acc = None
    for letter, inv in full.letters:
        m = letter.matrix(inv)
        acc = m if acc is None else acc * m
    return acc


def test_decompose_short_case():
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    g = word(Z27, 6,
             SympLetter(6, 1, 3, Z27.el(4)),
             (SympLetter(6, 5, 2, Z27.el(7)), True),
             SympLetter(6, 2, 1, Z27.el(11)))
    res = decompose_conjugate(g, 1, 2, a, b)
    assert res.achieved == res.target
    assert res.target == conjugate_oracle(g, 1, 2, a.value * b.value)
    assert word_certified(res.output, I3)
    tags = {t for t, _ in res.lemma_trace}
    assert "conjugated-short-root" in tags


def _counting_invert_word(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return invert_word(w)

    monkeypatch.setattr(decompose_module, "invert_word", counted)
    return calls


def test_decompose_long_case(monkeypatch):
    # over Z/27 some coordinate of w is a unit: G^-1 is never evaluated
    calls = _counting_invert_word(monkeypatch)
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    g = word(Z27, 6,
             SympLetter(6, 3, 1, Z27.el(5)),
             SympLetter(6, 4, 6, Z27.el(8)))
    res = decompose_conjugate(g, 1, 4, a, b)
    assert res.target == conjugate_oracle(g, 1, 4, a.value * b.value)
    assert word_certified(res.output, I3)
    assert res.lemma_trace == LONG_CASE_TRACE
    assert calls == []


def test_decompose_applies_each_output_letter_once(monkeypatch):
    """The lemma bodies check nothing, so the final comparison with the
    conjugate is the only check of the output, and it applies each of
    its letters once."""
    applied = []
    orig_ops = words_module.ElementaryLetter.column_ops

    def counted(self, inverted=False):
        applied.append(self)
        return orig_ops(self, inverted)

    checks = []
    orig_check = decompose_module.check_evaluation

    def check(w, want, what):
        before = len(applied)
        out = orig_check(w, want, what)
        checks.append((what, w, len(applied) - before))
        return out

    monkeypatch.setattr(words_module.ElementaryLetter, "column_ops", counted)
    monkeypatch.setattr(decompose_module, "check_evaluation", check)
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    g = word(Z27, 6,
             SympLetter(6, 3, 1, Z27.el(5)),
             SympLetter(6, 4, 6, Z27.el(8)))
    res = decompose_conjugate(g, 1, 4, a, b)
    [(final, final_word, final_ops)] = checks
    assert final == "decomposition does not reproduce the conjugate"
    assert final_word is res.output
    assert final_ops == len(res.output) > 0


@pytest.mark.parametrize("i, j, letters", [
    (1, 4, 3),   # long root
    (3, 4, 3),   # short root, j = sigma(i)
    (1, 4, 0),   # empty conjugator
], ids=["long", "short", "empty"])
def test_conjugate_target_resumes_from_g(monkeypatch, i, j, letters):
    """G = evaluate(g) is stored before the target g . se_ij(ab) . g^-1
    is built, so the target applies |g| + 1 letters, not 2|g| + 1."""
    applied = []
    orig_ops = words_module.ElementaryLetter.column_ops

    def counted(self, inverted=False):
        applied.append(self)
        return orig_ops(self, inverted)

    evals = []
    orig_evaluate = decompose_module.evaluate

    def counted_evaluate(w):
        before = len(applied)
        out = orig_evaluate(w)
        evals.append((w, len(applied) - before))
        return out

    monkeypatch.setattr(words_module.ElementaryLetter, "column_ops", counted)
    monkeypatch.setattr(decompose_module, "evaluate", counted_evaluate)
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    g = word(Z27, 6, *[SympLetter(6, *cell, Z27.el(p)) for cell, p in
                       (((3, 1), 5), ((4, 6), 8), ((2, 5), 4))[:letters]])
    res = decompose_conjugate(g, i, j, a, b)
    (g_word, g_ops), (target_word, target_ops) = evals[:2]
    assert g_word is g and g_ops == len(g)
    assert len(target_word) == 2 * len(g) + 1
    assert target_ops == len(g) + 1
    assert res.target is evaluate(target_word)
    monkeypatch.undo()
    assert res.target == evaluate(Word(Z27, 6, target_word.letters))


def test_long_root_unimodular_drops_zero_pieces():
    # the same v and w with the dense certificate u = row 3 of G^-1: two
    # of its four nonzero a_ij are killed by both w_i and w_j, and their
    # zero pieces used to cost a long-root-reduce word each
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    g = word(Z27, 6,
             SympLetter(6, 3, 1, Z27.el(5)),
             SympLetter(6, 4, 6, Z27.el(8)))
    G = evaluate(g)
    v, w = -G.column(1), G.column(3)
    u = ColumnVector(Z27, evaluate(invert_word(g)).row_list(3))
    with recording() as trace:
        out = long_root_unimodular(v, w, a, b, u)
    assert evaluate(out) == closed_long(v, w, a.value * b.value)
    assert word_certified(out, I3)
    assert ("kernel-decomposition", "4 pieces") in trace
    assert ("sum-to-product", "2 pieces") in trace
    reduces = [detail for what, detail in trace
               if what == "long-root-reduce"]
    assert len(reduces) == 2
    assert not any(d.endswith("v-support=[]") for d in reduces)


# w = column 3 of G = (0, 0, 1, 0, 19, 0) has no unit on supp(c) = {2, 4},
# so the pivot is its first unit coordinate, 3: pieces (2, 3) and (3, 4)
LONG_CASE_TRACE = (
    ("conjugated-long-root", "columns 1 and 3 extracted"),
    ("long-root-unimodular", "v-support=[1, 3]"),
    ("kernel-decomposition", "2 pieces"),
    ("sum-to-product", "2 pieces"),
    ("long-root-reduce", "pair=3 v-support=[1]"),
    ("long-root-pair", "pair=3 supports=[1]/[3]"),
    ("long-root-reduce", "pair=1 v-support=[3]"),
    ("long-root-pair", "pair=1 supports=[3]/[3, 5]"),
)


def test_decompose_long_case_without_unit_coordinate(monkeypatch):
    # over Z/15, column 3 of G is (0, 0, 10, 0, 0, 3): no unit
    # coordinate, so the certificate is the dense row 3 of G^-1
    calls = _counting_invert_word(monkeypatch)
    a = certify(I15, [Z15.el(1)])
    b = certify(I15, [Z15.el(2)])
    g = word(Z15, 6, SympLetter(6, 5, 4, Z15.el(3)),
             SympLetter(6, 4, 5, Z15.el(3)))
    assert evaluate(g).column(3) == vec(Z15, 0, 0, 10, 0, 0, 3)
    res = decompose_conjugate(g, 1, 4, a, b)
    assert len(calls) == 1
    assert res.target == conjugate_oracle(g, 1, 4, a.value * b.value)
    assert word_certified(res.output, I15)


@pytest.mark.parametrize("size", [6, 8, 12, 20, 32])
def test_unit_pivot_bounds_the_kernel_pieces(size):
    rng = random.Random(size)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    for _ in range(3):
        g = sample_symplectic_word(rng, Z27, size, size)
        i = rng.randrange(1, size + 1)
        j = rng.choice([k for k in range(1, size + 1)
                        if k not in (i, sigma_index(i))])
        G = evaluate(g)
        c_support = {sigma_index(k) for k in G.column(i).support()}
        w = G.column(sigma_index(j))
        pivot_in_c = any(w.entry(k).payload % 3 for k in c_support)
        res = decompose_conjugate(g, i, j, a, b)
        assert res.target == conjugate_oracle(g, i, j, a.value * b.value)
        pieces = [int(d.split()[0]) for t, d in res.lemma_trace
                  if t == "kernel-decomposition"]
        assert len(pieces) == 1
        assert pieces[0] <= len(c_support) - (1 if pivot_in_c else 0)


def sampled_long_root(size, seed):
    """A long root g se_ij(ab) g^-1 over Z/27 with |g| = 4 size."""
    rng = random.Random(seed)
    g = sample_symplectic_word(rng, Z27, size, 4 * size)
    i = rng.randrange(1, size + 1)
    j = rng.choice([k for k in range(1, size + 1)
                    if k not in (i, sigma_index(i))])
    return g, i, j, certify(I3, [Z27.el(1)]), certify(I3, [Z27.el(2)])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("size", [16, 32, 64])
def test_long_root_output_grows_linearly(size, seed):
    # one long_root_reduce per free pair: O(size) letters, where one per
    # kernel piece gave O(size^2) (381-7,144 letters here, 24-112 size).
    # Over 580 sampled long roots at sizes 16, 32 and 64 the most was
    # 13.25 size, so the bound leaves room
    g, i, j, a, b = sampled_long_root(size, seed)
    res = decompose_conjugate(g, i, j, a, b)
    assert word_certified(res.output, I3)
    # a fresh evaluation of both words, letter by letter
    conj = g * word(Z27, size, SympLetter(size, i, j, a.value * b.value)) \
        * invert_word(g)
    assert evaluate(Word(Z27, size, res.output.letters)) == evaluate(conj)
    assert len(res.output) <= 16 * size


@pytest.mark.parametrize("size", [6, 8, 16, 32])
def test_one_long_root_reduce_per_free_pair(monkeypatch, size):
    """long_root_unimodular reduces each group of kernel pieces that
    share a free pair once, so its body calls the reduction body itself
    at most three times (short_root_split's own calls are not counted)."""
    orig = decompose_module._long_root_reduce
    callers = []

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return orig(*args)

    monkeypatch.setattr(decompose_module, "_long_root_reduce", counted)
    for seed in range(4):
        callers.clear()
        g, i, j, a, b = sampled_long_root(size, seed)
        res = decompose_conjugate(g, i, j, a, b)
        direct = callers.count("_long_root_unimodular")
        assert 1 <= direct <= 3
        # one regrouping factor per reduced group
        assert [d for t, d in res.lemma_trace if t == "sum-to-product"] \
            == ["%d pieces" % direct]


def test_long_root_unimodular_drops_zero_groups():
    # the two pieces whose first free pair is 2 cancel: 9 pieces make
    # two groups (free pairs 3 and 1), and pair 2 gets no reduction
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    v = vec(Z27, 18, 0, 16, 0, 0, 0)
    w = vec(Z27, 18, 6, 5, 0, 22, 17)
    u = vec(Z27, 14, 23, 23, 2, 8, 14)
    with recording() as trace:
        out = long_root_unimodular(v, w, a, b, u)
    assert evaluate(out) == closed_long(v, w, a.value * b.value)
    assert word_certified(out, I3)
    assert ("kernel-decomposition", "9 pieces") in trace
    assert ("sum-to-product", "2 pieces") in trace
    assert [d.split()[0] for t, d in trace if t == "long-root-reduce"] \
        == ["pair=3", "pair=1"]


def test_decompose_empty_conjugator():
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    g = Word(Z27, 6, ())
    res = decompose_conjugate(g, 2, 5, a, b)
    assert res.target == evaluate(word(
        Z27, 6, SympLetter(6, 2, 5, a.value * b.value)))
    assert word_certified(res.output, I3)
    assert res.lemma_trace[0][0] == "include-square"


def test_decomposition_result_is_immutable():
    a = certify(I3, [Z27.el(1)])
    res = decompose_conjugate(Word(Z27, 6, ()), 1, 2, a, a)
    for name, value in (("achieved", None), ("output", Word(Z27, 6, ())),
                        ("lemma_trace", ())):
        with pytest.raises(AttributeError):
            setattr(res, name, value)
    assert res.achieved == res.target


def test_decompose_errors():
    a = certify(I3, [Z27.el(1)])
    g4 = Word(Z27, 4, ())
    with pytest.raises(DimensionTooSmall):
        decompose_conjugate(g4, 1, 2, a, a)
    g6 = Word(Z27, 6, ())
    with pytest.raises(BadIndices):
        decompose_conjugate(g6, 3, 3, a, a)
    I8 = IdealPresentation(Z8, (Z8.el(2),))
    a8 = certify(I8, [Z8.el(1)])
    g8 = Word(Z8, 6, ())
    with pytest.raises(TwoNotInvertible):
        decompose_conjugate(g8, 1, 2, a8, a8)


def flip_last_letters(monkeypatch):
    """Make every word _pair_transvection_word builds lose the sign of
    its last letter, a long letter. Flipping one word alone can leave a
    commutator unchanged, when the flipped letter commutes with the
    other factor."""
    orig = decompose_module._pair_transvection_word

    def flipped(*args):
        w = orig(*args)
        if not w.letters:
            return w
        rest, (letter, inv) = w.letters[:-1], w.letters[-1]
        bad = letter.with_param(-letter.param, -letter.cert)
        return Word(w.ring, w.size, rest + ((bad, inv),))

    monkeypatch.setattr(decompose_module, "_pair_transvection_word", flipped)


def recorded_checks(monkeypatch):
    """The message of every check_evaluation made in decompose."""
    whats = []
    orig = decompose_module.check_evaluation

    def check(w, want, what):
        whats.append(what)
        return orig(w, want, what)

    monkeypatch.setattr(decompose_module, "check_evaluation", check)
    return whats


def test_corrupted_lemma_is_caught(monkeypatch):
    flip_last_letters(monkeypatch)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    short = word(Z27, 6, SympLetter(6, 1, 3, Z27.el(4)),
                 SympLetter(6, 2, 1, Z27.el(11)))
    long_ = word(Z27, 6, SympLetter(6, 3, 1, Z27.el(5)),
                 SympLetter(6, 4, 6, Z27.el(8)))
    # the lemma bodies check nothing: the final check refuses the word
    final = "decomposition does not reproduce the conjugate"
    with pytest.raises(VerificationFailed, match=final):
        decompose_conjugate(short, 1, 2, a, b)
    with pytest.raises(VerificationFailed, match=final):
        decompose_conjugate(long_, 1, 4, a, b)


def test_short_root_pair_checks_its_closed_form(monkeypatch):
    # the pair words it multiplies lose the sign of their last letter
    flip_last_letters(monkeypatch)
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(VerificationFailed,
                       match="short-root-pair: evaluation differs"):
        short_root_pair(vec(Z27, 1, 2, 0, 0), a, a, 2)


def test_short_root_split_checks_its_closed_form(monkeypatch):
    # each short_root_pair body it calls answers for twice the target: a
    # well-formed word, for the wrong element
    orig = decompose_module._short_root_pair
    monkeypatch.setattr(decompose_module, "_short_root_pair",
                        lambda v, a, b, pair: orig(v, a, b + b, pair))
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(VerificationFailed,
                       match="short-root-split: evaluation differs"):
        short_root_split(vec(Z27, 1, 2, 3, 4), a, a)


def test_long_root_unimodular_checks_the_kernel_pieces(monkeypatch):
    # kernel_decomposition loses one coefficient, so the pieces cannot
    # rebuild a b v, and the word misses the closed form
    orig = decompose_module.kernel_decomposition

    def dropped(c, w, u):
        coeffs = orig(c, w, u)
        del coeffs[min(coeffs)]
        return coeffs

    monkeypatch.setattr(decompose_module, "kernel_decomposition", dropped)
    v = vec(Z27, 1, 0, 1, 1, 1, 1)
    w = vec(Z27, 1, 0, 0, 0, 0, 0)
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(VerificationFailed, match="long-root-unimodular: "
                       "evaluation differs from closed form"):
        long_root_unimodular(v, w, a, a, w)


# each public lemma on vectors with unit entries, so that a b times two
# of them is not zero mod 27 and a flipped sign shows in the product;
# the two pair lemmas embed their length-4 vectors at size 6, so their
# closed form is built from the vectors extended to the word's size
LEMMA_CALLS = {
    "short-root-pair": lambda a, b: short_root_pair(
        vec(Z27, 1, 2, 4, 5), a, b, 3),
    "long-root-pair": lambda a, b: long_root_pair(
        vec(Z27, 1, 2, 0, 0), vec(Z27, 0, 0, 2, 3), a, b, 3),
    "long-root-reduce": lambda a, b: long_root_reduce(
        vec(Z27, 1, 2, 0, 0, 0, 0), vec(Z27, 0, 0, 4, 0, 5, 7), a, b, 3),
    "short-root-split": lambda a, b: short_root_split(
        vec(Z27, 1, 2, 4, 5), a, b),
    "long-root-unimodular": lambda a, b: long_root_unimodular(
        vec(Z27, 1, 0, 1, 0, 25, 0), vec(Z27, 5, 0, 0, 2, 0, 1), a, b,
        zero_vector(Z27, 6).with_entry(6, 1)),
}


@pytest.mark.parametrize("lemma", sorted(LEMMA_CALLS))
def test_each_lemma_checks_its_body_once(monkeypatch, lemma):
    # sign-flipped letters in the body, also inside the bodies it calls,
    # are refused by this lemma's own check, the only check the call
    # makes; sum_to_product's body builds no letters (see
    # test_sum_to_product_names_the_failed_entry)
    a = certify(I3, [Z27.el(1)])
    b = certify(I3, [Z27.el(2)])
    whats = recorded_checks(monkeypatch)
    LEMMA_CALLS[lemma](a, b)
    closed = lemma + ": evaluation differs from closed form"
    assert whats == [closed]
    whats.clear()
    flip_last_letters(monkeypatch)
    with pytest.raises(VerificationFailed, match=closed):
        LEMMA_CALLS[lemma](a, b)
    assert whats == [closed]


@pytest.mark.parametrize("i, j, g, body", [
    (1, 4, word(Z27, 6, SympLetter(6, 3, 1, Z27.el(5)),
                SympLetter(6, 4, 6, Z27.el(8))), "_long_root_reduce"),
    (1, 2, word(Z27, 6, SympLetter(6, 1, 3, Z27.el(4)),
                SympLetter(6, 2, 1, Z27.el(11))), "_short_root_pair"),
], ids=["long", "short"])
def test_corrupted_body_fails_only_the_final_check(monkeypatch, i, j, g,
                                                   body):
    # the body answers for twice its target, a well-formed word for the
    # wrong element; no lemma check runs inside decompose_conjugate, so
    # the final comparison with the conjugate is the one that refuses it
    orig = getattr(decompose_module, body)
    monkeypatch.setattr(decompose_module, body,
                        lambda *args: orig(*args[:-2], args[-2] + args[-2],
                                           args[-1]))
    whats = recorded_checks(monkeypatch)
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    final = "decomposition does not reproduce the conjugate"
    with pytest.raises(VerificationFailed, match=final):
        decompose_conjugate(g, i, j, a, b)
    assert whats == [final]


@pytest.mark.parametrize("i, j, g", [
    (1, 4, word(Z27, 6, SympLetter(6, 3, 1, Z27.el(5)),
                SympLetter(6, 4, 6, Z27.el(8)))),
    (1, 2, word(Z27, 6, SympLetter(6, 1, 3, Z27.el(4)),
                SympLetter(6, 2, 1, Z27.el(11)))),
], ids=["long", "short"])
def test_corrupted_column_op_is_caught(monkeypatch, i, j, g):
    # one wrong entry left by the k-th kernel call, for every k of the
    # run: the closed forms come from rank_two_update, which does not
    # use the kernel, so each evaluation is checked against an
    # independent matrix
    orig = ZmodRing.p_column_op
    state = {"calls": 0, "k": 0}

    def corrupted(ring, grid, s, d, c):
        orig(ring, grid, s, d, c)
        state["calls"] += 1
        if state["calls"] == state["k"]:
            grid[0][d] = (grid[0][d] + 1) % ring.m

    monkeypatch.setattr(ZmodRing, "p_column_op", corrupted)
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    decompose_conjugate(Word(Z27, 6, g.letters), i, j, a, b)
    total = state["calls"]
    assert total > 10
    for k in range(1, total + 1):
        state["calls"], state["k"] = 0, k
        with pytest.raises(VerificationFailed):
            decompose_conjugate(Word(Z27, 6, g.letters), i, j, a, b)


def test_failed_decomposition_closes_its_recording(monkeypatch):
    monkeypatch.setattr(decompose_module, "_pair_transvection_word",
                        lambda v, s, cert, factor: Word(v.ring, v.length, ()))
    a = certify(I3, [Z27.el(2)])
    b = certify(I3, [Z27.el(1)])
    g = word(Z27, 6, SympLetter(6, 3, 1, Z27.el(5)),
             SympLetter(6, 4, 6, Z27.el(8)))
    with recording() as outer:
        with pytest.raises(VerificationFailed, match="decomposition does "
                           "not reproduce the conjugate"):
            decompose_conjugate(g, 1, 4, a, b)
        # the failed call's recording is closed; the outer one is back
        assert words_module._EVENTS.get() is outer
    assert words_module._EVENTS.get() is None
    monkeypatch.undo()
    assert decompose_conjugate(g, 1, 4, a, b).lemma_trace == LONG_CASE_TRACE
    assert outer == []


ZX = PolyRing(Z27, ("X",))
# (ring, generators of the ideal a and b are certified in)
PIN_RINGS = ((Z27, (3,)), (ZmodRing(25), (5,)), (ZmodRing(121), (11,)),
             (Z15, (3,)))
PINNED_KINDS = {"empty": 7, "short": 66, "long": 97, "dense": 30}
PINNED_DECOMPOSE_DIGEST = ("9736ac06c621dce1598e0026f288cdb7"
                           "4a3c2bb96179761ce308c0733657748c")


def _has_unit_coordinate(v):
    for x in v.entries:
        try:
            invert_unit(x)
            return True
        except NotAUnit:
            pass
    return False


def _pin_draw(rng, ring, size, length, degree, short, factor=1):
    """A word g of length symplectic letters, each parameter a sample
    times factor, and a short or long root (i, j)."""
    letters = []
    for _ in range(length):
        i, j = rng.sample(range(1, size + 1), 2)
        z = sample_element(rng, ring, degree) * factor
        letters.append((SympLetter(size, i, j, z), rng.random() < 0.3))
    i = rng.randrange(1, size + 1)
    if short:
        j = sigma_index(i)
    else:
        j = rng.choice([k for k in range(1, size + 1)
                        if k not in (i, sigma_index(i))])
    return Word(ring, size, letters), i, j


def _pinned_decompose_inputs():
    """200 seeded decompose_conjugate inputs: Z/27, Z/25, Z/121 and Z/15
    at sizes 6-16 with |g| 0-16, and a few over (Z/27)[X] with ideal
    (3, X); 30 of them are long roots whose column w of g has no unit
    coordinate, so the certificate u is the dense row of g^-1."""
    rng = random.Random(2031)
    for index in range(200):
        poly = index % 20 in (8, 9)
        dense = index % 10 == 3 or index % 20 == 8
        if poly:
            ring, gens = ZX, (3, ZX.var("X"))
        else:
            ring, gens = PIN_RINGS[3 if dense else index % 4]
        ideal = IdealPresentation(ring, [ring.el(x) for x in gens])
        degree = 1 if poly else 0
        if dense:
            # over Z/15 parameters in (3) keep g = 1 mod 3, and a
            # diagonal entry 1 + 9k can be 0 mod 5; over (Z/27)[X] a
            # nonconstant entry is no unit
            while True:
                g, i, j = _pin_draw(rng, ring, 6, 2, degree, False,
                                    1 if poly else 3)
                if not _has_unit_coordinate(
                        evaluate(g).column(sigma_index(j))):
                    break
        elif poly:
            g, i, j = _pin_draw(rng, ring, rng.choice((6, 8)),
                                rng.randint(0, 4), degree,
                                rng.random() < 0.4)
        else:
            g, i, j = _pin_draw(rng, ring, 2 * rng.randint(3, 8),
                                rng.randint(0, 16), degree,
                                rng.random() < 0.4)
        a, b = (certify(ideal, [sample_element(rng, ring, degree)
                                for _ in gens]) for _ in range(2))
        yield g, i, j, a, b


def test_decompose_outputs_are_pinned():
    # the digest was taken before the decomposer's builders moved to
    # payloads; it pins every output word, target and trace byte for byte
    digest = hashlib.sha256()
    kinds = Counter()
    for g, i, j, a, b in _pinned_decompose_inputs():
        if len(g) == 0:
            kinds["empty"] += 1
        elif j == sigma_index(i):
            kinds["short"] += 1
        elif _has_unit_coordinate(evaluate(g).column(sigma_index(j))):
            kinds["long"] += 1
        else:
            kinds["dense"] += 1
        res = decompose_conjugate(g, i, j, a, b)
        text = jsonio.dumps(jsonio.decomposition_to_json(res))
        digest.update(text.encode() + b"\n")
    assert dict(kinds) == PINNED_KINDS
    assert digest.hexdigest() == PINNED_DECOMPOSE_DIGEST
