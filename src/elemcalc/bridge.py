"""Dictionaries between transvection words and elementary matrix words.

Two languages describe the same unipotent isometries. Block
transvections shear along a distinguished head coordinate (linear
case) or a distinguished hyperbolic pair (symplectic case), while
elementary words spell the same maps one off-diagonal entry at a
time. This module converts words in both directions, transports
symplectic transvections across a change of alternating form, and
standardizes an alternating form over Z/p^k through recorded
congruence operations.

Every translation is verified by exact evaluation before it is
returned.
"""

from .errors import (BadIndices, FormMismatch, FormRelationFails,
                     IdealMismatch, NotAlternating, NotCertified,
                     NotCongruentToStandard, NotLocalRing, NonstandardForm,
                     PfaffianNotOne, VerificationFailed)
from .matrices import (ColumnVector, block_diagonal, check_equal,
                       from_rows, identity, is_alternating, pfaffian,
                       sigma_index as sigma, standard_symplectic_form)
from .rings import ZmodRing, certify, invert_unit
from .sampling import prime_of
from .words import (ElementaryLetter, ShearLetter, TransvectionLetter, Word,
                    check_evaluation, evaluate, expand_mu, expand_rho,
                    index1_form, invert_word, word_in_E1, word_in_ESp1)


class AlternatingForm:
    """An alternating matrix bundled with its cached Pfaffian."""

    __slots__ = ("matrix", "pfaffian_cache")
    __hash__ = None

    def __init__(self, matrix):
        if not is_alternating(matrix) or matrix.rows % 2 != 0:
            raise NotAlternating("form container needs an alternating "
                                 "matrix of even size")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pfaffian_cache", pfaffian(matrix))

    def __setattr__(self, name, value):
        raise AttributeError("forms are immutable")

    @property
    def ring(self):
        return self.matrix.ring

    @property
    def size(self):
        return self.matrix.rows

    def __repr__(self):
        return "AlternatingForm(%dx%d, pf=%r)" % (
            self.size, self.size, self.pfaffian_cache)


def _checked_block(kind, q, scalar, phi):
    fm = phi.matrix if isinstance(phi, AlternatingForm) else phi
    if q.length != fm.rows:
        raise FormMismatch("vector length %d against form size %d"
                           % (q.length, fm.rows))
    m = TransvectionLetter(kind, q, scalar, fm).matrix()
    # the form on two extra head coordinates followed by the given block
    big = block_diagonal(standard_symplectic_form(fm.ring, 1), fm)
    check_equal(m.transpose() * big * m, big,
                "transvection matrix does not preserve the extended form")
    return m


def rho_matrix(q, alpha, phi):
    """Row-type transvection matrix for the form phi, isometry-checked."""
    return _checked_block("rho", q, alpha, phi)


def mu_matrix(q, beta, phi):
    """Column-type transvection matrix for the form phi, isometry-checked."""
    return _checked_block("mu", q, beta, phi)


class _Fold:
    """Per-slot sums of a run of same-kind letters: a value and a
    certificate per slot. One uncertified summand leaves the run
    without certificates."""

    def __init__(self, ring, slots, kind):
        self.ring = ring
        self.kind = kind
        self.vals = [ring.zero] * slots
        self.certs = [None] * slots
        self.certified = True

    def add(self, slot, p, cert):
        self.vals[slot] = self.vals[slot] + p
        if cert is None:
            self.certified = False
        elif self.certs[slot] is None:
            self.certs[slot] = cert
        else:
            self.certs[slot] = self.certs[slot] + cert

    def is_zero(self):
        """True when the run sums to zero in every slot: its letter would
        be the identity, so the fold drops it."""
        return all(v.is_zero() for v in self.vals)

    def packed(self):
        """The slot certificates, empty slots zero-filled from the first
        certified slot's ideal; None for an uncertified run."""
        if not self.certified:
            return None
        zero = next(c for c in self.certs if c is not None).ideal.zero_cert()
        return tuple(zero if c is None else c for c in self.certs)


def _regroup(w, classify, new_fold):
    """Fold each maximal run of one kind into one letter.

    classify(letter, inv) gives (kind, slot, p, cert); a fold's
    letter() may drop its run by returning None.
    """
    letters = []
    fold = None
    for letter, inv in w.letters:
        kind, slot, p, cert = classify(letter, inv)
        if fold is None or fold.kind != kind:
            letters.append(None if fold is None else fold.letter())
            fold = new_fold(kind)
        fold.feed(slot, p, cert)
    letters.append(None if fold is None else fold.letter())
    result = Word(w.ring, w.size,
                  [(x, False) for x in letters if x is not None])
    check_evaluation(result, evaluate(w),
                     "regrouped word changed the evaluation")
    return result


def _spell(w, letters_of, what):
    """Concatenate letters_of(letter, inv) over the word's letters."""
    out = []
    for letter, inv in w.letters:
        out.extend(letters_of(letter, inv))
    result = Word(w.ring, w.size, out)
    check_evaluation(result, evaluate(w),
                     "%s word changed the evaluation" % (what,))
    return result


def _shear_letters(letter, inv):
    if letter.kind not in ("trans-lower", "trans-upper"):
        raise BadIndices("expected linear shear letters, got %r"
                         % (letter.kind,))
    out = []
    for idx in range(letter.vec.length):
        p = letter.vec.entry(idx + 1)
        if p.is_zero():
            continue
        c = None if letter.certs is None else letter.certs[idx]
        if c is None:
            raise NotCertified("shear parameters need certificates")
        i, j = letter.cell(idx)
        out.append((ElementaryLetter("E", letter.size, i, j, p, c), inv))
    return out


def etrans_word_to_E1(w):
    """Spell linear shear letters as certified first-index generators."""
    return _spell(w, _shear_letters, "translated")


def _linear_summand(letter, inv):
    if letter.kind != "E":
        raise BadIndices("expected linear letters, got %r" % (letter.kind,))
    if letter.j == 1 and letter.i >= 2:
        kind, slot = "trans-lower", letter.i - 2
    elif letter.i == 1 and letter.j >= 2:
        kind, slot = "trans-upper", letter.j - 2
    else:
        raise BadIndices("letters must touch the first index")
    p, c = letter.param, letter.cert
    if inv:
        p, c = -p, None if c is None else -c
    return kind, slot, p, c


class _ShearFold(_Fold):
    """A run of shear summands, one slot per vector entry; a run that
    sums to zero is dropped."""

    feed = _Fold.add

    def letter(self):
        if self.is_zero():
            return None
        return ShearLetter(self.kind, ColumnVector(self.ring, self.vals),
                           self.packed())


def E1_to_etrans(w, ideal=None):
    """Group a first-index linear word into maximal shear letters."""
    if ideal is not None and not word_in_E1(w, ideal):
        raise NotCertified("expected a certified first-index linear word")
    n = w.size - 1
    return _regroup(w, _linear_summand,
                    lambda kind: _ShearFold(w.ring, n, kind))


def _transvection_letters(letter, inv, std):
    if letter.kind not in ("rho", "mu"):
        raise BadIndices("expected transvection letters, got %r"
                         % (letter.kind,))
    if letter.form != std:
        raise NonstandardForm("expansion requires the standard form")
    sc, qc = (None, None) if letter.certs is None else letter.certs
    expand = expand_rho if letter.kind == "rho" else expand_mu
    sub = expand(letter.q, letter.scalar, sc, qc)
    return (invert_word(sub) if inv else sub).letters


def etranssp_word_to_ESp1(w):
    """Expand standard-form transvection letters into first-index words."""
    std = standard_symplectic_form(w.ring, (w.size - 2) // 2)
    return _spell(
        w, lambda letter, inv: _transvection_letters(letter, inv, std),
        "expanded")


def _symplectic_summand(letter, inv):
    """Slot 0 is the scalar, slot k the k-th vector coordinate."""
    if letter.kind != "se":
        raise BadIndices("expected symplectic letters, got %r"
                         % (letter.kind,))
    form = index1_form("se", letter.i, letter.j)
    if form is None:
        raise BadIndices("letters must touch the first index "
                         "up to the pairing swap")
    i, j, sign = form
    if inv:
        sign = -sign
    if j == 1:
        # row type: se_(i,1)(p) adds -p to the scalar or coordinate i - 2
        kind, slot, sign = "rho", (0 if i == 2 else i - 2), -sign
    elif j == 2:
        kind, slot = "mu", 0
    else:
        kind, slot = "mu", sigma(j - 2)
        if j % 2 == 0:
            sign = -sign
    p, c = letter.param, letter.cert
    if sign == -1:
        p, c = -p, None if c is None else -c
    return kind, slot, p, c


class _TransvFold(_Fold):
    """A run of rho or mu summands: slot 0 the scalar, slots 1..2n the
    vector. The composition rule is exact: adding qhat to the vector
    turns (q, s) into (q + qhat, s + q.form.qhat), which is verified a
    posteriori by evaluation. A run that sums to zero is dropped."""

    def __init__(self, ring, form_matrix, kind):
        super().__init__(ring, form_matrix.rows + 1, kind)
        self.form = form_matrix

    def feed(self, slot, p, cert):
        if slot:
            # (q^t form) at coordinate slot
            q = ColumnVector(self.ring, self.vals[1:])
            t = self.form.column(slot).dot(q)
            if not t.is_zero():
                self.add(0, t * p, None if cert is None else cert.scale(t))
        self.add(slot, p, cert)

    def letter(self):
        if self.is_zero():
            return None
        packed = self.packed()
        if packed is not None:
            packed = (packed[0], packed[1:])
        return TransvectionLetter(self.kind,
                                  ColumnVector(self.ring, self.vals[1:]),
                                  self.vals[0], self.form, packed)


def ESp1_to_etranssp(w, ideal=None):
    """Group a first-index symplectic word into transvection letters."""
    if ideal is not None and not word_in_ESp1(w, ideal):
        raise NotCertified("expected a certified first-index symplectic word")
    if w.size - 2 < 2:
        raise BadIndices("need at least one form coordinate pair")
    std = standard_symplectic_form(w.ring, (w.size - 2) // 2)
    return _regroup(w, _symplectic_summand,
                    lambda kind: _TransvFold(w.ring, std, kind))


def transport_conjugation(letter, eps, target_form=None):
    """Carry a transvection letter across a change of alternating form.

    eps is a word of linear letters one size below the form block; it
    acts through the embedding fixing the block's first coordinate.
    The result is the same kind of letter for the transformed form,
    with the vector pulled back through the inverse embedding and the
    scalar untouched. The conjugation identity is checked exactly.
    """
    if letter.kind not in ("rho", "mu"):
        raise BadIndices("expected a transvection letter, got %r"
                         % (letter.kind,))
    n2 = letter.q.length
    if eps.size != n2 - 1:
        raise FormMismatch("conjugator word of size %d for a form block "
                           "of size %d" % (eps.size, n2))
    one = identity(eps.ring, 1)
    emb = block_diagonal(one, evaluate(eps))
    emb_inv = block_diagonal(one, evaluate(invert_word(eps)))
    phi_new = emb.transpose() * letter.form * emb
    if target_form is not None:
        tm = (target_form.matrix if isinstance(target_form, AlternatingForm)
              else target_form)
        if tm != phi_new:
            raise FormRelationFails("supplied form does not match the "
                                    "transported one")
    q_new = emb_inv * letter.q
    certs = None
    if letter.certs is not None:
        sc, qc = letter.certs
        if sc is not None and all(c is not None for c in qc):
            moved = []
            for r in range(1, n2 + 1):
                acc = None
                for k in range(1, n2 + 1):
                    coeff = emb_inv.entry(r, k)
                    if coeff.is_zero():
                        continue
                    piece = qc[k - 1].scale(coeff)
                    acc = piece if acc is None else acc + piece
                moved.append(acc if acc is not None else sc.ideal.zero_cert())
            certs = (sc, tuple(moved))
    new_letter = TransvectionLetter(letter.kind, q_new, letter.scalar, phi_new,
                                    certs)
    big = block_diagonal(one, one, emb)
    big_inv = block_diagonal(one, one, emb_inv)
    check_equal(big_inv * letter.matrix() * big, new_letter.matrix(),
                "transported letter does not reproduce the conjugate")
    return new_letter


class StandardizationResult:
    """Recorded congruence word bringing the standard form to the input,
    built only after it was checked to reconstruct the input exactly."""

    __slots__ = ("eps_word", "relative")
    __hash__ = None

    def __init__(self, eps_word, relative):
        object.__setattr__(self, "eps_word", eps_word)
        object.__setattr__(self, "relative", relative)

    def __setattr__(self, name, value):
        raise AttributeError("results are immutable")

    def __repr__(self):
        return ("StandardizationResult(%d letters, relative=%r)"
                % (len(self.eps_word), self.relative))


def _local_data(ring):
    if not isinstance(ring, ZmodRing):
        raise NotLocalRing("standardization supports Z/p^k rings only")
    m = ring.m
    p = prime_of(m)
    k = 0
    t = m
    while t % p == 0:
        t //= p
        k += 1
    if t != 1:
        raise NotLocalRing("modulus %d is not a prime power" % (m,))
    return p, k


def _p_val(v, p, k):
    s = 0
    while s < k and v % p == 0:
        v //= p
        s += 1
    return s


def _member_cert(ideal, value, p, k):
    """An ideal certificate for value over Z/p^k, or None."""
    ring = ideal.ring
    v = value.payload
    if v == 0:
        return ideal.zero_cert()
    best = None
    for gi, g in enumerate(ideal.generators):
        gp = g.payload
        if gp == 0:
            continue
        t = _p_val(gp, p, k)
        if best is None or t < best[1]:
            best = (gi, t, gp)
    if best is None:
        return None
    gi, t, gp = best
    s = _p_val(v, p, k)
    if s < t:
        return None
    mod = p ** (k - t)
    c0 = ((v // p ** t) * pow(gp // p ** t, -1, mod)) % mod
    coeffs = [ring.zero] * len(ideal.generators)
    coeffs[gi] = ring.el(c0)
    cert = certify(ideal, coeffs)
    if cert.value != value:
        return None
    return cert


def standardize_alternating(phi, ideal):
    """Recorded congruence operations matching the input to the block form.

    Works over Z/p^k. The form must be alternating with Pfaffian one
    and congruent to the standard block form modulo the ideal. The
    returned word, embedded below one fixed coordinate, conjugates the
    standard form back to the input exactly; the relative flag records
    whether every letter parameter certifies into the ideal.
    """
    fm = phi.matrix
    ring = fm.ring
    if ideal.ring != ring:
        raise IdealMismatch("form and ideal live over different rings")
    p, k = _local_data(ring)
    if phi.pfaffian_cache != ring.one:
        raise PfaffianNotOne("form has Pfaffian %r" % (phi.pfaffian_cache,))
    size = phi.size
    n = size // 2
    std = standard_symplectic_form(ring, n)
    for r in range(1, size + 1):
        for c in range(r + 1, size + 1):
            d = fm.entry(r, c) - std.entry(r, c)
            if _member_cert(ideal, d, p, k) is None:
                raise NotCongruentToStandard(
                    "entry (%d, %d) is not congruent to the standard form"
                    % (r, c))

    W = [fm.row_list(r + 1) for r in range(size)]
    ops = []

    def apply_op(c, d, lam):
        # congruence op: add lam * (col c) to col d, then same for rows
        if lam.is_zero():
            return
        ops.append((c, d, lam))
        for r in range(size):
            W[r][d - 1] = W[r][d - 1] + lam * W[r][c - 1]
        for cc in range(size):
            W[d - 1][cc] = W[d - 1][cc] + lam * W[c - 1][cc]

    def is_unit(x):
        return x.payload % p != 0

    for t in range(1, n):
        a1, a2 = 2 * t - 1, 2 * t
        trailing = list(range(2 * t + 1, size + 1))

        if not is_unit(W[a1 - 1][a2 - 1]):
            for b in trailing:
                if is_unit(W[a1 - 1][b - 1]):
                    apply_op(b, a2, ring.one)
                    break
            else:
                raise NotCongruentToStandard(
                    "no unit pivot available in row %d" % (a1,))

        def clear_head_row():
            uinv = invert_unit(W[a1 - 1][a2 - 1])
            for b in trailing:
                v = W[a1 - 1][b - 1]
                if not v.is_zero():
                    apply_op(a2, b, -(v * uinv))

        clear_head_row()

        guard = 0
        while True:
            u = W[a1 - 1][a2 - 1]
            gap = u - ring.one
            if gap.is_zero():
                break
            guard += 1
            if guard > 4:
                raise VerificationFailed("pivot normalization failed to "
                                         "stabilize")
            b = trailing[0]
            # Each step (x, y) runs the sandwich x, -y/pivot, -x, which
            # takes x y off the pivot; the products x y sum to the gap.
            cert2 = _member_cert(ideal.square(), gap, p, k)
            if cert2 is None:
                steps = [(ring.one, gap)]
            else:
                gens = ideal.generators
                steps = [(gens[pi], cm * gens[qi]) for (pi, qi), cm
                         in zip(ideal.square_pairs(), cert2.coefficients)
                         if not (cm.is_zero() or gens[pi].is_zero()
                                 or gens[qi].is_zero())]
            for x, y in steps:
                lam = -y * invert_unit(W[a1 - 1][a2 - 1])
                apply_op(a2, b, x)
                apply_op(b, a2, lam)
                apply_op(a2, b, -x)
                res = W[a1 - 1][b - 1]
                if not res.is_zero():
                    apply_op(a2, b, -(res * invert_unit(W[a1 - 1][a2 - 1])))
            clear_head_row()

        guard = 0
        while True:
            dirty = False
            for b in trailing:
                v = W[a2 - 1][b - 1]
                if v.is_zero():
                    continue
                s = b + 1 if b % 2 == 1 else b - 1
                w_piv = W[s - 1][b - 1]
                if not is_unit(w_piv):
                    raise NotCongruentToStandard(
                        "partner pivot at (%d, %d) is not a unit" % (s, b))
                apply_op(s, a2, -(v * invert_unit(w_piv)))
                dirty = True
            if not dirty:
                break
            guard += 1
            if guard > 4 * k + 8:
                raise VerificationFailed("partner-row clearing failed to "
                                         "stabilize")

    check_equal(from_rows(ring, W), std,
                "working form did not reach the standard form")

    relative = True
    letters = []
    for c, d, lam in ops:
        cert = _member_cert(ideal, lam, p, k)
        if cert is None:
            relative = False
        letter = ElementaryLetter("E", size - 1, c - 1, d - 1, lam, cert)
        letters.append((letter, False))
    eps_word = invert_word(Word(ring, size - 1, letters))

    emb = block_diagonal(identity(ring, 1), evaluate(eps_word))
    check_equal(emb.transpose() * std * emb, fm,
                "recorded word does not reconstruct the input form")
    return StandardizationResult(eps_word, relative)
