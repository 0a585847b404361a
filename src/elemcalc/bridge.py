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

from math import gcd

from . import matrices
from .errors import (BadIndices, FormMismatch, FormRelationFails,
                     IdealMismatch, NotAlternating, NotCertified,
                     NotCongruentToStandard, NotLocalRing, NonstandardForm,
                     PfaffianNotOne)
from .matrices import (ColumnVector, ExactMatrix, block_diagonal,
                       check_equal, identity, is_alternating, pfaffian,
                       sigma_index as sigma, standard_symplectic_form)
from .rings import ZmodRing, certify
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
        if sc is not None and qc is not None and all(
                c is not None for c in qc):
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


def _iroot(m, k):
    """The integer k-th root of m >= 1, by Newton's method on ints."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime(n):
    """Miller-Rabin on the primes up to 41, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _local_data(ring):
    """The exponent k of a Z/p^k ring, in time polynomial in bits(p^k)."""
    if not isinstance(ring, ZmodRing):
        raise NotLocalRing("standardization supports Z/p^k rings only")
    m = ring.m
    for k in range(m.bit_length(), 0, -1):
        r = _iroot(m, k)
        if r ** k == m and _is_prime(r):
            return k
    raise NotLocalRing("modulus %d is not a prime power" % (m,))


def _member_cert(ideal, v):
    """An ideal certificate for the payload v over Z/m, or None: v over
    the first nonzero generator g of least gcd(g, m)."""
    ring = ideal.ring
    if v == 0:
        return ideal.zero_cert()
    found = [(ring.p_content(g.payload), gi)
             for gi, g in enumerate(ideal.generators) if g.payload]
    if not found or v % min(found)[0]:
        return None
    t, gi = min(found)
    gp, mod = ideal.generators[gi].payload, ring.m // t
    c0 = ((v // t) * pow(gp // t, -1, mod)) % mod
    coeffs = [ring.zero] * len(ideal.generators)
    coeffs[gi] = ring.wrap(c0)
    cert = certify(ideal, coeffs)
    return cert if cert.value.payload == v else None


def standardize_alternating(phi, ideal):
    """Recorded congruence operations matching the input to the block form.

    Works over Z/p^k. The form must be alternating with Pfaffian one
    and congruent to the standard block form modulo the ideal. The
    returned word, embedded below one fixed coordinate, conjugates the
    standard form back to the input exactly; the relative flag records
    whether every letter parameter certifies into the ideal.

    One pass, pair by pair: for each pair (2t - 1, 2t) with t < n a unit
    is moved to the pivot (2t - 1, 2t), the head row 2t - 1 is cleared
    through column 2t, the pivot is brought to one by sandwich steps
    with factors in the ideal, and for t >= 2 row 2t is cleared through
    column 2t - 1, whose pivot is -1. Each step leaves the rows already
    standard as they are. Row 2 cannot use column 1, since the word
    fixes coordinate 1, so it is cleared last through the partner rows:
    once rows 1 and 3..2n are standard, each such step changes one
    entry of row 2. Over Z/p^k a unit pivot always exists, because the
    block still to clear has Pfaffian one over a local ring.
    """
    fm = phi.matrix
    ring = fm.ring
    if ideal.ring != ring:
        raise IdealMismatch("form and ideal live over different rings")
    _local_data(ring)
    if phi.pfaffian_cache != ring.one:
        raise PfaffianNotOne("form has Pfaffian %r" % (phi.pfaffian_cache,))
    size = phi.size
    n = size // 2
    m, content, invert = ring.m, ring.p_content, ring.p_invert
    std = standard_symplectic_form(ring, n)
    S, W = std.payload_grid(), fm.payload_grid()
    # over Z/m the ideal is (g), g = gcd(m, generators)
    gens = [x.payload for x in ideal.generators]
    g = gcd(m, *gens)
    for r in range(size):
        for c in range(r + 1, size):
            if (W[r][c] - S[r][c]) % g:
                raise NotCongruentToStandard(
                    "entry (%d, %d) is not congruent to the standard form"
                    % (r + 1, c + 1))

    square = ideal.square()
    ops = []

    def apply_op(c, d, lam):
        # congruence op: add lam * (col c) to col d, then same for rows
        if not lam:
            return
        ops.append((c, d, lam))
        ring.p_column_op(W, c - 1, d - 1, lam)
        W[d - 1] = matrices._combine(m, 1, W[d - 1], lam, W[c - 1])

    for t in range(1, n):
        a1, a2 = 2 * t - 1, 2 * t
        head = W[a1 - 1]
        trailing = range(2 * t + 1, size + 1)
        if content(head[a2 - 1]) != 1:
            for b in trailing:
                if content(head[b - 1]) == 1:
                    apply_op(b, a2, 1)
                    break
            else:
                raise NotCongruentToStandard(
                    "no unit pivot available in row %d" % (a1,))
        uinv = invert(head[a2 - 1])
        for b in trailing:
            apply_op(a2, b, -head[b - 1] * uinv % m)

        gap = (head[a2 - 1] - 1) % m
        if gap:
            b = trailing[0]
            # Each step (x, y) runs the sandwich x, -y/pivot, -x, which
            # takes x y off the pivot; the products x y sum to the gap.
            cert2 = _member_cert(square, gap)
            if cert2 is None:
                steps = [(1, gap)]
            else:
                steps = [(gens[i], c.payload * gens[j] % m) for (i, j), c
                         in zip(ideal.square_pairs(), cert2.coefficients)
                         if c.payload and gens[i] and gens[j]]
            for x, y in steps:
                apply_op(a2, b, x)
                apply_op(b, a2, -y * invert(head[a2 - 1]) % m)
                apply_op(a2, b, -x % m)
                apply_op(a2, b, -head[b - 1] * invert(head[a2 - 1]) % m)

        if t > 1:
            for b in trailing:
                apply_op(a1, b, W[a2 - 1][b - 1])

    for b in range(3, size + 1):
        s = sigma(b)
        apply_op(s, 2, -W[1][b - 1] * W[s - 1][b - 1] % m)

    check_equal(ExactMatrix(ring, size, size, [x for row in W for x in row]),
                std, "working form did not reach the standard form")

    relative = True
    letters = []
    for c, d, lam in ops:
        cert = _member_cert(ideal, lam)
        if cert is None:
            relative = False
        letter = ElementaryLetter("E", size - 1, c - 1, d - 1, ring.wrap(lam),
                                  cert)
        letters.append((letter, False))
    eps_word = invert_word(Word(ring, size - 1, letters))

    emb = block_diagonal(identity(ring, 1), evaluate(eps_word))
    check_equal(emb.transpose() * std * emb, fm,
                "recorded word does not reconstruct the input form")
    return StandardizationResult(eps_word, relative)
