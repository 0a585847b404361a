"""Symbolic generator alphabet and words over it.

Three letter shapes, one class each, whose kind field names the
family: elementary letters (kind "E" for linear E_ij, "se" for
symplectic se_ij), block transvections relative to an alternating form
("rho", "mu") and linear shears ("trans-lower", "trans-upper"). This
module alone maps a kind to its cells and checks. Every letter is
1 + N with N^2 = 0, given by the few cells of N. Words are ordered
products of letters with inversion flags; evaluation is exact and
applies each letter's cells as column operations.

The coordinate pairing sigma swaps 2i-1 <-> 2i. A symplectic letter
se_ij(z) is a single off-diagonal entry when i = sigma(j) and a
symmetric pair of entries otherwise; the same matrix also equals
se_{sigma(j) sigma(i)}(-(-1)^(i+j) z), which the index-1 test exploits.
"""

from __future__ import annotations

import contextlib
import contextvars

from .errors import (BadIndices, LengthMismatch, NotAlternating,
                     NotCertified, SideConditionViolated)
from .matrices import (
    ExactMatrix,
    check_equal,
    identity,
    is_alternating,
    is_symplectic,
    sigma_index,
)

sigma = sigma_index


def symplectic_entry_pattern(i, j):
    """Cells of se_ij as ((row, col, sign), ...); sign multiplies z."""
    if i == sigma(j):
        return ((i, j, 1),)
    return ((i, j, 1), sigma_swap(i, j))


def sigma_swap(i, j):
    """The other presentation of se_ij as (sigma(j), sigma(i), sign).

    se_ij(z) = se_{sigma(j) sigma(i)}(sign z) as matrices, with
    sign = (-1)^(i+j+1).
    """
    return sigma(j), sigma(i), (1 if (i + j) % 2 == 1 else -1)


# the entry pattern of each elementary kind: E_ij is one cell, se_ij
# one cell or a sigma-symmetric pair
_ENTRY_PATTERNS = {"E": lambda i, j: ((i, j, 1),),
                   "se": symplectic_entry_pattern}


def entry_pattern(kind):
    """The function (i, j) -> cells ((row, col, sign), ...) of the
    elementary kind "E" or "se"; sign multiplies the parameter."""
    if kind not in _ENTRY_PATTERNS:
        raise BadIndices("unknown elementary kind %r" % (kind,))
    return _ENTRY_PATTERNS[kind]


def index1_form(kind, i, j):
    """(i', j', sign) with x_ij(z) = x_i'j'(sign z) and 1 in (i', j'),
    for x the elementary kind "E" or "se"; None when no presentation
    touches index 1. An se letter has a second presentation, its
    sigma_swap, so it is index-1 iff an index lies in the first pair.
    """
    if i == 1 or j == 1:
        return i, j, 1
    if kind == "se" and (sigma(i) == 1 or sigma(j) == 1):
        return sigma_swap(i, j)
    return None


def _check_cert(cert, value, what):
    if cert is not None and cert.value is not value and cert.value != value:
        raise NotCertified("certificate value does not match %s" % (what,))


def _checked_certs(vec, certs):
    """certs as a tuple, one certificate (or None) per entry of vec;
    LengthMismatch for a wrong count, NotCertified for a wrong value."""
    if certs is not None:
        certs = tuple(certs)
        if len(certs) != vec.length:
            raise LengthMismatch("%d certificates for %d entries"
                                 % (len(certs), vec.length))
        for idx, c in enumerate(certs):
            _check_cert(c, vec.entry(idx + 1), "entry %d" % (idx + 1,))
    return certs


class _Letter:
    """A letter 1 + N with N^2 = 0, given by the cells of N.

    Each shape supplies kind, size, ring and column_ops(inverted): the
    cells of N (of -N when inverted) as (row, col, payload) triples,
    ordered so that no cell's row is the column of an earlier cell.
    Applying the cells in turn as column operations then multiplies by
    the letter, and since N^2 = 0 the inverse 1 - N is the same letter
    at -N. certificates() gives the letter's certificate slots, None
    where one is missing.
    """

    __slots__ = ()
    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("letters are immutable")

    def matrix(self, inverted=False):
        """The dense matrix: the letter's cells written into the identity;
        an se letter's is checked against the standard form."""
        n = self.size
        m = list(identity(self.ring, n).payloads)
        for r, c, p in self.column_ops(inverted):
            m[(r - 1) * n + c - 1] = p
        out = ExactMatrix(self.ring, n, n, m)
        if self.kind == "se" and not is_symplectic(out):
            raise NotAlternating("symplectic generator failed its form check")
        return out


class ElementaryLetter(_Letter):
    """Identity plus param times the kind's entry pattern at (i, j):
    E_ij(param) for kind "E", se_ij(param) at even size for kind "se"."""

    __slots__ = ("kind", "size", "i", "j", "param", "cert", "_pattern")

    def __init__(self, kind, size, i, j, param, cert=None):
        pattern = entry_pattern(kind)
        if kind == "se" and size % 2 != 0:
            raise BadIndices("symplectic letters need an even size")
        if not (1 <= i <= size and 1 <= j <= size) or i == j:
            raise BadIndices("bad letter indices (%d, %d) at size %d"
                             % (i, j, size))
        _check_cert(cert, param, "the parameter")
        _set_kind(self, kind)
        _set_size(self, size)
        _set_i(self, i)
        _set_j(self, j)
        _set_param(self, param)
        _set_cert(self, cert)
        _set_pattern(self, pattern(i, j))

    @property
    def ring(self):
        return self.param.ring

    def column_ops(self, inverted=False):
        p_neg = self.ring.p_neg
        p = self.param.payload
        if inverted:
            p = p_neg(p)
        return [(r, c, p if sg == 1 else p_neg(p))
                for r, c, sg in self._pattern]

    def certificates(self):
        """The letter's certificate slots: its one parameter's."""
        return (self.cert,)

    def with_param(self, param, cert=None):
        return ElementaryLetter(self.kind, self.size, self.i, self.j, param,
                                cert)

    def is_index1(self):
        return index1_form(self.kind, self.i, self.j) is not None

    def __repr__(self):
        return "%s[%d,%d](%r)" % (self.kind, self.i, self.j, self.param)


# the slots' own setters: _Letter.__setattr__ refuses every later write
(_set_kind, _set_size, _set_i, _set_j, _set_param, _set_cert,
 _set_pattern) = [getattr(ElementaryLetter, name).__set__
                  for name in ElementaryLetter.__slots__]

class TransvectionLetter(_Letter):
    """Block transvection relative to an alternating form: row type for
    kind "rho", column type for kind "mu".

    certs is None or (scalar certificate, one certificate per entry of
    q).
    """

    __slots__ = ("kind", "q", "scalar", "form", "certs", "size")

    def __init__(self, kind, q, scalar, form, certs=None):
        if kind not in ("rho", "mu"):
            raise BadIndices("unknown transvection kind %r" % (kind,))
        if not is_alternating(form) or form.rows != q.length:
            raise NotAlternating("transvection letters need an alternating "
                                 "form matching the vector length")
        scalar = q.ring.el(scalar)
        if certs is not None:
            sc, qcs = certs
            _check_cert(sc, scalar, "the scalar")
            certs = (sc, _checked_certs(q, qcs))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "certs", certs)
        object.__setattr__(self, "size", q.length + 2)

    @property
    def ring(self):
        return self.q.ring

    def certificates(self):
        """The letter's certificate slots, None where one is missing:
        the scalar's, then one per entry of q."""
        if self.certs is None:
            return (None,)
        sc, qcs = self.certs
        return (sc,) + ((None,) if qcs is None else qcs)

    def column_ops(self, inverted=False):
        # rho: N is -q down tail column 1, then (-scalar, q^t form)
        # along head row 2; mu: -q down column 2, then (scalar,
        # -q^t form) along row 1. The one entry of N^2 that can be
        # nonzero is +-q^t form q, which vanishes because the form is
        # alternating; -N is the letter at -q and -scalar.
        p_neg = self.ring.p_neg
        q, s = self.q, self.scalar.payload
        if inverted:
            q, s = -q, p_neg(s)
        qp, qf = q.payloads, (q.transpose() * self.form).payloads
        if self.kind == "rho":
            head, tail, s = 2, 1, p_neg(s)
        else:
            head, tail, qf = 1, 2, [p_neg(x) for x in qf]
        ops = [(ell + 3, tail, p_neg(x)) for ell, x in enumerate(qp)]
        ops.append((head, tail, s))
        ops.extend((head, ell + 3, x) for ell, x in enumerate(qf))
        return ops

    def __repr__(self):
        return "%s(%r, %r)" % (self.kind, self.q, self.scalar)


class ShearLetter(_Letter):
    """Linear shear between the head coordinate 1 and the tail 2..n+1.

    Kind "trans-lower" is the tail shear (a, p) -> (a, p + a*vec), entry
    idx (0-based) of vec in cell (idx + 2, 1); kind "trans-upper" the
    head shear (a, p) -> (a + vec.p, p), cell (1, idx + 2).
    """

    __slots__ = ("kind", "vec", "certs", "size")

    def __init__(self, kind, vec, certs=None):
        if kind not in ("trans-lower", "trans-upper"):
            raise BadIndices("unknown shear kind %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "certs", _checked_certs(vec, certs))
        object.__setattr__(self, "size", vec.length + 1)

    @property
    def ring(self):
        return self.vec.ring

    def certificates(self):
        """The letter's certificate slots, one per entry of vec; None
        where one is missing."""
        return (None,) if self.certs is None else self.certs

    def cell(self, idx):
        return (idx + 2, 1) if self.kind == "trans-lower" else (1, idx + 2)

    def column_ops(self, inverted=False):
        ring = self.ring
        ops = []
        for idx, p in enumerate(self.vec.payloads):
            if ring.p_is_zero(p):
                continue
            ops.append(self.cell(idx) + (ring.p_neg(p) if inverted else p,))
        return ops

    def __repr__(self):
        return "%s(%r)" % (self.kind.replace("trans", "shear"), self.vec)


def LinLetter(size, i, j, param, cert=None):
    """Linear elementary generator E_ij(param) at matrix size n."""
    return ElementaryLetter("E", size, i, j, param, cert)


def SympLetter(size, i, j, param, cert=None):
    """Symplectic elementary generator se_ij(param) at even size."""
    return ElementaryLetter("se", size, i, j, param, cert)


def RhoLetter(q, alpha, form, certs=None):
    """Row-type transvection relative to an alternating form."""
    return TransvectionLetter("rho", q, alpha, form, certs)


def MuLetter(q, beta, form, certs=None):
    """Column-type transvection relative to an alternating form."""
    return TransvectionLetter("mu", q, beta, form, certs)


def LowerTransLetter(vec, certs=None):
    """Tail shear (a, p) -> (a, p + a*vec) as a word letter."""
    return ShearLetter("trans-lower", vec, certs)


def UpperTransLetter(vec, certs=None):
    """Head shear (a, p) -> (a + vec.p, p) as a word letter."""
    return ShearLetter("trans-upper", vec, certs)


class Word:
    """Ordered product of letters, each with an inversion flag.

    Words are immutable, and so are their letters: evaluate stores a
    word's value in it on the first call and returns it on later ones.
    A word built by w * v or w.append(...) also keeps its longest prefix
    whose value was stored when it was built, so evaluate applies only
    the letters after that prefix.
    """

    __slots__ = ("ring", "size", "letters", "_value", "_prefix")
    __hash__ = None

    def __init__(self, ring, size, letters=()):
        letters = tuple(letters)
        for letter, inv in letters:
            if letter.size != size:
                raise BadIndices("letter size %d in word of size %d"
                                 % (letter.size, size))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_value", None)
        object.__setattr__(self, "_prefix", None)

    def __setattr__(self, name, value):
        raise AttributeError("words are immutable")

    def __len__(self):
        return len(self.letters)

    def _extended(self, letters):
        # self's letters then the already validated letters, with no
        # per-letter size check; the prefix is self once evaluated
        out = object.__new__(Word)
        object.__setattr__(out, "ring", self.ring)
        object.__setattr__(out, "size", self.size)
        object.__setattr__(out, "letters", self.letters + letters)
        object.__setattr__(out, "_value", None)
        object.__setattr__(out, "_prefix", self if self._value is not None
                           else self._prefix)
        return out

    def __mul__(self, other):
        if isinstance(other, Word):
            if other.size != self.size or other.ring != self.ring:
                raise BadIndices("cannot concatenate words of different shape")
            if not other.letters:
                return self
            if not self.letters:
                return other
            return self._extended(other.letters)
        return NotImplemented

    def append(self, letter, inverted=False):
        if letter.size != self.size:
            raise BadIndices("letter size %d in word of size %d"
                             % (letter.size, self.size))
        return self._extended(((letter, inverted),))

    def __repr__(self):
        parts = []
        for letter, inv in self.letters:
            parts.append(repr(letter) + ("^-1" if inv else ""))
        return " . ".join(parts) if parts else "1"


def word(ring, size, *letters):
    """Convenience constructor; bare letters mean uninverted."""
    out = []
    for item in letters:
        if isinstance(item, tuple):
            out.append(item)
        else:
            out.append((item, False))
    return Word(ring, size, out)


def evaluate(w):
    """Exact ordered product of a word's letters: each letter's cells
    applied in turn as column operations, one call of the ring's
    p_column_op kernel per nonzero cell. The product is stored in w,
    so a later call returns the same matrix without recomputing it.
    When w keeps a prefix with a stored value, the operations resume
    from that value and apply only the letters after the prefix."""
    if w._value is not None:
        return w._value
    ring = w.ring
    n = w.size
    prefix = w._prefix
    if prefix is None:
        grid, letters = identity(ring, n).payload_grid(), w.letters
    else:
        grid, letters = prefix._value.payload_grid(), w.letters[len(prefix):]
    column_op, p_is_zero = ring.p_column_op, ring.p_is_zero
    for letter, inv in letters:
        for src, dst, cp in letter.column_ops(inv):
            if not p_is_zero(cp):
                column_op(grid, src - 1, dst - 1, cp)
    value = ExactMatrix(ring, n, n, [p for row in grid for p in row])
    object.__setattr__(w, "_value", value)
    object.__setattr__(w, "_prefix", None)
    return value


def check_evaluation(w, want, what):
    """Evaluate w once and compare it with the matrix want.

    Returns the evaluated matrix; raises VerificationFailed naming what
    and the first differing entry when the two disagree.
    """
    return check_equal(evaluate(w), want, what)


_EVENTS = contextvars.ContextVar("events", default=None)


@contextlib.contextmanager
def recording():
    """Collect the (stage, detail) events noted inside the block.

    Yields the event list; the recording closes on exit, also on error,
    and an inner recording hides the outer one until it closes.
    """
    events = []
    token = _EVENTS.set(events)
    try:
        yield events
    finally:
        _EVENTS.reset(token)


def note(stage, detail, *args):
    """Append (stage, detail % args) to the open recording, if any;
    outside a recording detail is never formatted."""
    events = _EVENTS.get()
    if events is not None:
        events.append((stage, detail % args))


def invert_word(w):
    """Reverse the word and flip every inversion flag."""
    return Word(w.ring, w.size,
                tuple((letter, not inv) for letter, inv in reversed(w.letters)))


def conjugate_word(g, w):
    """The word g . w . g^-1."""
    return g * w * invert_word(g)


def commutator_word(a, b):
    """The word a . b . a^-1 . b^-1."""
    return a * b * invert_word(a) * invert_word(b)


def _letter_certified(letter, ideal):
    # the constructors already checked each certificate's value
    return all(cert is not None and (ideal is None or cert.ideal == ideal)
               and cert.check() for cert in letter.certificates())


def _index1_certified(w, ideal, kind):
    return all(letter.kind == kind and letter.is_index1()
               and _letter_certified(letter, ideal)
               for letter, inv in w.letters)


def word_in_E1(w, ideal):
    """All letters linear, index-1, and certified in the given ideal."""
    return _index1_certified(w, ideal, "E")


def word_in_ESp1(w, ideal):
    """All letters symplectic, index-1 up to the sigma identification,
    and certified in the given ideal."""
    return _index1_certified(w, ideal, "se")


def word_certified(w, ideal=None):
    """Every certificate slot of every letter holds a valid certificate
    (optionally over ideal): an elementary letter's parameter, a
    transvection's scalar and each entry of its q, each entry of a
    shear's vector."""
    return all(_letter_certified(letter, ideal) for letter, inv in w.letters)


def _expand(kind, q, scalar, scalar_cert, q_certs):
    """Word of first-index symplectic letters equal to the rho or mu
    letter (q, scalar) relative to the standard form: q has even length
    2n and the word lives at size 2n + 2. When the optional certificates
    are supplied they propagate to every letter; the head letter, which
    mixes the scalar with q, is certified only when both are.
    LengthMismatch unless q_certs has one entry per entry of q,
    NotCertified when one of them certifies another value.
    """
    ring = q.ring
    n2 = q.length
    if n2 % 2 != 0:
        raise BadIndices("transvection vector length must be even")
    q_certs = _checked_certs(q, q_certs)
    rho = kind == "rho"
    if q_certs is None or any(c is None for c in q_certs):
        scalar_cert = None
    head, head_cert = ring.el(scalar), scalar_cert
    if rho:
        head, head_cert = -head, None if head_cert is None else -head_cert
    for k in range(1, n2 // 2 + 1):
        x = q.entry(2 * k - 1)
        head = head + x * q.entry(2 * k)
        if head_cert is not None:
            head_cert = head_cert + q_certs[2 * k - 1].scale(x)
    size = n2 + 2
    cells = [((2, 1) if rho else (1, 2), head, head_cert)]
    for i in range(3, size + 1):
        # rho: se_i1(-q_(i-2)); mu: se_1i(q_sigma(i-2)), negated at even i
        src = i - 2 if rho else sigma(i - 2)
        p, c = q.entry(src), None if q_certs is None else q_certs[src - 1]
        if rho or i % 2 == 0:
            p, c = -p, None if c is None else -c
        cells.append(((i, 1) if rho else (1, i), p, c))
    return Word(ring, size, [(ElementaryLetter("se", size, *cell, p, c), False)
                             for cell, p, c in cells if not p.is_zero()])


def expand_rho(q, alpha, alpha_cert=None, q_certs=None):
    """Word of symplectic letters equal to the row-type transvection
    relative to the standard form."""
    return _expand("rho", q, alpha, alpha_cert, q_certs)


def expand_mu(q, beta, beta_cert=None, q_certs=None):
    """Word of symplectic letters equal to the column-type transvection
    relative to the standard form."""
    return _expand("mu", q, beta, beta_cert, q_certs)


_LINEAR_TAG = "linear"
_LONG_TAG = "symplectic-long"
_SHORT_TAG = "symplectic-short"
_MIXED_TAG = "symplectic-mixed"
_DISJOINT_TAG = "symplectic-disjoint"

RELATION_TAGS = (_LINEAR_TAG, _LONG_TAG, _SHORT_TAG, _MIXED_TAG, _DISJOINT_TAG)


def check_relation(tag, ring, n, indices, a, b):
    """Exact two-sided check of one commutator relation family.

    indices supplies the free indices of the family: (i, j, k) for the
    linear, long and short families, (i, j) for the mixed family, and
    (i, j, k, l) for the disjointness family. Side conditions are
    enforced and violations raise SideConditionViolated.
    """
    a = ring.el(a)
    b = ring.el(b)
    size = n if tag == _LINEAR_TAG else 2 * n
    if tag == _LINEAR_TAG:
        i, j, k = indices
        if len({i, j, k}) != 3:
            raise SideConditionViolated("linear relation needs distinct indices")
        A, B = LinLetter(n, i, j, a), LinLetter(n, j, k, b)
        rhs = (LinLetter(n, i, k, a * b),)
    elif tag == _LONG_TAG:
        i, j, k = indices
        if i == j or i == sigma(j):
            raise SideConditionViolated("need i distinct from j and sigma(j)")
        if k in (sigma(i), sigma(j), i, j):
            raise SideConditionViolated("need k clear of i, j and their partners")
        A, B = SympLetter(size, i, k, a), SympLetter(size, k, j, b)
        rhs = (SympLetter(size, i, j, a * b),)
    elif tag == _SHORT_TAG:
        i, j, k = indices
        if j != sigma(i):
            raise SideConditionViolated("short family needs j = sigma(i)")
        if k in (i, sigma(i)):
            raise SideConditionViolated("need k clear of i and sigma(i)")
        A, B = SympLetter(size, i, k, a), SympLetter(size, k, sigma(i), b)
        rhs = (SympLetter(size, i, sigma(i), 2 * a * b),)
    elif tag == _MIXED_TAG:
        i, j = indices[:2]
        if i == j or i == sigma(j):
            raise SideConditionViolated("need i distinct from j and sigma(j)")
        A = SympLetter(size, i, sigma(i), a)
        B = SympLetter(size, sigma(i), j, b)
        corr = a * b * b if (i + j) % 2 == 0 else -(a * b * b)
        rhs = (SympLetter(size, i, j, a * b),
               SympLetter(size, sigma(j), j, corr))
    elif tag == _DISJOINT_TAG:
        i, j, k, l = indices
        if i == j or k == l:
            raise SideConditionViolated("degenerate letters")
        if i in (l, sigma(k)) or j in (k, sigma(l)):
            raise SideConditionViolated("supports are not disjoint")
        A, B = SympLetter(size, i, j, a), SympLetter(size, k, l, b)
        rhs = ()
    else:
        raise SideConditionViolated("unknown relation tag %r" % (tag,))
    lhs = evaluate(commutator_word(word(ring, size, A), word(ring, size, B)))
    return lhs == evaluate(word(ring, size, *rhs))
