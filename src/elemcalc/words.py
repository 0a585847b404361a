"""Symbolic generator alphabet and words over it.

Three letter families: elementary letters (linear E_ij and symplectic
se_ij), the block transvections rho and mu relative to an alternating
form, and the linear shears of the bridge module. Every letter is
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

from .errors import (BadIndices, NonstandardForm, NotAlternating,
                     SideConditionViolated)
from .matrices import (
    ExactMatrix,
    check_equal,
    identity,
    is_alternating,
    is_symplectic,
    sigma_index,
    standard_symplectic_form,
)

sigma = sigma_index


def symplectic_entry_pattern(i, j):
    """Cells of se_ij as ((row, col, sign), ...); sign multiplies z."""
    if i == sigma(j):
        return ((i, j, 1),)
    return ((i, j, 1), sigma_swap(i, j))


class _Letter:
    """A letter 1 + N with N^2 = 0, given by the cells of N.

    Subclasses supply size, ring and column_ops(inverted): the cells of
    N (of -N when inverted) as (row, col, payload) triples, ordered so
    that no cell's row is the column of an earlier cell. Applying the
    cells in turn as column operations then multiplies by the letter,
    and since N^2 = 0 the inverse 1 - N is the same letter at -N.
    """

    __slots__ = ()
    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("letters are immutable")

    def matrix(self, inverted=False):
        """The dense matrix: the letter's cells written into the identity."""
        n = self.size
        m = list(identity(self.ring, n).payloads)
        for r, c, p in self.column_ops(inverted):
            m[(r - 1) * n + c - 1] = p
        return ExactMatrix(self.ring, n, n, m)


class _ElementaryLetter(_Letter):
    """Identity plus param times the class's entry pattern at (i, j).

    Subclasses supply kind, entry_pattern(i, j) and index1_form(i, j).
    """

    __slots__ = ("size", "i", "j", "param", "cert", "_pattern")

    def __init__(self, size, i, j, param, cert=None):
        if not (1 <= i <= size and 1 <= j <= size) or i == j:
            raise BadIndices("bad letter indices (%d, %d) at size %d"
                             % (i, j, size))
        if cert is not None and cert.value != param:
            raise BadIndices("certificate value does not match parameter")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "cert", cert)
        object.__setattr__(self, "_pattern", self.entry_pattern(i, j))

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

    def with_param(self, param, cert=None):
        return type(self)(self.size, self.i, self.j, param, cert)

    def is_index1(self):
        return self.index1_form(self.i, self.j) is not None

    def __repr__(self):
        return "%s[%d,%d](%r)" % (self.kind, self.i, self.j, self.param)


class LinLetter(_ElementaryLetter):
    """Linear elementary generator E_ij(param) at matrix size n."""

    kind = "E"
    __slots__ = ()

    @staticmethod
    def entry_pattern(i, j):
        return ((i, j, 1),)

    @staticmethod
    def index1_form(i, j):
        """(i, j, 1) when the letter touches index 1, else None."""
        return (i, j, 1) if i == 1 or j == 1 else None


def sigma_swap(i, j):
    """The other presentation of se_ij as (sigma(j), sigma(i), sign).

    se_ij(z) = se_{sigma(j) sigma(i)}(sign z) as matrices, with
    sign = (-1)^(i+j+1).
    """
    return sigma(j), sigma(i), (1 if (i + j) % 2 == 1 else -1)


class SympLetter(_ElementaryLetter):
    """Symplectic elementary generator se_ij(param) at even size."""

    kind = "se"
    __slots__ = ()
    entry_pattern = staticmethod(symplectic_entry_pattern)

    def __init__(self, size, i, j, param, cert=None):
        if size % 2 != 0:
            raise BadIndices("symplectic letters need an even size")
        super().__init__(size, i, j, param, cert)

    def matrix(self, inverted=False):
        out = super().matrix(inverted)
        if not is_symplectic(out):
            raise NotAlternating("symplectic generator failed its form check")
        return out

    @staticmethod
    def index1_form(i, j):
        """(i', j', sign) with se_ij(z) = se_i'j'(sign z) and 1 in (i', j').

        None when neither presentation touches index 1: the letter is
        index-1 up to sigma iff an index lies in the first pair.
        """
        if i == 1 or j == 1:
            return i, j, 1
        if sigma(i) == 1 or sigma(j) == 1:
            return sigma_swap(i, j)
        return None


class _TransvectionLetter(_Letter):
    """Block transvection relative to an alternating form.

    Subclasses supply kind and row_kind (row type rho or column type
    mu) and name the scalar: alpha for rho, beta for mu.
    """

    __slots__ = ("q", "scalar", "form", "certs", "size")

    def __init__(self, q, scalar, form, certs=None):
        if not is_alternating(form) or form.rows != q.length:
            raise NotAlternating("transvection letters need an alternating "
                                 "form matching the vector length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "scalar", q.ring.el(scalar))
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "certs", certs)
        object.__setattr__(self, "size", q.length + 2)

    @property
    def ring(self):
        return self.q.ring

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
        if self.row_kind:
            head, tail, s = 2, 1, p_neg(s)
        else:
            head, tail, qf = 1, 2, [p_neg(x) for x in qf]
        ops = [(ell + 3, tail, p_neg(x)) for ell, x in enumerate(qp)]
        ops.append((head, tail, s))
        ops.extend((head, ell + 3, x) for ell, x in enumerate(qf))
        return ops

    def __repr__(self):
        return "%s(%r, %r)" % (self.kind, self.q, self.scalar)


class RhoLetter(_TransvectionLetter):
    """Row-type transvection relative to an alternating form."""

    kind = "rho"
    row_kind = True
    __slots__ = ()

    def __init__(self, q, alpha, form, certs=None):
        super().__init__(q, alpha, form, certs)

    @property
    def alpha(self):
        return self.scalar


class MuLetter(_TransvectionLetter):
    """Column-type transvection relative to an alternating form."""

    kind = "mu"
    row_kind = False
    __slots__ = ()

    def __init__(self, q, beta, form, certs=None):
        super().__init__(q, beta, form, certs)

    @property
    def beta(self):
        return self.scalar


class Word:
    """Ordered product of letters, each with an inversion flag."""

    __slots__ = ("ring", "size", "letters")
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

    def __setattr__(self, name, value):
        raise AttributeError("words are immutable")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if isinstance(other, Word):
            if other.size != self.size or other.ring != self.ring:
                raise BadIndices("cannot concatenate words of different shape")
            return Word(self.ring, self.size, self.letters + other.letters)
        return NotImplemented

    def append(self, letter, inverted=False):
        return Word(self.ring, self.size,
                    self.letters + ((letter, inverted),))

    def __iter__(self):
        return iter(self.letters)

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
    applied in turn as column operations."""
    ring = w.ring
    n = w.size
    grid = identity(ring, n).payload_grid()
    p_add, p_mul, p_is_zero = ring.p_add, ring.p_mul, ring.p_is_zero
    for letter, inv in w.letters:
        for src, dst, cp in letter.column_ops(inv):
            if p_is_zero(cp):
                continue
            s, d = src - 1, dst - 1
            for row in grid:
                gs = row[s]
                if not p_is_zero(gs):
                    row[d] = p_add(row[d], p_mul(gs, cp))
    return ExactMatrix(ring, n, n, [p for row in grid for p in row])


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
    cert = letter.cert
    return (cert is not None and (ideal is None or cert.ideal == ideal)
            and cert.check() and cert.value == letter.param)


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
    """Every letter carries a valid certificate (optionally over ideal)."""
    return all(_letter_certified(letter, ideal) for letter, inv in w.letters)


def _expansion_head(q, head, head_cert, q_certs, form):
    """head + sum_k q_(2k-1) q_(2k), with its certificate when head_cert
    is given; checks that q has even length and form is standard."""
    ring = q.ring
    n2 = q.length
    if n2 % 2 != 0:
        raise BadIndices("transvection vector length must be even")
    if form is not None and form != standard_symplectic_form(ring, n2 // 2):
        raise NonstandardForm("expansion requires the standard form")
    for k in range(1, n2 // 2 + 1):
        head = head + q.entry(2 * k - 1) * q.entry(2 * k)
        if head_cert is not None:
            head_cert = head_cert + q_certs[2 * k - 1].scale(q.entry(2 * k - 1))
    return head, head_cert


def expand_rho(q, alpha, alpha_cert=None, q_certs=None, form=None):
    """Word of symplectic letters equal to the row-type transvection.

    q has even length 2n; the word lives at size 2n + 2. When the
    optional certificates are supplied they propagate to every letter.
    The expansion is only valid for the standard form.
    """
    ring = q.ring
    size = q.length + 2
    head, head_cert = _expansion_head(
        q, -ring.el(alpha), None if alpha_cert is None else -alpha_cert,
        q_certs, form)
    letters = []
    if not head.is_zero():
        letters.append((SympLetter(size, 2, 1, head, head_cert), False))
    for i in range(3, size + 1):
        p = -q.entry(i - 2)
        if p.is_zero():
            continue
        c = None if q_certs is None else -q_certs[i - 3]
        letters.append((SympLetter(size, i, 1, p, c), False))
    return Word(ring, size, letters)


def expand_mu(q, beta, beta_cert=None, q_certs=None, form=None):
    """Word of symplectic letters equal to the column-type transvection."""
    ring = q.ring
    size = q.length + 2
    head, head_cert = _expansion_head(q, ring.el(beta), beta_cert, q_certs,
                                      form)
    letters = []
    if not head.is_zero():
        letters.append((SympLetter(size, 1, 2, head, head_cert), False))
    for i in range(3, size + 1):
        sgn = 1 if (i + 1) % 2 == 0 else -1
        qv = q.entry(sigma(i - 2))
        p = qv if sgn == 1 else -qv
        if p.is_zero():
            continue
        c = None
        if q_certs is not None:
            c = q_certs[sigma(i - 2) - 1]
            if sgn == -1:
                c = -c
        letters.append((SympLetter(size, 1, i, p, c), False))
    return Word(ring, size, letters)


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
