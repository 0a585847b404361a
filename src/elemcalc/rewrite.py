"""Conjugation rewriting over polynomial parameters.

Two layers live here. The inclusion primitives turn a single generator
whose parameter is certified in the ideal of pairwise products into a
short word of generators with plain ideal certificates, using nothing
but the commutator relations. The rewriter proper takes a conjugating
word whose parameters carry a power of the variable Y and rewrites the
conjugate of a first-index generator as a product of first-index
generators again, with every parameter divisible by Y; iterating it
trades conjugators for fourth powers of Y. Each conjugating letter is one
level: the derived word of the letters inside it, conjugated by it, is
peeled into first-index generators once, so the output does not
multiply per letter.
"""

from __future__ import annotations

from .errors import (
    BadIndices,
    DimensionTooSmall,
    IdealMismatch,
    NotCertified,
    SideConditionViolated,
    UnknownVariable,
    VerificationFailed,
)
from .matrices import sigma_index as sigma
from .rings import PolyRing, half, square_factors, substitute
from .words import (
    ElementaryLetter,
    Word,
    check_evaluation,
    conjugate_word,
    entry_pattern,
    evaluate,
    index1_form,
    note,
    recording,
    word_in_E1,
    word_in_ESp1,
)

_YVAR = "Y"


def _single_letter_cert(p):
    """Fold a pairwise-product certificate into a plain one."""
    cert = p.ideal.base.zero_cert()
    for x, y in square_factors(p):
        cert = cert + y.scale(x.value)
    return cert


def _include_I2(kind, size, i, j, p):
    """Each product term of p becomes the corner commutator
    [x_i1(x), x_1j(y)]; a symplectic target at (i, sigma(i)) takes
    y / 2, since that commutator doubles its entry."""
    ring = p.ideal.base.ring
    if i == j or not (1 <= i <= size and 1 <= j <= size):
        raise BadIndices("bad letter indices (%d, %d)" % (i, j))
    if index1_form(kind, i, j) is not None:
        if p.value.is_zero():
            return Word(ring, size)
        cert = _single_letter_cert(p)
        return Word(ring, size, ((ElementaryLetter(
            kind, size, i, j, cert.value, cert), False),))
    h = half(ring) if kind == "se" and j == sigma(i) else None
    letters = []
    for x, y in square_factors(p):
        if h is not None:
            y = y.scale(h)
        a = ElementaryLetter(kind, size, i, 1, x.value, x)
        b = ElementaryLetter(kind, size, 1, j, y.value, y)
        letters += [(a, False), (b, False), (a, True), (b, True)]
    return Word(ring, size, letters)


def include_I2_linear(n, i, j, p):
    """Word of ideal-certified letters equal to E_ij(p) for p a sum
    of pairwise products of ideal generators.

    When neither index is 1 each product term becomes a four-letter
    commutator through the corner; otherwise one letter suffices.
    """
    return _include_I2("E", n, i, j, p)


def include_I2_symplectic(n, i, j, p):
    """Word of ideal-certified letters equal to se_ij(p) for p a sum
    of pairwise products of ideal generators.

    Letters touching the first coordinate pair stay single; short
    targets split through the corner with a halved factor, long targets
    through the plain corner commutator. Needs n >= 2 and, for short
    targets, 2 a unit.
    """
    if n < 2:
        raise DimensionTooSmall("inclusion needs at least two pairs")
    return _include_I2("se", 2 * n, i, j, p)


# ---------------------------------------------------------------------------
# Tracked parameters.
#
# Every quantity the rewriter manipulates is a sum of terms of the form
#     coeff * Y^e * atom_1 * ... * atom_k
# where each atom is a certified element whose value does not involve Y
# and coeff is a Y-free ring element (integers, signs, powers of 1/2,
# values of other atoms).  Keeping parameters factored this way is what
# lets a commutator split hand each half its own certificate and its own
# positive power of Y.  Atoms hash and compare by identity (a certified
# element defines no __eq__): term merging and the substitution memo key
# on the atom objects themselves.
#
# Values are carried, not recomputed: a term derived from known values
# (a sign, a scale, a product, a Y-shift, a merge) gets its value from
# theirs by one ring operation, which distributivity makes equal to its
# factors multiplied out; only terms with new atoms (a split, a Y -> Y^4
# substitution) multiply their factors out.  A sum caches its total.


class _Term:
    __slots__ = ("ring", "y_exp", "atoms", "coeff", "_value")

    def __init__(self, ring, y_exp, atoms, coeff, value=None):
        self.ring = ring
        self.y_exp = y_exp
        self.atoms = tuple(atoms)
        self.coeff = coeff
        self._value = value

    def value(self):
        if self._value is None:
            acc = self.coeff * self.ring.var(_YVAR, self.y_exp)
            for a in self.atoms:
                acc = acc * a.value
            self._value = acc
        return self._value

    def cert(self):
        if not self.atoms:
            raise VerificationFailed(
                "parameter term without a certified factor")
        rest = self.coeff * self.ring.var(_YVAR, self.y_exp)
        for a in self.atoms[1:]:
            rest = rest * a.value
        return self.atoms[0].scale(rest)

    def times(self, other):
        return _Term(self.ring, self.y_exp + other.y_exp,
                     self.atoms + other.atoms, self.coeff * other.coeff,
                     self.value() * other.value())

    def scaled(self, r):
        return _Term(self.ring, self.y_exp, self.atoms, self.coeff * r,
                     self.value() * r)

    def neg(self):
        return _Term(self.ring, self.y_exp, self.atoms, -self.coeff,
                     -self.value())

    def subst_y4(self, memo):
        ring = self.ring
        y4 = ring.var(_YVAR, 4)
        atoms = []
        for a in self.atoms:
            got = memo.get(a)
            if got is None:
                got = memo[a] = a.substitute({_YVAR: y4})
            atoms.append(got)
        return _Term(ring, 4 * self.y_exp, atoms, self.coeff)


class _TPoly:
    __slots__ = ("ring", "terms", "_value")

    def __init__(self, ring, terms=()):
        merged = {}
        cancelled = False
        for t in terms:
            value = t.value()
            if value.is_zero():
                continue
            key = (t.y_exp, t.atoms)
            old = merged.get(key)
            if old is not None:
                value = old.value() + value
                cancelled = cancelled or value.is_zero()
                t = _Term(ring, t.y_exp, t.atoms, old.coeff + t.coeff, value)
            merged[key] = t
        self.ring = ring
        self.terms = tuple(t for t in merged.values()
                           if not (cancelled and t.value().is_zero()))
        self._value = None

    @classmethod
    def _merged(cls, ring, terms):
        """Terms already distinct and nonzero (merged terms under a sign,
        a Y-shift, Y -> Y^4 or a selection), kept as they are."""
        out = cls.__new__(cls)
        out.ring, out.terms, out._value = ring, tuple(terms), None
        return out

    def value(self):
        if self._value is None:
            acc = self.ring.zero
            for t in self.terms:
                acc = acc + t.value()
            self._value = acc
        return self._value

    def cert(self):
        acc = None
        for t in self.terms:
            c = t.cert()
            acc = c if acc is None else acc + c
        return acc

    def is_zero(self):
        return self.value().is_zero()

    def plus(self, other, total=None):
        """self + other; total, when known, is the sum of their values."""
        out = _TPoly(self.ring, self.terms + other.terms)
        out._value = total
        return out

    def times(self, other):
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(a.times(b))
        return _TPoly(self.ring, out)

    def neg(self):
        return _TPoly._merged(self.ring, [t.neg() for t in self.terms])

    def scaled(self, r):
        return _TPoly(self.ring, [t.scaled(r) for t in self.terms])

    def with_extra_y(self, d):
        y_d = self.ring.var(_YVAR, d)
        return _TPoly._merged(self.ring, [
            _Term(self.ring, t.y_exp + d, t.atoms, t.coeff, t.value() * y_d)
            for t in self.terms])

    def subst_y4(self, memo):
        return _TPoly._merged(self.ring,
                              [t.subst_y4(memo) for t in self.terms])

    def graded(self, nu):
        part = [t for t in self.terms if t.y_exp == nu]
        if len(part) == len(self.terms):
            return self
        return _TPoly._merged(self.ring, part)


# ---------------------------------------------------------------------------
# Sparse unipotent residuals.


class _Grid:
    """A unipotent matrix I + sum_{(p,q)} poly_{pq} e_{pq}, cells tracked."""

    __slots__ = ("ring", "size", "cells")

    def __init__(self, ring, size):
        self.ring = ring
        self.size = size
        self.cells = {}

    def add(self, cell, poly):
        old = self.cells.get(cell)
        total = poly.value() if old is None else old.value() + poly.value()
        if total.is_zero():
            self.cells.pop(cell, None)
        else:
            self.cells[cell] = poly if old is None else old.plus(poly, total)

    def _lam(self, pattern, poly, invert):
        lam = {}
        for r, c, sg in pattern:
            lam[(r, c)] = poly if (sg == 1) != invert else poly.neg()
        return lam

    def mul_letter_left(self, pattern, poly, invert=False):
        """self := (I + Lambda) * self."""
        lam = self._lam(pattern, poly, invert)
        old = dict(self.cells)
        for cell, p in lam.items():
            self.add(cell, p)
        for (r, t), p in lam.items():
            for (t2, q), d in old.items():
                if t == t2:
                    self.add((r, q), p.times(d))

    def mul_letter_right(self, pattern, poly, invert=False):
        """self := self * (I + Lambda)."""
        lam = self._lam(pattern, poly, invert)
        old = dict(self.cells)
        for cell, p in lam.items():
            self.add(cell, p)
        for (r, t), d in old.items():
            for (t2, q), p in lam.items():
                if t == t2:
                    self.add((r, q), d.times(p))

    def lowest_layer(self):
        """{cell: grade-nu part} for the lowest Y-grade nu whose terms
        do not cancel in some cell. Terms with other factors can sum to
        zero (18X + 9X over Z/27) yet stay apart, so the lowest exponent
        present need not be that grade."""
        grades = {t.y_exp for p in self.cells.values() for t in p.terms}
        for nu in sorted(grades):
            comp = {}
            for cell, poly in self.cells.items():
                g = poly.graded(nu)
                if not g.is_zero():
                    comp[cell] = g
            if comp:
                return comp


# ---------------------------------------------------------------------------
# One letter alphabet, its kind held as data.


class _System:
    """The elementary letters of kind "E" or "se": their entry pattern
    and index-1 presentations come from words; name labels the trace
    and the check messages; half (None for "E") halves the right factor
    of a commutator at a short cell (q = sigma(p)), whose commutator
    doubles its entry."""

    def __init__(self, kind, ring, size):
        self.kind = kind
        self.ring = ring
        self.size = size
        self.name = "linear" if kind == "E" else "symplectic"
        self.pattern = entry_pattern(kind)
        self.half = None if kind == "E" else half(ring)

    def diag_records(self, comp):
        """Records cancelling the diagonal of a graded layer: the
        kind's solver picks each commutator cell (d, d) and its product
        uv, and _emit_cell splits it."""
        diag = {p: poly for (p, q), poly in comp.items() if p == q}
        solve = _linear_diag if self.kind == "E" else _symplectic_diag
        records = []
        for d, poly in solve(self, diag):
            _emit_cell(self, d, d, poly, records)
        return records


def _linear_diag(system, diag):
    # [E_d1(u), E_1d(v)] contributes uv (e_dd - e_11); the graded
    # layer is trace free, so clearing every d >= 2 clears position
    # (1, 1) too.
    total = system.ring.zero
    for poly in diag.values():
        total = total + poly.value()
    if not total.is_zero():
        raise VerificationFailed(
            "diagonal residual layer has nonzero trace")
    return [(d, diag[d]) for d in sorted(diag) if d != 1]


def _symplectic_diag(system, diag):
    # Across one coordinate pair (k, k') and the first pair, the two
    # commutators [se_k1, se_1k] and [se_k'1, se_1k'] contribute
    #   w_A (e_kk + e_22 - e_11 - e_k'k')
    #   w_B (e_k'k' + e_22 - e_11 - e_kk)
    # and the form constraint makes the graded layer antisymmetric
    # per pair, so w_A, w_B solve for any deficit at the cost of a
    # halving.
    for p, poly in diag.items():
        partner = diag.get(sigma(p))
        if partner is None or partner.value() != poly.neg().value():
            raise VerificationFailed(
                "diagonal residual is not form-compatible at index %d"
                % p)
    hf = system.half
    zero = _TPoly(system.ring)
    delta1 = diag.get(1, zero)
    pairs = sorted({(p + 1) // 2 for p in diag if p > 2})
    if not pairs and not delta1.is_zero():
        if system.size < 4:
            raise DimensionTooSmall(
                "no free coordinate pair for a diagonal insertion")
        pairs = [2]
    out = []
    for t in pairs:
        k = 2 * t - 1
        d_k = diag.get(k, zero)
        share = delta1 if t == pairs[0] else zero
        out.append((k, d_k.plus(share.neg()).scaled(hf)))
        out.append((sigma(k), d_k.plus(share).scaled(hf).neg()))
    return out


# ---------------------------------------------------------------------------
# Peeling: factor a tracked unipotent residual into first-index letters.
#
# Each round takes the lowest Y-grade of the residual.  That graded
# layer always satisfies the linearized invariance constraints of the
# ambient group, so its off-diagonal part matches generator patterns
# exactly and its diagonal part can be cancelled by inserting pairs of
# opposite first-index letters whose product has a known diagonal tail.
# Splitting a non-first-index generator uses the exact commutator
# relation [x_{p1}(u), x_{1q}(v)] and hands each half one certified
# factor and a positive share of the Y-power.


def _emit_cell(system, p, q, poly, out):
    """Append the records of x_pq(poly): one letter at an index-1 cell,
    otherwise per term the commutator [x_p1(u), x_1q(v)], u the
    coefficient times every atom but the last, v the last atom (halved
    at a short symplectic cell), each with a positive share of the
    term's Y-power.

    At a diagonal cell (d, d) the commutator leaves uv on the diagonal
    instead. It has no first-order single-letter tail, so inserting it
    cancels a diagonal deficit while only creating terms of strictly
    higher Y-grade; that is what makes the peeling loop terminate.
    """
    form = index1_form(system.kind, p, q)
    if form is not None:
        i, j, sign = form
        out.append((i, j, poly if sign == 1 else poly.neg()))
        return
    ring = system.ring
    h = system.half if q == sigma(p) else None
    for term in poly.terms:
        if len(term.atoms) < 2:
            raise VerificationFailed(
                "cannot split a one-factor parameter term")
        lo = max(1, min(term.y_exp - 1, term.y_exp // 2))
        hi = term.y_exp - lo
        if hi < 1:
            raise VerificationFailed(
                "cannot distribute Y-powers %d = %d + %d"
                % (term.y_exp, lo, hi))
        u = _TPoly(ring, [_Term(ring, lo, term.atoms[:-1], term.coeff)])
        v = _TPoly(ring, [_Term(ring, hi, term.atoms[-1:],
                                ring.one if h is None else h)])
        out += [(p, 1, u), (1, q, v), (p, 1, u.neg()), (1, q, v.neg())]


def _apply_records(grid, system, records):
    """grid := (product of records)^-1 * grid, one letter at a time.

    (L1 ... Lm)^-1 = Lm^-1 ... L1^-1, and left-multiplying by L1^-1
    first leaves it rightmost, so the records are walked in order.
    """
    for i, j, poly in records:
        if poly.is_zero():
            continue
        grid.mul_letter_left(system.pattern(i, j), poly, invert=True)


def _peel(system, grid, rounds=500):
    """Factor grid into first-index letter records; empties the grid."""
    out = []
    while grid.cells:
        rounds -= 1
        if rounds < 0:
            raise VerificationFailed(
                "residual failed to terminate while peeling")
        comp = grid.lowest_layer()
        offdiag = sorted(c for c in comp if c[0] != c[1])
        if offdiag:
            p, q = offdiag[0]
            poly = comp[(p, q)]
            for r, c, sg in system.pattern(p, q):
                if (r, c) == (p, q):
                    continue
                echo = comp.get((r, c))
                want = poly if sg == 1 else poly.neg()
                have = system.ring.zero if echo is None else echo.value()
                if have != want.value():
                    raise VerificationFailed(
                        "residual breaks the generator pattern at "
                        "(%d, %d)" % (r, c))
            records = []
            _emit_cell(system, p, q, poly, records)
        else:
            records = system.diag_records(comp)
        out.extend(records)
        _apply_records(grid, system, records)
    return out


def _records_word(system, records):
    letters = []
    for i, j, poly in records:
        value = poly.value()
        if value.is_zero():
            continue
        letters.append((ElementaryLetter(system.kind, system.size, i, j,
                                        value, poly.cert()), False))
    return Word(system.ring, system.size, letters)


# ---------------------------------------------------------------------------
# The rewriter: trade conjugating letters for fourth powers of Y.
#
# One step per level: the inner records, after Y -> Y^4, are multiplied
# into one residual, conjugated by the level's letter and peeled once. A
# conjugated product of Y-divisible records is congruent to I mod Y,
# which is all _peel needs. No level is checked on its own: _finish
# evaluates the whole output once and compares it exactly with the
# conjugated target, so a wrong peel at any level surfaces there as
# VerificationFailed, never as silent bad output.


def _rewrite_rec(system, gs, i, j, a_tpoly):
    if not gs:
        return [(i, j, a_tpoly.with_extra_y(1))]
    inner = _rewrite_rec(system, gs[1:], i, j, a_tpoly)
    memo = {}
    inner = [(p, q, poly.subst_y4(memo)) for p, q, poly in inner]
    grid = _Grid(system.ring, system.size)
    for p, q, poly in inner:
        grid.mul_letter_right(system.pattern(p, q), poly)
    gi, gj, gpoly = gs[0]
    gpat = system.pattern(gi, gj)
    grid.mul_letter_left(gpat, gpoly)
    grid.mul_letter_right(gpat, gpoly, invert=True)
    records = _peel(system, grid)
    note(system.name + "/level", "g=(%d,%d) %d -> %d letters",
         gi, gj, len(inner), len(records))
    return records


class RewriteResult:
    """Outcome of a conjugation rewrite.

    output holds the derived word of first-index letters, lhs the word
    it must equal (conjugators, target, inverted conjugators), checked
    exactly before the result is built, and case_trace lists one line
    per level (conjugating letter), innermost first.
    """

    __slots__ = ("output", "lhs", "case_trace")

    def __init__(self, output, lhs, case_trace):
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "case_trace", case_trace)

    def __setattr__(self, name, value):
        raise AttributeError("results are immutable")

    def __repr__(self):
        return "RewriteResult(%d letters)" % (len(self.output),)


def _y_free(value):
    ring = value.ring
    return substitute(value, {_YVAR: ring.zero}) == value


def _check_inputs(eps, i, j, a_poly, size):
    ring = eps.ring
    if not isinstance(ring, PolyRing) or _YVAR not in ring.variables:
        raise UnknownVariable(
            "rewriting needs a polynomial ring with variable %s" % _YVAR)
    if not (1 <= i <= size and 1 <= j <= size) or i == j:
        raise BadIndices("bad target indices (%d, %d)" % (i, j))
    ideal = a_poly.ideal
    if ideal.ring != ring:
        raise IdealMismatch("target certificate lives over the wrong ring")
    if not a_poly.check():
        raise NotCertified("target parameter certificate does not check")
    if not _y_free(a_poly.value):
        raise SideConditionViolated(
            "target parameter must not involve %s" % _YVAR)
    for g in ideal.generators:
        if not _y_free(g):
            raise SideConditionViolated(
                "ideal generators must not involve %s" % _YVAR)
    # the peel ends because a product of enough ideal elements is zero:
    # every coefficient of a generator must be nilpotent in Z/m
    m = ring.m
    if any(pow(c, m.bit_length(), m) for g in ideal.generators
           for c in g.payload.values()):
        raise SideConditionViolated("ideal must be nilpotent")
    for letter, _ in eps.letters:
        if not _y_free(letter.param):
            raise SideConditionViolated(
                "conjugator parameters must not involve %s" % _YVAR)
    return ideal


def _g_records(ring, eps):
    out = []
    for letter, inv in eps.letters:
        coeff = -ring.one if inv else ring.one
        out.append((letter.i, letter.j,
                    _TPoly(ring, [_Term(ring, 0, (letter.cert,), coeff)])))
    return out


def _finish(system, eps, i, j, a_poly):
    ring = system.ring
    a_tpoly = _TPoly(ring, [_Term(ring, 0, (a_poly,), ring.one)])
    with recording() as events:
        records = _rewrite_rec(system, _g_records(ring, eps), i, j, a_tpoly)
    output = _records_word(system, records)
    for letter, _ in output.letters:
        if not substitute(letter.param, {_YVAR: ring.zero}).is_zero():
            raise VerificationFailed(
                "derived parameter %r is not divisible by %s"
                % (letter.param, _YVAR))
    y_pow = ring.var(_YVAR, 4 ** len(eps))
    target = ElementaryLetter(system.kind, system.size, i, j,
                              y_pow * a_poly.value, a_poly.scale(y_pow))
    lhs = conjugate_word(eps, Word(ring, system.size, ((target, False),)))
    check_evaluation(output, evaluate(lhs),
                     "derived word fails the exact comparison")
    return RewriteResult(output, lhs,
                         tuple("%s %s" % event for event in events))


def _rewrite(kind, eps, i, j, a_poly):
    size = eps.size
    if kind == "E" and size < 3:
        raise DimensionTooSmall("linear rewriting needs size at least 3")
    if kind == "se" and (size % 2 != 0 or size < 4):
        raise DimensionTooSmall(
            "symplectic rewriting needs even size at least 4")
    system = _System(kind, eps.ring, size)
    ideal = _check_inputs(eps, i, j, a_poly, size)
    if index1_form(kind, i, j) is None:
        raise BadIndices("target generator must be first-index"
                         + ("" if kind == "E" else " up to sigma"))
    in_group = word_in_E1 if kind == "E" else word_in_ESp1
    if not in_group(eps, ideal):
        raise NotCertified("conjugator must be certified first-index "
                           "%s letters" % system.name)
    return _finish(system, eps, i, j, a_poly)


def rewrite_conjugation_linear(eps, i, j, a_poly):
    """Rewrite eps . E_ij(Y^(4^r) a) . eps^-1 as first-index letters.

    eps must be a word of certified first-index linear letters over a
    nilpotent ideal whose parameters do not involve Y; the target
    position (i, j) must have a first index itself.  Every parameter of
    the output is divisible by Y and certified in the same ideal as
    a_poly.
    """
    return _rewrite("E", eps, i, j, a_poly)


def rewrite_conjugation_symplectic(eps, i, j, a_poly):
    """Rewrite eps . se_ij(Y^(4^r) a) . eps^-1 as first-index letters.

    Needs 2 invertible.  eps must be a word of certified first-index
    symplectic letters (up to the sigma identification) with Y-free
    parameters over a nilpotent ideal, and (i, j) must be first-index
    up to sigma as well.
    """
    return _rewrite("se", eps, i, j, a_poly)


def specialize_and_check(result, x0, y0):
    """Substitute X := x0, Y := y0 into a verified rewrite and recheck.

    Returns the specialized matrix after comparing both sides of the
    specialized identity exactly.
    """
    ring = result.output.ring
    bindings = {_YVAR: ring.el(y0)}
    if "X" in ring.variables:
        bindings["X"] = ring.el(x0)

    def bind(w):
        letters = []
        for letter, inv in w.letters:
            p = substitute(letter.param, bindings)
            letters.append((letter.with_param(p), inv))
        return Word(ring, w.size, letters)

    return check_evaluation(
        bind(result.output), evaluate(bind(result.lhs)),
        "specialized sides disagree (the rewrite was corrupted)")
