"""Exact arithmetic for two kinds of commutative ring:

* integers mod m (m >= 2),
* multivariate polynomials over Z/m, whose coefficients are ints.

Elements are immutable wrappers around a ring-specific payload. All
arithmetic is exact. Every payload is kept canonical, so equality of
elements is equality of payloads.

Payloads inside, wrap at the boundary: the library computes with each
ring's p_* functions on payloads, and wraps a result in a RingElement
once, where a caller sees it. The certificate operations below build
no intermediate element. Each ring has one column-operation kernel,
p_column_op: evaluate calls it once per cell and the standardizer once
per congruence. Ring holds the generic body, ZmodRing an int loop.

Ideals are finitely generated presentations. Membership is never
decided, only certified: a CertifiedElement stores coefficients that
multiply out to its value, exactly.
"""

from __future__ import annotations

import operator
from math import gcd

from .errors import (
    DescriptorMismatch,
    IdealMismatch,
    LengthMismatch,
    NotAUnit,
    TwoNotInvertible,
    UnknownVariable,
)


class RingElement:
    """Immutable element of a Ring; payload format is ring-specific."""

    __slots__ = ("ring", "payload")
    __hash__ = None

    def __init__(self, ring, payload):
        _set_ring(self, ring)
        _set_payload(self, payload)

    def __setattr__(self, name, value):
        raise AttributeError("ring elements are immutable")

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            lifted = self.ring.try_lift(other)
            if lifted is not None:
                return lifted
            raise DescriptorMismatch(
                "cannot combine %r and %r" % (self.ring, other.ring))
        if isinstance(other, int):
            return self.ring.el(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, self.ring.p_add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, self.ring.p_sub(self.payload, o.payload))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, self.ring.p_sub(o.payload, self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, self.ring.p_mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.p_neg(self.payload))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return RingElement(self.ring, self.ring.p_pow(self.payload, k))

    def __eq__(self, other):
        if isinstance(other, (RingElement, int)):
            return self.payload == self._coerce(other).payload
        return NotImplemented

    def is_zero(self):
        return self.ring.p_is_zero(self.payload)

    def __repr__(self):
        return self.ring.p_repr(self.payload)


# the slots' own setters: __setattr__ refuses every write after __init__
_set_ring, _set_payload = RingElement.ring.__set__, RingElement.payload.__set__


class Ring:
    """Base class; subclasses provide payload-level arithmetic."""

    def __init__(self):
        self._zero = None
        self._one = None

    @property
    def zero(self):
        if self._zero is None:
            self._zero = RingElement(self, self.from_int(0))
        return self._zero

    @property
    def one(self):
        if self._one is None:
            self._one = RingElement(self, self.from_int(1))
        return self._one

    def wrap(self, payload):
        return RingElement(self, payload)

    def el(self, x):
        """Coerce an int or a liftable element into this ring."""
        if isinstance(x, int):
            return RingElement(self, self.from_int(x))
        if isinstance(x, RingElement):
            if x.ring is self or x.ring == self:
                return x
            lifted = self.try_lift(x)
            if lifted is not None:
                return lifted
            raise DescriptorMismatch(
                "cannot coerce element of %r into %r" % (x.ring, self))
        raise DescriptorMismatch("cannot coerce %r" % (x,))

    def try_lift(self, x):
        """Lift an element of a base ring into this ring, or None."""
        return None

    def p_sub(self, a, b):
        return self.p_add(a, self.p_neg(b))

    def p_pow(self, a, k):
        """a**k by square-and-multiply: about 2 log2(k) products."""
        out = None
        while k:
            if k & 1:
                out = a if out is None else self.p_mul(out, a)
            k >>= 1
            if k:
                a = self.p_mul(a, a)
        return self.from_int(1) if out is None else out

    def p_column_op(self, grid, s, d, c):
        """Add c times column s to column d of a row-major payload grid,
        in place (s != d): the kernel of every column operation."""
        p_add, p_mul, p_is_zero = self.p_add, self.p_mul, self.p_is_zero
        for row in grid:
            gs = row[s]
            if not p_is_zero(gs):
                row[d] = p_add(row[d], p_mul(gs, c))

    # subclasses: from_int, p_add, p_neg, p_mul, p_is_zero, p_invert,
    # p_is_unit (True exactly where p_invert succeeds; never raises),
    # p_repr, __eq__, __hash__; every payload they return is canonical


class ZmodRing(Ring):
    """Integers modulo m, m >= 2; payloads are ints in [0, m)."""

    def __init__(self, m):
        if not isinstance(m, int) or m < 2:
            raise ValueError("modulus must be an integer >= 2")
        super().__init__()
        self.m = m

    def __eq__(self, other):
        return isinstance(other, ZmodRing) and other.m == self.m

    def __hash__(self):
        return hash(("zmod", self.m))

    def __repr__(self):
        return "Z/%d" % self.m

    def from_int(self, n):
        return n % self.m

    def p_add(self, a, b):
        return (a + b) % self.m

    def p_neg(self, a):
        return (-a) % self.m

    def p_mul(self, a, b):
        return (a * b) % self.m

    def p_pow(self, a, k):
        return pow(a, k, self.m)

    def p_column_op(self, grid, s, d, c):
        m = self.m
        for row in grid:
            gs = row[s]
            if gs:
                row[d] = (row[d] + gs * c) % m

    def p_is_zero(self, a):
        return a == 0

    def p_invert(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            raise NotAUnit("%d is not a unit mod %d" % (a, self.m))

    def p_is_unit(self, a):
        return gcd(a, self.m) == 1

    def p_repr(self, a):
        return str(a)


class PolyRing(Ring):
    """Multivariate polynomials over Z/m.

    Payloads are dicts mapping exponent tuples (one slot per variable)
    to int coefficients in (0, m). The empty dict is zero. Pruning keeps
    the form canonical, so equality is dict equality.
    """

    def __init__(self, base, variables):
        if not isinstance(base, ZmodRing):
            raise ValueError("polynomial coefficients must lie in Z/m, "
                             "not %r" % (base,))
        variables = tuple(variables)
        if len(set(variables)) != len(variables) or not variables:
            raise ValueError("variable names must be distinct and nonempty")
        if any((not v) for v in variables):
            raise ValueError("variable names must be nonempty")
        super().__init__()
        self.base = base
        self.m = base.m
        self.variables = variables
        self.nvars = len(variables)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.variables == self.variables
                and other.base == self.base)

    def __hash__(self):
        return hash(("poly", self.variables, self.base))

    def __repr__(self):
        return "%r[%s]" % (self.base, ",".join(self.variables))

    def try_lift(self, x):
        if x.ring == self.base:
            return self.wrap(self._embed(x.payload))
        return None

    def _embed(self, c):
        return {(0,) * self.nvars: c} if c else {}

    def from_int(self, n):
        return self._embed(n % self.m)

    def var(self, name, e=1):
        """The monomial name**e."""
        return self.monomial([(name, e)])

    def monomial(self, exponents, coeff=None):
        """coeff (an element of Z/m, default 1) times the product of
        name**e over the (name, e) pairs, built from its exponent tuple;
        a repeated name adds its exponents."""
        exps = [0] * self.nvars
        for name, e in exponents:
            if name not in self.variables:
                raise UnknownVariable("no variable %r in %r" % (name, self))
            exps[self.variables.index(name)] += e
        c = 1 if coeff is None else coeff.payload
        if not c:
            return self.zero
        return self.wrap({tuple(exps): c})

    def p_add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        m = self.m
        for exps, c in b.items():
            if exps in out:
                s = (out[exps] + c) % m
                if s:
                    out[exps] = s
                else:
                    del out[exps]
            else:
                out[exps] = c
        return out

    def p_neg(self, a):
        m = self.m
        return {exps: m - c for exps, c in a.items()}

    def p_mul(self, a, b):
        if not a or not b:
            return {}
        out = {}
        get = out.get
        add = operator.add
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        m = self.m
        return {e: r for e, c in out.items() if (r := c % m)}

    def p_is_zero(self, a):
        return not a

    def p_invert(self, a):
        const = None
        for exps, c in a.items():
            if any(exps):
                raise NotAUnit("only constant polynomials are inverted")
            const = c
        if const is None:
            raise NotAUnit("zero is not a unit")
        return self._embed(self.base.p_invert(const))

    def p_is_unit(self, a):
        const = a.get((0,) * self.nvars)
        return len(a) == 1 and const is not None and gcd(const, self.m) == 1

    def p_substitute(self, a, bindings):
        """bindings: variable name -> payload of this ring.

        The substitution is simultaneous. When every bound value is one
        term c*X^f (a constant has f = 0, zero has no term), each term
        of a maps to one term in closed form: its coefficient times c^e
        mod m, its exponents plus e*f. Otherwise each bound value is
        raised by square-and-multiply. Either way one power is computed
        per distinct (variable, exponent) in a.
        """
        positions = {}
        for name in bindings:
            if name not in self.variables:
                raise UnknownVariable("no variable %r in %r" % (name, self))
            positions[self.variables.index(name)] = bindings[name]
        powers = {}
        out = {}
        m = self.m
        closed = all(len(val) <= 1 for val in positions.values())
        if closed:
            terms = [(pos, next(iter(val.items()), None))
                     for pos, val in positions.items()]
        for exps, c in a.items():
            rest = list(exps)
            for pos in positions:
                rest[pos] = 0
            if closed:
                for pos, term in terms:
                    e = exps[pos]
                    if not e:
                        continue
                    if term is None:        # zero to a positive power
                        c = 0
                        break
                    f, cv = term
                    cp = powers.get((pos, e))
                    if cp is None:
                        cp = powers[(pos, e)] = pow(cv, e, m)
                    c = c * cp % m
                    for i, fi in enumerate(f):
                        if fi:
                            rest[i] += e * fi
                pieces = ((tuple(rest), c),)
            else:
                term = {tuple(rest): c}
                for pos, val in positions.items():
                    e = exps[pos]
                    if e:
                        pw = powers.get((pos, e))
                        if pw is None:
                            pw = powers[(pos, e)] = self.p_pow(val, e)
                        term = self.p_mul(term, pw)
                pieces = term.items()
            for key, c in pieces:
                if not c:
                    continue
                if key in out:
                    c = (out[key] + c) % m
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return out

    def p_repr(self, a):
        if not a:
            return "0"
        parts = []
        for exps in sorted(a):
            cs = str(a[exps])
            mono = "*".join(
                v if e == 1 else "%s^%d" % (v, e)
                for v, e in zip(self.variables, exps) if e)
            if mono:
                parts.append("%s*%s" % (cs, mono) if cs != "1" else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)


def invert_unit(x):
    """Multiplicative inverse of a unit; NotAUnit otherwise."""
    return x.ring.wrap(x.ring.p_invert(x.payload))


def half(ring):
    """The element 1/2; TwoNotInvertible when 2 is not a unit."""
    try:
        return invert_unit(ring.el(2))
    except NotAUnit:
        raise TwoNotInvertible("2 is not a unit in %r" % (ring,))


def substitute(p, bindings):
    """Evaluate a polynomial element at the given variable bindings."""
    ring = p.ring
    if not isinstance(ring, PolyRing):
        raise UnknownVariable("substitute needs a polynomial element")
    pay = {}
    for name, val in bindings.items():
        pay[name] = ring.el(val).payload
    return ring.wrap(ring.p_substitute(p.payload, pay))


class IdealPresentation:
    """A finitely generated ideal, given by an ordered generator list."""

    __slots__ = ("ring", "generators", "_square")
    __hash__ = None

    def __init__(self, ring, generators):
        gens = tuple(ring.el(g) for g in generators)
        if not gens:
            raise ValueError("ideal presentation needs at least one generator")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_square", None)

    def __setattr__(self, name, value):
        raise AttributeError("ideal presentations are immutable")

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, IdealPresentation):
            return NotImplemented
        return (self.ring == other.ring
                and len(self.generators) == len(other.generators)
                and all(a == b for a, b in zip(self.generators, other.generators)))

    def __repr__(self):
        return "(%s)" % ", ".join(repr(g) for g in self.generators)

    def square_pairs(self):
        """Ordered index pairs (i, j), i <= j, one per square generator."""
        k = len(self.generators)
        return tuple((i, j) for i in range(k) for j in range(i, k))

    def square(self):
        """Presentation of the square ideal by pairwise products, built
        once (presentations are immutable)."""
        if self._square is None:
            gens = [self.generators[i] * self.generators[j]
                    for i, j in self.square_pairs()]
            object.__setattr__(self, "_square",
                               PairwiseSquare(self.ring, gens, self))
        return self._square

    def zero_cert(self):
        return CertifiedElement(self, (self.ring.zero,) * len(self.generators))

class PairwiseSquare(IdealPresentation):
    """Square-ideal presentation remembering its base factorization."""

    __slots__ = ("base",)

    def __init__(self, ring, generators, base):
        super().__init__(ring, generators)
        object.__setattr__(self, "base", base)


class CertifiedElement:
    """An ideal element together with coefficients witnessing membership."""

    __slots__ = ("ideal", "coefficients", "value")

    def __init__(self, ideal, coefficients, value=None):
        ring = ideal.ring
        coefficients = tuple(ring.el(c) for c in coefficients)
        if len(coefficients) != len(ideal.generators):
            raise LengthMismatch(
                "%d coefficients for %d generators"
                % (len(coefficients), len(ideal.generators)))
        if value is None:
            value = ring.wrap(_combination(ring, coefficients,
                                           ideal.generators))
        else:
            value = ring.el(value)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("certified elements are immutable")

    def check(self):
        ring = self.ideal.ring
        acc = _combination(ring, self.coefficients, self.ideal.generators)
        return ring.wrap(acc) == self.value

    def __add__(self, other):
        if not isinstance(other, CertifiedElement):
            return NotImplemented
        if self.ideal != other.ideal:
            raise IdealMismatch("certificates over different presentations")
        ring = self.ideal.ring
        p_add, wrap = ring.p_add, ring.wrap
        coeffs = tuple(wrap(p_add(a.payload, b.payload)) for a, b in
                       zip(self.coefficients, other.coefficients))
        return _derived(self.ideal, coeffs,
                        wrap(p_add(self.value.payload, other.value.payload)))

    def __neg__(self):
        ring = self.ideal.ring
        p_neg, wrap = ring.p_neg, ring.wrap
        return _derived(self.ideal,
                        tuple(wrap(p_neg(c.payload)) for c in self.coefficients),
                        wrap(p_neg(self.value.payload)))

    def __sub__(self, other):
        neg = -other
        return self + neg

    def scale(self, r):
        """Multiply by an arbitrary ring element (ideals absorb products)."""
        return _scaled(self, self.ideal.ring.el(r).payload)

    def is_zero(self):
        return self.value.is_zero()

    def substitute(self, bindings):
        """Apply a polynomial substitution fixing every generator."""
        for g in self.ideal.generators:
            if substitute(g, bindings) != g:
                raise IdealMismatch(
                    "substitution moves ideal generator %r" % (g,))
        coeffs = tuple(substitute(c, bindings) for c in self.coefficients)
        return CertifiedElement(self.ideal, coeffs,
                                substitute(self.value, bindings))

    def __repr__(self):
        return "cert(%r = %s)" % (
            self.value,
            " + ".join("%r*%r" % (c, g) for c, g in
                       zip(self.coefficients, self.ideal.generators)))


def _combination(ring, coefficients, generators):
    """The payload of sum c_i g_i, for elements of ring."""
    p_add, p_mul = ring.p_add, ring.p_mul
    acc = ring.from_int(0)
    for c, g in zip(coefficients, generators):
        acc = p_add(acc, p_mul(c.payload, g.payload))
    return acc


def _derived(ideal, coefficients, value):
    """A CertifiedElement from a tuple of coefficients that ring
    arithmetic already produced in ideal's ring, one per generator, and
    their value: no coercion and no length check."""
    out = object.__new__(CertifiedElement)
    object.__setattr__(out, "ideal", ideal)
    object.__setattr__(out, "coefficients", coefficients)
    object.__setattr__(out, "value", value)
    return out


def _scaled(cert, rp):
    """cert times the ring payload rp: CertifiedElement.scale for a
    caller that already holds a payload."""
    ring = cert.ideal.ring
    p_mul, wrap = ring.p_mul, ring.wrap
    coeffs = tuple([wrap(p_mul(rp, c.payload)) for c in cert.coefficients])
    return _derived(cert.ideal, coeffs, wrap(p_mul(rp, cert.value.payload)))


def certify(ideal, coefficients):
    """Build a CertifiedElement, computing its value exactly."""
    return CertifiedElement(ideal, coefficients)


def product_certificate(a, b):
    """Certificate for a.value * b.value over the square presentation."""
    if not isinstance(a, CertifiedElement) or not isinstance(b, CertifiedElement):
        raise IdealMismatch("product_certificate needs two certified elements")
    if a.ideal != b.ideal:
        raise IdealMismatch("certificates over different ideals")
    sq = a.ideal.square()
    ring = sq.ring
    p_add, p_mul, wrap = ring.p_add, ring.p_mul, ring.wrap
    ca = [c.payload for c in a.coefficients]
    cb = [c.payload for c in b.coefficients]
    coeffs = []
    for i, j in a.ideal.square_pairs():
        if i == j:
            coeffs.append(wrap(p_mul(ca[i], cb[i])))
        else:
            coeffs.append(wrap(p_add(p_mul(ca[i], cb[j]),
                                     p_mul(ca[j], cb[i]))))
    return _derived(sq, tuple(coeffs),
                    wrap(p_mul(a.value.payload, b.value.payload)))


def square_factors(p):
    """Split a certificate over a pairwise-square presentation into
    certified factor pairs (x, y) over its base, one per nonzero
    coefficient c of the generator g_i g_j: x = c g_i and y = g_j, so
    the products x.value * y.value sum to p.value."""
    base = p.ideal.base
    ring, gens = base.ring, base.generators
    zero, one = ring.zero, ring.one
    out = []
    for (i, j), c in zip(base.square_pairs(), p.coefficients):
        if ring.p_is_zero(c.payload):
            continue
        cx = [zero] * len(gens)
        cx[i] = c
        cy = [zero] * len(gens)
        cy[j] = one
        x = ring.wrap(ring.p_mul(c.payload, gens[i].payload))
        out.append((_derived(base, tuple(cx), x),
                    _derived(base, tuple(cy), gens[j])))
    return out
