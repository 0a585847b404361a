"""Constructive decomposition of conjugated symplectic generators.

Given a word g over symplectic letters and certified ideal elements
a, b, the top-level entry point writes g . se_ij(a b) . g^-1 as a word
whose every letter carries a certificate into the ideal. The route goes
through a small tower of identities:

* a commutator producing I + ab v vtilde from two pair-supported
  transvections (short_root_pair),
* a commutator producing I + ab (v wtilde + w vtilde) when the two
  vectors pair to zero (long_root_pair),
* a four-factor reduction removing the requirement that w avoid the
  auxiliary pair (long_root_reduce),
* a three-factor split removing the support restriction on v entirely
  (short_root_split),
* a regrouping of a sum of rank-two pieces into a product plus a
  scalar correction (sum_to_product),
* the general rank-two case driven by a unimodularity certificate,
  with one reduction per free pair of its kernel pieces, so at most
  three (long_root_unimodular).

Every operation evaluates its output and compares against the closed
form, raising VerificationFailed on any mismatch. Each closed form is
a rank-two update of the identity, built in O(n^2), and the
regrouping's product is built one rank-two factor at a time, in
O(n^2) per factor. A stacked word resumes its evaluation from the
stored value of its first part, which that part's own check computed,
and the conjugate target g . se_ij(ab) . g^-1 resumes from G = g's
value, so it applies |g| + 1 letters.
"""

from __future__ import annotations

from .errors import (
    BadIndices,
    DimensionTooSmall,
    NotAUnit,
    PairNotZero,
    PairingNonzero,
    SupportOverlap,
)
from .matrices import (
    ColumnVector,
    basis_vector,
    check_equal,
    identity,
    kernel_decomposition,
    rank_two_update,
    sigma_index as sigma,
    tilde,
    tilde_pair,
    zero_vector,
)
from .rewrite import include_I2_symplectic
from .rings import half, invert_unit, product_certificate, square_factors
from .words import (SympLetter, Word, check_evaluation, commutator_word,
                    conjugate_word, evaluate, invert_word, note, recording)


class DecompositionResult:
    """Outcome of the top-level decomposition, built only after
    achieved was checked equal to target."""

    __slots__ = ("output", "target", "achieved", "lemma_trace")

    def __init__(self, output, target, achieved, lemma_trace):
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "achieved", achieved)
        object.__setattr__(self, "lemma_trace", tuple(lemma_trace))

    def __setattr__(self, name, value):
        raise AttributeError("results are immutable")

    def __repr__(self):
        return "DecompositionResult(%d letters)" % (len(self.output),)


def sym_outer(v, s):
    """The closed form I + s . v tilde(v)."""
    return rank_two_update(v, tilde(v), s=s)


def pair_outer(v, w, s=None):
    """The closed form I + s . (v tilde(w) + w tilde(v)), s = 1 if None."""
    return rank_two_update(v, tilde(w), w, tilde(v), s=s)


def _extend(v, size):
    if v.length == size:
        return v
    return ColumnVector(v.ring, list(v.entries) + [v.ring.zero] * (size - v.length))


def _check_closed_form(out, closed, what):
    """Check the word out against the matrix closed."""
    check_evaluation(out, closed, what + ": evaluation differs from closed form")


def _pair_coords(t):
    return 2 * t - 1, 2 * t


def _resolve_pair(v, auxiliary_pair):
    """Size bookkeeping for an auxiliary pair; embeds when one past the end."""
    n = v.length // 2
    if not (1 <= auxiliary_pair <= n + 1):
        raise BadIndices("auxiliary pair %d out of range for length %d"
                         % (auxiliary_pair, v.length))
    size = max(v.length, 2 * auxiliary_pair)
    v = _extend(v, size)
    p, pbar = _pair_coords(auxiliary_pair)
    if not (v.entry(p).is_zero() and v.entry(pbar).is_zero()):
        raise SupportOverlap("vector must vanish on the auxiliary pair")
    return v, size, p, pbar


def _pair_transvection_word(v, s, cert, factor):
    """Word for I + c (v etilde_s + e_s vtilde), v vanishing on the pair of s.

    Each k off the pair of s with v_k != 0 gets the certified z_k =
    cert.scale(factor * v_k), which must equal (-1)^(s+1) c v_k. The
    word is one long letter per z_k plus, in front, one short letter
    cancelling their cross terms in the (s, sbar) cell.
    """
    size, sbar = v.length, sigma(s)
    ring = v.ring
    fp = ring.el(factor).payload
    p_mul, p_is_zero, wrap = ring.p_mul, ring.p_is_zero, ring.wrap
    params = {k: cert.scale(wrap(p_mul(fp, vp)))
              for k, vp in enumerate(v.payloads, 1)
              if k not in (s, sbar) and not p_is_zero(vp)}
    cross = None
    for k in sorted(params):
        if k % 2 == 1 and sigma(k) in params:
            zl = params[sigma(k)].value
            piece = params[k].scale(-zl if (k + sbar) % 2 == 0 else zl)
            cross = piece if cross is None else cross + piece
    letters = []
    if cross is not None and not cross.is_zero():
        delta = -cross
        letters.append((SympLetter(size, s, sbar, delta.value, delta), False))
    for k in sorted(params):
        zk = params[k]
        if not zk.is_zero():
            letters.append((SympLetter(size, k, sbar, zk.value, zk), False))
    return Word(v.ring, size, letters)


def short_root_pair(v, a, b, auxiliary_pair):
    """Commutator word equal to I + a b v vtilde, built on a spare pair.

    v must vanish on the auxiliary pair (which may be one past the end
    of v, enlarging the matrix by one pair). Needs 2 to be a unit.
    """
    h = half(v.ring)
    v, _, p, pbar = _resolve_pair(v, auxiliary_pair)
    note("short-root-pair", "pair=%d support=%r", auxiliary_pair, v.support())
    out = commutator_word(_pair_transvection_word(v, p, a, h),
                          _pair_transvection_word(v, pbar, b, -1))
    _check_closed_form(out, sym_outer(v, a.value * b.value), "short-root-pair")
    return out


def long_root_pair(v, w, a, b, auxiliary_pair):
    """Commutator word equal to I + a b (v wtilde + w vtilde).

    Requires tilde(w) . v = 0 and both vectors to vanish on the
    auxiliary pair.
    """
    if not tilde_pair(w, v).is_zero():
        raise PairingNonzero("tilde(w) . v must vanish")
    v, _, p, pbar = _resolve_pair(v, auxiliary_pair)
    w, _, _, _ = _resolve_pair(w, auxiliary_pair)
    note("long-root-pair", "pair=%d supports=%r/%r", auxiliary_pair,
         v.support(), w.support())
    out = commutator_word(_pair_transvection_word(v, pbar, a, 1),
                          _pair_transvection_word(w, p, b, 1))
    _check_closed_form(out, pair_outer(v, w, a.value * b.value),
                       "long-root-pair")
    return out


def long_root_reduce(v, w, a, b, zero_pair):
    """Word equal to I + a b (v wtilde + w vtilde) with v off one pair.

    v must vanish on the zero pair; w is unrestricted there. Requires
    tilde(w) . v = 0. Works in place (no embedding).
    """
    p, pbar = _pair_coords(zero_pair)
    if p > v.length:
        raise BadIndices("zero pair out of range")
    if not (v.entry(p).is_zero() and v.entry(pbar).is_zero()):
        raise PairNotZero("v must vanish on the zero pair")
    if not tilde_pair(w, v).is_zero():
        raise PairingNonzero("tilde(w) . v must vanish")
    note("long-root-reduce", "pair=%d v-support=%r", zero_pair, v.support())
    av, bv = a.value, b.value
    x = w.entry(p)
    y = w.entry(pbar)
    w_off = w.with_entry(p, 0).with_entry(pbar, 0)
    parts = []
    if not w_off.is_zero():
        parts.append(long_root_pair(v, w_off, a, b, zero_pair))
    parts.append(_pair_transvection_word(v, pbar, a, -(bv * y)))
    parts.append(_pair_transvection_word(v, p, a, bv * x))
    if not (x * y * av * bv).is_zero():
        parts.append(short_root_pair(v, a.scale(bv * x), b.scale(av * y),
                                     zero_pair))
    out = parts[0]
    for piece in parts[1:]:
        out = out * piece
    _check_closed_form(out, pair_outer(v, w, av * bv), "long-root-reduce")
    return out


def short_root_split(v, a, b):
    """Word equal to I + a b v vtilde with no support restriction on v.

    Splits v into its last-pair part and the rest; needs at least two
    coordinate pairs and 2 a unit.
    """
    ring = v.ring
    n = v.length // 2
    if n < 2:
        raise DimensionTooSmall("the split needs at least two pairs")
    note("short-root-split", "support=%r", v.support())
    last = n
    p, pbar = _pair_coords(last)
    v_head = v.with_entry(p, 0).with_entry(pbar, 0)
    v_tail = v - v_head
    parts = []
    if not v_head.is_zero():
        parts.append(short_root_pair(v_head, a, b, last))
        if not v_tail.is_zero():
            parts.append(long_root_reduce(v_head, v_tail, a, b, last))
    if not v_tail.is_zero():
        parts.append(short_root_pair(v_tail, a, b, 1))
    out = Word(ring, v.length)
    for piece in parts:
        out = out * piece
    _check_closed_form(out, sym_outer(v, a.value * b.value),
                       "short-root-split")
    return out


def sum_to_product(us, us_certs, w):
    """Regroup I + sum (u_i wtilde + w utilde_i) into product form.

    Each u_i must pair to zero with w and carry coordinatewise
    certificates. Returns (ordering, x) with x a certified element of
    the square ideal such that the product over the ordering times
    I + x w wtilde equals the sum, exactly.
    """
    if not us:
        raise PairingNonzero("sum_to_product needs at least one piece")
    for u in us:
        if not tilde_pair(u, w).is_zero():
            raise PairingNonzero("each tilde(u_i) . w must vanish")
    note("sum-to-product", "%d pieces", len(us))
    x_cert = us_certs[0][0].ideal.square().zero_cert()
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            for ell in range(1, w.length + 1):
                ci = us_certs[i][sigma(ell) - 1]
                cj = us_certs[j][ell - 1]
                if ci.value.is_zero() or cj.value.is_zero():
                    continue
                piece = product_certificate(ci, cj)
                x_cert = x_cert + piece if ell % 2 == 1 else x_cert - piece
    ordering = list(range(len(us)))
    # tilde is linear, so the sum of the pieces is one closed form
    lhs = pair_outer(sum(us[1:], us[0]), w)
    rhs = _product_form([us[i] for i in ordering], w, x_cert.value)
    check_equal(rhs, lhs, "sum_to_product regrouping identity failed")
    return ordering, x_cert


def _product_form(us, w, x):
    """The product of I + u tilde(w) + w tilde(u) over us, in order,
    times I + x w tilde(w), one rank-two update per factor:
    M (I + u tilde(w) + w tilde(u)) = M + (M u) tilde(w) + (M w) tilde(u)."""
    tw = tilde(w)
    rhs = identity(w.ring, w.length)
    for u in us:
        rhs = rank_two_update(rhs * u, tw, rhs * w, tilde(u), base=rhs)
    return rank_two_update(rhs * w, tw, s=x, base=rhs)


def long_root_unimodular(v, w, a, b, u):
    """Word equal to I + a b (v wtilde + w vtilde), w unimodular via u.

    Needs tilde(v) . w = 0, u^t w = 1, and at least three pairs. For
    v = 0 the target is I and the word is empty.
    """
    ring = v.ring
    size = v.length
    n = size // 2
    if n < 3:
        raise DimensionTooSmall("the unimodular case needs three pairs")
    if not tilde_pair(v, w).is_zero():
        raise PairingNonzero("tilde(v) . w must vanish")
    note("long-root-unimodular", "v-support=%r", v.support())
    av, bv = a.value, b.value
    c_vec = tilde(v).transpose()
    coeffs = kernel_decomposition(c_vec, w, u)
    note("kernel-decomposition", "%d pieces", len(coeffs))
    # one piece of v per a_ij, on the pairs of i and j; the pieces leaving
    # one first pair free (1, 2 or 3) sum to a vector that still vanishes
    # there and pairs to zero with w, so one long_root_reduce serves them
    groups = {}
    for (i, j), aij in sorted(coeffs.items()):
        ci = aij * w.entry(j)
        if i % 2 == 1:
            ci = -ci
        cj = aij * w.entry(i)
        if j % 2 == 0:
            cj = -cj
        vec = zero_vector(ring, size).with_entry(sigma(i), ci)
        vec = vec.with_entry(sigma(j), cj)
        if vec.is_zero():
            continue
        used = {(i + 1) // 2, (j + 1) // 2}
        free = next(t for t in range(1, n + 1) if t not in used)
        groups[free] = groups[free] + vec if free in groups else vec
    pieces = [(vec, t) for t, vec in groups.items() if not vec.is_zero()]
    scaled = [vec.scale(av * bv) for vec, _ in pieces]
    check_equal(sum(scaled, zero_vector(ring, size)), v.scale(av * bv),
                "kernel pieces do not rebuild a b v")
    if not pieces:
        # v = 0: the target I + ab (0 wtilde + w 0tilde) is I
        out = Word(ring, size)
        check_evaluation(out, identity(ring, size), "long-root-unimodular: "
                         "the empty word differs from I")
        return out
    bp, p_mul = bv.payload, ring.p_mul
    certs = [[a.scale(ring.wrap(p_mul(bp, x))) for x in vec.payloads]
             for vec, _ in pieces]
    ordering, x_cert = sum_to_product(scaled, certs, w)
    out = Word(ring, size)
    for idx in ordering:
        vec, free = pieces[idx]
        out = out * long_root_reduce(vec, w, a, b, free)
    for x, y in square_factors(x_cert):
        out = out * short_root_split(w, x, y)
    _check_closed_form(out, pair_outer(v, w, av * bv),
                       "long-root-unimodular")
    return out


def _unimodular_certificate(w, c, dense_row):
    """A vector u with u^t w = 1 for the kernel decomposition of c.

    A unit coordinate w_k gives u = w_k^-1 e_k, which leaves only the
    pieces (i, k); the first such k in supp(c) is preferred, since the
    piece (k, k) does not exist. With no unit coordinate in w, the dense
    row dense_row() is used.
    """
    for k in c.support() + list(range(1, w.length + 1)):
        try:
            return basis_vector(w.ring, w.length, k).scale(
                invert_unit(w.entry(k)))
        except NotAUnit:
            continue
    return ColumnVector(w.ring, dense_row())


def decompose_conjugate(g, i, j, a, b):
    """Rewrite g . se_ij(a b) . g^-1 over certified ideal generators.

    g is a word of symplectic letters at size 2n, n >= 3; a and b are
    certified in the same ideal. The result is verified exactly.
    """
    ring = g.ring
    size = g.size
    n = size // 2
    half(ring)
    if n < 3:
        raise DimensionTooSmall("decomposition needs at least three pairs")
    if i == j or not (1 <= i <= size and 1 <= j <= size):
        raise BadIndices("bad target indices (%d, %d)" % (i, j))
    ab = a.value * b.value
    # g's value is stored first, so the target resumes from it and
    # applies |g| + 1 letters
    G = evaluate(g)
    target = evaluate(conjugate_word(
        g, Word(ring, size, ((SympLetter(size, i, j, ab), False),))))
    with recording() as lemma_trace:
        if len(g) == 0:
            note("include-square", "empty conjugator")
            out = include_I2_symplectic(n, i, j, product_certificate(a, b))
        elif j == sigma(i):
            note("conjugated-short-root", "column %d extracted", i)
            a_eff = a if i % 2 == 1 else -a
            out = short_root_split(G.column(i), a_eff, b)
        else:
            sj = sigma(j)
            v = G.column(i)
            if sj % 2 == 0:
                v = -v
            w = G.column(sj)
            u = _unimodular_certificate(
                w, tilde(v).transpose(),
                lambda: evaluate(invert_word(g)).row_list(sj))
            note("conjugated-long-root", "columns %d and %d extracted", i, sj)
            out = long_root_unimodular(v, w, a, b, u)
    achieved = check_evaluation(
        out, target, "decomposition does not reproduce the conjugate")
    return DecompositionResult(out, target, achieved, lemma_trace)
