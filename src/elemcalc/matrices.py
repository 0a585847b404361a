"""Dense exact matrices and column vectors over any tower ring.

Everything here is immutable and index-1-based in the public API,
matching the algebraic conventions of the rest of the package.
Internal storage is 0-based row-major.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    CertificateInvalid,
    NotAlternating,
    NotInKernel,
    OddDimension,
    VerificationFailed,
)
from .rings import ZmodRing


class ExactMatrix:
    """Immutable dense matrix over one ring.

    payloads is one row-major tuple of the ring's payloads, taken as
    given: the constructor does not coerce them, and every operation
    here works on payloads. entry(), entries and the other readers wrap
    on read; from_rows is the builder that coerces ring elements.
    """

    __slots__ = ("ring", "rows", "cols", "payloads")
    __hash__ = None

    def __init__(self, ring, rows, cols, payloads):
        payloads = tuple(payloads)
        if len(payloads) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "payloads", payloads)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    @property
    def entries(self):
        """All entries as ring elements, row-major."""
        return tuple(map(self.ring.wrap, self.payloads))

    def entry(self, i, j):
        """Entry at row i, column j (1-based)."""
        return self.ring.wrap(self.payloads[(i - 1) * self.cols + (j - 1)])

    def row_list(self, i):
        base = (i - 1) * self.cols
        return list(map(self.ring.wrap, self.payloads[base:base + self.cols]))

    def column(self, j):
        return _dense(self.ring, self.rows, 1, self.payloads[j - 1::self.cols])

    def payload_grid(self):
        c = self.cols
        return [list(self.payloads[r * c:(r + 1) * c]) for r in range(self.rows)]

    def _map(self, op, *others):
        return _dense(self.ring, self.rows, self.cols,
                      map(op, self.payloads, *others))

    def __add__(self, other):
        self._shape_check(other)
        return self._map(self.ring.p_add, other.payloads)

    def __sub__(self, other):
        self._shape_check(other)
        return self._map(self.ring.p_sub, other.payloads)

    def __neg__(self):
        return self._map(self.ring.p_neg)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __mul__(self, other):
        ring = self.ring
        if not isinstance(other, ExactMatrix):
            s = ring.el(other).payload
            p_mul = ring.p_mul
            return self._map(lambda p: p_mul(p, s))
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        # zero entries of either factor are skipped
        p_add, p_mul, p_is_zero = ring.p_add, ring.p_mul, ring.p_is_zero
        zero = ring.from_int(0)
        m = other.cols
        cells = _nonzero_cells(ring, other.payload_grid())
        out = []
        for arow in self.payload_grid():
            acc = [zero] * m
            for art, bcells in zip(arow, cells):
                if p_is_zero(art):
                    continue
                for c, btc in bcells:
                    acc[c] = p_add(acc[c], p_mul(art, btc))
            out.extend(acc)
        return _dense(ring, self.rows, m, out)

    def __rmul__(self, other):
        ring = self.ring
        s = ring.el(other).payload
        p_mul = ring.p_mul
        return self._map(lambda p: p_mul(s, p))

    def transpose(self):
        return _dense(self.ring, self.cols, self.rows,
                      [self.payloads[r * self.cols + c]
                       for c in range(self.cols) for r in range(self.rows)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            return False
        if ring.structural:
            return self.payloads == other.payloads
        return all(map(ring.p_eq, self.payloads, other.payloads))

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return self == identity(self.ring, self.rows)

    def first_mismatch(self, other):
        """First differing position as (row, col, self entry, other entry)."""
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                if self.entry(i, j) != other.entry(i, j):
                    return (i, j, self.entry(i, j), other.entry(i, j))
        return None

    def delete_row_col(self, i, j):
        """Matrix with row i and column j removed (1-based)."""
        grid = self.payload_grid()
        del grid[i - 1]
        return ExactMatrix(self.ring, self.rows - 1, self.cols - 1,
                           [p for row in grid for c, p in enumerate(row)
                            if c != j - 1])

    def __repr__(self):
        rows = []
        for r in range(1, self.rows + 1):
            rows.append("[" + ", ".join(repr(e) for e in self.row_list(r)) + "]")
        return "[" + ",\n ".join(rows) + "]"


def check_equal(got, want, what):
    """Return got if it equals want; else raise VerificationFailed
    naming what and the first differing (row, col, got, want), or both
    shapes when they differ."""
    if got == want:
        return got
    if (got.rows, got.cols) != (want.rows, want.cols):
        raise VerificationFailed("%s: shape %dx%d vs %dx%d" % (
            what, got.rows, got.cols, want.rows, want.cols))
    raise VerificationFailed("%s at %r" % (what, got.first_mismatch(want)))


class ColumnVector(ExactMatrix):
    """Immutable column vector: an n x 1 ExactMatrix.

    The constructor coerces each entry once; arithmetic, ==, transpose
    and the product m * v are ExactMatrix's, and every operation result
    with one column is a ColumnVector.
    """

    __slots__ = ()

    def __init__(self, ring, entries):
        payloads = [ring.el(e).payload for e in entries]
        super().__init__(ring, len(payloads), 1, payloads)

    @property
    def length(self):
        return self.rows

    def entry(self, i, j=1):
        """Coordinate i (1-based)."""
        return ExactMatrix.entry(self, i, j)

    # v.scale(s) is s * v
    scale = ExactMatrix.__rmul__

    def is_zero(self):
        return all(map(self.ring.p_is_zero, self.payloads))

    def dot(self, other):
        if self.length != other.length:
            raise ValueError("length mismatch")
        return _dot(self.ring, self.payloads, other.payloads)

    def support(self):
        """1-based indices of nonzero coordinates."""
        p_is_zero = self.ring.p_is_zero
        return [i + 1 for i, p in enumerate(self.payloads) if not p_is_zero(p)]

    def with_entry(self, i, value):
        ps = list(self.payloads)
        ps[i - 1] = self.ring.el(value).payload
        return _dense(self.ring, self.rows, 1, ps)

    def __repr__(self):
        return "col(%s)" % ", ".join(map(repr, self.entries))


def _dense(ring, rows, cols, payloads):
    """The matrix of the given payloads, taken as given: a ColumnVector
    when it has one column, else an ExactMatrix."""
    out = object.__new__(ColumnVector if cols == 1 else ExactMatrix)
    ExactMatrix.__init__(out, ring, rows, cols, payloads)
    return out


def identity(ring, n):
    one, zero = ring.from_int(1), ring.from_int(0)
    return ExactMatrix(ring, n, n, [one if r == c else zero
                                    for r in range(n) for c in range(n)])


def zero_vector(ring, n):
    return _dense(ring, n, 1, [ring.from_int(0)] * n)


def basis_vector(ring, n, i):
    """Standard basis column e_i (1-based) of length n."""
    return zero_vector(ring, n).with_entry(i, 1)


def from_rows(ring, rows):
    ncols = len(rows[0])
    ents = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged rows")
        ents.extend(ring.el(e).payload for e in r)
    return ExactMatrix(ring, len(rows), ncols, ents)


def block_diagonal(*blocks):
    """Square blocks over one ring down the diagonal, zeros elsewhere."""
    ring = blocks[0].ring
    size = sum(b.rows for b in blocks)
    ents = [ring.from_int(0)] * (size * size)
    at = 0
    for b in blocks:
        if b.rows != b.cols:
            raise ValueError("diagonal blocks must be square")
        if b.ring != ring:
            raise ValueError("ring mismatch")
        for r in range(b.rows):
            start = (at + r) * size + at
            ents[start:start + b.cols] = b.payloads[r * b.cols:(r + 1) * b.cols]
        at += b.rows
    return ExactMatrix(ring, size, size, ents)


def standard_symplectic_form(ring, n):
    """Block-diagonal sum of n copies of [[0,1],[-1,0]]."""
    size = 2 * n
    one = ring.from_int(1)
    neg_one = ring.p_neg(one)
    ents = [ring.from_int(0)] * (size * size)
    for t in range(0, size, 2):
        ents[t * size + t + 1] = one
        ents[(t + 1) * size + t] = neg_one
    return ExactMatrix(ring, size, size, ents)


def is_alternating(m):
    """Skew-symmetric with zero diagonal, tested exactly."""
    if m.rows != m.cols:
        return False
    ring, a, n = m.ring, m.payloads, m.cols
    for i in range(n):
        if not ring.p_is_zero(a[i * n + i]):
            return False
        for j in range(i + 1, n):
            if not ring.p_eq(a[i * n + j], ring.p_neg(a[j * n + i])):
                return False
    return True


def is_symplectic(a):
    """Whether a^t psi a = psi for the standard form of matching size."""
    if a.rows != a.cols:
        raise OddDimension("symplectic test needs a square matrix")
    if a.rows % 2 != 0:
        raise OddDimension("symplectic test needs an even size")
    psi = standard_symplectic_form(a.ring, a.rows // 2)
    return a.transpose() * psi * a == psi


def tilde(v):
    """The row vector v^t psi as a 1 x 2n matrix."""
    if v.length % 2 != 0:
        raise OddDimension("tilde needs an even-length vector")
    p_neg, ps = v.ring.p_neg, v.payloads
    out = []
    for k in range(0, v.length, 2):
        out += (p_neg(ps[k + 1]), ps[k])
    return ExactMatrix(v.ring, 1, v.length, out)


def sigma_index(i):
    """The coordinate pairing 1<->2, 3<->4, ..."""
    if i < 1:
        raise ValueError("indices are 1-based")
    return i + 1 if i % 2 == 1 else i - 1


def tilde_pair(v, w):
    """The scalar tilde(v) . w, the symplectic pairing of v and w."""
    return _dot(v.ring, tilde(v).payloads, w.payloads)


def _dot(ring, xs, ys):
    """The ring element sum x_k y_k over two payload sequences."""
    p_add, p_mul = ring.p_add, ring.p_mul
    acc = ring.from_int(0)
    for a, b in zip(xs, ys):
        acc = p_add(acc, p_mul(a, b))
    return ring.wrap(acc)


def rank_two_update(x, xrow, y=None, yrow=None, s=None, base=None):
    """The n x m matrix base + s (x xrow + y yrow), in O(n m).

    x and y are length-n columns, xrow and yrow 1 x m rows; the y term
    is optional, s defaults to 1 and base to the identity. The nonzero
    entries of each row are scaled by s once, and zero entries of the
    scaled rows and of the columns are skipped.
    """
    ring = x.ring
    n, m = x.rows, xrow.cols
    if base is None:
        base = identity(ring, n)
    if (base.rows, base.cols) != (n, m):
        raise ValueError("shape mismatch")
    p_add, p_mul, p_is_zero = ring.p_add, ring.p_mul, ring.p_is_zero
    sp = None if s is None else ring.el(s).payload
    out = list(base.payloads)
    for col, row in ((x, xrow), (y, yrow)):
        if col is None:
            continue
        cells = _nonzero_cells(ring, [row.payloads])[0]
        if sp is not None:
            scaled = ((c, p_mul(sp, r)) for c, r in cells)
            cells = [(c, r) for c, r in scaled if not p_is_zero(r)]
        if not cells:
            continue
        for off, a in zip(range(0, n * m, m), col.payloads):
            if p_is_zero(a):
                continue
            for c, r in cells:
                out[off + c] = p_add(out[off + c], p_mul(a, r))
    return _dense(ring, n, m, out)


def pfaffian(phi):
    """Pfaffian of an alternating matrix.

    Over Z/m it is _zmod_pf's O(n^3) congruence elimination on the
    integer payloads; over polynomial rings and localizations it is
    _pf, Rote's division-free clow sum, O(n^4).
    """
    if not is_alternating(phi):
        raise NotAlternating("pfaffian needs an alternating matrix")
    if phi.rows % 2 != 0:
        raise OddDimension("pfaffian needs an even size")
    ring = phi.ring
    if isinstance(ring, ZmodRing):
        return ring.wrap(_zmod_pf(ring.m, phi.payload_grid()))
    return ring.wrap(_pf(ring, phi.payload_grid()))


def _nonzero_cells(ring, a):
    """Per row of the payload grid a, its nonzero (column, payload) pairs."""
    p_is_zero = ring.p_is_zero
    return [[(j, e) for j, e in enumerate(row) if not p_is_zero(e)]
            for row in a]


def _pf(ring, a):
    """Rote's division-free Pfaffian of the alternating payload grid a.

    A perfect matching M, walked against the standard matching sigma
    (0<->1, 2<->3, ... here, 0-based), splits into cycles. From the
    current vertex c a cycle takes an M-edge (c, v) and then the
    sigma-edge from v to sigma(v); its head h, an even index, is its
    least vertex, so every v exceeds h, and it closes at v = sigma(h).
    The sign of M is then the product over the non-closing steps of -1
    for each odd v. The sum runs over all walks of this shape
    ("alternating clows") with increasing heads and n/2 steps in all:
    the walks that are not matchings cancel in pairs (Rote, LNCS 2122,
    2001), and no division is needed. open_[h][c] is the signed weight
    of the partial walks whose open clow has head h and stands at c;
    each round takes one step of every open clow.
    """
    n = len(a)
    p_add, p_mul, p_neg, p_is_zero = ring.p_add, ring.p_mul, ring.p_neg, ring.p_is_zero
    zero = ring.from_int(0)
    cells = _nonzero_cells(ring, a)
    heads = range(0, n, 2)
    open_ = [[zero] * n for _ in range(n)]
    # start[h]: weight of the sequences of closed clows whose heads all
    # lie below h, with which a new clow opens at h
    total = ring.from_int(1)
    start = [total] * n
    for _ in range(n // 2):
        for h in heads:
            open_[h][h] = start[h]
        nxt = [[zero] * n for _ in range(n)]
        closed = [zero] * n
        for h in heads:
            out = nxt[h]
            for c in range(h, n):
                x = open_[h][c]
                if p_is_zero(x):
                    continue
                for v, e in cells[c]:
                    if v <= h:
                        continue
                    y = p_mul(x, e)
                    if v == h + 1:
                        # closing: -1 for the odd v, -1 for the clow
                        closed[h] = p_add(closed[h], y)
                    else:
                        out[v ^ 1] = p_add(out[v ^ 1], p_neg(y) if v & 1 else y)
        open_ = nxt
        total = zero
        for h in heads:
            start[h] = total
            total = p_add(total, closed[h])
    return total


def det(m):
    """Determinant of a square matrix.

    Over Z/m it is _zmod_det's O(n^3) row elimination on the integer
    payloads; over polynomial rings and localizations it is _det,
    Berkowitz's division-free recurrence, O(n^4).
    """
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    ring = m.ring
    if isinstance(ring, ZmodRing):
        return ring.wrap(_zmod_det(ring.m, m.payload_grid()))
    return ring.wrap(_det(ring, m.payload_grid()))


def _det(ring, a):
    """Berkowitz (IPL 18, 1984) on the payload grid a.

    With A_k the leading k x k block, A_k = [[A_(k-1), C], [R, a_kk]],
    the characteristic polynomial det(x I - A_k), as its coefficient
    list from x^k down, is the lower-triangular Toeplitz matrix with
    first column (1, -a_kk, -R C, -R A_(k-1) C, ..., -R A_(k-1)^(k-2) C)
    times that of A_(k-1). det A is (-1)^n times the constant term.
    """
    n = len(a)
    p_add, p_mul, p_neg, p_is_zero = ring.p_add, ring.p_mul, ring.p_neg, ring.p_is_zero
    zero = ring.from_int(0)
    one = ring.from_int(1)
    cells = _nonzero_cells(ring, a)

    def dot(pairs, vec):
        s = zero
        for j, e in pairs:
            x = vec[j]
            if not p_is_zero(x):
                s = p_add(s, p_mul(e, x))
        return s

    poly = [one]
    for k in range(n):
        block = [[(j, e) for j, e in cells[r] if j < k] for r in range(k + 1)]
        col = [a[r][k] for r in range(k)]
        t = [one, p_neg(a[k][k])]
        for i in range(k):
            t.append(p_neg(dot(block[k], col)))
            if i < k - 1:
                col = [dot(block[r], col) for r in range(k)]
        product = []
        for i in range(k + 2):
            s = zero
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                s = p_add(s, p_mul(t[i - j], poly[j]))
            product.append(s)
        poly = product
    return poly[n] if n % 2 == 0 else p_neg(poly[n])


def _bezout(x, y):
    """The integer step (s, t, u, v) = [[s, t], [-y/g, x/g]] for ints
    x, y > 0 and g = gcd(x, y), where s x + t y = g: s inverts x/g mod
    y/g, and t = (g - s x) / y. It has determinant 1 and maps (x, y) to
    (g, 0)."""
    g = gcd(x, y)
    x, y = x // g, y // g
    s = pow(x, -1, y)
    return s, (1 - s * x) // y, -y, x


def _step(x, y):
    """_bezout's step for the pivot x and the entry y, checked exactly:
    VerificationFailed unless it has determinant 1 over Z and clears y.
    So no step can change a determinant or a Pfaffian mod m."""
    s, t, u, v = _bezout(x, y)
    if s * v - t * u != 1 or u * x + v * y != 0:
        raise VerificationFailed("Bezout step %r for (%d, %d) is not "
                                 "unimodular or does not clear the entry"
                                 % ((s, t, u, v), x, y))
    return s, t, u, v


def _combine(m, s, r1, t, r2):
    """The row s r1 + t r2 mod m: every row operation of the Z/m
    elimination."""
    return [(s * p + t * b) % m for p, b in zip(r1, r2)]


def _zmod_det(m, a):
    """Determinant mod m of the int payload grid a, in O(n^3).

    Column by column, each nonzero entry y below the pivot x is cleared
    by an integer row operation of determinant 1: row_y -= (y // x)
    row_x when x divides y, else _step's Bezout step on the two rows,
    which leaves gcd(x, y) as the pivot. A zero pivot is swapped with
    the entry's row, flipping the sign. Reducing mod m keeps every step
    exact for any m >= 2, zero divisors included, and the determinant
    is the signed product of the pivots.
    """
    sign, out = 1, 1
    while a:
        piv = a[0]
        for r in range(1, len(a)):
            y = a[r][0]
            if not y:
                continue
            x = piv[0]
            if not x:
                a[0], a[r], piv = a[r], piv, a[r]
                sign = -sign
            elif y % x == 0:
                a[r] = _combine(m, -(y // x), piv, 1, a[r])
            else:
                s, t, u, v = _step(x, y)
                row = a[r]
                a[r] = _combine(m, u, piv, v, row)
                a[0] = piv = _combine(m, s, piv, t, row)
        if not piv[0]:
            return 0
        out = out * piv[0] % m
        a = [row[1:] for row in a[1:]]
    return sign * out % m


def _zmod_pf(m, a):
    """Pfaffian mod m of the alternating int payload grid a, in O(n^3).

    The entries of row 0 right of the pivot x = a[0][1] are cleared by
    congruences A -> P^t A P on rows and columns (1, j), each with an
    integer P of determinant 1 as in _zmod_det, so Pf(P^t A P) =
    det(P) Pf(A) = Pf(A); a swap of 1 and j when x is zero flips the
    sign. Then row 0 is (0, x, 0, ..., 0), Pf(A) is x times the
    Pfaffian of A without rows and columns 0 and 1, and the Pfaffian is
    the signed product of the pivots.
    """
    sign, out = 1, 1
    while a:
        top = a[0]
        for j in range(2, len(a)):
            y = top[j]
            if not y:
                continue
            x, r1, rj = top[1], a[1], a[j]
            if not x:
                a[1], a[j] = rj, r1
                for row in a:
                    row[1], row[j] = row[j], row[1]
                sign = -sign
            elif y % x == 0:
                q = y // x
                a[j] = _combine(m, -q, r1, 1, rj)
                for row in a:
                    row[j] = (row[j] - q * row[1]) % m
            else:
                s, t, u, v = _step(x, y)
                a[1] = _combine(m, s, r1, t, rj)
                a[j] = _combine(m, u, r1, v, rj)
                for row in a:
                    p, b = row[1], row[j]
                    row[1], row[j] = (s * p + t * b) % m, (u * p + v * b) % m
        if not top[1]:
            return 0
        out = out * top[1] % m
        a = [row[2:] for row in a[2:]]
    return sign * out % m


def adjugate_inverse(m):
    """Inverse of a unit-determinant matrix via the adjugate."""
    from .rings import invert_unit
    d = det(m)
    dinv = invert_unit(d)
    n = m.rows
    ents = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            c = det(m.delete_row_col(j, i))
            if (i + j) % 2 == 1:
                c = -c
            ents.append((c * dinv).payload)
    return ExactMatrix(m.ring, n, n, ents)


def kernel_decomposition(c, w, u):
    """Express c in terms of the standard kernel generators of w.

    Given u^t w = 1 and c^t w = 0, returns the map (i, j) -> a_ij
    (1-based, i < j) with c = sum a_ij (w_j e_i - w_i e_j), using
    a_ij = c_i u_j - c_j u_i. Only pairs meeting supp(u) can give a
    nonzero a_ij, so only those are visited. The reconstruction is
    re-checked, on payloads.
    """
    ring = c.ring
    if u.dot(w) != ring.one:
        raise CertificateInvalid("u^t w must equal 1 exactly")
    if not c.dot(w).is_zero():
        raise NotInKernel("c^t w must vanish exactly")
    n = c.length
    p_add, p_sub, p_mul = ring.p_add, ring.p_sub, ring.p_mul
    p_is_zero, wrap = ring.p_is_zero, ring.wrap
    cs, ws, us = c.payloads, w.payloads, u.payloads
    u_support = u.support()
    coeffs = {}
    recon = [ring.from_int(0)] * n
    for i in range(1, n + 1):
        if i in u_support:
            partners = range(i + 1, n + 1)
        else:
            partners = [j for j in u_support if j > i]
        for j in partners:
            a = p_sub(p_mul(cs[i - 1], us[j - 1]), p_mul(cs[j - 1], us[i - 1]))
            if not p_is_zero(a):
                coeffs[(i, j)] = wrap(a)
                recon[i - 1] = p_add(recon[i - 1], p_mul(ws[j - 1], a))
                recon[j - 1] = p_sub(recon[j - 1], p_mul(ws[i - 1], a))
    check_equal(_dense(ring, n, 1, recon), c, "kernel reconstruction failed")
    return coeffs
