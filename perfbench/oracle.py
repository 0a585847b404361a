"""Independent checker for benchmark outputs.

Every check reads a request and a response in the JSON shapes of the
elemcalc command line (rings, ideals, words, matrices and certificates
as `elemcalc.jsonio` encodes them) and recomputes the claimed identity
with plain Python integers mod m. Nothing here imports elemcalc: the
reference side of each identity is built from the request alone, never
from the library's `evaluate`, `ExactMatrix` or ring arithmetic.

Polynomial data is checked by specializing every variable at seeded
points first; evaluation at a point is a ring map, so a true identity
stays true there and a wrong word is caught with high probability.

Each check returns the number of letters in the returned word(s), or
raises OracleMismatch.
"""

from __future__ import annotations

import math


class OracleMismatch(Exception):
    """The response does not satisfy the identity the request asks for."""


def _require(cond, what):
    if not cond:
        raise OracleMismatch(what)


# ---------------------------------------------------------------------------
# rings, elements and certificates


def modulus(ring):
    if ring["kind"] == "zmod":
        return ring["m"]
    _require(ring["kind"] == "poly" and ring["base"]["kind"] == "zmod",
             "unsupported ring %r" % (ring,))
    return ring["base"]["m"]


def points(ring, rng, count=2):
    """Evaluation points: one dict per point, variable -> unit mod m.

    Units keep Y^(4^r) away from zero, so the specialized identities
    stay informative.
    """
    if ring["kind"] == "zmod":
        return [{}]
    m = modulus(ring)
    units = [x for x in range(2, m) if math.gcd(x, m) == 1]
    return [{v: rng.choice(units) for v in ring["vars"]}
            for _ in range(count)]


def ev(x, m, point):
    """Value mod m of an encoded element (int or monomial list)."""
    if isinstance(x, int):
        return x % m
    acc = 0
    for exps, coeff in x:
        term = ev(coeff, m, point)
        for name, e in exps.items():
            term = term * pow(point[name], e, m)
        acc += term
    return acc % m


def cert_value(coeffs, gens, m, point):
    _require(len(coeffs) == len(gens),
             "certificate has %d coefficients for %d generators"
             % (len(coeffs), len(gens)))
    return sum(ev(c, m, point) * ev(g, m, point)
               for c, g in zip(coeffs, gens)) % m


def check_letter_certs(letters, gens, m, point, required):
    """Every present certificate multiplies out to its parameter."""
    for k, letter in enumerate(letters):
        cert = letter.get("cert")
        if cert is None:
            _require(not required, "letter %d has no certificate" % k)
            continue
        if letter["gen"] in ("E", "se"):
            _require(cert_value(cert, gens, m, point)
                     == ev(letter["param"], m, point),
                     "letter %d certificate does not give its parameter" % k)
        else:
            key = "alpha" if letter["gen"] == "rho" else "beta"
            _require(cert_value(cert["scalar"], gens, m, point)
                     == ev(letter[key], m, point),
                     "letter %d scalar certificate is wrong" % k)
            for q, qc in zip(letter["q"], cert["q"]):
                _require(cert_value(qc, gens, m, point) == ev(q, m, point),
                         "letter %d vector certificate is wrong" % k)


# ---------------------------------------------------------------------------
# matrices


def identity(n):
    return [[1 if r == c else 0 for c in range(n)] for r in range(n)]


def matmul(a, b, m):
    inner = len(b)
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for t in range(inner):
            x = row[t]
            if x:
                brow = b[t]
                for c in range(cols):
                    acc[c] += x * brow[c]
        out.append([v % m for v in acc])
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def reduce_mod(a, m):
    return [[x % m for x in row] for row in a]


def values(rows, m, point):
    """An encoded matrix as integers mod m at the evaluation point."""
    return [[ev(x, m, point) for x in row] for row in rows]


def sigma(i):
    return i + 1 if i % 2 == 1 else i - 1


def standard_form(size):
    """Block diagonal sum of [[0, 1], [-1, 0]] of the given even size."""
    j = [[0] * size for _ in range(size)]
    for t in range(0, size, 2):
        j[t][t + 1] = 1
        j[t + 1][t] = -1
    return j


def tilde(v, m):
    """The row v^t J for the standard form J."""
    return matmul([v], standard_form(len(v)), m)[0]


def outer(col, row, m):
    return [[c * r % m for r in row] for c in col]


def add(a, b, m):
    return [[(x + y) % m for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, s, m):
    return [[x * s % m for x in row] for row in a]


def pfaffian(a, m):
    """Pfaffian by expansion along the lowest remaining index, memoized
    on the set of remaining indices."""
    n = len(a)
    memo = {0: 1}

    def pf(mask):
        got = memo.get(mask)
        if got is not None:
            return got
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        acc = 0
        sign = 1
        for j in range(i + 1, n):
            if rest >> j & 1:
                if a[i][j] % m:
                    acc += sign * a[i][j] * pf(rest & ~(1 << j))
                sign = -sign
        memo[mask] = acc % m
        return memo[mask]

    if n % 2:
        return 0
    return pf((1 << n) - 1)


def determinant(a, m):
    """Determinant as a signed sum over permutations, built row by row
    over the set of columns already used."""
    n = len(a)
    dp = {0: 1}
    for r in range(n):
        nxt = {}
        for mask, val in dp.items():
            for c in range(n):
                if mask >> c & 1 or a[r][c] % m == 0:
                    continue
                above = bin(mask >> (c + 1)).count("1")
                term = val * a[r][c] * (-1 if above % 2 else 1)
                key = mask | (1 << c)
                nxt[key] = (nxt.get(key, 0) + term) % m
        dp = nxt
    return dp.get((1 << n) - 1, 0) % m


# ---------------------------------------------------------------------------
# words


def se_cells(i, j, z):
    """Cells of the symplectic elementary matrix se_ij(z)."""
    if i == sigma(j):
        return [(i, j, z)]
    return [(i, j, z), (sigma(j), sigma(i), -(-1) ** (i + j) * z)]


def _block(letter, m, point):
    """Dense matrix of a row (rho) or column (mu) transvection."""
    q = [ev(x, m, point) for x in letter["q"]]
    form = [[ev(x, m, point) for x in row] for row in letter["form"]]
    n2 = len(q)
    qf = matmul([q], form, m)[0] if n2 else []
    g = identity(n2 + 2)
    if letter["gen"] == "rho":
        g[1][0] = -ev(letter["alpha"], m, point)
        for ell in range(n2):
            g[1][2 + ell] = qf[ell]
            g[2 + ell][0] = -q[ell]
    else:
        g[0][1] = ev(letter["beta"], m, point)
        for ell in range(n2):
            g[0][2 + ell] = -qf[ell]
            g[2 + ell][1] = -q[ell]
    return reduce_mod(g, m)


def _unipotent_inverse(g, m):
    n = len(g)
    neg = [[(-g[r][c] + (1 if r == c else 0)) % m for c in range(n)]
           for r in range(n)]
    out = identity(n)
    power = identity(n)
    for _ in range(n):
        power = matmul(power, neg, m)
        out = add(out, power, m)
    _require(not any(any(row) for row in power),
             "transvection letter is not unipotent")
    return out


def letter_action(letter, m, point):
    """("cells", [(row, col, z)]) for sparse letters, ("dense", matrix)."""
    gen = letter["gen"]
    inv = letter.get("inv", False)
    if gen in ("E", "se"):
        i, j = letter["i"], letter["j"]
        z = ev(letter["param"], m, point)
        cells = [(i, j, z)] if gen == "E" else se_cells(i, j, z)
    elif gen == "trans-lower":
        cells = [(k + 2, 1, ev(v, m, point))
                 for k, v in enumerate(letter["vec"])]
    elif gen == "trans-upper":
        cells = [(1, k + 2, ev(v, m, point))
                 for k, v in enumerate(letter["vec"])]
    elif gen in ("rho", "mu"):
        g = _block(letter, m, point)
        return ("dense", _unipotent_inverse(g, m) if inv else g)
    else:
        raise OracleMismatch("unknown letter %r" % (gen,))
    rows = {r for r, _, _ in cells}
    cols = {c for _, c, _ in cells}
    # With no cell row equal to a cell column, N^2 = 0 and the inverse
    # of I + N is I - N.
    _require(not rows & cols, "letter %r is not square-zero" % (gen,))
    if inv:
        cells = [(r, c, -z) for r, c, z in cells]
    return ("cells", cells)


def product(letters, size, m, point):
    """Ordered product of encoded letters at the evaluation point."""
    out = identity(size)
    for letter in letters:
        kind, data = letter_action(letter, m, point)
        if kind == "dense":
            _require(len(data) == size, "letter size differs from word size")
            out = matmul(out, data, m)
            continue
        for r, c, z in data:
            _require(1 <= r <= size and 1 <= c <= size and r != c,
                     "letter index out of range")
            if z % m == 0:
                continue
            for row in out:
                row[c - 1] = (row[c - 1] + row[r - 1] * z) % m
    return out


def inverse_letters(letters):
    return [dict(letter, inv=not letter.get("inv", False))
            for letter in reversed(letters)]


def _equal(a, b, m, what):
    _require(reduce_mod(a, m) == reduce_mod(b, m),
             "%s: the two sides differ" % what)


def _gens(req):
    return req.get("ideal")


# ---------------------------------------------------------------------------
# checks, one per request kind


def check_decompose(req, resp, rng):
    """g se_ij(a b) g^-1 against the returned certified word."""
    ring = req["ring"]
    m = modulus(ring)
    size = 2 * req["n"]
    gens = _gens(req)
    _require(resp.get("verified") is True, "decomposition not verified")
    a = cert_value(req["a"], gens, m, {})
    b = cert_value(req["b"], gens, m, {})
    g = req["g"]
    target = {"gen": "se", "i": req["i"], "j": req["j"], "param": a * b % m}
    want = product(g + [target] + inverse_letters(g), size, m, {})
    out = resp["output"]
    _equal(product(out, size, m, {}), want, m, "decomposition")
    check_letter_certs(out, gens, m, {}, required=True)
    return len(out)


def check_rewrite(req, resp, rng):
    """eps X_ij(Y^(4^r) a) eps^-1 against the returned word, at points."""
    ring = req["ring"]
    m = modulus(ring)
    linear = req["mode"] == "linear"
    size = req["n"] if linear else 2 * req["n"]
    gens = _gens(req)
    eps = req["eps"]
    out = resp["output"]
    _require(resp.get("verified") is True, "rewrite not verified")
    for k, letter in enumerate(out):
        _require(all(exps.get("Y", 0) >= 1 for exps, _ in letter["param"]),
                 "letter %d parameter is not divisible by Y" % k)
        if linear:
            _require(letter["gen"] == "E" and 1 in (letter["i"], letter["j"]),
                     "letter %d is not a first-index linear letter" % k)
        else:
            idx = (letter["i"], letter["j"])
            _require(letter["gen"] == "se"
                     and any(x in (1, 2) for x in idx),
                     "letter %d is not a first-index symplectic letter" % k)
    for point in points(ring, rng):
        a = cert_value(req["aPoly"], gens, m, point)
        ypow = pow(point["Y"], 4 ** len(eps), m)
        target = {"gen": "E" if linear else "se", "i": req["i"],
                  "j": req["j"], "param": ypow * a % m}
        want = product(eps + [target] + inverse_letters(eps), size, m,
                       point)
        got = product(out, size, m, point)
        _equal(got, want, m, "rewrite at %r" % (point,))
        check_letter_certs(out, gens, m, point, required=True)
    special = resp.get("specialized")
    if special is not None:
        _equal(values(special["matrix"], m, {}),
               product(out, size, m, special["point"]), m,
               "specialized matrix")
    return len(out)


def check_pfaffian(req, resp, rng):
    m = modulus(req["ring"])
    a = values(req["matrix"], m, {})
    _require(resp.get("verified") is True, "Pfaffian not verified")
    _require(ev(resp["pfaffian"], m, {}) == pfaffian(a, m),
             "Pfaffian differs")
    return 0


def check_det(req, resp, rng):
    m = modulus(req["ring"])
    a = values(req["matrix"], m, {})
    _require(ev(resp["det"], m, {}) == determinant(a, m),
             "determinant differs")
    return 0


def check_standardize(req, resp, rng):
    """(1 perp E)^t J (1 perp E) must give back the input form."""
    ring = req["ring"]
    m = modulus(ring)
    form = values(req["form"], m, {})
    size = len(form)
    _require(resp.get("verified") is True, "standardization not verified")
    eps = resp["eps_word"]
    e = product(eps, size - 1, m, {})
    emb = identity(size)
    for r in range(size - 1):
        for c in range(size - 1):
            emb[r + 1][c + 1] = e[r][c]
    got = matmul(matmul(transpose(emb), standard_form(size), m), emb, m)
    _equal(got, form, m, "standardization")
    check_letter_certs(eps, _gens(req), m, {},
                       required=resp.get("relative") is True)
    return len(eps)


def check_same_product(req, resp, rng):
    """A translated word must evaluate like its input (expand/group)."""
    ring = req["ring"]
    m = modulus(ring)
    size = req["size"]
    gens = _gens(req)
    out = resp["output"]
    _require(resp.get("verified", True) is True, "translation not verified")
    for point in points(ring, rng):
        _equal(product(out, size, m, point),
               product(req["word"], size, m, point), m, "translation")
        if gens is not None:
            check_letter_certs(out, gens, m, point, required=False)
    return len(out)


def _closed_form(req, m):
    """I + a b (v vtilde) or I + a b (v wtilde + w vtilde)."""
    size = req["size"]
    gens = _gens(req)
    ab = cert_value(req["a"], gens, m, {}) * cert_value(req["b"], gens, m, {})
    v = [ev(x, m, {}) for x in req["v"]] + [0] * (size - len(req["v"]))
    if req.get("w") is None:
        piece = outer(v, tilde(v, m), m)
    else:
        w = [ev(x, m, {}) for x in req["w"]] + [0] * (size - len(req["w"]))
        piece = add(outer(v, tilde(w, m), m), outer(w, tilde(v, m), m), m)
    return add(identity(size), scale(piece, ab, m), m)


def check_closed_form(req, resp, rng):
    """A decomposition lemma's word against its rank-one/two closed form."""
    m = modulus(req["ring"])
    out = resp["output"]
    _equal(product(out, req["size"], m, {}), _closed_form(req, m), m,
           "lemma %s" % req.get("lemma"))
    check_letter_certs(out, _gens(req), m, {}, required=False)
    return len(out)


def check_sum_to_product(req, resp, rng):
    """I + sum(u wtilde + w utilde) = prod(I + u wtilde + w utilde) (I + x w wtilde)."""
    m = modulus(req["ring"])
    w = [ev(x, m, {}) for x in req["w"]]
    us = [[ev(x, m, {}) for x in u] for u in req["us"]]
    size = len(w)
    wt = tilde(w, m)
    pieces = [add(outer(u, wt, m), outer(w, tilde(u, m), m), m) for u in us]
    lhs = identity(size)
    for p in pieces:
        lhs = add(lhs, p, m)
    gens = [ev(g, m, {}) for g in _gens(req)]
    square = [gens[i] * gens[j] for i in range(len(gens))
              for j in range(i, len(gens))]
    x = cert_value(resp["x"], square, m, {})
    rhs = identity(size)
    _require(sorted(resp["ordering"]) == list(range(len(us))),
             "ordering is not a permutation of the pieces")
    for idx in resp["ordering"]:
        rhs = matmul(rhs, add(identity(size), pieces[idx], m), m)
    rhs = matmul(rhs, add(identity(size), scale(outer(w, wt, m), x, m), m), m)
    _equal(lhs, rhs, m, "sum-to-product regrouping")
    return 0


def check_transvection_word(req, resp, rng):
    """expand_rho / expand_mu: the word equals the block transvection."""
    m = modulus(req["ring"])
    q = req["q"]
    size = len(q) + 2
    form = standard_form(len(q))
    letter = {"gen": req["kind"], "q": q, "form": form,
              "alpha": req["s"], "beta": req["s"]}
    out = resp["output"]
    _equal(product(out, size, m, {}), _block(letter, m, {}), m,
           "%s expansion" % req["kind"])
    return len(out)


def check_specialized(req, resp, rng):
    """specialize_and_check returns the word's value at (x0, y0)."""
    ring = req["ring"]
    m = modulus(ring)
    point = {v: 0 for v in ring["vars"]}
    point["Y"] = req["y0"] % m
    if "X" in point:
        point["X"] = req["x0"] % m
    _equal(values(resp["matrix"], m, {}),
           product(req["word"], req["size"], m, point), m,
           "specialized rewrite")
    return 0


def check_relation(req, resp, rng):
    _require(resp["holds"] is True, "relation %s reported false"
             % req.get("tag"))
    return 0


CHECKS = {
    "decompose": check_decompose,
    "rewrite": check_rewrite,
    "pfaffian": check_pfaffian,
    "det": check_det,
    "standardize": check_standardize,
    "expand": check_same_product,
    "group": check_same_product,
    "lemma": check_closed_form,
    "sum-to-product": check_sum_to_product,
    "transvection-word": check_transvection_word,
    "specialize": check_specialized,
    "relation": check_relation,
}


def check(kind, req, resp, rng):
    """Run the check for one request kind; returns letters returned."""
    return CHECKS[kind](req, resp, rng)
