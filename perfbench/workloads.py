"""Seeded inputs for the four benchmark workloads.

Each workload function returns its fixed list of calls. The mix (which
call kinds, sizes, lengths and index patterns appear, and how often) is
drawn once from a constant shape seed named after the workload, so it
is the same for every run, and the run seed draws the values:

* decompose-scale and forms-cli draw their ring elements (and the
  congruence words behind the standardize forms) from the seed; the
  ring work of a pass moves by under 3% between seeds.
* rewrite-deep takes fixed polynomial instances and maps each through
  the ring automorphism X -> uX, with the unit u drawn from the seed
  (the ideal (p, pX) is presented as (p, puX)). An automorphism keeps
  every zero test, so the library does the same work for every seed,
  while the inputs, outputs and evaluation points differ. Drawing the
  coefficients themselves from the seed moved the ring work of a pass
  by about 20% between seeds.
* verify-battery runs trials 0..T-1 of every suite at the fixed suite
  seed 0, as `elemcalc verify --seed 0` does; the suites draw their
  whole input, sizes included, from that seed, and a few slow Z/27
  rewrite trials moved the pass time by 10-20% between suite seeds.
  The run seed sets the order of the trials in the pass.

A Call holds:

* run: the public entry point, as a zero-argument callable; its
  functions are looked up on the modules at call time, so the traced
  run's wrappers see them;
* respond: turns the raw result into the JSON response the oracle and
  the digest read (outside the timed region);
* kind and request: what the oracle checks the response against.

verify-battery calls are whole suite trials, which return only a
verdict; their words are recovered by replaying the trial with capture
wrappers on the suite module (see `capture`).
"""

from __future__ import annotations

import json
import math
import os
import random
from types import SimpleNamespace


class Call:
    __slots__ = ("kind", "request", "run", "respond", "label")

    def __init__(self, kind, request, run, respond, label):
        self.kind = kind
        self.request = request
        self.run = run
        self.respond = respond
        self.label = label


# ---------------------------------------------------------------------------
# shared generators


def _zmod(api, m):
    ring = api.rings.ZmodRing(m)
    p = api.sampling.prime_of(m)
    return ring, api.rings.IdealPresentation(ring, (ring.el(p),))


def _poly(api, m, u):
    """(Z/m)[X, Y] with the ideal (p, pX) presented as (p, p u X)."""
    base = api.rings.ZmodRing(m)
    ring = api.rings.PolyRing(base, ("X", "Y"))
    p = api.sampling.prime_of(m)
    ideal = api.rings.IdealPresentation(
        ring, (ring.el(p), ring.el(p * u) * ring.var("X")))
    return ring, ideal


def _unit(vals, m):
    while True:
        x = vals.randrange(1, m)
        if math.gcd(x, m) == 1:
            return x


def _element(api, shape, vals, ring, variables=(), max_degree=0, u=1):
    """Ring element whose monomials come from the shape stream and whose
    unit coefficients come from the value stream; X is replaced by uX."""
    if not variables:
        return ring.el(_unit(vals, ring.m))
    base = ring.base
    out = ring.zero
    for _ in range(shape.randint(1, 3)):
        mono = ring.one
        coeff = _unit(vals, base.m)
        for _ in range(shape.randint(0, max_degree)):
            name = shape.choice(variables)
            mono = mono * ring.var(name)
            coeff = coeff * (u if name == "X" else 1)
        out = out + mono * ring.el(base.el(coeff))
    return out


def _certified(api, shape, vals, ideal, variables=(), max_degree=0, u=1):
    coeffs = [_element(api, shape, vals, ideal.ring, variables, max_degree,
                       u) for _ in ideal.generators]
    return api.rings.certify(ideal, coeffs)


def _decompose_request(api, shape, vals, m, size, length, short):
    """CLI-shaped request for g se_ij(ab) g^-1 with a random word g."""
    j_ = api.jsonio
    ring, ideal = _zmod(api, m)
    Symp = api.words.SympLetter
    letters = []
    for _ in range(length):
        i, j = shape.sample(range(1, size + 1), 2)
        inv = shape.random() < 0.3
        letters.append((Symp(size, i, j, _element(api, shape, vals, ring)),
                        inv))
    g = api.words.Word(ring, size, letters)
    i = shape.randrange(1, size + 1)
    sigma_i = api.matrices.sigma_index(i)
    if short:
        j = sigma_i
    else:
        j = shape.choice([k for k in range(1, size + 1)
                          if k not in (i, sigma_i)])
    a = _certified(api, shape, vals, ideal)
    b = _certified(api, shape, vals, ideal)
    req = {"ring": j_.ring_to_json(ring), "ideal": j_.ideal_to_json(ideal),
           "n": size // 2, "g": j_.word_to_json(g), "i": i, "j": j,
           "a": j_.certified_to_json(a), "b": j_.certified_to_json(b)}
    return req, (g, i, j, a, b)


def _rewrite_request(api, shape, vals, m, mode, r):
    """CLI-shaped rewrite request with an r-letter first-index conjugator:
    a fixed instance drawn from `shape`, moved by X -> uX with u drawn
    from `vals`."""
    j_ = api.jsonio
    u = _unit(vals, m)
    ring, ideal = _poly(api, m, u)
    smp = api.sampling
    linear = mode == "linear"
    size = 3 if linear else 6
    Letter = api.words.LinLetter if linear else api.words.SympLetter
    letters = []
    for _ in range(r):
        if linear:
            i, j = smp.sample_linear_index1(shape, size)
        else:
            i, j = smp.sample_index1_symplectic(shape, size)
        inv = shape.random() < 0.3
        cert = _certified(api, shape, shape, ideal, ("X",), 1, u)
        letters.append((Letter(size, i, j, cert.value, cert), inv))
    eps = api.words.Word(ring, size, letters)
    if linear:
        i, j = smp.sample_linear_index1(shape, size)
    else:
        i, j = smp.sample_index1_symplectic(shape, size)
    a = _certified(api, shape, shape, ideal, ("X",), 1, u)
    req = {"ring": j_.ring_to_json(ring), "ideal": j_.ideal_to_json(ideal),
           "mode": mode, "n": size if linear else size // 2,
           "eps": j_.word_to_json(eps), "i": i, "j": j,
           "aPoly": j_.certified_to_json(a)}
    return req, (eps, i, j, a)


# ---------------------------------------------------------------------------
# decompose-scale


DECOMPOSE_MODULI = (27, 25)
DECOMPOSE_SIZES = (6, 8, 10, 12)
DECOMPOSE_LENGTHS = (0, 1, 2, 4, 6, 8, 12, 16)


def decompose_scale(api, seed, workdir):
    shape = random.Random("decompose-scale")
    vals = random.Random(seed)
    calls = []
    for m in DECOMPOSE_MODULI:
        for size in DECOMPOSE_SIZES:
            for length in DECOMPOSE_LENGTHS:
                for short in (True, False):
                    req, args = _decompose_request(api, shape, vals, m, size,
                                                   length, short)
                    calls.append(Call(
                        "decompose", req, _decompose_run(api, *args),
                        api.jsonio.decomposition_to_json,
                        "decompose m=%d size=%d |g|=%d %s" % (
                            m, size, length, "short" if short else "long")))
    shape.shuffle(calls)
    return calls


def _decompose_run(api, g, i, j, a, b):
    mod = api.decompose
    return lambda: mod.decompose_conjugate(g, i, j, a, b)


# ---------------------------------------------------------------------------
# rewrite-deep

REWRITE_MODULI = (25, 27, 121)
# instances per (r, mode, modulus); longer conjugators are rarer so one
# pass stays a few seconds on the unoptimized Y-power path
REWRITE_REPEATS = {1: 5, 2: 5, 3: 5, 4: 1, 5: 1}


def rewrite_deep(api, seed, workdir):
    shape = random.Random("rewrite-deep")
    vals = random.Random(seed)
    calls = []
    for r, reps in REWRITE_REPEATS.items():
        for mode in ("linear", "symplectic"):
            for m in REWRITE_MODULI:
                for _ in range(reps):
                    req, args = _rewrite_request(api, shape, vals, m, mode, r)
                    x0, y0 = _unit(vals, m), _unit(vals, m)
                    calls.append(Call(
                        "rewrite", req, _rewrite_run(api, mode, args, x0, y0),
                        _rewrite_respond(api, x0, y0),
                        "rewrite %s m=%d r=%d" % (mode, m, r)))
    shape.shuffle(calls)
    return calls


def _rewrite_run(api, mode, args, x0, y0):
    mod = api.rewrite
    eps, i, j, a = args
    name = "rewrite_conjugation_" + mode

    def run():
        res = getattr(mod, name)(eps, i, j, a)
        return res, mod.specialize_and_check(res, x0, y0)
    return run


def _rewrite_respond(api, x0, y0):
    def respond(raw):
        res, special = raw
        out = api.jsonio.rewrite_to_json(res)
        out["specialized"] = {"point": {"X": x0, "Y": y0},
                              "matrix": api.jsonio.matrix_to_json(special)}
        return out
    return respond


# ---------------------------------------------------------------------------
# forms-cli

# command -> ((size, requests per pass), ...). The size is the matrix
# size for pfaffian, n for standardize, the number of coordinate pairs
# for expand, the word size for group and decompose, and the conjugator
# length for rewrite. Twelve of the ~100 requests are the two largest
# Pfaffians, so p90 falls inside the size-10 group, not at its edge.
FORMS_MIX = (
    ("pfaffian", ((4, 6), (6, 6), (8, 6), (10, 8), (12, 6))),
    ("standardize", ((2, 5), (3, 5), (4, 5), (5, 5), (6, 5))),
    ("expand", ((1, 4), (2, 4), (3, 4))),
    ("group", ((4, 4), (6, 4), (8, 4))),
    ("decompose", ((6, 10),)),
    ("rewrite", ((1, 5), (2, 5))),
)


def forms_cli(api, seed, workdir):
    shape = random.Random("forms-cli")
    vals = random.Random(seed)
    j_ = api.jsonio
    smp = api.sampling
    requests = []
    for command, sizes in FORMS_MIX:
        for size, count in sizes:
            for _ in range(count):
                m = shape.choice((25, 27, 121))
                ring, ideal = _zmod(api, m)
                if command == "pfaffian":
                    mat = smp.sample_alternating(vals, ring, size)
                    req = {"ring": j_.ring_to_json(ring),
                           "matrix": j_.matrix_to_json(mat)}
                elif command == "standardize":
                    phi, _ = smp.sample_relative_form(
                        vals, ring, size, ideal,
                        letters=shape.randint(1, 2 * size))
                    req = {"ring": j_.ring_to_json(ring),
                           "ideal": j_.ideal_to_json(ideal),
                           "form": j_.matrix_to_json(phi)}
                elif command == "expand":
                    req = _transvection_request(api, shape, vals, ring,
                                                ideal, size)
                elif command == "group":
                    w = _index1_word(api, shape, vals, ideal, size,
                                     shape.randint(2, 8))
                    req = {"ring": j_.ring_to_json(ring),
                           "ideal": j_.ideal_to_json(ideal),
                           "direction": "group", "size": size,
                           "word": j_.word_to_json(w)}
                elif command == "decompose":
                    req, _ = _decompose_request(
                        api, shape, vals, shape.choice((25, 27)), size,
                        shape.randint(0, 4), shape.random() < 0.5)
                else:
                    req, _ = _rewrite_request(
                        api, shape, vals, m, shape.choice(
                            ("linear", "symplectic")), size)
                requests.append((command, req, size))
    shape.shuffle(requests)
    calls = []
    for index, (command, req, size) in enumerate(requests):
        path_in = os.path.join(workdir, "req-%03d.json" % index)
        path_out = os.path.join(workdir, "out-%03d.json" % index)
        with open(path_in, "w", encoding="utf-8") as fh:
            fh.write(j_.dumps(req))
        argv = [command if command not in ("expand", "group") else "expand",
                "--in", path_in, "--out", path_out]
        calls.append(Call(command, req, _cli_run(api, argv),
                          _cli_respond(path_out),
                          "cli %s size=%d" % (command, size)))
    return calls


def _index1_word(api, shape, vals, ideal, size, letters):
    """Certified first-index symplectic word."""
    out = api.words.Word(ideal.ring, size)
    for _ in range(letters):
        i, j = api.sampling.sample_index1_symplectic(shape, size)
        cert = _certified(api, shape, vals, ideal)
        out = out.append(api.words.SympLetter(size, i, j, cert.value, cert),
                         inverted=shape.random() < 0.3)
    return out


def _transvection_request(api, shape, vals, ring, ideal, nq):
    """Word of certified rho/mu letters over the standard form."""
    j_ = api.jsonio
    form = api.matrices.standard_symplectic_form(ring, nq)
    size = 2 * nq + 2
    out = api.words.Word(ring, size)
    for _ in range(shape.randint(1, 3)):
        qcs = tuple(_certified(api, shape, vals, ideal)
                    for _ in range(2 * nq))
        q = api.matrices.ColumnVector(ring, tuple(c.value for c in qcs))
        sc = _certified(api, shape, vals, ideal)
        cls = api.words.RhoLetter if shape.random() < 0.5 \
            else api.words.MuLetter
        out = out.append(cls(q, sc.value, form, (sc, qcs)),
                         inverted=shape.random() < 0.3)
    return {"ring": j_.ring_to_json(ring), "ideal": j_.ideal_to_json(ideal),
            "direction": "expand", "size": size,
            "word": j_.word_to_json(out)}


def _cli_run(api, argv):
    mod = api.cli
    return lambda: mod.main(argv)


def _cli_respond(path_out):
    def respond(rc):
        if rc != 0:
            raise RuntimeError("command exited with code %r" % (rc,))
        with open(path_out, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    return respond


# ---------------------------------------------------------------------------
# verify-battery

BATTERY_SUITE_SEED = 0
BATTERY_TRIALS = 40


def verify_battery(api, seed, workdir):
    suites = api.suites
    calls = []
    for index in range(BATTERY_TRIALS):
        trial_seed = api.sampling.trial_seed(BATTERY_SUITE_SEED, index)
        for name in suites.SUITE_NAMES:
            calls.append(Call(
                "suite", {"suite": name, "trial_seed": trial_seed},
                _suite_run(suites, name, trial_seed), _suite_respond,
                "suite %s trial %d" % (name, index)))
    random.Random(seed).shuffle(calls)
    return calls


def _suite_run(suites, name, trial_seed):
    # looked up at call time so the traced run sees its wrapper
    return lambda: suites.SUITES[name](random.Random(trial_seed))


def _suite_respond(raw):
    if raw is not None:
        raise RuntimeError("suite trial failed: expected %s, got %s"
                           % (raw[1], raw[2]))
    return None


WORKLOADS = {
    "verify-battery": verify_battery,
    "decompose-scale": decompose_scale,
    "rewrite-deep": rewrite_deep,
    "forms-cli": forms_cli,
}


# ---------------------------------------------------------------------------
# capture: the words a suite trial produces, as oracle requests


def _vec(api, v):
    return [api.jsonio.element_to_json(e) for e in v.entries]


def _word(api, w):
    out = []
    for letter, inv in w.letters:
        if letter.kind in ("trans-lower", "trans-upper"):
            out.append({"gen": letter.kind, "vec": _vec(api, letter.vec),
                        "inv": bool(inv)})
        else:
            out.append(api.jsonio.letter_to_json(letter, inv))
    return out


def _ring(api, x):
    return api.jsonio.ring_to_json(x.ring)


def _gens(api, ideal):
    return api.jsonio.ideal_to_json(ideal)


def _cert(api, c):
    return api.jsonio.certified_to_json(c)


def _cap_decompose(api, args, kw, res):
    g, i, j, a, b = args[:5]
    return "decompose", {
        "ring": _ring(api, g), "ideal": _gens(api, a.ideal),
        "n": g.size // 2, "g": _word(api, g), "i": i, "j": j,
        "a": _cert(api, a), "b": _cert(api, b)}, \
        api.jsonio.decomposition_to_json(res)


def _cap_lemma(with_w, name):
    def cap(api, args, kw, res):
        v = args[0]
        w = args[1] if with_w else None
        a, b = args[2:4] if with_w else args[1:3]
        return "lemma", {
            "lemma": name, "ring": _ring(api, v),
            "ideal": _gens(api, a.ideal), "size": res.size,
            "v": _vec(api, v), "w": None if w is None else _vec(api, w),
            "a": _cert(api, a), "b": _cert(api, b)}, \
            {"output": _word(api, res)}
    return cap


def _cap_sum_to_product(api, args, kw, res):
    us, us_certs, w = args[:3]
    ordering, x = res
    return "sum-to-product", {
        "ring": _ring(api, w), "ideal": _gens(api, x.ideal.base),
        "us": [_vec(api, u) for u in us], "w": _vec(api, w)}, \
        {"ordering": list(ordering), "x": _cert(api, x)}


def _cap_rewrite(mode):
    def cap(api, args, kw, res):
        eps, i, j, a = args[:4]
        return "rewrite", {
            "ring": _ring(api, eps), "ideal": _gens(api, a.ideal),
            "mode": mode, "n": eps.size if mode == "linear" else eps.size // 2,
            "eps": _word(api, eps), "i": i, "j": j,
            "aPoly": _cert(api, a)}, api.jsonio.rewrite_to_json(res)
    return cap


def _cap_specialize(api, args, kw, res):
    result, x0, y0 = args[:3]
    w = result.output
    return "specialize", {
        "ring": _ring(api, w), "size": w.size, "word": _word(api, w),
        "x0": x0, "y0": y0}, {"matrix": api.jsonio.matrix_to_json(res)}


def _cap_translate(kind):
    def cap(api, args, kw, res):
        w = args[0]
        ideal = kw.get("ideal")
        return kind, {
            "ring": _ring(api, w), "size": w.size, "word": _word(api, w),
            "ideal": None if ideal is None else _gens(api, ideal)}, \
            {"output": _word(api, res)}
    return cap


def _cap_expansion(kind):
    def cap(api, args, kw, res):
        q, s = args[:2]
        return "transvection-word", {
            "ring": _ring(api, q), "kind": kind, "q": _vec(api, q),
            "s": api.jsonio.element_to_json(s)}, {"output": _word(api, res)}
    return cap


def _cap_standardize(api, args, kw, res):
    form, ideal = args[:2]
    return "standardize", {
        "ring": _ring(api, form), "ideal": _gens(api, ideal),
        "form": api.jsonio.matrix_to_json(form.matrix)}, \
        api.jsonio.standardization_to_json(res)


def _cap_pfaffian(api, args, kw, res):
    m = args[0]
    return "pfaffian", {"ring": _ring(api, m),
                        "matrix": api.jsonio.matrix_to_json(m)}, \
        {"verified": True, "pfaffian": api.jsonio.element_to_json(res)}


def _cap_det(api, args, kw, res):
    m = args[0]
    return "det", {"ring": _ring(api, m),
                   "matrix": api.jsonio.matrix_to_json(m)}, \
        {"det": api.jsonio.element_to_json(res)}


def _cap_relation(api, args, kw, res):
    return "relation", {"tag": args[0]}, {"holds": res}


# suite-module name -> encoder of (args, kwargs, result) into an oracle item
CAPTURES = {
    "decompose_conjugate": _cap_decompose,
    "short_root_pair": _cap_lemma(False, "short-root-pair"),
    "short_root_split": _cap_lemma(False, "short-root-split"),
    "long_root_pair": _cap_lemma(True, "long-root-pair"),
    "long_root_reduce": _cap_lemma(True, "long-root-reduce"),
    "long_root_unimodular": _cap_lemma(True, "long-root-unimodular"),
    "sum_to_product": _cap_sum_to_product,
    "rewrite_conjugation_linear": _cap_rewrite("linear"),
    "rewrite_conjugation_symplectic": _cap_rewrite("symplectic"),
    "specialize_and_check": _cap_specialize,
    "etrans_word_to_E1": _cap_translate("expand"),
    "etranssp_word_to_ESp1": _cap_translate("expand"),
    "E1_to_etrans": _cap_translate("group"),
    "ESp1_to_etranssp": _cap_translate("group"),
    "expand_rho": _cap_expansion("rho"),
    "expand_mu": _cap_expansion("mu"),
    "standardize_alternating": _cap_standardize,
    "pfaffian": _cap_pfaffian,
    "det": _cap_det,
    "check_relation": _cap_relation,
}


def capture(api, call):
    """Replay one suite trial with the suite module's word-producing
    functions wrapped; returns the oracle items they produced."""
    mod = api.suites
    seen = []
    saved = {}

    def wrap(name, fn):
        def wrapper(*args, **kw):
            res = fn(*args, **kw)
            seen.append((name, args, kw, res))
            return res
        return wrapper

    for name in CAPTURES:
        saved[name] = getattr(mod, name)
        setattr(mod, name, wrap(name, saved[name]))
    try:
        raw = call.run()
    finally:
        for name, fn in saved.items():
            setattr(mod, name, fn)
    call.respond(raw)
    return [CAPTURES[name](api, args, kw, res)
            for name, args, kw, res in seen]


def load_api():
    """Import the package's modules, fresh, into one namespace."""
    import importlib
    import sys
    for name in [n for n in sys.modules
                 if n == "elemcalc" or n.startswith("elemcalc.")]:
        del sys.modules[name]
    names = ("rings", "matrices", "words", "decompose", "rewrite", "bridge",
             "jsonio", "cli", "suites", "sampling")
    return SimpleNamespace(**{n: importlib.import_module("elemcalc." + n)
                              for n in names})
