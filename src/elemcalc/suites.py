"""Randomized verification suites behind the command line interface.

Each suite repeats one self-contained trial: draw inputs from the
documented distributions, run the construction under test, and rely on
the library's own exact re-verification plus explicit cross-checks.
A trial returns on success and raises _TrialFailure with
(inputs, expected, achieved) description strings on failure; the
report records the per-trial seed together with digests of the three,
so any failure can be replayed in isolation.

The trials look up the functions they exercise as module globals at
call time, so wrappers set on this module (the benchmark's capture of
a trial's words) see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time

from .bridge import (
    AlternatingForm,
    E1_to_etrans,
    ESp1_to_etranssp,
    etrans_word_to_E1,
    etranssp_word_to_ESp1,
    rho_matrix,
    mu_matrix,
    standardize_alternating,
)
from .decompose import (
    decompose_conjugate,
    long_root_pair,
    long_root_reduce,
    long_root_unimodular,
    short_root_pair,
    short_root_split,
    sum_to_product,
)
from .errors import BadTrialCount, NotAUnit, UnknownSuite
from .matrices import (
    ColumnVector,
    basis_vector,
    det,
    pfaffian,
    sigma_index,
    standard_symplectic_form,
    tilde_pair,
)
from .rewrite import (
    rewrite_conjugation_linear,
    rewrite_conjugation_symplectic,
    specialize_and_check,
)
from .rings import (
    IdealPresentation,
    PolyRing,
    ZmodRing,
    invert_unit,
    substitute,
)
from .sampling import (
    MODULI,
    prime_of,
    sample_alternating,
    sample_certified,
    sample_element,
    sample_index1_linear_word,
    sample_index1_symplectic,
    sample_index1_symplectic_word,
    sample_linear_index1,
    sample_relation_ring,
    sample_relative_form,
    sample_symplectic_word,
    sample_vector,
    sample_zmod,
    trial_seed,
    trial_rng,
)
from .words import (
    LinLetter,
    LowerTransLetter,
    MuLetter,
    RELATION_TAGS,
    RhoLetter,
    UpperTransLetter,
    Word,
    check_relation,
    evaluate,
    expand_mu,
    expand_rho,
    word_certified,
    word_in_E1,
    word_in_ESp1,
)


def _digest(text):
    return hashlib.sha256(str(text).encode("utf-8")).hexdigest()[:16]


class _TrialFailure(Exception):
    """A failed trial; args are its (inputs, expected, achieved) strings."""


@contextlib.contextmanager
def _expect(desc, expected):
    """Report an exception from the code under test as a failed trial."""
    try:
        yield
    except _TrialFailure:
        raise
    except Exception as e:
        raise _TrialFailure(desc, expected, "raised %s: %s"
                            % (type(e).__name__, e))


def _z27_setup():
    ring = ZmodRing(27)
    return ring, IdealPresentation(ring, (ring.el(3),))


def _certified_pair(rng, ideal):
    return sample_certified(rng, ideal), sample_certified(rng, ideal)


def _certified_vector(rng, ideal, length):
    """A vector of certified ideal elements, with its certificates."""
    certs = tuple(sample_certified(rng, ideal) for _ in range(length))
    return ColumnVector(ideal.ring, tuple(c.value for c in certs)), certs


def _fix_pairing(rng, ring, w, v, forbidden=()):
    """Adjust one coordinate of w so that tilde(w) . v vanishes.

    Returns the adjusted vector, or None when no coordinate outside
    the forbidden set sees a unit of v through the pairing.
    """
    c = tilde_pair(w, v)
    if c.is_zero():
        return w
    order = list(range(1, v.length + 1))
    rng.shuffle(order)
    for m in order:
        if m in forbidden:
            continue
        s = tilde_pair(basis_vector(ring, v.length, m), v)
        try:
            inv = invert_unit(s)
        except NotAUnit:
            continue
        return w.with_entry(m, w.entry(m) - c * inv)
    return None


def _off_pair(rng, ring, size, t):
    v = sample_vector(rng, ring, size)
    if 2 * t <= size:
        v = v.with_entry(2 * t - 1, ring.zero).with_entry(2 * t, ring.zero)
    return v


def _vanishing_pair(rng, ring, size, t, long_root):
    """Vectors v off pair t and w with tilde(w) . v = 0, in 40 tries.

    For the long-root lemma w is drawn off pair t too and keeps it
    clear; otherwise w is any vector. Returns None if every try fails.
    """
    forbidden = (2 * t - 1, 2 * t) if long_root else ()
    for _ in range(40):
        v = _off_pair(rng, ring, size, t)
        w = (_off_pair(rng, ring, size, t) if long_root
             else sample_vector(rng, ring, size))
        w = _fix_pairing(rng, ring, w, v, forbidden)
        if w is not None:
            return v, w
    return None


# ---------------------------------------------------------------------------
# individual suites: each runs one trial and returns on success


def _suite_relations(rng):
    ring, cap = sample_relation_ring(rng)
    for tag in RELATION_TAGS:
        if tag == "linear":
            n = rng.choice((3, 4))
            indices = tuple(rng.sample(range(1, n + 1), 3))
        elif tag == "symplectic-long":
            n = 3
            while True:
                i, j = rng.sample(range(1, 2 * n + 1), 2)
                if i == sigma_index(j):
                    continue
                free = [k for k in range(1, 2 * n + 1)
                        if k not in (i, j, sigma_index(i), sigma_index(j))]
                if free:
                    indices = (i, j, rng.choice(free))
                    break
        elif tag == "symplectic-short":
            n = rng.choice((2, 3))
            i = rng.randrange(1, 2 * n + 1)
            free = [k for k in range(1, 2 * n + 1)
                    if k not in (i, sigma_index(i))]
            indices = (i, sigma_index(i), rng.choice(free))
        elif tag == "symplectic-mixed":
            n = rng.choice((2, 3))
            while True:
                i, j = rng.sample(range(1, 2 * n + 1), 2)
                if i != sigma_index(j):
                    indices = (i, j)
                    break
        else:
            n = rng.choice((2, 3))
            while True:
                i, j = rng.sample(range(1, 2 * n + 1), 2)
                k, l = rng.sample(range(1, 2 * n + 1), 2)
                if i in (l, sigma_index(k)) or j in (k, sigma_index(l)):
                    continue
                indices = (i, j, k, l)
                break
        a = sample_element(rng, ring, cap)
        b = sample_element(rng, ring, cap)
        desc = "%s over %r n=%d idx=%r a=%r b=%r" % (
            tag, ring, n, indices, a, b)
        with _expect(desc, "relation holds"):
            ok = check_relation(tag, ring, n, indices, a, b)
        if not ok:
            raise _TrialFailure(desc, "relation holds", "two sides differ")


def _suite_short_root(rng):
    ring, ideal = _z27_setup()
    n = rng.choice((2, 3))
    t = rng.randrange(1, n + 2)
    v = _off_pair(rng, ring, 2 * n, t)
    a, b = _certified_pair(rng, ideal)
    with _expect("short-root v=%r pair=%d a=%r b=%r"
                 % (v, t, a.value, b.value), "verified word"):
        short_root_pair(v, a, b, t)


def _suite_long_root(rng):
    ring, ideal = _z27_setup()
    n = rng.choice((2, 3))
    t = rng.randrange(1, n + 2)
    pair = _vanishing_pair(rng, ring, 2 * n, t, long_root=True)
    if pair is None:
        raise NotAUnit("could not arrange a vanishing pairing")
    v, w = pair
    a, b = _certified_pair(rng, ideal)
    with _expect("long-root v=%r w=%r pair=%d" % (v, w, t), "verified word"):
        long_root_pair(v, w, a, b, t)


def _suite_reduce(rng):
    ring, ideal = _z27_setup()
    n = rng.choice((2, 3))
    t = rng.randrange(1, n + 1)
    pair = _vanishing_pair(rng, ring, 2 * n, t, long_root=False)
    if pair is None:
        raise _TrialFailure("reduce setup", "vectors found",
                            "no unit coordinate")
    v, w = pair
    a, b = _certified_pair(rng, ideal)
    with _expect("reduce v=%r w=%r pair=%d" % (v, w, t), "verified word"):
        long_root_reduce(v, w, a, b, t)


def _suite_split(rng):
    ring, ideal = _z27_setup()
    n = rng.choice((2, 3))
    v = sample_vector(rng, ring, 2 * n)
    a, b = _certified_pair(rng, ideal)
    with _expect("split v=%r a=%r b=%r" % (v, a.value, b.value),
                 "verified word"):
        short_root_split(v, a, b)


def _suite_sum_to_product(rng):
    ring, ideal = _z27_setup()
    n = rng.choice((2, 3))
    size = 2 * n
    k = rng.randrange(1, size + 1)
    w = basis_vector(ring, size, k).scale(
        ring.el(rng.choice((1, 2, 4, 5, 7, 8))))
    pieces = rng.randint(1, 3)
    us, us_certs = [], []
    for _ in range(pieces):
        certs = [ideal.zero_cert() if coord == sigma_index(k)
                 else sample_certified(rng, ideal)
                 for coord in range(1, size + 1)]
        us_certs.append(certs)
        us.append(ColumnVector(ring, tuple(c.value for c in certs)))
    desc = "sum-to-product w=%r pieces=%d" % (w, pieces)
    with _expect(desc, "regrouped product"):
        ordering, x_cert = sum_to_product(us, us_certs, w)
    if not x_cert.check():
        raise _TrialFailure(desc, "valid square-ideal certificate",
                            "certificate invalid")


def _suite_unimodular(rng):
    ring, ideal = _z27_setup()
    size = 6
    for _ in range(40):
        w = sample_vector(rng, ring, size)
        units = []
        for m in range(1, size + 1):
            try:
                units.append((m, invert_unit(w.entry(m))))
            except NotAUnit:
                continue
        if units:
            break
    else:
        raise _TrialFailure("unimodular setup", "unit coordinate",
                            "none found")
    m0, inv0 = rng.choice(units)
    u = basis_vector(ring, size, m0).scale(inv0)
    v = sample_vector(rng, ring, size)
    v = _fix_pairing(rng, ring, v, w)
    if v is None:
        raise _TrialFailure("unimodular setup", "pairing fixed",
                            "no unit through pairing")
    a, b = _certified_pair(rng, ideal)
    with _expect("unimodular v=%r w=%r u=%r" % (v, w, u), "verified word"):
        long_root_unimodular(v, w, a, b, u)


def _suite_decompose(rng):
    ring, ideal = _z27_setup()
    size = 6
    g = sample_symplectic_word(rng, ring, size, rng.randint(0, 6))
    i = rng.randrange(1, size + 1)
    j = rng.randrange(1, size + 1)
    while j == i:
        j = rng.randrange(1, size + 1)
    a, b = _certified_pair(rng, ideal)
    desc = "decompose g=%r target=(%d,%d) a=%r b=%r" % (
        g, i, j, a.value, b.value)
    with _expect(desc, "verified decomposition"):
        res = decompose_conjugate(g, i, j, a, b)
    if not word_certified(res.output, ideal):
        raise _TrialFailure(desc, "all letters certified",
                            "uncertified letter")


def _suite_rewrite(rng, linear):
    m = rng.choice(MODULI)
    ring = PolyRing(ZmodRing(m), ("X", "Y"))
    p = prime_of(m)
    ideal = IdealPresentation(
        ring, (ring.el(p), ring.el(p) * ring.var("X")))
    r = rng.choice((1, 2, 3))
    if linear:
        eps = sample_index1_linear_word(rng, ideal, 3, r, variables=("X",))
        i, j = sample_linear_index1(rng, 3)
        rewrite, member = rewrite_conjugation_linear, word_in_E1
    else:
        eps = sample_index1_symplectic_word(rng, ideal, 6, r,
                                            variables=("X",))
        i, j = sample_index1_symplectic(rng, 6)
        rewrite, member = rewrite_conjugation_symplectic, word_in_ESp1
    a = sample_certified(rng, ideal, max_degree=1, variables=("X",))
    desc = "rewrite-%s mod %d r=%d eps=%r target=(%d,%d) a=%r" % (
        "linear" if linear else "symplectic", m, r, eps, i, j, a.value)
    with _expect(desc, "verified rewrite"):
        res = rewrite(eps, i, j, a)
        out = res.output
        if not member(out, ideal):
            bad = "output letter outside the certified first-index family"
        elif any(not substitute(letter.param, {"Y": out.ring.zero}).is_zero()
                 for letter, _ in out.letters):
            bad = "parameter not divisible by Y"
        else:
            bad = None
            specialize_and_check(res, rng.randrange(m), rng.randrange(m))
    if bad is not None:
        raise _TrialFailure(desc, "verified rewrite", bad)


def _sample_etrans_word(rng, ring, ideal, nvec, letters):
    out = Word(ring, nvec + 1)
    for _ in range(letters):
        vec, certs = _certified_vector(rng, ideal, nvec)
        make = LowerTransLetter if rng.random() < 0.5 else UpperTransLetter
        out = out.append(make(vec, certs), inverted=rng.random() < 0.3)
    return out


def _sample_transvection_word(rng, ring, ideal, nq, letters):
    form = standard_symplectic_form(ring, nq)
    out = Word(ring, 2 * nq + 2)
    for _ in range(letters):
        q, qcs = _certified_vector(rng, ideal, 2 * nq)
        sc = sample_certified(rng, ideal)
        make = RhoLetter if rng.random() < 0.5 else MuLetter
        out = out.append(make(q, sc.value, form, (sc, qcs)),
                         inverted=rng.random() < 0.3)
    return out


def _suite_dictionaries(rng):
    ring, ideal = _z27_setup()
    # built per trial: the translators are looked up at call time
    halves = (
        ("linear", (2, 3), _sample_etrans_word,
         etrans_word_to_E1, E1_to_etrans),
        ("symplectic", (1, 2), _sample_transvection_word,
         etranssp_word_to_ESp1, ESp1_to_etranssp),
    )
    for name, dims, sample, forward, back in halves:
        dim = rng.choice(dims)
        w = sample(rng, ring, ideal, dim, rng.randint(1, 3))
        desc = "dictionary %s w=%r" % (name, w)
        with _expect(desc, "round trip"):
            image = forward(w)
            if evaluate(image) != evaluate(w):
                raise _TrialFailure(desc, "same evaluation",
                                    "forward image differs")
            if evaluate(back(image, ideal=ideal)) != evaluate(w):
                raise _TrialFailure(desc, "same evaluation",
                                    "round trip differs")
    # expansion versus the block matrix picture, at the symplectic size
    q, qcs = _certified_vector(rng, ideal, 2 * dim)
    sc = sample_certified(rng, ideal)
    form = standard_symplectic_form(ring, dim)
    desc = "expansion q=%r s=%r" % (q, sc.value)
    with _expect(desc, "expansion matches blocks"):
        for name, expand, block in (("rho", expand_rho, rho_matrix),
                                    ("mu", expand_mu, mu_matrix)):
            if evaluate(expand(q, sc.value, sc, list(qcs))) \
                    != block(q, sc.value, form):
                raise _TrialFailure(desc, "expansion matches blocks",
                                    "%s expansion differs" % name)


def _suite_standardize(rng):
    ring, ideal = _z27_setup()
    n = rng.choice((2, 3))
    phi, eps0 = sample_relative_form(rng, ring, n, ideal,
                                     letters=rng.randint(1, 4))
    desc = "standardize n=%d eps0=%r" % (n, eps0)
    with _expect(desc, "standardized"):
        form = AlternatingForm(phi)
        if form.pfaffian_cache != ring.one:
            raise _TrialFailure(desc, "Pfaffian one",
                                repr(form.pfaffian_cache))
        res = standardize_alternating(form, ideal)
    if not res.relative:
        raise _TrialFailure(desc, "relative congruence",
                            "letters left the ideal")


def _suite_pfaffian(rng):
    ring = sample_zmod(rng)
    n = rng.randint(1, 4)
    pf = pfaffian(standard_symplectic_form(ring, n))
    if pf != ring.one:
        raise _TrialFailure("pfaffian over %r n=%d" % (ring, n),
                            "Pf of standard form is 1", repr(pf))
    size = rng.choice((4, 6))
    A = sample_alternating(rng, ring, size)
    pf_a = pfaffian(A)
    if pf_a * pf_a != det(A):
        raise _TrialFailure("pfaffian square A=%r" % (A,), "Pf^2 = det",
                            "differs")
    phi = sample_alternating(rng, ring, 4)
    w = Word(ring, 4)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(1, 5), 2)
        w = w.append(LinLetter(4, i, j, sample_element(rng, ring)),
                     inverted=rng.random() < 0.3)
    B = evaluate(w)
    if pfaffian(B.transpose() * phi * B) != det(B) * pfaffian(phi):
        raise _TrialFailure("pfaffian congruence B=%r phi=%r" % (B, phi),
                            "Pf(B^t phi B) = det(B) Pf(phi)", "differs")


SUITES = {
    "relations": _suite_relations,
    "short-root": _suite_short_root,
    "long-root": _suite_long_root,
    "reduce": _suite_reduce,
    "split": _suite_split,
    "sum-to-product": _suite_sum_to_product,
    "unimodular": _suite_unimodular,
    "decompose": _suite_decompose,
    "rewrite-linear": functools.partial(_suite_rewrite, linear=True),
    "rewrite-symplectic": functools.partial(_suite_rewrite, linear=False),
    "dictionaries": _suite_dictionaries,
    "standardize": _suite_standardize,
    "pfaffian": _suite_pfaffian,
}

SUITE_NAMES = tuple(SUITES)


class SuiteReport:
    """Result of one suite run.

    failures holds (trial seed, input digest, expected digest,
    achieved digest) tuples sorted by seed; it is empty exactly when
    the run passed.
    """

    __slots__ = ("suite", "trials", "failures", "elapsed")

    def __init__(self, suite, trials, failures, elapsed):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "failures", tuple(failures))
        object.__setattr__(self, "elapsed", elapsed)

    def __setattr__(self, name, value):
        raise AttributeError("reports are immutable")

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        state = "ok" if self.ok else "%d FAILED" % len(self.failures)
        return "%-18s %4d trials  %8.3fs  %s" % (
            self.suite, self.trials, self.elapsed, state)

    def __repr__(self):
        return "SuiteReport(%r, trials=%d, failures=%d)" % (
            self.suite, self.trials, len(self.failures))


def run_suite(suite, trials, seed):
    """Run `trials` independent trials of one suite.

    Every trial draws from its own Random((seed << 20) ^ index)
    stream. Failures never stop the run; they are collected in the
    report, sorted by trial seed. An exception that escapes a trial's
    checks is reported as a failure of its setup.
    """
    if suite not in SUITES:
        raise UnknownSuite("no suite named %r (know %s)"
                           % (suite, ", ".join(SUITE_NAMES)))
    if trials < 0:
        raise BadTrialCount("the number of trials must be at least 0, "
                            "not %d" % (trials,))
    fn = SUITES[suite]
    t0 = time.perf_counter()
    failures = []
    for index in range(trials):
        try:
            fn(trial_rng(seed, index))
            continue
        except _TrialFailure as e:
            bad = e.args
        except Exception as e:
            bad = ("trial %d setup" % index, "completed trial",
                   "raised %s: %s" % (type(e).__name__, e))
        failures.append((trial_seed(seed, index),) + tuple(map(_digest, bad)))
    failures.sort(key=lambda f: f[0])
    return SuiteReport(suite, trials, failures, time.perf_counter() - t0)


def run_all(trials, seed):
    """Run every suite; returns the list of reports in listed order."""
    return [run_suite(name, trials, seed) for name in SUITE_NAMES]


__all__ = ["SUITES", "SUITE_NAMES", "SuiteReport", "run_suite", "run_all"]
