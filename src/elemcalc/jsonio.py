"""JSON codecs for every machine-facing type, plus canonical dumping.

Descriptors are self-describing ({"kind": "zmod", "m": 27} and so on)
while elements, vectors, matrices, words and certificates are encoded
relative to a ring or ideal that the surrounding document supplies.
Serialization is canonical: keys are sorted, polynomial monomials are
listed in sorted exponent order, and dumps() emits one fixed byte
stream for one value, so identical requests produce identical output.
"""

from __future__ import annotations

import json

from .errors import (DescriptorMismatch, LengthMismatch, NotCertified,
                     UnknownVariable)
from .matrices import ColumnVector, from_rows
from .rings import (
    IdealPresentation,
    PolyRing,
    ZmodRing,
    certify,
)
from .words import ElementaryLetter, TransvectionLetter, Word


# The most bits the modulus m of a zmod descriptor may have. Every
# product of two elements costs time that grows with it; documented
# moduli stay below 2^7.
MAX_MODULUS_BITS = 256


def _need(data, key, what):
    if not isinstance(data, dict) or key not in data:
        raise DescriptorMismatch("%s is missing field %r" % (what, key))
    return data[key]


def _need_int(value, what, minimum=None, maximum=None):
    """value when it is a JSON integer (true and false are not), else
    DescriptorMismatch naming what it is."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DescriptorMismatch("%s must be an integer" % (what,))
    if minimum is not None and value < minimum:
        raise DescriptorMismatch("%s must be at least %d" % (what, minimum))
    if maximum is not None and value > maximum:
        raise DescriptorMismatch("%s must be at most %d" % (what, maximum))
    return value


# ---------------------------------------------------------------------------
# rings


def ring_to_json(ring):
    if isinstance(ring, ZmodRing):
        return {"kind": "zmod", "m": ring.m}
    if isinstance(ring, PolyRing):
        return {"kind": "poly", "base": ring_to_json(ring.base),
                "vars": list(ring.variables)}
    raise DescriptorMismatch("cannot describe ring %r" % (ring,))


def ring_from_json(data):
    """Ring from its descriptor, a zmod one or a poly one over zmod; any
    other kind, or a ring the constructor rejects (repeated variable
    names, a poly base), raises DescriptorMismatch."""
    kind = _need(data, "kind", "ring descriptor")
    if kind == "zmod":
        m = _need_int(_need(data, "m", "zmod descriptor"),
                      "zmod descriptor field 'm'", 2)
        if m.bit_length() > MAX_MODULUS_BITS:
            raise DescriptorMismatch(
                "zmod descriptor field 'm' must have at most %d bits"
                % (MAX_MODULUS_BITS,))
        make, args = ZmodRing, (m,)
    elif kind == "poly":
        base = ring_from_json(_need(data, "base", "poly descriptor"))
        variables = _need(data, "vars", "poly descriptor")
        if (not isinstance(variables, list) or not variables
                or not all(isinstance(v, str) for v in variables)):
            raise DescriptorMismatch("poly vars must be a list of names")
        make, args = PolyRing, (base, tuple(variables))
    else:
        raise DescriptorMismatch("unknown ring kind %r" % (kind,))
    try:
        return make(*args)
    except ValueError as e:
        raise DescriptorMismatch("bad %s descriptor: %s" % (kind, e))


# ---------------------------------------------------------------------------
# elements


def element_to_json(x):
    ring = x.ring
    if isinstance(ring, ZmodRing):
        return x.payload
    if isinstance(ring, PolyRing):
        out = []
        for exps in sorted(x.payload):
            named = {name: e for name, e in zip(ring.variables, exps) if e}
            out.append([named, x.payload[exps]])
        return out
    raise DescriptorMismatch("cannot encode element of %r" % (ring,))


def element_from_json(ring, data):
    if isinstance(ring, ZmodRing):
        return ring.el(_need_int(data, "zmod element"))
    if isinstance(ring, PolyRing):
        if not isinstance(data, list):
            raise DescriptorMismatch(
                "polynomial element must be a monomial list")
        out = ring.zero
        for item in data:
            if not (isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], dict)):
                raise DescriptorMismatch(
                    "polynomial monomial must be [exponents, coefficient]")
            named, coeff_data = item
            for name, e in named.items():
                _need_int(e, "exponent of %r" % (name,), 0)
            coeff = element_from_json(ring.base, coeff_data)
            try:
                out = out + ring.monomial(named.items(), coeff)
            except UnknownVariable as exc:
                raise DescriptorMismatch(str(exc)) from exc
        return out
    raise DescriptorMismatch("cannot decode element of %r" % (ring,))


# ---------------------------------------------------------------------------
# ideals and certificates


def ideal_to_json(ideal):
    return [element_to_json(g) for g in ideal.generators]


def ideal_from_json(ring, data):
    if isinstance(data, dict):
        data = _need(data, "generators", "ideal")
    if not isinstance(data, list) or not data:
        raise DescriptorMismatch("ideal must be a non-empty generator list")
    gens = tuple(element_from_json(ring, g) for g in data)
    return IdealPresentation(ring, gens)


def certified_to_json(cert):
    return [element_to_json(c) for c in cert.coefficients]


def certified_from_json(ideal, data):
    if not isinstance(data, list):
        raise DescriptorMismatch(
            "certificate must be a coefficient list")
    if len(data) != len(ideal.generators):
        raise DescriptorMismatch(
            "certificate has %d coefficients for %d generators"
            % (len(data), len(ideal.generators)))
    coeffs = [element_from_json(ideal.ring, c) for c in data]
    return certify(ideal, coeffs)


# ---------------------------------------------------------------------------
# vectors and matrices


def vector_to_json(v):
    return [element_to_json(v.entry(i)) for i in range(1, v.length + 1)]


def vector_from_json(ring, data):
    if not isinstance(data, list):
        raise DescriptorMismatch("vector must be a list")
    return ColumnVector(ring, tuple(element_from_json(ring, e)
                                    for e in data))


def matrix_to_json(m):
    return [[element_to_json(m.entry(r, c))
             for c in range(1, m.cols + 1)]
            for r in range(1, m.rows + 1)]


def matrix_from_json(ring, data):
    if (not isinstance(data, list) or not data
            or not all(isinstance(row, list) for row in data)):
        raise DescriptorMismatch("matrix must be a list of rows")
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise DescriptorMismatch("matrix rows have uneven lengths")
    rows = [[element_from_json(ring, e) for e in row] for row in data]
    return from_rows(ring, rows)


# ---------------------------------------------------------------------------
# words


def _cert_or_none(cert):
    return None if cert is None else certified_to_json(cert)


# the JSON field that holds a transvection letter's scalar, per kind
_SCALAR_KEY = {"rho": "alpha", "mu": "beta"}


def letter_to_json(letter, inv):
    gen = letter.kind
    if gen in ("E", "se"):
        return {"gen": gen, "i": letter.i, "j": letter.j,
                "param": element_to_json(letter.param),
                "inv": bool(inv), "cert": _cert_or_none(letter.cert)}
    if gen in _SCALAR_KEY:
        out = {"gen": gen, "q": vector_to_json(letter.q),
               _SCALAR_KEY[gen]: element_to_json(letter.scalar),
               "form": matrix_to_json(letter.form),
               "inv": bool(inv)}
        # a partly certified letter is written uncertified, the only
        # partial form letter_from_json reads back
        out["cert"] = None
        if all(c is not None for c in letter.certificates()):
            sc, qcs = letter.certs
            out["cert"] = {"scalar": certified_to_json(sc),
                           "q": [certified_to_json(c) for c in qcs]}
        return out
    raise DescriptorMismatch("cannot encode letter %r" % (letter,))


def _need_square(rows, n, message):
    """Refuse a list of rows that is not n x n before any of its entries
    is decoded; anything else is left to matrix_from_json."""
    if isinstance(rows, list) and (len(rows) != n or any(
            isinstance(row, list) and len(row) != n for row in rows)):
        raise DescriptorMismatch(message)


def letter_from_json(ring, size, data, ideal=None):
    gen = _need(data, "gen", "letter")
    inv = data.get("inv")
    if inv is None:
        inv = False
    elif not isinstance(inv, bool):
        raise DescriptorMismatch("letter field 'inv' must be true or false")
    cert_data = data.get("cert")
    if cert_data is not None and ideal is None:
        raise DescriptorMismatch(
            "certificate supplied without an ideal in context")
    if gen in ("E", "se"):
        i = _need_int(_need(data, "i", "letter"), "letter field 'i'")
        j = _need_int(_need(data, "j", "letter"), "letter field 'j'")
        param = element_from_json(ring, _need(data, "param", "letter"))
        cert = None
        if cert_data is not None:
            cert = certified_from_json(ideal, cert_data)
        make, args = ElementaryLetter, (gen, size, i, j, param, cert)
    elif gen in ("rho", "mu"):
        q = vector_from_json(ring, _need(data, "q", "transvection letter"))
        scalar = element_from_json(ring, _need(data, _SCALAR_KEY[gen],
                                               "transvection letter"))
        form_data = _need(data, "form", "transvection letter")
        _need_square(form_data, q.length,
                     "transvection letter field 'form' must be %d x %d"
                     % (q.length, q.length))
        form = matrix_from_json(ring, form_data)
        certs = None
        if cert_data is not None:
            sc = certified_from_json(
                ideal, _need(cert_data, "scalar", "transvection certificate"))
            q_data = _need(cert_data, "q", "transvection certificate")
            if not isinstance(q_data, list):
                raise DescriptorMismatch(
                    "transvection certificate field 'q' must be a list")
            certs = (sc, [certified_from_json(ideal, item) for item in q_data])
        make, args = TransvectionLetter, (gen, q, scalar, form, certs)
    else:
        raise DescriptorMismatch("unknown generator tag %r" % (gen,))
    # the constructor checks each certificate against its value
    try:
        return make(*args), inv
    except (NotCertified, LengthMismatch) as e:
        raise DescriptorMismatch(str(e)) from e


def word_to_json(w):
    return [letter_to_json(letter, inv) for letter, inv in w.letters]


def word_from_json(ring, size, data, ideal=None):
    if not isinstance(data, list):
        raise DescriptorMismatch("word must be a list of letters")
    letters = [letter_from_json(ring, size, item, ideal) for item in data]
    return Word(ring, size, letters)


# ---------------------------------------------------------------------------
# results


def trace_to_json(trace):
    return [[tag, detail] for tag, detail in trace]


def decomposition_to_json(res):
    return {
        "verified": True,
        "output": word_to_json(res.output),
        "target": matrix_to_json(res.target),
        "achieved": matrix_to_json(res.achieved),
        "lemma_trace": trace_to_json(res.lemma_trace),
    }


def rewrite_to_json(res):
    return {
        "verified": True,
        "output": word_to_json(res.output),
        "lhs": word_to_json(res.lhs),
        "case_trace": list(res.case_trace),
    }


def standardization_to_json(res):
    return {
        "verified": True,
        "relative": bool(res.relative),
        "eps_word": word_to_json(res.eps_word),
    }


def report_to_json(rep):
    """Suite report as JSON; timing is left out to keep output stable."""
    return {
        "suite": rep.suite,
        "trials": rep.trials,
        "failures": [
            {"seed": seed, "inputs": i, "expected": e, "achieved": a}
            for seed, i, e, a in rep.failures
        ],
    }


def dumps(data):
    """Canonical serialization: sorted keys, compact, newline-ended."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except ValueError as e:
        raise DescriptorMismatch("input is not valid JSON: %s" % (e,))


__all__ = [
    "ring_to_json", "ring_from_json", "element_to_json", "element_from_json",
    "ideal_to_json", "ideal_from_json", "certified_to_json",
    "certified_from_json", "vector_to_json", "vector_from_json",
    "matrix_to_json", "matrix_from_json", "letter_to_json", "letter_from_json",
    "word_to_json", "word_from_json", "trace_to_json", "decomposition_to_json",
    "rewrite_to_json", "standardization_to_json", "report_to_json", "dumps",
    "loads",
]
