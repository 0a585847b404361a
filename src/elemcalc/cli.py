"""Command line surface: suite runner plus JSON-driven calculators.

Commands

  verify       run one randomized verification suite, or all of them
  decompose    rewrite a conjugated generator over certified ideal
               generators
  rewrite      conjugation rewriting with polynomial bookkeeping
  pfaffian     Pfaffian of an alternating matrix, cross-checked
  standardize  congruence operations onto the standard block form
  expand       transvection letters to first-index letters and back

All data commands read one JSON object (--in FILE or standard input)
and write canonical JSON (--out FILE or standard output). Exit codes:
0 success, 1 a verification failed, 2 malformed or rejected input.
A request is rejected over MAX_REQUEST_SIZE, MAX_REWRITE_LETTERS or
the work budget MAX_REQUEST_WORK, whose estimate is checked before any
letter or entry is decoded, and again with the entries' degrees before
any arithmetic. Identical command, input, and seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import comb

from . import jsonio
from .bridge import (
    AlternatingForm,
    ESp1_to_etranssp,
    etranssp_word_to_ESp1,
    standardize_alternating,
)
from .decompose import decompose_conjugate
from .errors import DescriptorMismatch, ElemcalcError, VerificationFailed
from .matrices import ExactMatrix, det, is_alternating, pfaffian
from .rewrite import (
    rewrite_conjugation_linear,
    rewrite_conjugation_symplectic,
)
from .rings import (
    CertifiedElement,
    IdealPresentation,
    LocRing,
    PolyRing,
    RingElement,
    ZmodRing,
)
from .suites import SUITE_NAMES, run_all, run_suite
from .words import ElementaryLetter, TransvectionLetter, Word

_DISTRIBUTIONS = """\
sampling distributions used by the verify suites:
  * moduli are drawn from {25, 27, 121}; the attached prime p is the
    smallest prime factor;
  * ideal generators are drawn among {p, p * unit};
  * polynomial parameters use at most three monomials of total degree
    at most 2;
  * each trial runs on its own stream Random((seed << 20) ^ index),
    so failures replay from the reported trial seed alone.
"""


# The largest n (decompose, rewrite), size (expand) or number of matrix
# rows (pfaffian, standardize) a request may give.
MAX_REQUEST_SIZE = 64

# The most conjugator letters a rewrite request may give. The rewriter
# substitutes Y -> Y^4 at every level, so its polynomials grow in ways
# the request's counts and degrees do not bound: on sampled conjugators
# r = 16 took 0.13 s and r = 32 took 0.9 s.
MAX_REWRITE_LETTERS = 8

# The most work, in _request_work's units, one data command may do. It
# admits the costliest decompose the letter limit it replaced admitted,
# 2,048 letters at n 64 over Z/3^161 (35.7 million; 2-3 s through main
# on a 2-vCPU VM). The costliest request of each command it admits took
# at most 5.5 s there: a decompose over (Z/27)[X] at n 3 is admitted up
# to 45 letters c + dX. The costliest standardize, a dense 64-row form
# over Z/3^161 with 13 generators, took 0.39 s through main (0.46 s in a
# cold process). The digit factor is calibrated on p_column_op: per
# product, moduli of 61, 127 and 256 bits (3, 5 and 9 digits of 30 bits)
# cost 3.8, 5.0 and 8.7 times one below 2^30.
MAX_REQUEST_WORK = 40_000_000


def _int_field(data, key, minimum=None, maximum=None, default=None):
    """The integer data[key]; default when it is absent or null."""
    value = data.get(key)
    return jsonio._need_int(default if value is None else value,
                            "field %r" % (key,), minimum, maximum)


def _length(value):
    return len(value) if isinstance(value, list) else 0


def _degree(x):
    """The largest total degree of the ring elements in x: an element, a
    matrix, a certificate, a letter, a word (its letters' degrees
    summed), an ideal or a list of them. A localization element
    num / d^exp adds exp deg(d); a transvection letter, whose cells
    multiply its parts, sums theirs."""
    if isinstance(x, RingElement):
        ring, p = x.ring, x.payload
        if isinstance(ring, PolyRing):
            return max((sum(e) + _degree(ring.base.wrap(c))
                        for e, c in p.items()), default=0)
        if isinstance(ring, LocRing):
            return _degree(ring.base.wrap(p[0])) + p[1] * _degree(ring.denom)
        return 0
    if isinstance(x, Word):
        return sum(_degree(letter) for letter, _ in x.letters)
    if isinstance(x, TransvectionLetter):
        return sum(map(_degree, (x.q, x.scalar, x.form, x.certs)))
    if isinstance(x, ExactMatrix):
        x = x.entries
    elif isinstance(x, CertifiedElement):
        x = (x.value, x.coefficients)
    elif isinstance(x, ElementaryLetter):
        x = (x.param, x.cert)
    elif isinstance(x, IdealPresentation):
        x = x.generators
    return max(map(_degree, x), default=0) if isinstance(x, (list, tuple)) \
        else 0


def _request_work(command, ring, size, length=0, gens=0, degree=0):
    """An upper bound on the coefficient products command does for size
    (2n, the word size or the matrix rows), length letters and gens ideal
    generators over ring. degree bounds the request's degrees: a word's
    letters' summed with its other elements', or a matrix entry's. A
    product of polynomials of degree at most D in v variables costs at
    most the square of their C(D + v, v) monomials, (1 + D)^2 in one
    variable, and one mod m of d 30-bit digits d products mod 27."""
    base, variables = ring, 0
    while not isinstance(base, ZmodRing):
        if isinstance(base, PolyRing):
            variables += len(base.variables)
        base = base.base
    if command == "decompose":
        # g is evaluated up to three times and the output has O(size)
        # letters per square generator; a letter's certificate costs 8
        # per generator, as its products go through ring elements, and
        # decoding a letter 16
        work = 12 * (length + gens * (gens + 1) // 2 * size) \
            * (size + 8 * gens + 16)
    elif command == "rewrite":
        work = 16 * (length + 1) * size * (size + gens)
    elif command == "expand":
        # a letter's form and certificates cost more to decode and check
        # than its products, so the factor is 16 times theirs, with 32
        # more rows per letter
        work = 64 * length * (size + 32) * (size + gens)
    elif command == "standardize" and base is ring:
        # one pass of O(size) congruence operations per pair, each of
        # O(size) products; dense forms count up to 2.7 s^2 (s + k^2)
        work = 4 * size ** 2 * (size + gens ** 2)
    else:
        # Pf and det, paid by standardize before it refuses other rings;
        # their values reach size times the degree of an entry
        work = size ** (3 if base is ring else 4)
        degree *= size
    digits = -(-base.m.bit_length() // 30)
    return work * comb(degree + variables, variables) ** 2 * digits


def _admit(command, ring, size, length=0, gens=0, parts=()):
    """Refuse a request whose _request_work is over MAX_REQUEST_WORK, its
    degree the sum of the degrees of parts, which are not read over Z/m,
    where every degree is 0."""
    degree = 0 if isinstance(ring, ZmodRing) else sum(map(_degree, parts))
    work = _request_work(command, ring, size, length, gens, degree)
    if work > MAX_REQUEST_WORK:
        raise DescriptorMismatch("request work %d is over MAX_REQUEST_WORK "
                                 "(%d)" % (work, MAX_REQUEST_WORK))


def _matrix_field(data, key, ring, gens=0):
    """The matrix data[key], refused before its entries are decoded when
    it is not square or its rows alone put the work over the budget, and
    before any arithmetic when its degrees do."""
    if key not in data:
        raise DescriptorMismatch("input needs a %s" % (key,))
    rows = data[key]
    command = "pfaffian" if key == "matrix" else "standardize"
    if isinstance(rows, list):
        if len(rows) > MAX_REQUEST_SIZE:
            raise DescriptorMismatch("field %r must have at most %d rows"
                                     % (key, MAX_REQUEST_SIZE))
        jsonio._need_square(rows, len(rows),
                            "field %r must be square" % (key,))
    _admit(command, ring, _length(rows), gens=gens)
    m = jsonio.matrix_from_json(ring, rows)
    _admit(command, ring, m.rows, gens=gens, parts=(m,))
    return m


def _ring_of(data):
    if "ring" not in data:
        raise DescriptorMismatch("input needs a ring descriptor")
    return jsonio.ring_from_json(data["ring"])


def _ideal_of(data, ring, required=True):
    if "ideal" not in data or data["ideal"] is None:
        if required:
            raise DescriptorMismatch("input needs an ideal")
        return None
    return jsonio.ideal_from_json(ring, data["ideal"])


def cmd_decompose(data):
    """g . se_ij(a b) . g^-1 as certified letters, JSON to JSON."""
    ring = _ring_of(data)
    ideal = _ideal_of(data, ring)
    size = 2 * _int_field(data, "n", 1, MAX_REQUEST_SIZE)
    shape = ("decompose", ring, size, _length(data.get("g")),
             len(ideal.generators))
    _admit(*shape)
    g = jsonio.word_from_json(ring, size, data.get("g", []), ideal)
    i = _int_field(data, "i")
    j = _int_field(data, "j")
    if "a" not in data or "b" not in data:
        raise DescriptorMismatch("input needs certified elements a and b")
    a = jsonio.certified_from_json(ideal, data["a"])
    b = jsonio.certified_from_json(ideal, data["b"])
    _admit(*shape, parts=(g, a, b, ideal))
    res = decompose_conjugate(g, i, j, a, b)
    return jsonio.decomposition_to_json(res)


def cmd_rewrite(data):
    """Run one conjugation rewrite described by a JSON request."""
    ring = _ring_of(data)
    ideal = _ideal_of(data, ring)
    mode = data.get("mode")
    if mode not in ("linear", "symplectic"):
        raise DescriptorMismatch(
            "mode must be \"linear\" or \"symplectic\"")
    n = _int_field(data, "n", 1, MAX_REQUEST_SIZE, default=3)
    size = n if mode == "linear" else 2 * n
    if "eps" not in data or "aPoly" not in data:
        raise DescriptorMismatch("input needs fields eps and aPoly")
    letters = _length(data["eps"])
    if letters > MAX_REWRITE_LETTERS:
        raise DescriptorMismatch("field 'eps' must have at most %d letters"
                                 % (MAX_REWRITE_LETTERS,))
    shape = ("rewrite", ring, size, letters, len(ideal.generators))
    _admit(*shape)
    eps = jsonio.word_from_json(ring, size, data["eps"], ideal)
    i = _int_field(data, "i")
    j = _int_field(data, "j")
    a_poly = jsonio.certified_from_json(ideal, data["aPoly"])
    _admit(*shape, parts=(eps, a_poly, ideal))
    if mode == "linear":
        res = rewrite_conjugation_linear(eps, i, j, a_poly)
    else:
        res = rewrite_conjugation_symplectic(eps, i, j, a_poly)
    return jsonio.rewrite_to_json(res)


def cmd_pfaffian(data):
    """Pfaffian of an alternating matrix with the square cross-check."""
    ring = _ring_of(data)
    m = _matrix_field(data, "matrix", ring)
    if m.rows != m.cols or m.rows % 2 != 0 or not is_alternating(m):
        raise DescriptorMismatch(
            "the Pfaffian needs an alternating matrix of even size")
    pf, d = pfaffian(m), det(m)
    if pf * pf != d:
        raise VerificationFailed(
            "Pfaffian square %r does not match the determinant %r" % (pf, d))
    return {"verified": True, "pfaffian": jsonio.element_to_json(pf),
            "size": m.rows}


def cmd_standardize(data):
    """Recorded congruence onto the standard form, JSON to JSON."""
    ring = _ring_of(data)
    ideal = _ideal_of(data, ring)
    form = AlternatingForm(
        _matrix_field(data, "form", ring, len(ideal.generators)))
    res = standardize_alternating(form, ideal)
    return jsonio.standardization_to_json(res)


def cmd_expand(data):
    """Translate transvection words to first-index words and back.

    direction "expand" turns a word of row/column transvection
    letters over the standard form into first-index symplectic
    letters; "group" regroups such letters into transvection letters.
    """
    ring = _ring_of(data)
    ideal = _ideal_of(data, ring, required=False)
    direction = data.get("direction")
    if direction not in ("expand", "group"):
        raise DescriptorMismatch(
            "direction must be \"expand\" or \"group\"")
    letters = data.get("word")
    if not isinstance(letters, list):
        raise DescriptorMismatch("input needs a word (list of letters)")
    inferred = None
    if data.get("size") is None:
        if not letters:
            raise DescriptorMismatch(
                "an empty word needs an explicit size")
        first = letters[0]
        q = first.get("q") if isinstance(first, dict) else None
        if not isinstance(q, list):
            raise DescriptorMismatch(
                "cannot infer the size; supply a size field")
        inferred = len(q) + 2
    size = _int_field(data, "size", 4, MAX_REQUEST_SIZE, default=inferred)
    if size % 2 != 0:
        raise DescriptorMismatch("field 'size' must be even")
    shape = ("expand", ring, size, len(letters),
             0 if ideal is None else len(ideal.generators))
    _admit(*shape)
    w = jsonio.word_from_json(ring, size, letters, ideal)
    _admit(*shape, parts=(w, ideal))
    if direction == "expand":
        out = etranssp_word_to_ESp1(w)
    else:
        out = ESp1_to_etranssp(w, ideal=ideal)
    return {"verified": True, "size": size,
            "output": jsonio.word_to_json(out)}


_DATA_COMMANDS = {
    "decompose": cmd_decompose,
    "rewrite": cmd_rewrite,
    "pfaffian": cmd_pfaffian,
    "standardize": cmd_standardize,
    "expand": cmd_expand,
}


def _read_input(args):
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    data = jsonio.loads(text)
    if not isinstance(data, dict):
        raise DescriptorMismatch("input must be a JSON object")
    if args.ring is not None:
        data["ring"] = jsonio.loads(args.ring)
    if args.ideal is not None:
        data["ideal"] = jsonio.loads(args.ideal)
    return data


def _write_file(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_output(args, text):
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _error(e):
    sys.stderr.write("error: %s\n" % (e,))
    return 2


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared by every
    later one: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="elemcalc",
        description=__doc__,
        epilog=_DISTRIBUTIONS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "verify", help="run one randomized verification suite, or all",
        epilog=_DISTRIBUTIONS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--suite", required=True,
                   help="one of: %s; or all" % ", ".join(SUITE_NAMES))
    p.add_argument("--trials", type=int, default=100,
                   help="number of independent trials (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed; trial i uses Random((seed<<20)^i)")
    p.add_argument("--json", action="store_true",
                   help="print the report(s) as canonical JSON")
    p.add_argument("--out", metavar="FILE",
                   help="also write the JSON report to FILE")

    for name, fn in _DATA_COMMANDS.items():
        q = sub.add_parser(name, help=fn.__doc__.splitlines()[0].rstrip("."))
        q.add_argument("--in", dest="infile", metavar="FILE",
                       help="JSON input file (default: standard input)")
        q.add_argument("--out", metavar="FILE",
                       help="write the JSON output to FILE")
        q.add_argument("--ring", metavar="JSON",
                       help="ring descriptor overriding the input field")
        q.add_argument("--ideal", metavar="JSON",
                       help="ideal generators overriding the input field")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    if args.command == "verify":
        try:
            if args.suite == "all":
                reports = run_all(args.trials, args.seed)
                doc = [jsonio.report_to_json(r) for r in reports]
            else:
                reports = [run_suite(args.suite, args.trials, args.seed)]
                doc = jsonio.report_to_json(reports[0])
            text = jsonio.dumps(doc)
            if args.out:
                _write_file(args.out, text)
        except (ElemcalcError, OSError) as e:
            return _error(e)
        if args.json:
            sys.stdout.write(text)
        else:
            for report in reports:
                sys.stdout.write(report.summary() + "\n")
                for seed, inputs, expected, achieved in report.failures:
                    sys.stdout.write(
                        "  trial seed %d: inputs %s expected %s achieved %s\n"
                        % (seed, inputs, expected, achieved))
        return 0 if all(r.ok for r in reports) else 1

    fn = _DATA_COMMANDS[args.command]
    try:
        try:
            payload, rc = fn(_read_input(args)), 0
        except VerificationFailed as e:
            payload, rc = {"verified": False, "error": str(e)}, 1
        _write_output(args, jsonio.dumps(payload))
    except (ElemcalcError, OSError) as e:
        return _error(e)
    return rc


if __name__ == "__main__":
    sys.exit(main())
