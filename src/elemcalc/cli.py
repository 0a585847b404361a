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
Identical command, input, and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .bridge import (
    AlternatingForm,
    ESp1_to_etranssp,
    etranssp_word_to_ESp1,
    standardize_alternating,
)
from .decompose import decompose_conjugate
from .errors import DescriptorMismatch, ElemcalcError, VerificationFailed
from .matrices import det, is_alternating, pfaffian
from .rewrite import (
    rewrite_conjugation_linear,
    rewrite_conjugation_symplectic,
)
from .rings import LocRing, PolyRing
from .suites import SUITE_NAMES, run_all, run_suite

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
# rows (pfaffian, standardize) a request may give. The work grows as a
# power of it; documented requests stay at 12. A dense 64-row pfaffian
# request over Z/m, whose Pf and det each take O(n^3) steps, takes about
# 25 ms over Z/27 and 0.13 s over Z/3^161 (256 bits).
MAX_REQUEST_SIZE = 64

# The most rows a pfaffian or standardize matrix over a polynomial ring
# or a localization may give: entry degrees grow with every elimination
# step. A dense Pfaffian with entries kX + 1 over (Z/27)[X] takes 0.4 s
# at 16 rows and 3.0 s at 24; over loc((Z/27)[X], X+1) it takes 24 s at
# 32 rows with exp 1.
MAX_POLY_MATRIX_ROWS = 16

# The largest rows x exp a pfaffian or standardize matrix over a
# localization may give, exp the largest denominator exponent among its
# entries: elimination raises the denominators further with every row.
# A dense 8x8 Pfaffian over loc((Z/27)[X], X+1) takes 0.5 s at exp 16
# and 8.9 s at exp 64.
MAX_LOC_MATRIX_WORK = 128

# The most conjugator letters r a rewrite request may give. Each level
# is peeled once; r = 8 takes at most 0.07 s at n 64.
MAX_REWRITE_LETTERS = 8

# The most letters the conjugator g of a decompose request may give. At
# n 64 a long root with 2,048 letters takes up to 0.8 s over Z/27 and
# 5.6 s over Z/3^161 (256 bits); 8,192 letters take up to 2.2 s and 13 s.
# Over a polynomial ring the entry degrees grow with the letters, and
# this bound does not cover that: 128 letters at n 3 take 25 s.
MAX_DECOMPOSE_LETTERS = 2048

# The most letters the word of an expand request may give, in either
# direction. At size 64 expanding 64 rho/mu letters takes 0.8 s over
# Z/27 and 2.0 s over Z/3^161 (256 bits), 256 letters 2.2 s and 6.0 s;
# grouping 64 first-index letters that alternate direction, each its
# own run, takes 0.3 s, and 256 take 1.3 s.
MAX_EXPAND_LETTERS = 64


def _int_field(data, key, minimum=None, maximum=None, default=None):
    """The integer data[key]; default when it is absent or null."""
    value = data.get(key)
    return jsonio._need_int(default if value is None else value,
                            "field %r" % (key,), minimum, maximum)


def _letters_field(data, key, bound):
    """data[key] (or []), refused undecoded if it lists over bound letters."""
    letters = data.get(key, [])
    if isinstance(letters, list) and len(letters) > bound:
        raise DescriptorMismatch("field %r must have at most %d letters"
                                 % (key, bound))
    return letters


def _matrix_field(data, key, ring):
    """The matrix data[key], refused before its entries are decoded when
    it has more than MAX_REQUEST_SIZE rows, or more than
    MAX_POLY_MATRIX_ROWS over a polynomial ring or a localization, or
    when it is not square, and before any arithmetic when it lies over a
    localization and its rows times its largest denominator exponent
    exceed MAX_LOC_MATRIX_WORK."""
    if key not in data:
        raise DescriptorMismatch("input needs a %s" % (key,))
    rows = data[key]
    bound = MAX_POLY_MATRIX_ROWS if isinstance(ring, (PolyRing, LocRing)) \
        else MAX_REQUEST_SIZE
    if isinstance(rows, list):
        if len(rows) > bound:
            raise DescriptorMismatch("field %r must have at most %d rows"
                                     % (key, bound))
        jsonio._need_square(rows, len(rows),
                            "field %r must be square" % (key,))
    m = jsonio.matrix_from_json(ring, rows)
    if isinstance(ring, LocRing):
        work = m.rows * max(exp for _, exp in m.payloads)
        if work > MAX_LOC_MATRIX_WORK:
            raise DescriptorMismatch(
                "field %r: rows x largest loc 'exp' must be at most %d"
                % (key, MAX_LOC_MATRIX_WORK))
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
    n = _int_field(data, "n", 1, MAX_REQUEST_SIZE)
    size = 2 * n
    g = jsonio.word_from_json(
        ring, size, _letters_field(data, "g", MAX_DECOMPOSE_LETTERS), ideal)
    i = _int_field(data, "i")
    j = _int_field(data, "j")
    if "a" not in data or "b" not in data:
        raise DescriptorMismatch("input needs certified elements a and b")
    a = jsonio.certified_from_json(ideal, data["a"])
    b = jsonio.certified_from_json(ideal, data["b"])
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
    eps = jsonio.word_from_json(
        ring, size, _letters_field(data, "eps", MAX_REWRITE_LETTERS), ideal)
    i = _int_field(data, "i")
    j = _int_field(data, "j")
    a_poly = jsonio.certified_from_json(ideal, data["aPoly"])
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
    form = AlternatingForm(_matrix_field(data, "form", ring))
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
    if not isinstance(data.get("word"), list):
        raise DescriptorMismatch("input needs a word (list of letters)")
    letters = _letters_field(data, "word", MAX_EXPAND_LETTERS)
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
    w = jsonio.word_from_json(ring, size, letters, ideal)
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
