"""Worked demonstration over Z/27 with ideal (3).

Three stages, each verified by exact matrix equality:

  1. decompose a conjugated generator g se_ij(ab) g^-1 into certified
     ideal-level letters, for a short-root and a long-root target;
  2. expand a transvection word (rho, mu) into index-1 elementary
     letters and regroup it;
  3. feed the expanded word back in as the conjugator of stage 1.

Run: python3 scripts/decompose_demo.py [--seed N]
"""

import argparse
import sys

from elemcalc import (
    IdealPresentation,
    MuLetter,
    RhoLetter,
    Word,
    ZmodRing,
    certify,
    decompose_conjugate,
    etranssp_word_to_ESp1,
    evaluate,
    standard_symplectic_form,
    word_certified,
    word_in_ESp1,
    ESp1_to_etranssp,
)
from elemcalc.matrices import ColumnVector
from elemcalc.sampling import (
    sample_certified,
    sample_index1_symplectic_word,
    trial_rng,
)


def letter_line(word_obj, limit=6):
    parts = []
    for letter, inv in word_obj.letters[:limit]:
        tag = "%s_%d,%d(%r)" % (letter.kind, letter.i, letter.j, letter.param)
        parts.append(tag + ("^-1" if inv else ""))
    if len(word_obj.letters) > limit:
        parts.append("... %d more" % (len(word_obj.letters) - limit))
    return "  ".join(parts) if parts else "(empty)"


def show_decomposition(g, i, j, a, b, ideal, label):
    res = decompose_conjugate(g, i, j, a, b)
    assert word_certified(res.output, ideal)
    print("%s: conjugate se_%d,%d(%r) by a %d-letter word"
          % (label, i, j, (a.value * b.value), len(g.letters)))
    print("  route   %s" % " -> ".join(t for t, _ in res.lemma_trace))
    print("  output  %d certified letters, verified exactly"
          % len(res.output.letters))
    print("  head    %s" % letter_line(res.output))
    return res


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    ring = ZmodRing(27)
    ideal = IdealPresentation(ring, (ring.el(3),))
    rng = trial_rng(args.seed, 0)

    g = sample_index1_symplectic_word(rng, ideal, 6, 4)
    a = certify(ideal, [ring.el(2)])
    b = certify(ideal, [ring.el(4)])
    print("== stage 1: decomposition of conjugates ==")
    show_decomposition(g, 1, 2, a, b, ideal, "short root")
    show_decomposition(g, 1, 4, a, b, ideal, "long root")

    print()
    print("== stage 2: transvection dictionary ==")
    c3 = certify(ideal, [ring.el(1)])
    c6 = certify(ideal, [ring.el(2)])
    c0 = certify(ideal, [ring.el(0)])
    q = ColumnVector(ring, [ring.el(3), ring.el(6), ring.el(0), ring.el(3)])
    qc = (c3, c6, c0, c3)
    psi2 = standard_symplectic_form(ring, 2)
    rho = RhoLetter(q, ring.el(6), psi2, certs=(c6, qc))
    mu = MuLetter(q, ring.el(3), psi2, certs=(c3, qc))
    tw = Word(ring, 6, ((rho, False), (mu, True)))
    flat = etranssp_word_to_ESp1(tw)
    assert word_in_ESp1(flat, ideal)
    assert evaluate(flat) == evaluate(tw)
    print("rho(q, 6) mu(q, 3)^-1 expands to %d index-1 letters:"
          % len(flat.letters))
    print("  %s" % letter_line(flat, limit=8))
    grouped = ESp1_to_etranssp(flat, ideal=ideal)
    assert evaluate(grouped) == evaluate(tw)
    print("regrouped back to kinds %r, product unchanged"
          % [letter.kind for letter, _ in grouped.letters])

    print()
    print("== stage 3: expanded word as conjugator ==")
    show_decomposition(flat, 2, 5, a, b, ideal, "pipeline")
    print()
    print("all stages verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
