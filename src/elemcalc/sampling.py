"""Seeded random generation for the verification suites and the CLI.

Every trial owns an independent generator, derived from the run seed
and the trial index as Random((seed << 20) ^ index), so a reported
failure replays from its trial seed alone.

Distributions, also summarized in the CLI help text:

  * moduli come from {25, 27, 121}; the attached prime is the smallest
    prime factor;
  * ideal generators are drawn among {p, p * unit};
  * polynomial draws use at most three monomials of total degree at
    most two, with coefficients drawn from Z/m;
  * vectors and matrices draw each entry independently.
"""

from __future__ import annotations

import random

from .errors import DimensionTooSmall
from .matrices import (
    ColumnVector,
    block_diagonal,
    from_rows,
    identity,
    standard_symplectic_form,
)
from .rings import PolyRing, ZmodRing, certify
from .words import ElementaryLetter, LinLetter, SympLetter, Word, evaluate

MODULI = (25, 27, 121)


def trial_seed(seed, index):
    """Derive the per-trial seed from a run seed and trial index."""
    return (seed << 20) ^ index


def trial_rng(seed, index):
    """Independent Random stream for one trial of a suite run."""
    return random.Random(trial_seed(seed, index))


def prime_of(m):
    """Smallest prime factor of m."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def sample_zmod(rng):
    return ZmodRing(rng.choice(MODULI))


def sample_relation_ring(rng):
    """Ring for relation checks: a supported Z/m or (Z/27)[X].

    Returns (ring, degree cap for parameter draws).
    """
    pick = rng.randrange(4)
    if pick < 3:
        return ZmodRing(MODULI[pick]), 0
    return PolyRing(ZmodRing(27), ("X",)), 1


def _monomial(rng, variables, max_degree):
    total = rng.randint(0, max_degree)
    exps = [0] * len(variables)
    for _ in range(total):
        exps[rng.randrange(len(variables))] += 1
    return tuple(exps)


def sample_element(rng, ring, max_degree=2, variables=None, terms=3):
    """Random element; polynomial draws stay sparse and low degree.

    variables restricts which polynomial variables may occur (by
    name); the default allows all of them.
    """
    if isinstance(ring, ZmodRing):
        return ring.wrap(rng.randrange(ring.m))
    allowed = ring.variables if variables is None else tuple(variables)
    out = ring.zero
    for _ in range(rng.randint(1, terms)):
        exps = _monomial(rng, allowed, max_degree)
        coeff = sample_element(rng, ring.base, max_degree)
        out = out + ring.monomial(zip(allowed, exps), coeff)
    return out


def sample_certified(rng, ideal, max_degree=2, variables=None):
    """Random certified element: random coefficient per generator."""
    coeffs = [sample_element(rng, ideal.ring, max_degree, variables)
              for _ in ideal.generators]
    return certify(ideal, coeffs)


def sample_vector(rng, ring, length, max_degree=2):
    return ColumnVector(ring, tuple(
        sample_element(rng, ring, max_degree) for _ in range(length)))


def sample_alternating(rng, ring, size, max_degree=2):
    """Random alternating matrix: zero diagonal, skew off-diagonal."""
    grid = [[ring.zero] * size for _ in range(size)]
    for r in range(size):
        for c in range(r + 1, size):
            x = sample_element(rng, ring, max_degree)
            grid[r][c] = x
            grid[c][r] = -x
    return from_rows(ring, [tuple(row) for row in grid])


def sample_linear_index1(rng, n):
    other = rng.randrange(2, n + 1)
    return (1, other) if rng.random() < 0.5 else (other, 1)


def sample_index1_symplectic(rng, size):
    a = rng.choice((1, 2))
    b = rng.randrange(1, size + 1)
    while b == a:
        b = rng.randrange(1, size + 1)
    return (a, b) if rng.random() < 0.5 else (b, a)


def sample_symplectic_word(rng, ring, size, letters, max_degree=1):
    """Word of random symplectic generators, some inverted."""
    out = Word(ring, size)
    for _ in range(letters):
        i = rng.randrange(1, size + 1)
        j = rng.randrange(1, size + 1)
        while j == i:
            j = rng.randrange(1, size + 1)
        z = sample_element(rng, ring, max_degree)
        out = out.append(SympLetter(size, i, j, z),
                         inverted=rng.random() < 0.3)
    return out


def _index1_word(rng, ideal, size, letters, variables, kind, indices):
    out = Word(ideal.ring, size)
    for _ in range(letters):
        i, j = indices(rng, size)
        cert = sample_certified(rng, ideal, max_degree=1,
                                variables=variables)
        out = out.append(ElementaryLetter(kind, size, i, j, cert.value, cert),
                         inverted=rng.random() < 0.3)
    return out


def sample_index1_linear_word(rng, ideal, n, letters, variables=None):
    """Certified first-index linear word over the given ideal."""
    return _index1_word(rng, ideal, n, letters, variables, "E",
                        sample_linear_index1)


def sample_index1_symplectic_word(rng, ideal, size, letters,
                                  variables=None):
    """Certified first-index symplectic word over the given ideal."""
    return _index1_word(rng, ideal, size, letters, variables, "se",
                        sample_index1_symplectic)


def sample_relative_form(rng, ring, n, ideal, letters=3):
    """Alternating form congruent to the standard one by 1 perp eps.

    Draws a certified word eps0 in the lower right block, applies the
    congruence to the standard form, and returns (form, eps0 word).
    A letter needs two inner indices, so letters > 0 needs n >= 2.
    """
    if n < 2 and letters > 0:
        raise DimensionTooSmall("a relative form with letters needs n >= 2, "
                                "not n = %d" % (n,))
    inner = 2 * n - 1
    eps0 = Word(ring, inner)
    for _ in range(letters):
        i = rng.randrange(1, inner + 1)
        j = rng.randrange(1, inner + 1)
        while j == i:
            j = rng.randrange(1, inner + 1)
        cert = sample_certified(rng, ideal, max_degree=0)
        eps0 = eps0.append(LinLetter(inner, i, j, cert.value, cert=cert),
                           inverted=rng.random() < 0.3)
    emb = block_diagonal(identity(ring, 1), evaluate(eps0))
    psi = standard_symplectic_form(ring, n)
    return emb.transpose() * psi * emb, eps0


__all__ = [
    "MODULI", "trial_seed", "trial_rng", "prime_of",
    "sample_zmod", "sample_relation_ring", "sample_element",
    "sample_certified", "sample_vector", "sample_alternating",
    "sample_linear_index1", "sample_index1_symplectic",
    "sample_symplectic_word", "sample_index1_linear_word",
    "sample_index1_symplectic_word", "sample_relative_form",
]
