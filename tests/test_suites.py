"""The verify suites' trial harness: failure reports and run checks.

Each fault case replaces one function the suites look up on
elemcalc.suites and runs trial 0 at seed 0. The report must hold the
digests of exactly the (inputs, expected, achieved) strings below, so a
change to the harness cannot change what `elemcalc verify --json`
prints for a failing trial.
"""

from types import SimpleNamespace

import pytest

import elemcalc.suites as suites
from elemcalc import BadTrialCount, ElementaryLetter, Word
from elemcalc.suites import SUITE_NAMES, _digest, run_all, run_suite


def _raise(*args, **kwargs):
    raise RuntimeError("injected fault")


def _faulty_output(name, rebuild):
    """name's result reduced to its output word, each letter passed
    through rebuild."""
    orig = getattr(suites, name)

    def fault(*args, **kwargs):
        out = orig(*args, **kwargs).output
        return SimpleNamespace(output=Word(out.ring, out.size, [
            (rebuild(letter), inv) for letter, inv in out.letters]))
    return fault


def _uncertified(letter):
    return letter.with_param(letter.param)


def _off_first_index(letter):
    """The letter moved to the long-root cell (3, 5), which no sigma
    swap brings to a first index."""
    return ElementaryLetter(letter.kind, letter.size, 3, 5, letter.param,
                            letter.cert)


RAISED = "raised RuntimeError: injected fault"

# suite, function replaced on elemcalc.suites, fault, the three strings
FAULTS = [
    ("relations", "check_relation", lambda *a, **k: False,
     ("linear over Z/27[X] n=4 idx=(1, 2, 3) a=16 + 11*X b=24*X",
      "relation holds", "two sides differ")),
    ("short-root", "short_root_pair", _raise,
     ("short-root v=col(1, 8, 16, 15, 12, 25) pair=4 a=24 b=0",
      "verified word", RAISED)),
    ("long-root", "long_root_pair", _raise,
     ("long-root v=col(1, 8, 16, 15, 12, 25) w=col(26, 9, 15, 13, 18, 6) "
      "pair=4", "verified word", RAISED)),
    ("reduce", "long_root_reduce", _raise,
     ("reduce v=col(1, 8, 0, 0, 12, 25) w=col(18, 9, 15, 11, 18, 6) pair=2",
      "verified word", RAISED)),
    ("split", "short_root_split", _raise,
     ("split v=col(24, 13, 1, 8, 16, 15) a=9 b=21", "verified word",
      RAISED)),
    ("sum-to-product", "sum_to_product",
     lambda *a, **k: ((), SimpleNamespace(check=lambda: False)),
     ("sum-to-product w=col(0, 0, 0, 1, 0, 0) pieces=2",
      "valid square-ideal certificate", "certificate invalid")),
    ("unimodular", "long_root_unimodular", _raise,
     ("unimodular v=col(12, 25, 4, 9, 15, 11) w=col(12, 24, 13, 1, 8, 16) "
      "u=col(0, 0, 0, 0, 0, 22)", "verified word", RAISED)),
    ("decompose", "decompose_conjugate",
     _faulty_output("decompose_conjugate", _uncertified),
     ("decompose g=se[4,1](8) . se[4,3](15) . se[2,5](4)^-1 . "
      "se[1,5](25)^-1 . se[5,6](25) . se[2,3](3) target=(6,3) a=18 b=24",
      "all letters certified", "uncertified letter")),
    ("rewrite-linear", "specialize_and_check", _raise,
     ("rewrite-linear mod 27 r=2 eps=E[1,2](21 + 18*X^2)^-1 . "
      "E[3,1](24 + 9*X^2) target=(2,1) a=6 + 3*X + 15*X^2",
      "verified rewrite", RAISED)),
    ("rewrite-symplectic", "rewrite_conjugation_symplectic",
     _faulty_output("rewrite_conjugation_symplectic", _off_first_index),
     ("rewrite-symplectic mod 27 r=2 eps=se[3,1](12*X + 18*X^2)^-1 . "
      "se[5,2](24 + 9*X^2) target=(1,5) a=6 + 24*X + 6*X^2",
      "verified rewrite",
      "output letter outside the certified first-index family")),
    ("dictionaries", "etranssp_word_to_ESp1", lambda w: Word(w.ring, w.size),
     ("dictionary symplectic w=mu(col(12, 0), 12) . mu(col(24, 24), 12) . "
      "rho(col(0, 9), 15)", "same evaluation", "forward image differs")),
    ("standardize", "standardize_alternating",
     lambda *a, **k: SimpleNamespace(relative=False),
     ("standardize n=3 eps0=E[1,3](21) . E[3,4](6) . E[2,5](12)^-1 . "
      "E[1,5](21)^-1", "relative congruence", "letters left the ideal")),
    ("pfaffian", "pfaffian", lambda m: m.ring.zero,
     ("pfaffian over Z/27 n=4", "Pf of standard form is 1", "0")),
    # an exception outside the checked calls counts against the setup
    ("pfaffian", "det", _raise,
     ("trial 0 setup", "completed trial", RAISED)),
]


def test_every_suite_has_a_fault_case():
    assert {f[0] for f in FAULTS} == set(SUITE_NAMES)


@pytest.mark.parametrize("suite, name, fault, strings", FAULTS,
                         ids=["%s-%s" % f[:2] for f in FAULTS])
def test_failure_report_digests(monkeypatch, suite, name, fault, strings):
    monkeypatch.setattr(suites, name, fault)
    rep = run_suite(suite, 1, 0)
    assert not rep.ok
    assert rep.failures == ((0,) + tuple(_digest(s) for s in strings),)


@pytest.mark.parametrize("trials", [-1, -3])
def test_negative_trial_count_is_rejected(trials):
    with pytest.raises(BadTrialCount):
        run_suite("relations", trials, 0)
    with pytest.raises(BadTrialCount):
        run_all(trials, 0)


def test_zero_trials_pass():
    rep = run_suite("relations", 0, 0)
    assert rep.trials == 0 and rep.ok
