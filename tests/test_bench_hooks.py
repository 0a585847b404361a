"""The benchmark's hooks into the library still resolve.

perfbench/tracer.py wraps the functions and methods named in TARGETS
for the traced run, and perfbench/workloads.py replays suite trials
with the functions named in CAPTURES wrapped on elemcalc.suites. A
rename in the library would break those runs, and so would a suite
that reaches the wrapped functions other than through the module's
globals; these tests catch both here first. The perfbench modules are
only read.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from tracer import TARGETS  # noqa: E402
from workloads import CAPTURES  # noqa: E402

import elemcalc.suites as suites  # noqa: E402
from elemcalc.sampling import trial_rng  # noqa: E402


@pytest.mark.parametrize("module, attr", [t[:2] for t in TARGETS],
                         ids=["%s.%s" % t[:2] for t in TARGETS])
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module("elemcalc." + module)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_capture_is_bound_in_suites(name):
    assert callable(getattr(suites, name))


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_suite_trial_reaches_a_capture(monkeypatch, suite):
    seen = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in CAPTURES:
        monkeypatch.setattr(suites, name, wrap(name, getattr(suites, name)))
    suites.SUITES[suite](trial_rng(0, 0))
    assert seen
