"""End-to-end acceptance checks: bulk randomized runs with time budgets.

Each test drives a public entry point over many random instances and
asserts exact equality throughout, with a wall-clock ceiling. Seeds are
fixed so failures are reproducible with the reported trial seed.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from elemcalc import (
    AlternatingForm,
    DimensionTooSmall,
    IdealPresentation,
    LinLetter,
    PolyRing,
    TwoNotInvertible,
    VerificationFailed,
    Word,
    ZmodRing,
    certify,
    decompose_conjugate,
    det,
    evaluate,
    from_rows,
    pfaffian,
    rewrite_conjugation_linear,
    rewrite_conjugation_symplectic,
    specialize_and_check,
    standard_symplectic_form,
    standardize_alternating,
    substitute,
    word,
    word_in_E1,
    word_in_ESp1,
)
from elemcalc import cli, jsonio
import elemcalc.rewrite as rewrite_module
from elemcalc.sampling import (
    sample_alternating,
    sample_certified,
    sample_index1_linear_word,
    sample_index1_symplectic_word,
    sample_index1_symplectic,
    sample_linear_index1,
    sample_relative_form,
    sample_symplectic_word,
    trial_rng,
)
from elemcalc.suites import run_suite

Z27 = ZmodRing(27)
I3 = IdealPresentation(Z27, (Z27.el(3),))
SEED = 2026


def test_relation_families_in_bulk():
    t0 = time.monotonic()
    rep = run_suite("relations", 300, SEED)
    elapsed = time.monotonic() - t0
    assert rep.trials == 300
    assert rep.ok, rep.failures[:3]
    assert elapsed < 10.0


def test_identity_suites_in_bulk():
    names = ("short-root", "long-root", "reduce", "split",
             "sum-to-product", "unimodular")
    t0 = time.monotonic()
    for name in names:
        rep = run_suite(name, 100, SEED)
        assert rep.trials == 100
        assert rep.ok, (name, rep.failures[:3])
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0


def test_decomposition_in_bulk():
    t0 = time.monotonic()
    rep = run_suite("decompose", 100, SEED)
    elapsed = time.monotonic() - t0
    assert rep.trials == 100
    assert rep.ok, rep.failures[:3]
    assert elapsed < 60.0


def test_rewriting_in_bulk():
    ring = PolyRing(Z27, ("X", "Y"))
    ideal = IdealPresentation(ring, (ring.el(3), ring.el(3) * ring.var("X")))
    t0 = time.monotonic()
    index = 0
    for r in (1, 2, 3):
        for mode in ("linear", "symplectic"):
            for _ in range(50):
                rng = trial_rng(SEED, index)
                index += 1
                if mode == "linear":
                    n = 3
                    eps = sample_index1_linear_word(rng, ideal, n, r,
                                                    variables=("X",))
                    i, j = sample_linear_index1(rng, n)
                else:
                    size = 6
                    eps = sample_index1_symplectic_word(rng, ideal, size, r,
                                                        variables=("X",))
                    i, j = sample_index1_symplectic(rng, size)
                a = sample_certified(rng, ideal, max_degree=1,
                                     variables=("X",))
                if mode == "linear":
                    res = rewrite_conjugation_linear(eps, i, j, a)
                    assert word_in_E1(res.output, ideal)
                else:
                    res = rewrite_conjugation_symplectic(eps, i, j, a)
                    assert word_in_ESp1(res.output, ideal)
                assert res.verified
                for letter, _ in res.output.letters:
                    zeroed = substitute(letter.param, {"Y": ring.zero})
                    assert zeroed.is_zero()
                assert specialize_and_check(
                    res, rng.randrange(27), 0).is_identity()
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0


def test_dictionaries_in_bulk():
    rep = run_suite("dictionaries", 200, SEED)
    assert rep.trials == 200
    assert rep.ok, rep.failures[:3]


def test_standardization_in_bulk():
    psi2 = standard_symplectic_form(Z27, 2)
    for index in range(50):
        rng = trial_rng(SEED, index)
        phi_matrix, eps0 = sample_relative_form(
            rng, Z27, 2, I3, letters=rng.randint(1, 4))
        phi = AlternatingForm(phi_matrix)
        assert pfaffian(phi_matrix) == Z27.one
        res = standardize_alternating_checked(phi, phi_matrix, psi2)
        assert res.verified
        assert res.relative


def standardize_alternating_checked(phi, phi_matrix, psi2):
    res = standardize_alternating(phi, I3)
    small = evaluate(res.eps_word)
    size = psi2.rows
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            if r == 0 or c == 0:
                row.append(1 if r == c else 0)
            else:
                row.append(small.entry(r, c).payload)
        rows.append(row)
    emb = from_rows(Z27, rows)
    assert emb.transpose() * psi2 * emb == phi_matrix
    return res


def test_pfaffian_properties():
    for n in range(1, 5):
        for ring in (Z27, ZmodRing(25), ZmodRing(121)):
            assert pfaffian(standard_symplectic_form(ring, n)) == ring.one
    for index in range(100):
        rng = trial_rng(SEED, index)
        size = 4 if index % 2 == 0 else 6
        A = sample_alternating(rng, Z27, size)
        assert pfaffian(A) * pfaffian(A) == det(A)
    for index in range(100):
        rng = trial_rng(SEED, 1000 + index)
        size = rng.choice((4, 6))
        if index % 2 == 0:
            w = sample_symplectic_word(rng, Z27, size, rng.randint(1, 4))
        else:
            picks = []
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(1, size + 1)
                j = rng.randrange(1, size + 1)
                while j == i:
                    j = rng.randrange(1, size + 1)
                picks.append(LinLetter(size, i, j, Z27.el(rng.randrange(27))))
            w = word(Z27, size, *picks)
        A = evaluate(w)
        phi = sample_alternating(rng, Z27, size)
        assert pfaffian(A.transpose() * phi * A) == det(A) * pfaffian(phi)


def test_negative_controls(monkeypatch):
    Z8 = ZmodRing(8)
    I8 = IdealPresentation(Z8, (Z8.el(2),))
    a8 = certify(I8, [Z8.el(1)])
    with pytest.raises(TwoNotInvertible):
        decompose_conjugate(Word(Z8, 6, ()), 1, 2, a8, a8)
    a = certify(I3, [Z27.el(1)])
    with pytest.raises(DimensionTooSmall):
        decompose_conjugate(Word(Z27, 4, ()), 1, 2, a, a)

    ring = PolyRing(Z27, ("X", "Y"))
    ideal = IdealPresentation(ring, (ring.el(3), ring.el(3) * ring.var("X")))
    rng = trial_rng(SEED, 77)
    eps = sample_index1_linear_word(rng, ideal, 3, 1, variables=("X",))
    ap = sample_certified(rng, ideal, max_degree=1, variables=("X",))
    orig_peel = rewrite_module._peel

    def corrupt_peel(system, grid):
        records = list(orig_peel(system, grid))
        for k, (i, j, poly) in enumerate(records):
            if not poly.value().is_zero():
                records[k] = (i, j, poly.neg())
                break
        return records

    monkeypatch.setattr(rewrite_module, "_peel", corrupt_peel)
    with pytest.raises(VerificationFailed):
        for index in range(10):
            rng = trial_rng(SEED, 500 + index)
            eps = sample_index1_linear_word(rng, ideal, 3, 1,
                                            variables=("X",))
            i, j = sample_linear_index1(rng, 3)
            ap = sample_certified(rng, ideal, max_degree=1,
                                  variables=("X",))
            rewrite_conjugation_linear(eps, i, j, ap)


def test_decompose_demo_script():
    """The README's pipeline demo runs to its final line."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "decompose_demo.py"),
         "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "all stages verified" in proc.stdout.splitlines()


# SHA-256 of the output of each README request, as recorded before the
# certificate bookkeeping was merged; the CLI's bytes must not move.
README_DIGESTS = {
    "decompose":
        "135a3d8774d3261d6b24832c5f971e2c1cc42508a0797e4c4b5e89fecaf84a69",
    "rewrite":
        "42bc72a3721f764c2a29653e20c5bf159a8b7af315979e3f9f09f6ec5977f7f9",
    "pfaffian":
        "4fbe2ab0594c233051b28da40fe255dca62222bae61a6d8b0d97eebef01068ae",
    "standardize":
        "2f1da9296acff487b706994e8cc086697231d6353e3ab212c492f62a8b04e86a",
    "expand":
        "7cb1a11563466ce1566b9e5f752b24a31b4bf77f81a11b0f9bc41eaa8ad71ecf",
}


def readme_request(command):
    """The text of the README's request for command: the first json
    block under the command's heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.search(r"^### %s\n.*?```json\n(.*?)```" % command, text,
                      re.S | re.M)
    assert found, "README has no %s request" % command
    return found.group(1)


@pytest.mark.parametrize("command", sorted(README_DIGESTS))
def test_readme_request_bytes(tmp_path, command):
    """Each README request, run through --in/--out, gives pinned bytes."""
    req, out = tmp_path / "req.json", tmp_path / "out.json"
    req.write_text(readme_request(command))
    assert cli.main([command, "--in", str(req), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == README_DIGESTS[command]


def json_paths(node, path=()):
    """The path of every value inside a JSON document, root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


# wrong types, null, a negative, an empty list, and one past each named
# request limit
HOSTILE = (
    "x", 1.5, True, {}, None, -1, [],
    cli.MAX_REQUEST_SIZE + 1, cli.MAX_REWRITE_LETTERS + 1,
    cli.MAX_POLY_MATRIX_ROWS + 1, cli.MAX_LOC_MATRIX_WORK + 1,
    jsonio.MAX_LOC_EXPONENT + 1,
    [{}] * (cli.MAX_REWRITE_LETTERS + 1),
    [[0] * (cli.MAX_REQUEST_SIZE + 1)] * (cli.MAX_REQUEST_SIZE + 1),
    [[0] * (cli.MAX_POLY_MATRIX_ROWS + 1)] * (cli.MAX_POLY_MATRIX_ROWS + 1),
    {"num": [[{}, 1]], "exp": jsonio.MAX_LOC_EXPONENT + 1},
)

README_REQUESTS = {command: json.loads(readme_request(command))
                   for command in sorted(README_DIGESTS)}


@st.composite
def mutated_requests(draw):
    """A README request with one field replaced by a hostile value."""
    command = draw(st.sampled_from(sorted(README_REQUESTS)))
    request = copy.deepcopy(README_REQUESTS[command])
    path = draw(st.sampled_from(list(json_paths(request))))
    node = request
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
    return command, request


@settings(max_examples=60, deadline=1000)
@given(mutated_requests())
def test_cli_fuzz_readme_requests(case):
    """Exit 0, 1 or 2; 1 only with a {"verified": false} payload; never
    a traceback."""
    command, request = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(request))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert json.loads(out.getvalue())["verified"] is (rc == 0)
