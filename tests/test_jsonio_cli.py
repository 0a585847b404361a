import argparse
import io
import json
import random
import time

import pytest

from elemcalc import (
    DescriptorMismatch,
    IdealPresentation,
    LengthMismatch,
    LinLetter,
    MuLetter,
    NotCertified,
    PolyRing,
    RhoLetter,
    SympLetter,
    Word,
    ZmodRing,
    certify,
    from_rows,
    standard_symplectic_form,
    word,
)
from elemcalc import cli, jsonio, matrices
import elemcalc.rewrite as rewrite_module
import elemcalc.suites as suites_module
from elemcalc.matrices import ColumnVector
from elemcalc.sampling import (
    sample_index1_symplectic,
    sample_linear_index1,
    sample_relative_form,
)
from elemcalc.suites import SUITE_NAMES

Z27 = ZmodRing(27)
RXY = PolyRing(Z27, ("X", "Y"))
I3 = IdealPresentation(Z27, (Z27.el(3),))


def roundtrip_ring(ring):
    data = jsonio.ring_to_json(ring)
    back = jsonio.ring_from_json(data)
    assert back == ring
    assert jsonio.dumps(jsonio.ring_to_json(back)) == jsonio.dumps(data)


def test_ring_codec():
    roundtrip_ring(Z27)
    roundtrip_ring(RXY)
    with pytest.raises(DescriptorMismatch):
        jsonio.ring_from_json({"kind": "field", "p": 5})
    with pytest.raises(DescriptorMismatch):
        jsonio.ring_from_json({"kind": "zmod"})


def test_element_codec():
    x = RXY.el(5) + RXY.var("X") * RXY.var("X") * RXY.el(2) \
        + RXY.var("Y") * RXY.el(7)
    data = jsonio.element_to_json(x)
    assert jsonio.element_from_json(RXY, data) == x
    assert jsonio.element_to_json(Z27.el(13)) == 13
    with pytest.raises(DescriptorMismatch):
        jsonio.element_from_json(Z27, "five")
    with pytest.raises(DescriptorMismatch):
        jsonio.element_from_json(RXY, [[{"Z": 1}, 3]])
    with pytest.raises(DescriptorMismatch):
        jsonio.element_from_json(RXY, [[{"X": -1}, 3]])


def test_element_codec_large_exponent():
    data = [[{"X": 10 ** 9}, 1]]
    x = jsonio.element_from_json(RXY, data)
    assert x == RXY.var("X", 10 ** 9)
    assert jsonio.element_to_json(x) == data
    data = [[{"X": 2, "Y": 4 ** 8}, 5], [{}, 7]]
    y = jsonio.element_from_json(RXY, data)
    assert y == RXY.el(5) * RXY.var("X", 2) * RXY.var("Y", 4 ** 8) + 7
    assert jsonio.element_from_json(RXY, jsonio.element_to_json(y)) == y


def test_ideal_and_certificate_codec():
    data = jsonio.ideal_to_json(I3)
    assert data == [3]
    assert jsonio.ideal_from_json(Z27, data) == I3
    assert jsonio.ideal_from_json(Z27, {"generators": [3]}) == I3
    with pytest.raises(DescriptorMismatch):
        jsonio.ideal_from_json(Z27, [])
    cert = certify(I3, [Z27.el(2)])
    cd = jsonio.certified_to_json(cert)
    back = jsonio.certified_from_json(I3, cd)
    assert back.value == cert.value
    with pytest.raises(DescriptorMismatch):
        jsonio.certified_from_json(I3, [1, 2])


def test_vector_matrix_codec():
    v = ColumnVector(Z27, [Z27.el(3), Z27.el(0), Z27.el(7)])
    assert jsonio.vector_from_json(Z27, jsonio.vector_to_json(v)) == v
    m = standard_symplectic_form(Z27, 2)
    data = jsonio.matrix_to_json(m)
    assert jsonio.matrix_from_json(Z27, data) == m
    with pytest.raises(DescriptorMismatch):
        jsonio.matrix_from_json(Z27, [[1, 2], [3]])


def test_word_codec_round_trip():
    c = certify(I3, [Z27.el(2)])
    w = word(Z27, 4,
             (SympLetter(4, 2, 1, c.value, cert=c), True),
             SympLetter(4, 1, 3, Z27.el(5)))
    data = jsonio.word_to_json(w)
    back = jsonio.word_from_json(Z27, 4, data, ideal=I3)
    assert jsonio.dumps(jsonio.word_to_json(back)) == jsonio.dumps(data)
    assert back.letters[0][1] is True
    assert back.letters[0][0].cert is not None
    with pytest.raises(DescriptorMismatch):
        jsonio.word_from_json(Z27, 4, data)  # cert but no ideal
    bad = json.loads(json.dumps(data))
    bad[0]["param"] = 7
    with pytest.raises(DescriptorMismatch):
        jsonio.word_from_json(Z27, 4, bad, ideal=I3)


def test_transvection_letter_codec():
    c1 = certify(I3, [Z27.el(1)])
    c0 = certify(I3, [Z27.el(0)])
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(0)])
    phi = standard_symplectic_form(Z27, 1)
    rho = RhoLetter(q, Z27.el(3), phi, certs=(c1, (c1, c0)))
    mu = MuLetter(q, Z27.el(0), phi)
    w = Word(Z27, 4, ((rho, False), (mu, True)))
    data = jsonio.word_to_json(w)
    back = jsonio.word_from_json(Z27, 4, data, ideal=I3)
    assert jsonio.dumps(jsonio.word_to_json(back)) == jsonio.dumps(data)
    assert back.letters[0][0].certs is not None
    assert back.letters[1][0].certs is None
    bad = json.loads(json.dumps(data))
    bad[0]["cert"]["scalar"] = [2]
    with pytest.raises(DescriptorMismatch):
        jsonio.word_from_json(Z27, 4, bad, ideal=I3)


def test_partly_certified_letter_is_written_uncertified():
    c1 = certify(I3, [Z27.el(1)])
    q = ColumnVector(Z27, [Z27.el(3), Z27.el(0)])
    phi = standard_symplectic_form(Z27, 1)
    for certs in ((c1, None), (None, (c1, c1.ideal.zero_cert()))):
        rho = RhoLetter(q, Z27.el(3), phi, certs=certs)
        data = jsonio.letter_to_json(rho, False)
        assert data["cert"] is None
        back, inv = jsonio.letter_from_json(Z27, 4, data, ideal=I3)
        assert back.certs is None and not inv
        assert back.matrix() == rho.matrix()


@pytest.mark.parametrize("letter, cause", [
    ({"gen": "rho", "q": [3, 6], "alpha": 3, "form": [[0, 1], [-1, 0]],
      "cert": {"scalar": [1], "q": [[1]]}}, LengthMismatch),
    ({"gen": "se", "i": 2, "j": 1, "param": 6, "cert": [1]}, NotCertified),
], ids=["rho-cert-count", "se-cert-value"])
def test_letter_certificate_errors_keep_their_cause(letter, cause):
    # the letter constructor checks each certificate against its value;
    # the JSON boundary reports its error as DescriptorMismatch
    with pytest.raises(DescriptorMismatch) as info:
        jsonio.letter_from_json(Z27, 4, letter, ideal=I3)
    assert isinstance(info.value.__cause__, cause)


def test_dumps_is_canonical():
    text = jsonio.dumps({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}\n'
    with pytest.raises(DescriptorMismatch):
        jsonio.loads("{not json")


def decompose_request():
    return {
        "ring": {"kind": "zmod", "m": 27},
        "ideal": [3],
        "n": 3,
        "g": [{"gen": "se", "i": 1, "j": 3, "param": 4, "inv": False},
              {"gen": "se", "i": 2, "j": 1, "param": 7, "inv": True}],
        "i": 1, "j": 2,
        "a": [1], "b": [2],
    }


def rewrite_request():
    three = [[{}, 3]]
    three_x = [[{"X": 1}, 3]]
    return {
        "ring": {"kind": "poly", "base": {"kind": "zmod", "m": 27},
                 "vars": ["X", "Y"]},
        "ideal": [three, three_x],
        "mode": "linear",
        "n": 3,
        "eps": [{"gen": "E", "i": 2, "j": 1, "param": three,
                 "inv": False, "cert": [[[{}, 1]], []]}],
        "i": 1, "j": 3,
        "aPoly": [[[{}, 2]], []],
    }


def test_cli_verify(capsys):
    rc = cli.main(["verify", "--suite", "relations",
                   "--trials", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "relations" in out and "ok" in out


def test_cli_verify_json_deterministic(capsys):
    rc = cli.main(["verify", "--suite", "short-root",
                   "--trials", "4", "--seed", "9", "--json"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = cli.main(["verify", "--suite", "short-root",
                   "--trials", "4", "--seed", "9", "--json"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second
    payload = json.loads(first)
    assert payload["suite"] == "short-root"
    assert payload["trials"] == 4
    assert payload["failures"] == []
    assert "elapsed" not in payload


def test_cli_verify_unknown_suite(capsys):
    rc = cli.main(["verify", "--suite", "no-such-suite"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def _inject_fault(monkeypatch, name):
    def fault(*args, **kwargs):
        raise RuntimeError("injected fault")
    monkeypatch.setattr(suites_module, name, fault)


def test_cli_verify_failure_json_unchanged(monkeypatch, capsys):
    _inject_fault(monkeypatch, "det")
    rc = cli.main(["verify", "--suite", "pfaffian", "--trials", "2",
                   "--json"])
    assert rc == 1
    assert capsys.readouterr().out == (
        '{"failures":[{"achieved":"54640873166c6e48",'
        '"expected":"a8d065e1050e793e","inputs":"e2f01fb916743eb7",'
        '"seed":0},{"achieved":"54640873166c6e48",'
        '"expected":"a8d065e1050e793e","inputs":"9ea5d2e12618f111",'
        '"seed":1}],"suite":"pfaffian","trials":2}\n')


@pytest.mark.parametrize("suite", ["relations", "all"])
def test_cli_verify_negative_trials(suite, capsys):
    rc = cli.main(["verify", "--suite", suite, "--trials", "-3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error:" in captured.err and "trials" in captured.err


def test_cli_verify_all(capsys):
    rc = cli.main(["verify", "--suite", "all", "--trials", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == len(SUITE_NAMES) == 13
    for name, line in zip(SUITE_NAMES, lines):
        assert line.split()[0] == name and line.endswith("ok")


def test_cli_verify_all_fails_with_one_suite(monkeypatch, capsys):
    _inject_fault(monkeypatch, "short_root_split")
    rc = cli.main(["verify", "--suite", "all", "--trials", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    failed = [line for line in out.splitlines() if "FAILED" in line]
    assert len(failed) == 1 and failed[0].startswith("split ")
    assert "trial seed 0: inputs" in out


def test_cli_verify_all_json(tmp_path, capsys):
    out = tmp_path / "reports.json"
    rc = cli.main(["verify", "--suite", "all", "--trials", "1", "--seed",
                   "3", "--json", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert out.read_text() == text
    payload = json.loads(text)
    assert [r["suite"] for r in payload] == list(SUITE_NAMES)
    assert all(r == {"suite": r["suite"], "trials": 1, "failures": []}
               for r in payload)


def test_cli_decompose_files(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(decompose_request()))
    out1 = tmp_path / "out1.json"
    out2 = tmp_path / "out2.json"
    assert cli.main(["decompose", "--in", str(req), "--out", str(out1)]) == 0
    assert cli.main(["decompose", "--in", str(req), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["verified"] is True
    assert payload["output"]
    assert all(item["cert"] is not None for item in payload["output"])
    assert payload["lemma_trace"]


def test_cli_decompose_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps(decompose_request())))
    rc = cli.main(["decompose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["verified"] is True


def test_cli_ring_override(tmp_path, capsys):
    data = decompose_request()
    del data["ring"]
    req = tmp_path / "req.json"
    req.write_text(json.dumps(data))
    rc = cli.main(["decompose", "--in", str(req),
                   "--ring", '{"kind":"zmod","m":27}'])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["verified"] is True


def test_cli_malformed_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
    rc = cli.main(["decompose"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("ring, message", [
    ({"kind": "loc", "base": {"kind": "zmod", "m": 27}, "denom": 2},
     "unknown ring kind 'loc'"),
    ({"kind": "poly", "base": {"kind": "zmod", "m": 27}, "vars": ["X", "X"]},
     "bad poly descriptor"),
    # polynomial coefficients lie in Z/m: ((Z/25)[T])[X] is refused
    ({"kind": "poly", "vars": ["X"],
      "base": {"kind": "poly", "base": {"kind": "zmod", "m": 25},
               "vars": ["T"]}},
     "bad poly descriptor"),
], ids=["loc", "repeated-variable", "nested-poly"])
def test_cli_rejected_ring_descriptor(monkeypatch, capsys, ring, message):
    request = {"ring": ring, "matrix": [[0, 1], [-1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["pfaffian"]) == 2
    # the ring itself is refused, before its matrix entries are read
    assert "error: " + message in capsys.readouterr().err
    with pytest.raises(DescriptorMismatch, match=message):
        jsonio.ring_from_json(ring)


def test_cli_rewrite(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(rewrite_request()))
    rc = cli.main(["rewrite", "--in", str(req)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["output"] and payload["case_trace"]


def expand_request():
    return {"ring": {"kind": "zmod", "m": 27},
            "direction": "group", "size": 4, "word": []}


@pytest.mark.parametrize("command, make, key, extra", [
    # an empty conjugator is the cheapest large decomposition
    ("decompose", decompose_request, "n", {"g": []}),
    ("rewrite", rewrite_request, "n", {}),
    ("expand", expand_request, "size", {}),
])
def test_cli_size_bound(monkeypatch, capsys, command, make, key, extra):
    request = dict(make(), **extra)
    request[key] = 2000
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    start = time.perf_counter()
    assert cli.main([command]) == 2
    assert time.perf_counter() - start < 1.0
    assert "field %r must be at most %d" % (key, cli.MAX_REQUEST_SIZE) \
        in capsys.readouterr().err


def test_cli_rewrite_n_must_be_an_integer(monkeypatch, capsys):
    request = rewrite_request()
    request["n"] = True
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["rewrite"]) == 2
    assert "field 'n' must be an integer" in capsys.readouterr().err


def most_admitted(work):
    """The largest k whose work(k) is within MAX_REQUEST_WORK, for work
    growing with k."""
    k, step = 0, 1 << 20
    while step:
        if work(k + step) <= cli.MAX_REQUEST_WORK:
            k += step
        else:
            step //= 2
    return k


def test_cli_rewrite_letter_bound(monkeypatch, capsys):
    # the letters are refused before they are decoded: at the bound the
    # undecodable letters are reached, one past it they are not
    bound = "field 'eps' must have at most %d letters" % (
        cli.MAX_REWRITE_LETTERS,)
    for letters, refused in ((cli.MAX_REWRITE_LETTERS, False),
                             (cli.MAX_REWRITE_LETTERS + 1, True)):
        request = dict(rewrite_request(), eps=[{}] * letters)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        assert cli.main(["rewrite"]) == 2
        assert (bound in capsys.readouterr().err) is refused


# per command: a request at n or size 64 whose letters, in the field
# named, are set in the test; rewrite's ideal has so many generators
# that fewer letters than MAX_REWRITE_LETTERS reach the budget
WORK_BOUND_REQUESTS = {
    "decompose": ("g", 1, dict(decompose_request(), n=64)),
    "rewrite": ("eps", 2400, dict(rewrite_request(), mode="symplectic",
                                  n=64, ideal=[[[{}, 3]]] * 2400)),
    "expand": ("word", 1, dict(expand_request(), ideal=[3], size=64,
                               direction="expand")),
    "group": ("word", 1, dict(expand_request(), ideal=[3], size=64)),
}


@pytest.mark.parametrize("command", sorted(WORK_BOUND_REQUESTS))
def test_cli_work_bound_refuses_undecoded(monkeypatch, capsys, command):
    # the list lengths alone put the work over the budget: one letter
    # past the admit count is refused before any letter is decoded, and
    # at the count the undecodable letters are reached
    key, gens, request = WORK_BOUND_REQUESTS[command]
    ring = jsonio.ring_from_json(request["ring"])
    size = 128 if command in ("decompose", "rewrite") else 64
    name = "expand" if command == "group" else command
    admitted = most_admitted(
        lambda k: cli._request_work(name, ring, size, k, gens))
    assert 0 < admitted
    for letters, refused in ((admitted, False), (admitted + 1, True)):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            dict(request, **{key: [{}] * letters}))))
        assert cli.main([name]) == 2
        err = capsys.readouterr().err
        assert ("is over MAX_REQUEST_WORK" in err) is refused
        assert ("missing field 'gen'" in err) is not refused


def test_cli_rewrite_corrupted_table(tmp_path, capsys, monkeypatch):
    orig = rewrite_module._peel

    def sabotaged(system, grid):
        records = list(orig(system, grid))
        for k, (i, j, poly) in enumerate(records):
            if not poly.value().is_zero():
                records[k] = (i, j, poly.neg())
                break
        return records

    monkeypatch.setattr(rewrite_module, "_peel", sabotaged)
    req = tmp_path / "req.json"
    req.write_text(json.dumps(rewrite_request()))
    rc = cli.main(["rewrite", "--in", str(req)])
    out = capsys.readouterr().out
    assert rc == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert "error" in payload


def test_cli_pfaffian(monkeypatch, capsys):
    request = {"ring": {"kind": "zmod", "m": 27},
               "matrix": [[0, 1, 0, 0], [-1, 0, 0, 0],
                          [0, 0, 0, 1], [0, 0, -1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    rc = cli.main(["pfaffian"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"pfaffian": 1, "size": 4, "verified": True}
    request["matrix"] = [[0, 1], [1, 0]]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    rc = cli.main(["pfaffian"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_pfaffian_refuses_a_non_unimodular_step(monkeypatch, capsys):
    # a Bezout step of determinant 2 is caught where it is taken: exit 1
    # with no Pfaffian, not a wrong value that passes Pf^2 = det
    from test_matrices import BEZOUT_FORM, non_unimodular_bezout
    calls = non_unimodular_bezout(monkeypatch)
    request = {"ring": {"kind": "zmod", "m": 27}, "matrix": BEZOUT_FORM}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    rc = cli.main(["pfaffian"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1 and calls
    assert payload["verified"] is False and "pfaffian" not in payload


def test_cli_pfaffian_refuses_a_wrong_determinant(monkeypatch, capsys):
    # the Pf^2 = det cross-check: a determinant off by one is refused
    # with exit 1 and no Pfaffian
    det = cli.det
    monkeypatch.setattr(cli, "det", lambda m: det(m) + 1)
    request = {"ring": {"kind": "zmod", "m": 27},
               "matrix": [[0, 1, 0, 0], [-1, 0, 0, 0],
                          [0, 0, 0, 1], [0, 0, -1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    rc = cli.main(["pfaffian"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["verified"] is False and "pfaffian" not in payload


def test_cli_standardize(monkeypatch, capsys):
    request = {"ring": {"kind": "zmod", "m": 27},
               "ideal": [3],
               "form": [[0, 1, 0, 0], [-1, 0, 0, 0],
                        [0, 0, 0, 1], [0, 0, -1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    rc = cli.main(["standardize"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["relative"] is True
    assert payload["eps_word"] == []


# a prime power is found by integer roots and a primality test, so a
# large prime or a product of two is decided at once: trial division up
# to the square root did not finish on any of these in 10 s
@pytest.mark.parametrize("m, rc", [(2 ** 61 - 1, 0), (2 ** 127 - 1, 0),
                                   ((2 ** 31 - 1) * (2 ** 61 - 1), 2)],
                         ids=["2^61-1", "2^127-1", "(2^31-1)(2^61-1)"])
def test_cli_standardize_large_moduli(monkeypatch, capsys, m, rc):
    request = {"ring": {"kind": "zmod", "m": m}, "ideal": [1],
               "form": [[0, 1], [-1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["standardize"]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert "is not a prime power" in err
    else:
        assert json.loads(out) == {"eps_word": [], "relative": True,
                                   "verified": True}


# the 10-row Z/49 form of input 220 of
# tests/test_bridge.py::test_standardize_outputs_are_pinned: its pivot 42
# is not a unit, and it is congruent to the standard form only modulo the
# unit ideal, given here as (1) and as (7, 1 + 7)
PINNED_Z49_FORM = [
    [0, 42, 0, 0, 0, 0, 0, 0, 17, 0],
    [7, 0, 11, 0, 0, 7, 39, 0, 0, 11],
    [0, 38, 0, 8, 0, 11, 0, 0, 0, 0],
    [0, 0, 41, 0, 0, 30, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 42, 38, 19, 48, 0, 39, 0, 24, 37],
    [0, 10, 0, 0, 0, 10, 0, 1, 26, 35],
    [0, 0, 0, 0, 0, 0, 48, 0, 0, 38],
    [32, 0, 0, 0, 0, 25, 23, 0, 0, 9],
    [0, 38, 0, 0, 0, 12, 14, 11, 40, 0]]


def z49_request(ideal):
    return {"ring": {"kind": "zmod", "m": 49}, "ideal": ideal,
            "form": PINNED_Z49_FORM}


def mersenne_request():
    """16 rows drawn relative to the unit ideal over Z/(2^127 - 1)."""
    ring = ZmodRing(2 ** 127 - 1)
    form, _ = sample_relative_form(random.Random(3), ring, 8,
                                   IdealPresentation(ring, (ring.one,)),
                                   letters=32)
    return {"ring": jsonio.ring_to_json(ring), "ideal": [1],
            "form": jsonio.matrix_to_json(form)}


@pytest.mark.parametrize("make", [
    lambda: z49_request([1]), lambda: z49_request([7, 8]), mersenne_request],
    ids=["Z49-(1)", "Z49-(7,8)", "2^127-1"])
def test_cli_standardize_with_the_unit_ideal(monkeypatch, capsys, make):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make())))
    assert cli.main(["standardize"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True and payload["relative"] is True


def test_cli_expand_round_trip(monkeypatch, capsys):
    phi = jsonio.matrix_to_json(standard_symplectic_form(Z27, 1))
    request = {"ring": {"kind": "zmod", "m": 27},
               "direction": "expand",
               "word": [{"gen": "rho", "q": [3, 6], "alpha": 9,
                         "form": phi, "inv": False}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    rc = cli.main(["expand"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["size"] == 4
    assert all(item["gen"] == "se" for item in payload["output"])
    grouped_req = {"ring": {"kind": "zmod", "m": 27},
                   "direction": "group", "size": 4,
                   "word": payload["output"]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(grouped_req)))
    rc = cli.main(["expand"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    kinds = [item["gen"] for item in payload["output"]]
    assert kinds == ["rho"]


@pytest.mark.parametrize("q_cert", [5, None], ids=["int", "null"])
def test_cli_transvection_cert_q_must_be_a_list(monkeypatch, capsys, q_cert):
    phi = jsonio.matrix_to_json(standard_symplectic_form(Z27, 1))
    request = {"ring": {"kind": "zmod", "m": 27}, "ideal": [3],
               "direction": "expand",
               "word": [{"gen": "rho", "q": [3, 6], "alpha": 9, "form": phi,
                         "cert": {"scalar": [3], "q": q_cert}}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["expand"]) == 2
    err = capsys.readouterr().err
    assert "transvection certificate field 'q' must be a list" in err
    assert "Traceback" not in err


def test_cli_expand_empty_word_is_identity(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(expand_request())))
    rc = cli.main(["expand"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["output"] == []


def test_cli_no_command(capsys):
    rc = cli.main([])
    assert rc == 2


@pytest.mark.parametrize("path", ["success", "verification-failed",
                                  "verify"])
def test_cli_unwritable_out(monkeypatch, tmp_path, capsys, path):
    # every write is refused like an unreadable --in: exit 2, no traceback
    out = str(tmp_path / "no-such-dir" / "out.json")
    if path == "verify":
        argv = ["verify", "--suite", "relations", "--trials", "1"]
    else:
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"ring": {"kind": "zmod", "m": 27},
                                   "matrix": [[0, 1], [-1, 0]]}))
        argv = ["pfaffian", "--in", str(req)]
        if path == "verification-failed":
            monkeypatch.setattr(cli, "det", lambda m: m.ring.el(5))
    assert cli.main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and out in captured.err
    assert "Traceback" not in captured.err


def test_cli_parser_carries_no_state(monkeypatch, tmp_path, capsys):
    """Repeated calls in one process answer alike, and only the first
    builds the parser."""
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"ring": {"kind": "zmod", "m": 27},
                               "matrix": [[0, 1], [-1, 0]]}))
    argvs = [["pfaffian", "--in", str(req)],
             ["verify"],
             ["verify", "--suite", "relations", "--trials", "-3"],
             ["no-such-command"],
             []]
    built = []
    orig = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    rounds = []
    for _ in range(2):
        del built[:]
        answers = []
        for argv in argvs:
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            captured = capsys.readouterr()
            answers.append((rc, captured.out, captured.err))
        rounds.append((answers, len(built)))
    (first, built_first), (second, built_second) = rounds
    assert first == second
    assert [rc for rc, _, _ in first] == [0, 2, 2, 2, 2]
    assert built_first > 0 and built_second == 0


def test_result_serializers_have_expected_keys():
    from elemcalc import decompose_conjugate
    c = certify(I3, [Z27.el(1)])
    g = Word(Z27, 6, ())
    res = decompose_conjugate(g, 1, 2, c, c)
    payload = jsonio.decomposition_to_json(res)
    assert set(payload) == {"verified", "output", "target", "achieved",
                            "lemma_trace"}
    text1 = jsonio.dumps(payload)
    text2 = jsonio.dumps(jsonio.decomposition_to_json(
        decompose_conjugate(g, 1, 2, c, c)))
    assert text1 == text2


@pytest.mark.parametrize("field, value, named", [
    ("inv", "false", "'inv'"),
    ("inv", 0, "'inv'"),
    ("inv", 1, "'inv'"),
    ("i", True, "'i'"),
    ("j", False, "'j'"),
    ("i", 1.0, "'i'"),
    ("param", True, "zmod element"),
])
def test_cli_letter_fields_are_json_typed(monkeypatch, capsys, field, value,
                                          named):
    # true and false are not integers, and inv is not read by truthiness
    request = decompose_request()
    request["g"][0][field] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["decompose"]) == 2
    assert named in capsys.readouterr().err


def test_letter_inv_absent_or_null_is_false():
    base = {"gen": "se", "i": 1, "j": 3, "param": 2}
    for data in (base, dict(base, inv=None), dict(base, inv=False)):
        assert jsonio.letter_from_json(Z27, 6, data)[1] is False
    assert jsonio.letter_from_json(Z27, 6, dict(base, inv=True))[1] is True
    with pytest.raises(DescriptorMismatch, match="'inv'"):
        jsonio.letter_from_json(Z27, 6, dict(base, inv="false"))


def test_booleans_are_not_integers():
    with pytest.raises(DescriptorMismatch, match="zmod element"):
        jsonio.element_from_json(ZmodRing(27), True)
    with pytest.raises(DescriptorMismatch, match="exponent of 'X'"):
        jsonio.element_from_json(RXY, [[{"X": True}, 1]])
    with pytest.raises(DescriptorMismatch, match="'m'"):
        jsonio.ring_from_json({"kind": "zmod", "m": True})


POLY_X = {"kind": "poly", "base": {"kind": "zmod", "m": 27}, "vars": ["X"]}


def dense_poly_alternating(rows):
    """Alternating matrix over (Z/27)[X]: every entry above the diagonal
    kX + 1."""
    out = [[[]] * rows for _ in range(rows)]
    for r in range(rows):
        for c in range(r + 1, rows):
            k = 1 + (r * rows + c) % 26
            out[r][c] = [[{"X": 1}, k], [{}, 1]]
            out[c][r] = [[{"X": 1}, 27 - k], [{}, 26]]
    return out


ZMOD_BIG = {"kind": "zmod", "m": 3 ** 161}

# per ring kind: its descriptor and the ideal (3) over it
ROW_BOUND_RINGS = [
    ({"kind": "zmod", "m": 27}, [3]),
    (ZMOD_BIG, [3]),
    ({"kind": "poly", "base": ZMOD_BIG, "vars": ["X"]}, [[[{}, 3]]]),
]


@pytest.mark.parametrize("command, key, extra", [
    ("pfaffian", "matrix", {}),
    ("standardize", "form", {"ideal": [3]}),
])
def test_cli_matrix_row_bound(monkeypatch, capsys, command, key, extra):
    # one row past MAX_REQUEST_SIZE is refused before the entries are
    # decoded, and so is one row past what the work model admits for the
    # ring; at that count the undecodable entries are reached
    over_size = "field %r must have at most %d rows" % (
        key, cli.MAX_REQUEST_SIZE)
    refusals = set()
    for descriptor, ideal in ROW_BOUND_RINGS:
        ring = jsonio.ring_from_json(descriptor)
        admitted = min(cli.MAX_REQUEST_SIZE, most_admitted(
            lambda rows: cli._request_work(command, ring, rows, gens=1)))
        cases = [(cli.MAX_REQUEST_SIZE + 1, over_size), (admitted, "error: ")]
        if admitted < cli.MAX_REQUEST_SIZE:
            cases.append((admitted + 1, "is over MAX_REQUEST_WORK"))
        for rows, message in cases:
            request = {"ring": descriptor, key: [[None] * rows] * rows}
            if "ideal" in extra:
                request["ideal"] = ideal
            monkeypatch.setattr("sys.stdin",
                                io.StringIO(json.dumps(request)))
            start = time.perf_counter()
            assert cli.main([command]) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert message in err
            if rows == admitted:
                assert "rows" not in err and "WORK" not in err
            else:
                refusals.add(message)
    # over the big modulus the rows alone are over the budget
    assert len(refusals) == 2


@pytest.mark.parametrize("command, key, extra", [
    ("pfaffian", "matrix", {}),
    ("standardize", "form", {"ideal": [3]}),
])
def test_cli_matrix_must_be_square(monkeypatch, capsys, command, key, extra):
    # 64 rows of 20,000 zeros and ones (3.8 MB) are refused before any
    # entry is decoded; decoding them all took 3.6 s
    rows = cli.MAX_REQUEST_SIZE
    request = dict(extra, ring={"kind": "zmod", "m": 27})
    request[key] = [[(r + c) % 2 for c in range(20000)] for r in range(rows)]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    start = time.perf_counter()
    assert cli.main([command]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: field %r must be square" % (key,) in captured.err
    # one short row among square ones, and undecodable entries: the
    # shape is refused first
    request[key] = [[None] * 4, [None] * 4, [None] * 3, [None] * 4]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main([command]) == 2
    assert "field %r must be square" % (key,) in capsys.readouterr().err


def test_transvection_form_must_match_vector():
    # a form that is not len(q) x len(q) is refused before its entries
    # are decoded
    base = {"gen": "rho", "q": [3, 6], "alpha": 9}
    for form in ([[None] * 2] * 3, [[None] * 20000] * 2,
                 [[None] * 2, [None]]):
        with pytest.raises(DescriptorMismatch, match="'form' must be 2 x 2"):
            jsonio.letter_from_json(Z27, 4, dict(base, form=form))
    with pytest.raises(DescriptorMismatch, match="zmod element"):
        jsonio.letter_from_json(Z27, 4, dict(base, form=[[None] * 2] * 2))


def test_cli_modulus_bound(monkeypatch, capsys):
    # a modulus of MAX_MODULUS_BITS bits is accepted; one bit more is
    # refused before any element is decoded, also as the base of a poly
    # descriptor
    bound = "zmod descriptor field 'm' must have at most %d bits" % (
        jsonio.MAX_MODULUS_BITS,)
    at, over = 3 ** 161, 1 << jsonio.MAX_MODULUS_BITS
    assert at.bit_length() == jsonio.MAX_MODULUS_BITS
    request = {"ring": {"kind": "zmod", "m": at},
               "matrix": [[0, 1], [-1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["pfaffian"]) == 0
    assert json.loads(capsys.readouterr().out)["pfaffian"] == 1
    zmod = {"kind": "zmod", "m": over}
    for ring in (zmod, {"kind": "poly", "base": zmod, "vars": ["X"]}):
        request = {"ring": ring, "matrix": [[None] * 2] * 2}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        assert cli.main(["pfaffian"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and bound in captured.err
        with pytest.raises(DescriptorMismatch, match=bound):
            jsonio.ring_from_json(ring)


# --------------------------------------------------------------------------
# the work model against counted products: per command, a request at the
# budget, whose coefficient products (the products fixture) must stay at
# or under _request_work's estimate for it


def unit_se_word(rng, size, letters, element):
    """JSON se letters at random cells with parameters element(rng)."""
    word = []
    for _ in range(letters):
        i, j = rng.sample(range(1, size + 1), 2)
        word.append({"gen": "se", "i": i, "j": j, "param": element(rng),
                     "inv": rng.random() < 0.3})
    return word


def run_counted(monkeypatch, command, request, products):
    """cli.main on request; its products, after checking it succeeded."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    products[0] = 0
    assert cli.main([command]) == 0
    assert json.loads(out.getvalue())["verified"] is True
    return products[0]


def test_decompose_work_bounds_its_products(monkeypatch, products):
    # the most letters admitted: unit letters at n 64 over Z/27, and
    # letters c + dX, of degree one each, at n 3 over (Z/27)[X]
    rng = random.Random(7)
    unit = lambda r: r.choice([1, 2, 4, 5, 7, 8])
    linear = lambda r: [[{}, unit(r)], [{"X": 1}, 1]]
    for ring, n, element, degree in ((Z27, 64, unit, 0),
                                     (PolyRing(Z27, ("X",)), 3, linear, 1)):
        def work(letters):
            return cli._request_work("decompose", ring, 2 * n, letters, 1,
                                     degree=letters * degree)
        letters = most_admitted(work)
        one = jsonio.element_to_json(ring.one)
        request = {"ring": jsonio.ring_to_json(ring),
                   "ideal": [jsonio.element_to_json(ring.el(3))], "n": n,
                   "g": unit_se_word(rng, 2 * n, letters, element),
                   "i": 1, "j": 3, "a": [one], "b": [one]}
        assert run_counted(monkeypatch, "decompose", request,
                           products) <= work(letters)


def test_rewrite_work_bounds_its_products(monkeypatch, products):
    # MAX_REWRITE_LETTERS letters at n 3, each of degree one over the
    # ideal (3, 3X) of (Z/27)[X, Y]: the most the budget admits there
    ideal = IdealPresentation(RXY, (RXY.el(3), RXY.el(3) * RXY.var("X")))
    for make, sample, size in ((LinLetter, sample_linear_index1, 3),
                               (SympLetter, sample_index1_symplectic, 6)):
        rng = random.Random(size)
        certs = [certify(ideal, [RXY.el(rng.randrange(1, 27)),
                                 RXY.el(rng.randrange(1, 27))])
                 for _ in range(cli.MAX_REWRITE_LETTERS + 1)]
        eps = Word(RXY, size, [(make(size, *sample(rng, size), c.value, c),
                                rng.random() < 0.3) for c in certs[1:]])
        request = {"ring": jsonio.ring_to_json(RXY),
                   "ideal": jsonio.ideal_to_json(ideal),
                   "mode": "linear" if make is LinLetter else "symplectic",
                   "n": 3, "eps": jsonio.word_to_json(eps), "i": 1, "j": 2,
                   "aPoly": jsonio.certified_to_json(certs[0])}
        work = cli._request_work("rewrite", RXY, size, len(eps), 2,
                                 degree=len(eps) + 2)
        assert work <= cli.MAX_REQUEST_WORK
        assert run_counted(monkeypatch, "rewrite", request,
                           products) <= work


def transvection_word(rng, size, letters):
    """Certified rho and mu letters over the standard form of Z/27 with
    unit vectors and scalars, alternating kind."""
    form = standard_symplectic_form(Z27, (size - 2) // 2)
    out = Word(Z27, size)
    for k in range(letters):
        certs = [certify(I3, [Z27.el(rng.choice([1, 2, 4, 5, 7, 8]))])
                 for _ in range(size - 1)]
        q = ColumnVector(Z27, [c.value for c in certs[1:]])
        make = RhoLetter if k % 2 == 0 else MuLetter
        out = out.append(make(q, certs[0].value, form,
                              (certs[0], tuple(certs[1:]))),
                         inverted=rng.random() < 0.3)
    return out


def first_index_word(rng, size, letters):
    """Certified first-index se letters over Z/27 alternating between
    rows and columns, so that every letter is its own run."""
    out = Word(Z27, size)
    for k in range(letters):
        other = rng.randrange(3, size + 1)
        i, j = (other, 1) if k % 2 == 0 else (1, other)
        cert = certify(I3, [Z27.el(rng.choice([1, 2, 4, 5, 7, 8]))])
        out = out.append(SympLetter(size, i, j, cert.value, cert),
                         inverted=rng.random() < 0.3)
    return out


@pytest.mark.parametrize("direction, make", [
    ("expand", transvection_word), ("group", first_index_word)])
def test_expand_work_bounds_its_products(monkeypatch, products, direction,
                                         make):
    # the most letters admitted at size 16
    size = 16
    letters = most_admitted(
        lambda k: cli._request_work("expand", Z27, size, k, 1))
    request = {"ring": {"kind": "zmod", "m": 27}, "ideal": [3],
               "direction": direction, "size": size,
               "word": jsonio.word_to_json(
                   make(random.Random(1), size, letters))}
    assert run_counted(monkeypatch, "expand", request, products) \
        <= cli._request_work("expand", Z27, size, letters, 1)


def test_pfaffian_work_bounds_its_products(monkeypatch, products):
    # MAX_REQUEST_SIZE rows over Z/27, and over (Z/27)[X] the most rows
    # of entries kX + 1 admitted
    rng = random.Random(5)
    rows = cli.MAX_REQUEST_SIZE
    zmod = [[0] * rows for _ in range(rows)]
    for r in range(rows):
        for c in range(r + 1, rows):
            zmod[r][c] = rng.randrange(27)
            zmod[c][r] = -zmod[r][c] % 27
    poly = PolyRing(Z27, ("X",))
    poly_rows = most_admitted(lambda k: cli._request_work(
        "pfaffian", poly, 2 * k, degree=1)) * 2
    for ring, matrix, degree in ((Z27, zmod, 0),
                                 (poly, dense_poly_alternating(poly_rows), 1)):
        size = len(matrix)
        request = {"ring": jsonio.ring_to_json(ring), "matrix": matrix}
        assert run_counted(monkeypatch, "pfaffian", request, products) \
            <= cli._request_work("pfaffian", ring, size, degree=degree)


def test_standardize_work_bounds_its_products(monkeypatch, products):
    # over Z/3^161, whose 256-bit products cost the most, the most rows
    # admitted, up to MAX_REQUEST_SIZE
    ring = ZmodRing(3 ** 161)
    ideal = IdealPresentation(ring, (ring.el(3),))
    rows = min(cli.MAX_REQUEST_SIZE, most_admitted(lambda k: cli._request_work(
        "standardize", ring, 2 * k, gens=1)) * 2)
    form, _ = sample_relative_form(random.Random(3), ring, rows // 2, ideal,
                                   letters=2 * rows)
    request = {"ring": jsonio.ring_to_json(ring),
               "ideal": jsonio.ideal_to_json(ideal),
               "form": jsonio.matrix_to_json(form)}
    assert run_counted(monkeypatch, "standardize", request, products) \
        <= cli._request_work("standardize", ring, rows, gens=1)


HUGE = 10 ** 9

# requests the work model refuses after decoding, before any arithmetic:
# a 128-letter long root over (Z/27)[X] at n 3, twelve letters in ten
# variables, and an exponent of 10^9 in each command
REFUSED_REQUESTS = {
    "decompose": {"ring": POLY_X, "ideal": [[[{}, 3]]], "n": 3,
                  "g": unit_se_word(random.Random(2), 6, 128, lambda r: [
                      [{}, r.randrange(1, 27)], [{"X": 1}, 1]]),
                  "i": 1, "j": 3, "a": [[[{}, 1]]], "b": [[[{}, 2]]]},
    # twelve letters X1 + ... + X10: entries of degree 12 in ten
    # variables have up to C(22, 10) monomials, though (1 + 12)^2 is small
    "decompose-variables": {
        "ring": {"kind": "poly", "base": {"kind": "zmod", "m": 27},
                 "vars": ["X%d" % k for k in range(10)]},
        "ideal": [[[{}, 3]]], "n": 3,
        "g": unit_se_word(random.Random(3), 6, 12, lambda r: [
            [{"X%d" % k: 1}, 1] for k in range(10)]),
        "i": 1, "j": 3, "a": [[[{}, 1]]], "b": [[[{}, 2]]]},
    "decompose-exponent": {
        "ring": POLY_X, "ideal": [[[{}, 3]]], "n": 3,
        "g": [{"gen": "se", "i": 1, "j": 3, "param": [[{"X": HUGE}, 4]]}],
        "i": 1, "j": 2, "a": [[[{}, 1]]], "b": [[[{}, 2]]]},
    "rewrite-exponent": dict(rewrite_request(), ideal=[
        [[{}, 3]], [[{"X": HUGE}, 3]]]),
    "pfaffian-exponent": {"ring": POLY_X, "matrix": [
        [[], [[{"X": HUGE}, 1]]], [[[{"X": HUGE}, 26]], []]]},
    "standardize-exponent": {"ring": POLY_X, "ideal": [[[{}, 3]]], "form": [
        [[], [[{"X": HUGE}, 1]]], [[[{"X": HUGE}, 26]], []]]},
    "expand-exponent": {"ring": POLY_X, "direction": "group", "size": 4,
                        "word": [{"gen": "se", "i": 3, "j": 1,
                                  "param": [[{"X": HUGE}, 3]]}]},
}


@pytest.mark.parametrize("case", sorted(REFUSED_REQUESTS))
def test_cli_work_bound_refuses_degrees(monkeypatch, capsys, case):
    def unreachable(*args, **kwargs):
        raise AssertionError("arithmetic reached")

    for name in ("decompose_conjugate", "rewrite_conjugation_linear",
                 "rewrite_conjugation_symplectic", "pfaffian", "det",
                 "AlternatingForm", "etranssp_word_to_ESp1",
                 "ESp1_to_etranssp"):
        monkeypatch.setattr(cli, name, unreachable)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        REFUSED_REQUESTS[case])))
    assert cli.main([case.split("-")[0]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is over MAX_REQUEST_WORK" in captured.err


def test_costliest_zmod_decompose_is_admitted():
    # 2,048 letters at n 64 over Z/3^161 (256 bits), admitted by the
    # letter limit the model replaced
    assert cli._request_work("decompose", ZmodRing(3 ** 161), 128, 2048,
                             1) <= cli.MAX_REQUEST_WORK
