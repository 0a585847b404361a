import argparse
import io
import json
import time

import pytest

from elemcalc import (
    DescriptorMismatch,
    IdealPresentation,
    LengthMismatch,
    LinLetter,
    LocRing,
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
from elemcalc import cli, jsonio
import elemcalc.rewrite as rewrite_module
import elemcalc.suites as suites_module
from elemcalc.matrices import ColumnVector
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
    roundtrip_ring(LocRing(PolyRing(ZmodRing(25), ("T",)),
                           PolyRing(ZmodRing(25), ("T",)).var("T")))
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
    L = LocRing(Z27, Z27.el(2))
    y = L.el(5)
    back = jsonio.element_from_json(L, jsonio.element_to_json(y))
    assert back == y
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


@pytest.mark.parametrize("ring", [
    {"kind": "loc", "base": {"kind": "zmod", "m": 27}, "denom": 0},
    {"kind": "loc", "base": {"kind": "zmod", "m": 27}, "denom": 3},
    {"kind": "poly", "base": {"kind": "zmod", "m": 27}, "vars": ["X", "X"]},
], ids=["zero-denominator", "zero-divisor-denominator", "repeated-variable"])
def test_cli_rejected_ring_descriptor(monkeypatch, capsys, ring):
    request = {"ring": ring, "matrix": [[0, 1], [-1, 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["pfaffian"]) == 2
    # the ring itself is refused, before its matrix entries are read
    assert "error: bad %s descriptor" % ring["kind"] \
        in capsys.readouterr().err


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


def test_cli_decompose_letter_bound(monkeypatch, capsys):
    # as for eps: at the bound the undecodable letters of g are reached,
    # one past it they are refused before decoding
    bound = "field 'g' must have at most %d letters" % (
        cli.MAX_DECOMPOSE_LETTERS,)
    for letters, refused in ((cli.MAX_DECOMPOSE_LETTERS, False),
                             (cli.MAX_DECOMPOSE_LETTERS + 1, True)):
        request = dict(decompose_request(), g=[{}] * letters)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        assert cli.main(["decompose"]) == 2
        assert (bound in capsys.readouterr().err) is refused


def test_cli_expand_letter_bound(monkeypatch, capsys):
    # as for g, in both directions: at the bound the undecodable letters
    # of word are reached, one past it they are refused before decoding
    bound = "field 'word' must have at most %d letters" % (
        cli.MAX_EXPAND_LETTERS,)
    for direction in ("expand", "group"):
        for letters, refused in ((cli.MAX_EXPAND_LETTERS, False),
                                 (cli.MAX_EXPAND_LETTERS + 1, True)):
            request = dict(expand_request(), direction=direction,
                           word=[{}] * letters)
            monkeypatch.setattr("sys.stdin",
                                io.StringIO(json.dumps(request)))
            assert cli.main(["expand"]) == 2
            assert (bound in capsys.readouterr().err) is refused


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
    L = LocRing(Z27, Z27.el(2))
    with pytest.raises(DescriptorMismatch, match="'exp'"):
        jsonio.element_from_json(L, {"num": 1, "exp": True})
    with pytest.raises(DescriptorMismatch, match="'exp'"):
        jsonio.element_from_json(L, {"num": 1, "exp": -1})
    with pytest.raises(DescriptorMismatch, match="'m'"):
        jsonio.ring_from_json({"kind": "zmod", "m": True})


POLY_X = {"kind": "poly", "base": {"kind": "zmod", "m": 27}, "vars": ["X"]}

LOC_X_PLUS_1 = {"kind": "loc", "base": POLY_X,
                "denom": [[{"X": 1}, 1], [{}, 1]]}


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


def dense_loc_alternating(rows, exp):
    """Alternating matrix over loc((Z/27)[X], X+1): every entry above
    the diagonal (kX + 1) / (X + 1)^exp."""
    return [[{"num": e, "exp": exp if e else 0} for e in row]
            for row in dense_poly_alternating(rows)]


# per ring kind: its descriptor, the ideal (3) over it, its row bound
# and a dense alternating matrix with the given rows
ROW_BOUND_RINGS = [
    ({"kind": "zmod", "m": 27}, [3], cli.MAX_REQUEST_SIZE,
     lambda rows: [[(c > r) - (c < r) for c in range(rows)]
                   for r in range(rows)]),
    (POLY_X, [[[{}, 3]]], cli.MAX_POLY_MATRIX_ROWS, dense_poly_alternating),
    (LOC_X_PLUS_1, [{"num": [[{}, 3]], "exp": 0}], cli.MAX_POLY_MATRIX_ROWS,
     lambda rows: dense_loc_alternating(rows, 0)),
]


@pytest.mark.parametrize("command, key, extra", [
    ("pfaffian", "matrix", {}),
    ("standardize", "form", {"ideal": [3]}),
])
def test_cli_matrix_row_bound(monkeypatch, capsys, command, key, extra):
    # one past the bound is refused before its entries are decoded; at
    # the bound the undecodable entries are reached
    assert cli.MAX_POLY_MATRIX_ROWS < cli.MAX_REQUEST_SIZE
    for ring, ideal, bound, dense in ROW_BOUND_RINGS:
        message = "field %r must have at most %d rows" % (key, bound)
        request = {"ring": ring, key: dense(bound + 1)}
        if "ideal" in extra:
            request["ideal"] = ideal
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        start = time.perf_counter()
        assert cli.main([command]) == 2
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err
        request[key] = [[None] * bound] * bound
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        assert cli.main([command]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message not in err


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


def test_cli_loc_exponent_bound(monkeypatch, capsys):
    # the bound holds before any arithmetic: one past it exits 2 at once
    bound = "loc element field 'exp' must be at most %d" % (
        jsonio.MAX_LOC_EXPONENT,)
    for exp, rc in ((jsonio.MAX_LOC_EXPONENT, 0),
                    (jsonio.MAX_LOC_EXPONENT + 1, 2)):
        zero = {"num": [], "exp": 0}
        entry = {"num": [[{}, 1]], "exp": exp}
        request = {"ring": LOC_X_PLUS_1,
                   "matrix": [[zero, entry],
                              [dict(entry, num=[[{}, -1]]), zero]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        assert cli.main(["pfaffian"]) == rc
        captured = capsys.readouterr()
        assert (bound in captured.err) is (rc == 2)
        if rc == 0:
            assert json.loads(captured.out)["pfaffian"] == entry


def test_cli_modulus_bound(monkeypatch, capsys):
    # a modulus of MAX_MODULUS_BITS bits is accepted; one bit more is
    # refused before any element is decoded, also as the base of a poly
    # or loc descriptor
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
    for ring in (zmod, {"kind": "poly", "base": zmod, "vars": ["X"]},
                 {"kind": "loc", "base": zmod, "denom": None}):
        request = {"ring": ring, "matrix": [[None] * 2] * 2}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        assert cli.main(["pfaffian"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and bound in captured.err
        with pytest.raises(DescriptorMismatch, match=bound):
            jsonio.ring_from_json(ring)


@pytest.mark.parametrize("command, key, extra", [
    ("pfaffian", "matrix", {}),
    ("standardize", "form", {"ideal": [{"num": [[{}, 3]], "exp": 0}]}),
])
def test_cli_loc_matrix_work_bound(monkeypatch, capsys, command, key, extra):
    # every exp is within MAX_LOC_EXPONENT, but rows x exp is past the
    # bound: refused before any arithmetic (test_cli_loc_exponent_bound's
    # 2 rows at MAX_LOC_EXPONENT sit at the bound and are accepted)
    rows = 8
    exp = cli.MAX_LOC_MATRIX_WORK // rows + 1
    assert exp <= jsonio.MAX_LOC_EXPONENT
    request = dict(extra, ring=LOC_X_PLUS_1)
    request[key] = dense_loc_alternating(rows, exp)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    start = time.perf_counter()
    assert cli.main([command]) == 2
    assert time.perf_counter() - start < 1.0
    assert ("field %r: rows x largest loc 'exp' must be at most %d"
            % (key, cli.MAX_LOC_MATRIX_WORK)) in capsys.readouterr().err
