"""Tests of the benchmark itself: the oracle, the golden digests, the
tracer and replay. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def decompose_calls(tmp_path_factory):
    api, calls, _ = run.setup("decompose-scale", 7,
                              str(tmp_path_factory.mktemp("work")))
    return api, calls


def _first_nonempty(calls):
    for call in calls:
        resp = call.respond(call.run())
        if resp["output"]:
            return call, resp
    raise AssertionError("no call returned letters")


def test_oracle_accepts_library_output(decompose_calls):
    api, calls = decompose_calls
    call, resp = _first_nonempty(calls)
    letters = oracle.check(call.kind, call.request, resp, random.Random(0))
    assert letters == len(resp["output"]) > 0


def test_oracle_rejects_corrupted_letter_parameter(decompose_calls):
    api, calls = decompose_calls
    call, resp = _first_nonempty(calls)
    bad = copy.deepcopy(resp)
    bad["output"][0]["param"] += 1
    with pytest.raises(oracle.OracleMismatch):
        oracle.check(call.kind, call.request, bad, random.Random(0))


def test_oracle_rejects_corrupted_rewrite(tmp_path):
    api, calls, _ = run.setup("rewrite-deep", 3, str(tmp_path))
    call = next(c for c in calls if "r=2" in c.label)
    resp = call.respond(call.run())
    oracle.check(call.kind, call.request, resp, random.Random(1))
    bad = copy.deepcopy(resp)
    exps, coeff = bad["output"][-1]["param"][0]
    bad["output"][-1]["param"][0] = [exps, coeff + 1]
    with pytest.raises(oracle.OracleMismatch):
        oracle.check(call.kind, call.request, bad, random.Random(1))


def test_oracle_pfaffian_squares_to_determinant():
    rng = random.Random(5)
    m = 27
    for size in (2, 4, 6, 8):
        a = [[0] * size for _ in range(size)]
        for r in range(size):
            for c in range(r + 1, size):
                a[r][c] = rng.randrange(m)
                a[c][r] = -a[r][c] % m
        assert oracle.pfaffian(a, m) ** 2 % m == oracle.determinant(a, m)
    assert oracle.pfaffian(oracle.reduce_mod(oracle.standard_form(6), m),
                           m) == 1


def test_oracle_symplectic_letters_preserve_the_form():
    m = 25
    j = oracle.standard_form(6)
    for i in range(1, 7):
        for k in range(1, 7):
            if i == k:
                continue
            g = oracle.product([{"gen": "se", "i": i, "j": k, "param": 7}],
                               6, m, {})
            lhs = oracle.matmul(oracle.matmul(oracle.transpose(g), j, m),
                                g, m)
            assert lhs == oracle.reduce_mod(j, m)


def test_corrupted_golden_digest_is_reported(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(run, "GOLDEN", str(golden))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    argv = ["--workload", "forms-cli", "--seed", "4", "--seconds", "0"]
    assert run.main(argv + ["--record-golden"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert "status=unrecorded" in first[-2]
    assert run.main(argv) == 0
    assert "status=match" in capsys.readouterr().out.splitlines()[-2]
    data = json.loads(golden.read_text())
    digest = data["forms-cli"]["4"]["sha256"]
    data["forms-cli"]["4"]["sha256"] = ("0" if digest[0] != "0" else "1") \
        + digest[1:]
    golden.write_text(json.dumps(data))
    assert run.main(argv) == 0
    captured = capsys.readouterr()
    assert "status=mismatch" in captured.out.splitlines()[-2]
    assert "golden digest mismatch" in captured.err
    result = json.loads(captured.out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_tracer_wraps_every_binding_and_restores(decompose_calls):
    api = workloads.load_api()
    orig = api.words.evaluate
    t = tracer.Tracer()
    t.install(api)
    try:
        assert api.words.evaluate is not orig
        for mod in (api.decompose, api.rewrite, api.bridge, api.suites):
            assert mod.evaluate is api.words.evaluate
        assert api.suites.SUITES["decompose"].__wrapped__ is not None
    finally:
        t.uninstall()
    for mod in (api.words, api.decompose, api.rewrite, api.bridge):
        assert mod.evaluate is orig


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    api = workloads.load_api()
    produced = tracer.per_layer(tracer.Tracer(), 1, 1, 0.0,
                                api.suites.SUITE_NAMES)
    assert set(produced) == declared


def test_replay_reruns_one_call(tmp_path, capsys):
    assert run.replay("verify-battery", 2, 5, str(tmp_path)) == 0
    assert "replay ok" in capsys.readouterr().out


def _synthetic_run(phases):
    """A Run over two calls of 1 ms and 4 ms, with calibration 0.2 ms, in
    phases of (passes, machine slowdown, program slowdown)."""
    r = run.Run("synthetic", 0, [None, None], None)
    t = 0.0
    for passes, machine, program in phases:
        for _ in range(passes):
            for index, base in enumerate((0.001, 0.004)):
                r.cal_at.append(t)
                r.cal.append(0.0002 * machine)
                t += 0.0002 * machine
                dt = base * machine * program
                r.samples.append((index, t, dt, len(r.cal)))
                t += dt
    return r


def test_machine_slowdown_cancels_but_program_slowdown_shows():
    unit = run.CAL_REF_MS / 1000.0 / 0.0002
    steady = _synthetic_run([(20, 1.0, 1.0), (20, 1.8, 1.0)])
    assert steady.latencies() == pytest.approx([0.001 * unit, 0.004 * unit])
    slower = _synthetic_run([(20, 1.0, 1.5), (20, 1.8, 1.5)])
    assert slower.latencies() == pytest.approx(
        [0.0015 * unit, 0.006 * unit])
