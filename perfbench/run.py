"""elemcalc benchmark: seeded workloads, timed public calls, oracle checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --replay K

Workloads: verify-battery, decompose-scale, rewrite-deep, forms-cli (see
BENCHMARK.json for why each is there). One process and one thread run
a closed loop with a single caller: the next call goes out only when the
last one has returned. The workload's fixed list of calls is run in
whole passes until --seconds have elapsed, so every run sees the same
input mix. Only the public call is timed; its output is checked right
after, outside the timed region: by the independent oracle
(perfbench/oracle.py) on the first pass, and against the first pass's
digest on every later pass.

Times are normalized by the machine's speed. A short calibration loop
that never touches elemcalc runs before every call; a call's latency is
its time over the median calibration time around it, times the loop's
reference time CAL_REF_MS, so it reads in ms at the reference speed.
On a shared machine the speed swings by up to 1.8x over seconds and a
slow spell can cover a whole run; it slows the loop as much as the call,
while a change to elemcalc moves only the call.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes
for half the time, then installs the per-layer wrappers
(perfbench/tracer.py) for the rest, prints the per-layer metrics and the
tracing overhead, and writes the first traced pass's spans to
.bench_out/. The last line of standard output is always the JSON
result.

A failed call is reported with its workload, seed and call index;
--replay K reruns that call alone and checks it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

SETUP_REPEATS = 7
WARMUP_CALLS = 4
# Latencies are normalized by the machine's speed around each call (see
# `Run.speed`), with CAL_REF_MS, the median time of `calibrate` in a
# quick spell on the reference machine (a 2-vCPU Intel Xeon VM), as the
# unit.
CAL_WINDOW = 8
CAL_REF_MS = 0.18
# calibration samples a set-up child takes before and after its set-up
SETUP_CAL = 10

sys.path.insert(0, HERE)
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class _Mod:
    """Residue mod 27 as a small object, like the library's elements."""
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Mod((self.v + other.v) % 27)

    def __mul__(self, other):
        return _Mod((self.v * other.v) % 27)


_CAL_MATRIX = tuple(tuple(_Mod((3 * i + 5 * j + 1) % 27) for j in range(6))
                    for i in range(6))


def calibrate():
    """Fixed pure-Python work that never touches elemcalc: a product of
    6x6 matrices of residue objects and a dictionary of monomials.
    Its time measures the machine's speed, not the program's."""
    a = _CAL_MATRIX
    cols = tuple(zip(*a))
    rows = []
    for row in a:
        out = []
        for col in cols:
            acc = _Mod(0)
            for x, y in zip(row, col):
                acc = acc + x * y
            out.append(acc)
        rows.append(tuple(out))
    b = tuple(rows)
    terms = {}
    for i in range(120):
        key = (i % 7, i % 5)
        terms[key] = (terms.get(key, 0) + i * b[i % 6][i % 5].v) % 27
    return terms


def calibration_time():
    """Seconds one `calibrate` takes, with the collector off so that the
    program's heap does not change it."""
    gc.disable()
    try:
        t0 = perf_counter()
        calibrate()
        return perf_counter() - t0
    finally:
        gc.enable()


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Run:
    """Timings, failures and first-pass outputs of one benchmark run."""

    def __init__(self, workload, seed, calls, api):
        self.workload = workload
        self.seed = seed
        self.calls = calls
        self.api = api
        self.cal = []        # calibration times, in the order taken
        self.cal_at = []     # when each calibration started
        self.samples = []    # (call index, start, latency, len(self.cal))
        self.attempted = 0
        self.failures = []
        self.first = {}      # call index -> fingerprint of the response
        self.items = {}      # call index -> canonical oracle items
        self.letters = 0

    def fail(self, index, reason):
        self.failures.append((index, reason))
        sys.stderr.write(
            "FAILED workload=%s seed=%d call=%d (%s): %s\n"
            "  replay: python3 perfbench/run.py --workload %s --seed %d "
            "--replay %d\n" % (self.workload, self.seed, index,
                               self.calls[index].label, reason,
                               self.workload, self.seed, index))

    def check(self, index, raw):
        """Check one output; the first time by the oracle."""
        call = self.calls[index]
        try:
            fingerprint = sha256(canonical(call.respond(raw)))
            if index not in self.first:
                items, letters = check_items(self.api, call, raw, self.seed,
                                             index)
                self.letters += letters
                self.items[index] = items
                self.first[index] = fingerprint
            elif self.first[index] != fingerprint:
                raise oracle.OracleMismatch(
                    "output differs from the first pass")
        except Exception as e:  # any failure of a call counts against it
            self.fail(index, "%s: %s" % (type(e).__name__, e))

    def one_pass(self, tracer=None):
        work = 0.0
        for index, call in enumerate(self.calls):
            self.attempted += 1
            self.cal_at.append(perf_counter())
            self.cal.append(calibration_time())
            t0 = perf_counter()
            try:
                if tracer is None:
                    raw = call.run()
                else:
                    raw = tracer.root(index, call.run)
            except Exception as e:  # a raising call is a failed call
                raw, error = None, e
            else:
                error = None
            dt = perf_counter() - t0
            work += dt
            self.samples.append((index, t0, dt, len(self.cal)))
            if error is not None:
                self.fail(index, "raised %s: %s" % (type(error).__name__,
                                                     error))
            else:
                self.check(index, raw)
        return work

    def passes(self, seconds, between=None):
        """Untraced whole passes until `seconds` of wall time have gone by;
        `between` runs after each pass."""
        start = perf_counter()
        works = []
        while True:
            works.append(self.one_pass())
            if between is not None:
                between()
            if perf_counter() - start >= seconds:
                return works

    def speed(self, k, t0, dt):
        """Median calibration time around the call that started at t0,
        took dt and followed cal[k - 1]: every sample taken within dt of
        the call on either side, and at least CAL_WINDOW on each side."""
        lo = min(bisect.bisect_left(self.cal_at, t0 - dt, 0, k),
                 max(0, k - CAL_WINDOW))
        hi = max(bisect.bisect_right(self.cal_at, t0 + 2 * dt, k),
                 k + CAL_WINDOW)
        return statistics.median(self.cal[lo:hi])

    def normalized(self):
        """(call index, normalized latency in s) of every sample so far."""
        return [(index, dt / self.speed(k, t0, dt) * CAL_REF_MS / 1000.0)
                for index, t0, dt, k in self.samples]

    def pass_work(self):
        """Normalized time of the calls of each pass so far, in order."""
        n = len(self.calls)
        norm = [t for _, t in self.normalized()]
        return [sum(norm[i:i + n]) for i in range(0, len(norm), n)]

    def latencies(self):
        """Each call's median normalized latency over the passes, in s."""
        per_call = {}
        for index, t in self.normalized():
            per_call.setdefault(index, []).append(t)
        return [statistics.median(v) for v in per_call.values()]

    def digest(self):
        items = [self.items[i] for i in sorted(self.items)]
        return sha256(canonical(items))


def check_items(api, call, raw, seed, index):
    """Oracle-check one call's output; returns (canonical items, letters)."""
    if call.kind == "suite":
        items = workloads.capture(api, call)
    else:
        items = [(call.kind, call.request, call.respond(raw))]
    rng = random.Random("%d:%d" % (seed, index))
    letters = 0
    for kind, req, resp in items:
        letters += oracle.check(kind, req, resp, rng)
    return [[kind, resp] for kind, req, resp in items], letters


def setup(workload, seed, workdir):
    """Import the package, build the inputs and warm up; timed."""
    t0 = perf_counter()
    api = workloads.load_api()
    if not os.path.abspath(api.rings.__file__).startswith(SRC + os.sep):
        raise ImportError("elemcalc was not imported from %s" % SRC)
    calls = workloads.WORKLOADS[workload](api, seed, workdir)
    # the first calls by label, not by run order, which may follow the
    # seed: set-up then does the same work whatever the seed
    for call in sorted(calls, key=lambda c: c.label)[:WARMUP_CALLS]:
        try:
            call.run()
        except Exception:  # failures are reported by the measured passes
            pass
    return api, calls, perf_counter() - t0


def setup_time(workload, seed):
    """Set-up time of a fresh interpreter: a real first import, input
    generation and warm-up, normalized by the speed the child measured
    around it. The caller waits for the child to end."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def measure(run, seconds):
    """Untraced passes, with one set-up child after each of the first
    SETUP_REPEATS passes.

    A set-up takes a tenth of a second and the machine's speed drifts
    over seconds, so set-ups taken back to back all see one phase of the
    drift; spread over the run, their median sees several.
    """
    setups = []

    def between():
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_time(run.workload, run.seed))

    run.passes(seconds, between)
    while len(setups) < SETUP_REPEATS:
        between()
    return setups


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def golden_status(golden, workload, seed, digest, letters):
    """Compare a run's digest with the recorded one for its seed."""
    rec = golden.get(workload, {}).get(str(seed))
    if rec is None:
        return "unrecorded"
    if rec["sha256"] != digest or rec["letters_out"] != letters:
        return "mismatch"
    return "match"


def load_golden():
    try:
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_golden(workload, seed, digest, letters):
    golden = load_golden()
    golden.setdefault(workload, {})[str(seed)] = {
        "sha256": digest, "letters_out": letters}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def end_to_end(run, setups):
    # Each call's time over the speed of the machine around it, as a
    # median over the run's passes, in ms of the reference machine.
    lat = run.latencies()
    failed = len(run.failures)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "calls_per_s": (len(lat) / sum(lat), "1/s"),
        "call_ms.p50": (quantile(lat, 50) * 1000.0, "ms"),
        "call_ms.p90": (quantile(lat, 90) * 1000.0, "ms"),
        "ok_frac": ((run.attempted - failed) / run.attempted, "frac"),
        "letters_out": (run.letters, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced(run, seconds):
    """Untraced passes, then traced passes; per-layer metrics."""
    plain = run.passes(seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install(run.api)
    try:
        works = [run.one_pass(tracer)]
        tracer.recording = False
        deadline = perf_counter() + seconds / 2.0 - works[0]
        while perf_counter() < deadline:
            works.append(run.one_pass(tracer))
    finally:
        tracer.uninstall()
    # normalized work of each pass, untraced ones first
    norm = run.pass_work()
    overhead = (statistics.median(norm[len(plain):])
                / statistics.median(norm[:len(plain)]) - 1.0)
    metrics = tracing.per_layer(tracer, len(works), len(run.calls), overhead,
                                run.api.suites.SUITE_NAMES)
    path = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (run.workload,
                                                        run.seed))
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return metrics


def replay(workload, seed, index, workdir):
    api, calls, _ = setup(workload, seed, workdir)
    if not 0 <= index < len(calls):
        sys.stderr.write("call index out of range 0..%d\n" % (len(calls) - 1))
        return 2
    run = Run(workload, seed, calls, api)
    call = calls[index]
    try:
        raw = call.run()
    except Exception as e:  # report, like the measured loop
        run.fail(index, "raised %s: %s" % (type(e).__name__, e))
        return 1
    run.check(index, raw)
    if run.failures:
        return 1
    print("replay ok workload=%s seed=%d call=%d (%s) letters=%d"
          % (workload, seed, index, call.label, run.letters))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, metavar="K",
                   help="rerun call K of the workload alone and check it")
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's output digest in golden.json")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the seconds it took and exit")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "elemcalc", "__init__.py")):
        sys.stderr.write("error: no elemcalc sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.replay is not None:
            return replay(args.workload, args.seed, args.replay, workdir)
        if args.setup_only:
            cal = [calibration_time() for _ in range(SETUP_CAL)]
            seconds = setup(args.workload, args.seed, workdir)[2]
            cal += [calibration_time() for _ in range(SETUP_CAL)]
            print(repr(seconds / statistics.median(cal) * CAL_REF_MS
                       / 1000.0))
            return 0
        api, calls, _ = setup(args.workload, args.seed, workdir)
        run = Run(args.workload, args.seed, calls, api)
        if args.trace:
            metrics = traced(run, args.seconds)
        else:
            metrics = end_to_end(run, measure(run, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = run.digest()
    status = golden_status(load_golden(), args.workload, args.seed, digest,
                           run.letters)
    if args.record_golden:
        record_golden(args.workload, args.seed, digest, run.letters)
    print("golden workload=%s seed=%d sha256=%s letters_out=%d status=%s"
          % (args.workload, args.seed, digest, run.letters, status))
    if status == "mismatch":
        sys.stderr.write("golden digest mismatch for workload=%s seed=%d\n"
                         % (args.workload, args.seed))
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
