"""Measure a change against its parent commit with the unchanged benchmark.

Examples, from the root of a checkout:

    python3 scripts/bench_pair.py --workload rewrite-deep --out BENCH_n.json
    python3 scripts/bench_pair.py --parent HEAD~1 --workload forms-cli \\
        --workload decompose-scale --pairs 5 --out BENCH_n.json

The parent revision (default HEAD) is exported with `git archive` into a
temporary directory, so its committed files are measured exactly and the
repository gains no worktree record; the change is the working tree.
Both sides are byte-compiled first (`python3 -m compileall`), then each
runs its own `perfbench/run.py --trace 0`, one run at a time, for
BENCHMARK.json's run_seconds. Pair k uses seed k mod 10 on both sides,
and the side that runs first alternates from pair to pair, so a slow
spell of the machine does not favour one side. After the pairs, each
side makes one more run of the workload, at seed 0 with --trace 1, for
the per-layer counts in TRACE_COUNTS; a count is exact per pass, so one
run per side is enough to compare them.

The output file keeps, per workload: every run's end-to-end metrics,
output digest ("sha256"), golden-digest status and oracle verdict
("correct"), each side's set of golden statuses and of oracle verdicts,
whether both sides gave one and the same digest on each seed the pairs
ran ("digests"), each side's median and quartiles per metric, how many
pairs each side won (better as BENCHMARK.json defines it; ties count
for neither), and each side's traced counts ("trace_counts"). At its
top level it keeps each side's total line count of src/elemcalc/*.py
("src_lines"), the measure of ROADMAP aim 2 (the same results from
fewer lines). The
digest comparison does not read golden.json, so it still shows
byte-identical outputs when both sides read "mismatch". Each run writes
a fresh report; name every workload it should cover with a --workload
of its own.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-layer counts of the traced run, kept in the report: ring products,
# dense matrix-matrix products, the self-checks (every evaluate and
# matrix comparison), the rewriters' output letters and the decomposer's
# lemma calls
TRACE_COUNTS = ("rings.poly_mul.calls", "rings.zmod_mul.calls",
                "matrices.matmul.calls", "words.evaluate.calls",
                "matrices.eq.calls", "rewrite.letters_out",
                "decompose.lemma.calls")


def src_lines(root):
    """Total line count of root's src/elemcalc/*.py."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "elemcalc", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def export(rev, dest):
    """The committed files of rev, unpacked into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def compile_tree(root):
    """Byte-compile root's src and perfbench, so that neither side spends
    its runs compiling modules the other side reads from its cache;
    compileall writes .pyc files even under PYTHONDONTWRITEBYTECODE."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=root, check=True)


def run_once(root, workload, seed, seconds, trace=0):
    """One benchmark run in checkout root: (metrics, output digest,
    golden status, the oracle's verdict); per-layer metrics when trace
    is 1."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    golden = dict(f.split("=", 1) for f in lines[-2].split()[1:])
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics, golden["sha256"], golden["status"], result["correct"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare_digests(runs):
    """Per seed, whether every run of both sides gave the same output
    digest, and whether that holds on every seed."""
    digests = {}
    for run in runs:
        digests.setdefault(run["seed"], set()).add(run["sha256"])
    per_seed = {str(seed): len(found) == 1
                for seed, found in sorted(digests.items())}
    return {"equal": all(per_seed.values()), "per_seed": per_seed}


def summarize(runs, better):
    sides = {"parent": [], "change": []}
    for run in runs:
        sides[run["side"]].append(run)
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out = {}
    for name, direction in better.items():
        entry = {}
        for side, side_runs in sides.items():
            q1, med, q3 = quartiles([r["metrics"][name] for r in side_runs])
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        wins = {"change": 0, "parent": 0, "ties": 0}
        for pair in pairs.values():
            p, c = pair["parent"][name], pair["change"][name]
            if p == c:
                wins["ties"] += 1
            elif (c > p) == (direction == "higher"):
                wins["change"] += 1
            else:
                wins["parent"] += 1
        entry["wins"] = wins
        entry["better"] = direction
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to measure (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True,
                        help="report file, BENCH_<n>.json by convention")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent_rev = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout.strip()

    out_path = os.path.join(ROOT, args.out)
    report = {"workloads": {}}
    parent_dir = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        export(parent_rev, parent_dir)
        roots = {"parent": parent_dir, "change": ROOT}
        report["src_lines"] = {side: src_lines(root)
                               for side, root in roots.items()}
        for root in roots.values():
            compile_tree(root)
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                seed = k % 10
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                for position, side in enumerate(order):
                    metrics, digest, golden, correct = run_once(
                        roots[side], workload, seed, seconds)
                    runs.append({"pair": k, "seed": seed, "side": side,
                                 "order": position, "sha256": digest,
                                 "golden": golden, "correct": correct,
                                 "metrics": metrics})
                    print("%s pair %d seed %d %s: calls_per_s %.1f golden %s"
                          " correct %s" % (workload, k, seed, side,
                                           metrics["calls_per_s"], golden,
                                           correct), flush=True)
            trace_counts = {}
            for side, root in roots.items():
                metrics, digest, golden, correct = run_once(
                    root, workload, 0, seconds, trace=1)
                trace_counts[side] = dict(
                    {name: metrics[name] for name in TRACE_COUNTS},
                    sha256=digest, golden=golden, correct=correct)
                print("%s traced seed 0 %s: %s" % (
                    workload, side, trace_counts[side]), flush=True)
            digests = compare_digests(runs)
            print("%s digests equal on every seed: %s %s" % (
                workload, digests["equal"], digests["per_seed"]), flush=True)
            report["workloads"][workload] = {
                "parent": parent_rev, "change": "working tree",
                "seconds": seconds, "pairs": args.pairs,
                "golden": {side: sorted({r["golden"] for r in runs
                                         if r["side"] == side})
                           for side in roots},
                "correct": {side: sorted({r["correct"] for r in runs
                                          if r["side"] == side})
                            for side in roots},
                "digests": digests,
                "summary": summarize(runs, better),
                "trace_counts": trace_counts,
                "runs": runs,
            }
            with open(out_path, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
