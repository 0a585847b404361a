"""Check that a test notices when a sole exact check stops comparing.

Usage, from the root of a checkout (standard library and pytest only):

    python3 scripts/mutants.py

decompose_conjugate and the rewriter's _finish each compare their whole
output once with an independently evaluated target,
standardize_alternating checks its working form and its recorded word
once each, kernel_decomposition checks its payload reconstruction of c,
the bridge's _checked_block checks that a transvection matrix preserves
the extended form, and transport_conjugation checks that the
transported letter reproduces the conjugate; no inner check backs any
of these seven up. A site is the one check
call inside its function that raises the site's message. For each site
the script copies src/, tests/ and pyproject.toml into a temporary
directory, runs the site's test file there once unchanged, then rewrites
the call into its first argument, check_evaluation(w, want, what) into
evaluate(w), which returns the same matrix without comparing, and
check_equal(a, b, what) into a, and runs the test file again with -x.
The mutant is killed when a test fails. One line per site reads "killed"
or "survived"; the exit status is 1 when a mutant survives, and 2 when
the unchanged copy does not pass or a site is not found.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# module under src/elemcalc, the function holding the check, the check's
# message, test file
SITES = (
    ("decompose.py", "decompose_conjugate",
     "decomposition does not reproduce the conjugate",
     "tests/test_decompose.py"),
    ("rewrite.py", "_finish", "derived word fails the exact comparison",
     "tests/test_rewrite.py"),
    ("bridge.py", "standardize_alternating",
     "working form did not reach the standard form", "tests/test_bridge.py"),
    ("bridge.py", "standardize_alternating",
     "recorded word does not reconstruct the input form",
     "tests/test_bridge.py"),
    ("matrices.py", "kernel_decomposition", "kernel reconstruction failed",
     "tests/test_matrices.py"),
    ("bridge.py", "_checked_block",
     "transvection matrix does not preserve the extended form",
     "tests/test_bridge.py"),
    ("bridge.py", "transport_conjugation",
     "transported letter does not reproduce the conjugate",
     "tests/test_bridge.py"),
)

# what each check becomes, given the source of its first argument
MUTANTS = {"check_evaluation": "evaluate(%s)", "check_equal": "(%s)"}


def mutate(source, function, message):
    """source with the one check call inside function that raises message
    rewritten into its first argument."""
    tree = ast.parse(source)
    funcs = [n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name == function]
    calls = [n for f in funcs for n in ast.walk(f)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id in MUTANTS and n.args
             and isinstance(n.args[-1], ast.Constant)
             and n.args[-1].value == message]
    if len(calls) != 1:
        raise LookupError("%s holds %d checks raising %r, not one"
                          % (function, len(calls), message))
    call = calls[0]
    # ast offsets count UTF-8 bytes from the start of their line
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[call.lineno - 1] + call.col_offset
    end = starts[call.end_lineno - 1] + call.end_col_offset
    arg = ast.get_source_segment(source, call.args[0])
    out = (data[:begin] + (MUTANTS[call.func.id] % arg).encode()
           + data[end:]).decode()
    ast.parse(out)
    return out


def run_tests(tree, test_file):
    """pytest's exit status for test_file, run in tree with -x."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", test_file],
        cwd=tree, env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check_site(module, function, message, test_file):
    """'killed' or 'survived' for the site's mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        path = os.path.join(tree, "src", "elemcalc", module)
        with open(path) as f:
            mutated = mutate(f.read(), function, message)
        if run_tests(tree, test_file) != 0:
            raise RuntimeError("%s fails before any mutation" % test_file)
        with open(path, "w") as f:
            f.write(mutated)
        return "killed" if run_tests(tree, test_file) == 1 else "survived"


def main():
    survived = 0
    for module, function, message, test_file in SITES:
        site = "%s %s (%s)" % (module, function, message)
        try:
            verdict = check_site(module, function, message, test_file)
        except (LookupError, RuntimeError) as err:
            print("%s: %s" % (site, err))
            return 2
        survived += verdict == "survived"
        print("%s: %s" % (site, verdict), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
