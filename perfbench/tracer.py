"""Per-layer tracing for the traced benchmark run.

Wrappers are installed from outside the library, around the public
functions of each layer (the modules of the elemcalc package). A
wrapped function is replaced at every module binding that refers to it,
because several modules import `evaluate`, `pfaffian` and friends into
their own namespaces. Methods are replaced on their class.

Three wrapper kinds keep the cost bounded:

* span: records name, start, end, parent span and call index;
* aggregate: hot ring and matrix methods, timed and counted, no record;
* count: the hottest ring methods, counted only.

Spans are kept in memory (for the first traced pass only, to bound
memory) and written out by the caller at exit. A layer's self time is
the time of its wrapped functions minus the time of wrapped children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# Comparisons and evaluations made by a verifying layer count as its
# verification time.
_VERIFY_NAMES = frozenset(("words.evaluate", "matrices.eq"))
_VERIFYING_LAYERS = frozenset(("decompose", "rewrite", "bridge"))

# (module, attribute, name, layer, kind); an attribute "Class.method"
# patches the class.
TARGETS = (
    ("rings", "ZmodRing.p_mul", "rings.zmod_mul", "rings", "count"),
    ("rings", "PolyRing.p_mul", "rings.poly_mul", "rings", "aggregate"),
    ("rings", "PolyRing.p_substitute", "rings.poly_substitute", "rings",
     "aggregate"),
    ("rings", "CertifiedElement.scale", "rings.cert", "rings", "count"),
    ("rings", "CertifiedElement.__add__", "rings.cert", "rings", "count"),
    ("matrices", "ExactMatrix.__mul__", "matrices.mul", "matrices",
     "aggregate"),
    ("matrices", "ExactMatrix.__eq__", "matrices.eq", "matrices",
     "aggregate"),
    ("matrices", "ExactMatrix.first_mismatch", "matrices.eq", "matrices",
     "aggregate"),
    ("matrices", "pfaffian", "matrices.pfaffian", "matrices", "span"),
    ("matrices", "det", "matrices.det", "matrices", "span"),
    ("matrices", "adjugate_inverse", "matrices.adjugate_inverse",
     "matrices", "span"),
    ("matrices", "kernel_decomposition", "matrices.kernel_decomposition",
     "matrices", "span"),
    ("matrices", "is_symplectic", "matrices.is_symplectic", "matrices",
     "span"),
    ("words", "evaluate", "words.evaluate", "words", "span"),
    ("words", "check_relation", "words.check_relation", "words", "span"),
    ("words", "expand_rho", "words.expand", "words", "span"),
    ("words", "expand_mu", "words.expand", "words", "span"),
    ("decompose", "decompose_conjugate", "decompose.conjugate",
     "decompose", "span"),
    ("decompose", "short_root_pair", "decompose.lemma", "decompose", "span"),
    ("decompose", "long_root_pair", "decompose.lemma", "decompose", "span"),
    ("decompose", "long_root_reduce", "decompose.lemma", "decompose",
     "span"),
    ("decompose", "short_root_split", "decompose.lemma", "decompose",
     "span"),
    ("decompose", "long_root_unimodular", "decompose.lemma", "decompose",
     "span"),
    ("decompose", "sum_to_product", "decompose.sum_to_product", "decompose",
     "span"),
    ("decompose", "sym_outer", "decompose.closed_form", "decompose",
     "span"),
    ("decompose", "pair_outer", "decompose.closed_form", "decompose",
     "span"),
    ("rewrite", "rewrite_conjugation_linear", "rewrite.rewrite", "rewrite",
     "span"),
    ("rewrite", "rewrite_conjugation_symplectic", "rewrite.rewrite",
     "rewrite", "span"),
    ("rewrite", "specialize_and_check", "rewrite.specialize", "rewrite",
     "span"),
    ("rewrite", "include_I2_linear", "rewrite.include", "rewrite", "span"),
    ("rewrite", "include_I2_symplectic", "rewrite.include", "rewrite",
     "span"),
    ("bridge", "AlternatingForm.__init__", "bridge.form_ctor", "bridge",
     "span"),
    ("bridge", "standardize_alternating", "bridge.standardize", "bridge",
     "span"),
    ("bridge", "etranssp_word_to_ESp1", "bridge.expand", "bridge", "span"),
    ("bridge", "etrans_word_to_E1", "bridge.expand", "bridge", "span"),
    ("bridge", "ESp1_to_etranssp", "bridge.group", "bridge", "span"),
    ("bridge", "E1_to_etrans", "bridge.group", "bridge", "span"),
    ("bridge", "rho_matrix", "bridge.block", "bridge", "span"),
    ("bridge", "mu_matrix", "bridge.block", "bridge", "span"),
    ("bridge", "transport_conjugation", "bridge.transport", "bridge",
     "span"),
    ("jsonio", "loads", "jsonio.parse", "jsonio", "span"),
    ("jsonio", "ring_from_json", "jsonio.parse", "jsonio", "span"),
    ("jsonio", "ideal_from_json", "jsonio.parse", "jsonio", "span"),
    ("jsonio", "certified_from_json", "jsonio.parse", "jsonio", "span"),
    ("jsonio", "matrix_from_json", "jsonio.parse", "jsonio", "span"),
    ("jsonio", "word_from_json", "jsonio.parse", "jsonio", "span"),
    ("jsonio", "dumps", "jsonio.emit", "jsonio", "span"),
    ("jsonio", "word_to_json", "jsonio.emit", "jsonio", "span"),
    ("jsonio", "matrix_to_json", "jsonio.emit", "jsonio", "span"),
    ("jsonio", "decomposition_to_json", "jsonio.emit", "jsonio", "span"),
    ("jsonio", "rewrite_to_json", "jsonio.emit", "jsonio", "span"),
    ("jsonio", "standardization_to_json", "jsonio.emit", "jsonio", "span"),
    ("cli", "main", "cli.request", "cli", "span"),
    ("cli", "cmd_decompose", "cli.command", "cli", "span"),
    ("cli", "cmd_rewrite", "cli.command", "cli", "span"),
    ("cli", "cmd_pfaffian", "cli.command", "cli", "span"),
    ("cli", "cmd_standardize", "cli.command", "cli", "span"),
    ("cli", "cmd_expand", "cli.command", "cli", "span"),
)

LAYERS = ("rings", "matrices", "words", "decompose", "rewrite", "bridge",
          "jsonio", "cli", "suites")


class _Frame:
    __slots__ = ("name", "layer", "child", "span_id")

    def __init__(self, name, layer, span_id):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Span stack, counters and in-memory span records."""

    def __init__(self):
        self.active = False
        self.recording = True
        self.call_index = -1
        self.stack = []
        self.spans = []
        self.next_id = 0
        self.count = Counter()      # calls per name
        self.incl = Counter()       # outermost inclusive seconds per name
        self.self_time = Counter()  # seconds per layer
        self.verify = Counter()     # verification seconds per layer
        self.layer_incl = Counter()  # outermost inclusive seconds per layer
        self.extra = Counter()      # letters and bytes
        self._depth = Counter()      # open spans per name and per layer
        self._patched = []           # (owner, attribute, original)
        self._suites = []            # (SUITES table, name, original)

    # -- recording ---------------------------------------------------------

    def enter(self, name, layer):
        self.count[name] += 1
        self._depth[name] += 1
        self._depth[layer] += 1
        span_id = self.next_id
        self.next_id += 1
        frame = _Frame(name, layer, span_id)
        self.stack.append(frame)
        return frame

    def leave(self, frame, t0, t1, record):
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        parent = stack[-1] if stack else None
        self.self_time[frame.layer] += dur - frame.child
        if parent is not None:
            parent.child += dur
            if (frame.name in _VERIFY_NAMES
                    and parent.layer in _VERIFYING_LAYERS):
                self.verify[parent.layer] += dur
        depth = self._depth
        depth[frame.name] -= 1
        if depth[frame.name] == 0:
            self.incl[frame.name] += dur
        depth[frame.layer] -= 1
        if depth[frame.layer] == 0:
            self.layer_incl[frame.layer] += dur
        if record and self.recording:
            self.spans.append((frame.span_id,
                               None if parent is None else parent.span_id,
                               self.call_index, frame.name, frame.layer,
                               t0, t1))

    def root(self, index, fn):
        """Run one top-level benchmark call inside a root span."""
        self.call_index = index
        self.active = True
        frame = self.enter("bench.call", "bench")
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.leave(frame, t0, t1, True)
            self.active = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, layer, kind):
        tracer = self
        if kind == "count":
            count = self.count

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    count[name] += 1
                return fn(*args, **kwargs)
            return counted

        record = kind == "span"
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame, t0, perf_counter(), record)
            if extra is not None:
                extra(tracer, args, result)
            return result
        return timed

    def install(self, api):
        """Wrap every target at every binding in the elemcalc modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "elemcalc" or n.startswith("elemcalc.")]
        for modname, attr, name, layer, kind in TARGETS:
            owner = getattr(api, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name, layer, kind))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, layer, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        suites = api.suites.SUITES
        for suite, fn in list(suites.items()):
            self._suites.append((suites, suite, fn))
            suites[suite] = self._wrap(fn, "suites." + suite, "suites",
                                       "span")

    def _set(self, owner, key, value):
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        for table, key, orig in self._suites:
            table[key] = orig
        self._patched = []
        self._suites = []


def _count_letters(tracer, args, result):
    tracer.extra["words.evaluate.letters"] += len(args[0].letters)


def _rewrite_letters(tracer, args, result):
    if tracer._depth["rewrite.rewrite"] == 0:
        tracer.extra["rewrite.letters_out"] += len(result.output.letters)


def _bytes_out(tracer, args, result):
    if isinstance(result, str):
        tracer.extra["jsonio.bytes_out"] += len(result.encode("utf-8"))


def _matmul(tracer, args, result):
    if type(args[1]).__name__ == "ExactMatrix":
        tracer.extra["matrices.matmul.calls"] += 1


# Extra counts taken from a wrapped call's arguments or result.
_EXTRA = {
    "words.evaluate": _count_letters,
    "rewrite.rewrite": _rewrite_letters,
    "jsonio.emit": _bytes_out,
    "matrices.mul": _matmul,
}


# ---------------------------------------------------------------------------
# metrics


def _ms(seconds, passes):
    return seconds * 1000.0 / passes


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer, passes, calls_per_pass, overhead, suite_names):
    """Per-layer metrics as {name: (value, unit)}, totals per pass."""
    c, inc, st = tracer.count, tracer.incl, tracer.self_time
    x = tracer.extra
    ms = lambda s: _ms(s, passes)
    per = lambda n: n / passes
    evals = c["words.evaluate"]
    out = {
        "rings.zmod_mul.calls": (per(c["rings.zmod_mul"]), "count"),
        "rings.poly_mul.calls": (per(c["rings.poly_mul"]), "count"),
        "rings.poly_mul.ms": (ms(inc["rings.poly_mul"]), "ms"),
        "rings.poly_substitute.ms": (ms(inc["rings.poly_substitute"]), "ms"),
        "rings.cert.ops": (per(c["rings.cert"]), "count"),
        "matrices.matmul.calls": (per(x["matrices.matmul.calls"]), "count"),
        "matrices.matmul.ms": (ms(inc["matrices.mul"]), "ms"),
        "matrices.pfaffian.ms": (ms(inc["matrices.pfaffian"]), "ms"),
        "matrices.det.ms": (ms(inc["matrices.det"]), "ms"),
        "matrices.eq.calls": (per(c["matrices.eq"]), "count"),
        "words.evaluate.calls": (per(evals), "count"),
        "words.evaluate.ms": (ms(inc["words.evaluate"]), "ms"),
        "words.evaluate.letters": (per(x["words.evaluate.letters"]), "count"),
        "words.evaluate.per_call": (evals / passes / calls_per_pass, "count"),
        "decompose.lemma.calls": (per(c["decompose.lemma"]
                                      + c["decompose.sum_to_product"]),
                                  "count"),
        "decompose.sum_to_product.ms": (ms(inc["decompose.sum_to_product"]),
                                        "ms"),
        "decompose.closed_form.ms": (ms(inc["decompose.closed_form"]), "ms"),
        "decompose.verify_share": (_share(tracer.verify["decompose"],
                                          tracer.layer_incl["decompose"]),
                                   "frac"),
        "rewrite.specialize.ms": (ms(inc["rewrite.specialize"]), "ms"),
        "rewrite.letters_out": (per(x["rewrite.letters_out"]), "count"),
        "rewrite.verify_share": (_share(tracer.verify["rewrite"],
                                        tracer.layer_incl["rewrite"]),
                                 "frac"),
        "bridge.standardize.ms": (ms(inc["bridge.standardize"]), "ms"),
        "bridge.form_ctor.ms": (ms(inc["bridge.form_ctor"]), "ms"),
        "bridge.expand.ms": (ms(inc["bridge.expand"]), "ms"),
        "bridge.group.ms": (ms(inc["bridge.group"]), "ms"),
        "bridge.verify_share": (_share(tracer.verify["bridge"],
                                       tracer.layer_incl["bridge"]), "frac"),
        "jsonio.parse.ms": (ms(inc["jsonio.parse"]), "ms"),
        "jsonio.emit.ms": (ms(inc["jsonio.emit"]), "ms"),
        "jsonio.bytes_out": (per(x["jsonio.bytes_out"]), "B"),
        "cli.request.self_ms": (ms(st["cli"]), "ms"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in LAYERS:
        if layer != "cli":
            out[layer + ".self_ms"] = (ms(st[layer]), "ms")
    out["bench.self_ms"] = (ms(st["bench"]), "ms")
    for suite in suite_names:
        trials = c["suites." + suite]
        out["suites.%s.ms_per_trial" % suite] = (
            inc["suites." + suite] * 1000.0 / trials if trials else 0.0,
            "ms")
    return out
