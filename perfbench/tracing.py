"""Spans, samples and counts recorded from outside the program, for the traced run.

``Tracer.install`` replaces the public functions named in ``SPANS`` by
wrappers in every ``quasihopf`` module namespace that binds them (``cli``
and ``double`` bind their own ``verify_axioms``, for example).
``uninstall`` puts the originals back.  Each wrapped call becomes a span:
name, start, end, parent span and op id.  Spans are kept in memory and
written out by ``write``.  Metrics are computed over the spans under chosen
root spans, so the benchmark can keep the calls it accepts apart from the
mutants it rejects.

There are two kinds of tracer, each for its own op:

* A timing tracer (``Tracer(op)``) takes its times from sampling: a
  wall-clock timer interrupts the process every ``SAMPLE_S``.  A sample
  whose innermost frame is tracer code is set aside as overhead; one inside
  a ``quasihopf.exactnum`` frame (below the nearest wrapper) counts to
  ``exactnum``; any other counts to the self time of the innermost open
  span.  A span's inclusive time is its own samples plus those of its
  descendants.  ``math.gcd`` called inside ``Scalar`` counts to
  ``exactnum``, called from ``multilinear`` to ``multilinear``.  This
  tracer wraps nothing that runs more than a few thousand times per op,
  so its overhead stays out of the layers' times.
* A memory tracer (``Tracer(op, memory=True)``) counts, in the innermost
  open span, every call of the arithmetic methods of ``Scalar``, every
  ``AlgebraContext`` built and every row that ``solve_constraints`` draws;
  there are millions of ``Scalar`` calls per op, and their wrappers double
  its time.  It also runs tracemalloc inside the outermost
  ``MEMORY_NAMES`` span only, and each of those spans records the highest
  traced allocation reached inside it, above the level at its start.
  Allocation tracing slows Python several times over as well.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import signal
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute) of each traced public function; a dotted attribute is
# a method, wrapped on its class.
SPANS = (
    ("quasihopf.multilinear", "mult_pointwise"),
    ("quasihopf.multilinear", "apply_on_leg"),
    ("quasihopf.multilinear", "solve_constraints"),
    ("quasihopf.multilinear", "invert_operator"),
    ("quasihopf.expr", "Expression.evaluate"),
    ("quasihopf.canonical", "identity_suite"),
    ("quasihopf.canonical", "evaluate_identity"),
    ("quasihopf.canonical", "gamma_delta"),
    ("quasihopf.canonical", "drinfeld_twist"),
    ("quasihopf.canonical", "pq_elements"),
    ("quasihopf.canonical", "uv_elements"),
    ("quasihopf.qha", "verify_axioms"),
    ("quasihopf.qha", "load_and_validate"),
    ("quasihopf.intcoint", "integral_report"),
    ("quasihopf.intcoint", "compute_integral_data"),
    ("quasihopf.intcoint", "compute_cointegral_data"),
    ("quasihopf.double", "build_double"),
    ("quasihopf.double", "double_report"),
    ("quasihopf.double", "double_antipode_inverse"),
    ("quasihopf.workbench", "import_document"),
)
# Scalar methods counted as the exactnum layer.
SCALAR_METHODS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
                  "inverse", "conjugate")
# spans inside which a memory tracer runs tracemalloc
MEMORY_NAMES = ("expr.evaluate", "canonical.evaluate_identity")
CANONICAL_ELEMENTS = ("canonical.gamma_delta", "canonical.drinfeld_twist",
                      "canonical.pq_elements", "canonical.uv_elements")
IDENTITIES = ("normdefmodelem", "fvfformunim", "app2")
# Field names of a span record, in order; the two sample counts are turned
# into seconds by ``Tracer.seconds_per_sample``.
FIELDS = ("name", "label", "start", "end", "parent", "op", "self_samples",
          "exactnum_samples", "peak_alloc_bytes", "counts")
NAME, LABEL, START, END, PARENT, OP, SELF, EXACTNUM, PEAK, COUNTS = range(len(FIELDS))

SAMPLE_S = 0.001
MB = 1e6


def _layer_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class _Frame:
    __slots__ = ("span", "mem_start", "mem_peak", "counts", "samples", "exactnum")

    def __init__(self, span: int):
        self.span = span
        self.mem_start = self.mem_peak = 0
        self.counts: Counter = Counter()
        self.samples = 0
        self.exactnum = 0


class Tracer:
    def __init__(self, op: str, memory: bool = False):
        self.op = op
        self.memory = memory
        self.spans: list[list] = []
        self.samples = Counter()       # every sample, by where it landed
        self.seconds_per_sample = SAMPLE_S
        self._stack: list[_Frame] = []
        self._mem_stack: list[_Frame] = []     # open MEMORY_NAMES spans
        self._patches: list[tuple[object, str, object]] = []
        self._exactnum_file = ""
        self._started = 0.0
        self._previous_handler = None

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, label: str | None) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        span = len(self.spans)
        self.spans.append([name, label, time.perf_counter(), 0.0,
                           parent.span if parent else None, self.op, 0, 0, 0, {}])
        frame = _Frame(span)
        self._stack.append(frame)
        if self.memory and name in MEMORY_NAMES:
            outer = self._mem_stack[-1] if self._mem_stack else None
            if outer is None:
                tracemalloc.start()
            frame.mem_start, peak = tracemalloc.get_traced_memory()
            frame.mem_peak = frame.mem_start
            if outer is not None:
                outer.mem_peak = max(outer.mem_peak, peak)
            tracemalloc.reset_peak()
            self._mem_stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if self._mem_stack and self._mem_stack[-1] is frame:
            self._mem_stack.pop()
            frame.mem_peak = max(frame.mem_peak, tracemalloc.get_traced_memory()[1])
            if self._mem_stack:
                tracemalloc.reset_peak()
                outer = self._mem_stack[-1]
                outer.mem_peak = max(outer.mem_peak, frame.mem_peak)
            else:
                tracemalloc.stop()
        record = self.spans[frame.span]
        record[END] = end
        record[SELF], record[EXACTNUM] = frame.samples, frame.exactnum
        record[PEAK] = frame.mem_peak - frame.mem_start
        record[COUNTS] = dict(frame.counts)

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None):
        """A span opened by the benchmark itself, around one call."""
        frame = self._enter(name, label)
        try:
            yield
        finally:
            self._exit(frame)

    def _sample(self, signum, frame) -> None:
        """Charge one timer tick to the code that ``frame`` is running."""
        if not self._stack:
            self.samples["outside"] += 1
            return
        if frame.f_code.co_filename == __file__:
            self.samples["tracer"] += 1
            return
        top = self._stack[-1]
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename == self._exactnum_file:
                top.exactnum += 1
                self.samples["exactnum"] += 1
                return
            if filename == __file__:
                break
            frame = frame.f_back
        top.samples += 1
        self.samples["spans"] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        labelled = name == "canonical.evaluate_identity"      # label: identity name
        row_source = tracer.memory and name == "multilinear.solve_constraints"

        def counted(rows):
            for row in rows:
                tracer._stack[-1].counts["solve_constraints.rows"] += 1
                yield row

        def wrapper(*args, **kwargs):
            label = None
            if labelled:
                label = args[1] if len(args) > 1 else kwargs["name"]
            if row_source:                  # count the rows drawn
                args = (counted(args[0]), *args[1:])
            frame = tracer._enter(name, label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scalar(self, key: str, fn):
        """Count every call made inside a span, in the innermost one."""
        stack = self._stack

        def wrapper(*args):
            if stack:
                stack[-1].counts[key] += 1
            return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quasihopf" or n.startswith("quasihopf.")]
        for module_name, attr in SPANS:
            owner = importlib.import_module(module_name)
            name = _layer_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        from quasihopf import context, exactnum
        if not self.memory:
            self._exactnum_file = exactnum.__file__
            self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
            self._started = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
            return
        for meth in SCALAR_METHODS:
            key = "exactnum.add_calls" if meth in ("__add__", "__sub__") else (
                "exactnum.mul_calls" if meth == "__mul__" else f"exactnum.{meth}")
            self._patch(exactnum.Scalar, meth,
                        self._wrap_scalar(key, getattr(exactnum.Scalar, meth)))
        original_init = context.AlgebraContext.__init__

        def counted_init(ctx, *args, **kwargs):
            if self._stack:
                self._stack[-1].counts["context.contexts_built"] += 1
            original_init(ctx, *args, **kwargs)
        self._patch(context.AlgebraContext, "__init__", counted_init)

    def uninstall(self) -> None:
        if not self.memory:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
            elapsed = time.perf_counter() - self._started
            self.seconds_per_sample = elapsed / max(1, sum(self.samples.values()))
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def under(self, roots) -> list[int]:
        """Indices of the spans whose outermost ancestor (or itself) is named in ``roots``."""
        roots, root_of, out = set(roots), [], []
        for index, record in enumerate(self.spans):
            parent = record[PARENT]
            root_of.append(index if parent is None else root_of[parent])
            if self.spans[root_of[-1]][NAME] in roots:
                out.append(index)
        return out

    def counts(self, roots) -> Counter:
        """Scalar, row and context counts summed over the spans under ``roots``."""
        total = Counter()
        for index in self.under(roots):
            total.update(self.spans[index][COUNTS])
        return total

    def inclusive_samples(self) -> list[int]:
        """Samples of each span and its descendants."""
        out = [r[SELF] + r[EXACTNUM] for r in self.spans]
        for index in range(len(self.spans) - 1, -1, -1):   # children follow parents
            parent = self.spans[index][PARENT]
            if parent is not None:
                out[parent] += out[index]
        return out

    def _outermost(self, spans: list[int], names) -> list[int]:
        """Spans of ``spans`` named in ``names`` with no ancestor named in ``names``."""
        names = set(names)
        out = []
        for index in spans:
            if self.spans[index][NAME] not in names:
                continue
            parent = self.spans[index][PARENT]
            while parent is not None and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent is None:
                out.append(index)
        return out

    def attributed_s(self, roots) -> float:
        """Time sampled in the spans under ``roots``, tracer code excluded."""
        return self.seconds_per_sample * sum(
            self.spans[i][SELF] + self.spans[i][EXACTNUM] for i in self.under(roots))

    def metrics(self, roots) -> dict[str, float]:
        """Per-layer times and span counts under ``roots``, from a timing tracer."""
        spans = self.under(roots)
        inclusive = self.inclusive_samples()
        scale = self.seconds_per_sample
        calls, self_s = Counter(), Counter()
        for index in spans:
            calls[self.spans[index][NAME]] += 1
            self_s[self.spans[index][NAME]] += self.spans[index][SELF] * scale

        def inclusive_s(*names: str) -> float:
            return scale * sum(inclusive[i] for i in self._outermost(spans, names))

        out = {"exactnum.self_s": scale * sum(self.spans[i][EXACTNUM] for i in spans)}
        for kernel in ("mult_pointwise", "apply_on_leg"):
            out[f"multilinear.{kernel}.calls"] = calls[f"multilinear.{kernel}"]
            out[f"multilinear.{kernel}.self_s"] = self_s[f"multilinear.{kernel}"]
        out["multilinear.solve_constraints.calls"] = calls["multilinear.solve_constraints"]
        out["multilinear.solve_constraints.s"] = inclusive_s("multilinear.solve_constraints")
        out["multilinear.invert_operator.calls"] = calls["multilinear.invert_operator"]
        out["multilinear.invert_operator.s"] = inclusive_s("multilinear.invert_operator")
        out["expr.evaluate.calls"] = calls["expr.evaluate"]
        out["expr.evaluate.self_s"] = self_s["expr.evaluate"]
        out["canonical.identity_suite.s"] = inclusive_s("canonical.identity_suite")
        out["canonical.elements.s"] = inclusive_s(*CANONICAL_ELEMENTS)
        for name in IDENTITIES:
            out[f"canonical.identity_s.{name}"] = scale * sum(
                inclusive[i] for i in spans
                if self.spans[i][NAME] == "canonical.evaluate_identity"
                and self.spans[i][LABEL] == name)
        out.update(self.validation_metrics(roots))
        for fn in ("integral_report", "compute_integral_data", "compute_cointegral_data"):
            out[f"intcoint.{fn}.s"] = inclusive_s(f"intcoint.{fn}")
        out["double.build_double.self_s"] = self_s["double.build_double"]
        out["double.double_report.self_s"] = self_s["double.double_report"]
        out["double.double_antipode_inverse.s"] = inclusive_s("double.double_antipode_inverse")
        return out

    def validation_metrics(self, roots, prefix: str = "") -> dict[str, float]:
        """Document import, validation and axiom checks under ``roots``."""
        spans = self.under(roots)
        inclusive = self.inclusive_samples()

        def inclusive_s(name: str) -> float:
            return self.seconds_per_sample * sum(
                inclusive[i] for i in self._outermost(spans, [name]))

        return {
            f"{prefix}qha.verify_axioms.calls": sum(
                self.spans[i][NAME] == "qha.verify_axioms" for i in spans),
            f"{prefix}qha.verify_axioms.s": inclusive_s("qha.verify_axioms"),
            f"{prefix}qha.load_and_validate.s": inclusive_s("qha.load_and_validate"),
            f"{prefix}workbench.import_document.s": inclusive_s("workbench.import_document"),
        }

    def memory_metrics(self, roots) -> dict[str, float]:
        """Call counts and allocation peaks under ``roots``, from a memory tracer."""
        spans = [self.spans[i] for i in self.under(roots)]
        counts = self.counts(roots)
        out = {
            "exactnum.mul_calls": counts["exactnum.mul_calls"],
            "exactnum.add_calls": counts["exactnum.add_calls"],
            "multilinear.solve_constraints.rows": counts["solve_constraints.rows"],
            "context.contexts_built": counts["context.contexts_built"],
            "expr.peak_alloc_mb": max(
                (r[PEAK] for r in spans if r[NAME] == "expr.evaluate"), default=0) / MB,
        }
        for name in IDENTITIES:
            out[f"canonical.identity_peak_mb.{name}"] = max(
                (r[PEAK] for r in spans
                 if r[NAME] == "canonical.evaluate_identity" and r[LABEL] == name),
                default=0) / MB
        return out


def write(path: str, tracers: list[Tracer], extra: dict) -> None:
    """Write every span of ``tracers``, with each tracer's samples, as JSON.

    A span's id is ``<op>/<index>``; its parent is another span's id or null.
    """
    spans = []
    for tracer in tracers:
        for index, record in enumerate(tracer.spans):
            span = dict(zip(FIELDS, record))
            span["id"] = f"{tracer.op}/{index}"
            if span["parent"] is not None:
                span["parent"] = f"{tracer.op}/{span['parent']}"
            spans.append(span)
    payload = dict(extra)
    payload["samples"] = {t.op: {"seconds_per_sample": t.seconds_per_sample,
                                 **t.samples} for t in tracers}
    payload["spans"] = spans
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
