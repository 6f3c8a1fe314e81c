"""Span tracing of cerm's layers, applied from outside the package.

``Tracer.install`` wraps the public functions of each cerm module, plus the
distributions' ``sample`` methods, and rebinds every name in the cerm modules
that refers to an original, so calls between modules go through the
wrappers too.  ``uninstall`` restores the originals, so an untraced
repetition runs exactly the package's own code.

Spans are kept in memory.  A span's parent is the innermost open span of its
own thread.  A span that opens on another thread with nothing open there
(a harness pool worker) takes as parent the innermost open span of the
thread that installed the tracer, so the two pool threads' spans never nest
into each other and still count as children of ``run_experiment``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time

#: Modules whose public functions are wrapped, in dependency order.
MODULES = ("synthdist", "projections", "losses", "hypotheses", "riskbounds", "ensemble", "harness")

#: Private functions wrapped as well.  ``_run_trial`` is the unit of work the
#: harness schedules; its span gives each trial one root on its thread.
PRIVATE = {"harness": ("_run_trial",)}

SURROGATE = "hypotheses.erm_surrogate_classification"
EXACT = "hypotheses.erm_exact_classification"
REGRESSION = "hypotheses.erm_regression"

#: Per-layer metric name -> unit.  Every traced run reports all of them.
LAYER_METRICS = {
    "synthdist.sample.calls": "count",
    "synthdist.sample.rows": "count",
    "synthdist.sample.s": "s",
    "synthdist.sample.repeat_frac": "fraction",
    "projections.sample_projection.calls": "count",
    "projections.apply.calls": "count",
    "projections.apply.rows": "count",
    "projections.apply.s": "s",
    "hypotheses.fit_surrogate.calls": "count",
    "hypotheses.fit_surrogate.s": "s",
    "hypotheses.fit_regression.calls": "count",
    "hypotheses.fit_regression.s": "s",
    "hypotheses.fit_exact.calls": "count",
    "hypotheses.fit_exact.s": "s",
    "hypotheses.fit_exact.hidden_calls": "count",
    "hypotheses.checkpoints": "count",
    "losses.eval_loss.calls": "count",
    "losses.eval_loss.s": "s",
    "ensemble.train_ensemble.self_s": "s",
    "ensemble.member_excess_risks.self_s": "s",
    "riskbounds.estimate_excess_risk.calls": "count",
    "riskbounds.estimate_excess_risk.self_s": "s",
    "riskbounds.estimate_compressibility.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "info")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.info = None


def _info(name, args, kwargs, result):
    """Per-call counts recorded at the layer boundary."""
    if name == "synthdist.sample":
        n, seed = (tuple(args[1:]) + (kwargs.get("n"), kwargs.get("seed")))[:2]
        return (int(n), int(seed))
    if name == "projections.apply":
        return len(args[1] if len(args) > 1 else kwargs["X"])
    if name == "ensemble.train_ensemble":
        return sum(len(r.objective_checkpoints or ()) for r in result.member_reports)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            elif stack is not tracer._root_stack and tracer._root_stack:
                parent = tracer._root_stack[-1].id
            else:
                parent = None
            span = Span(next(tracer._ids), parent, name, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span.info = _info(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap cerm's layers; the caller's thread becomes the root thread."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        cerm_modules = [mod for key, mod in sys.modules.items() if key == "cerm" or key.startswith("cerm.")]
        originals = {}
        for short in MODULES:
            mod = sys.modules[f"cerm.{short}"]
            names = list(getattr(mod, "__all__", ())) + list(PRIVATE.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
            if short == "synthdist":
                for cls in vars(mod).values():
                    if inspect.isclass(cls) and cls.__module__ == mod.__name__ and "sample" in vars(cls):
                        original = vars(cls)["sample"]
                        self._patches.append((cls, "sample", original))
                        setattr(cls, "sample", self._wrap("synthdist.sample", original))
        for mod in cerm_modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the spans recorded since the last reset.

        ``.s`` is the summed duration of a layer's spans; ``.self_s`` leaves
        out the part of each span that its child spans cover.
        """
        spans = self.spans
        by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def named(name):
            return [s for s in spans if s.name == name]

        def total(name):
            return float(sum(s.end - s.start for s in named(name)))

        def self_time(name):
            out = 0.0
            for s in named(name):
                covered, reach = 0.0, s.start
                for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                    lo, hi = max(c.start, reach), min(c.end, s.end)
                    if hi > lo:
                        covered += hi - lo
                        reach = hi
                out += (s.end - s.start) - covered
            return out

        def experiment_of(s):
            while s.parent is not None and s.name != "harness.run_experiment":
                s = by_id[s.parent]
            return s.id

        samples = named("synthdist.sample")
        seen, repeats = set(), 0
        for s in sorted(samples, key=lambda s: s.start):
            key = (experiment_of(s), s.info)
            repeats += key in seen
            seen.add(key)
        exact = named(EXACT)
        return {
            "synthdist.sample.calls": len(samples),
            "synthdist.sample.rows": sum(s.info[0] for s in samples if s.info),
            "synthdist.sample.s": total("synthdist.sample"),
            "synthdist.sample.repeat_frac": repeats / len(samples) if samples else 0.0,
            "projections.sample_projection.calls": len(named("projections.sample_projection")),
            "projections.apply.calls": len(named("projections.apply")),
            "projections.apply.rows": sum(s.info or 0 for s in named("projections.apply")),
            "projections.apply.s": total("projections.apply"),
            "hypotheses.fit_surrogate.calls": len(named(SURROGATE)),
            "hypotheses.fit_surrogate.s": total(SURROGATE),
            "hypotheses.fit_regression.calls": len(named(REGRESSION)),
            "hypotheses.fit_regression.s": total(REGRESSION),
            "hypotheses.fit_exact.calls": len(exact),
            "hypotheses.fit_exact.s": total(EXACT),
            "hypotheses.fit_exact.hidden_calls": sum(
                1 for s in exact if s.parent is not None and by_id[s.parent].name == SURROGATE
            ),
            "hypotheses.checkpoints": sum(s.info or 0 for s in named("ensemble.train_ensemble")),
            "losses.eval_loss.calls": len(named("losses.eval_loss")),
            "losses.eval_loss.s": total("losses.eval_loss"),
            "ensemble.train_ensemble.self_s": self_time("ensemble.train_ensemble"),
            "ensemble.member_excess_risks.self_s": self_time("ensemble.member_excess_risks"),
            "riskbounds.estimate_excess_risk.calls": len(named("riskbounds.estimate_excess_risk")),
            "riskbounds.estimate_excess_risk.self_s": self_time("riskbounds.estimate_excess_risk"),
            "riskbounds.estimate_compressibility.self_s": self_time("riskbounds.estimate_compressibility"),
            "harness.run_experiment.self_s": self_time("harness.run_experiment"),
        }


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median over repetitions; counts repeat exactly, so they stay whole."""
    out = {}
    for key in per_rep[0]:
        values = [rep[key] for rep in per_rep]
        out[key] = statistics.median(values) if LAYER_METRICS[key] == "s" else statistics.median_low(values)
    return out
