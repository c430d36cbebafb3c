"""Outside-in tracing of kdeform's layers for the benchmark's traced run.

The tracer replaces public functions and methods of the ``kdeform`` modules
with timing wrappers while it is installed, and restores the originals when
it is removed; nothing inside ``src/`` is edited.  Every wrapped function
keeps an aggregated counter: calls, self time (its own wall time minus that
of wrapped callees) and inclusive time (outermost calls only, so recursion
is not counted twice).  A few layers add work counters: term pairs tried and
terms kept by a product, and the distinct words seen by a memoized word map.

The coarse functions (checks, constructors, ``twist_hopf``, ``schouten``) also
record a span each, with its parent, so a slow check can be traced to its
calls.  Ring and rewriting calls run hundreds of thousands of times per pass,
so they get counters only.
"""

from __future__ import annotations

import contextlib
import sys
import time

from kdeform import hopf, model, ncalg, report, rmatrix, scalar, series, twist


class Stat:
    """Aggregated counters of one wrapped function."""

    __slots__ = ("calls", "self_s", "incl_s", "depth", "pairs", "kept",
                 "seen", "max_len")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.pairs = 0
        self.kept = 0
        self.seen = set()
        self.max_len = 0

    def value(self, field):
        if field == "kept_frac":
            return self.kept / self.pairs if self.pairs else 0.0
        if field == "words":
            return len(self.seen)
        if field == "hit_frac":
            return 1.0 - len(self.seen) / self.calls if self.calls else 0.0
        return getattr(self, field)


# --- work counters, called with the wrapped call's arguments and result --------


def _term_pairs(stat, args, result):
    """Term pairs tried by a sparse product, and the terms the result kept."""
    a, b = args
    if result is NotImplemented:
        return
    n_b = len(b.terms) if type(b) is type(a) else 1
    stat.pairs += len(a.terms) * n_b
    stat.kept += len(result.terms)


def _word_seen(stat, args, result):
    """Distinct (owner, word) pairs reaching a memoized word map."""
    word = tuple(args[1])
    stat.seen.add((args[0], word))
    if len(word) > stat.max_len:
        stat.max_len = len(word)


# (module, class or None, attributes, stat name, counter hook, span)
TARGETS = (
    (scalar, "GaussianRational", ("__mul__", "__rmul__"),
     "scalar.GaussianRational.mul", None, False),
    (scalar, "GaussianRational", ("__add__", "__radd__"),
     "scalar.GaussianRational.add", None, False),
    (scalar, "Scalar", ("__mul__", "__rmul__"), "scalar.Scalar.mul",
     _term_pairs, False),
    (scalar, "Scalar", ("__add__",), "scalar.Scalar.add", None, False),
    (ncalg, "Presentation", ("normalize_word",), "ncalg.normalize_word",
     _word_seen, False),
    # the element classes' __rmul__ calls back into __mul__
    (ncalg, "AlgElement", ("__mul__",), "ncalg.AlgElement.mul", None, False),
    (hopf, "TensorElement", ("__mul__",), "hopf.TensorElement.mul",
     _term_pairs, False),
    (hopf, "TensorElement", ("merge_legs",), "hopf.TensorElement.merge_legs",
     None, False),
    (hopf, "HopfData", ("cop_word",), "hopf.HopfData.cop_word",
     _word_seen, False),
    (hopf, "HopfData", ("antipode_word",), "hopf.HopfData.antipode_word",
     _word_seen, False),
    (hopf, "HopfData", ("apply_cop_leg",), "hopf.HopfData.apply_cop_leg",
     None, False),
    (hopf, "HopfData", ("apply_antipode_leg",),
     "hopf.HopfData.apply_antipode_leg", None, False),
    (hopf, "HopfData", ("apply_counit_leg",), "hopf.HopfData.apply_counit_leg",
     None, False),
    (series, None, ("exp_nilpotent",), "series.exp_nilpotent", None, False),
    (series, None, ("unital_log",), "series.unital_log", None, False),
    (series, None, ("unital_inverse",), "series.unital_inverse", None, False),
    (series, None, ("unital_sqrt",), "series.unital_sqrt", None, False),
    (rmatrix, None, ("schouten",), "rmatrix.schouten", None, True),
    (rmatrix, None, ("ybe_classify",), "rmatrix.ybe_classify", None, True),
    (rmatrix, None, ("build_r",), "rmatrix.build_r", None, True),
    (rmatrix, None, ("schouten_identity_check",),
     "rmatrix.schouten_identity_check", None, True),
    (twist, None, ("build_twist",), "twist.build_twist", None, True),
    (twist, None, ("cocycle_check",), "twist.cocycle_check", None, True),
    (twist, None, ("twist_hopf",), "twist.twist_hopf", None, True),
    (model, "Model", ("__init__",), "model.Model.init", None, True),
    (model, None, ("change_basis",), "model.change_basis", None, True),
    (model, None, ("hopf_axiom_check",), "model.hopf_axiom_check", None, True),
    (model, None, ("reality_check",), "model.reality_check", None, True),
    (model, None, ("casimir_check",), "model.casimir_check", None, True),
    (report, "Report", ("to_json",), "report.Report.to_json", None, False),
)

class Tracer:
    """Installs the wrappers in TARGETS; use as a context manager."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self._child_time = []   # one accumulator per active wrapped call
        self._open_spans = []   # indices into self.spans
        self._saved = []        # (owner, attribute, original)
        self._t0 = time.perf_counter()

    def __enter__(self):
        for module, cls, attrs, name, hook, span in TARGETS:
            stat = self.stats.setdefault(name, Stat())
            owner = getattr(module, cls) if cls else module
            for attr in attrs:
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, stat, hook, span)
                if cls:
                    self._patch(owner, attr, wrapper)
                else:
                    # a module function is also bound by name in every
                    # module that imported it
                    for mod in list(sys.modules.values()):
                        if (getattr(mod, "__name__", "").startswith("kdeform")
                                and mod.__dict__.get(attr) is original):
                            self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, stat, hook, span):
        clock = time.perf_counter
        child_time = self._child_time
        tracer = self

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            child_time.append(0.0)
            if span:
                tracer._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if span:
                    tracer._close()
                stat.self_s += dt - child_time.pop()
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += dt
                if child_time:
                    child_time[-1] += dt
            if hook is not None:
                hook(stat, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name):
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(len(self.spans))
        self.spans.append({"name": name, "parent": parent,
                           "start": time.perf_counter() - self._t0, "end": None})

    def _close(self):
        self.spans[self._open_spans.pop()]["end"] = time.perf_counter() - self._t0

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one workload item."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def value(self, metric):
        stat, field = metric.rsplit(".", 1)
        return self.stats[stat].value(field)
