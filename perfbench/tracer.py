"""Span tracer that wraps trimtest's public functions from outside.

Nothing inside the package changes: `install` replaces each traced function
in every trimtest module namespace that binds it (so
`trimtest.mc_oracle.bootstrap_pipeline` is wrapped as well as
`trimtest.bootstrap.bootstrap_pipeline`), and `uninstall` puts the
originals back.  Each call records a span (name, start, end, parent,
thread).  Spans started on a worker thread with no open span of their own
take the innermost open span of the installing thread as parent, so
bootstrap draws run under `--threads 2` still nest under the pipeline span
that started them.  tracemalloc runs only inside the wrappers marked
`memory`, never elsewhere.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def _on_pipeline(tr, args, kwargs, result):
    tr.counts["bootstrap.draws"] += result.iterations
    tr.counts["bootstrap.failed_draws"] += result.n_failed


def _on_resample(tr, args, kwargs, result):
    tr.counts["dataset.resample_rows"] += result.n_rows


def _on_design(tr, args, kwargs, result):
    tr.counts["regress.design_cols"] = max(tr.counts["regress.design_cols"], result[0].shape[1])


def _on_write(tr, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.counts["csvio.bytes_written"] += len(text.encode("utf-8"))


# (module, attribute, span name, options).  A "factory" returns a closure
# that is itself traced under the span name; a "memory" span measures its
# tracemalloc peak.
TARGETS = (
    ("trimtest.analysis", "run_analysis", "analysis.run", {}),
    ("trimtest.analysis", "write_outputs", "csvio.write", {}),
    ("trimtest.csvio", "load_csv", "csvio.load", {}),
    ("trimtest.csvio", "atomic_write_text", "csvio.atomic_write", {"on_exit": _on_write}),
    ("trimtest.plotgrid", "emit_plot_grid", "plotgrid.emit", {}),
    ("trimtest.bootstrap", "bootstrap_pipeline", "bootstrap.pipeline", {"on_exit": _on_pipeline}),
    ("trimtest.bootstrap", "draw_rng", "bootstrap.rng", {}),
    ("trimtest.bootstrap", "multinomial_counts", "bootstrap.rng", {}),
    ("trimtest.bootstrap", "multiplier_weights", "bootstrap.rng", {}),
    ("trimtest.dataset", "PanelDataset.take_rows", "dataset.resample", {"on_exit": _on_resample}),
    ("trimtest.dataset", "PanelDataset.take_clusters", "dataset.resample", {"on_exit": _on_resample}),
    ("trimtest.dataset", "add_within_cluster_lags", "dataset.lags", {}),
    ("trimtest.estimators", "lstat_pair_estimator", "estimators.call", {"factory": True}),
    ("trimtest.estimators", "regression_comparison_estimator", "estimators.call", {"factory": True}),
    ("trimtest.weights", "compute_weights", "weights.compute", {}),
    ("trimtest.regress", "fit_model", "regress.fit", {}),
    ("trimtest.regress", "build_design", "regress.design", {"on_exit": _on_design}),
    ("trimtest.lstat", "lstat_eval", "lstat.eval", {}),
    ("trimtest.lstat", "analytic_cov", "lstat.analytic_cov", {"memory": True}),
    ("trimtest.robustness", "robustness_test", "robustness.test", {"memory": True}),
    ("trimtest.robustness", "critical_value", "robustness.critical_value", {}),
    ("trimtest.robustness", "formal_p_value", "robustness.p_value", {}),
    ("trimtest.mc_oracle", "simulate", "mc_oracle.simulate", {}),
    ("trimtest.mc_oracle", "residual_trim_size_analysis", "mc_oracle.rep", {"factory": True}),
)


class Tracer:
    """Collects spans and counts for one operation at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict = defaultdict(float)
        self.peaks: defaultdict = defaultdict(float)
        self.present: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_exit=None, memory: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            stack.append(sid)
            started_here = memory and not tracemalloc.is_tracing()
            if started_here:
                tracemalloc.start()
            elif memory:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    if started_here:
                        tracemalloc.stop()
                    with tracer._lock:
                        tracer.peaks[name] = max(tracer.peaks[name], peak)
                with tracer._lock:
                    tracer.spans.append(Span(sid, name, t0, t1, parent, threading.get_ident()))
            if on_exit is not None:
                with tracer._lock:
                    on_exit(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _factory(self, name: str, factory):
        tracer = self

        def make(*args, **kwargs):
            return tracer.wrap(name, factory(*args, **kwargs))

        make.__wrapped__ = factory
        return make

    def install(self) -> None:
        """Wrap every target in every trimtest namespace that binds it."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "trimtest" or n.startswith("trimtest.")]
        for module_name, attr, span_name, opts in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                continue
            self.present.add(span_name)
            if opts.get("factory"):
                wrapper = self._factory(span_name, original)
            else:
                wrapper = self.wrap(span_name, original, opts.get("on_exit"), opts.get("memory", False))
            if owner_name:
                self._bind(owner, fn_name, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._bind(ns, key, original, wrapper)

    def _bind(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- aggregation ------------------------------------------------------

    def _totals(self) -> "_Totals":
        """Per span name: summed duration, call count, and summed self time.

        Self time is a span's duration minus the union of its children's
        intervals, so overlapping children on two threads count once.
        """
        total: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        children: defaultdict = defaultdict(list)
        for s in self.spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        self_time: defaultdict = defaultdict(float)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(s.sid, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            self_time[s.name] += (s.end - s.start) - covered
        return _Totals(total, calls, self_time, self.counts, self.peaks)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the operation traced since the last reset.

        A metric whose function no longer exists in the package is left
        out rather than reported as zero.
        """
        t = self._totals()
        return {name: float(fn(t, span)) for name, _, span, fn in METRICS if span in self.present}


@dataclass(frozen=True)
class _Totals:
    total: dict
    calls: dict
    self_time: dict
    counts: dict
    peaks: dict


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _total(t, span):
    return t.total[span]


def _self(t, span):
    return t.self_time[span]


def _per_call_us(t, span):
    return 1e6 * _ratio(t.total[span], t.calls[span])


def _calls(t, span):
    return t.calls[span]


def _peak_mb(t, span):
    return t.peaks[span] / 2**20


def _count(key):
    return lambda t, span: t.counts[key]


# (metric, unit, span it is computed from, fn(totals, span)).  A metric
# whose span has no function left to wrap is absent from the output.
METRICS = (
    ("bootstrap.pipeline_s", "s", "bootstrap.pipeline", _total),
    ("bootstrap.self_s", "s", "bootstrap.pipeline", _self),
    ("bootstrap.draws_per_s", "1/s", "bootstrap.pipeline",
     lambda t, span: _ratio(t.counts["bootstrap.draws"], t.total[span])),
    ("bootstrap.rng_us", "us", "bootstrap.rng",
     lambda t, span: 1e6 * _ratio(t.total[span], t.counts["bootstrap.draws"])),
    ("bootstrap.draws", "count", "bootstrap.pipeline", _count("bootstrap.draws")),
    ("bootstrap.failed_draws", "count", "bootstrap.pipeline", _count("bootstrap.failed_draws")),
    ("bootstrap.ok_ratio", "ratio", "bootstrap.pipeline",
     lambda t, span: 1.0 - _ratio(t.counts["bootstrap.failed_draws"], t.counts["bootstrap.draws"])),
    ("dataset.resample_us", "us", "dataset.resample", _per_call_us),
    ("dataset.resample_rows", "count", "dataset.resample", _count("dataset.resample_rows")),
    ("dataset.lags_s", "s", "dataset.lags", _total),
    ("estimators.call_us", "us", "estimators.call", _per_call_us),
    ("estimators.calls", "count", "estimators.call", _calls),
    ("weights.compute_us", "us", "weights.compute", _per_call_us),
    ("weights.calls", "count", "weights.compute", _calls),
    ("regress.fit_us", "us", "regress.fit", _per_call_us),
    ("regress.design_us", "us", "regress.design", _per_call_us),
    ("regress.fits", "count", "regress.fit", _calls),
    ("regress.design_cols", "count", "regress.design", _count("regress.design_cols")),
    ("lstat.eval_us", "us", "lstat.eval", _per_call_us),
    ("lstat.analytic_cov_s", "s", "lstat.analytic_cov", _total),
    ("lstat.analytic_cov_peak_mb", "MB", "lstat.analytic_cov", _peak_mb),
    ("robustness.test_s", "s", "robustness.test", _total),
    ("robustness.critical_value_s", "s", "robustness.critical_value", _total),
    ("robustness.p_value_s", "s", "robustness.p_value", _total),
    ("robustness.calls", "count", "robustness.test", _calls),
    ("robustness.peak_mb", "MB", "robustness.test", _peak_mb),
    ("csvio.load_s", "s", "csvio.load", _total),
    ("csvio.write_s", "s", "csvio.write", _total),
    ("csvio.bytes_written", "count", "csvio.atomic_write", _count("csvio.bytes_written")),
    ("plotgrid.emit_s", "s", "plotgrid.emit", _total),
    ("mc_oracle.simulate_s", "s", "mc_oracle.simulate", _total),
    ("mc_oracle.rep_s", "s", "mc_oracle.rep", lambda t, span: _ratio(t.total[span], t.calls[span])),
    ("mc_oracle.reps", "count", "mc_oracle.rep", _calls),
    ("analysis.self_s", "s", "analysis.run", _self),
)
UNITS = {name: unit for name, unit, _, _ in METRICS}


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric across operations."""
    keys = per_op[0].keys() if per_op else ()
    return {k: statistics.median(op[k] for op in per_op) for k in keys}
