"""Span tracing of symguide's layers, installed from outside the package.

A `Tracer` records one span (name, start, end, parent, op id) around each
layer call.  It wraps the public functions at every module attribute a
caller resolves them through (for example both `symguide.guidance` and
`symguide.estimator` hold `estimate_clean`), wraps the score model and the
guidance loss in delegating proxies, and restores every attribute on exit.
Spans stay in memory until `write_spans` is called at the end of a run.

Self time of a span is its duration minus the time its child spans cover.
Calls run on one thread, so child spans never overlap and that cover is
the sum of their durations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from symguide import adjoint, cli, estimator, guidance, harness, models
import symguide

# (module, attribute, span name) of every traced public function.
TRACED_FUNCTIONS = [
    (guidance, "sag_sample", "guidance.sag_sample"),
    (guidance, "ddim_step", "guidance.ddim_step"),
    (estimator, "make_sub_schedule", "estimator.make_sub_schedule"),
    (estimator, "estimate_clean", "estimator.estimate_clean"),
    (estimator, "estimation_error_curve", "estimator.estimation_error_curve"),
    (adjoint, "symplectic_euler_grad", "adjoint.symplectic_euler_grad"),
    (adjoint, "direct_backprop_grad", "adjoint.direct_backprop_grad"),
    (adjoint, "vanilla_adjoint_grad", "adjoint.vanilla_adjoint_grad"),
    (adjoint, "estimate_clean_rk", "adjoint.estimate_clean_rk"),
    (adjoint, "symplectic_rk_grad", "adjoint.symplectic_rk_grad"),
    (adjoint, "rk_direct_backprop_grad", "adjoint.rk_direct_backprop_grad"),
    (harness, "run_ablation_n", "harness.run_ablation_n"),
]

# Every module through which a caller can resolve a traced function.
_CALLER_MODULES = [symguide, estimator, adjoint, guidance, harness, cli]

MODEL_METHODS = ("eps", "vjp", "jvp", "eps_with_tape", "vjp_from_tape")

SPAN_NAMES = (
    [name for _, _, name in TRACED_FUNCTIONS]
    + ["guidance.loss", "harness.report_write"]
    + [f"models.{m}" for m in MODEL_METHODS]
)
# Span names without their layer, as the `calls/op:` counts in BENCHMARK.json use them.
SHORT_NAMES = {name.split(".", 1)[1]: name for name in SPAN_NAMES}


class Tracer:
    """In-memory span recorder plus the waste counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, op
        self._stack: list[int] = []
        self.ops = 0
        self._eps_seen: set = set()
        self.eps_repeats = 0
        self._sub_seen: set = set()
        self.sub_repeats = 0
        self.report_bytes = 0
        self.diverged_rows = 0

    def begin_op(self) -> None:
        self.ops += 1
        self._eps_seen = set()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0, 0, parent, self.ops - 1))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.ops - 1)

    def note_eps(self, x_bar, sigma) -> None:
        key = (np.asarray(x_bar, dtype=np.float64).tobytes(), float(sigma))
        if key in self._eps_seen:
            self.eps_repeats += 1
        else:
            self._eps_seen.add(key)

    def note_sub_schedule(self, t, n) -> None:
        key = (int(t), int(n))
        if key in self._sub_seen:
            self.sub_repeats += 1
        else:
            self._sub_seen.add(key)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms, summed over the pass."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            s["calls"] += 1
            s["ms"] += (end - start) / 1e6
            s["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV line per span; parent is the row index of the parent span or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,op,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{op},{parent},{name},{start},{end}\n")


class TracedModel(models.ScoreModel):
    """Delegating ScoreModel proxy: spans every model call, forwards the rest.

    Attributes the proxy does not define (dim, sample_marginal, widths, ...)
    resolve on the wrapped model, so callers that probe the model with
    hasattr see exactly what they would see unwrapped.
    """

    def __init__(self, inner: models.ScoreModel, tracer: Tracer) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name: str):
        if name in ("_inner", "_tracer"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def eps(self, x_bar, sigma):
        out = self._tracer.call("models.eps", self._inner.eps, x_bar, sigma)
        self._tracer.note_eps(x_bar, sigma)
        return out

    def vjp(self, x_bar, sigma, v):
        return self._tracer.call("models.vjp", self._inner.vjp, x_bar, sigma, v)

    def jvp(self, x_bar, sigma, v):
        return self._tracer.call("models.jvp", self._inner.jvp, x_bar, sigma, v)

    def eps_with_tape(self, x_bar, sigma):
        return self._tracer.call("models.eps_with_tape", self._inner.eps_with_tape, x_bar, sigma)

    def vjp_from_tape(self, tape, v):
        return self._tracer.call("models.vjp_from_tape", self._inner.vjp_from_tape, tape, v)


class TracedLoss(guidance.GuidanceLoss):
    """Delegating GuidanceLoss proxy: value and grad are `guidance.loss` spans."""

    def __init__(self, inner: guidance.GuidanceLoss, tracer: Tracer) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name: str):
        if name in ("_inner", "_tracer"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def value(self, x0):
        return self._tracer.call("guidance.loss", self._inner.value, x0)

    def grad(self, x0):
        return self._tracer.call("guidance.loss", self._inner.grad, x0)


def _span_wrapper(tracer: Tracer, name: str, fn):
    if name == "estimator.make_sub_schedule":
        def wrapped(schedule, t, n):
            out = tracer.call(name, fn, schedule, t, n)
            tracer.note_sub_schedule(t, n)
            return out
    elif name == "harness.run_ablation_n":
        def wrapped(*args, **kwargs):
            report = tracer.call(name, fn, *args, **kwargs)
            tracer.diverged_rows += sum(1 for row in report.rows if row["diverged"])
            return report
    else:
        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
    return wrapped


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced entry point for the duration of the block.

    Besides the module attributes this covers the CLI's runner table (which
    holds the function object itself), ExperimentReport.write, and the
    harness model and loss builders, whose results are wrapped in proxies.
    """
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, attr, name in TRACED_FUNCTIONS:
            original = getattr(module, attr)
            wrapped = _span_wrapper(tracer, name, original)
            for caller in _CALLER_MODULES:
                if getattr(caller, attr, None) is original:
                    patch(caller, attr, wrapped)
            for key, runner in list(cli._RUNNERS.items()):
                if runner is original:
                    saved.append((cli._RUNNERS, key, runner))
                    cli._RUNNERS[key] = wrapped

        original_write = harness.ExperimentReport.write

        def traced_write(report, out_dir):
            paths = tracer.call("harness.report_write", original_write, report, out_dir)
            tracer.report_bytes += sum(p.stat().st_size for p in paths.values())
            return paths

        patch(harness.ExperimentReport, "write", traced_write)
        build_model, build_loss = harness.build_model, harness.build_loss
        patch(harness, "build_model", lambda spec: TracedModel(build_model(spec), tracer))
        patch(harness, "build_loss", lambda spec: TracedLoss(build_loss(spec), tracer))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
