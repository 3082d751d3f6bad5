"""symguide benchmark: closed-loop workloads, correctness gates, traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload guided-gmm --seed 1 --seconds 30 --trace 0

--workload is one of guided-gmm, ablate-n, adjoint-mlp, or `all`, which
runs the three in turn in this one process.  Every run derives its inputs
from --seed, checks the program's outputs, prints its metrics by name and
unit, and ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the exit code is 0 only when every gate passed.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json for
--seconds of closed-loop ops.  --trace 1 runs a fixed number of ops per
workload twice, untraced and then traced, so that every count repeats
exactly; it checks that both passes give bitwise identical outputs and that
the traced call counts equal the `calls/op:` counts stated in
BENCHMARK.json, then adds a tracemalloc pass over the backward solvers and
reports the per-layer metrics.  Spans are written to
.bench_build/perfbench/spans-<workload>-seed<seed>.csv.
"""

from __future__ import annotations

import os

# One process with one compute thread: pin BLAS/OpenMP before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 11
WORKLOAD_NAMES = ("guided-gmm", "ablate-n", "adjoint-mlp")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def expected_calls(bench: dict, workload: str) -> dict[str, int]:
    """The `calls/op: name=count ...` counts stated in the workload's why."""
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
    match = re.search(r"calls/op: (.*)$", why)
    if match is None:
        return {}
    return {k: int(v) for k, v in re.findall(r"([A-Za-z_]+)=(\d+)", match.group(1))}


def env_fingerprint() -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    try:
        toplevel, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(toplevel).resolve() == ROOT:  # not some enclosing repository
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Import plus workload set-up, timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up of {workload} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class Tally:
    """Ops attempted and failed, with the first failures' details."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.extend(errors)

    def run(self, wl, op_seed: int) -> tuple[str | None, float | None]:
        """One op: its output digest (None if it failed) and its latency in ms."""
        try:
            start = time.perf_counter_ns()
            result = wl.op(op_seed)
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
            errors, digest = wl.outcome(result)
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            self.record([f"op seed {op_seed} raised:\n{traceback.format_exc()}"])
            return None, None
        self.record(errors)
        return (None if errors else digest), elapsed_ms


def run_timed(workloads, name: str, seed: int, seconds: float, tally: Tally) -> dict:
    import reference

    setup_s = statistics.median(setup_probe_seconds(name, seed) for _ in range(SETUP_PROBES))
    wl = workloads.build(name, ROOT, seed, SCRATCH)
    kernel = reference.KERNELS[wl.reference]
    try:
        seeds = workloads.op_seeds(seed)
        first_seed = next(seeds)
        first_digest, _ = tally.run(wl, first_seed)
        for _ in range(wl.warmup_ops - 1):
            tally.run(wl, next(seeds))
            reference.time_burst(kernel, wl.reference_calls)
        latencies: list[float] = []
        costs: list[float] = []
        ref_before = reference.time_burst(kernel, wl.reference_calls)
        timed_ops = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or timed_ops < wl.min_ops:
            timed_ops += 1
            _, elapsed_ms = tally.run(wl, next(seeds))
            ref_after = reference.time_burst(kernel, wl.reference_calls)
            if elapsed_ms is not None:
                latencies.append(elapsed_ms)
                costs.append(2.0 * elapsed_ms / (ref_before + ref_after))
            ref_before = ref_after
        # Run-level gates, outside the timed region.
        rerun, _ = tally.run(wl, first_seed)
        tally.record([] if rerun is not None and rerun == first_digest
                   else [f"seed {first_seed} re-run is not bitwise identical"])
        tally.record(wl.run_gates(first_seed))
    finally:
        wl.close()
    if not latencies:
        fail(f"{name}: every timed op failed")
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    p10, p50, tail = q[9], q[49], q[wl.tail_percentile - 1]
    cost_p50 = statistics.median(costs)
    ops_per_s = len(latencies) / (sum(latencies) / 1e3)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit, scale = wl.op_unit, (1.0 if wl.op_unit == "ms" else 1e-3)
    print(f"{name}: {len(latencies)} timed ops in {sum(latencies) / 1e3:.1f} s, "
          f"failed {tally.failed}/{tally.attempted}")
    for metric, value, metric_unit in [
        (f"{wl.op_label}_vs_ref_p50", cost_p50, "ratio"),
        (f"{wl.op_label}_{unit}_p10", p10 * scale, unit),
        (f"{wl.op_label}_{unit}_p50", p50 * scale, unit),
        (f"{wl.op_label}_{unit}_p{wl.tail_percentile}", tail * scale, unit),
        (f"{wl.op_label}s_per_s", ops_per_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("failed_frac", tally.failed / tally.attempted, "frac"),
        ("peak_rss_mib", rss_mib, "MiB"),
    ]:
        print(f"  {metric:<18} {value:.6g} {metric_unit}")
    return {"op_vs_ref_p50": cost_p50, "setup_s": setup_s, "peak_rss_mib": rss_mib}


def run_traced(workloads, name: str, seed: int, bench: dict, tally: Tally) -> dict:
    import tracing
    from memory import memory_metrics

    wl = workloads.build(name, ROOT, seed, SCRATCH)
    tracer = tracing.Tracer()
    try:
        stream = workloads.op_seeds(seed)
        seeds = [next(stream) for _ in range(wl.trace_ops)]
        for _ in range(wl.warmup_ops):
            tally.run(wl, next(stream))
        plain = [tally.run(wl, s) for s in seeds]
        traced = []
        with tracing.installed(tracer), wl.traced(tracer):
            for s in seeds:
                tracer.begin_op()
                traced.append(tally.run(wl, s))
    finally:
        wl.close()
    for s, (a, _), (b, _) in zip(seeds, plain, traced):
        tally.record([] if a is not None and a == b
                   else [f"seed {s}: traced output differs from untraced output"])

    ops = tracer.ops
    summary = tracer.summary()
    metrics: dict[str, float] = {}
    for metric in (m["name"] for m in bench["per_layer"]):
        layer, _, field = metric.rpartition(".")
        if layer in tracing.SPAN_NAMES and field in ("calls", "ms", "self_ms"):
            metrics[metric] = summary.get(layer, {}).get(field, 0) / ops
    eps = summary.get("models.eps", {"calls": 0, "ms": 0.0})
    subs = summary.get("estimator.make_sub_schedule", {"calls": 0})
    flops = getattr(wl, "flops_per_eps", 0)
    metrics.update({
        "models.eps.repeat_frac": tracer.eps_repeats / eps["calls"] if eps["calls"] else 0.0,
        "estimator.make_sub_schedule.repeat_frac":
            tracer.sub_repeats / subs["calls"] if subs["calls"] else 0.0,
        "models.eps.gflops_computed": eps["calls"] * flops / (eps["ms"] * 1e6) if eps["ms"] else 0.0,
        "harness.report_write.bytes": tracer.report_bytes / ops,
        "harness.diverged_rows": tracer.diverged_rows / ops,
        "trace.overhead_frac": _median_ms(traced) / _median_ms(plain) - 1.0,
    })

    want = expected_calls(bench, name)
    for short, count in want.items():
        span = tracing.SHORT_NAMES[short]
        got = summary.get(span, {}).get("calls", 0)
        tally.record([] if got == count * ops
                   else [f"{span}: {got / ops:g} calls/op, BENCHMARK.json states {count}"])

    cell = workloads.AdjointMlp(ROOT, seed, SCRATCH)
    metrics.update(memory_metrics(cell.model, cell.schedule, cell.t, seed))
    tracer.write_spans(SCRATCH / f"spans-{name}-seed{seed}.csv")

    print(f"{name}: traced {ops} ops ({len(tracer.spans)} spans), failed {tally.failed}/{tally.attempted}")
    print("  calls/op " + " ".join(
        f"{s.split('.', 1)[1]}={summary[s]['calls'] / ops:g}" for s in sorted(summary)))
    return metrics


def _median_ms(results: list[tuple[str | None, float | None]]) -> float:
    return statistics.median(ms for _, ms in results if ms is not None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symguide" / "__init__.py").is_file():
        fail(f"no symguide sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        start = time.perf_counter()
        import workloads

        workloads.build(args.workload, ROOT, args.seed, SCRATCH).close()
        print(time.perf_counter() - start)
        return 0

    bench = load_benchmark()
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    print("env " + json.dumps(env_fingerprint(), sort_keys=True))
    tallies = []
    metrics: dict[str, dict] = {}
    for name in names:
        tally = Tally()
        tallies.append(tally)
        if args.trace:
            values = run_traced(workloads, name, args.seed, bench, tally)
        else:
            values = run_timed(workloads, name, args.seed, args.seconds, tally)
        prefix = f"{name}." if len(names) > 1 else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for error in (e for t in tallies for e in t.errors):
        print(f"FAILED: {error}", file=sys.stderr)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": sum(t.attempted for t in tallies),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
