"""Timed passes, output checks, end-to-end metrics and the run record.

A pass runs every case of a workload once, in a fixed order.  Passes
repeat until the next one would end after ``seconds``; at least one pass
runs, and a traced run alternates untraced and traced passes (at least one
of each), so that the tracing overhead is measured on the same process.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

import tracing

END_TO_END = {
    "wall_s": ("s", "lower"),
    "case_geomean_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


@dataclass
class Pass:
    traced: bool
    case_seconds: list
    outputs: list
    tracer: tracing.Tracer | None = None

    @property
    def wall(self):
        return sum(self.case_seconds)


@dataclass
class Measurement:
    workload: object
    passes: list = field(default_factory=list)
    peak_rss_mib: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def attempted(self):
        return sum(len(p.outputs) for p in self.passes)

    @property
    def failed_frac(self):
        return len(self.failures) / self.attempted

    def untraced(self):
        return [p for p in self.passes if not p.traced]

    def traced(self):
        return [p for p in self.passes if p.traced]


def run_pass(workload, index, traced):
    """One pass over the workload's cases; the wall time of a pass is the
    sum of its timed calls."""
    tracer = tracing.Tracer(index) if traced else None
    seconds, outputs = [], []
    if tracer is None:
        for case in workload.cases:
            elapsed, output = workload.execute(case)
            seconds.append(elapsed)
            outputs.append(output)
    else:
        with tracing.installed(tracer):
            for case in workload.cases:
                tracer.case = f"{index}:{case.name}"
                elapsed, output = workload.execute(case)
                seconds.append(elapsed)
                outputs.append(output)
    return Pass(traced, seconds, outputs, tracer)


def measure(workload, seconds, trace):
    """Run passes for ``seconds``, then check every output."""
    result = Measurement(workload)
    start = time.perf_counter()
    while True:
        traced = trace and len(result.passes) % 2 == 1
        result.passes.append(run_pass(workload, len(result.passes), traced))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in result.passes)
        done_kinds = not trace or len(result.passes) >= 2
        if done_kinds and elapsed + typical > seconds:
            break
    result.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check(result)
    return result


def check(result):
    """Check every output of every pass; failures are (pass, case, message)."""
    workload = result.workload
    result.failures = []
    for index, p in enumerate(result.passes):
        for case, output in zip(workload.cases, p.outputs):
            message = workload.check(case, output)
            if message is not None:
                result.failures.append((index, case.name, message))
    return result.failures


def tail_percentile(values, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it:
    (percentile, value), or None with too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def end_to_end(result, setup_seconds):
    """End-to-end metrics from the untraced passes."""
    passes = result.untraced()
    case_medians = [
        statistics.median(p.case_seconds[i] for p in passes)
        for i in range(len(result.workload.cases))
    ]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "case_geomean_s": math.exp(statistics.fmean(math.log(t) for t in case_medians)),
        "peak_rss_mib": result.peak_rss_mib,
        "setup_s": statistics.median(setup_seconds),
    }, case_medians


def print_end_to_end(metrics, case_medians, result, setups):
    """Every end-to-end metric by name with its unit, plus failed_frac."""
    walls = [p.wall for p in result.untraced()]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.6f} s has 10 passes beyond it" if tail
                 else "no percentile has 10 passes beyond it")
    print(f"  wall_s          {metrics['wall_s']:.6f} s    median of {len(walls)} passes; "
          f"{tail_text}; max {max(walls):.6f} s")
    print(f"  case_geomean_s  {metrics['case_geomean_s']:.6f} s    geometric mean of "
          f"{len(case_medians)} per-case medians")
    print(f"  peak_rss_mib    {metrics['peak_rss_mib']:.1f} MiB")
    print(f"  setup_s         {metrics['setup_s']:.6f} s    median of {len(setups)} processes: "
          + " ".join(f"{s:.4f}" for s in setups))
    print(f"  failed_frac     {result.failed_frac:.6g} ratio    {len(result.failures)} of "
          f"{result.attempted} cases failed")
    for case, seconds in zip(result.workload.cases, case_medians):
        print(f"    case {case.name:34s} {seconds:.6f} s")


def per_layer(result):
    """Per-layer metrics from the traced passes, with the overhead of
    tracing against the untraced passes of the same run."""
    summary, counts_repeat, per_pass = tracing.summarize([p.tracer for p in result.traced()])
    untraced = statistics.median(p.wall for p in result.untraced())
    traced = statistics.median(p.wall for p in result.traced())
    summary["trace.overhead_frac"] = traced / untraced - 1.0
    return summary, counts_repeat, per_pass


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git(root):
    if not (root / ".git").exists():
        return {"revision": None, "dirty": None, "note": "not a git checkout"}
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return {"revision": None, "dirty": None, "note": str(err)}
    return {"revision": rev.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def environment(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git": _git(root),
    }
