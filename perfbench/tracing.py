"""Spans around the program's layer boundaries, recorded from outside.

The program is not instrumented.  For a traced pass, :func:`installed`
replaces each traced function with a wrapper wherever the name is bound:
``from .operators import frame_operator_matrix`` copies the reference into
``diagnostics``, ``twisted``, ``gallery``, ``reporting`` and the package
namespace, so every loaded ``gaborkit`` module is patched, not only the
defining one.  ``numpy.linalg`` is patched at the package attribute, which
is where the program looks its decompositions up; ``norm(M, 2)`` on a
matrix runs an SVD and is recorded as ``linalg.svd``.

A span is ``[name, start, end, parent, case]``; spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus
the part covered by its direct children.  Bookkeeping done by the tracer
itself inside a span (hashing decomposed inputs) is recorded as a
``trace.bookkeeping`` child, so it does not count as the parent's self time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: Traced program functions: span name -> (defining module, attribute).
PROGRAM_SPANS = {
    "cli.main": ("gaborkit.cli", "main"),
    "reporting.run": ("gaborkit.reporting", "run"),
    "reporting.sweep": ("gaborkit.reporting", "sweep"),
    "diagnostics.frame_bounds": ("gaborkit.diagnostics", "frame_bounds"),
    "diagnostics.check_all_conditions": ("gaborkit.diagnostics", "check_all_conditions"),
    "diagnostics.duality_check": ("gaborkit.diagnostics", "duality_check"),
    "diagnostics.wexler_raz_dual": ("gaborkit.diagnostics", "wexler_raz_dual"),
    "diagnostics.wexler_raz_residual": ("gaborkit.diagnostics", "wexler_raz_residual"),
    "diagnostics.reconstruction_residual": ("gaborkit.diagnostics", "reconstruction_residual"),
    "twisted.janssen_coefficients": ("gaborkit.twisted", "janssen_coefficients"),
    "twisted.represent": ("gaborkit.twisted", "represent"),
    "twisted.kernel_basis": ("gaborkit.twisted", "kernel_basis"),
    "twisted.index_commutative": ("gaborkit.twisted", "index_commutative"),
    "operators.frame_operator_matrix": ("gaborkit.operators", "frame_operator_matrix"),
    "operators.gramian_matrix": ("gaborkit.operators", "gramian_matrix"),
    "operators.analysis_matrix": ("gaborkit.operators", "analysis_matrix"),
    "operators.synthesis_matrix": ("gaborkit.operators", "synthesis_matrix"),
    "operators.operator_norms": ("gaborkit.operators", "operator_norms"),
    "operators.coefficient_map": ("gaborkit.operators", "coefficient_map"),
    "operators.synthesis_map": ("gaborkit.operators", "synthesis_map"),
    "gallery.make_window": ("gaborkit.gallery", "make_window"),
}

#: ``DiagnosticsReport.to_json`` is a method, patched on the class.
TO_JSON_SPAN = "reporting.to_json"

LINALG_SPANS = ("linalg.eigvalsh", "linalg.svd", "linalg.solve")

DENSE_BUILDERS = (
    "operators.frame_operator_matrix",
    "operators.gramian_matrix",
    "operators.analysis_matrix",
    "operators.synthesis_matrix",
)
MATRIX_FREE_MAPS = ("operators.coefficient_map", "operators.synthesis_map")

TIMED_SPANS = tuple(PROGRAM_SPANS) + (TO_JSON_SPAN,) + LINALG_SPANS

MIB = float(1 << 20)


def metric_units():
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    units = {}
    for span in TIMED_SPANS:
        units[f"{span}.calls"] = ("count", "lower")
        units[f"{span}.self_s"] = ("s", "lower")
    for span in MATRIX_FREE_MAPS:
        units[f"{span}.peak_mib"] = ("MiB", "lower")
    units["operators.dense_mib"] = ("MiB", "lower")
    units["reporting.untimed_frac"] = ("ratio", "lower")
    units["linalg.max_dim"] = ("count", "lower")
    units["linalg.gflop_computed"] = ("GFLOP", "lower")
    units["linalg.distinct_frac"] = ("ratio", "higher")
    units["trace.overhead_frac"] = ("ratio", "lower")
    return units


def decomposition_flops(op, shape, is_complex, compute_uv=False, full_matrices=True, nrhs=1):
    """Textbook LAPACK operation counts (Golub & Van Loan), from shapes only.

    Real counts; a complex flop is counted as four real ones.  Hermitian
    eigenvalues: tridiagonal reduction ``4n^3/3``.  SVD of an m x n matrix
    (m >= n): bidiagonalization ``4mn^2 - 4n^3/3`` without vectors,
    ``4m^2 n + 8mn^2 + 9n^3`` with full U and V, ``6mn^2 + 11n^3`` with
    thin U.  Solve: LU ``2n^3/3`` plus ``2n^2`` per right-hand side.
    """
    m, n = max(shape), min(shape)
    if op == "eigvalsh":
        flops = 4.0 * n**3 / 3.0
    elif op == "svd":
        if not compute_uv:
            flops = 4.0 * m * n**2 - 4.0 * n**3 / 3.0
        elif full_matrices:
            flops = 4.0 * m**2 * n + 8.0 * m * n**2 + 9.0 * n**3
        else:
            flops = 6.0 * m * n**2 + 11.0 * n**3
    elif op == "solve":
        flops = 2.0 * n**3 / 3.0 + 2.0 * n**2 * nrhs
    else:
        raise ValueError(f"unknown decomposition {op!r}")
    return flops * (4.0 if is_complex else 1.0)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_index=0):
        self.pass_index = pass_index
        self.case = None
        self.spans = []
        self._stack = []
        self.decompositions = 0
        self.digests = set()
        self.max_dim = 0
        self.flops = 0.0
        self.dense_bytes = 0
        self.map_peak = defaultdict(int)
        self.run_wall = 0.0
        self.run_timed = 0.0

    # -- span recording -------------------------------------------------
    def _open(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, record)`` runs once the
        span is closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result, record)
            return result

        return traced

    def _bookkeeping(self, start):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(["trace.bookkeeping", start, time.perf_counter(), parent, self.case])

    # -- hooks ----------------------------------------------------------
    def _note_decomposition(self, op, matrix, **shape_args):
        start = time.perf_counter()
        matrix = np.asarray(matrix)
        digest = hashlib.blake2b(np.ascontiguousarray(matrix).view(np.uint8), digest_size=16)
        digest.update(repr((matrix.shape, matrix.dtype.str)).encode())
        self.digests.add(digest.digest())
        self.decompositions += 1
        self.max_dim = max(self.max_dim, max(matrix.shape))
        self.flops += decomposition_flops(
            op, matrix.shape, np.iscomplexobj(matrix), **shape_args
        )
        self._bookkeeping(start)

    def _linalg_wrappers(self, linalg):
        eigvalsh, svd, solve, norm = linalg.eigvalsh, linalg.svd, linalg.solve, linalg.norm
        traced_eigvalsh = self.wrap("linalg.eigvalsh", eigvalsh)
        traced_svd = self.wrap("linalg.svd", svd)
        traced_solve = self.wrap("linalg.solve", solve)
        traced_norm2 = self.wrap("linalg.svd", norm)

        @functools.wraps(eigvalsh)
        def eigvalsh_(a, *args, **kwargs):
            self._note_decomposition("eigvalsh", a)
            return traced_eigvalsh(a, *args, **kwargs)

        @functools.wraps(svd)
        def svd_(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            self._note_decomposition(
                "svd", a, compute_uv=compute_uv, full_matrices=full_matrices
            )
            return traced_svd(a, full_matrices, compute_uv, *args, **kwargs)

        @functools.wraps(solve)
        def solve_(a, b, *args, **kwargs):
            nrhs = 1 if np.ndim(b) == 1 else np.shape(b)[-1]
            self._note_decomposition("solve", a, nrhs=nrhs)
            return traced_solve(a, b, *args, **kwargs)

        @functools.wraps(norm)
        def norm_(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and np.ndim(x) == 2:
                self._note_decomposition("svd", x)
                return traced_norm2(x, ord, axis, keepdims)
            return norm(x, ord, axis, keepdims)

        return {"eigvalsh": eigvalsh_, "svd": svd_, "solve": solve_, "norm": norm_}

    def _after_dense(self, result, record):
        self.dense_bytes += np.asarray(result).nbytes

    def _after_run(self, result, record):
        self.run_wall += record[2] - record[1]
        self.run_timed += float(sum(result.timing.values()))

    def _with_peak(self, name, fn):
        """Peak traced memory of a top-level matrix-free map call."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return traced(*args, **kwargs)
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.map_peak[name] = max(self.map_peak[name], peak)

        return measured

    def _program_wrapper(self, name, fn):
        if name in MATRIX_FREE_MAPS:
            return self._with_peak(name, fn)
        if name in DENSE_BUILDERS:
            return self.wrap(name, fn, self._after_dense)
        if name == "reporting.run":
            return self.wrap(name, fn, self._after_run)
        return self.wrap(name, fn)

    # -- per-pass metrics -----------------------------------------------
    def self_times(self):
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - child
        return calls, self_s

    def metrics(self):
        """Per-layer metrics of this pass (all except ``trace.overhead_frac``)."""
        calls, self_s = self.self_times()
        out = {}
        for span in TIMED_SPANS:
            out[f"{span}.calls"] = calls.get(span, 0)
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        for span in MATRIX_FREE_MAPS:
            out[f"{span}.peak_mib"] = self.map_peak.get(span, 0) / MIB
        out["operators.dense_mib"] = self.dense_bytes / MIB
        out["reporting.untimed_frac"] = (
            1.0 - self.run_timed / self.run_wall if self.run_wall > 0 else 0.0
        )
        out["linalg.max_dim"] = self.max_dim
        out["linalg.gflop_computed"] = self.flops / 1e9
        # No decomposition means no repeated one.
        out["linalg.distinct_frac"] = (
            len(self.digests) / self.decompositions if self.decompositions else 1.0
        )
        return out


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "gaborkit" or name.startswith("gaborkit."))
    ]


@contextmanager
def installed(tracer):
    """Patch every traced function wherever it is bound, for one pass."""
    from gaborkit.reporting import DiagnosticsReport

    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        modules = _program_modules()
        for name, (module_name, attr) in PROGRAM_SPANS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer._program_wrapper(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch(module, key, wrapper)
        patch(DiagnosticsReport, "to_json", tracer.wrap(TO_JSON_SPAN, DiagnosticsReport.to_json))
        for attr, wrapper in tracer._linalg_wrappers(np.linalg).items():
            patch(np.linalg, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(tracers):
    """Median per-layer metrics over traced passes, and whether every call
    count repeated exactly from pass to pass."""
    per_pass = [tracer.metrics() for tracer in tracers]
    names = per_pass[0].keys()
    summary = {}
    for name in names:
        values = [m[name] for m in per_pass]
        counted = all(isinstance(v, int) for v in values)
        summary[name] = statistics.median_low(values) if counted else statistics.median(values)
    counts_repeat = all(
        len({m[name] for m in per_pass}) == 1 for name in names if name.endswith(".calls")
    )
    return summary, counts_repeat, per_pass


def write_spans(path, tracers):
    """All spans of a run, one JSON object per traced pass."""
    with open(path, "w") as handle:
        for tracer in tracers:
            json.dump(
                {
                    "pass": tracer.pass_index,
                    "fields": ["name", "start", "end", "parent", "case"],
                    "spans": tracer.spans,
                },
                handle,
                separators=(",", ":"),
            )
            handle.write("\n")
