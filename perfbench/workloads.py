"""The four workloads: their cases, inputs, warm-up call, execution and
output checks.

Every input that is random comes from the benchmark seed; the program sees
only the generated window files, signals and its own ``--seed`` flag.
Recipe windows (gaussian, bspline, conv) do not depend on the seed.

Cases call the user-facing commands in-process through
``gaborkit.cli.main(argv)``, or the public matrix-free maps for ``stream``,
always looked up on their module at call time so that a traced pass sees
its wrappers.  ``--jobs`` is never passed.  A case fails if it raises,
exits nonzero (2 is the harness alarm) or its output fails the check;
checks run after the timed passes.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from dataclasses import dataclass

import numpy as np

import gaborkit.cli  # noqa: F401  (loads every program module)

ANALYZE_TASKS = "bounds,conditions,duality,janssen,dual_window"

#: Check tolerances.  Frame bounds are compared relative to the upper bound.
BOUNDS_RTOL = 1e-9
JANSSEN_MAX = 1e-12
DUAL_RTOL = 1e-9
WITNESS_MAX = 1e-10
PAINLESS_MAX = 1e-12
ADJOINT_RTOL = 1e-10

#: Cases left out of the workloads on purpose, with the reason.
EXCLUDED = (
    {
        "case": "sweep --length 72",
        "reason": "fails today with MemoryGuardError (the (1,1) row needs a 26.9M-entry "
        "Gramian, cap 16.8M); a fix would read as slower, so it gets its own workload "
        "once the factorized route lands",
    },
    {
        "case": "analyze --length 1024 --lattice 16,16",
        "reason": "44 s per pass, beyond the time of one run",
    },
    {
        "case": "sweep --length 36 (gaussian), sweep --length 32 (bspline)",
        "reason": "5.0 s and 2.4 s per call with one BLAS thread; replaced by --length 28 "
        "and --length 20 so that one run holds enough passes for a steady median",
    },
    {
        "case": "analyze at L=512 (redundancy >= 2, so a >= 1024-row Gramian)",
        "reason": "2.2 s per call with one BLAS thread; the analyze mix stops at L=320",
    },
    {
        "case": "kernel --length 768 --lattice 32,32",
        "reason": "2.0 s per call (full SVD of 768 x 1024); replaced by the non-commuting "
        "--length 384 --lattice 24,24",
    },
)


@dataclass(frozen=True)
class Case:
    name: str
    command: str
    L: int
    a: int
    b: int
    window: str
    argv: tuple = ()
    #: File the command writes its result to, read back after the call.
    out_file: str = ""


@dataclass
class CliOutput:
    rc: int | None
    stdout: str
    file_text: str = ""
    error: str = ""


@dataclass
class StreamOutput:
    shape_ok: bool
    error_value: float
    error: str = ""


def window_text(samples) -> str:
    """A window file: one ``re<TAB>im`` line per sample, 17 digits."""
    return "".join(f"{v.real:.17g}\t{v.imag:.17g}\n" for v in np.asarray(samples, complex))


def parse_window_text(text) -> np.ndarray:
    pairs = [line.split() for line in text.splitlines() if line.strip()]
    return np.array([complex(float(re), float(im)) for re, im in pairs], dtype=complex)


def random_samples(rng, L, support=None):
    """Complex Gaussian samples, zero beyond ``support`` when given."""
    n = L if support is None else support
    out = np.zeros(L, dtype=complex)
    out[:n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return out


def _lattice(case):
    return gaborkit.lattice.SeparableLattice(case.L, case.a, case.b)


def _unit_window(case):
    """The unit-norm window the program builds for ``case``."""
    config = gaborkit.reporting.AnalysisConfig(
        length=case.L, a=case.a, b=case.b, window=case.window
    )
    return config.build_window().samples


class Workload:
    """Base class: ``prepare`` makes the cases from the seed, ``warmup``
    makes one untimed call, ``execute`` times one case, ``check`` returns
    an error message or ``None``."""

    name = ""
    #: Spans that must record calls > 0 on one pass of this workload.
    expected_spans = ()

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.cases = []
        self._checked = {}

    def prepare(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def execute(self, case):
        raise NotImplementedError

    def check(self, case, output):
        raise NotImplementedError


class CliWorkload(Workload):
    def program_seed(self):
        return str(int(self.rng.integers(1, 2**31)))

    def write_window(self, label, samples):
        path = self.workdir / f"window-{label}.txt"
        path.write_text(window_text(samples))
        return str(path)

    def call(self, argv):
        """Run ``gaborkit.cli.main(argv)``; (seconds, rc, stdout, error)."""
        main = sys.modules["gaborkit.cli"].main
        buf = io.StringIO()
        rc, error = None, ""
        with redirect_stdout(buf):
            start = time.perf_counter()
            try:
                rc = main(list(argv))
            except (Exception, SystemExit) as err:  # a raising case is a failed case
                error = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - start
        return elapsed, rc, buf.getvalue(), error

    def execute(self, case):
        out_file = Path(case.out_file) if case.out_file else None
        if out_file is not None:
            # A pass must not be checked against the file an earlier pass wrote.
            out_file.unlink(missing_ok=True)
        elapsed, rc, stdout, error = self.call(case.argv)
        file_text = ""
        if out_file is not None and out_file.is_file():
            file_text = out_file.read_text()
        return elapsed, CliOutput(rc, stdout, file_text, error)

    def check(self, case, output):
        if output.error:
            return f"raised {output.error}"
        if output.rc != 0:
            return f"exit code {output.rc}"
        key = (
            case.name,
            hashlib.blake2b((output.stdout + "\0" + output.file_text).encode()).digest(),
        )
        if key not in self._checked:
            try:
                self._checked[key] = self.check_output(case, output)
            except (ValueError, KeyError, TypeError, IndexError) as err:
                self._checked[key] = f"unreadable output: {type(err).__name__}: {err}"
        return self._checked[key]

    def check_output(self, case, output):
        raise NotImplementedError


class Analyze(CliWorkload):
    """Single-system reports: dense operator builds and their eigensolves."""

    name = "analyze"
    expected_spans = (
        "cli.main", "reporting.run", "reporting.to_json",
        "diagnostics.frame_bounds", "diagnostics.check_all_conditions",
        "diagnostics.duality_check", "diagnostics.wexler_raz_dual",
        "diagnostics.wexler_raz_residual", "diagnostics.reconstruction_residual",
        "twisted.janssen_coefficients", "twisted.represent",
        "operators.frame_operator_matrix", "operators.gramian_matrix",
        "operators.analysis_matrix", "operators.synthesis_matrix",
        "operators.operator_norms", "operators.coefficient_map", "operators.synthesis_map",
        "gallery.make_window", "linalg.eigvalsh", "linalg.svd", "linalg.solve",
    )

    #: (command, L, a, b, window); every system is a frame (redundancy 2 to 4).
    SYSTEMS = (
        ("analyze", 192, 8, 8, "gaussian"),
        ("analyze", 192, 6, 8, "bspline:2:16"),
        ("analyze", 256, 8, 16, "conv:8,16"),
        ("analyze", 240, 10, 12, "random"),
        ("analyze", 320, 10, 16, "gaussian"),
        ("dual", 1024, 16, 32, "gaussian"),
    )

    def prepare(self):
        for command, L, a, b, window in self.SYSTEMS:
            label = window.split(":")[0]
            if window == "random":
                window = self.write_window(f"L{L}", random_samples(self.rng, L))
            name = f"{command}-L{L}-{a}x{b}-{label}"
            argv = [command, "--length", str(L), "--lattice", f"{a},{b}",
                    "--window", window, "--seed", self.program_seed()]
            out_file = ""
            if command == "analyze":
                argv += ["--tasks", ANALYZE_TASKS]
            else:
                out_file = str(self.workdir / f"{name}.txt")
                argv += ["--out", out_file]
            self.cases.append(Case(name, command, L, a, b, window, tuple(argv), out_file))
        self._windows, self._spectra = {}, {}

    def warmup(self):
        self.call(["analyze", "--length", "48", "--lattice", "4,4", "--tasks", ANALYZE_TASKS])

    def window(self, case):
        if case.name not in self._windows:
            self._windows[case.name] = _unit_window(case)
        return self._windows[case.name]

    def spectrum(self, case):
        """Eigenvalues of C^H C, with C from the analysis matrix."""
        if case.name not in self._spectra:
            C = gaborkit.operators.analysis_matrix(self.window(case), _lattice(case))
            self._spectra[case.name] = np.linalg.eigvalsh(C.conj().T @ C)
        return self._spectra[case.name]

    def dual_error(self, case, dual):
        g = self.window(case)
        if dual.shape != g.shape:
            return f"dual window has shape {dual.shape}, expected {g.shape}"
        applied = gaborkit.operators.frame_operator_apply(g, _lattice(case), dual)
        err = np.linalg.norm(applied - g) / np.linalg.norm(g)
        if not err <= DUAL_RTOL:
            return f"|S dual - g|/|g| = {err:.3e} > {DUAL_RTOL:g}"
        return None

    def check_output(self, case, output):
        if case.command == "dual":
            json.loads(output.stdout)
            return self.dual_error(case, parse_window_text(output.file_text))
        res = json.loads(output.stdout)["results"]
        conditions, duality = res["conditions"], res["duality"]
        if conditions["consistent"] is not True:
            return "fourteen-way harness inconsistent"
        verdicts = (conditions["conditions"]["i"], duality["frame"], duality["adjoint_riesz"])
        if verdicts != (True, True, True):
            return f"conditions.i, duality.frame, duality.adjoint_riesz = {verdicts}"
        eig = self.spectrum(case)
        bounds = res["bounds"]
        lower, upper = max(eig[0], 0.0), eig[-1]
        if not (abs(bounds["frame_lower"] - lower) <= BOUNDS_RTOL * upper
                and abs(bounds["frame_upper"] - upper) <= BOUNDS_RTOL * upper):
            return (f"frame bounds {bounds['frame_lower']!r}, {bounds['frame_upper']!r} "
                    f"differ from eigvalsh(C^H C): {lower!r}, {upper!r}")
        residual = res["janssen"]["relative_residual"]
        if not residual <= JANSSEN_MAX:
            return f"Janssen residual {residual!r} > {JANSSEN_MAX:g}"
        samples = np.array([complex(re, im) for re, im in res["dual_window"]["samples"]])
        return self.dual_error(case, samples)


class Sweep(CliWorkload):
    """Phase diagrams over all divisor pairs: many tiny systems, a few
    L^2 x L^2 Gramians, the window rebuilt per row."""

    name = "sweep"
    expected_spans = (
        "cli.main", "reporting.sweep",
        "diagnostics.frame_bounds", "diagnostics.check_all_conditions",
        "diagnostics.duality_check",
        "operators.frame_operator_matrix", "operators.gramian_matrix",
        "operators.analysis_matrix", "operators.synthesis_matrix",
        "operators.coefficient_map", "gallery.make_window",
        "linalg.eigvalsh", "linalg.svd",
    )

    SYSTEMS = ((28, "gaussian"), (24, "random"), (20, "bspline:2:4"))

    def prepare(self):
        for L, window in self.SYSTEMS:
            label = window.split(":")[0]
            if window == "random":
                window = self.write_window(f"L{L}", random_samples(self.rng, L))
            argv = ("sweep", "--length", str(L), "--window", window,
                    "--seed", self.program_seed())
            self.cases.append(Case(f"sweep-L{L}-{label}", "sweep", L, 1, 1, window, argv))

    def warmup(self):
        self.call(["sweep", "--length", "12"])

    def check_output(self, case, output):
        rows = json.loads(output.stdout)
        expected = set(gaborkit.reporting.divisor_pairs(case.L))
        got = [(row["a"], row["b"]) for row in rows]
        if sorted(got) != sorted(expected):
            return f"rows cover {len(got)} lattices, expected the {len(expected)} divisor pairs"
        for row in rows:
            where = f"row ({row['a']},{row['b']})"
            if row["consistent"] is not True and row["marginal"] is not True:
                return f"{where}: harness inconsistent"
            if row["duality_agree"] is not True or row["frame"] != row["adjoint_riesz"]:
                return f"{where}: frame {row['frame']} vs adjoint Riesz {row['adjoint_riesz']}"
            if row["redundancy"] < 1 and row["frame"]:
                return f"{where}: redundancy {row['redundancy']} < 1 cannot give a frame"
            if not 0.0 <= row["frame_lower"] <= row["frame_upper"]:
                return f"{where}: frame bounds out of order"
        return None


class Kernel(CliWorkload):
    """Critical and non-frame systems through the kernel command: full SVDs
    of the adjoint synthesis matrix and the Python loop over characters."""

    name = "kernel"
    expected_spans = (
        "cli.main", "reporting.run", "reporting.to_json",
        "twisted.kernel_basis", "twisted.index_commutative",
        "operators.synthesis_matrix", "operators.synthesis_map",
        "gallery.make_window", "linalg.svd",
    )

    #: Commuting adjoints: (24,24)@576, (16,32)@512; non-commuting:
    #: (24,24)@384, (16,16)@128.
    SYSTEMS = (
        (576, 24, 24, "gaussian"),
        (512, 16, 32, "conv:16,32"),
        (384, 24, 24, "random"),
        (128, 16, 16, "bspline:2:8"),
    )

    def prepare(self):
        for L, a, b, window in self.SYSTEMS:
            label = window.split(":")[0]
            if window == "random":
                window = self.write_window(f"L{L}", random_samples(self.rng, L))
            argv = ("kernel", "--length", str(L), "--lattice", f"{a},{b}",
                    "--window", window, "--seed", self.program_seed())
            self.cases.append(Case(f"kernel-L{L}-{a}x{b}-{label}", "kernel", L, a, b, window, argv))

    def warmup(self):
        self.call(["kernel", "--length", "64", "--lattice", "8,8"])

    def check_output(self, case, output):
        res = json.loads(output.stdout)["results"]
        kernel, index = res["kernel"], res["index"]
        dim, witnesses = kernel["dimension"], kernel["witness_residuals"]
        adjoint = (case.L // case.b, case.L // case.a)
        if (kernel["adjoint_lattice"]["a"], kernel["adjoint_lattice"]["b"]) != adjoint:
            return f"adjoint lattice {kernel['adjoint_lattice']}, expected {adjoint}"
        if len(witnesses) != dim:
            return f"{len(witnesses)} witnesses for a kernel of dimension {dim}"
        # D is L x (a*b): its nullspace has at least a*b - L dimensions.
        if dim < case.a * case.b - case.L:
            return f"kernel dimension {dim} below the rank bound {case.a * case.b - case.L}"
        worst = max(witnesses, default=0.0)
        if not worst <= WITNESS_MAX:
            return f"witness residual {worst!r} > {WITNESS_MAX:g}"
        commutative = case.L % (case.a * case.b) == 0
        if index["commutative"] is not commutative:
            return f"commutative flag {index['commutative']}, expected {commutative}"
        if commutative and index["index"] != dim:
            return f"index {index['index']} != kernel dimension {dim}"
        return None


class Stream(Workload):
    """Long-signal round trips through coefficient_map then synthesis_map."""

    name = "stream"
    expected_spans = ("operators.coefficient_map", "operators.synthesis_map")

    #: (L, a, b, window).  All but the gaussian are painless (window support
    #: <= L/b) and resynthesize with the dual g/w; the gaussian case applies
    #: the frame operator and is checked for adjointness.
    SYSTEMS = (
        (4096, 8, 32, "random"),
        (16384, 16, 64, "bspline:3:64"),
        (32768, 64, 128, "gaussian"),
        (65536, 256, 256, "bspline:1:256"),
    )

    def prepare(self):
        self.inputs = {}
        for L, a, b, window in self.SYSTEMS:
            label = window.split(":")[0]
            case = Case(f"stream-L{L}-{a}x{b}-{label}", "stream", L, a, b, window)
            if window == "random":
                g = random_samples(self.rng, L, support=L // b)
                g /= np.linalg.norm(g)
            else:
                g = _unit_window(case)
            f = random_samples(self.rng, L)
            painless = not np.any(g[L // b:])
            if painless:
                # Walnut diagonal w(t) = (L/b) sum_k |g(t - k a)|^2, a-periodic.
                w = (L // b) * np.tile((np.abs(g) ** 2).reshape(L // a, a).sum(axis=0), L // a)
                synthesis_window = g / w
            else:
                synthesis_window = g
            self.inputs[case.name] = (g, synthesis_window, f, painless)
            self.cases.append(case)

    def warmup(self):
        # The largest translate stack: the first big allocations fault in here.
        self.execute(self.cases[1])

    def execute(self, case):
        g, synthesis_window, f, painless = self.inputs[case.name]
        lattice = _lattice(case)
        operators = sys.modules["gaborkit.operators"]
        start = time.perf_counter()
        try:
            coeffs = operators.coefficient_map(g, lattice, f)
            rebuilt = operators.synthesis_map(synthesis_window, lattice, coeffs)
        except Exception as err:  # a raising case is a failed case
            return time.perf_counter() - start, StreamOutput(False, np.nan, f"{type(err).__name__}: {err}")
        elapsed = time.perf_counter() - start
        c = coeffs.values
        shape_ok = c.shape == lattice.grid_shape and rebuilt.shape == (case.L,)
        if painless:
            value = float(np.linalg.norm(rebuilt - f) / np.linalg.norm(f))
        else:
            # <C f, C f> = <f, D C f> when D is the adjoint of C.
            energy = float(np.vdot(c, c).real)
            value = abs(np.vdot(c, c) - np.vdot(rebuilt, f)) / energy
        return elapsed, StreamOutput(shape_ok, float(value))

    def check(self, case, output):
        if output.error:
            return f"raised {output.error}"
        if not output.shape_ok:
            return "output shapes do not match the lattice"
        painless = self.inputs[case.name][3]
        bound = PAINLESS_MAX if painless else ADJOINT_RTOL
        what = "reconstruction error" if painless else "adjointness gap"
        if not output.error_value <= bound:
            return f"{what} {output.error_value!r} > {bound:g}"
        return None


WORKLOADS = {cls.name: cls for cls in (Analyze, Sweep, Kernel, Stream)}
