"""Configuration, analysis runner, lattice sweeps, and report emission.

Reports are JSON documents with a top-level ``schema_version``; floats are
serialized at full round-trip precision, complex numbers as ``[re, im]``
pairs, and non-finite values as the strings ``"inf"``/``"-inf"``/``"nan"``.
Window files are read and written by :mod:`gaborkit.gallery`.

Identical configurations produce byte-identical reports apart from the
``timing`` block (wall-clock seconds); all randomized checks derive from
the configured seed, which is echoed in the report.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from ._version import __version__
from .diagnostics import (
    check_all_conditions,
    duality_check,
    frame_bounds,
    reconstruction_residual,
    wexler_raz_dual,
    wexler_raz_residual,
)
from .errors import ConfigError
from .gallery import (
    WindowRecipe,
    _open_output,
    gaussian_alternating_kernel_probe,
    load_window,
    make_window,
    partition_of_unity_kernel,
    random_window,
    save_window,
)
from .lattice import FiniteModel, SeparableLattice, _length_fault, _step_fault
from .operators import SystemSpectra, Window, _synthesis_kernel, frame_operator_apply
from .operators import operator_norms, synthesis_map
from .tolerances import DEFAULT_TOL_SCALE, _check_tol_scale, _lattice_cutoff, _rank
from .twisted import index_commutative, janssen_coefficients

SCHEMA_VERSION = "1"

DEFAULT_SEED = 20200313

#: Square lengths used by the fixed counterexample gallery task.
GALLERY_LENGTHS = (16, 36, 64, 100)


@dataclass
class AnalysisConfig:
    """One analysis run: signal length, lattice steps, window, tasks."""

    length: int
    a: int
    b: int
    window: str = "gaussian"
    tasks: tuple = ("bounds", "conditions", "duality")
    tol_scale: float = DEFAULT_TOL_SCALE
    seed: int = DEFAULT_SEED
    out: str = ""
    spectra: str = ""

    def validate(self) -> None:
        """Refuse the first bad field with a ConfigError naming it.  Tasks,
        window text and seed are this class's own rules; the length and the
        steps are :mod:`gaborkit.lattice`'s and ``tol_scale`` is
        :mod:`gaborkit.tolerances`'."""
        fault = _length_fault(self.length)
        if fault:
            raise ConfigError("length", fault)
        self._check_steps(self.a, self.b)
        if isinstance(self.tasks, str) or not self.tasks:
            raise ConfigError("tasks", f"needs a sequence of task names, got {self.tasks!r}")
        for task in self.tasks:
            if task not in TASKS:
                raise ConfigError("tasks", f"unknown task {task!r}; choose from {TASKS}")
        _check_tol_scale(self.tol_scale)
        if not isinstance(self.window, str) or not self.window:
            raise ConfigError("window", "a window recipe or file path is required")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError("seed", f"must be a non-negative integer, got {self.seed!r}")

    def _check_steps(self, a, b) -> None:
        """Refuse lattice steps ``a``, ``b`` with a ConfigError on the step."""
        fault = _step_fault(self.length, a, b)
        if fault:
            raise ConfigError(*fault)

    def lattice(self) -> SeparableLattice:
        return SeparableLattice(self.length, self.a, self.b)

    def build_window(self) -> Window:
        model = FiniteModel(self.length)
        if self.window.strip().lower() == "random":
            return random_window(model, np.random.default_rng(self.seed), "random")
        recipe = WindowRecipe.parse(self.window)
        fault = recipe.fault(self.length)
        if fault:
            raise ConfigError("window", fault)
        return make_window(recipe, model)


@dataclass
class DiagnosticsReport:
    """The full record of one analysis run."""

    schema_version: str
    tool_version: str
    config: dict
    seed: int
    results: dict
    timing: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(jsonable(self), indent=2, sort_keys=True, allow_nan=False)


def jsonable(obj):
    """Recursively convert report objects to JSON-encodable structures."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {item.name: jsonable(getattr(obj, item.name)) for item in fields(obj)}
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return [jsonable(float(obj.real)), jsonable(float(obj.imag))]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return obj


def _task_bounds(g, lattice, config, rng, spectra):
    return frame_bounds(g, lattice, config.tol_scale, spectra=spectra)


def _task_conditions(g, lattice, config, rng, spectra):
    return check_all_conditions(g, lattice, config.tol_scale, spectra=spectra)


def _task_duality(g, lattice, config, rng, spectra):
    return duality_check(g, lattice, config.tol_scale, spectra=spectra)


def _task_janssen(g, lattice, config, rng, spectra):
    """``max |S f - pi(c) f| / |S f|`` over random ``f``, from their own
    generator so that ``rng`` is not advanced: ``S f`` is D after C, and
    ``pi(c) f`` is the synthesis map of ``f`` on the adjoint lattice."""
    coeffs = janssen_coefficients(g, lattice)
    own = np.random.default_rng(config.seed)
    residual = 0.0
    for f in own.standard_normal((4, lattice.L)) + 1j * own.standard_normal((4, lattice.L)):
        applied = frame_operator_apply(g, lattice, f)
        gap = applied - synthesis_map(f, coeffs.lattice, coeffs)
        residual = max(residual, float(np.linalg.norm(gap) / np.linalg.norm(applied)))
    return {
        "relative_residual": residual,
        "coefficient_l1": coeffs.norm1(),
        "adjoint_lattice": {"a": coeffs.lattice.a, "b": coeffs.lattice.b},
    }


def _task_dual_window(g, lattice, config, rng, spectra):
    dual = wexler_raz_dual(g, lattice, config.tol_scale, spectra=spectra)
    L = lattice.L  # the signals are drawn one at a time, after the residual's guard
    signals = (rng.standard_normal(L) + 1j * rng.standard_normal(L) for _ in range(8))
    return {
        "biorthogonality_residual": wexler_raz_residual(dual, g, lattice),
        "biorthogonality_constant": lattice.covolume,
        "reconstruction_residual": reconstruction_residual(g, dual, lattice, signals),
        "dual_norm": dual.original_norm,
        "samples": dual.samples,
    }


def _task_kernel(g, lattice, config, rng, spectra):
    """The adjoint kernel basis, synthesized as the stack it is built as."""
    adjoint = lattice.adjoint()
    stack = _synthesis_kernel(g, adjoint, config.tol_scale, spectra.adjoint)
    images = synthesis_map(g, adjoint, stack)
    witnesses = np.linalg.norm(images, axis=1) / np.linalg.norm(stack, axis=(1, 2))
    return {
        "dimension": len(stack),
        "witness_residuals": [float(w) for w in witnesses],
        "adjoint_lattice": {"a": adjoint.a, "b": adjoint.b},
    }


def _task_index(g, lattice, config, rng, spectra):
    """The kernel dimension by the rank kernel_basis counts, counted once:
    on a commuting adjoint it is the index, else an upper-bound surrogate."""
    adjoint = spectra.adjoint
    if adjoint.lattice.has_commuting_shifts:
        index = index_commutative(g, adjoint.lattice, config.tol_scale, spectra=adjoint)
        return {"commutative": True, "kernel_dimension_surrogate": index, "index": index}
    rank = _rank(adjoint.synthesis, _lattice_cutoff(adjoint.lattice, config.tol_scale))
    return {
        "commutative": False,
        "kernel_dimension_surrogate": adjoint.lattice.cardinality - int(rank),
        "index": None,
    }


def _task_gallery(g, lattice, config, rng, spectra):
    ladder = []
    for length in GALLERY_LENGTHS:
        gauss = gaussian_alternating_kernel_probe(length)
        model = FiniteModel(length)
        delta = make_window(WindowRecipe("delta"), model)
        control = gaussian_alternating_kernel_probe(length, window=delta)
        ladder.append(
            {"length": length, "gaussian_ratio": gauss.ratio, "delta_ratio": control.ratio}
        )
    pou_model = FiniteModel(16)
    pou_window = make_window(WindowRecipe("bspline", order=1, widths=(4,)), pou_model)
    pou_lattice, pou_sequence = partition_of_unity_kernel(pou_window, pou_period=4, phases=2)
    out = synthesis_map(pou_window, pou_lattice.adjoint(), pou_sequence)
    verdict = check_all_conditions(pou_window, pou_lattice, config.tol_scale)
    return {
        "alternating_ladder": ladder,
        "partition_of_unity": {
            "length": 16,
            "lattice": {"a": pou_lattice.a, "b": pou_lattice.b},
            "kernel_residual": float(np.linalg.norm(out) / pou_sequence.norm2()),
            "all_conditions_false": verdict.all_false,
        },
    }


_TASK_RUNNERS = {
    "bounds": _task_bounds,
    "conditions": _task_conditions,
    "duality": _task_duality,
    "janssen": _task_janssen,
    "dual_window": _task_dual_window,
    "kernel": _task_kernel,
    "index": _task_index,
    "gallery": _task_gallery,
}

TASKS = tuple(_TASK_RUNNERS)


def run(config: AnalysisConfig) -> DiagnosticsReport:
    """Execute the configured tasks and assemble a report.

    Writes the report to ``config.out`` and spectra tables to
    ``config.spectra`` when those paths are set.
    """
    config.validate()
    lattice = config.lattice()
    g = config.build_window()
    spectra = SystemSpectra(g, lattice)
    rng = np.random.default_rng(config.seed)
    first_order_cut = _lattice_cutoff(lattice, config.tol_scale)
    results = {
        "window_label": g.label,
        "lattice": {
            "L": lattice.L,
            "a": lattice.a,
            "b": lattice.b,
            "cardinality": lattice.cardinality,
            "redundancy": lattice.redundancy,
            "covolume": lattice.covolume,
            "adjoint_a": lattice.adjoint().a,
            "adjoint_b": lattice.adjoint().b,
        },
        "tolerances": {
            "tol_scale": config.tol_scale,
            "margin_cutoff_first_order": first_order_cut,
            "margin_cutoff_second_order": first_order_cut**2,
        },
    }
    timing = {}
    for task in config.tasks:
        start = time.perf_counter()
        results[task] = _TASK_RUNNERS[task](g, lattice, config, rng, spectra)
        timing[task] = time.perf_counter() - start
    if "bounds" in config.tasks:
        start = time.perf_counter()
        results["operator_norms"] = operator_norms(g, lattice, spectra=spectra)
        timing["operator_norms"] = time.perf_counter() - start

    report = DiagnosticsReport(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        # Every config field but the output paths.
        config={
            item.name: getattr(config, item.name)
            for item in fields(config)
            if item.name not in ("out", "spectra")
        },
        seed=config.seed,
        results=results,
        timing=timing,
    )
    if config.out:
        with _open_output(config.out, "out") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if config.spectra:
        _write_spectra(config.spectra, spectra)
    return report


def _write_spectra(path, spectra):
    with _open_output(path, "spectra", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "index", "eigenvalue"])
        for i, value in enumerate(spectra.frame):
            writer.writerow(["frame_operator", i, f"{value:.17g}"])
        for i, value in enumerate(spectra.adjoint.gramian):
            writer.writerow(["adjoint_gramian", i, f"{value:.17g}"])


def divisor_pairs(length: int):
    """All (a, b) divisor pairs of ``length``."""
    divisors = [d for d in range(1, length + 1) if length % d == 0]
    return [(a, b) for a in divisors for b in divisors]


def sweep(base: AnalysisConfig, pairs=None):
    """Frame bounds and the fourteen-way harness over a grid of lattice steps.

    Returns one row per (a, b), in grid order: redundancy, frame bounds,
    the frame verdict (i), the adjoint's Riesz verdict (xi), whether (ii)
    and (xi) agree (as :func:`duality_check` decides them), and the
    harness's ``consistent`` and ``marginal`` flags.  The window is built
    once, and row (a, b) reuses the spectra of row (L/b, L/a), its adjoint;
    writes CSV to ``base.out`` when set.
    """
    base.validate()
    if pairs is None:
        pairs = divisor_pairs(base.length)
    try:
        pairs = [(a, b) for a, b in pairs]
    except (TypeError, ValueError):
        raise ConfigError("pairs", f"needs a sequence of (a, b) pairs, got {pairs!r}") from None
    for a, b in pairs:
        base._check_steps(a, b)

    g = base.build_window()
    rows = []
    # Every row's entry is made through this one, so it lives until the
    # sweep returns and row (a, b) finds row (L/b, L/a)'s.
    root = SystemSpectra(g, SeparableLattice(base.length, 1, 1))
    for a, b in pairs:
        lattice = SeparableLattice(base.length, a, b)
        spectra = root.on(lattice)
        bounds = frame_bounds(g, lattice, base.tol_scale, spectra=spectra)
        verdict = check_all_conditions(g, lattice, base.tol_scale, spectra=spectra)
        rows.append(
            {
                "a": a,
                "b": b,
                "redundancy": lattice.redundancy,
                "frame_lower": bounds.frame_lower,
                "frame_upper": bounds.frame_upper,
                "frame": verdict.conditions["i"],
                "adjoint_riesz": verdict.conditions["xi"],
                "duality_agree": verdict.conditions["ii"] == verdict.conditions["xi"],
                "consistent": verdict.consistent,
                "marginal": verdict.marginal,
            }
        )

    if base.out:
        fieldnames = [
            "a", "b", "redundancy", "frame_lower", "frame_upper",
            "frame", "adjoint_riesz", "duality_agree", "consistent", "marginal",
        ]
        with _open_output(base.out, "out", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {
                        key: (f"{value:.17g}" if isinstance(value, float) else value)
                        for key, value in row.items()
                    }
                )
    return rows


def consistency_alarm(result) -> bool:
    """True when a harness verdict is inconsistent beyond the marginal band
    (the exit-code-2 alarm): a report's conditions task, or any row of
    :func:`sweep`."""
    if isinstance(result, DiagnosticsReport):
        verdict = result.results.get("conditions")
        result = [] if verdict is None else [vars(verdict)]
    return any(not row["consistent"] and not row["marginal"] for row in result)


__all__ = [
    "AnalysisConfig",
    "DiagnosticsReport",
    "SCHEMA_VERSION",
    "TASKS",
    "consistency_alarm",
    "divisor_pairs",
    "jsonable",
    "load_window",
    "run",
    "save_window",
    "sweep",
]
