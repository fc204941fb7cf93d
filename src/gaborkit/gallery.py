"""Window recipes and the constructive counterexample families.

Windows: the periodized Gaussian at the self-dual scaling, discrete
B-splines (iterated box convolutions, exact in integer arithmetic before
normalization), general box convolution products, the delta, and windows
loaded from files.  All recipe windows come out unit-norm.  Window files
are plain text, one ``re<TAB>im`` pair per line in 17 significant digits,
which round-trips binary doubles exactly.

Counterexamples: the alternating-sign sequence on the critical square
lattice, and the explicit telescoping kernel sequence for windows that
partition unity, which certifies the non-frame verdict without touching an
inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LatticeError, PartitionOfUnityError, ShapeMismatchError
from .lattice import FiniteModel, SeparableLattice, TwistedSequence, _divisor_fault
from .operators import Window, synthesis_map, window_samples

RECIPE_KINDS = ("delta", "periodized_gaussian", "bspline", "convolution_product", "file")


@dataclass(frozen=True)
class WindowRecipe:
    """How to build a window: one of ``delta``, ``periodized_gaussian``,
    ``bspline`` (order, one width), ``convolution_product`` (width list),
    or ``file`` (path to a saved window)."""

    kind: str
    order: int = 1
    widths: tuple = ()
    path: str = ""

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise LatticeError(f"unknown window recipe kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "WindowRecipe":
        """Parse CLI recipe strings: ``delta``, ``gaussian``,
        ``bspline:ORDER:WIDTH``, ``conv:W1,W2,...``, ``file:PATH``.  A known
        head with bad fields is a ConfigError on ``window``; any other text
        is a path, ``WindowRecipe("file", path=text)``."""
        head, colon, rest = text.partition(":")
        head = head.strip().lower()
        if head in ("delta", "gaussian", "periodized_gaussian"):
            if colon:
                raise ConfigError("window", f"{head} recipe takes no fields, got {text!r}")
            return cls("delta" if head == "delta" else "periodized_gaussian")
        if head == "bspline":
            parts = rest.split(":")
            if len(parts) != 2:
                raise ConfigError("window", f"bspline recipe needs ORDER:WIDTH, got {text!r}")
            order, width = _recipe_ints(parts, text)
            return cls("bspline", order=order, widths=(width,))
        if head in ("conv", "convolution_product"):
            widths = _recipe_ints([w for w in rest.split(",") if w.strip()], text)
            if not widths:
                raise ConfigError("window", f"convolution recipe needs widths, got {text!r}")
            return cls("convolution_product", widths=widths)
        return cls("file", path=rest if head == "file" else text)

    def fault(self, L: int) -> str:
        """Why this recipe has no window of length ``L``; "" if it has one.
        The widths are a sequence of positive integers dividing L."""
        if not isinstance(self.widths, (tuple, list)):
            return f"box widths must be a sequence of integers, got {self.widths!r}"
        if self.kind == "convolution_product" and not self.widths:
            return "convolution recipe needs at least one width"
        if self.kind == "bspline":
            if not isinstance(self.order, (int, np.integer)):
                return f"bspline order must be an integer, got {self.order!r}"
            if self.order < 1:
                return f"bspline order must be >= 1, got {self.order}"
            if len(self.widths) != 1:
                return "bspline recipe takes exactly one width"
        for w in self.widths:
            fault = _divisor_fault(L, w)
            if fault:
                return f"box width {fault}"
        return ""


def _recipe_ints(fields, text):
    """The integer fields of a recipe; a non-integer is a ConfigError."""
    try:
        return tuple(int(field) for field in fields)
    except ValueError:
        raise ConfigError("window", f"recipe fields must be integers, got {text!r}") from None


def _open_output(path, field, **kwargs):
    """Open ``path`` for writing; an unwritable path is a ConfigError on
    ``field``."""
    try:
        return open(path, "w", **kwargs)
    except OSError as err:
        raise ConfigError(field, f"cannot write {path!r}: {err}")


def save_window(path, samples) -> None:
    """Write a window as ``re<TAB>im`` lines (17 significant digits),
    formatted in one pass over the interleaved parts."""
    parts = np.ascontiguousarray(samples, dtype=complex).view(float)
    if parts.ndim != 1:
        raise ShapeMismatchError(f"a window file holds one vector, got shape {np.shape(samples)}")
    with _open_output(path, "out") as handle:
        handle.write(("%.17g\t%.17g\n" * (parts.size // 2)) % tuple(parts.tolist()))


def load_window(path) -> np.ndarray:
    """Read a window saved by :func:`save_window` (re/im columns; ``#``
    comments and blank lines are skipped)."""
    values = []
    try:
        handle = open(path)
    except OSError as err:
        raise ConfigError("window", f"cannot read window file {path!r}: {err}")
    with handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError("window", f"bad line in window file {path!r}: {line!r}")
            values.append(complex(float(parts[0]), float(parts[1])))
    samples = np.array(values, dtype=complex)
    if not np.all(np.isfinite(samples)):
        raise ConfigError("window", f"window file {path!r} has non-finite samples")
    return samples


def periodized_gaussian(L: int) -> np.ndarray:
    """Unit-norm periodization of exp(-pi t^2 / L), the self-dual width.

    Evaluated on centered residues with a symmetric truncation range so the
    samples satisfy g[n] = g[L - n] term by term; the truncation tail is
    below 1e-17 relative.
    """
    FiniteModel(L)  # the signal length's own check
    n = np.arange(L)
    centered = ((n + L // 2) % L) - L // 2
    reach = int(np.ceil(0.5 + np.sqrt(40.0 / L))) + 1
    g = np.zeros(L)
    for j in range(-reach, reach + 1):
        g += np.exp(-np.pi * (centered + j * L) ** 2 / L)
    return g / np.linalg.norm(g)


def _box_product(L: int, widths) -> np.ndarray:
    """Iterated circular convolution of unit boxes, exact in int64."""
    out = np.zeros(L, dtype=np.int64)
    out[: widths[0]] = 1
    for w in widths[1:]:
        full = np.convolve(out, np.ones(w, dtype=np.int64))  # length L + w - 1 <= 2L - 1
        out = full[:L].copy()
        out[: w - 1] += full[L:]
    return out


def make_window(recipe: WindowRecipe, model) -> Window:
    """Realize a recipe as a unit-norm window of length ``model.L``; a
    recipe with a :meth:`~WindowRecipe.fault` at that length is a
    LatticeError, and a window file of another length a ConfigError on
    ``window``."""
    L = model.L
    fault = recipe.fault(L)
    if fault:
        raise LatticeError(fault)
    if recipe.kind == "delta":
        samples = np.zeros(L)
        samples[0] = 1.0
        return Window.unit(samples, "delta")
    if recipe.kind == "periodized_gaussian":
        return Window.unit(periodized_gaussian(L), "periodized-gaussian")
    if recipe.kind == "bspline":
        samples = _box_product(L, recipe.widths * recipe.order)
        return Window.unit(samples, f"bspline-{recipe.order}(w={recipe.widths[0]})")
    if recipe.kind == "convolution_product":
        samples = _box_product(L, recipe.widths)
        return Window.unit(samples, f"conv{list(recipe.widths)}")
    # The one kind left is "file".
    samples = load_window(recipe.path)
    if samples.shape != (L,):
        raise ConfigError(
            "window", f"window file {recipe.path!r} has length {samples.shape[0]}, expected {L}"
        )
    return Window.unit(samples, f"file:{recipe.path}")


def random_window(model, rng, label="random") -> Window:
    """Unit-norm complex Gaussian window (for property sweeps)."""
    samples = rng.standard_normal(model.L) + 1j * rng.standard_normal(model.L)
    return Window.unit(samples, label)


def partition_of_unity_deviation(samples, period: int):
    """Return ``(mean, max deviation)`` of the periodized sums
    ``sum_k g[n - period*k]`` over the residues ``n``."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ShapeMismatchError(f"samples must be a vector, got shape {samples.shape}")
    L = samples.shape[0]
    fault = _divisor_fault(L, period)
    if fault:
        raise LatticeError(f"period {fault}")
    sums = samples.reshape(L // period, period).sum(axis=0)
    mean = complex(np.mean(sums))
    return mean, float(np.max(np.abs(sums - mean)))


@dataclass(frozen=True)
class AlternatingProbeResult:
    length: int
    step: int
    ratio: float


def gaussian_alternating_kernel_probe(L: int, window=None) -> AlternatingProbeResult:
    """Synthesize the alternating sequence c[k, l] = (-1)^(k+l) on the
    critical square lattice (step sqrt(L) in both directions, which is its
    own adjoint) and return ``ratio = |D c| / |c|``.

    ``window=None`` uses the periodized Gaussian; pass another window (e.g.
    the delta) for control runs.
    """
    FiniteModel(L)  # the signal length's own check
    step = int(round(np.sqrt(L)))
    if step < 2 or step * step != L:
        raise LatticeError(f"alternating probe needs a perfect square length, got L={L}")
    g = periodized_gaussian(L) if window is None else window_samples(window)
    lattice = SeparableLattice(L, step, step)
    adjoint = lattice.adjoint()
    k = np.arange(adjoint.n_time)[:, None]
    l = np.arange(adjoint.n_freq)[None, :]
    values = ((-1.0) ** (k + l)).astype(complex)
    out = synthesis_map(g, adjoint, values)
    ratio = float(np.linalg.norm(out) / np.linalg.norm(values))
    return AlternatingProbeResult(length=L, step=step, ratio=ratio)


#: Numerical tolerance on the partition-of-unity identity (relative).
POU_RTOL = 1e-12


def partition_of_unity_kernel(g, pou_period: int, phases: int, time_step: int = 1):
    """Explicit kernel certificate for windows that partition unity.

    Given a window with ``sum_k g[n - pou_period*k]`` constant and nonzero,
    builds the lattice ``time_step*Z_L x (L*phases/pou_period)*Z_L`` whose
    adjoint has time step ``pou_period/phases``, together with the sequence
    that places ``+1, -1, 0, ..., 0`` (period ``phases``) along the adjoint
    time axis at frequency zero.  Adjacent groups of ``phases`` translates
    telescope against the partition of unity, so the synthesis of the
    sequence vanishes identically and the system cannot be a frame.

    Returns ``(lattice, sequence)`` with the sequence indexed by the
    adjoint lattice.
    """
    samples = window_samples(g)
    L = samples.shape[0]
    if not isinstance(phases, (int, np.integer)) or phases < 2:
        raise LatticeError(f"need an integer number of phases, at least 2, got {phases!r}")
    fault = _divisor_fault(L, pou_period)
    if fault:
        raise LatticeError(f"partition period {fault}")
    if pou_period % phases != 0:
        raise LatticeError(
            f"phase count {phases} does not divide the partition period {pou_period}"
        )
    lattice = SeparableLattice(L, time_step, (L * phases) // pou_period)

    mean, deviation = partition_of_unity_deviation(samples, pou_period)
    scale = float(np.max(np.abs(samples))) * (L // pou_period)
    if abs(mean) <= POU_RTOL * scale:
        raise PartitionOfUnityError(
            f"window sums to {mean} over period {pou_period}; need a nonzero constant"
        )
    if deviation > POU_RTOL * abs(mean):
        raise PartitionOfUnityError(
            f"window violates the partition of unity at period {pou_period}: "
            f"max deviation {deviation:.3e} against constant {abs(mean):.3e}"
        )

    adjoint = lattice.adjoint()
    values = np.zeros(adjoint.grid_shape, dtype=complex)
    ks = np.arange(adjoint.n_time)
    values[ks % phases == 0, 0] = 1.0
    values[ks % phases == 1, 0] = -1.0
    return lattice, TwistedSequence(values, adjoint)
