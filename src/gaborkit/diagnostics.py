"""Frame diagnostics: bounds, the fourteen-way equivalence harness, dual
windows, cross-Gramians, duality checks and sampled-STFT proxy norms.

The harness evaluates, independently and on its own operator, the fourteen
classical characterizations of the frame property of a system on a lattice
-- injectivity / invertibility / surjectivity statements about the analysis
map, the frame operator, the synthesis map, and the adjoint-lattice
analysis, synthesis and Gramian -- and reports whether all fourteen verdicts
agree.  C is dense; D is one batched SVD of the window factor, and S and G
are its squares.  So C (i, v) and D (vi, vii) are two routes, and so are S
(ii-iv) and the adjoint G (xi-xiv), whose factors use different translates.
In exact arithmetic all fourteen agree; the harness is therefore a
machine-checkable consistency property, and any disagreement beyond the
flagged marginal band is an alarm.

Tolerances: every check reduces to a dimensionless margin (sigma_min over
sigma_max for first-order operators, its square for the PSD compositions)
compared against one shared cutoff, so the fourteen sub-checks measure the
same quantity and cannot disagree by threshold choice alone.  Margins within
a factor 10 of the cutoff are flagged marginal rather than trusted.  Each
spectrum is computed once per (window, lattice) and shared, the adjoint
lattice's included (:class:`SystemSpectra`).

In this finite model, invertibility on the heavy and light sequence spaces
collapses to plain invertibility, and injectivity of a square system already
implies invertibility; the distinctions the infinite-dimensional theory
draws between these conditions are documented collapses here, not separate
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAFrameError, ShapeMismatchError
from .gallery import periodized_gaussian
from .lattice import SeparableLattice
from .operators import (
    SystemSpectra,
    Window,
    _frame_solve,
    atom_stack,
    coefficient_map,
    synthesis_map,
    window_samples,
)
from .tolerances import DEFAULT_TOL_SCALE, MARGINAL_BAND, margin_cutoff


@dataclass
class BoundsReport:
    """Frame bounds (extreme eigenvalues of the frame operator) and Riesz
    bounds (from the nonzero spectrum that S shares with the Gramian, stored
    both squared and in the unsquared norm convention)."""

    frame_lower: float
    frame_upper: float
    riesz_lower: float
    riesz_upper: float
    riesz_lower_sq: float
    riesz_upper_sq: float
    condition_number: float


@dataclass
class EquivalenceVerdict:
    """Outcome of the fourteen-way consistency harness."""

    conditions: dict
    residuals: dict
    margins: dict
    consistent: bool
    marginal: bool
    marginal_conditions: tuple
    cutoff: float

    @property
    def frame(self) -> bool:
        return self.conditions["i"]

    @property
    def all_true(self) -> bool:
        return all(self.conditions.values())

    @property
    def all_false(self) -> bool:
        return not any(self.conditions.values())


@dataclass
class DualityRecord:
    """Frame verdict on the lattice vs Riesz verdict on its adjoint, with
    both spectra for empirical study of the bound relation."""

    frame: bool
    adjoint_riesz: bool
    agree: bool
    frame_spectrum: np.ndarray = field(repr=False)
    adjoint_gramian_spectrum: np.ndarray = field(repr=False)


def _margin(values, need):
    """The ``need``-th value of a descending spectrum over its largest,
    clipped at zero: sigma_need/sigma_max, or lambda_min/lambda_max."""
    if values.size < need or values[0] <= 0.0:
        return 0.0
    return float(max(values[need - 1], 0.0) / values[0])


def _psd_margin(eigs):
    """Margin lambda_min/lambda_max of an ascending PSD spectrum."""
    return _margin(eigs[::-1], eigs.size)


#: The fourteen conditions as (measured operator, residual kind): the
#: finite model collapses ii/iii, vi/vii, ix/x and xi/xii/xiv, and a
#: trivial nullspace (iv, v, xiii) is exactly "margin above its cutoff".
#: The residual is the deciding value, its root, or how many of the values
#: that must clear the cutoff do not.
CONDITION_TABLE = {
    "i": ("analysis", "value"),
    "ii": ("frame", "value"),
    "iii": ("frame", "value"),
    "iv": ("frame", "deficiency"),
    "v": ("analysis", "deficiency"),
    "vi": ("synthesis", "value"),
    "vii": ("synthesis", "value"),
    "viii": ("adjoint_synthesis", "value"),
    "ix": ("adjoint_analysis", "value"),
    "x": ("adjoint_analysis", "value"),
    "xi": ("adjoint_gramian", "value"),
    "xii": ("adjoint_gramian", "value"),
    "xiii": ("adjoint_gramian", "deficiency"),
    "xiv": ("adjoint_gramian", "root"),
}

CONDITION_KEYS = tuple(CONDITION_TABLE)


def check_all_conditions(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> EquivalenceVerdict:
    """Evaluate the fourteen equivalent frame characterizations independently.

    (i)     analysis map on the lattice is bounded below (frame),
    (ii)    frame operator invertible (heavy-space collapse),
    (iii)   frame operator invertible (light-space collapse),
    (iv)    frame operator has trivial nullspace,
    (v)     analysis map has trivial nullspace,
    (vi)    synthesis map has dense range (= full rank),
    (vii)   synthesis map is surjective (= full rank),
    (viii)  adjoint-lattice synthesis map is injective,
    (ix)    adjoint-lattice analysis map has dense range,
    (x)     adjoint-lattice analysis map is surjective,
    (xi)    adjoint Gramian invertible (heavy-space collapse),
    (xii)   adjoint Gramian invertible (light-space collapse),
    (xiii)  adjoint Gramian has trivial nullspace,
    (xiv)   adjoint system is a Riesz sequence (Gramian bounded below).

    The fourteen collapse onto six measured margins (see
    :data:`CONDITION_TABLE`), one per operator, from four decompositions in
    ``spectra``: C's dense SVD and D's block SVD, on the lattice and on its
    adjoint; S and G read D's squared.  Always returns a verdict;
    ``consistent`` records whether all fourteen booleans agree.
    """
    spectra = spectra or SystemSpectra(g, lattice)
    adjoint = spectra.adjoint
    L = lattice.L
    n_adj = adjoint.lattice.cardinality
    cut = margin_cutoff((L, lattice.cardinality, n_adj), tol_scale)
    cut2 = cut * cut
    # operator -> (descending spectrum, how many values must clear the cutoff, cutoff)
    measured = {
        "analysis": (spectra.analysis, L, cut),
        "synthesis": (spectra.synthesis, L, cut),
        "frame": (spectra.frame[::-1], L, cut2),
        "adjoint_analysis": (adjoint.analysis, n_adj, cut),
        "adjoint_synthesis": (adjoint.synthesis, n_adj, cut),
        "adjoint_gramian": (adjoint.gramian[::-1], n_adj, cut2),
    }
    conditions, residuals, margins = {}, {}, {}
    for key, (operator, kind) in CONDITION_TABLE.items():
        values, need, cutoff = measured[operator]
        m = _margin(values, need)
        conditions[key] = m > cutoff
        deciding = float(values[need - 1]) if values.size >= need else 0.0
        residuals[key] = {
            "value": deciding,
            "root": float(np.sqrt(max(deciding, 0.0))),
            "deficiency": float(need - np.count_nonzero(values > cutoff * values[0])),
        }[kind]
        # Normalized decision margin: >1 means the condition held, <1 failed.
        margins[key] = m / cutoff

    marginal_conditions = tuple(
        key for key in CONDITION_KEYS
        if 1.0 / MARGINAL_BAND < margins[key] < MARGINAL_BAND
    )
    verdicts = set(conditions.values())
    return EquivalenceVerdict(
        conditions=conditions,
        residuals=residuals,
        margins=margins,
        consistent=len(verdicts) == 1,
        marginal=bool(marginal_conditions),
        marginal_conditions=marginal_conditions,
        cutoff=cut,
    )


def frame_bounds(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> BoundsReport:
    """Frame bounds from the frame operator spectrum, and Riesz bounds from
    its nonzero part, which S shares with the lattice Gramian: both are the
    squared singular values of the window-factor blocks."""
    spectra = spectra or SystemSpectra(g, lattice)
    eig_frame = spectra.frame
    cut2 = margin_cutoff((lattice.L, lattice.cardinality), tol_scale) ** 2

    lower = float(eig_frame[0])
    upper = float(eig_frame[-1])
    nonzero = eig_frame[eig_frame > cut2 * upper]
    if nonzero.size:
        riesz_lower_sq = float(nonzero[0])
        riesz_upper_sq = float(nonzero[-1])
    else:
        riesz_lower_sq = riesz_upper_sq = 0.0
    condition = upper / lower if lower > cut2 * upper else float("inf")
    return BoundsReport(
        frame_lower=lower,
        frame_upper=upper,
        riesz_lower=float(np.sqrt(riesz_lower_sq)),
        riesz_upper=float(np.sqrt(riesz_upper_sq)),
        riesz_lower_sq=riesz_lower_sq,
        riesz_upper_sq=riesz_upper_sq,
        condition_number=condition,
    )


def wexler_raz_dual(g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None):
    """The canonical dual window, the frame-operator inverse applied to the
    window.

    The dual is biorthogonal to the adjoint-lattice atoms with the covolume
    constant: ``<dual, shift(mu) g> = (a*b/L) * delta_{mu,0}`` on the
    adjoint lattice (the constant is pinned by the orthonormal-basis and
    full-lattice cases).  Raises :class:`NotAFrameError` when the frame
    spectrum fails condition (ii); else solves on the window factor's p x p
    blocks (:func:`gaborkit.operators._frame_solve`).
    """
    spectra = spectra or SystemSpectra(g, lattice)
    eigs = spectra.frame
    cut2 = margin_cutoff((lattice.L, lattice.cardinality), tol_scale) ** 2
    if _psd_margin(eigs) <= cut2:
        raise NotAFrameError(
            "system is not a frame; no dual window",
            sigma_min=float(eigs[0]),
            cutoff=cut2 * float(eigs[-1]),
        )
    dual = _frame_solve(spectra.factor[0], lattice, window_samples(g))
    label = f"wexler-raz-dual({getattr(g, 'label', '') or 'window'})"
    return Window(samples=dual, label=label, original_norm=float(np.linalg.norm(dual)))


def wexler_raz_residual(dual, g, lattice: SeparableLattice) -> float:
    """Max deviation of ``<dual, shift(mu) g>`` from ``(a*b/L) delta_{mu,0}``
    over the adjoint lattice."""
    adjoint = lattice.adjoint()
    vals = coefficient_map(g, adjoint, window_samples(dual)).values.copy()
    vals[0, 0] -= lattice.covolume
    return float(np.max(np.abs(vals)))


def reconstruction_residual(g, dual, lattice: SeparableLattice, signals) -> float:
    """Max relative error of ``f = D_g C_dual f`` over the given signals."""
    worst = 0.0
    for f in signals:
        f = np.asarray(f, dtype=complex)
        rebuilt = synthesis_map(g, lattice, coefficient_map(dual, lattice, f))
        worst = max(worst, float(np.linalg.norm(rebuilt - f) / np.linalg.norm(f)))
    return worst


def cross_gramian(phi, g, lattice: SeparableLattice) -> np.ndarray:
    """The cross-Gramian ``Phi[mu, nu] = <shift(nu) phi, shift(mu) g>`` of
    two windows over one lattice."""
    atoms_g = atom_stack(g, lattice)
    atoms_phi = atom_stack(phi, lattice)
    return np.conj(atoms_g) @ atoms_phi.T


def cross_gramian_row_sum_gap(phi, g, lattice: SeparableLattice) -> float:
    """The max-row-sum (l_inf-induced) norm of ``cross_gramian - I``,
    computable without the matrix as
    ``|<phi, g> - 1| + sum_{mu != 0} |<phi, shift(mu) g>|``."""
    vals = coefficient_map(g, lattice, window_samples(phi)).values
    out = float(np.sum(np.abs(vals)) - abs(vals[0, 0]) + abs(vals[0, 0] - 1.0))
    return out


def duality_check(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> DualityRecord:
    """Frame verdict on the lattice against the Riesz verdict of the adjoint
    system, with both spectra attached."""
    spectra = spectra or SystemSpectra(g, lattice)
    adjoint = spectra.adjoint
    eig_frame = spectra.frame
    eig_adj_gram = adjoint.gramian
    cut2 = margin_cutoff((lattice.L, lattice.cardinality, adjoint.lattice.cardinality), tol_scale) ** 2
    frame = _psd_margin(eig_frame) > cut2
    riesz = _psd_margin(eig_adj_gram) > cut2
    return DualityRecord(
        frame=frame,
        adjoint_riesz=riesz,
        agree=frame == riesz,
        frame_spectrum=eig_frame,
        adjoint_gramian_spectrum=eig_adj_gram,
    )


def stft_grid(f, phi) -> np.ndarray:
    """Full-grid windowed Fourier coefficients ``V[x, xi] = <f, shift((x, xi)) phi>``."""
    f = np.asarray(f, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if f.shape != phi.shape or f.ndim != 1:
        raise ShapeMismatchError("signal and analyzing window must be vectors of equal length")
    t = np.arange(f.shape[0])
    return np.fft.fft(f[None, :] * np.conj(phi[(t[None, :] - t[:, None]) % t.size]), axis=1)


def modulation_norm_proxy(f, p) -> float:
    """Grid-sampled STFT proxy norm with the periodized Gaussian analyzer.

    ``p`` is 1, 2 or inf.  The p=2 proxy equals sqrt(L) times the signal
    norm (finite STFT orthogonality), so only p=1 and p=inf carry
    information beyond the plain norm.
    """
    f = np.asarray(f, dtype=complex)
    phi = periodized_gaussian(f.shape[0])
    grid = np.abs(stft_grid(f, phi))
    if p == 1:
        return float(np.sum(grid))
    if p == 2:
        return float(np.sqrt(np.sum(grid**2)))
    if p in (np.inf, float("inf")):
        return float(np.max(grid))
    raise ShapeMismatchError(f"proxy norm defined for p in {{1, 2, inf}}, got {p!r}")
