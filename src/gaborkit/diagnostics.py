"""Frame diagnostics: bounds, the fourteen-way equivalence harness, dual
windows, cross-Gramians, duality checks and sampled-STFT proxy norms.

The harness evaluates the fourteen classical characterizations of the
frame property -- injectivity / invertibility / surjectivity statements
about the analysis map, the frame operator, the synthesis map, and the
adjoint-lattice analysis, synthesis and Gramian -- and reports whether all
fourteen verdicts agree.  They collapse onto six measured margins
(:data:`CONDITION_TABLE`).  C is dense; D is one batched SVD of the window
factor's ``sigma = 0`` fiber.  So C (i, v) and D (vi, vii) are two routes,
and so are S (ii-iv) and the adjoint G (xi-xiv), whose fibers use
different translates.  In exact arithmetic all fourteen agree, so any
disagreement beyond the flagged marginal band is an alarm.

Each verdict, bound and refusal is one reading of a spectrum at the
lattice's one cutoff (:func:`gaborkit.tolerances._reading`): how many of
the values that must clear it do not, the deciding value and its margin.
S and G read D's squared at the squared cutoff, one reading that is (ii)
and (xi), the dual's refusal and the finite condition number.  Each public
diagnostic takes that cutoff before it reads a spectrum, so a bad
``tol_scale`` is refused before any decomposition.  A margin,
sigma_need/sigma_max or lambda_min/lambda_max over the cutoff, within a
factor 10 of 1 is flagged marginal.  Every spectrum comes from
:class:`gaborkit.operators.SystemSpectra`, once per (window, lattice), and
the dual from :func:`gaborkit.operators._frame_inverse_apply`; this module
never sees the window factor.

In this finite model, invertibility on the heavy and light sequence spaces
collapses to plain invertibility, and injectivity of a square system already
implies invertibility: documented collapses, not separate computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAFrameError, ShapeMismatchError
from .gallery import periodized_gaussian
from .lattice import SeparableLattice, _check_length, _finite_fault, _samples
from .operators import Window, _frame_inverse_apply, _guard_dense, _spectra_for, _twisted_matrix
from .operators import coefficient_map, synthesis_map, window_samples
from .tolerances import DEFAULT_TOL_SCALE, MARGINAL_BAND, _lattice_cutoff, _reading


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
    ``spectra``: C's dense SVD and D's fiber SVD, on the lattice and on its
    adjoint; S and G read D's squared.  Always returns a verdict;
    ``consistent`` records whether all fourteen booleans agree.
    """
    cut = _lattice_cutoff(lattice, tol_scale)
    cut2 = cut**2
    spectra = _spectra_for(g, lattice, spectra)
    adjoint = spectra.adjoint
    L = lattice.L
    n_adj = adjoint.lattice.cardinality
    # operator -> (missing, deciding, margin) of its spectrum
    readings = {
        "analysis": _reading(spectra.analysis, L, cut),
        "synthesis": _reading(spectra.synthesis, L, cut),
        "frame": _reading(spectra.synthesis**2, L, cut2),
        "adjoint_analysis": _reading(adjoint.analysis, n_adj, cut),
        "adjoint_synthesis": _reading(adjoint.synthesis, n_adj, cut),
        "adjoint_gramian": _reading(adjoint.synthesis**2, n_adj, cut2),
    }
    conditions, residuals, margins = {}, {}, {}
    for key, (operator, kind) in CONDITION_TABLE.items():
        missing, deciding, margins[key] = readings[operator]
        conditions[key] = missing == 0
        residuals[key] = {
            "value": deciding,
            "root": float(np.sqrt(max(deciding, 0.0))),
            "deficiency": float(missing),
        }[kind]

    marginal_conditions = tuple(
        key for key in CONDITION_KEYS
        if 1.0 / MARGINAL_BAND < margins[key] < MARGINAL_BAND
    )
    verdicts = set(conditions.values())
    return EquivalenceVerdict(
        conditions=conditions, residuals=residuals, margins=margins,
        consistent=len(verdicts) == 1, marginal=bool(marginal_conditions),
        marginal_conditions=marginal_conditions, cutoff=cut,
    )


def frame_bounds(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> BoundsReport:
    """Frame bounds from the frame operator spectrum, and Riesz bounds from
    its nonzero part, which S shares with the lattice Gramian: both are the
    squared singular values of the window-factor blocks, descending."""
    cut2 = _lattice_cutoff(lattice, tol_scale) ** 2
    eigs = _spectra_for(g, lattice, spectra).synthesis ** 2
    missing, lower, _ = _reading(eigs, lattice.L, cut2)
    rank, upper = lattice.L - missing, float(eigs[0])  # rank: the Riesz rank
    riesz_sq = (float(eigs[rank - 1]), upper) if rank else (0.0, 0.0)
    condition = upper / lower if not missing else float("inf")
    return BoundsReport(
        frame_lower=lower, frame_upper=upper,
        riesz_lower=float(np.sqrt(riesz_sq[0])), riesz_upper=float(np.sqrt(riesz_sq[1])),
        riesz_lower_sq=riesz_sq[0], riesz_upper_sq=riesz_sq[1], condition_number=condition,
    )


def wexler_raz_dual(g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None):
    """The canonical dual window ``S^-1 g``.

    The dual is biorthogonal to the adjoint-lattice atoms with the covolume
    constant: ``<dual, shift(mu) g> = (a*b/L) * delta_{mu,0}`` on the
    adjoint lattice (the constant is pinned by the orthonormal-basis and
    full-lattice cases).  Raises :class:`NotAFrameError` when the frame
    spectrum fails condition (ii); else solves on the window factor's p x p
    blocks (:func:`gaborkit.operators._frame_inverse_apply`).
    """
    cut2 = _lattice_cutoff(lattice, tol_scale) ** 2
    eigs = _spectra_for(g, lattice, spectra).synthesis ** 2
    missing, deciding, _ = _reading(eigs, lattice.L, cut2)
    if missing:
        raise NotAFrameError(
            "system is not a frame; no dual window",
            sigma_min=deciding, cutoff=cut2 * float(eigs[0]),
        )
    dual = _frame_inverse_apply(g, lattice, window_samples(g))
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
    """Max relative error of ``f = D_g C_dual f`` over the given signals.
    Each round trip's grid, n entries, is charged to the cap.  A signal with
    a nan or inf sample is refused, as is a zero one (no relative error).
    The maps are linear, so a signal is first scaled, exactly, by the power
    of two that puts its largest part in [1/2, 1): no norm over- or underflows."""
    _guard_dense(lattice.cardinality, "reconstruction grid")
    worst = 0.0
    for i, f in enumerate(signals):
        f = _check_length(lattice.L, f, f"signal {i}")
        if fault := _finite_fault(f, f"signal {i}"):
            raise ShapeMismatchError(fault)
        if not (top := float(np.max(np.abs(f.view(float))))):
            raise ShapeMismatchError(f"signal {i} is zero; it has no relative error")
        f = np.ldexp(f.view(float), -np.frexp(top)[1]).view(complex)
        rebuilt = synthesis_map(g, lattice, coefficient_map(dual, lattice, f))
        worst = max(worst, float(np.linalg.norm(rebuilt - f) / np.linalg.norm(f)))
    return worst


def cross_gramian(phi, g, lattice: SeparableLattice) -> np.ndarray:
    """The cross-Gramian ``Phi[mu, nu] = <shift(nu) phi, shift(mu) g>`` of
    two windows over one lattice: the twisted multiplier by ``<phi,
    shift(lam) g>``, as the Gramian is by the window's autocorrelation."""
    _guard_dense(lattice.cardinality**2, "cross-Gramian")
    phi = _check_length(lattice.L, window_samples(phi), "window")
    return _twisted_matrix(coefficient_map(g, lattice, phi).values, lattice)


def cross_gramian_row_sum_gap(phi, g, lattice: SeparableLattice) -> float:
    """The max-row-sum (l_inf-induced) norm of ``cross_gramian - I``,
    computable without the matrix as
    ``|<phi, g> - 1| + sum_{mu != 0} |<phi, shift(mu) g>|``."""
    vals = coefficient_map(g, lattice, window_samples(phi)).values
    return float(np.sum(np.abs(vals)) - abs(vals[0, 0]) + abs(vals[0, 0] - 1.0))


def duality_check(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> DualityRecord:
    """The harness's conditions (ii) and (xi) at its cutoff: the frame verdict
    against the adjoint system's Riesz verdict, with both padded spectra
    attached."""
    cut2 = _lattice_cutoff(lattice, tol_scale) ** 2
    spectra = _spectra_for(g, lattice, spectra)
    adjoint = spectra.adjoint
    frame = _reading(spectra.synthesis**2, lattice.L, cut2)[0] == 0
    riesz = _reading(adjoint.synthesis**2, adjoint.lattice.cardinality, cut2)[0] == 0
    return DualityRecord(
        frame=frame, adjoint_riesz=riesz, agree=frame == riesz,
        frame_spectrum=spectra.frame, adjoint_gramian_spectrum=adjoint.gramian,
    )


def stft_grid(f, phi) -> np.ndarray:
    """Full-grid windowed Fourier coefficients ``V[x, xi] = <f, shift((x, xi)) phi>``."""
    f = _samples(f, "signal")
    phi = _samples(phi, "analyzing window")
    if f.shape != phi.shape or f.ndim != 1:
        raise ShapeMismatchError("signal and analyzing window must be vectors of equal length")
    _guard_dense(f.size**2, "STFT grid")
    t = np.arange(f.shape[0])
    return np.fft.fft(f[None, :] * np.conj(phi[(t[None, :] - t[:, None]) % t.size]), axis=1)


def modulation_norm_proxy(f, p) -> float:
    """Grid-sampled STFT proxy norm with the periodized Gaussian analyzer.

    ``p`` is 1, 2 or inf.  The p=2 proxy equals sqrt(L) times the signal
    norm (finite STFT orthogonality), so only p=1 and p=inf carry
    information beyond the plain norm.
    """
    f = _samples(f, "signal")
    if f.ndim != 1:
        raise ShapeMismatchError(f"signal must be a vector, got shape {f.shape}")
    phi = periodized_gaussian(f.shape[0])
    grid = np.abs(stft_grid(f, phi))
    if p == 1:
        return float(np.sum(grid))
    if p == 2:
        return float(np.sqrt(np.sum(grid**2)))
    if p in (np.inf, float("inf")):
        return float(np.max(grid))
    raise ShapeMismatchError(f"proxy norm defined for p in {{1, 2, inf}}, got {p!r}")
