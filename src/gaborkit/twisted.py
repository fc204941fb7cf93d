"""The finite twisted-convolution algebra of a lattice.

Sequences on a lattice multiply by the twisted convolution

    (a # b)(nu) = sum_lam a(lam) * b(nu - lam) * exp(-2*pi*i*lam_1*(nu-lam)_2/L),

whose phase is exactly the shift-composition phase.  With this sign choice
the representation ``pi(c) = sum_lam c_lam shift(lam)`` is an algebra
homomorphism, ``pi(a) pi(b) = pi(a # b)``, which is the identity every
downstream result leans on.  The unit is the point mass at (0, 0).

The representation is faithful on any separable lattice (distinct shifts are
orthogonal in the trace inner product), so one-sided inverses are two-sided;
``twisted_invert`` solves the n x n right-multiplication system and the
inverse of an invertible frame operator is again a shift series over the
same lattice.

Kernel machinery: ``kernel_basis`` returns an orthonormal basis of the
nullspace of the synthesis map on a lattice (the kernel is a module under
the # product), and ``index_commutative`` counts the pure-frequency
sequences inside that kernel when all lattice shifts commute -- zero exactly
when the dual-side system is a frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonCommutativeLatticeError, ShapeMismatchError, SingularAlgebraError
from .lattice import SeparableLattice
from .operators import _twisted_matrix, coefficient_map, synthesis_matrix, window_samples
from .tolerances import DEFAULT_TOL_SCALE, margin_cutoff, rank_tolerance


@dataclass
class TwistedSequence:
    """An element of the twisted-convolution algebra of ``lattice``:
    a complex array on the lattice grid, shape (L/a, L/b)."""

    values: np.ndarray
    lattice: SeparableLattice = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.lattice.grid_shape:
            raise ShapeMismatchError(
                f"sequence shape {self.values.shape} does not match lattice grid "
                f"{self.lattice.grid_shape}"
            )

    @classmethod
    def delta(cls, lattice) -> "TwistedSequence":
        """The algebra unit: 1 at (0, 0), else 0."""
        values = np.zeros(lattice.grid_shape, dtype=complex)
        values[0, 0] = 1.0
        return cls(values, lattice)

    @classmethod
    def point_mass(cls, lattice, k, l, weight=1.0) -> "TwistedSequence":
        values = np.zeros(lattice.grid_shape, dtype=complex)
        values[k % lattice.n_time, l % lattice.n_freq] = weight
        return cls(values, lattice)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def norm1(self) -> float:
        return float(np.sum(np.abs(self.values)))

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


def _require_same_lattice(a: TwistedSequence, b: TwistedSequence):
    if a.lattice != b.lattice:
        raise ShapeMismatchError("twisted convolution requires sequences on the same lattice")


def left_multiplier_matrix(a: TwistedSequence) -> np.ndarray:
    """Matrix of ``b -> a # b`` on flat grid order."""
    return _twisted_matrix(a.values, a.lattice, left=True)


def right_multiplier_matrix(a: TwistedSequence) -> np.ndarray:
    """Matrix of ``c -> c # a`` on flat grid order (the operator whose
    invertibility the algebra's spectral-invariance statement is about);
    with ``a`` the shift autocorrelation it is the Gramian."""
    return _twisted_matrix(a.values, a.lattice)


def twisted_convolve(a: TwistedSequence, b: TwistedSequence) -> TwistedSequence:
    """The twisted product a # b."""
    _require_same_lattice(a, b)
    out = left_multiplier_matrix(a) @ b.flat
    return TwistedSequence(out.reshape(a.lattice.grid_shape), a.lattice)


def represent(c: TwistedSequence) -> np.ndarray:
    """The L x L operator ``pi(c) = sum_lam c_lam shift(lam)``."""
    lat = c.lattice
    L = lat.L
    t = np.arange(L)
    # Time step k fills the cyclic diagonal s = t - k*a with the sum of its
    # modulations; distinct k give distinct diagonals since a divides L.
    phases = np.exp(2j * np.pi * (((lat.b * np.arange(lat.n_freq))[:, None] * t) % L) / L)
    out = np.zeros((L, L), dtype=complex)
    out[t, (t - lat.a * np.arange(lat.n_time)[:, None]) % L] = c.values @ phases
    return out


def algebra_adjoint(c: TwistedSequence) -> TwistedSequence:
    """The sequence ``c*`` with ``pi(c*) = pi(c)^H``:
    ``c*(nu) = conj(c(-nu)) * exp(-2*pi*i*nu_1*nu_2/L)``."""
    lat = c.lattice
    L = lat.L
    nt, nf = lat.grid_shape
    k = np.arange(nt)[:, None]
    l = np.arange(nf)[None, :]
    flipped = np.conj(c.values[(-k) % nt, (-l) % nf])
    expo = (-((k * lat.a) % L) * ((l * lat.b) % L)) % L
    return TwistedSequence(flipped * np.exp(2j * np.pi * expo / L), lat)


def janssen_coefficients(g, lattice: SeparableLattice) -> TwistedSequence:
    """Coefficients of the frame operator as a shift series over the adjoint
    lattice: ``a(mu) = s^-1 <g, shift(mu) g>`` with ``s = a*b/L``, so that
    ``pi(a) = S`` exactly.  On the full lattice this reduces to ``S = L*I``
    for unit windows."""
    adjoint = lattice.adjoint()
    acf = coefficient_map(g, adjoint, window_samples(g))
    return TwistedSequence(acf.values / lattice.covolume, adjoint)


def twisted_invert(a: TwistedSequence, tol_scale=DEFAULT_TOL_SCALE) -> TwistedSequence:
    """The two-sided inverse ``b`` with ``a # b = b # a = delta``.

    Solves the right-multiplication system ``b # a = delta``; faithfulness
    of the representation makes the inverse two-sided.  Raises
    :class:`SingularAlgebraError` when the convolution operator is singular
    at the working tolerance.

    Accuracy: the unit equations hold to roughly machine epsilon times the
    condition number of the convolution operator; that is also the floor
    attainable by any double-precision representation of the inverse.
    """
    R = right_multiplier_matrix(a)
    svals = np.linalg.svd(R, compute_uv=False)
    cutoff = rank_tolerance(R.shape, svals[0], tol_scale)
    if svals[-1] <= cutoff:
        raise SingularAlgebraError(
            "twisted sequence is not invertible", sigma_min=float(svals[-1]), cutoff=cutoff
        )
    rhs = TwistedSequence.delta(a.lattice).flat
    b = np.linalg.solve(R, rhs)
    return TwistedSequence(b.reshape(a.lattice.grid_shape), a.lattice)


def kernel_basis(g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None):
    """Orthonormal basis of the nullspace of the synthesis map on
    ``lattice``, via SVD with the standard rank tolerance.  Empty when the
    synthesis map is injective.  The singular values fill the ``synthesis``
    spectrum of ``spectra``, the window's on ``lattice``, if not yet computed."""
    D = synthesis_matrix(g, lattice)
    _, svals, vh = np.linalg.svd(D, full_matrices=True)
    if spectra is not None:
        # cached_property keeps a computed spectrum in the instance dict.
        vars(spectra).setdefault("synthesis", svals)
    cutoff = rank_tolerance(D.shape, svals[0] if svals.size else 0.0, tol_scale)
    null = vh[int(np.sum(svals > cutoff)):]  # the rows of V^H past the rank
    return [TwistedSequence(np.conj(row).reshape(lattice.grid_shape), lattice) for row in null]


def index_commutative(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, sigma_max=None
) -> int:
    """Number of pure-frequency sequences annihilated by the synthesis map,
    for lattices whose shifts mutually commute.

    On a commuting lattice the kernel of the synthesis map is invariant
    under grid translations, so it is spanned by the characters it contains;
    counting those characters gives the kernel's module index.  The count is
    zero exactly when the dual-side system is a frame.  ``sigma_max`` is the
    largest singular value of the synthesis matrix when already known.

    Raises :class:`NonCommutativeLatticeError` when composition phases are
    nontrivial (for separable lattices: when L does not divide a*b).
    """
    if not lattice.has_commuting_shifts:
        raise NonCommutativeLatticeError(
            f"lattice steps ({lattice.a}, {lattice.b}) with L={lattice.L} have "
            "non-commuting shifts; the character index is defined only in the "
            "commutative case"
        )
    D = synthesis_matrix(g, lattice)
    if sigma_max is None:
        sigma_max = np.linalg.norm(D, 2)
    cutoff = margin_cutoff((lattice.L, lattice.cardinality), tol_scale) * sigma_max
    # D applied to every character: an unnormalized inverse 2-D DFT of each
    # row of D, one axis at a time, so no more than two D-sized arrays live.
    images = np.fft.ifft(D.reshape(lattice.L, *lattice.grid_shape), axis=2, norm="forward")
    del D
    np.fft.ifft(images, axis=1, norm="forward", out=images)
    residuals = np.sqrt(np.sum(np.abs(images) ** 2, axis=0) / lattice.cardinality)
    return int(np.count_nonzero(residuals <= cutoff))
