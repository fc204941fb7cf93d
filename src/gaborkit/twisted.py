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
from .operators import (
    SystemSpectra,
    _factor_sizes,
    _guard_dense,
    _twisted_matrix,
    coefficient_map,
    window_samples,
)
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
    ``lattice``, with the standard rank tolerance.  Empty when the synthesis
    map is injective.

    Up to unitary FFTs, the synthesis map is the block diagonal of the
    conjugate transposes of the window-factor blocks ``W`` (q x p, one per
    ``(nu1, sigma, rho)``; see :func:`gaborkit.operators._window_factor`), so
    its nullspace is the sum of the blocks' left nullspaces: the left
    singular vectors of each block past its rank, at the rank cutoff of the
    whole L x n matrix.  A null vector ``u`` of block ``(nu1, sigma, rho)``
    is the grid sequence ``u[k0]`` at ``(nu1, sigma, rho)``, mapped to the
    grid by a length-d inverse FFT over ``nu1 -> k2`` and a length-M FFT
    over ``rho + c*sigma``.  The blocks come from ``spectra``, the window's
    entry on ``lattice`` (new when None), whose ``synthesis`` this SVD fills.

    Raises :class:`MemoryGuardError` when the block SVD or the basis
    (dimension times ``max(L, n)`` entries) would exceed the dense entry cap.
    """
    L, n = lattice.L, lattice.cardinality
    c, p, q, d = _factor_sizes(lattice)
    # U holds n*q entries and V^H L*min(p, q); the window factor, q*L, fits in them.
    _guard_dense(n * q + L * min(p, q), "kernel block SVD")
    spectra = spectra or SystemSpectra(g, lattice)
    blocks, scale = spectra.factor
    # Columns of U past min(p, q) exist only with full matrices; V^H is then p x p < q x q.
    u, svals, _ = np.linalg.svd(blocks, full_matrices=q > p)
    svals *= scale
    # cached_property keeps a computed spectrum in the instance dict.
    vars(spectra).setdefault("synthesis", np.sort(svals, axis=None)[::-1])
    cutoff = rank_tolerance((L, n), svals.max(), tol_scale)
    rank = np.count_nonzero(svals > cutoff, axis=-1)
    nu1, sigma, rho, col = np.nonzero(np.arange(q) >= rank[..., None])
    dim = nu1.size
    _guard_dense(dim * max(L, n), "kernel basis")
    values = np.zeros((dim, d, q, q, c), dtype=complex)
    values[np.arange(dim), nu1, :, sigma, rho] = u[nu1, sigma, rho, :, col]
    np.fft.ifft(values, axis=1, out=values)
    grids = values.reshape(dim, *lattice.grid_shape)
    np.fft.fft(grids, axis=2, out=grids)
    grids /= np.linalg.norm(grids, axis=(1, 2), keepdims=True)
    return [TwistedSequence(grid, lattice) for grid in grids]


def _character_residuals(lattice: SeparableLattice, blocks, scale) -> np.ndarray:
    """``|D chi| / |chi|`` for every character ``chi(k, l) = exp(2*pi*i*(x1*k/N
    + x2*l/M))`` of the grid, shape (N, M), from the window-factor blocks.

    The synthesis map sends the character ``(nu1 + d*t, -(rho + c*sigma))``
    into block ``(nu1, sigma, rho)`` alone, as the phases ``exp(2*pi*i*(nu1
    + d*t)*k0/N)`` over ``k0``; its image there is ``W^H`` times them, and
    the residual is that vector's norm times ``sqrt(M/(p*q))``.
    """
    d, q, c = blocks.shape[:3]
    N, M = lattice.grid_shape
    x1 = np.arange(N).reshape(q, d).T  # x1[nu1, t] = nu1 + d*t
    phases = np.exp(2j * np.pi * ((x1[:, None, :] * np.arange(q)[None, :, None]) % N) / N)
    images = np.conj(blocks).swapaxes(-1, -2) @ phases[:, None, None]
    out = np.empty((N, M))
    x2 = (-(np.arange(c) + c * np.arange(q)[:, None])) % M  # x2[sigma, rho]
    out[x1[:, None, None, :], x2[None, :, :, None]] = (
        scale / np.sqrt(q) * np.linalg.norm(images, axis=-2)
    )
    return out


def index_commutative(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> int:
    """Number of pure-frequency sequences annihilated by the synthesis map,
    for lattices whose shifts mutually commute.

    On a commuting lattice the kernel of the synthesis map is invariant
    under grid translations, so it is spanned by the characters it contains;
    counting those characters gives the kernel's module index.  The count is
    zero exactly when the dual-side system is a frame.  The window-factor
    blocks and the largest singular value of the synthesis map come from
    ``spectra``, the window's entry on ``lattice`` (a new one when None).
    Each character's residual comes from one block (see
    :func:`_character_residuals`), so no L x n matrix is built.

    Raises :class:`NonCommutativeLatticeError` when composition phases are
    nontrivial (for separable lattices: when L does not divide a*b).
    """
    if not lattice.has_commuting_shifts:
        raise NonCommutativeLatticeError(
            f"lattice steps ({lattice.a}, {lattice.b}) with L={lattice.L} have "
            "non-commuting shifts; the character index is defined only in the "
            "commutative case"
        )
    spectra = spectra or SystemSpectra(g, lattice)
    blocks, scale = spectra.factor
    cutoff = margin_cutoff((lattice.L, lattice.cardinality), tol_scale) * spectra.synthesis[0]
    residuals = _character_residuals(lattice, blocks, scale)
    return int(np.count_nonzero(residuals <= cutoff))
