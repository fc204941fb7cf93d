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

Sequences are :class:`gaborkit.lattice.TwistedSequence` grids, the same
type the coefficient map returns and the synthesis map accepts.

Kernel machinery: ``kernel_basis`` returns an orthonormal basis of the
nullspace of the synthesis map on a lattice (the kernel is a module under
the # product), and ``index_commutative`` counts the pure-frequency
sequences inside that kernel when all lattice shifts commute -- zero exactly
when the dual-side system is a frame.  Both read the window-factor blocks:
the kernel is the sum of the blocks' left nullspaces, and on a commuting
lattice every block is a single row holding one character, so the index is
a count of the synthesis singular values.
"""

from __future__ import annotations

import numpy as np

from .errors import NonCommutativeLatticeError, ShapeMismatchError, SingularAlgebraError
from .lattice import SeparableLattice, TwistedSequence, root_of_unity
from .operators import (
    _factor_sizes,
    _guard_dense,
    _spectra_for,
    _to_grid,
    _twisted_matrix,
    _window_factor,
    shift_autocorrelation,
)
from .tolerances import DEFAULT_TOL_SCALE, margin_cutoff, rank_tolerance


def right_multiplier_matrix(a: TwistedSequence) -> np.ndarray:
    """Matrix of ``c -> c # a`` on flat grid order (the operator whose
    invertibility the algebra's spectral-invariance statement is about);
    with ``a`` the shift autocorrelation it is the Gramian."""
    return _twisted_matrix(a.values, a.lattice)


def twisted_convolve(a: TwistedSequence, b: TwistedSequence) -> TwistedSequence:
    """The twisted product a # b."""
    if a.lattice != b.lattice:
        raise ShapeMismatchError("twisted convolution requires sequences on the same lattice")
    out = right_multiplier_matrix(b) @ a.flat
    return TwistedSequence(out.reshape(a.lattice.grid_shape), a.lattice)


def represent(c: TwistedSequence) -> np.ndarray:
    """The L x L operator ``pi(c) = sum_lam c_lam shift(lam)``."""
    lat = c.lattice
    L = lat.L
    _guard_dense(L * L, "represented operator")
    t = np.arange(L)
    # Time step k fills the cyclic diagonal s = t - k*a with the sum of its
    # modulations; distinct k give distinct diagonals since a divides L.
    phases = root_of_unity((lat.b * np.arange(lat.n_freq))[:, None] * t, L)
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
    return TwistedSequence(flipped * root_of_unity(-((k * lat.a) % L) * ((l * lat.b) % L), L), lat)


def janssen_coefficients(g, lattice: SeparableLattice) -> TwistedSequence:
    """Coefficients of the frame operator as a shift series over the adjoint
    lattice: ``a(mu) = s^-1 <g, shift(mu) g>`` with ``s = a*b/L``, so that
    ``pi(a) = S`` exactly.  On the full lattice this reduces to ``S = L*I``
    for unit windows."""
    adjoint = lattice.adjoint()
    return TwistedSequence(shift_autocorrelation(g, adjoint).values / lattice.covolume, adjoint)


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
    grid as the coefficient map maps its blocks (:func:`_to_grid`).  The
    blocks' singular values fill ``synthesis`` in ``spectra``, the window's
    entry on ``lattice`` (new when None).

    Raises :class:`MemoryGuardError` when the block SVD or the basis
    (dimension times ``max(L, n)`` entries) would exceed the dense entry cap.
    """
    L, n = lattice.L, lattice.cardinality
    c, p, q, d = _factor_sizes(lattice)
    # U holds n*q entries and V^H L*min(p, q); the window factor, q*L, fits in them.
    _guard_dense(n * q + L * min(p, q), "kernel block SVD")
    spectra = _spectra_for(g, lattice, spectra)
    blocks, scale = _window_factor(g, lattice)
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
    grids = _to_grid(values, lattice)
    grids /= np.linalg.norm(grids, axis=(1, 2), keepdims=True)
    return [TwistedSequence(grid, lattice) for grid in grids]


def index_commutative(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> int:
    """Number of pure-frequency sequences annihilated by the synthesis map,
    for lattices whose shifts mutually commute.

    On a commuting lattice the kernel of the synthesis map is invariant
    under grid translations, so it is spanned by the characters it contains;
    counting those characters gives the kernel's module index.  The count is
    zero exactly when the dual-side system is a frame.

    ``L | a*b`` makes ``M = L/b`` divide ``a``, so the window factor has
    ``c = M`` and ``q = 1``: each of its n blocks is 1 x p and carries
    exactly one character, whose residual ``|D chi| / |chi|`` is the
    block's one singular value.  The index is therefore the number of
    synthesis singular values at or below ``margin_cutoff((L, n))`` times
    the largest, read from ``spectra``, the window's entry on ``lattice`` (a
    new one when None); no L x n matrix is built.

    Raises :class:`NonCommutativeLatticeError` when composition phases are
    nontrivial (for separable lattices: when L does not divide a*b).
    """
    if not lattice.has_commuting_shifts:
        raise NonCommutativeLatticeError(
            f"lattice steps ({lattice.a}, {lattice.b}) with L={lattice.L} have "
            "non-commuting shifts; the character index is defined only in the "
            "commutative case"
        )
    svals = _spectra_for(g, lattice, spectra).synthesis
    cutoff = margin_cutoff((lattice.L, lattice.cardinality), tol_scale) * svals[0]
    return int(np.count_nonzero(svals <= cutoff))
