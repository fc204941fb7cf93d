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
same lattice.  Sequences are :class:`gaborkit.lattice.TwistedSequence`
grids, the type the coefficient map returns and the synthesis map accepts.

``kernel_basis`` is an orthonormal basis of the nullspace of the synthesis
map (a module under #), and ``index_commutative`` counts the characters in
it on a commuting lattice -- zero exactly when the dual-side system is a
frame.  Both read the null vectors and the synthesis spectrum that
:mod:`gaborkit.operators` computes, the index as that spectrum's one
``missing`` count (:mod:`gaborkit.tolerances`); it never sees the factor.
"""

from __future__ import annotations

import numpy as np

from .errors import NonCommutativeLatticeError, ShapeMismatchError, SingularAlgebraError
from .lattice import SeparableLattice, TwistedSequence, _finite_fault, root_of_unity
from .operators import _guard_dense, _spectra_for, _svd, _synthesis_kernel, _twisted_matrix
from .operators import shift_autocorrelation
from .tolerances import DEFAULT_TOL_SCALE, _lattice_cutoff, _reading, rank_tolerance


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
    at the working tolerance; a nan or inf entry is refused before that.

    Accuracy: the unit equations hold to roughly machine epsilon times the
    condition number of the convolution operator; that is also the floor
    attainable by any double-precision representation of the inverse.
    """
    n = a.lattice.cardinality
    # The cutoff per unit sigma_max, taken first, so a bad tol_scale is
    # refused before the matrix is built.
    unit_cutoff = rank_tolerance((n, n), 1.0, tol_scale)
    if fault := _finite_fault(a.values, "sequence"):
        raise ShapeMismatchError(fault)
    R = right_multiplier_matrix(a)
    svals = _svd(R, "twisted multiplier matrix", compute_uv=False)
    cutoff = unit_cutoff * float(svals[0])
    if svals[-1] <= cutoff:
        raise SingularAlgebraError(
            "twisted sequence is not invertible", sigma_min=float(svals[-1]), cutoff=cutoff
        )
    rhs = TwistedSequence.delta(a.lattice).flat
    b = np.linalg.solve(R, rhs)
    return TwistedSequence(b.reshape(a.lattice.grid_shape), a.lattice)


def kernel_basis(g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None):
    """Orthonormal basis of the nullspace of the synthesis map on
    ``lattice`` at the lattice cutoff, empty exactly when the harness on the
    adjoint lattice finds (viii): the sigma = 0 fiber's left null vectors,
    moved to every sigma (:func:`gaborkit.operators._synthesis_kernel`),
    whose SVD also fills ``synthesis`` in ``spectra``.  A witness ``|D x|``
    can reach the cutoff times sigma_max (5.4e-6 for the Gaussian at L = 24
    on (1, 24)).  Raises :class:`MemoryGuardError` when the fiber SVD or the
    basis (dimension times ``max(L, n)`` entries) would exceed the cap.
    """
    grids = _synthesis_kernel(g, lattice, tol_scale, spectra)
    return [TwistedSequence(grid, lattice) for grid in grids]


def index_commutative(
    g, lattice: SeparableLattice, tol_scale=DEFAULT_TOL_SCALE, *, spectra=None
) -> int:
    """Number of pure-frequency sequences annihilated by the synthesis map,
    for lattices whose shifts mutually commute.

    On a commuting lattice the kernel of the synthesis map is invariant
    under grid translations, so it is spanned by the characters it contains;
    counting those characters gives the kernel's module index, zero exactly
    when the dual-side system is a frame.  Each character's residual
    ``|D chi| / |chi|`` is one synthesis singular value (``notes/decisions.md``),
    so the index is how many of the n values in ``spectra``, the window's
    entry on ``lattice`` (new when None), miss the lattice cutoff:
    ``len(kernel_basis(...))`` exactly, and no L x n matrix is built.

    Raises :class:`NonCommutativeLatticeError` when composition phases are
    nontrivial (for separable lattices: when L does not divide a*b).
    """
    cut = _lattice_cutoff(lattice, tol_scale)
    if not lattice.has_commuting_shifts:
        raise NonCommutativeLatticeError(
            f"lattice steps ({lattice.a}, {lattice.b}) with L={lattice.L} have "
            "non-commuting shifts; the character index is defined only in the "
            "commutative case"
        )
    return _reading(_spectra_for(g, lattice, spectra).synthesis, lattice.cardinality, cut)[0]
