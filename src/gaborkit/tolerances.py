"""Shared numerical-rank conventions.

Every decision about a lattice -- the fourteen conditions, the frame and
Riesz verdicts and bounds, the condition number, the dual's refusal, the
kernel rank and the index -- counts with :func:`_rank` against one
cutoff, :func:`_lattice_cutoff`: ``margin_cutoff`` at dims (L, n, n'),
``n' = a*b`` the adjoint's size, on singular values, and its square on the
PSD frame operator and Gramian.  So independently computed checks cannot
disagree over a threshold; no other module calls ``margin_cutoff``.

``rank_tolerance``, ``tol_scale * max(shape) * eps * sigma_max``, is read
only by :func:`gaborkit.twisted.twisted_invert`: acceptance criterion 07
measures its n x n solve at the epsilon level (``notes/decisions.md``).
"""

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: Default user-adjustable scale factor on the numerical-rank rule.
DEFAULT_TOL_SCALE = 1e3

#: Flag a verdict as marginal when a decision margin is within this factor
#: of its cutoff on either side.
MARGINAL_BAND = 10.0


def rank_tolerance(shape, sigma_max, tol_scale=DEFAULT_TOL_SCALE):
    """Absolute cutoff below which a singular value counts as zero."""
    return tol_scale * max(shape) * EPS * float(sigma_max)


def margin_cutoff(dims, tol_scale=DEFAULT_TOL_SCALE):
    """Dimensionless first-order cutoff on sigma_min/sigma_max ratios."""
    return float(np.sqrt(tol_scale * max(dims) * EPS))


def _lattice_cutoff(lattice, tol_scale=DEFAULT_TOL_SCALE):
    """The first-order cutoff of every decision on ``lattice``: dims
    (L, n, n'), with ``n' = a*b`` the adjoint's size."""
    return margin_cutoff((lattice.L, lattice.cardinality, lattice.a * lattice.b), tol_scale)


def _rank(values, cutoff, axis=None):
    """How many of ``values`` exceed ``cutoff`` times the largest of them
    all, counted along ``axis``."""
    return np.count_nonzero(values > cutoff * values.max(), axis=axis)
