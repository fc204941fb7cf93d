"""Shared numerical-rank conventions.

Every decision about a lattice reads one cutoff, :func:`_lattice_cutoff`:
``margin_cutoff`` at dims (L, n, n'), ``n' = a*b`` the adjoint's size, on
singular values, and its square on the PSD frame operator and Gramian.
Each verdict, bound, refusal and count -- the fourteen conditions, the
frame and Riesz bounds, the condition number, the dual's refusal and the
index -- is one :func:`_reading` of a spectrum; only the kernel's
per-block rank counts with :func:`_rank` besides.  So no two checks can
disagree over a threshold; no other module calls ``margin_cutoff``.

``rank_tolerance``, ``tol_scale * max(shape) * eps * sigma_max``, is read
only by :func:`gaborkit.twisted.twisted_invert`: acceptance criterion 07
measures its n x n solve at the epsilon level (``notes/decisions.md``).

Both cutoffs refuse a ``tol_scale`` that is not positive and finite with a
:class:`ConfigError` on ``tol_scale``, the one check of that rule: a zero,
negative or nan scale would make every cutoff zero or nan, and so every
verdict meaningless.
"""

import numbers

import numpy as np

from .errors import ConfigError

EPS = float(np.finfo(np.float64).eps)

#: Default user-adjustable scale factor on the numerical-rank rule.
DEFAULT_TOL_SCALE = 1e3

#: Flag a verdict as marginal when a decision margin is within this factor
#: of its cutoff on either side.
MARGINAL_BAND = 10.0


def _check_tol_scale(tol_scale):
    """``tol_scale`` as a Python float, so a ``numpy.float32`` scale gives
    the cutoff of its float; refused unless a positive finite number."""
    if not (isinstance(tol_scale, numbers.Real) and 0 < tol_scale < np.inf):
        raise ConfigError("tol_scale", f"must be positive and finite, got {tol_scale!r}")
    return float(tol_scale)


def rank_tolerance(shape, sigma_max, tol_scale=DEFAULT_TOL_SCALE):
    """Absolute cutoff below which a singular value counts as zero."""
    return _check_tol_scale(tol_scale) * max(shape) * EPS * float(sigma_max)


def margin_cutoff(dims, tol_scale=DEFAULT_TOL_SCALE):
    """Dimensionless first-order cutoff on sigma_min/sigma_max ratios."""
    return float(np.sqrt(_check_tol_scale(tol_scale) * max(dims) * EPS))


def _lattice_cutoff(lattice, tol_scale=DEFAULT_TOL_SCALE):
    """The first-order cutoff of every decision on ``lattice``: dims
    (L, n, n'), with ``n' = a*b`` the adjoint's size."""
    return margin_cutoff((lattice.L, lattice.cardinality, lattice.a * lattice.b), tol_scale)


def _rank(values, cutoff, axis=None):
    """How many of ``values`` exceed ``cutoff`` times the largest of them
    all, counted along ``axis``."""
    return np.count_nonzero(values > cutoff * values.max(), axis=axis)


def _reading(values, need, cutoff, multiplicity=1):
    """``(missing, deciding, margin)`` of a spectrum stored as ``values``,
    descending, each standing for ``multiplicity``, of which ``need`` must
    exceed ``cutoff`` times the largest: how many do not, the ``need``-th
    largest (zero past the end), and that value, clipped at zero, over the
    largest over the cutoff (>1 held, <1 failed)."""
    missing = need - min(need, multiplicity * int(_rank(values, cutoff)))
    index = (need - 1) // multiplicity
    deciding = float(values[index]) if values.size > index else 0.0
    margin = max(deciding, 0.0) / float(values[0]) / cutoff if values[0] > 0 else 0.0
    return missing, deciding, margin
