import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20070313)


@pytest.fixture
def linalg_calls(monkeypatch):
    """``linalg_calls(*names)`` records each later call of those
    ``np.linalg`` functions: a dict from name to the list of the shapes of
    their first arguments, in call order."""

    def record(*names):
        calls = {name: [] for name in names}
        for name, shapes in calls.items():
            def spy(m, *args, _real=getattr(np.linalg, name), _shapes=shapes, **kwargs):
                _shapes.append(np.shape(m))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    return record


def random_signal(rng, L):
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def random_unit_window(rng, L):
    from gaborkit import Window

    return Window.unit(random_signal(rng, L), "random")


def dense_gramian_spectrum(G, L, rng):
    """Ascending eigenvalues of a dense Gramian ``G`` of rank at most ``L``,
    and a bound on their error beyond the eigensolver's.

    Up to ``n = 2L`` this is ``eigvalsh(G)`` with bound 0.  Above, ``G`` is
    compressed onto its range: with ``Q`` an orthonormal basis of ``G @ X``
    for a random n x (L + 8) ``X``, the eigenvalues of ``Q^H G Q`` padded
    with zeros are those of ``Q Q^H G Q Q^H``, which differ from ``G``'s by
    at most ``2 * |G - G Q Q^H|_F`` (Weyl), the returned bound.  This costs
    O(n^2 L) instead of O(n^3).
    """
    n = G.shape[0]
    if n <= 2 * L:
        return np.linalg.eigvalsh(G), 0.0
    q, _ = np.linalg.qr(G @ random_signal(rng, n * (L + 8)).reshape(n, L + 8))
    gq = G @ q
    eigs = np.linalg.eigvalsh(q.conj().T @ gq)
    slack = 2 * np.linalg.norm(G - gq @ q.conj().T)
    return np.sort(np.concatenate([eigs, np.zeros(n - eigs.size)])), slack


def fiber_block_shape(lattice):
    """Shape of the window-factor blocks whose batched SVD gives
    ``SystemSpectra.synthesis``: the ``sigma = 0`` fiber's (d, c) blocks of
    size q x p, not the factor's d*q*c."""
    from gaborkit.operators import _factor_sizes

    c, p, q, d = _factor_sizes(lattice)
    return (d, c, q, p)
