"""The four canonical operators of a Gabor system on a separable lattice,
and the window factor that every fast route reads.

For a window ``g`` and lattice ``Lam`` the system's atoms are the shifted
windows ``shift(lam) g, lam in Lam``: the coefficient (analysis) map
``C f = (<f, shift(lam) g>)_lam``, the synthesis map ``D c = sum_lam c_lam
shift(lam) g``, the frame operator ``S = D C`` (L x L) and the Gramian
``G = C D`` (n x n), both Hermitian PSD.  ``D`` is the conjugate transpose
of ``C`` entrywise, so ``<C f, c> = <f, D c>`` holds exactly.  The dense
builders, refused beyond a hard entry budget, are the reference the fast
routes are tested against (``notes/decisions.md``).

The matrix-free maps have two routes, chosen by the window's exact zeros
alone.  A painless window (Daubechies-Grossmann-Meyer), whose nonzeros lie
in one circular interval of at most ``M = L/b`` samples, meets each
frequency period once, so the grid is one product, one length-M FFT per
time row and one phase (:func:`_painless_analyze`), and beside their grids
the painless maps hold O(L) entries.  Every other window goes through the
Zak domain (Zibulski-Zeevi; LTFAT's ``comp_wfac``).  With
``M = L/b`` and ``N = L/a`` the block sizes are

    c = gcd(a, M),   p = a/c,   q = M/c,   d = N/q = b/p,

and ``t = rho + c*sigma + M*m`` splits the time axis.  The window factor,
``c*q*d`` blocks of q x p in the layout ``(d, q, c, q, p)``, holds the
conjugated Zak transforms (:func:`_zak`) of the first q window translates;
:func:`_window_factor` reads them all from one Zak table of the window and
returns them as a strided view of it, ``(T + 1)*L`` entries with
``T <= q - 1`` and ``T = 1`` when ``p = 1 < q``, so no map holds the q*L
entries of the blocks themselves.

This module is the one owner of that layout.  The maps run the factor on
the Zak transform of the signal; :func:`frame_operator_apply` is D after C
through them, on either route, which makes it the check of the dual.  The
rest reads the ``sigma = 0`` fiber ``W0``, L entries of the window's Zak
transform and one phase (:func:`_fiber`); block ``sigma`` is ``R W0 B``
with R and B unitary (:func:`_covariance`).  One batched SVD of the fiber,
each value q times, is the synthesis spectrum, whose squares are the
nonzero S and G spectra (:class:`SystemSpectra`; only this module writes
to an entry); its null vectors moved by R span the kernel, and one p x p
block ``(M/p) W0^H W0`` per ``(nu1, rho)`` solves ``S^-1 f`` through B.
The analysis spectrum stays dense, so the harness compares dense C against
the fiber's D, and a lattice's fiber against its adjoint's.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GaborkitError, MemoryGuardError, ShapeMismatchError
from .lattice import SeparableLattice, TwistedSequence, _check_length, _finite_fault, _samples
from .lattice import root_of_unity
from .tolerances import _lattice_cutoff, _rank

#: Hard cap on total entries of any dense matrix or block stack (~256 MiB
#: complex): n*L for the analysis spectrum's atom stack.  The spectra, the
#: kernel and the dual charge the L entries of the sigma = 0 fiber plus what
#: they make from it; a function that holds an n-entry grid it does not
#: return charges that grid (``notes/decisions.md``).
MAX_DENSE_ENTRIES = 1 << 24


@dataclass
class Window:
    """A window vector plus provenance.

    Analysis windows are unit-norm; build them with :meth:`unit`, which
    normalizes and records the original norm.  Dual windows keep their
    canonical (non-unit) scale and are constructed directly.
    """

    samples: np.ndarray
    label: str = ""
    original_norm: float = 1.0

    def __post_init__(self):
        self.samples = window_samples(self.samples)
        if self.samples.ndim != 1:
            raise ShapeMismatchError(f"window must be a vector, got shape {self.samples.shape}")
        if fault := _finite_fault(self.samples, "window"):
            raise ShapeMismatchError(fault)
        if not np.any(self.samples):
            raise ShapeMismatchError("window must not be identically zero")

    @classmethod
    def unit(cls, samples, label=""):
        """Normalize ``samples`` to unit l2 norm and record the original norm.

        An exact power-of-two scaling of ``max|g|`` into [1/2, 1) keeps the sum
        of squares from underflowing or overflowing; where ``norm(g)`` is
        representable the result is bit for bit numpy's ``g / norm(g)``."""
        samples = cls(samples).samples  # a finite nonzero vector
        exp = math.frexp(float(np.max(np.abs(samples))))[1]
        scaled = np.ldexp(samples.view(float), -exp).view(complex)
        norm = float(np.linalg.norm(scaled))
        # numpy divides by a norm as g * (1/norm); below the smallest normal
        # double, the reciprocal of the unscaled norm overflows.
        unit = scaled / norm if exp < -1021 else samples * math.ldexp(1.0 / norm, -exp)
        # Two exact factors: a norm beyond the double range is inf, not an error.
        original = norm * 2.0 ** (exp // 2) * 2.0 ** (exp - exp // 2)
        return cls(samples=unit, label=label, original_norm=original)

    @property
    def length(self) -> int:
        return self.samples.shape[0]


def window_samples(g) -> np.ndarray:
    """A Window's samples, or a bare vector of numbers as complex."""
    return g.samples if isinstance(g, Window) else _samples(g, "window samples")


def _translates(g, lattice):
    """Stack of circular translates g((t - k*a) mod L), shape (n_time, L),
    of a window refused unless its length is L."""
    L, a = lattice.L, lattice.a
    g = _check_length(L, window_samples(g), "window")
    t = np.arange(L)
    idx = (t[None, :] - a * np.arange(lattice.n_time)[:, None]) % L
    return g[idx]


def _guard_dense(entries, what):
    if entries > MAX_DENSE_ENTRIES:
        raise MemoryGuardError(
            f"{what} would need {entries} entries (cap {MAX_DENSE_ENTRIES}); "
            "use the matrix-free maps instead"
        )


def _svd(matrix, what, **kwargs):
    """``np.linalg.svd(matrix)``; a failure to converge, as on non-finite
    entries, is a :class:`GaborkitError` naming ``what``."""
    try:
        return np.linalg.svd(matrix, **kwargs)
    except np.linalg.LinAlgError as err:
        raise GaborkitError(f"{what}: {err}; are its entries finite?") from None


def _factor_sizes(lattice):
    """Block sizes ``(c, p, q, d)`` of the window factorization, with
    ``M = L/b``, ``N = L/a``: ``c = gcd(a, M)``, ``a = c*p``, ``M = c*q``,
    ``N = q*d`` and ``b = p*d``."""
    n_freq = lattice.n_freq
    c = math.gcd(lattice.a, n_freq)
    p = lattice.a // c
    return c, p, n_freq // c, lattice.b // p


def _zak(lattice, f, norm=None):
    """The Zak transform, shape (..., L) -> (..., d, q, c, p): entry
    ``[nu1, sigma, rho, nu2]`` is the length-b DFT over ``m`` of
    ``f(rho + c*sigma + M*m)`` at ``nu = nu1 + d*nu2``, scaled as ``norm``
    scales :func:`numpy.fft.fft`."""
    c, p, q, d = _factor_sizes(lattice)
    lead, k = f.shape[:-1], f.ndim - 1  # transpose, as moveaxis costs ~3 us a call
    zak = np.fft.fft(f.reshape(*lead, lattice.b, lattice.n_freq), axis=-2, norm=norm)
    return zak.reshape(*lead, p, d, q, c).transpose(*range(k), k + 1, k + 2, k + 3, k)


def _unzak(lattice, zak):
    """The inverse of :func:`_zak`, shape (..., d, q, c, p) -> (..., L)."""
    lead, k = zak.shape[:-4], zak.ndim - 4
    rows = zak.transpose(*range(k), k + 3, k, k + 1, k + 2).reshape(*lead, lattice.b, lattice.n_freq)
    return np.fft.ifft(rows, axis=-2).reshape(*lead, lattice.L)


def _view(base, offset, shape, strides):
    """A view of ``base``; ``offset`` and ``strides`` count its items."""
    size = base.itemsize
    return np.ndarray(shape, base.dtype, base, offset * size, [s * size for s in strides])


def _wrap_phase(b, p, q):
    """``exp(2*pi*i*nu*(p // q)*k0/b)``, shape (p, d, 1, 1, q): see :func:`_window_factor`."""
    nu_k0 = np.outer(np.arange(b), (p // q) * np.arange(q)) % b
    return np.exp(2j * np.pi / b * nu_k0).reshape(p, b // p, 1, 1, q)


def _window_factor(g, lattice):
    """The window factor of ``g`` on ``lattice`` and the scale ``sqrt(M/p)``:
    ``c*q*d`` blocks ``W[nu1, sigma, rho]`` of q x p (``k0`` x ``nu2``),
    shape (d, q, c, q, p), where ``W[..., k0, :]`` is the conjugated Zak
    transform of the translate ``g(t - k0*a)``.  Up to unitary FFTs, C is
    the block diagonal of the blocks times the scale.

    Built from one Zak table by the shift identity, not from q translates.
    The translate by ``k0*a`` moves ``sigma`` to ``sigma - p*k0``, and the
    Zak transform is quasi-periodic in ``sigma``: a step of q multiplies it
    by ``exp(2*pi*i*nu/b)``.  Write ``p = p' + q*w`` with ``p' < q``.  One
    FFT of length b over ``T + 1`` consecutive periods of g,
    ``T = ceil(p'*(q-1)/q)``, is a table of the Zak transform at every
    ``sigma - p'*k0``, at most q*L entries; row ``k0`` of every block is a
    fixed stride into it, so the blocks are a strided view of the table,
    conjugated in place.  The view is read-only, as the rows of different
    ``k0`` share entries.  The ``w*k0`` whole periods left over are the
    phase of :func:`_wrap_phase`, which is 1 unless p > q > 1; only there
    are the blocks a q*L copy.
    """
    L = lattice.L
    g = _check_length(L, window_samples(g), "window")
    c, p, q, d = _factor_sizes(lattice)
    b, M = lattice.b, lattice.n_freq
    step = p % q
    extra = -(-step * (q - 1) // q)  # T
    # Row m + i of the periods is g(t + M*(m + i - T)), 0 <= t < M, so the
    # FFT over m is the Zak transform at sigma + q*(i - T).
    periods = np.concatenate((g[L - extra * M:], g))
    table = np.fft.fft(_view(periods, 0, (b, extra + 1, M), (M, M, 1)), axis=0)
    np.conj(table, out=table)
    width = (extra + 1) * M
    # [nu2, nu1, sigma, rho, k0]
    view = _view(table, extra * M, (p, d, q, c, q), (d * width, width, c, 1, -step * c))
    if p > q > 1:
        view = view * _wrap_phase(b, p, q)
    view.flags.writeable = False  # rows of different k0 share entries of the table
    return view.transpose(1, 2, 3, 4, 0), math.sqrt(M / p)


def _fiber(g, lattice):
    """``_window_factor(g, lattice)`` at ``sigma = 0`` alone: ``d*c`` blocks
    of q x p, shape (d, c, q, p), L entries, and the scale.  Row ``k0`` of
    block ``(nu1, rho)`` is the conjugated Zak transform of g (:func:`_zak`)
    at ``sigma = s``, times ``exp(-2*pi*i*nu*j/b)`` with ``nu = nu1 +
    d*nu2``, where ``-p*k0 = s + q*j`` with ``0 <= s < q``."""
    _, p, q, d = _factor_sizes(lattice)
    j, s = np.divmod(-p * np.arange(q), q)
    zak = _zak(lattice, _check_length(lattice.L, window_samples(g), "window"))
    fiber = np.take(zak.transpose(3, 0, 2, 1), s, axis=-1)  # [nu2, nu1, rho, k0]
    np.conj(fiber, out=fiber)
    fiber *= root_of_unity(-np.arange(lattice.b).reshape(p, d, 1, 1) * j, lattice.b)
    return fiber.transpose(1, 2, 3, 0), math.sqrt(lattice.n_freq / p)


def _covariance(lattice, sigma, k0):
    """``(rows, dj)``, broadcast over ``sigma`` and ``k0``: row ``k0`` of the
    factor's block ``sigma`` is fiber row ``rows`` times
    ``exp(-2*pi*i*nu*dj/b)``.  As ``dj`` mod p does not depend on ``k0``,
    the block is ``R W0 B`` with R the permutation and the phase in ``nu1``,
    and B the diagonal ``exp(-2*pi*i*nu2*dj/p)`` (``notes/decisions.md``)."""
    _, p, q, _ = _factor_sizes(lattice)
    rows = (k0 - sigma * pow(p, -1, q)) % q
    return rows, (sigma - p * (k0 - rows)) // q


def _to_grid(values, lattice):
    """Block entries ``[..., nu1, k0, sigma, rho]`` to grid sequences, in
    place: an unscaled length-d inverse FFT over ``nu1 -> k2`` and a
    length-M FFT over ``rho + c*sigma``, to grid row ``k0 + q*k2``."""
    np.fft.ifft(values, axis=-4, norm="forward", out=values)
    grid = values.reshape(*values.shape[:-4], *lattice.grid_shape)
    return np.fft.fft(grid, axis=-1, out=grid)


def _analyze(blocks, lattice, f):
    """Coefficients of ``f`` from the window-factor blocks, shape (L/a, L/b).

    The contraction is written straight into the ``[nu1, k0, sigma, rho]``
    layout of :func:`_to_grid`; ``1/b`` is the Zak transform's ``norm``."""
    d, q, c = blocks.shape[:3]
    zak = _zak(lattice, f, norm="forward")
    grid = np.empty((d, q, q, c), dtype=complex)
    np.einsum("nsrv,nsrkv->nksr", zak, blocks, out=grid)
    return _to_grid(grid, lattice)


def _synthesize(blocks, lattice, values):
    """The exact adjoint of :func:`_analyze`: a length-L signal per grid of
    ``values``, shape (..., L/a, L/b) -> (..., L).

    ``sum conj(W) R = conj(sum W conj(R))``: the rows are conjugated as
    they are copied from ``values`` and the L-size result at the end, so no
    conjugate of the blocks is made.  The FFTs run in place, and ``1/b`` is
    the last one's ``norm``."""
    d, q, c, _, p = blocks.shape
    lead = values.shape[:-2]
    rows = np.conj(values)  # conj(M * IFFT_M(values)) = FFT_M(conj(values))
    np.fft.fft(rows, axis=-1, out=rows)
    rows = rows.reshape(*lead, d, q, q, c)
    np.fft.ifft(rows, axis=-4, norm="forward", out=rows)
    zak = np.empty((*lead, p, d, q, c), dtype=complex)  # the (b, M) rows of the Zak domain
    np.einsum("nsrkv,...nksr->...vnsr", blocks, rows, out=zak)
    signal = zak.reshape(*lead, lattice.b, lattice.n_freq)
    np.fft.fft(signal, axis=-2, norm="forward", out=signal)
    return np.conj(signal, out=signal).reshape(*lead, lattice.L)


def _frame_inverse_apply(g, lattice, f):
    """``S^-1 f``: S's p x p block at ``sigma`` is ``B^H H B`` with
    ``H = (M/p) W0^H W0`` (:func:`_covariance`), so one batched solve of the
    ``d*c`` blocks H takes every ``sigma`` of the Zak transform of ``f``,
    phased by B.  Charges the fiber, H and that transform to the cap."""
    c, p, q, d = _factor_sizes(lattice)
    _guard_dense(2 * lattice.L + d * c * p * p, "frame blocks")
    fiber, _ = _fiber(g, lattice)
    gram = lattice.n_freq / p * (np.conj(fiber).swapaxes(-1, -2) @ fiber)
    dj = _covariance(lattice, np.arange(q), 0)[1]
    phase = root_of_unity(-np.outer(dj, np.arange(p)), p)[:, None, :]  # [sigma, rho, nu2]
    zak = _zak(lattice, f) * phase  # [nu1, sigma, rho, nu2]
    solved = np.linalg.solve(gram, zak.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return _unzak(lattice, np.multiply(solved, np.conj(phase), out=solved))


def _spectrum(svals, q):
    """D's spectrum from the fiber's singular values: descending, each q times."""
    return np.repeat(np.sort(svals, axis=None)[::-1], q)


def _synthesis_kernel(g, lattice, tol_scale, spectra):
    """Orthonormal null vectors of the synthesis map on ``lattice``, shape
    (dim, L/a, L/b).  Up to unitary FFTs D is the block diagonal of the
    blocks' conjugate transposes, so its nullspace is the sum of their left
    nullspaces, placed on the grid as :func:`_analyze` places its blocks.
    Block ``sigma`` is ``R W0 B`` (:func:`_covariance`), so its null vectors
    are R times the fiber's past its rank at the lattice cutoff, from one
    SVD that also fills ``synthesis`` in ``spectra`` (new when None)."""
    cut = _lattice_cutoff(lattice, tol_scale)
    L, n = lattice.L, lattice.cardinality
    c, p, q, d = _factor_sizes(lattice)
    # The fiber holds L entries, U n and V^H (L/q)*min(p, q).
    _guard_dense(L + n + L // q * min(p, q), "kernel block SVD")
    spectra = _spectra_for(g, lattice, spectra)
    fiber, scale = _fiber(g, lattice)
    # Columns of U past min(p, q) exist only with full matrices; V^H is then p x p < q x q.
    u, svals, _ = _svd(fiber, "kernel block SVD", full_matrices=q > p)
    svals *= scale
    # cached_property keeps a computed spectrum in the instance dict.
    vars(spectra).setdefault("synthesis", _spectrum(svals, q))
    rank = _rank(svals, cut, axis=-1)[:, None, :, None]  # [nu1, sigma, rho, col]
    nu1, sigma, rho, col = np.nonzero(np.broadcast_to(np.arange(q) >= rank, (d, q, c, q)))
    dim = nu1.size
    _guard_dense(dim * max(L, n), "kernel basis")
    rows, dj = _covariance(lattice, sigma[:, None], np.arange(q))
    values = np.zeros((dim, d, q, q, c), dtype=complex)
    values[np.arange(dim), nu1, :, sigma, rho] = root_of_unity(
        -nu1[:, None] * dj, lattice.b
    ) * u[nu1[:, None], rho[:, None], rows, col[:, None]]
    grids = _to_grid(values, lattice)
    return np.divide(grids, np.linalg.norm(grids, axis=(1, 2), keepdims=True), out=grids)


def _painless_span(g, lattice):
    """``(s0, g[s0 : s0 + M])``, indices mod L, when the nonzeros of ``g``
    lie in one circular interval ``[s0, s0 + W)`` with ``W <= M = L/b``;
    otherwise None.  Exact zeros only.  A window with more than M nonzeros
    is refused by one count, before any span search."""
    L, M = lattice.L, lattice.n_freq
    # A sample is nonzero when either double is (-0.0 is a zero): its two
    # comparisons read as one uint16.  Vectorized, unlike the complex
    # comparison, so the count costs 24 us at L = 65536 instead of 210 us.
    pairs = (g.view(float) != 0).view(np.uint16)
    if not 0 < np.count_nonzero(pairs) <= M:
        return None
    nonzero = np.flatnonzero(pairs != 0)
    gaps = np.diff(nonzero, append=nonzero[0] + L)  # to the next nonzero, circularly
    last = int(np.argmax(gaps))
    if L - gaps[last] >= M:  # the span is L - gap + 1
        return None
    s0 = int(nonzero[(last + 1) % nonzero.size])
    return s0, g[(s0 + np.arange(M)) % L]


@lru_cache(maxsize=16)
def _roll_phase(M, a, e0):
    """``exp(-2*pi*i*e_i*l/M)``, ``e_i = (e0 + i*a) mod M``, shape (q, M),
    read-only; None when it is all ones (``q = 1`` and ``e0 = 0``)."""
    q = M // math.gcd(a, M)
    if q == 1 and e0 == 0:
        return None
    phase = root_of_unity(-np.outer((e0 + a * np.arange(q)) % M, np.arange(M)), M)
    phase.flags.writeable = False
    return phase


def _painless_analyze(lattice, s0, window, f):
    """:func:`_analyze` when ``window = g[s0 : s0 + M]`` holds the support:
    row k is the FFT of ``f(s0 + k*a + j) conj(window[j])`` times the phase
    of a roll by ``(s0 + k*a) mod M``, set by ``k mod q`` (:func:`_roll_phase`)."""
    L, a, M = lattice.L, lattice.a, lattice.n_freq
    ext = f  # f from s0, circularly, and the M - a samples the last rows read past L
    if s0 or M > a:
        ext = np.empty(L + max(M - a, 0), dtype=complex)
        ext[: L - s0], ext[L - s0 : L] = f[s0:], f[:s0]
        ext[L:] = ext[: ext.size - L]
    grid = np.multiply(_view(ext, 0, lattice.grid_shape, (a, 1)), np.conj(window))
    np.fft.fft(grid, axis=1, out=grid)
    if (phase := _roll_phase(M, a, s0 % M)) is not None:
        np.multiply(slabs := grid.reshape(-1, *phase.shape), phase, out=slabs)
    return grid


def _painless_synthesize(lattice, s0, window, values):
    """The exact adjoint of :func:`_painless_analyze`, shape (..., L/a, L/b)
    -> (..., L), per slab of rows ``k = i mod q``: the conjugate phase, an
    inverse FFT (``norm`` "forward" is the factor M) and the window, added
    into a view of an ``L + p*M - a`` buffer whose rows, ``q*a = p*M >= M``
    apart, do not overlap; the tail past L folds back, then a roll by s0."""
    L, a, M = lattice.L, lattice.a, lattice.n_freq
    _, p, q, d = _factor_sizes(lattice)
    grid = values.reshape(-1, d, q, M)
    phase = _roll_phase(M, a, s0 % M)
    size = L + p * M - a
    signal = np.zeros((grid.shape[0], size), dtype=complex)
    slab = np.empty((grid.shape[0], d, M), dtype=complex)
    for i, rows in enumerate(grid.transpose(2, 0, 1, 3)):
        rows = rows if phase is None else np.multiply(rows, np.conj(phase[i]), out=slab)
        np.fft.ifft(rows, axis=-1, norm="forward", out=slab)
        slab *= window
        into = signal[:, i * a : i * a + d * p * M].reshape(-1, d, p * M)[:, :, :M]
        into += slab
    signal[:, : size - L] += signal[:, L:]
    signal = signal[:, :L] if s0 == 0 else np.roll(signal[:, :L], s0, axis=-1)
    return signal.reshape(*values.shape[:-2], L)


def coefficient_map(g, lattice: SeparableLattice, f) -> TwistedSequence:
    """Analysis coefficients ``c[k, l] = <f, shift((k*a, l*b)) g>``.

    Row ``k`` is the length-M FFT of ``F[k, r] = sum_m f(r + M*m)
    conj(g(r + M*m - k*a))``.  Two routes, chosen by the window's exact
    zeros alone:

    * painless: the nonzeros of ``g`` lie in one circular interval of at
      most ``M = L/b`` samples.  Then each ``F[k, r]`` has one term: one
      product over a strided view of ``f``, one length-M FFT per row and
      one phase, work O(n*log(M)), memory one grid and O(L).
    * Zak: otherwise.  Splitting ``r = rho + c*sigma`` and
      ``k = k0 + q*k2`` turns the fold over ``m`` into the Zak transform
      of ``f`` times the window factor, summed over the ``p`` aliases
      ``nu1 + d*nu2`` and inverted by a length-d FFT over ``k2``.  Memory
      one grid and the factor's Zak table, ``(T + 1)*L`` entries
      (:func:`_window_factor`; 2*L when ``p = 1 < q``), and work
      O(q*L*log(b) + n*log(n)), against O(L*L/a) for the fold itself
      (``L/a = q*d``).
    """
    f = _check_length(lattice.L, f)
    g = _check_length(lattice.L, window_samples(g), "window")
    span = _painless_span(g, lattice)
    if span is not None:
        return TwistedSequence(_painless_analyze(lattice, *span, f), lattice)
    return TwistedSequence(_analyze(_window_factor(g, lattice)[0], lattice, f), lattice)


def synthesis_map(g, lattice: SeparableLattice, coeffs) -> np.ndarray:
    """Synthesize ``sum_{k,l} c[k, l] * shift((k*a, l*b)) g``.

    The exact adjoint of :func:`coefficient_map`, on the same route.  The
    painless route takes one slab of L/p entries at a time, the rows ``k =
    i mod q``: its conjugate phase, an inverse length-M FFT and the window,
    added through one strided view into the signal, so beside the grids it
    is given it holds O(L).  The Zak route runs through the window factor:
    per time row an inverse length-M FFT, a length-d FFT over ``k2``, the
    conjugated factor summed over ``k0``, and an inverse Zak transform.
    Each costs what its :func:`coefficient_map` costs.  A stack of
    coefficient grids, shape (..., L/a, L/b), gives one signal per grid
    from one window; a :class:`TwistedSequence` must lie on ``lattice``.
    """
    if isinstance(coeffs, TwistedSequence):
        if coeffs.lattice != lattice:
            raise ShapeMismatchError("coefficients indexed by a different lattice")
        values = coeffs.values
    else:
        values = _samples(coeffs, "coefficients")
        if values.shape[-2:] != lattice.grid_shape:
            raise ShapeMismatchError(
                f"coefficient shape {values.shape} does not match lattice grid "
                f"{lattice.grid_shape}"
            )
    g = _check_length(lattice.L, window_samples(g), "window")
    span = _painless_span(g, lattice)
    if span is not None:
        return _painless_synthesize(lattice, *span, values)
    return _synthesize(_window_factor(g, lattice)[0], lattice, values)


def frame_operator_apply(g, lattice: SeparableLattice, f) -> np.ndarray:
    """``S f = D C f`` through the two maps, so it checks the dual's fiber
    solve (:func:`_frame_inverse_apply`).  Its n-entry grid is charged to the cap."""
    f = _check_length(lattice.L, f)
    _guard_dense(lattice.cardinality, "frame operator grid")
    return synthesis_map(g, lattice, coefficient_map(g, lattice, f))


def atom_stack(g, lattice: SeparableLattice) -> np.ndarray:
    """All atoms ``shift(lam) g`` as rows, flat grid order, shape (n, L)."""
    L = lattice.L
    _guard_dense(lattice.cardinality * L, "atom stack")
    phases = root_of_unity((lattice.b * np.arange(lattice.n_freq))[:, None] * np.arange(L), L)
    atoms = _translates(g, lattice)[:, None, :] * phases[None, :, :]
    return atoms.reshape(lattice.cardinality, L)


def analysis_matrix(g, lattice: SeparableLattice) -> np.ndarray:
    """Dense n x L matrix of the coefficient map (rows are conjugate atoms)."""
    return np.conj(atom_stack(g, lattice))


def synthesis_matrix(g, lattice: SeparableLattice) -> np.ndarray:
    """Dense L x n matrix of the synthesis map; the exact conjugate
    transpose of :func:`analysis_matrix`."""
    return atom_stack(g, lattice).T.copy()


def frame_operator_matrix(g, lattice: SeparableLattice) -> np.ndarray:
    """Dense frame operator S, built from its lattice band structure.

    Summing the modulation geometric series first gives

        S[t, s] = (L/b) * [t = s mod L/b] * sum_k g(t - k*a) conj(g(s - k*a)),

    which is independent of the D @ C product path and is used to
    cross-check it.
    """
    L = lattice.L
    _guard_dense(L * L, "frame operator matrix")
    tr = _translates(g, lattice)
    corr = tr.T @ np.conj(tr)
    t = np.arange(L)
    mask = ((t[:, None] - t[None, :]) % lattice.n_freq) == 0
    return lattice.n_freq * corr * mask


def shift_autocorrelation(g, lattice: SeparableLattice) -> TwistedSequence:
    """The window's shift autocorrelation ``a[lam] = <g, shift(lam) g>``."""
    g = _check_length(lattice.L, window_samples(g), "window")
    return coefficient_map(g, lattice, g)


def _twisted_matrix(values, lattice: SeparableLattice) -> np.ndarray:
    """The n x n matrix of right twisted multiplication by ``values`` (see
    :mod:`gaborkit.twisted`) on flat grid order,
    ``M[lam, mu] = exp(-2*pi*i*mu_1*(lam_2 - mu_2)/L) * values[lam - mu]``:
    the Gramian when ``values`` is the shift autocorrelation.  Gathered as
    ``[k, l, k', l']`` and phased in place, so it holds n^2 + n*L/b entries."""
    L, n, (nt, nf) = lattice.L, lattice.cardinality, lattice.grid_shape
    _guard_dense(n * n, "twisted multiplier matrix")
    dk = (np.arange(nt)[:, None] - np.arange(nt)) % nt  # [k, k']
    dl = (np.arange(nf)[:, None, None] - np.arange(nf)) % nf  # [l, 1, l']
    out = values[dk[:, None, :, None], dl]
    out *= root_of_unity(-(np.arange(nt)[:, None] * lattice.a) * ((dl * lattice.b) % L), L)
    return out.reshape(n, n)


def gramian_matrix(g, lattice: SeparableLattice) -> np.ndarray:
    """Dense Gramian ``G[lam, mu] = <shift(mu) g, shift(lam) g>``.

    Filled from the autocorrelation sequence and the composition phases,

        G[lam, mu] = exp(-2*pi*i*mu_1*(lam_2 - mu_2)/L) * a[lam - mu],

    an independent route from the C @ D product.  Hermitian PSD with unit
    diagonal for unit-norm windows.
    """
    n = lattice.cardinality
    _guard_dense(n * n, "Gramian matrix")
    return _twisted_matrix(shift_autocorrelation(g, lattice).values, lattice)


class SystemSpectra:
    """The spectra of one window on one lattice.  Two are decomposed on
    first use and then kept, singular values (descending) of C, from the
    dense matrix, and of D, from one batched SVD of the fiber, built and
    dropped; the eigenvalues (ascending) of S and G are D's squared.  The
    root entry, made with no ``table``, refuses a nan or inf window sample.
    ``table`` maps each lattice to the window's live entry (:meth:`on`), so
    each spectrum is computed once per (window, lattice); :attr:`adjoint` is
    the adjoint lattice's entry.  The table holds its entries weakly and an
    entry holds those it made, so no entry is in a reference cycle: reference
    counting frees an entry, and all it made, as soon as its caller drops it."""

    def __init__(self, g, lattice: SeparableLattice, *, table=None):
        if table is None and (fault := _finite_fault(window_samples(g), "window")):
            raise ShapeMismatchError(fault)
        self.g = g
        self.lattice = lattice
        self.table = weakref.WeakValueDictionary() if table is None else table
        self.table[lattice] = self
        self._made = []

    def on(self, lattice: SeparableLattice) -> "SystemSpectra":
        """The same window's spectra on ``lattice``, from the shared table;
        an entry made here lives as long as this one."""
        entry = self.table.get(lattice)
        if entry is None:
            entry = SystemSpectra(self.g, lattice, table=self.table)
            self._made.append(entry)
        return entry

    @property
    def adjoint(self) -> "SystemSpectra":
        return self.on(self.lattice.adjoint())

    def _squared_synthesis(self, size, what):
        """:attr:`synthesis` squared, ascending, after ``size - min(L, n)`` zeros."""
        _guard_dense(self.lattice.L + size, what)
        svals = self.synthesis
        return np.concatenate([np.zeros(size - svals.size), svals[::-1] ** 2])

    @property
    def frame(self) -> np.ndarray:
        """Eigenvalues of ``S = D C = D D^H``; no L x L matrix is built."""
        return self._squared_synthesis(self.lattice.L, "frame spectrum")

    @property
    def gramian(self) -> np.ndarray:
        """Eigenvalues of ``G = C D = D^H D``; no n x n matrix is built."""
        return self._squared_synthesis(self.lattice.cardinality, "Gramian spectrum")

    @cached_property
    def analysis(self) -> np.ndarray:
        return _svd(analysis_matrix(self.g, self.lattice), "analysis matrix", compute_uv=False)

    @cached_property
    def synthesis(self) -> np.ndarray:
        """D's ``min(L, n)`` singular values: the ``sigma = 0`` fiber's, each q times."""
        lattice = self.lattice
        _guard_dense(lattice.L + min(lattice.L, lattice.cardinality), "synthesis blocks")
        fiber, scale = _fiber(self.g, lattice)
        svals = scale * _svd(fiber, "synthesis blocks", compute_uv=False)
        return _spectrum(svals, _factor_sizes(lattice)[2])


def _spectra_for(g, lattice: SeparableLattice, spectra=None) -> SystemSpectra:
    """The caller's entry ``spectra`` for ``g`` on ``lattice``, else a new
    one.  An entry for another lattice or other window samples is refused
    with :class:`ShapeMismatchError`, as its spectra would answer for the
    wrong system."""
    if spectra is None:
        return SystemSpectra(g, lattice)
    if spectra.lattice != lattice:
        raise ShapeMismatchError(f"spectra entry is for {spectra.lattice}, not {lattice}")
    if spectra.g is not g and not np.array_equal(window_samples(spectra.g), window_samples(g)):
        raise ShapeMismatchError("spectra entry is for another window")
    return spectra


def operator_norms(g, lattice: SeparableLattice, *, spectra=None) -> dict:
    """Operator norms of C, D, S, G plus the l1 autocorrelation row sum.
    All four are the largest singular value of the synthesis blocks or its
    square, as ``C = D^H``, ``S = D D^H`` and ``G = D^H D``; no matrix is
    built, and the tests check the four against the dense matrices.  The
    autocorrelation grid, n entries, is charged to the cap."""
    _guard_dense(lattice.cardinality, "autocorrelation grid")
    spectra = _spectra_for(g, lattice, spectra)
    norm_d = float(spectra.synthesis[0])
    acf = shift_autocorrelation(g, lattice)
    return {
        "norm_C": norm_d,
        "norm_D": norm_d,
        "norm_S": norm_d * norm_d,
        "norm_G": norm_d * norm_d,
        "autocorrelation_l1": float(np.sum(np.abs(acf.values))),
    }
