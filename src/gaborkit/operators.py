"""The four canonical operators of a Gabor system on a separable lattice.

For a window ``g`` and lattice ``Lam`` the system's atoms are the shifted
windows ``shift(lam) g, lam in Lam``.  The toolkit provides

* the coefficient (analysis) map  ``C f = (<f, shift(lam) g>)_lam``,
* the synthesis map               ``D c = sum_lam c_lam shift(lam) g``,
* the frame operator              ``S = D C``  (L x L, Hermitian PSD),
* the Gramian                     ``G = C D``  (n x n, Hermitian PSD),

both as explicit matrices for spectral diagnostics and as matrix-free
applications for long signals.  ``D`` is the conjugate transpose of ``C``
entrywise, so the adjointness ``<C f, c> = <f, D c>`` holds exactly.

The matrix-free routes are factorized in the Zak domain (Zibulski-Zeevi;
LTFAT's ``comp_wfac``).  With ``M = L/b`` and ``N = L/a`` the block sizes are

    c = gcd(a, M),   p = a/c,   q = M/c,   d = N/q = b/p,

and ``t = rho + c*sigma + M*m`` splits the time axis.  :func:`_zak` (a
length-b FFT over ``m``) and :func:`_unzak` are the Zak transform and its
inverse.  The window factor, ``c*q*d`` blocks of q x p (``q*L`` entries),
holds the conjugated Zak transforms of the first q window translates;
:func:`_window_factor` reads them all from one Zak table of the window by
the shift identity, with no translate gathered.  The maps are the factor
times the Zak transform of the signal plus FFTs of length d and M, run in
place on one grid-sized array, with the scalings folded into the FFTs'
``norm``.  S acts on the Zak transform as the p x p blocks ``(M/p) W^H W``,
so the canonical dual is one batched solve of them (:func:`_frame_solve`).
The synthesis spectrum is one batched SVD of the blocks, and the frame
operator and Gramian spectra are its squares, as ``S = D D^H`` and
``G = D^H D`` (:class:`SystemSpectra`).  The analysis spectrum stays dense,
so the harness compares two routes: dense C against the blocks' D, and a
lattice's blocks against those of its adjoint, built from other translates.
The dense builders, refused beyond a hard entry budget, are the reference
the factorized routes are tested against (``notes/decisions.md``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import MemoryGuardError, ShapeMismatchError
from .lattice import SeparableLattice

#: Hard cap on total entries of any dense matrix or block stack (~256 MiB
#: complex): n*L for the analysis spectrum's atom stack, q*L for a factor.
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
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1:
            raise ShapeMismatchError(f"window must be a vector, got shape {self.samples.shape}")
        if not np.any(self.samples):
            raise ShapeMismatchError("window must not be identically zero")

    @classmethod
    def unit(cls, samples, label=""):
        """Normalize ``samples`` to unit l2 norm and record the original norm.

        An exact power-of-two scaling of ``max|g|`` into [1/2, 1) keeps the sum
        of squares from underflowing or overflowing; where ``norm(g)`` is
        representable the result is bit for bit numpy's ``g / norm(g)``."""
        samples = np.ascontiguousarray(samples, dtype=complex)
        peak = float(np.max(np.abs(samples), initial=0.0))
        if peak == 0.0:
            raise ShapeMismatchError("window must not be identically zero")
        exp = math.frexp(peak)[1]
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


@dataclass
class LatticeCoefficients:
    """A coefficient array on a lattice grid, shape (L/a, L/b)."""

    values: np.ndarray
    lattice: SeparableLattice = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.lattice.grid_shape:
            raise ShapeMismatchError(
                f"coefficient shape {self.values.shape} does not match lattice grid "
                f"{self.lattice.grid_shape}"
            )

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def window_samples(g) -> np.ndarray:
    """Accept a Window or a bare vector."""
    if isinstance(g, Window):
        return g.samples
    return np.asarray(g, dtype=complex)


def _check_signal(lattice, f):
    f = np.asarray(f, dtype=complex)
    if f.shape != (lattice.L,):
        raise ShapeMismatchError(f"expected a length-{lattice.L} signal, got shape {f.shape}")
    return f


def _translates(g, lattice):
    """Stack of circular translates g((t - k*a) mod L), shape (n_time, L)."""
    L, a = lattice.L, lattice.a
    t = np.arange(L)
    idx = (t[None, :] - a * np.arange(lattice.n_time)[:, None]) % L
    return g[idx]


def _guard_dense(entries, what):
    if entries > MAX_DENSE_ENTRIES:
        raise MemoryGuardError(
            f"{what} would need {entries} entries (cap {MAX_DENSE_ENTRIES}); "
            "use the matrix-free maps instead"
        )


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


@lru_cache(maxsize=64)
def _wrap_phase(b, p, q):
    """``exp(2*pi*i*nu*w*k0/b)`` with ``w = p // q``, shape (p, d, 1, 1, q),
    read-only: see :func:`_window_factor`.  Cached, as at small L building
    it costs as much as the rest of the factor."""
    nu_k0 = np.outer(np.arange(b), (p // q) * np.arange(q)) % b
    phase = np.exp(2j * np.pi / b * nu_k0).reshape(p, b // p, 1, 1, q)
    phase.flags.writeable = False
    return phase


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
    fixed stride into it, so the blocks are one conjugating strided copy.
    The ``w*k0`` whole periods left over are the phase of
    :func:`_wrap_phase`, which is 1 unless p > q > 1.
    """
    g = window_samples(g)
    L = lattice.L
    if g.shape != (L,):
        raise ShapeMismatchError(f"window length {g.shape} does not match L={L}")
    c, p, q, d = _factor_sizes(lattice)
    b, M = lattice.b, lattice.n_freq
    step = p % q
    extra = -(-step * (q - 1) // q)  # T
    # Row m + i of the periods is g(t + M*(m + i - T)), 0 <= t < M, so the
    # FFT over m is the Zak transform at sigma + q*(i - T).
    periods = np.concatenate((g[L - extra * M:], g))
    table = np.fft.fft(_view(periods, 0, (b, extra + 1, M), (M, M, 1)), axis=0)
    width = (extra + 1) * M
    blocks = np.empty((d, q, c, q, p), dtype=complex)
    view = blocks.transpose(4, 0, 1, 2, 3)  # [nu2, nu1, sigma, rho, k0]
    np.conj(_view(table, extra * M, (p, d, q, c, q), (d * width, width, c, 1, -step * c)), out=view)
    if p > q > 1:
        view *= _wrap_phase(b, p, q)
    return blocks, math.sqrt(M / p)


def _analyze(blocks, lattice, f):
    """Coefficients of ``f`` from the window-factor blocks, shape (L/a, L/b).

    The contraction is written straight into the grid's ``[nu1, k0, sigma,
    rho]`` layout and both FFTs run in place; ``1/b`` is the Zak
    transform's ``norm``."""
    d, q, c = blocks.shape[:3]
    zak = _zak(lattice, f, norm="forward")
    grid = np.empty((d, q, q, c), dtype=complex)
    np.einsum("nsrv,nsrkv->nksr", zak, blocks, out=grid)
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    grid = grid.reshape(lattice.grid_shape)
    return np.fft.fft(grid, axis=1, out=grid)


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


def _frame_solve(blocks, lattice, f):
    """``S^-1 f`` from the window-factor blocks: one batched solve of the
    p x p blocks ``(M/p) W^H W`` on the Zak transform of ``f``; the blocks
    and the factor, ``(p + q)*L`` entries, are charged to the cap."""
    _guard_dense(lattice.L * sum(blocks.shape[-2:]), "frame blocks")
    frame_blocks = lattice.n_freq / blocks.shape[-1] * (np.conj(blocks).swapaxes(-1, -2) @ blocks)
    return _unzak(lattice, np.linalg.solve(frame_blocks, _zak(lattice, f)[..., None])[..., 0])


def coefficient_map(g, lattice: SeparableLattice, f) -> LatticeCoefficients:
    """Analysis coefficients ``c[k, l] = <f, shift((k*a, l*b)) g>``.

    Factorized through the Zak transform.  Row ``k`` is the length-M FFT
    of ``F[k, r] = sum_m f(r + M*m) conj(g(r + M*m - k*a))``.  Splitting
    ``r = rho + c*sigma`` and ``k = k0 + q*k2`` turns the fold over ``m``
    into the Zak transform of ``f`` times the window factor, summed over
    the ``p`` aliases ``nu1 + d*nu2`` and inverted by a length-d FFT over
    ``k2``.  Memory O(q*L) and work O(q*L*log(b) + n*log(n)), against
    O(L*L/a) for the fold itself (``L/a = q*d``).
    """
    f = _check_signal(lattice, f)
    return LatticeCoefficients(_analyze(_window_factor(g, lattice)[0], lattice, f), lattice)


def synthesis_map(g, lattice: SeparableLattice, coeffs) -> np.ndarray:
    """Synthesize ``sum_{k,l} c[k, l] * shift((k*a, l*b)) g``.

    The exact adjoint of :func:`coefficient_map`, through the same window
    factor: per time row an inverse length-M FFT, a length-d FFT over
    ``k2``, the conjugated factor summed over ``k0``, and an inverse Zak
    transform.  Same cost as :func:`coefficient_map`.  A stack of
    coefficient grids, shape (..., L/a, L/b), gives one signal per grid
    from one window factor.
    """
    if isinstance(coeffs, LatticeCoefficients):
        if coeffs.lattice != lattice:
            raise ShapeMismatchError("coefficients indexed by a different lattice")
        values = coeffs.values
    else:
        values = np.asarray(coeffs, dtype=complex)
        if values.shape[-2:] != lattice.grid_shape:
            raise ShapeMismatchError(
                f"coefficient shape {values.shape} does not match lattice grid "
                f"{lattice.grid_shape}"
            )
    return _synthesize(_window_factor(g, lattice)[0], lattice, values)


def frame_operator_apply(g, lattice: SeparableLattice, f) -> np.ndarray:
    """Apply S = D C without forming matrices, from one window factor; not
    through the p x p blocks of :func:`_frame_solve`, so it checks that solve."""
    f = _check_signal(lattice, f)
    blocks, _ = _window_factor(g, lattice)
    return _synthesize(blocks, lattice, _analyze(blocks, lattice, f))


def atom_stack(g, lattice: SeparableLattice) -> np.ndarray:
    """All atoms ``shift(lam) g`` as rows, flat grid order, shape (n, L)."""
    g = window_samples(g)
    L = lattice.L
    _guard_dense(lattice.cardinality * L, "atom stack")
    t = np.arange(L)
    phases = np.exp(
        2j * np.pi * (((lattice.b * np.arange(lattice.n_freq))[:, None] * t[None, :]) % L) / L
    )
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
    g = window_samples(g)
    L = lattice.L
    _guard_dense(L * L, "frame operator matrix")
    tr = _translates(g, lattice)
    corr = tr.T @ np.conj(tr)
    t = np.arange(L)
    mask = ((t[:, None] - t[None, :]) % lattice.n_freq) == 0
    return lattice.n_freq * corr * mask


def shift_autocorrelation(g, lattice: SeparableLattice) -> LatticeCoefficients:
    """The window's shift autocorrelation ``a[lam] = <g, shift(lam) g>``."""
    g = window_samples(g)
    return coefficient_map(g, lattice, g)


def _twisted_matrix(values, lattice: SeparableLattice, *, left=False) -> np.ndarray:
    """The n x n matrix of twisted multiplication by ``values`` (see
    :mod:`gaborkit.twisted`) on flat grid order.  Right multiplication,
    ``M[lam, mu] = exp(-2*pi*i*mu_1*(lam_2 - mu_2)/L) * values[lam - mu]``,
    is the Gramian when ``values`` is the shift autocorrelation; ``left``
    takes the phase ``exp(-2*pi*i*(lam_1 - mu_1)*mu_2/L)`` instead."""
    L = lattice.L
    kv, lv = np.divmod(np.arange(lattice.cardinality), lattice.n_freq)
    dk = (kv[:, None] - kv[None, :]) % lattice.n_time
    dl = (lv[:, None] - lv[None, :]) % lattice.n_freq
    k, l = (dk, lv[None, :]) if left else (kv[None, :], dl)
    expo = (-(k * lattice.a) * ((l * lattice.b) % L)) % L
    return values[dk, dl] * np.exp(2j * np.pi * expo / L)


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
    """The spectra of one window on one lattice, each decomposed on first
    use and then kept; the matrices are not kept.

    Eigenvalues (ascending) of S and G, and singular values (descending) of
    C and D.  D's come from one batched SVD of the window-factor blocks
    (:attr:`factor`), and S's and G's are their squares, as ``S = D D^H``
    and ``G = D^H D``; C's come from the dense matrix.  ``table`` maps each
    lattice to the window's live entry there (:meth:`on`), so each spectrum
    is computed once per (window, lattice); :attr:`adjoint` is the adjoint
    lattice's entry.  The table holds its entries weakly and an entry holds those it
    made, so no entry is in a reference cycle: reference counting frees an
    entry, with every entry it made, as soon as its caller drops it."""

    def __init__(self, g, lattice: SeparableLattice, *, table=None):
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

    @cached_property
    def factor(self):
        """The blocks and scale of :func:`_window_factor`; readers guard its q*L entries."""
        return _window_factor(self.g, self.lattice)

    def _squared_synthesis(self, size, what):
        """:attr:`synthesis` squared, ascending, after ``size - min(L, n)`` zeros."""
        lattice = self.lattice
        _guard_dense(_factor_sizes(lattice)[2] * lattice.L + size, what)
        svals = self.synthesis
        return np.concatenate([np.zeros(size - svals.size), svals[::-1] ** 2])

    @cached_property
    def frame(self) -> np.ndarray:
        """Eigenvalues of ``S = D C = D D^H``; no L x L matrix is built."""
        return self._squared_synthesis(self.lattice.L, "frame spectrum")

    @cached_property
    def gramian(self) -> np.ndarray:
        """Eigenvalues of ``G = C D = D^H D``; no n x n matrix is built."""
        return self._squared_synthesis(self.lattice.cardinality, "Gramian spectrum")

    @cached_property
    def analysis(self) -> np.ndarray:
        return np.linalg.svd(analysis_matrix(self.g, self.lattice), compute_uv=False)

    @cached_property
    def synthesis(self) -> np.ndarray:
        """D's ``min(L, n)`` singular values, one batched SVD of the blocks."""
        lattice = self.lattice
        q = _factor_sizes(lattice)[2]
        _guard_dense(q * lattice.L + min(lattice.L, lattice.cardinality), "synthesis blocks")
        blocks, scale = self.factor
        return np.sort(scale * np.linalg.svd(blocks, compute_uv=False), axis=None)[::-1]


def operator_norms(g, lattice: SeparableLattice, *, spectra=None) -> dict:
    """Operator norms of C, D, S, G plus the l1 autocorrelation row sum.
    All four are the largest singular value of the synthesis blocks or its
    square, as ``C = D^H``, ``S = D D^H`` and ``G = D^H D``; no matrix is
    built, and the tests check the four against the dense matrices."""
    spectra = spectra or SystemSpectra(g, lattice)
    norm_d = float(spectra.synthesis[0])
    acf = shift_autocorrelation(g, lattice)
    return {
        "norm_C": norm_d,
        "norm_D": norm_d,
        "norm_S": norm_d * norm_d,
        "norm_G": norm_d * norm_d,
        "autocorrelation_l1": float(np.sum(np.abs(acf.values))),
    }
