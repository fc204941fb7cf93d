"""Independent brute-force reference implementations.

Everything here is written loop-by-loop from the defining formulas, with no
FFTs, no vectorized index tricks, and no reuse of the library's internal
paths, so that library outputs can be checked against a genuinely separate
computation.  Phases are factored out of explicit matrix products where the
defining property is an operator identity.
"""

import numpy as np


def naive_shift(L, z, f):
    x, xi = z[0] % L, z[1] % L
    out = np.zeros(L, dtype=complex)
    for t in range(L):
        out[t] = np.exp(2j * np.pi * xi * t / L) * f[(t - x) % L]
    return out


def naive_shift_matrix(L, z):
    out = np.zeros((L, L), dtype=complex)
    eye = np.eye(L, dtype=complex)
    for j in range(L):
        out[:, j] = naive_shift(L, z, eye[:, j])
    return out


def naive_inner(f, h):
    total = 0.0 + 0.0j
    for t in range(len(f)):
        total += f[t] * np.conj(h[t])
    return total


def oracle_compose_phase(L, lam, mu):
    """Phase in shift(lam) shift(mu) = phase * shift(lam+mu), factored from
    explicit matrix products."""
    prod = naive_shift_matrix(L, lam) @ naive_shift_matrix(L, mu)
    total = naive_shift_matrix(L, ((lam[0] + mu[0]) % L, (lam[1] + mu[1]) % L))
    idx = np.unravel_index(np.argmax(np.abs(total)), total.shape)
    return prod[idx] / total[idx]


def lattice_points(L, a, b):
    return [((k * a) % L, (l * b) % L) for k in range(L // a) for l in range(L // b)]


def naive_coefficients(L, a, b, g, f):
    nt, nf = L // a, L // b
    out = np.zeros((nt, nf), dtype=complex)
    for k in range(nt):
        for l in range(nf):
            atom = naive_shift(L, (k * a, l * b), g)
            out[k, l] = naive_inner(f, atom)
    return out


def naive_synthesis(L, a, b, g, c):
    out = np.zeros(L, dtype=complex)
    for k in range(L // a):
        for l in range(L // b):
            out += c[k, l] * naive_shift(L, (k * a, l * b), g)
    return out


def naive_frame_matrix(L, a, b, g):
    out = np.zeros((L, L), dtype=complex)
    for (x, xi) in lattice_points(L, a, b):
        atom = naive_shift(L, (x, xi), g)
        out += np.outer(atom, np.conj(atom))
    return out


def naive_gramian(L, a, b, g):
    pts = lattice_points(L, a, b)
    n = len(pts)
    out = np.zeros((n, n), dtype=complex)
    for i, lam in enumerate(pts):
        for j, mu in enumerate(pts):
            out[i, j] = naive_inner(naive_shift(L, mu, g), naive_shift(L, lam, g))
    return out


def naive_twisted(L, a, b, A, B):
    """Twisted convolution with phases factored from matrix products."""
    nt, nf = L // a, L // b
    out = np.zeros((nt, nf), dtype=complex)
    for k in range(nt):
        for l in range(nf):
            for kk in range(nt):
                for ll in range(nf):
                    dk, dl = (k - kk) % nt, (l - ll) % nf
                    lam = ((kk * a) % L, (ll * b) % L)
                    mu = ((dk * a) % L, (dl * b) % L)
                    out[k, l] += A[kk, ll] * B[dk, dl] * oracle_compose_phase(L, lam, mu)
    return out


def naive_represent(L, a, b, A):
    out = np.zeros((L, L), dtype=complex)
    for k in range(L // a):
        for l in range(L // b):
            out += A[k, l] * naive_shift_matrix(L, ((k * a) % L, (l * b) % L))
    return out


def naive_stft_norm(f, phi, p):
    L = len(f)
    vals = []
    for x in range(L):
        for xi in range(L):
            vals.append(abs(naive_inner(f, naive_shift(L, (x, xi), phi))))
    vals = np.array(vals)
    if p == 1:
        return vals.sum()
    if p == 2:
        return np.sqrt((vals**2).sum())
    return vals.max()


def naive_character_residuals(L, a, b, g):
    """``|D chi| / |chi|`` for every character ``chi`` of the lattice grid,
    with the synthesis matrix D built atom by atom."""
    nt, nf = L // a, L // b
    points = [(k, l) for k in range(nt) for l in range(nf)]
    D = np.array([naive_shift(L, (k * a, l * b), g) for k, l in points]).T
    out = np.zeros((nt, nf))
    for x1 in range(nt):
        for x2 in range(nf):
            char = np.array([np.exp(2j * np.pi * (x1 * k / nt + x2 * l / nf)) for k, l in points])
            out[x1, x2] = np.linalg.norm(D @ char) / np.linalg.norm(char)
    return out


def translate_window_factor(L, a, b, g):
    """The window factor in its translate form, shape (d, q, c, q, p):
    ``W[nu1, sigma, rho, k0, nu2]`` is the conjugated length-b DFT over
    ``m`` of the translate ``g(rho + c*sigma + M*m - k0*a)`` at
    ``nu = nu1 + d*nu2``, with ``M = L/b``, ``c = gcd(a, M)``, ``a = c*p``,
    ``M = c*q`` and ``b = p*d``.  The q translates are gathered one by one
    and the DFT is an explicit matrix product."""
    M = L // b
    c = int(np.gcd(a, M))
    p, q = a // c, M // c
    d = b // p
    m = np.arange(b)
    dft = np.exp(-2j * np.pi * (np.outer(m, m) % b) / b)
    zak = np.zeros((q, b, M), dtype=complex)
    for k0 in range(q):
        translate = np.array([g[(t - k0 * a) % L] for t in range(L)])
        zak[k0] = dft @ translate.reshape(b, M)
    # [k0, nu2, nu1, sigma, rho] -> [nu1, sigma, rho, k0, nu2]
    return np.conj(zak).reshape(q, p, d, q, c).transpose(2, 3, 4, 0, 1)


def padded_spectrum(values, multiplicity, zeros=0):
    """A compact spectrum written out in full: ``zeros`` exact zeros, then
    each of ``values``, in order, ``multiplicity`` times."""
    out = [0.0] * zeros
    for value in values:
        out += [float(value)] * multiplicity
    return np.array(out)


def naive_reading(values, need, cutoff):
    """``(missing, deciding, margin)`` of a padded descending spectrum,
    value by value: how many of its first ``need`` values are at most
    ``cutoff`` times the largest, the ``need``-th value (zero past the end)
    and that value, clipped at zero, over the largest over the cutoff."""
    largest = float(values[0])
    missing = need
    for value in values[:need]:
        if value > cutoff * largest:
            missing -= 1
    deciding = float(values[need - 1]) if len(values) >= need else 0.0
    margin = max(deciding, 0.0) / largest / cutoff if largest > 0 else 0.0
    return missing, deciding, margin
