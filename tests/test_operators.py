"""Analysis, synthesis, frame and Gramian operators."""

import numpy as np
import pytest

from gaborkit import (
    FiniteModel,
    MemoryGuardError,
    SeparableLattice,
    ShapeMismatchError,
    Window,
    analysis_matrix,
    atom_stack,
    check_all_conditions,
    coefficient_map,
    cross_gramian,
    frame_operator_apply,
    frame_operator_matrix,
    gramian_matrix,
    janssen_coefficients,
    operator_norms,
    periodized_gaussian,
    shift_autocorrelation,
    shift_matrix,
    synthesis_map,
    synthesis_matrix,
    tf_shift,
)
from conftest import random_signal, random_unit_window
from oracles import naive_coefficients, naive_frame_matrix, naive_gramian, naive_synthesis


def delta_window(L, k=0):
    out = np.zeros(L, dtype=complex)
    out[k] = 1.0
    return Window.unit(out, f"delta{k}")


def test_window_unit_normalizes():
    w = Window.unit(np.full(4, 2.0), "flat")
    assert np.isclose(np.linalg.norm(w.samples), 1.0)
    assert np.isclose(w.original_norm, 4.0)
    with pytest.raises(ShapeMismatchError):
        Window.unit(np.zeros(4), "zero")


def test_window_unit_extreme_scales(rng):
    # Bit for bit g / norm(g) wherever that norm is representable.
    for L in (8, 192, 1024):
        gauss = np.exp(-np.arange(L) ** 2 / (L / 4)).astype(complex)
        for g in (random_signal(rng, L), gauss, 1e-150 * gauss, 1e100 * random_signal(rng, L)):
            w = Window.unit(g)
            assert np.array_equal(w.samples, g / np.linalg.norm(g))
            assert w.original_norm == np.linalg.norm(g)
    # Far outside, the plain sum of squares underflows or overflows.
    for value in (1e-200, 1e200, 5e-324, 1.7e308):
        w = Window.unit(np.array([value, value, 0, 0]))
        assert np.allclose(w.samples, [2**-0.5, 2**-0.5, 0, 0], rtol=1e-15)
        assert np.isclose(w.original_norm, value * 2**0.5, rtol=1e-15)  # inf at 1.7e308


def test_window_unit_complex_modulus_beyond_the_double_range():
    # Each part is finite but |1.5e308 * (1 + 1j)| overflows: the scaling
    # reads the largest part, so nothing overflows and the norm is inf.
    w = Window.unit(np.full(4, 1.5e308 * (1 + 1j)))
    assert np.allclose(w.samples, (1 + 1j) / (2 * np.sqrt(2)), rtol=1e-15, atol=0)
    assert w.original_norm == np.inf


def test_coefficients_delta_full_lattice():
    L = 6
    lat = SeparableLattice(L, 1, 1)
    c = coefficient_map(delta_window(L), lat, delta_window(L).samples)
    assert np.allclose(c.values[0, :], 1.0, atol=1e-14)
    assert np.allclose(c.values[1:, :], 0.0, atol=1e-14)


def test_coefficients_zero_signal():
    lat = SeparableLattice(8, 2, 4)
    g = Window.unit(periodized_gaussian(8), "g")
    c = coefficient_map(g, lat, np.zeros(8, dtype=complex))
    assert np.all(c.values == 0)


@pytest.mark.parametrize("L,a,b", [(8, 2, 2), (12, 3, 4), (12, 1, 12), (10, 5, 2), (9, 3, 3)])
def test_coefficients_match_oracle(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    f = random_signal(rng, L)
    got = coefficient_map(g, lat, f).values
    want = naive_coefficients(L, a, b, g.samples, f)
    assert np.allclose(got, want, atol=1e-12)


def test_coefficients_of_window_itself_equal_scaled_janssen():
    # Self-adjoint lattice: analysis of the window against itself is the
    # covolume times the adjoint shift-series coefficients.
    L = 12
    lat = SeparableLattice(L, 3, 4)
    g = Window.unit(periodized_gaussian(L), "g")
    c = coefficient_map(g, lat, g.samples)
    a = janssen_coefficients(g, lat)
    assert np.isclose(c.values[0, 0], 1.0, atol=1e-12)
    assert np.allclose(c.values, lat.covolume * a.values, atol=1e-12)


@pytest.mark.parametrize("L,a,b", [(8, 2, 2), (12, 3, 4), (12, 12, 1), (10, 2, 5)])
def test_synthesis_matches_oracle(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    c = random_signal(rng, lat.cardinality).reshape(lat.grid_shape)
    got = synthesis_map(g, lat, c)
    want = naive_synthesis(L, a, b, g.samples, c)
    assert np.allclose(got, want, atol=1e-12)


def test_synthesis_point_mass_returns_window(rng):
    lat = SeparableLattice(12, 3, 4)
    g = random_unit_window(rng, 12)
    c = np.zeros(lat.grid_shape, dtype=complex)
    c[0, 0] = 1.0
    assert np.allclose(synthesis_map(g, lat, c), g.samples, atol=1e-14)


def test_adjointness(rng):
    for (L, a, b) in [(8, 2, 2), (12, 3, 4), (16, 4, 2)]:
        lat = SeparableLattice(L, a, b)
        g = random_unit_window(rng, L)
        for _ in range(20):
            f = random_signal(rng, L)
            c = random_signal(rng, lat.cardinality).reshape(lat.grid_shape)
            lhs = np.vdot(c, coefficient_map(g, lat, f).values)  # <Cf, c> conj-linear 2nd
            rhs = np.vdot(synthesis_map(g, lat, c), f)
            assert abs(np.conj(lhs) - np.conj(rhs)) < 1e-12


def test_matrices_are_exact_conjugate_transposes(rng):
    lat = SeparableLattice(12, 2, 3)
    g = random_unit_window(rng, 12)
    C = analysis_matrix(g, lat)
    D = synthesis_matrix(g, lat)
    assert np.array_equal(C.conj().T, D)


def test_matrix_free_matches_matrices(rng):
    lat = SeparableLattice(16, 4, 2)
    g = random_unit_window(rng, 16)
    f = random_signal(rng, 16)
    C = analysis_matrix(g, lat)
    assert np.allclose(C @ f, coefficient_map(g, lat, f).flat, atol=1e-12)
    c = random_signal(rng, lat.cardinality)
    D = synthesis_matrix(g, lat)
    assert np.allclose(D @ c, synthesis_map(g, lat, c.reshape(lat.grid_shape)), atol=1e-12)
    S = frame_operator_matrix(g, lat)
    assert np.allclose(S @ f, frame_operator_apply(g, lat, f), atol=1e-12)


def test_frame_operator_full_lattice_is_L_times_identity(rng):
    L = 10
    lat = SeparableLattice(L, 1, 1)
    g = random_unit_window(rng, L)
    S = frame_operator_matrix(g, lat)
    assert np.allclose(S, L * np.eye(L), atol=1e-11)
    assert np.allclose(naive_frame_matrix(L, 1, 1, g.samples), L * np.eye(L), atol=1e-11)


def test_frame_operator_translates_onb():
    L = 8
    lat = SeparableLattice(L, 1, L)
    S = frame_operator_matrix(delta_window(L), lat)
    assert np.allclose(S, np.eye(L), atol=1e-13)


@pytest.mark.parametrize("L,a,b", [(8, 2, 2), (12, 3, 4), (12, 4, 3), (9, 3, 3)])
def test_frame_operator_matches_oracle_and_factorization(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    S = frame_operator_matrix(g, lat)
    assert np.allclose(S, naive_frame_matrix(L, a, b, g.samples), atol=1e-11)
    C = analysis_matrix(g, lat)
    D = synthesis_matrix(g, lat)
    assert np.linalg.norm(S - D @ C) <= 1e-12 * max(1.0, np.linalg.norm(S))
    G = gramian_matrix(g, lat)
    assert np.linalg.norm(G - C @ D) <= 1e-12 * max(1.0, np.linalg.norm(G))


def test_frame_operator_hermitian_psd(rng):
    lat = SeparableLattice(12, 2, 3)
    g = random_unit_window(rng, 12)
    S = frame_operator_matrix(g, lat)
    assert np.allclose(S, S.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(S)[0] >= -1e-12


def test_gramian_onb_identity():
    L = 8
    lat = SeparableLattice(L, 1, L)
    G = gramian_matrix(delta_window(L), lat)
    assert np.allclose(G, np.eye(L), atol=1e-13)


@pytest.mark.parametrize("L,a,b", [(8, 2, 2), (12, 3, 4), (10, 2, 5)])
def test_gramian_matches_oracle(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    G = gramian_matrix(g, lat)
    assert np.allclose(G, naive_gramian(L, a, b, g.samples), atol=1e-11)
    assert np.allclose(np.diag(G), 1.0, atol=1e-12)
    assert np.allclose(G, G.conj().T, atol=1e-12)


def test_gramian_nonzero_spectrum_matches_frame_operator(rng):
    lat = SeparableLattice(12, 2, 2)
    g = random_unit_window(rng, 12)
    eig_S = np.linalg.eigvalsh(frame_operator_matrix(g, lat))
    eig_G = np.linalg.eigvalsh(gramian_matrix(g, lat))
    nz_S = np.sort(eig_S[eig_S > 1e-9])
    nz_G = np.sort(eig_G[eig_G > 1e-9])
    assert nz_G.size >= nz_S.size
    assert np.allclose(nz_G[-nz_S.size:], nz_S, atol=1e-9)


def test_operator_norm_consistency(rng):
    lat = SeparableLattice(12, 3, 2)
    g = random_unit_window(rng, 12)
    norms = operator_norms(g, lat)
    assert np.isclose(norms["norm_S"], norms["norm_G"], rtol=1e-12, atol=1e-12)
    assert np.isclose(norms["norm_C"] ** 2, norms["norm_S"], rtol=1e-12, atol=1e-12)
    assert np.isclose(norms["norm_D"] ** 2, norms["norm_G"], rtol=1e-12, atol=1e-12)
    assert np.isfinite(norms["autocorrelation_l1"])
    # All four read one block SVD; the dense matrices are the other route.
    dense = {
        "norm_C": np.linalg.norm(analysis_matrix(g, lat), 2),
        "norm_D": np.linalg.norm(synthesis_matrix(g, lat), 2),
        "norm_S": np.linalg.eigvalsh(frame_operator_matrix(g, lat))[-1],
        "norm_G": np.linalg.eigvalsh(gramian_matrix(g, lat))[-1],
    }
    for key, want in dense.items():
        assert np.isclose(norms[key], want, rtol=1e-12, atol=0.0), key
    # Coefficient norm bound through the Gramian operator norm.
    for _ in range(10):
        f = random_signal(rng, 12)
        cf = np.linalg.norm(coefficient_map(g, lat, f).values)
        assert cf <= np.sqrt(norms["norm_G"]) * np.linalg.norm(f) * (1 + 1e-12)


def test_frame_operator_commutes_with_lattice_shifts(rng):
    lat = SeparableLattice(12, 4, 3)
    g = random_unit_window(rng, 12)
    S = frame_operator_matrix(g, lat)
    m = FiniteModel(12)
    for lam in lat.points():
        M = shift_matrix(m, tuple(lam))
        assert np.allclose(S @ M, M @ S, atol=1e-10)


def test_autocorrelation_matches_direct(rng):
    lat = SeparableLattice(8, 2, 4)
    g = random_unit_window(rng, 8)
    acf = shift_autocorrelation(g, lat)
    m = FiniteModel(8)
    for k in range(lat.n_time):
        for l in range(lat.n_freq):
            want = np.vdot(tf_shift(m, lat.point(k, l), g.samples), g.samples)
            assert np.isclose(acf.values[k, l], want, atol=1e-12)


def test_synthesis_alternating_critical_is_annihilated():
    # Critical square lattice, symmetric window: the alternating sequence
    # synthesizes to zero (exact cancellation; see the gallery tests).
    L = 16
    lat = SeparableLattice(L, 4, 4)
    g = Window.unit(periodized_gaussian(L), "g")
    k = np.arange(4)[:, None]
    l = np.arange(4)[None, :]
    c = ((-1.0) ** (k + l)).astype(complex)
    out = synthesis_map(g, lat, c)
    assert np.linalg.norm(out) / np.linalg.norm(c) < 1e-14


def test_memory_guard():
    lat = SeparableLattice(8192, 1, 1)
    g = np.zeros(8192)
    g[0] = 1.0
    with pytest.raises(MemoryGuardError):
        analysis_matrix(Window.unit(g, "d"), lat)
    with pytest.raises(MemoryGuardError):
        frame_operator_matrix(Window.unit(g, "d"), lat)


def test_shape_errors(rng):
    lat = SeparableLattice(8, 2, 4)
    g = random_unit_window(rng, 8)
    with pytest.raises(ShapeMismatchError):
        coefficient_map(g, lat, np.ones(7))
    with pytest.raises(ShapeMismatchError):
        synthesis_map(g, lat, np.ones((3, 3)))
    other = SeparableLattice(8, 4, 2)
    c = coefficient_map(g, other, random_signal(rng, 8))
    with pytest.raises(ShapeMismatchError):
        synthesis_map(g, lat, c)


DENSE_BUILDERS = {
    "atom_stack": atom_stack,
    "analysis_matrix": analysis_matrix,
    "synthesis_matrix": synthesis_matrix,
    "frame_operator_matrix": frame_operator_matrix,
    "gramian_matrix": gramian_matrix,
    "cross_gramian_phi": lambda g, lat: cross_gramian(g, np.ones(lat.L), lat),
    "cross_gramian_g": lambda g, lat: cross_gramian(np.ones(lat.L), g, lat),
    "check_all_conditions": check_all_conditions,
}


@pytest.mark.parametrize("length", [10, 14], ids=["short", "long"])
@pytest.mark.parametrize("name", DENSE_BUILDERS)
def test_dense_builders_refuse_a_window_of_the_wrong_length(name, length):
    # A long window was truncated and a short one ended in an IndexError.
    with pytest.raises(ShapeMismatchError, match=rf"length-12 window, got shape \({length},\)"):
        DENSE_BUILDERS[name](np.arange(1, length + 1), SeparableLattice(12, 2, 3))
