"""Twisted convolution algebra, shift-series representation, inversion,
kernels and the commutative index."""

import numpy as np
import pytest

from gaborkit import (
    CutoffError,
    FiniteModel,
    NonCommutativeLatticeError,
    NotAFrameError,
    SeparableLattice,
    ShapeMismatchError,
    SingularAlgebraError,
    SystemSpectra,
    TwistedSequence,
    Window,
    WindowRecipe,
    algebra_adjoint,
    compose_shifts,
    divisor_pairs,
    duality_check,
    frame_operator_matrix,
    gramian_matrix,
    index_commutative,
    janssen_coefficients,
    kernel_basis,
    make_window,
    margin_cutoff,
    partition_of_unity_kernel,
    periodized_gaussian,
    represent,
    right_multiplier_matrix,
    shift_autocorrelation,
    synthesis_map,
    synthesis_matrix,
    twisted_convolve,
    twisted_invert,
    wexler_raz_dual,
)
from gaborkit.operators import _factor_sizes
from conftest import random_signal, random_unit_window
from oracles import naive_character_residuals, naive_represent, naive_twisted, padded_spectrum


def random_sequence(rng, lat):
    return TwistedSequence(random_signal(rng, lat.cardinality).reshape(lat.grid_shape), lat)


def test_delta_is_unit(rng):
    lat = SeparableLattice(8, 2, 2)
    a = random_sequence(rng, lat)
    d = TwistedSequence.delta(lat)
    assert np.allclose(twisted_convolve(a, d).values, a.values, atol=1e-13)
    assert np.allclose(twisted_convolve(d, a).values, a.values, atol=1e-13)


def test_point_mass_product_is_composition_phase():
    lat = SeparableLattice(12, 3, 4)
    m = FiniteModel(12)
    for (k1, l1, k2, l2) in [(1, 0, 0, 1), (2, 3, 1, 2), (3, 1, 2, 2)]:
        a = TwistedSequence.point_mass(lat, k1, l1)
        b = TwistedSequence.point_mass(lat, k2, l2)
        prod = twisted_convolve(a, b)
        phase, _ = compose_shifts(m, lat.point(k1, l1), lat.point(k2, l2))
        want = np.zeros(lat.grid_shape, dtype=complex)
        want[(k1 + k2) % lat.n_time, (l1 + l2) % lat.n_freq] = phase
        assert np.allclose(prod.values, want, atol=1e-14)


@pytest.mark.parametrize("L,a,b", [(8, 2, 2), (12, 3, 4), (6, 2, 3)])
def test_twisted_matches_oracle(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    A = random_sequence(rng, lat)
    B = random_sequence(rng, lat)
    got = twisted_convolve(A, B).values
    want = naive_twisted(L, a, b, A.values, B.values)
    assert np.allclose(got, want, atol=1e-11)


def test_homomorphism_random(rng):
    lat = SeparableLattice(8, 2, 2)
    for _ in range(10):
        A = random_sequence(rng, lat)
        B = random_sequence(rng, lat)
        lhs = represent(twisted_convolve(A, B))
        rhs = represent(A) @ represent(B)
        scale = np.linalg.norm(represent(A)) * np.linalg.norm(represent(B))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_associativity(rng):
    lat = SeparableLattice(12, 4, 3)
    A, B, C = (random_sequence(rng, lat) for _ in range(3))
    left = twisted_convolve(twisted_convolve(A, B), C)
    right = twisted_convolve(A, twisted_convolve(B, C))
    assert np.allclose(left.values, right.values, atol=1e-11)


def test_represent_matches_oracle(rng):
    lat = SeparableLattice(8, 4, 2)
    A = random_sequence(rng, lat)
    assert np.allclose(represent(A), naive_represent(8, 4, 2, A.values), atol=1e-12)


def test_represent_point_mass():
    lat = SeparableLattice(8, 2, 4)
    w = 0.7 - 0.2j
    A = TwistedSequence.point_mass(lat, 3, 1, w)
    m = FiniteModel(8)
    from gaborkit import shift_matrix

    assert np.allclose(represent(A), w * shift_matrix(m, lat.point(3, 1)), atol=1e-14)


def test_represent_delta_is_identity():
    lat = SeparableLattice(10, 2, 5)
    assert np.allclose(represent(TwistedSequence.delta(lat)), np.eye(10), atol=0)


def test_represent_injective_on_full_lattice(rng):
    # The L^2 shifts are trace-orthogonal, so the representation has a
    # uniformly invertible Gram matrix and a vanishing series forces zero
    # coefficients.
    L = 4
    lat = SeparableLattice(L, 1, 1)
    A = random_sequence(rng, lat)
    M = represent(A)
    assert np.linalg.norm(M) >= np.sqrt(L) * A.norm2() * (1 - 1e-12)


def test_involution(rng):
    for (L, a, b) in [(8, 2, 2), (12, 3, 4)]:
        lat = SeparableLattice(L, a, b)
        A = random_sequence(rng, lat)
        assert np.allclose(represent(algebra_adjoint(A)), represent(A).conj().T, atol=1e-11)


def test_young_inequality(rng):
    lat = SeparableLattice(12, 3, 4)
    for _ in range(20):
        A = random_sequence(rng, lat)
        B = random_sequence(rng, lat)
        assert twisted_convolve(A, B).norm2() <= A.norm2() * B.norm1() * (1 + 1e-12)


def test_janssen_full_lattice(rng):
    L = 6
    lat = SeparableLattice(L, 1, 1)
    g = random_unit_window(rng, L)
    coeffs = janssen_coefficients(g, lat)
    assert coeffs.lattice.cardinality == 1
    assert np.isclose(coeffs.values[0, 0], L, rtol=1e-12)
    assert np.allclose(represent(coeffs), frame_operator_matrix(g, lat), atol=1e-10)


def test_janssen_translates_onb():
    L = 8
    d = np.zeros(L)
    d[0] = 1.0
    g = Window.unit(d, "delta")
    lat = SeparableLattice(L, 1, L)
    coeffs = janssen_coefficients(g, lat)
    want = np.zeros(coeffs.lattice.grid_shape)
    want[0, 0] = 1.0
    assert np.allclose(coeffs.values, want, atol=1e-14)
    assert np.allclose(represent(coeffs), np.eye(L), atol=1e-13)


@pytest.mark.parametrize("L,a,b", [(12, 3, 4), (16, 2, 2), (12, 2, 3), (18, 3, 3)])
def test_janssen_identity_random(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    S = frame_operator_matrix(g, lat)
    P = represent(janssen_coefficients(g, lat))
    assert np.linalg.norm(S - P) <= 1e-12 * np.linalg.norm(S)


def test_invert_delta():
    lat = SeparableLattice(8, 2, 2)
    d = TwistedSequence.delta(lat)
    assert np.allclose(twisted_invert(d).values, d.values, atol=1e-13)


def test_invert_autocorrelation_of_onb():
    L = 8
    d = np.zeros(L)
    d[0] = 1.0
    g = Window.unit(d, "delta")
    lat = SeparableLattice(L, 1, L)
    seq = janssen_coefficients(g, lat)  # equals the unit sequence
    inv = twisted_invert(seq)
    assert np.allclose(inv.values, TwistedSequence.delta(seq.lattice).values, atol=1e-12)


@pytest.mark.parametrize("L,a,b", [(12, 3, 4), (16, 2, 2), (12, 2, 2)])
def test_invert_janssen_gives_inverse_frame_operator(rng, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    coeffs = janssen_coefficients(g, lat)
    inv = twisted_invert(coeffs)
    d = TwistedSequence.delta(coeffs.lattice)
    assert np.allclose(twisted_convolve(coeffs, inv).values, d.values, atol=1e-10)
    assert np.allclose(twisted_convolve(inv, coeffs).values, d.values, atol=1e-10)
    S = frame_operator_matrix(g, lat)
    S_inv = np.linalg.inv(S)
    assert np.linalg.norm(represent(inv) - S_inv) <= 1e-10 * np.linalg.norm(S_inv)


def test_janssen_coefficients_of_the_dual_invert_those_of_the_window():
    # S^-1 is the frame operator of the canonical dual system, so the dual's
    # Janssen coefficients are the algebra inverse of the window's: a second
    # route to twisted_invert, good to a small multiple of EPS*kappa(S)
    # (measured worst 3.6*EPS*kappa over these cases).
    eps = np.finfo(float).eps
    checked = 0
    for L in (12, 16, 24, 36, 48):
        rng = np.random.default_rng(700 + L)
        windows = {"gaussian": Window.unit(periodized_gaussian(L), "g"),
                   "random": random_unit_window(rng, L)}
        for a, b in divisor_pairs(L):
            lat = SeparableLattice(L, a, b)
            for name, g in windows.items():
                try:
                    dual = wexler_raz_dual(g, lat)
                except NotAFrameError:
                    continue
                frame = padded_spectrum(**duality_check(g, lat).frame_spectrum)
                want = twisted_invert(janssen_coefficients(g, lat))
                got = janssen_coefficients(dual, lat)
                assert got.lattice == want.lattice
                err = np.linalg.norm(got.values - want.values) / want.norm2()
                assert err <= 16 * eps * frame[-1] / frame[0], (name, L, a, b)
                checked += 1
    assert checked == 320


def test_invert_generic_sequence_two_sided(rng):
    # Wiener closure for a generic invertible element: the computed inverse
    # is two-sided and represents the inverse operator.
    lat = SeparableLattice(12, 3, 4)
    base = random_sequence(rng, lat)
    a = TwistedSequence(base.values * 0.2, lat)
    a.values[0, 0] += 1.0  # keep it comfortably invertible
    b = twisted_invert(a)
    d = TwistedSequence.delta(lat)
    assert np.allclose(twisted_convolve(a, b).values, d.values, atol=1e-11)
    assert np.allclose(twisted_convolve(b, a).values, d.values, atol=1e-11)
    assert np.allclose(represent(b), np.linalg.inv(represent(a)), atol=1e-10)


def test_invert_singular_raises():
    lat = SeparableLattice(8, 2, 2)
    zeroish = TwistedSequence(np.zeros(lat.grid_shape, dtype=complex), lat)
    zeroish.values[0, 0] = 1.0
    zeroish.values[0, 1] = 1.0
    # delta + point mass at a self-inverse-free spot may be invertible; use a
    # genuinely singular one: the all-ones rank-one style sequence on a
    # commutative lattice kills the alternating character.
    flat = SeparableLattice(8, 8, 1)  # pure frequency lattice, commutative
    ones = TwistedSequence(np.ones(flat.grid_shape, dtype=complex), flat)
    with pytest.raises(SingularAlgebraError) as err:
        twisted_invert(ones)
    assert err.value.sigma_min >= 0.0
    assert err.value.cutoff > 0.0
    # The refusal shares its base class, fields and message form with NotAFrameError.
    assert isinstance(err.value, CutoffError) and not isinstance(err.value, NotAFrameError)
    assert str(err.value).endswith(
        f"(sigma_min={err.value.sigma_min:.6e}, cutoff={err.value.cutoff:.6e})"
    )


def test_kernel_empty_for_frame_case():
    L = 16
    lat = SeparableLattice(L, 2, 2)
    g = Window.unit(periodized_gaussian(L), "g")
    adj = lat.adjoint()
    assert (adj.a, adj.b) == (8, 8)
    assert kernel_basis(g, adj) == []


@pytest.mark.parametrize("L,a,b", [(12, 3, 2), (12, 4, 6), (16, 4, 4), (18, 6, 1), (24, 8, 6)])
def test_gramian_is_right_multiplication_by_autocorrelation(rng, L, a, b):
    # n > L, n < L, n = L, n > L, n < L.
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)
    acf = shift_autocorrelation(g, lat)
    assert np.array_equal(gramian_matrix(g, lat), right_multiplier_matrix(acf))


@pytest.mark.parametrize("L,a,b", [(16, 4, 4), (16, 2, 4), (24, 4, 4)])
def test_kernel_basis_fills_synthesis_spectrum(rng, L, a, b):
    g = random_unit_window(rng, L)
    adj = SeparableLattice(L, a, b).adjoint()
    filled = SystemSpectra(g, adj)
    basis = kernel_basis(g, adj, spectra=filled)
    values_only = np.linalg.svd(synthesis_matrix(g, adj), compute_uv=False)
    got = padded_spectrum(filled.synthesis, _factor_sizes(adj)[2])
    assert np.allclose(got, values_only, rtol=0, atol=1e-13 * values_only[0])
    # A spectrum already computed is kept.
    kept = SystemSpectra(g, adj)
    first = kept.synthesis
    assert len(kernel_basis(g, adj, spectra=kept)) == len(basis)
    assert kept.synthesis is first


def test_kernel_contains_pou_sequence():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=2)
    adj = lat.adjoint()
    basis = kernel_basis(g, adj)
    assert len(basis) >= 1
    # The constructed sequence lies in the span of the returned basis.
    stack = np.array([e.flat for e in basis])
    coeffs = stack.conj() @ seq.flat
    projected = stack.T @ coeffs
    assert np.linalg.norm(projected - seq.flat) <= 1e-10 * seq.norm2()


def test_kernel_module_closure(rng):
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=2)
    adj = lat.adjoint()
    basis = kernel_basis(g, adj)
    stack = np.array([e.flat for e in basis])
    for _ in range(10):
        a = random_sequence(rng, adj)
        pushed = twisted_convolve(a, seq)
        coeffs = stack.conj() @ pushed.flat
        projected = stack.T @ coeffs
        assert np.linalg.norm(projected - pushed.flat) <= 1e-10 * max(pushed.norm2(), 1e-30)


def test_index_noncommutative_raises(rng):
    lat = SeparableLattice(16, 2, 2)  # 2*2 = 4 not divisible by 16
    g = random_unit_window(rng, 16)
    with pytest.raises(NonCommutativeLatticeError):
        index_commutative(g, lat)


def test_index_zero_for_frame_case():
    L = 16
    lat = SeparableLattice(L, 2, 2)
    g = Window.unit(periodized_gaussian(L), "g")
    adj = lat.adjoint()  # (8, 8): 64 = 4*16, commutative
    assert adj.has_commuting_shifts
    assert index_commutative(g, adj) == 0


def test_index_pou_alternating_character():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=2)
    adj = lat.adjoint()
    assert adj.has_commuting_shifts
    idx = index_commutative(g, adj)
    assert idx >= 1
    # The alternating character itself is annihilated.
    from gaborkit import synthesis_map

    k = np.arange(adj.n_time)[:, None]
    char = ((-1.0) ** k) * np.ones((1, adj.n_freq))
    out = synthesis_map(g, adj, char.astype(complex))
    assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(char)


def test_index_critical_gaussian_exact_kernel():
    # Even-step critical lattice: the alternating sequence is the character
    # (s/2, s/2) and is exactly annihilated, so the index is positive and
    # the system is not a frame.
    L = 16
    lat = SeparableLattice(L, 4, 4)
    g = Window.unit(periodized_gaussian(L), "g")
    adj = lat.adjoint()
    assert adj.has_commuting_shifts
    assert index_commutative(g, adj) >= 1


def test_synthesis_map_takes_sequences_on_its_lattice(rng):
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, _ = partition_of_unity_kernel(g, pou_period=4, phases=2)
    adj = lat.adjoint()
    sequences = kernel_basis(g, adj) + [janssen_coefficients(g, lat)]
    assert len(sequences) > 1 and all(seq.lattice == adj for seq in sequences)
    for seq in sequences:
        assert np.array_equal(synthesis_map(g, adj, seq), synthesis_map(g, adj, seq.values))
    # Same grid shape, another lattice: refused for the lattice, not the shape.
    other = SeparableLattice(8, 8 * adj.a // 16, 8 * adj.b // 16)
    elsewhere = TwistedSequence(random_signal(rng, adj.cardinality).reshape(adj.grid_shape), other)
    with pytest.raises(ShapeMismatchError):
        synthesis_map(g, adj, elsewhere)


def test_sequence_shape_validation():
    lat = SeparableLattice(8, 2, 2)
    with pytest.raises(ShapeMismatchError):
        TwistedSequence(np.zeros((3, 3)), lat)
    other = SeparableLattice(8, 4, 4)
    a = TwistedSequence.delta(lat)
    b = TwistedSequence.delta(other)
    with pytest.raises(ShapeMismatchError):
        twisted_convolve(a, b)


@pytest.mark.parametrize(
    "L, a, b, recipe",
    [(16, 4, 4, "bspline"), (16, 8, 2, "bspline"), (16, 4, 4, "gaussian"), (12, 6, 2, "gaussian")],
)
def test_index_matches_character_loop(L, a, b, recipe):
    model = FiniteModel(L)
    if recipe == "bspline":
        g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    else:
        g = Window.unit(periodized_gaussian(L), "g")
    lat = SeparableLattice(L, a, b)
    D = synthesis_matrix(g, lat)
    sigma_max = np.linalg.norm(D, 2)
    cutoff = margin_cutoff((L, lat.cardinality, lat.adjoint().cardinality)) * sigma_max
    want = int(np.sum(naive_character_residuals(L, a, b, g.samples) <= cutoff))
    assert index_commutative(g, lat) == want
    spectra = SystemSpectra(g, lat)
    assert index_commutative(g, lat, spectra=spectra) == want
    assert abs(spectra.synthesis[0] - sigma_max) <= 1e-13 * sigma_max
