"""Bounds, the fourteen-condition harness, duals, cross-Gramians, duality
and proxy norms."""

import gc

import numpy as np
import pytest

from gaborkit import (
    CutoffError,
    FiniteModel,
    GaborkitError,
    NotAFrameError,
    SeparableLattice,
    ShapeMismatchError,
    SystemSpectra,
    TwistedSequence,
    Window,
    WindowRecipe,
    check_all_conditions,
    coefficient_map,
    cross_gramian,
    cross_gramian_row_sum_gap,
    duality_check,
    frame_bounds,
    index_commutative,
    kernel_basis,
    make_window,
    modulation_norm_proxy,
    operator_norms,
    partition_of_unity_kernel,
    periodized_gaussian,
    reconstruction_residual,
    synthesis_map,
    twisted_invert,
    wexler_raz_dual,
    wexler_raz_residual,
)
from conftest import fiber_block_shape, random_signal, random_unit_window
from fixtures import (
    CRITICAL_L16_FRAME_UPPER,
    CRITICAL_L16_RIESZ_LOWER_SQ,
    CRITICAL_L16_RIESZ_UPPER_SQ,
)
from oracles import naive_stft_norm, padded_spectrum


def delta_window(L):
    out = np.zeros(L)
    out[0] = 1.0
    return Window.unit(out, "delta")


def gaussian_window(L):
    return Window.unit(periodized_gaussian(L), "periodized-gaussian")


def test_bounds_translates_onb():
    L = 8
    br = frame_bounds(delta_window(L), SeparableLattice(L, 1, L))
    assert np.isclose(br.frame_lower, 1.0, atol=1e-12)
    assert np.isclose(br.frame_upper, 1.0, atol=1e-12)
    assert np.isclose(br.riesz_lower, 1.0, atol=1e-12)
    assert np.isclose(br.riesz_upper, 1.0, atol=1e-12)
    assert np.isclose(br.condition_number, 1.0, rtol=1e-12)


def test_bounds_full_lattice_tight(rng):
    L = 9
    br = frame_bounds(random_unit_window(rng, L), SeparableLattice(L, 1, 1))
    assert np.isclose(br.frame_lower, L, rtol=1e-12)
    assert np.isclose(br.frame_upper, L, rtol=1e-12)


def test_bounds_critical_gaussian_regression():
    # Committed baseline.  The lower frame bound is an exact zero here (the
    # alternating sequence is annihilated), so the verdict is "not a frame"
    # and the condition number is infinite.
    L = 16
    br = frame_bounds(gaussian_window(L), SeparableLattice(L, 4, 4))
    assert abs(br.frame_upper - CRITICAL_L16_FRAME_UPPER) <= 1e-9
    assert abs(br.riesz_lower_sq - CRITICAL_L16_RIESZ_LOWER_SQ) <= 1e-9
    assert abs(br.riesz_upper_sq - CRITICAL_L16_RIESZ_UPPER_SQ) <= 1e-9
    assert br.frame_lower <= 1e-12
    assert br.condition_number == float("inf")


def test_frame_inequality_pointwise(rng):
    lat = SeparableLattice(12, 2, 3)
    g = gaussian_window(12)
    br = frame_bounds(g, lat)
    for _ in range(25):
        f = random_signal(rng, 12)
        energy = float(np.sum(np.abs(coefficient_map(g, lat, f).values) ** 2))
        norm_sq = float(np.linalg.norm(f) ** 2)
        assert br.frame_lower * norm_sq <= energy * (1 + 1e-10)
        assert energy <= br.frame_upper * norm_sq * (1 + 1e-10)


def test_conditions_onb_all_true():
    L = 8
    verdict = check_all_conditions(delta_window(L), SeparableLattice(L, 1, L))
    assert verdict.all_true
    assert verdict.consistent
    assert not verdict.marginal
    assert verdict.frame


def test_conditions_pou_all_false():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=2)
    verdict = check_all_conditions(g, lat)
    assert verdict.all_false
    assert verdict.consistent
    # The synthesis-injectivity witness is the kernel direction itself.
    out = synthesis_map(g, lat.adjoint(), seq.values)
    assert np.linalg.norm(out) <= 1e-12 * seq.norm2()
    assert verdict.residuals["viii"] <= verdict.cutoff


def test_conditions_random_consistency(rng):
    lengths = (8, 12, 16, 24)
    count = 0
    for L in lengths:
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                if a * b > L * 2 or count >= 60:
                    continue
                lat = SeparableLattice(L, a, b)
                g = random_unit_window(rng, L)
                verdict = check_all_conditions(g, lat)
                if verdict.marginal:
                    continue
                assert verdict.consistent, (L, a, b, verdict.conditions)
                count += 1
    assert count >= 40


def test_verdict_shape():
    verdict = check_all_conditions(gaussian_window(12), SeparableLattice(12, 3, 4))
    assert set(verdict.conditions) == set(verdict.residuals) == set(verdict.margins)
    assert len(verdict.conditions) == 14
    assert verdict.cutoff > 0


def test_dual_onb_self_dual():
    L = 8
    g = delta_window(L)
    lat = SeparableLattice(L, 1, L)
    dual = wexler_raz_dual(g, lat)
    assert np.allclose(dual.samples, g.samples, atol=1e-12)


def test_dual_full_lattice_scaled(rng):
    L = 6
    g = random_unit_window(rng, L)
    dual = wexler_raz_dual(g, SeparableLattice(L, 1, 1))
    assert np.allclose(dual.samples, g.samples / L, atol=1e-12)


@pytest.mark.parametrize("L,a,b", [(8, 1, 8), (6, 1, 1), (16, 2, 2), (12, 3, 2), (18, 3, 3)])
def test_dual_biorthogonality_covolume_constant(rng, L, a, b):
    # The biorthogonality constant is the lattice covolume a*b/L, pinned by
    # the orthonormal-basis and full-lattice cases and holding generally.
    lat = SeparableLattice(L, a, b)
    g = gaussian_window(L) if (a, b) != (1, 8) else delta_window(L)
    dual = wexler_raz_dual(g, lat)
    assert wexler_raz_residual(dual, g, lat) <= 1e-10


def test_dual_reconstruction(rng):
    lat = SeparableLattice(12, 2, 3)
    g = gaussian_window(12)
    dual = wexler_raz_dual(g, lat)
    signals = [random_signal(rng, 12) for _ in range(10)]
    assert reconstruction_residual(g, dual, lat, signals) <= 1e-10
    # Mixed order: analysis with g, synthesis with the dual.
    for f in signals:
        rebuilt = synthesis_map(dual, lat, coefficient_map(g, lat, f))
        assert np.linalg.norm(rebuilt - f) <= 1e-10 * np.linalg.norm(f)


def test_dual_not_a_frame_raises():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, _ = partition_of_unity_kernel(g, pou_period=4, phases=2)
    with pytest.raises(NotAFrameError) as err:
        wexler_raz_dual(g, lat)
    assert err.value.cutoff > 0


def test_cross_gramian_onb_identity():
    L = 8
    g = delta_window(L)
    lat = SeparableLattice(L, 1, L)
    adj = lat.adjoint()
    Phi = cross_gramian(g, g, adj)
    assert np.allclose(Phi, np.eye(adj.cardinality), atol=1e-12)


def test_cross_gramian_of_normalized_dual_is_identity(rng):
    lat = SeparableLattice(16, 2, 2)
    g = gaussian_window(16)
    dual = wexler_raz_dual(g, lat)
    adj = lat.adjoint()
    phi = dual.samples / lat.covolume
    Phi = cross_gramian(phi, g, adj)
    assert np.allclose(Phi, np.eye(adj.cardinality), atol=1e-10)
    # Unscaled dual: covolume times the identity.
    Phi_raw = cross_gramian(dual.samples, g, adj)
    assert np.allclose(Phi_raw, lat.covolume * np.eye(adj.cardinality), atol=1e-10)


def test_cross_gramian_row_sum_identity(rng):
    lat = SeparableLattice(12, 2, 2)
    adj = lat.adjoint()
    g = gaussian_window(12)
    phi = random_unit_window(rng, 12)
    Phi = cross_gramian(phi, g, adj)
    direct = float(np.max(np.sum(np.abs(Phi - np.eye(adj.cardinality)), axis=1)))
    assert abs(direct - cross_gramian_row_sum_gap(phi, g, adj)) <= 1e-12


def test_neumann_gap_implies_surjectivity():
    # Whenever the cross-Gramian of a candidate sits within distance < 1 of
    # the identity, the adjoint-side analysis map is surjective (condition x).
    lat = SeparableLattice(16, 2, 2)
    g = gaussian_window(16)
    dual = wexler_raz_dual(g, lat)
    phi = dual.samples / lat.covolume
    gap = cross_gramian_row_sum_gap(phi, g, lat.adjoint())
    assert gap < 1
    verdict = check_all_conditions(g, lat)
    assert verdict.conditions["x"]


def test_duality_onb_and_pou():
    L = 8
    record = duality_check(delta_window(L), SeparableLattice(L, 1, L))
    assert record.frame and record.adjoint_riesz and record.agree

    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, _ = partition_of_unity_kernel(g, pou_period=4, phases=2)
    record = duality_check(g, lat)
    assert (not record.frame) and (not record.adjoint_riesz) and record.agree


def test_duality_sweep_L24_gaussian():
    L = 24
    g = gaussian_window(L)
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    for a in divisors:
        for b in divisors:
            record = duality_check(g, SeparableLattice(L, a, b))
            assert record.agree, (a, b)
            assert padded_spectrum(**record.frame_spectrum).shape == (L,)
            assert padded_spectrum(**record.adjoint_gramian_spectrum).shape == (a * b,)


def test_duality_spectra_share_scaled_nonzero_extremes(rng):
    # Observed (not asserted as a paper constant): the nonzero spectra of
    # the frame operator and the adjoint Gramian coincide up to the
    # covolume factor.  Used here only as a numerical regression guard.
    lat = SeparableLattice(16, 2, 2)
    g = random_unit_window(rng, 16)
    record = duality_check(g, lat)
    frame = padded_spectrum(**record.frame_spectrum)
    gram = padded_spectrum(**record.adjoint_gramian_spectrum)
    nz_frame, nz_gram = frame[frame > 1e-8], gram[gram > 1e-8]
    assert np.isclose(nz_gram.min(), lat.covolume * nz_frame.min(), rtol=1e-9)
    assert np.isclose(nz_gram.max(), lat.covolume * nz_frame.max(), rtol=1e-9)


def test_modulation_p2_identity(rng):
    for L in (8, 12, 16):
        f = random_signal(rng, L)
        assert abs(modulation_norm_proxy(f, 2) - np.sqrt(L) * np.linalg.norm(f)) <= 1e-10


def test_modulation_matches_oracle(rng):
    L = 8
    f = random_signal(rng, L)
    phi = periodized_gaussian(L)
    for p in (1, 2, np.inf):
        assert np.isclose(modulation_norm_proxy(f, p), naive_stft_norm(f, phi, p), atol=1e-10)


def test_modulation_self_peak_at_origin():
    L = 16
    phi = periodized_gaussian(L)
    from gaborkit import stft_grid

    grid = np.abs(stft_grid(phi, phi))
    assert np.isclose(modulation_norm_proxy(phi, np.inf), 1.0, atol=1e-12)
    assert np.unravel_index(np.argmax(grid), grid.shape) == (0, 0)


def test_modulation_proxy_ordering(rng):
    for _ in range(10):
        f = random_signal(rng, 12)
        m_inf = modulation_norm_proxy(f, np.inf)
        m_two = modulation_norm_proxy(f, 2)
        m_one = modulation_norm_proxy(f, 1)
        assert m_inf <= m_two * (1 + 1e-12)
        assert m_two <= m_one * (1 + 1e-12)


def test_modulation_invalid_p(rng):
    with pytest.raises(ShapeMismatchError):
        modulation_norm_proxy(random_signal(rng, 8), 3)


@pytest.mark.parametrize("L, a, b", [(24, 4, 8), (16, 4, 4), (18, 3, 3)])  # n < L, n = L, n > L
def test_shared_spectra_give_identical_results(rng, linalg_calls, L, a, b):
    lat = SeparableLattice(L, a, b)
    g = random_unit_window(rng, L)

    def diagnostics(**kwargs):
        verdict = check_all_conditions(g, lat, **kwargs)
        duality = duality_check(g, lat, **kwargs)
        return {
            "bounds": frame_bounds(g, lat, **kwargs),
            "verdict": verdict,
            "frame_spectrum": padded_spectrum(**duality.frame_spectrum).tolist(),
            "adjoint_gramian_spectrum":
                padded_spectrum(**duality.adjoint_gramian_spectrum).tolist(),
            "norms": operator_norms(g, lat, **kwargs),
            "dual": wexler_raz_dual(g, lat, **kwargs).samples.tolist() if verdict.frame else None,
        }

    fresh = diagnostics()
    shapes = linalg_calls("eigvalsh", "svd")
    assert diagnostics(spectra=SystemSpectra(g, lat)) == fresh
    # The lattice and its adjoint, which is the same lattice when a*b = L:
    # each one's analysis matrix and synthesis fiber once; S and the
    # Gramians are the synthesis spectra squared, so nothing is eigensolved.
    lattices = {lat, lat.adjoint()}
    assert len(lattices) == (1 if a * b == L else 2)
    assert shapes["eigvalsh"] == []
    want = [shape for m in lattices for shape in ((m.cardinality, L), fiber_block_shape(m))]
    assert sorted(shapes["svd"]) == sorted(want)


@pytest.mark.parametrize("diagnostic", [
    check_all_conditions, frame_bounds, duality_check, wexler_raz_dual,
    kernel_basis, index_commutative, operator_norms,
], ids=lambda fn: fn.__name__)
def test_diagnostics_free_their_spectra(rng, diagnostic):
    # (2, 6) at L = 12 is critical and its shifts commute, so a random
    # window gives a basis and every diagnostic runs.  The entries it makes
    # for the lattice and its adjoint hold their cached spectra; none may
    # wait for the cyclic collector once the call returns.
    g = random_unit_window(rng, 12)
    lat = SeparableLattice(12, 2, 6)
    gc.collect()
    gc.disable()
    try:
        diagnostic(g, lat)
        leftover = [obj for obj in gc.get_objects() if isinstance(obj, SystemSpectra)]
    finally:
        gc.enable()
    assert not leftover


SPECTRA_READERS = [
    check_all_conditions, frame_bounds, duality_check, wexler_raz_dual,
    kernel_basis, index_commutative, operator_norms,
]


@pytest.mark.parametrize("diagnostic", SPECTRA_READERS, ids=lambda fn: fn.__name__)
def test_mismatched_spectra_are_refused(rng, diagnostic):
    # (2, 6) at L = 12 is critical and its shifts commute, so a random
    # window gives a basis and every diagnostic runs on its own entry.  An
    # entry for another lattice or another window would answer for the
    # wrong system.
    g = random_unit_window(rng, 12)
    lat = SeparableLattice(12, 2, 6)
    diagnostic(g, lat, spectra=SystemSpectra(g, lat))
    diagnostic(g, lat, spectra=SystemSpectra(Window.unit(g.samples.copy()), lat))
    with pytest.raises(ShapeMismatchError, match=r"for SeparableLattice\(L=12, a=6, b=2\), not"):
        diagnostic(g, lat, spectra=SystemSpectra(g, SeparableLattice(12, 6, 2)))
    other = Window.unit(np.roll(g.samples, 1))
    with pytest.raises(ShapeMismatchError, match="for another window"):
        diagnostic(g, lat, spectra=SystemSpectra(other, lat))


def test_cutoff_refusals_share_one_base():
    with pytest.raises(CutoffError) as raised:
        wexler_raz_dual(delta_window(8), SeparableLattice(8, 4, 4))
    err = raised.value
    assert isinstance(err, NotAFrameError) and isinstance(err, GaborkitError)
    assert str(err) == (
        "system is not a frame; no dual window "
        f"(sigma_min={err.sigma_min:.6e}, cutoff={err.cutoff:.6e})"
    )


def test_modulation_proxy_refuses_a_scalar_signal():
    with pytest.raises(ShapeMismatchError, match="signal must be a vector"):
        modulation_norm_proxy(5.0, 1)


NAN_LATTICE = SeparableLattice(12, 2, 3)
NON_FINITE_CALLS = {
    "frame_bounds": lambda nan: frame_bounds(nan, NAN_LATTICE),
    "kernel_basis": lambda nan: kernel_basis(nan, NAN_LATTICE),
    "wexler_raz_dual": lambda nan: wexler_raz_dual(nan, NAN_LATTICE),
    "twisted_invert": lambda nan: twisted_invert(
        TwistedSequence(np.full(NAN_LATTICE.grid_shape, nan[0]), NAN_LATTICE)
    ),
}


@pytest.mark.parametrize("name", NON_FINITE_CALLS)
def test_non_finite_input_is_a_toolkit_error(name):
    # Each ended in numpy's "SVD did not converge" LinAlgError; one inf
    # sample went through the SVD.  A window or sequence is now refused
    # before any decomposition.
    all_nan = np.full(12, np.nan, dtype=complex)
    one_inf = np.zeros(12, dtype=complex)
    one_inf[0] = np.inf
    message = "sequence" if name == "twisted_invert" else "window"
    for window in (all_nan, one_inf):
        with pytest.raises(GaborkitError, match=f"{message} has non-finite samples"):
            NON_FINITE_CALLS[name](window)
