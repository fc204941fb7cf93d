"""Hypothesis properties of the factorized routes: adjointness, S = D C,
the Janssen representation of S and the canonical dual against the dense
frame operator, the frame, Gramian and synthesis spectra against the dense
frame operator, Gramian and synthesis matrix, and the fourteen-way harness,
over random windows, signals and divisor lattices.  Half the windows are
painless (support of at most L/b samples), so both routes of the maps are
drawn."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gaborkit import (  # noqa: E402
    NotAFrameError,
    SeparableLattice,
    SystemSpectra,
    analysis_matrix,
    check_all_conditions,
    coefficient_map,
    divisor_pairs,
    frame_operator_apply,
    frame_operator_matrix,
    gramian_matrix,
    janssen_coefficients,
    margin_cutoff,
    synthesis_map,
    synthesis_matrix,
    wexler_raz_dual,
)
from gaborkit.operators import _factor_sizes  # noqa: E402
from conftest import dense_gramian_spectrum  # noqa: E402

RTOL = 1e-12

#: (L, a, b) corners of the factorization, with their (c, p, q, d).
CORNERS = {
    (24, 3, 6): (1, 3, 4, 2),  # c = 1
    (12, 4, 4): (1, 4, 3, 1),  # c = 1, d = 1
    (12, 2, 1): (2, 1, 6, 1),  # p = 1, d = 1
    (24, 4, 2): (4, 1, 3, 2),  # p = 1
    (16, 4, 8): (2, 2, 1, 4),  # q = 1
}


def normalize(v):
    # Scale by the largest entry first: the squares of tiny entries underflow.
    v = v / np.abs(v).max()
    return v / np.linalg.norm(v)


def unit_vectors(n):
    elements = st.complex_numbers(max_magnitude=1.0, allow_subnormal=False)
    return arrays(np.complex128, n, elements=elements).filter(np.any).map(normalize)


@st.composite
def painless_windows(draw, L, M):
    """A unit window whose nonzeros lie in one circular interval of at most
    M samples, at any start: the maps' painless route."""
    span = draw(st.integers(1, M))
    start = draw(st.integers(0, L - 1))
    g = np.zeros(L, dtype=complex)
    g[(start + np.arange(span)) % L] = draw(unit_vectors(span))
    return g


@st.composite
def systems(draw):
    L = draw(st.integers(2, 48))
    lat = SeparableLattice(L, *draw(st.sampled_from(divisor_pairs(L))))
    g = draw(st.one_of(unit_vectors(L), painless_windows(L, lat.n_freq)))
    f = draw(unit_vectors(L))
    c = draw(unit_vectors(lat.cardinality)).reshape(lat.grid_shape)
    return lat, g, f, c


def corner_system(L, a, b):
    rng = np.random.default_rng(L * 10000 + a * 100 + b)
    lat = SeparableLattice(L, a, b)
    draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return lat, draw(L), draw(L), draw(*lat.grid_shape)


def with_corners(test):
    for key in CORNERS:
        test = example(system=corner_system(*key))(test)
    return test


def test_corners_have_their_block_sizes():
    for (L, a, b), sizes in CORNERS.items():
        assert _factor_sizes(SeparableLattice(L, a, b)) == sizes


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_maps_are_adjoint(system):
    lat, g, f, c = system
    lhs = np.vdot(c, coefficient_map(g, lat, f).values)
    rhs = np.vdot(synthesis_map(g, lat, c), f)
    scale = np.linalg.norm(analysis_matrix(g, lat), 2) * np.linalg.norm(f) * np.linalg.norm(c)
    assert abs(lhs - rhs) <= RTOL * scale


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_frame_operator_is_synthesis_after_analysis(system):
    lat, g, f, _ = system
    S = frame_operator_matrix(g, lat)
    want = S @ f
    scale = np.linalg.norm(S, 2) * np.linalg.norm(f)
    round_trip = synthesis_map(g, lat, coefficient_map(g, lat, f))
    for got in (round_trip, frame_operator_apply(g, lat, f)):
        assert np.linalg.norm(got - want) <= RTOL * scale


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_frame_operator_is_its_janssen_representation(system):
    # S = pi(a): the synthesis map of f on the adjoint lattice, with the
    # Janssen coefficients as its coefficients.
    lat, g, f, _ = system
    coeffs = janssen_coefficients(g, lat)
    want = frame_operator_apply(g, lat, f)
    got = synthesis_map(f, coeffs.lattice, coeffs)
    scale = np.linalg.norm(frame_operator_matrix(g, lat), 2) * np.linalg.norm(f)
    assert np.linalg.norm(got - want) <= RTOL * scale


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_harness_is_consistent_or_marginal(system):
    lat, g, _, _ = system
    verdict = check_all_conditions(g, lat)
    assert verdict.consistent or verdict.marginal, verdict.margins


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_gramian_spectrum_is_the_dense_one(system):
    # And the frame spectrum, the same squares padded to L.
    lat, g, _, _ = system
    rng = np.random.default_rng(lat.cardinality)
    spectra = SystemSpectra(g, lat)
    dense = {
        "gramian": dense_gramian_spectrum(gramian_matrix(g, lat), lat.L, rng),
        "frame": (np.linalg.eigvalsh(frame_operator_matrix(g, lat)), 0.0),
    }
    for kind, (want, slack) in dense.items():
        got = getattr(spectra, kind)
        assert got.shape == want.shape, kind
        assert np.abs(got - want).max() + slack <= 1e-13 * want[-1], kind


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_synthesis_spectrum_is_the_dense_one(system):
    lat, g, _, _ = system
    want = np.linalg.svd(synthesis_matrix(g, lat), compute_uv=False)
    got = SystemSpectra(g, lat).synthesis
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * want[0]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_dual_solves_the_dense_frame_operator(system):
    lat, g, _, _ = system
    S = frame_operator_matrix(g, lat)
    try:
        dual = wexler_raz_dual(g, lat).samples
    except NotAFrameError:
        eigs = np.linalg.eigvalsh(S)
        cut = margin_cutoff((lat.L, lat.cardinality, lat.adjoint().cardinality))
        assert eigs[0] <= cut**2 * eigs[-1]
        return
    assert np.linalg.norm(S @ dual - g) <= RTOL * np.linalg.norm(S, 2) * np.linalg.norm(dual)
