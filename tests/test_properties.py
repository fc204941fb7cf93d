"""Hypothesis properties of the factorized routes: adjointness and S = D C
against the dense frame operator, and the Gramian and synthesis spectra
against the dense Gramian and synthesis matrix, over random windows,
signals and divisor lattices."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gaborkit import (  # noqa: E402
    SeparableLattice,
    SystemSpectra,
    analysis_matrix,
    coefficient_map,
    divisor_pairs,
    frame_operator_apply,
    frame_operator_matrix,
    gramian_matrix,
    synthesis_map,
    synthesis_matrix,
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
def systems(draw):
    L = draw(st.integers(2, 48))
    lat = SeparableLattice(L, *draw(st.sampled_from(divisor_pairs(L))))
    g = draw(unit_vectors(L))
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


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_gramian_spectrum_is_the_dense_one(system):
    lat, g, _, _ = system
    rng = np.random.default_rng(lat.cardinality)
    want, slack = dense_gramian_spectrum(gramian_matrix(g, lat), lat.L, rng)
    got = SystemSpectra(g, lat).gramian
    assert got.shape == want.shape
    assert np.abs(got - want).max() + slack <= 1e-13 * want[-1]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(system=systems())
@with_corners
def test_synthesis_spectrum_is_the_dense_one(system):
    lat, g, _, _ = system
    want = np.linalg.svd(synthesis_matrix(g, lat), compute_uv=False)
    got = SystemSpectra(g, lat).synthesis
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * want[0]
