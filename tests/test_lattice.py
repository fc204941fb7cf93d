"""Shift operators, composition phases, lattices and adjoints."""

from types import ModuleType

import numpy as np
import pytest

import gaborkit
from gaborkit import (
    FiniteModel,
    LatticeError,
    SeparableLattice,
    ShapeMismatchError,
    adjoint_lattice,
    compose_shifts,
    shift_matrix,
    shifts_commute,
    tf_shift,
)
from conftest import random_signal
from oracles import naive_shift, naive_shift_matrix, oracle_compose_phase


def delta(L, k=0):
    out = np.zeros(L, dtype=complex)
    out[k] = 1.0
    return out


def test_shift_identity_point():
    m = FiniteModel(6)
    f = np.arange(6) + 1j
    assert np.array_equal(tf_shift(m, (0, 0), f), f)


def test_shift_pure_translation():
    m = FiniteModel(4)
    assert np.allclose(tf_shift(m, (1, 0), delta(4)), delta(4, 1), atol=0)


def test_shift_pure_modulation():
    m = FiniteModel(4)
    got = tf_shift(m, (0, 1), np.ones(4, dtype=complex))
    assert np.allclose(got, [1, 1j, -1, -1j], atol=1e-15)


def test_shift_matches_oracle(rng):
    for L in (5, 8, 12):
        m = FiniteModel(L)
        f = random_signal(rng, L)
        for _ in range(10):
            z = (int(rng.integers(0, 3 * L)), int(rng.integers(0, 3 * L)))
            assert np.allclose(tf_shift(m, z, f), naive_shift(L, z, f), atol=1e-13)


def test_shift_unitary(rng):
    m = FiniteModel(16)
    f = random_signal(rng, 16)
    for _ in range(25):
        z = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        assert np.isclose(np.linalg.norm(tf_shift(m, z, f)), np.linalg.norm(f), atol=1e-12)


def test_shift_shape_error():
    with pytest.raises(ShapeMismatchError):
        tf_shift(FiniteModel(4), (1, 1), np.ones(5))


def test_shift_matrix_matches_oracle():
    m = FiniteModel(6)
    for z in [(0, 0), (1, 0), (0, 1), (2, 5), (5, 3)]:
        assert np.allclose(shift_matrix(m, z), naive_shift_matrix(6, z), atol=1e-13)


def test_compose_example_minus_i():
    phase, total = compose_shifts(FiniteModel(4), (1, 0), (0, 1))
    assert total == (1, 1)
    assert np.isclose(phase, -1j, atol=1e-15)
    assert np.isclose(oracle_compose_phase(4, (1, 0), (0, 1)), -1j, atol=1e-13)


def test_compose_is_exact_operator_identity(rng):
    for L in (4, 7, 12):
        m = FiniteModel(L)
        for _ in range(10):
            lam = (int(rng.integers(0, L)), int(rng.integers(0, L)))
            mu = (int(rng.integers(0, L)), int(rng.integers(0, L)))
            phase, total = compose_shifts(m, lam, mu)
            lhs = shift_matrix(m, lam) @ shift_matrix(m, mu)
            rhs = phase * shift_matrix(m, total)
            assert np.allclose(lhs, rhs, atol=1e-13)
            assert np.isclose(phase, oracle_compose_phase(L, lam, mu), atol=1e-12)


def test_modulations_commute():
    m = FiniteModel(12)
    for xi in range(12):
        for xi2 in range(12):
            phase, _ = compose_shifts(m, (0, xi), (0, xi2))
            assert phase == 1.0 + 0.0j


def test_adjoint_pairs_commute_L12():
    lat = SeparableLattice(12, 3, 4)
    adj = lat.adjoint()
    m = FiniteModel(12)
    for lam in lat.points():
        for mu in adj.points():
            p1, _ = compose_shifts(m, tuple(lam), tuple(mu))
            p2, _ = compose_shifts(m, tuple(mu), tuple(lam))
            assert p1 == p2
            assert shifts_commute(m, tuple(lam), tuple(mu))


def test_adjoint_arithmetic_examples():
    assert SeparableLattice(12, 3, 4).adjoint() == SeparableLattice(12, 3, 4)
    assert SeparableLattice(12, 2, 2).adjoint() == SeparableLattice(12, 6, 6)
    full_adjoint = SeparableLattice(16, 1, 1).adjoint()
    assert (full_adjoint.a, full_adjoint.b) == (16, 16)
    assert full_adjoint.cardinality == 1
    assert np.array_equal(full_adjoint.points(), [[0, 0]])


def test_adjoint_involution_up_to_48():
    for L in range(2, 49):
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                lat = SeparableLattice(L, a, b)
                assert adjoint_lattice(adjoint_lattice(lat)) == lat


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
def test_group_law_cocycle_exhaustive(L):
    # Total phase and endpoint agree for both bracketings of triple products.
    m = FiniteModel(L)
    pts = [(x, xi) for x in range(L) for xi in range(L)]
    for lam in pts:
        for mu in pts:
            p_lm, s_lm = compose_shifts(m, lam, mu)
            for nu in pts[:: max(1, L // 2)]:
                p1, s1 = compose_shifts(m, s_lm, nu)
                p_mn, s_mn = compose_shifts(m, mu, nu)
                p2, s2 = compose_shifts(m, lam, s_mn)
                assert s1 == s2
                assert abs(p_lm * p1 - p_mn * p2) < 1e-14


@pytest.mark.parametrize("L,a,b", [(8, 2, 4), (12, 3, 4), (16, 4, 2), (16, 2, 2)])
def test_commutant_characterization(L, a, b):
    # mu lies on the adjoint iff its shift matrix commutes with both
    # generator shift matrices (brute force).
    m = FiniteModel(L)
    lat = SeparableLattice(L, a, b)
    adj = lat.adjoint()
    gen_time = naive_shift_matrix(L, (a % L, 0))
    gen_freq = naive_shift_matrix(L, (0, b % L))
    for x in range(L):
        for xi in range(L):
            M = naive_shift_matrix(L, (x, xi))
            commutes = np.allclose(M @ gen_time, gen_time @ M, atol=1e-12) and np.allclose(
                M @ gen_freq, gen_freq @ M, atol=1e-12
            )
            assert commutes == adj.contains((x, xi))


@pytest.mark.parametrize("L", [4, 5, 6])
def test_full_shift_system_trace_orthogonality(L):
    m = FiniteModel(L)
    mats = {}
    for x in range(L):
        for xi in range(L):
            mats[(x, xi)] = shift_matrix(m, (x, xi))
    for z1, M1 in mats.items():
        for z2, M2 in mats.items():
            tr = np.trace(M1.conj().T @ M2)
            expected = L if z1 == z2 else 0.0
            assert np.isclose(tr, expected, atol=1e-10)


def test_full_system_linear_independence(rng):
    # Gram matrix of vectorized shifts is L*I, so a vanishing shift series
    # forces zero coefficients.
    L = 5
    m = FiniteModel(L)
    stack = np.array(
        [shift_matrix(m, (x, xi)).reshape(-1) for x in range(L) for xi in range(L)]
    )
    gram = stack @ stack.conj().T
    assert np.allclose(gram, L * np.eye(L * L), atol=1e-10)
    c = random_signal(rng, L * L)
    combo = (c[:, None] * stack).sum(axis=0)
    assert np.linalg.norm(combo) > 0.5 * np.linalg.norm(c)


def test_lattice_validation():
    with pytest.raises(LatticeError):
        SeparableLattice(12, 5, 4)
    with pytest.raises(LatticeError):
        SeparableLattice(12, 3, 7)
    with pytest.raises(LatticeError):
        SeparableLattice(12, 0, 4)
    with pytest.raises(LatticeError):
        FiniteModel(1)


def test_cardinality_covolume_redundancy():
    lat = SeparableLattice(24, 2, 4)
    assert lat.cardinality == 24 * 24 // 8
    assert lat.covolume == 8 / 24
    assert lat.redundancy == 3.0
    assert lat.grid_shape == (12, 6)
    assert lat.point(1, 1) == (2, 4)
    assert len(lat.points()) == lat.cardinality


def test_commuting_shifts_flag():
    assert SeparableLattice(16, 4, 4).has_commuting_shifts
    assert not SeparableLattice(16, 2, 2).has_commuting_shifts
    assert SeparableLattice(12, 3, 4).has_commuting_shifts


def test_package_exports_one_grid_sequence_type_and_no_modules():
    assert {"TwistedSequence", "LatticeCoefficients"} <= set(gaborkit.__all__)
    assert gaborkit.LatticeCoefficients is gaborkit.TwistedSequence
    assert not [name for name in gaborkit.__all__
                if isinstance(getattr(gaborkit, name), ModuleType)]
