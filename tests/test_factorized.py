"""The factorized (Zak-domain) coefficient and synthesis maps against the
dense oracle: block sizes, every divisor lattice of small L, and memory."""

import math
import tracemalloc

import numpy as np
import pytest

from gaborkit import (
    SeparableLattice,
    analysis_matrix,
    coefficient_map,
    divisor_pairs,
    frame_operator_apply,
    frame_operator_matrix,
    synthesis_map,
    synthesis_matrix,
)
from gaborkit.operators import _factor_sizes
from conftest import random_signal

MAX_ORACLE_LENGTH = 48


def divisor_lattices(L):
    return [SeparableLattice(L, a, b) for a, b in divisor_pairs(L)]


def test_factor_sizes_tile_the_lattice():
    corners = set()
    for L in range(2, MAX_ORACLE_LENGTH + 1):
        for lat in divisor_lattices(L):
            c, p, q, d = _factor_sizes(lat)
            M, N = lat.n_freq, lat.n_time
            assert c == math.gcd(lat.a, M)
            assert (c * p, c * q, q * d, p * d) == (lat.a, M, N, lat.b)
            assert math.gcd(p, q) == 1
            corners.update(name for name, size in zip("cpqd", (c, p, q, d)) if size == 1)
    assert corners == set("cpqd")


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_maps_match_dense_on_every_divisor_lattice(L):
    rng = np.random.default_rng(L)
    for lat in divisor_lattices(L):
        g = random_signal(rng, L)
        f = random_signal(rng, L)
        c = random_signal(rng, lat.cardinality)
        routes = {
            "coefficient_map": (coefficient_map(g, lat, f).flat, analysis_matrix(g, lat) @ f),
            "synthesis_map": (
                synthesis_map(g, lat, c.reshape(lat.grid_shape)),
                synthesis_matrix(g, lat) @ c,
            ),
            "frame_operator_apply": (
                frame_operator_apply(g, lat, f),
                frame_operator_matrix(g, lat) @ f,
            ),
        }
        for name, (got, want) in routes.items():
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-12, f"{name} on (L, a, b) = {(L, lat.a, lat.b)}: {err:.2e}"


def test_round_trip_memory_is_linear_in_L():
    # A stack of all L/a window translates has (L/a)*L complex entries,
    # 256 MiB per copy here; folding it peaked at 648 MiB per round trip.
    L = 16384
    lat = SeparableLattice(L, 16, 64)
    rng = np.random.default_rng(7)
    g = random_signal(rng, L)
    f = random_signal(rng, L)
    tracemalloc.start()
    try:
        synthesis_map(g, lat, coefficient_map(g, lat, f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"round-trip peak {peak / 2**20:.1f} MiB"
