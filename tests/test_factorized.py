"""The factorized (Zak-domain) coefficient and synthesis maps, kernel basis,
character index, canonical dual and the frame, Gramian and synthesis
spectra against dense oracles: block sizes, every divisor lattice of small L,
memory, and the entry cap."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from gaborkit import (
    FiniteModel,
    MemoryGuardError,
    NotAFrameError,
    SeparableLattice,
    SystemSpectra,
    TwistedSequence,
    Window,
    WindowRecipe,
    analysis_matrix,
    atom_stack,
    check_all_conditions,
    coefficient_map,
    cross_gramian,
    divisor_pairs,
    duality_check,
    frame_operator_apply,
    frame_operator_matrix,
    gramian_matrix,
    index_commutative,
    kernel_basis,
    make_window,
    modulation_norm_proxy,
    periodized_gaussian,
    represent,
    right_multiplier_matrix,
    stft_grid,
    synthesis_map,
    synthesis_matrix,
    twisted_convolve,
    twisted_invert,
    wexler_raz_dual,
)
from gaborkit import diagnostics, operators, reporting
from gaborkit.cli import main
from gaborkit.lattice import root_of_unity
from gaborkit.operators import (
    _analyze,
    _covariance,
    _factor_sizes,
    _fiber,
    _painless_span,
    _synthesize,
    _unzak,
    _window_factor,
    _zak,
)
from gaborkit.tolerances import _reading, margin_cutoff
from conftest import dense_gramian_spectrum, random_signal, random_unit_window
from oracles import naive_character_residuals, naive_reading, padded_spectrum
from oracles import translate_window_factor

MAX_ORACLE_LENGTH = 48


def lattice_cutoff(lat):
    """The harness's first-order cutoff, at the dims (L, n, n')."""
    return margin_cutoff((lat.L, lat.cardinality, lat.adjoint().cardinality))


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
            # Both sides of the window factor's wrap phase (p > q > 1).
            corners.update(["p>q>1"] if p > q > 1 else ["q>p>1"] if q > p > 1 else [])
    assert corners == set("cpqd") | {"p>q>1", "q>p>1"}


def test_zak_transform_layout_and_inverse():
    rng = np.random.default_rng(3)
    for L in range(2, MAX_ORACLE_LENGTH + 1):
        for lat in divisor_lattices(L):
            c, p, q, d = _factor_sizes(lat)
            f = random_signal(rng, 2 * L).reshape(2, L)
            m = np.arange(lat.b)
            dft = np.exp(-2j * np.pi * (np.outer(m, m) % lat.b) / lat.b)
            # Entry [nu2, nu1, sigma, rho] at nu = nu1 + d*nu2 of the DFT over
            # m of f(rho + c*sigma + M*m).
            want = (dft @ f.reshape(2, lat.b, q * c)).reshape(2, p, d, q, c)
            got = _zak(lat, f)
            where = f"(L, a, b) = {(L, lat.a, lat.b)}"
            assert got.shape == (2, d, q, c, p), where
            assert np.abs(got - np.moveaxis(want, 1, -1)).max() <= 1e-12, where
            assert np.abs(_unzak(lat, got) - f).max() <= 1e-14, where


#: The ``stream`` benchmark's lattices: (L, a, b), each with p = 1.
STREAM_LATTICES = ((4096, 8, 32), (16384, 16, 64), (32768, 64, 128), (65536, 256, 256))


@pytest.mark.parametrize(
    "lattices",
    [divisor_lattices(L) for L in range(2, MAX_ORACLE_LENGTH + 1)]
    + [[SeparableLattice(*sizes)] for sizes in STREAM_LATTICES],
    ids=[f"L{L}" for L in range(2, MAX_ORACLE_LENGTH + 1)] + [f"stream{s}" for s in STREAM_LATTICES],
)
def test_window_factor_matches_the_translate_form(lattices):
    # The divisor lattices reach every corner of the shift identity: p > q > 1
    # (the wrap phase), q > p > 1, p = 1 and q = 1.
    rng = np.random.default_rng(lattices[0].L)
    for lat in lattices:
        g = random_signal(rng, lat.L)
        blocks, scale = _window_factor(g, lat)
        want = translate_window_factor(lat.L, lat.a, lat.b, g)
        where = f"(L, a, b) = {(lat.L, lat.a, lat.b)}"
        assert blocks.shape == want.shape, where
        _, p, q, _ = _factor_sizes(lat)
        if not p > q > 1:  # there the wrap phase multiplies a copy
            # A view of one Zak table of (T + 1)*L entries, T = ceil(p'(q - 1)/q).
            table = blocks
            while isinstance(table.base, np.ndarray):
                table = table.base
            extra = -(-(p % q) * (q - 1) // q)
            assert np.shares_memory(blocks, table), where
            assert table.size <= (extra + 1) * lat.L, where
        assert np.abs(blocks - want).max() <= 1e-12 * np.abs(want).max(), where
        assert scale == math.sqrt(lat.n_freq / _factor_sizes(lat)[1]), where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_fiber_is_the_sigma_zero_slice_of_the_factor(L):
    # One FFT, one gather and one phase, L entries, on every corner of the
    # quasi-periodicity: p > q > 1, q > p > 1, p = 1 and q = 1.
    rng = np.random.default_rng(900 + L)
    for lat in divisor_lattices(L):
        c, p, q, d = _factor_sizes(lat)
        g = random_signal(rng, L)
        fiber, scale = _fiber(g, lat)
        blocks, factor_scale = _window_factor(g, lat)
        where = f"(L, a, b) = {(L, lat.a, lat.b)}"
        assert fiber.shape == (d, c, q, p) and fiber.size == L, where
        assert scale == factor_scale, where
        for want in (blocks[:, 0], translate_window_factor(L, lat.a, lat.b, g)[:, 0]):
            assert np.abs(fiber - want).max() <= 1e-13 * np.abs(want).max(), where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_every_sigma_is_the_fiber_up_to_unitaries(L):
    # Block sigma is R W0 B: the fiber's rows permuted and phased in nu1,
    # times one diagonal of column phases B, so its Gram block is
    # B^H (W0^H W0) B.
    rng = np.random.default_rng(1000 + L)
    for lat in divisor_lattices(L):
        c, p, q, d = _factor_sizes(lat)
        g = random_signal(rng, L)
        fiber, _ = _fiber(g, lat)
        want = translate_window_factor(L, lat.a, lat.b, g)  # [nu1, sigma, rho, k0, nu2]
        where = f"(L, a, b) = {(L, lat.a, lat.b)}"
        rows, dj = _covariance(lat, np.arange(q)[:, None], np.arange(q))  # [sigma, k0]
        assert np.array_equal(dj % p, np.broadcast_to(dj[:, :1] % p, dj.shape)), where
        row_phase = root_of_unity(-np.arange(d)[:, None, None] * dj, lat.b)  # [nu1, sigma, k0]
        column_phase = root_of_unity(-np.outer(dj[:, 0], np.arange(p)), p)  # [sigma, nu2]
        moved = fiber[:, :, rows].transpose(0, 2, 1, 3, 4)
        got = row_phase[:, :, None, :, None] * moved * column_phase[:, None, None, :]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), where
        gram = np.conj(want).swapaxes(-1, -2) @ want
        fiber_gram = (np.conj(fiber).swapaxes(-1, -2) @ fiber)[:, None]
        got = np.conj(column_phase)[:, None, :, None] * fiber_gram * column_phase[:, None, None, :]
        assert np.abs(got - gram).max() <= 1e-13 * np.abs(gram).max(), where


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


def test_round_trip_holds_few_full_size_arrays():
    # One coefficient grid is n = 262144 entries, 4 MiB.  The window factor
    # (q = 16, p = 1) is a view of a Zak table of 2*L entries, an eighth of a
    # grid.  Synthesis holds the grid it was given, its own working grid, the
    # table and an L-size Zak array; a q*L copy of the factor (a grid) or an
    # out-of-place FFT would add a third.
    L = 16384
    lat = SeparableLattice(L, 16, 64)
    rng = np.random.default_rng(7)
    g = random_signal(rng, L)
    f = random_signal(rng, L)
    grid_bytes = 16 * lat.cardinality
    tracemalloc.start()
    try:
        synthesis_map(g, lat, coefficient_map(g, lat, f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * grid_bytes, f"round-trip peak {peak / 2**20:.1f} MiB"


def test_window_factor_holds_its_zak_table_alone():
    # q = 16 and p = 1: the blocks are q*L = 16*L entries, but the factor is
    # a view of a 2*L table, made from L + M periods of the window.
    L = 16384
    lat = SeparableLattice(L, 16, 64)
    assert _factor_sizes(lat)[1:3] == (1, 16)
    g = random_signal(np.random.default_rng(7), L)
    tracemalloc.start()
    try:
        blocks, _ = _window_factor(g, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks.size == 16 * L
    assert peak < 4 * 16 * L, f"factor peak {peak / (16 * L):.2f} L entries"


def test_synthesis_map_takes_a_stack_of_grids():
    # On both routes: a random window takes the Zak route, and a span of M,
    # wrapping across 0, the painless route with its FFT one slab at a time.
    rng = np.random.default_rng(5)
    for L, a, b in ((24, 4, 6), (24, 8, 2), (36, 3, 12)):
        lat = SeparableLattice(L, a, b)
        windows = {"zak": random_signal(rng, L), "painless": span_window(rng, L, L - 1, lat.n_freq)}
        for route, g in windows.items():
            where = f"{route} on (L, a, b) = {(L, a, b)}"
            assert (_painless_span(g, lat) is not None) == (route == "painless"), where
            stack = random_signal(rng, 3 * 2 * lat.cardinality).reshape(3, 2, *lat.grid_shape)
            got = synthesis_map(g, lat, stack)
            assert got.shape == (3, 2, L), where
            assert synthesis_map(g, lat, stack[:0]).shape == (0, 2, L), where  # an empty kernel basis
            for index in np.ndindex(3, 2):
                want = synthesis_map(g, lat, stack[index])
                assert np.linalg.norm(got[index] - want) <= 1e-14 * np.linalg.norm(want), where


def span_window(rng, L, start, span, hole=None):
    """A random complex window whose nonzeros lie in ``[start, start + span)``
    mod L, with an exact zero at offset ``hole`` when given."""
    g = np.zeros(L, dtype=complex)
    g[(start + np.arange(span)) % L] = random_signal(rng, span)
    if hole is not None:
        g[(start + hole) % L] = 0.0
    return g


def painless_windows(rng, L, M):
    """Spans 1..M at random starts; the span M starts at L - 1, so it wraps
    across 0 whenever M > 1, and every other span of at least 4 has an
    interior zero."""
    for span in range(1, M + 1):
        start = L - 1 if span == M else int(rng.integers(L))
        hole = int(rng.integers(1, span - 1)) if span >= 4 and span % 2 == 0 else None
        yield start, span, span_window(rng, L, start, span, hole)


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_painless_maps_match_the_zak_route_and_dense(L):
    rng = np.random.default_rng(600 + L)
    for lat in divisor_lattices(L):
        for start, span, g in painless_windows(rng, L, lat.n_freq):
            where = f"span {span} at {start} on (L, a, b) = {(L, lat.a, lat.b)}"
            assert _painless_span(g, lat) is not None, where
            f = random_signal(rng, L)
            stack = random_signal(rng, 2 * lat.cardinality).reshape(2, *lat.grid_shape)
            blocks, _ = _window_factor(g, lat)
            coeffs = coefficient_map(g, lat, f).values
            signals = synthesis_map(g, lat, stack)
            assert signals.shape == (2, L), where
            dense_coeffs = (analysis_matrix(g, lat) @ f).reshape(lat.grid_shape)
            dense_signals = (synthesis_matrix(g, lat) @ stack.reshape(2, -1).T).T
            routes = {
                "coefficient_map": (coeffs, [_analyze(blocks, lat, f), dense_coeffs]),
                "synthesis_map": (signals, [_synthesize(blocks, lat, stack), dense_signals]),
            }
            for name, (got, wants) in routes.items():
                for want in wants:
                    err = np.linalg.norm(got - want) / np.linalg.norm(want)
                    assert err <= 1e-12, f"{name}, {where}: {err:.2e}"


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_painless_route_ends_at_a_span_of_M(monkeypatch, L):
    # A span of M takes the painless route; a span of M + 1 takes the Zak
    # route, even with an interior zero that leaves only M nonzeros.
    factors = []

    def spy(g, lattice):
        factors.append(lattice)
        return _window_factor(g, lattice)

    monkeypatch.setattr(operators, "_window_factor", spy)
    rng = np.random.default_rng(700 + L)
    for lat in divisor_lattices(L):
        M = lat.n_freq
        f = random_signal(rng, L)
        cases = [(M, None, True)]
        if M < L:
            cases.append((M + 1, None, False))
        if 2 < M + 1 < L:
            cases.append((M + 1, M // 2, False))
        for span, hole, painless in cases:
            start = int(rng.integers(L))
            g = span_window(rng, L, start, span, hole)
            where = f"span {span} at {start} on (L, a, b) = {(L, lat.a, lat.b)}"
            route = _painless_span(g, lat)
            assert (route is not None) == painless, where
            if painless and span < L:  # a span of L may start anywhere
                assert route[0] == start, where
                assert np.array_equal(route[1], g[(start + np.arange(M)) % L]), where
            factors.clear()
            got = coefficient_map(g, lat, f).flat
            assert factors == ([] if painless else [lat]), where
            want = analysis_matrix(g, lat) @ f
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), where


#: A painless window on each ``stream`` lattice: (window, support <= L/b).
STREAM_PAINLESS = (
    (4096, 8, 32, "random"),
    (16384, 16, 64, "bspline:3:64"),
    (32768, 64, 128, "bspline:1:256"),
    (65536, 256, 256, "bspline:1:256"),
)


@pytest.mark.parametrize("L,a,b,window", STREAM_PAINLESS, ids=[str(s[:3]) for s in STREAM_PAINLESS])
def test_painless_round_trip_builds_no_factor(monkeypatch, L, a, b, window):
    # S of a painless system is the Walnut diagonal
    # w(t) = (L/b) * sum_k |g(t - k*a)|^2, so the round trip is w * f, and
    # frame_operator_apply takes the same painless route.
    def refuse(*args, **kwargs):
        raise AssertionError("a painless map built the window factor")

    monkeypatch.setattr(operators, "_window_factor", refuse)
    rng = np.random.default_rng(L)
    lat = SeparableLattice(L, a, b)
    if window == "random":
        g = span_window(rng, L, L - lat.n_freq // 2, lat.n_freq)
    else:
        g = reporting.AnalysisConfig(length=L, a=a, b=b, window=window).build_window().samples
    f = random_signal(rng, L)
    walnut = lat.n_freq * np.tile((np.abs(g) ** 2).reshape(lat.n_time, a).sum(axis=0), lat.n_time)
    for got in (synthesis_map(g, lat, coefficient_map(g, lat, f)), frame_operator_apply(g, lat, f)):
        assert np.linalg.norm(got - walnut * f) <= 1e-12 * np.linalg.norm(walnut * f)


def test_painless_maps_hold_a_few_signals_beside_their_grids():
    # L = 16384 on (16, 64), (c, p, q, d) = (16, 1, 16, 64): the grid is
    # n = 16*L entries.  Analysis holds its grid and the signal read from s0
    # with M - a samples more; synthesis its L + p*M - a buffer and one slab
    # of L/p.  numpy adds fixed buffers for a strided or broadcast operand,
    # about 256 KiB, here L entries.  The phase table is built inside.
    L = 16384
    lat = SeparableLattice(L, 16, 64)
    g = reporting.AnalysisConfig(length=L, a=16, b=64, window="bspline:3:64").build_window()
    f = random_signal(np.random.default_rng(7), L)

    def traced(call):
        """``call()`` and its tracemalloc peak, in complex entries."""
        operators._roll_phase.cache_clear()
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1] / 16
        finally:
            tracemalloc.stop()

    coeffs, analysis = traced(lambda: coefficient_map(g, lat, f))
    _, synthesis = traced(lambda: synthesis_map(g, lat, coeffs))
    beside = analysis - lat.cardinality
    assert beside <= 3 * L, f"analysis holds {beside / L:.2f} L beside its grid"
    assert synthesis <= 4 * L, f"synthesis holds {synthesis / L:.2f} L"


def test_painless_round_trip_holds_few_full_size_arrays():
    # One coefficient grid is n = 262144 entries, 4 MiB.  The painless round
    # trip holds the grid it was given, one slab of L/p entries at a time for
    # synthesis and L-size periods of the signal; an FFT of the whole grid
    # would add a second grid.
    L = 16384
    lat = SeparableLattice(L, 16, 64)
    g = reporting.AnalysisConfig(length=L, a=16, b=64, window="bspline:3:64").build_window()
    f = random_signal(np.random.default_rng(7), L)
    grid_bytes = 16 * lat.cardinality
    tracemalloc.start()
    try:
        synthesis_map(g, lat, coefficient_map(g, lat, f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid_bytes, f"round-trip peak {peak / 2**20:.1f} MiB"


def oracle_windows(rng, L):
    """A random complex window and a box of width about L/4, both unit."""
    box = np.zeros(L)
    box[: max(1, L // 4)] = 1.0
    return {"random": random_unit_window(rng, L), "box": Window.unit(box, "box")}


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_kernel_basis_matches_dense_on_every_divisor_lattice(L):
    rng = np.random.default_rng(100 + L)
    for lat in divisor_lattices(L):
        n = lat.cardinality
        for name, g in oracle_windows(rng, L).items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            D = synthesis_matrix(g, lat)
            _, svals, vh = np.linalg.svd(D, full_matrices=False)
            rank = int(np.sum(svals > lattice_cutoff(lat) * svals[0]))
            basis = np.array([seq.flat for seq in kernel_basis(g, lat)]).reshape(-1, n)
            assert basis.shape[0] == n - rank, where
            if not basis.shape[0]:
                continue
            gram = basis.conj() @ basis.T
            assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12, where
            # Equal dimensions and orthonormal: the sine of the largest
            # principal angle to the dense nullspace is the basis's reach
            # into D's row space.
            assert np.linalg.norm(vh[:rank] @ basis.T, 2) <= 1e-10, where
            witnesses = np.linalg.norm(D @ basis.T, axis=0)
            assert witnesses.max() <= 1e-10, where
            assert witnesses.max() <= (lattice_cutoff(lat) + 1e-14) * svals[0], where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_character_residuals_and_index_match_the_loop(L):
    rng = np.random.default_rng(200 + L)
    for lat in divisor_lattices(L):
        if not lat.has_commuting_shifts:
            continue
        for name, g in oracle_windows(rng, L).items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            want = naive_character_residuals(L, lat.a, lat.b, g.samples)
            sigma_max = np.linalg.norm(synthesis_matrix(g, lat), 2)
            # q = 1: one character per 1 x p block, its residual the block's
            # singular value, so the residuals are the synthesis spectrum.
            got = SystemSpectra(g, lat).synthesis
            assert np.abs(got - np.sort(want, axis=None)[::-1]).max() <= 1e-13 * sigma_max, where
            cutoff = lattice_cutoff(lat) * sigma_max
            assert index_commutative(g, lat) == int(np.sum(want <= cutoff)), where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_kernel_index_and_harness_share_one_cutoff_on_every_divisor_lattice(L):
    # On any lattice the report's surrogate and the harness's deficiency of
    # the adjoint Gramian (xiii) are the adjoint kernel's dimension, and so
    # are both indices on a commuting adjoint; the kernel is empty exactly
    # when the harness finds (viii).  With a cutoff per rule, the Gaussian
    # at L = 18 on (1, 18) had index 1 and an empty kernel.
    rng = np.random.default_rng(700 + L)
    windows = oracle_windows(rng, L)
    windows["gaussian"] = Window.unit(periodized_gaussian(L), "gaussian")
    for lat in divisor_lattices(L):
        adjoint = lat.adjoint()
        config = reporting.AnalysisConfig(length=L, a=lat.a, b=lat.b)
        for name, g in windows.items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            spectra = SystemSpectra(g, lat)
            dimension = len(kernel_basis(g, adjoint, spectra=spectra.adjoint))
            verdict = check_all_conditions(g, lat, spectra=spectra)
            assert verdict.conditions["viii"] == (dimension == 0), where
            assert verdict.residuals["xiii"] == dimension, where
            if adjoint.has_commuting_shifts:
                assert index_commutative(g, adjoint, spectra=spectra.adjoint) == dimension, where
            # The kernel fills the adjoint's spectrum from its own SVD's
            # sigma = 0 fiber, and a fresh entry decomposes the fiber alone:
            # either way the index is the kernel's dimension exactly.
            for entry_spectra in (spectra, SystemSpectra(g, lat)):
                entry = reporting._task_index(g, lat, config, None, entry_spectra)
                assert entry["kernel_dimension_surrogate"] == dimension, where
                assert entry["index"] == (dimension if adjoint.has_commuting_shifts else None), where


@pytest.mark.parametrize("length,lattice", [("16", "4,4"), ("16", "2,4"), ("24", "4,4")])
def test_kernel_command_builds_no_dense_matrix(monkeypatch, capsys, length, lattice):
    # Adjoint lattice: the lattice itself, commuting, non-commuting.
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel command built a dense matrix")

    for name in ("atom_stack", "analysis_matrix", "synthesis_matrix",
                 "frame_operator_matrix", "gramian_matrix", "_twisted_matrix"):
        monkeypatch.setattr(operators, name, refuse)
    assert main(["kernel", "--length", length, "--lattice", lattice, "--window", "random"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results["kernel"]["witness_residuals"]) == results["kernel"]["dimension"]
    assert max(results["kernel"]["witness_residuals"], default=0.0) <= 1e-10


def test_kernel_basis_memory_guard(monkeypatch, capsys):
    # Adjoint (2, 2) of (8, 8) at L = 16: n = 64, (p, q) = (1, 4), so the
    # fiber SVD holds the fiber's 16 entries, U's 64 and V^H's 16/4*1 = 4,
    # 84 in all, and the kernel basis 48 x 64 = 3072.
    g = random_unit_window(np.random.default_rng(9), 16)
    lat = SeparableLattice(16, 2, 2)
    assert len(kernel_basis(g, lat)) == 48
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 3071)
    with pytest.raises(MemoryGuardError, match="kernel basis would need 3072 entries"):
        kernel_basis(g, lat)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 83)
    with pytest.raises(MemoryGuardError, match="kernel block SVD would need 84 entries"):
        kernel_basis(g, lat)
    assert main(["kernel", "--length", "16", "--lattice", "8,8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel block SVD would need")
    assert "Traceback" not in err


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_gramian_spectrum_matches_dense_on_every_divisor_lattice(L):
    # And the frame spectrum: both are the squared synthesis spectrum,
    # compact in the duality record, which pads them with exact zeros to n
    # (as the adjoint's adjoint Gramian) and to L.  The zeros must fall
    # below the harness's cutoff wherever the dense eigenvalues do (iv and xiii).
    rng = np.random.default_rng(300 + L)
    for lat in divisor_lattices(L):
        cut2 = lattice_cutoff(lat) ** 2
        for name, g in oracle_windows(rng, L).items():
            spectra = SystemSpectra(g, lat)
            compact = {
                "gramian": duality_check(g, lat.adjoint(), spectra=spectra.adjoint)
                .adjoint_gramian_spectrum,
                "frame": duality_check(g, lat, spectra=spectra).frame_spectrum,
            }
            dense = {
                "gramian": dense_gramian_spectrum(gramian_matrix(g, lat), L, rng),
                "frame": (np.linalg.eigvalsh(frame_operator_matrix(g, lat)), 0.0),
            }
            for kind, (want, slack) in dense.items():
                where = f"{kind} spectrum, {name} window on (L, a, b) = {(L, lat.a, lat.b)}"
                got = padded_spectrum(**compact[kind])
                assert got.shape == want.shape, where
                assert np.abs(got - want).max() + slack <= 1e-13 * want[-1], where
                deficiency = [np.count_nonzero(s <= cut2 * s[-1]) for s in (got, want)]
                assert deficiency[0] == deficiency[1], where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_cross_gramian_matches_the_atom_stack_product_on_every_divisor_lattice(L):
    # The cross-Gramian was this product of two n x L atom stacks; it is the
    # twisted multiplier by the n coefficients <phi, shift(lam) g>.
    rng = np.random.default_rng(700 + L)
    for lat in divisor_lattices(L):
        phi, g = random_signal(rng, L), random_unit_window(rng, L)
        want = np.conj(atom_stack(g, lat)) @ atom_stack(phi, lat).T
        got = cross_gramian(phi, g, lat)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (L, lat.a, lat.b)


def test_sweep_builds_no_dense_gramian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a dense S, Gramian or synthesis matrix")

    for name in ("frame_operator_matrix", "gramian_matrix", "_twisted_matrix", "synthesis_matrix"):
        monkeypatch.setattr(operators, name, refuse)
    assert main(["sweep", "--length", "12", "--window", "random"]) == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--length", "16", "--lattice", "2,4", "--tasks",
     "bounds,conditions,duality,janssen,dual_window,kernel,index,gallery"],
    ["analyze", "--length", "16", "--lattice", "4,2", "--tasks", "index"],
    ["dual", "--length", "16", "--lattice", "2,4"],
    ["gallery"],
])
def test_commands_build_no_synthesis_matrix(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a command built the dense synthesis matrix or S")

    for name in ("synthesis_matrix", "frame_operator_matrix"):
        monkeypatch.setattr(operators, name, refuse)
    assert main(argv) == 0


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_compact_readings_equal_padded_readings_on_every_divisor_lattice(L):
    # Reading the fiber's values by multiplicity is reading D's padded
    # spectrum value by value, bit for bit: the missing count, the deciding
    # value and the margin, of D and of D squared (S and the Gramian), on
    # the lattice and its adjoint, with as many values needed as each
    # verdict needs (L, n and the adjoint's n').
    rng = np.random.default_rng(900 + L)
    model = FiniteModel(L)
    windows = {"random": random_unit_window(rng, L)}
    for recipe in ("delta", "periodized_gaussian", "bspline:1:4", "bspline:2:4"):
        if not WindowRecipe.parse(recipe).fault(L):
            windows[recipe] = make_window(WindowRecipe.parse(recipe), model)
    for lat in divisor_lattices(L):
        cut = lattice_cutoff(lat)
        needs = {L, lat.cardinality, lat.a * lat.b}
        for name, g in windows.items():
            spectra = SystemSpectra(g, lat)
            for entry in (spectra, spectra.adjoint):
                q = _factor_sizes(entry.lattice)[2]
                for power, cutoff in ((1, cut), (2, cut**2)):
                    compact = entry.synthesis**power
                    padded = padded_spectrum(compact, q)
                    for need in needs:
                        where = f"{name} on {(L, lat.a, lat.b)}, {entry.lattice}, ^{power}, {need}"
                        got = _reading(compact, need, cutoff, q)
                        assert got == naive_reading(padded, need, cutoff), where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_synthesis_spectrum_matches_dense_on_every_divisor_lattice(L):
    rng = np.random.default_rng(400 + L)
    for lat in divisor_lattices(L):
        for name, g in oracle_windows(rng, L).items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            want = np.linalg.svd(synthesis_matrix(g, lat), compute_uv=False)
            spectra = SystemSpectra(g, lat)
            got = padded_spectrum(spectra.synthesis, _factor_sizes(lat)[2])
            assert got.shape == want.shape == (min(L, lat.cardinality),), where
            assert np.abs(got - want).max() <= 1e-13 * want[0], where
            # C = D^H entry for entry, so the dense analysis spectrum is D's.
            assert np.abs(spectra.analysis - got).max() <= 1e-13 * got[0], where


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_fiber_spectrum_matches_the_full_factor_on_every_divisor_lattice(L):
    # A block's singular values do not depend on sigma (notes/decisions.md),
    # so the sigma = 0 fiber's, each q times, are those of all q*L entries.
    rng = np.random.default_rng(800 + L)
    for lat in divisor_lattices(L):
        q = _factor_sizes(lat)[2]
        for name, g in oracle_windows(rng, L).items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            blocks, scale = _window_factor(g, lat)
            full = scale * np.linalg.svd(blocks, compute_uv=False)  # [nu1, sigma, rho, i]
            sigma_max = full.max()
            assert np.abs(full - full[:, :1]).max() <= 1e-13 * sigma_max, where
            got = padded_spectrum(SystemSpectra(g, lat).synthesis, q)
            assert got.shape == (full.size,), where
            assert np.abs(got - np.sort(full, axis=None)[::-1]).max() <= 1e-13 * sigma_max, where


# (c, p, q, d) = (4, 2, 3, 2), (1, 4, 3, 1), (4, 1, 3, 2), (2, 2, 1, 4), (1, 3, 4, 2).
@pytest.mark.parametrize("L, a, b", [(48, 8, 4), (12, 4, 4), (24, 4, 2), (16, 4, 8), (24, 3, 6)])
def test_synthesis_decomposes_only_the_sigma_zero_fiber(rng, linalg_calls, L, a, b):
    # One SVD of the fiber's d*c blocks of q x p, L entries, not of the
    # factor's d*q*c blocks, q*L entries.
    lat = SeparableLattice(L, a, b)
    c, p, q, d = _factor_sizes(lat)
    svd = linalg_calls("svd")["svd"]
    spectra = SystemSpectra(random_unit_window(rng, L), lat)
    assert spectra.synthesis.size == d * c * min(p, q)
    assert padded_spectrum(spectra.synthesis, q).size == min(L, lat.cardinality)
    assert svd == [(d, c, q, p)] and d * c * q * p == L
    # S is D's spectrum squared, compact, with no second decomposition of
    # the lattice (the duality record decomposes the adjoint's fiber).
    assert duality_check(spectra.g, lat, spectra=spectra).frame_spectrum["multiplicity"] == q
    assert svd[0] == (d, c, q, p) and len(svd) == (1 if a * b == L else 2)


@pytest.mark.parametrize("L, a, b", [(48, 8, 4), (12, 4, 4), (24, 4, 2), (16, 4, 8), (24, 3, 6)])
def test_kernel_decomposes_only_the_sigma_zero_fiber(rng, linalg_calls, L, a, b):
    # One SVD with vectors of the fiber's d*c blocks, not of the factor's
    # d*q*c; every sigma's null vectors are the fiber's moved by R.  It
    # also fills the synthesis spectrum, so the index adds no decomposition.
    lat = SeparableLattice(L, a, b)
    c, p, q, d = _factor_sizes(lat)
    svd = linalg_calls("svd")["svd"]
    spectra = SystemSpectra(random_unit_window(rng, L), lat)
    basis = kernel_basis(spectra.g, lat, spectra=spectra)
    svals = padded_spectrum(spectra.synthesis, q)
    assert len(basis) == lat.cardinality - np.sum(svals > lattice_cutoff(lat) * svals[0])
    assert svd == [(d, c, q, p)]


def test_synthesis_blocks_memory_guard(monkeypatch):
    # (1, 1) at L = 4096: q = 4096, but the fiber holds L entries and D has
    # L singular values, so 2*L fit far under the cap; the entry keeps one.
    spectra = SystemSpectra(np.ones(4096), SeparableLattice(4096, 1, 1))
    assert padded_spectrum(spectra.synthesis, 4096).shape == (4096,)
    assert spectra.synthesis.shape == (1,)
    # (2, 2) at L = 16: the fiber holds 16 entries and D has min(16, 64) = 16
    # singular values, q = 4 times each of the fiber's 4.
    g = random_unit_window(np.random.default_rng(13), 16)
    lat = SeparableLattice(16, 2, 2)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 32)
    assert padded_spectrum(SystemSpectra(g, lat).synthesis, 4).shape == (16,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 31)
    with pytest.raises(MemoryGuardError, match="synthesis blocks would need 32 entries"):
        SystemSpectra(g, lat).synthesis


def test_gramian_blocks_memory_guard(monkeypatch):
    # The Gramian spectrum is the compact synthesis spectrum squared, so it
    # charges only the synthesis blocks, never its n eigenvalues.  (1, 1) at
    # L = 4096, as the adjoint of (4096, 4096): n = 4096^2 eigenvalues, one
    # value q = 4096 times after n - 4096 zeros, under a cap of 2*L.
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 8192)
    compact = duality_check(np.ones(4096), SeparableLattice(4096, 4096, 4096))
    spectrum = compact.adjoint_gramian_spectrum
    assert (spectrum["values"].size, spectrum["multiplicity"]) == (1, 4096)
    assert spectrum["zeros"] == 4096**2 - 4096
    # (2, 2) at L = 16, as the adjoint of (8, 8): the fiber holds 16 entries
    # and G has n = 64 eigenvalues; (8, 8) charges 16 + 4.
    g = random_unit_window(np.random.default_rng(11), 16)
    lat = SeparableLattice(16, 8, 8)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 32)
    assert padded_spectrum(**duality_check(g, lat).adjoint_gramian_spectrum).shape == (64,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 31)
    with pytest.raises(MemoryGuardError, match="synthesis blocks would need 32 entries"):
        duality_check(g, lat)


def test_frame_spectrum_and_dual_memory_guards(monkeypatch):
    # (1, 1) at L = 4096: the fiber and the L singular values of D, 2*L
    # entries; S's L eigenvalues are one value q = 4096 times.
    spectrum = duality_check(np.ones(4096), SeparableLattice(4096, 1, 1)).frame_spectrum
    assert padded_spectrum(**spectrum).shape == (4096,)
    # (8, 4) at L = 48: (c, p, q, d) = (4, 2, 3, 2), so the fiber holds 48
    # entries and D has 48 singular values, as S has eigenvalues (its
    # adjoint (12, 6) charges 48 + 32); the dual holds the fiber, the Zak
    # transform of g (48 each) and d*c = 8 Gram blocks of 2 x 2, 128 in all.
    g = random_unit_window(np.random.default_rng(17), 48)
    lat = SeparableLattice(48, 8, 4)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 96)
    assert padded_spectrum(**duality_check(g, lat).frame_spectrum).shape == (48,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 95)
    with pytest.raises(MemoryGuardError, match="synthesis blocks would need 96 entries"):
        duality_check(g, lat)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 128)
    assert wexler_raz_dual(g, lat).samples.shape == (48,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 127)
    with pytest.raises(MemoryGuardError, match="frame blocks would need 128 entries"):
        wexler_raz_dual(g, lat)


def test_dual_command_refuses_its_reconstruction_grid_before_the_dual(monkeypatch, capsys):
    # (2, 2) at L = 24: (c, p, q, d) = (2, 1, 6, 2), so the dual holds
    # 2*L + d*c*p^2 = 52 entries and the spectrum L + min(L, n) = 48, but the
    # reconstruction round trip's grid is n = 144.
    lat = SeparableLattice(24, 2, 2)
    c, p, _, d = _factor_sizes(lat)
    assert 2 * lat.L + d * c * p * p == 52 < 100 < lat.cardinality == 144
    solved = []

    def spy(*args):
        solved.append(args)
        return operators._frame_inverse_apply(*args)

    monkeypatch.setattr(diagnostics, "_frame_inverse_apply", spy)
    assert main(["dual", "--length", "24", "--lattice", "2,2"]) == 0
    assert len(solved) == 1
    solved.clear()
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 100)
    assert main(["dual", "--length", "24", "--lattice", "2,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reconstruction grid would need 144 entries")
    assert solved == []


def test_analyze_refuses_at_the_atom_stack_before_any_dense_decomposition(
    linalg_calls, capsys
):
    # n = 8192 atoms of length 4096 for the dense analysis spectrum: 2^25
    # entries.  The bounds task before it reads only the window factor's
    # sigma = 0 fiber, (d, c) blocks of q x p.
    shapes = linalg_calls("eigvalsh", "svd")
    assert main(["analyze", "--length", "4096", "--lattice", "64,32"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: atom stack would need 33554432 entries")
    assert shapes["eigvalsh"] == []
    assert all(len(shape) == 4 for shape in shapes["svd"]), shapes["svd"]


@pytest.mark.parametrize("what, entries, call", [
    ("represented operator", 64, lambda g, f, unit: represent(unit)),
    ("twisted multiplier matrix", 256, lambda g, f, unit: right_multiplier_matrix(unit)),
    ("twisted multiplier matrix", 256, lambda g, f, unit: twisted_convolve(unit, unit)),
    ("twisted multiplier matrix", 256, lambda g, f, unit: twisted_invert(unit)),
    ("cross-Gramian", 256, lambda g, f, unit: cross_gramian(g, g, unit.lattice)),
    ("STFT grid", 64, lambda g, f, unit: stft_grid(f, g.samples)),
    ("STFT grid", 64, lambda g, f, unit: modulation_norm_proxy(f, 1)),
], ids=["represent", "right_multiplier_matrix", "twisted_convolve", "twisted_invert",
        "cross_gramian", "stft_grid", "modulation_norm_proxy"])
def test_dense_paths_refuse_above_the_cap(monkeypatch, what, entries, call):
    # On (8, 2, 2): the represented operator and the STFT grid hold L^2 = 64
    # entries, and the twisted multiplier and the cross-Gramian n^2 = 256;
    # the cross-Gramian builds no atom stack, only phi's n coefficients.
    rng = np.random.default_rng(31)
    g, f = random_unit_window(rng, 8), random_signal(rng, 8)
    unit = TwistedSequence.delta(SeparableLattice(8, 2, 2))
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", entries)
    call(g, f, unit)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", entries - 1)
    with pytest.raises(MemoryGuardError, match=f"{what} would need {entries} entries"):
        call(g, f, unit)


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_dual_matches_dense_solve_on_every_divisor_lattice(L):
    rng = np.random.default_rng(500 + L)
    for lat in divisor_lattices(L):
        for name, g in oracle_windows(rng, L).items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            try:
                got = wexler_raz_dual(g, lat).samples
            except NotAFrameError:
                continue
            S = frame_operator_matrix(g, lat)
            eigs = np.linalg.eigvalsh(S)
            want = np.linalg.solve(S, g.samples)
            # Both routes are backward stable: each is off by about EPS*kappa.
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 16 * np.finfo(float).eps * eigs[-1] / eigs[0], where


@pytest.mark.parametrize("length,lattice", [("48", "8,4"), ("36", "4,3"), ("24", "1,12")])
def test_dual_command_builds_no_s_and_solves_only_blocks(
    monkeypatch, linalg_calls, capsys, length, lattice
):
    # (c, p, q, d) = (4, 2, 3, 2), (4, 1, 3, 3) and (1, 1, 2, 12): one solve
    # of the fiber's d*c Gram blocks of p x p, every sigma a right-hand side.
    builds = []
    real_build = operators.frame_operator_matrix

    def build(*args, **kwargs):
        builds.append(args[1])
        return real_build(*args, **kwargs)

    # Counted wherever the builder's name is bound.
    for module in (operators, diagnostics, reporting):
        if hasattr(module, "frame_operator_matrix"):
            monkeypatch.setattr(module, "frame_operator_matrix", build)
    solved = linalg_calls("solve")["solve"]
    assert main(["dual", "--length", length, "--lattice", lattice]) == 0
    assert json.loads(capsys.readouterr().out)["biorthogonality_residual"] <= 1e-10
    lat = SeparableLattice(int(length), *map(int, lattice.split(",")))
    c, p, q, d = _factor_sizes(lat)
    assert builds == []
    assert solved == [(d, c, p, p)]
