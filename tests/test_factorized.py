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
    MemoryGuardError,
    NotAFrameError,
    SeparableLattice,
    SystemSpectra,
    Window,
    analysis_matrix,
    coefficient_map,
    divisor_pairs,
    frame_operator_apply,
    frame_operator_matrix,
    gramian_matrix,
    index_commutative,
    kernel_basis,
    rank_tolerance,
    synthesis_map,
    synthesis_matrix,
    wexler_raz_dual,
)
from gaborkit import diagnostics, operators, reporting
from gaborkit.cli import main
from gaborkit.operators import _factor_sizes, _unzak, _window_factor, _zak
from gaborkit.tolerances import margin_cutoff
from gaborkit.twisted import _character_residuals
from conftest import dense_gramian_spectrum, random_signal, random_unit_window
from oracles import naive_character_residuals, translate_window_factor

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
        assert blocks.shape == want.shape and blocks.flags.c_contiguous, where
        assert np.abs(blocks - want).max() <= 1e-12 * np.abs(want).max(), where
        assert scale == math.sqrt(lat.n_freq / _factor_sizes(lat)[1]), where


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
    # One coefficient grid is n = 262144 entries, 4 MiB, and so is the window
    # factor (q*L, p = 1).  Synthesis holds the grid it was given, the factor,
    # its own working grid and an L-size Zak table; a conjugated copy of the
    # factor or an out-of-place FFT would add a fourth, 16 MiB.
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
    assert peak < 3.5 * grid_bytes, f"round-trip peak {peak / 2**20:.1f} MiB"


def test_synthesis_map_takes_a_stack_of_grids():
    rng = np.random.default_rng(5)
    for L, a, b in ((24, 4, 6), (24, 8, 2), (36, 3, 12)):
        lat = SeparableLattice(L, a, b)
        g = random_signal(rng, L)
        stack = random_signal(rng, 3 * 2 * lat.cardinality).reshape(3, 2, *lat.grid_shape)
        got = synthesis_map(g, lat, stack)
        assert got.shape == (3, 2, L)
        assert synthesis_map(g, lat, stack[:0]).shape == (0, 2, L)  # an empty kernel basis
        for index in np.ndindex(3, 2):
            want = synthesis_map(g, lat, stack[index])
            assert np.linalg.norm(got[index] - want) <= 1e-14 * np.linalg.norm(want)


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
            rank = int(np.sum(svals > rank_tolerance((L, n), svals[0])))
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
            assert np.linalg.norm(D @ basis.T, axis=0).max() <= 1e-10, where


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
            got = _character_residuals(lat, *_window_factor(g, lat))
            assert np.abs(got - want).max() <= 1e-13 * sigma_max, where
            cutoff = margin_cutoff((L, lat.cardinality)) * sigma_max
            assert index_commutative(g, lat) == int(np.sum(want <= cutoff)), where


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
    # Adjoint (2, 2) of (8, 8) at L = 16: n = 64, q = 4, so the block SVD
    # holds 64*4 + 16*1 = 272 entries and the kernel basis 48 x 64 = 3072.
    g = random_unit_window(np.random.default_rng(9), 16)
    lat = SeparableLattice(16, 2, 2)
    assert len(kernel_basis(g, lat)) == 48
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 3071)
    with pytest.raises(MemoryGuardError, match="kernel basis would need 3072 entries"):
        kernel_basis(g, lat)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 271)
    with pytest.raises(MemoryGuardError, match="kernel block SVD would need 272 entries"):
        kernel_basis(g, lat)
    assert main(["kernel", "--length", "16", "--lattice", "8,8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel block SVD would need")
    assert "Traceback" not in err


@pytest.mark.parametrize("L", range(2, MAX_ORACLE_LENGTH + 1))
def test_gramian_spectrum_matches_dense_on_every_divisor_lattice(L):
    # And the frame spectrum: both are the squared synthesis spectrum,
    # padded with exact zeros to n and to L.  The zeros must fall below the
    # harness's cutoff wherever the dense eigenvalues do (iv and xiii).
    rng = np.random.default_rng(300 + L)
    for lat in divisor_lattices(L):
        cut2 = margin_cutoff((L, lat.cardinality, lat.adjoint().cardinality)) ** 2
        for name, g in oracle_windows(rng, L).items():
            spectra = SystemSpectra(g, lat)
            dense = {
                "gramian": dense_gramian_spectrum(gramian_matrix(g, lat), L, rng),
                "frame": (np.linalg.eigvalsh(frame_operator_matrix(g, lat)), 0.0),
            }
            for kind, (want, slack) in dense.items():
                where = f"{kind} spectrum, {name} window on (L, a, b) = {(L, lat.a, lat.b)}"
                got = getattr(spectra, kind)
                assert got.shape == want.shape, where
                assert np.abs(got - want).max() + slack <= 1e-13 * want[-1], where
                deficiency = [np.count_nonzero(s <= cut2 * s[-1]) for s in (got, want)]
                assert deficiency[0] == deficiency[1], where


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
def test_synthesis_spectrum_matches_dense_on_every_divisor_lattice(L):
    rng = np.random.default_rng(400 + L)
    for lat in divisor_lattices(L):
        for name, g in oracle_windows(rng, L).items():
            where = f"{name} window on (L, a, b) = {(L, lat.a, lat.b)}"
            want = np.linalg.svd(synthesis_matrix(g, lat), compute_uv=False)
            got = SystemSpectra(g, lat).synthesis
            assert got.shape == want.shape == (min(L, lat.cardinality),), where
            assert np.abs(got - want).max() <= 1e-13 * want[0], where


def test_synthesis_blocks_memory_guard(monkeypatch):
    # (1, 1) at L = 4096: q = 4096, so the factor alone holds 4096^2 entries
    # and the 4096 singular values tip it over the cap; refused before the
    # factor is built.
    with pytest.raises(MemoryGuardError, match="synthesis blocks would need 16781312 entries"):
        SystemSpectra(np.ones(4096), SeparableLattice(4096, 1, 1)).synthesis
    # (2, 2) at L = 16: q = 4, so the window factor holds 4*16 = 64 entries
    # and D has min(16, 64) = 16 singular values.
    g = random_unit_window(np.random.default_rng(13), 16)
    lat = SeparableLattice(16, 2, 2)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 80)
    assert SystemSpectra(g, lat).synthesis.shape == (16,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 79)
    with pytest.raises(MemoryGuardError, match="synthesis blocks would need 80 entries"):
        SystemSpectra(g, lat).synthesis


def test_gramian_blocks_memory_guard(monkeypatch):
    # (1, 1) at L = 4096: q = 4096, so the factor and the n eigenvalues
    # need 2 * 4096^2 entries; refused before anything is allocated.
    with pytest.raises(MemoryGuardError, match="Gramian spectrum would need 33554432 entries"):
        SystemSpectra(np.ones(4096), SeparableLattice(4096, 1, 1)).gramian
    # (2, 2) at L = 16: q = 4, so the window factor holds 4*16 = 64 entries
    # and G has n = 64 eigenvalues.
    g = random_unit_window(np.random.default_rng(11), 16)
    lat = SeparableLattice(16, 2, 2)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 128)
    assert SystemSpectra(g, lat).gramian.shape == (64,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 127)
    with pytest.raises(MemoryGuardError, match="Gramian spectrum would need 128 entries"):
        SystemSpectra(g, lat).gramian


def test_frame_spectrum_and_dual_memory_guards(monkeypatch):
    # (1, 1) at L = 4096: the factor and the L eigenvalues of S need
    # 4096^2 + 4096 entries; refused before the factor is built.
    with pytest.raises(MemoryGuardError, match="frame spectrum would need 16781312 entries"):
        SystemSpectra(np.ones(4096), SeparableLattice(4096, 1, 1)).frame
    # (8, 4) at L = 48: (p, q) = (2, 3), so the factor holds 3*48 entries,
    # S has 48 eigenvalues and the dual's p x p blocks hold 2*48 entries.
    g = random_unit_window(np.random.default_rng(17), 48)
    lat = SeparableLattice(48, 8, 4)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 192)
    assert SystemSpectra(g, lat).frame.shape == (48,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 191)
    with pytest.raises(MemoryGuardError, match="frame spectrum would need 192 entries"):
        SystemSpectra(g, lat).frame
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 240)
    assert wexler_raz_dual(g, lat).samples.shape == (48,)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", 239)
    with pytest.raises(MemoryGuardError, match="frame blocks would need 240 entries"):
        wexler_raz_dual(g, lat)


def test_analyze_refuses_at_the_atom_stack_before_any_dense_decomposition(
    linalg_calls, capsys
):
    # n = 8192 atoms of length 4096 for the dense analysis spectrum: 2^25
    # entries.  The bounds task before it reads only the window factor.
    shapes = linalg_calls("eigvalsh", "svd")
    assert main(["analyze", "--length", "4096", "--lattice", "64,32"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: atom stack would need 33554432 entries")
    assert shapes["eigvalsh"] == []
    assert all(len(shape) == 5 for shape in shapes["svd"]), shapes["svd"]


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
    # (c, p, q, d) = (4, 2, 3, 2), (4, 1, 3, 3) and (1, 1, 2, 12).
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
    assert solved == [(d, q, c, p, p)]
