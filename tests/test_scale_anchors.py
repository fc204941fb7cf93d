"""Closed forms that check the factorized routes beyond the dense cap.

Above ``L = 4096`` no dense matrix can check a fast route, so these tests
assert what is known exactly at any length.  The periodized Gaussian on the
critical lattice ``(sqrt(L), sqrt(L))`` with even ``sqrt(L)`` annihilates
the alternating sequence exactly (acceptance criterion 08), and that
character spans the whole kernel: dimension 1, index 1, witness 0, and a
lower frame bound of zero.

On ``(n, n)`` with ``L = 2*n**2`` (redundancy 2) the same window has frame
bounds over redundancy that do not depend on L (the finite side of
Sondergaard, "Gabor frames by sampling and periodization", 2007).  By the
Ron-Shen / Janssen duality they are the extreme eigenvalues of the Gramian
on the adjoint lattice ``(2n, 2n)``.

On ``(2m, m)`` with ``L = 3*m**2`` (redundancy 3/2, ``p = 2``) the same
window's frame bounds do not depend on m either, which checks the fiber
where each block has two columns.

A painless window, whose support is at most ``M = L/b``, has a diagonal
frame operator, the Walnut diagonal ``M * sum_k |g(t - k*a)|**2``, so the
frame bounds and the squared extreme singular values of the synthesis map
are its extremes, and the canonical dual is the window divided by that
diagonal.

At ``L = 2**20`` the spectra, the kernel and the dual read only the L
entries of the ``sigma = 0`` fiber, and each function that holds an n-entry
grid charges it, so a command refuses before that grid exists.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborkit import (
    FiniteModel,
    SeparableLattice,
    SystemSpectra,
    WindowRecipe,
    duality_check,
    frame_bounds,
    index_commutative,
    margin_cutoff,
    kernel_basis,
    make_window,
    synthesis_map,
    wexler_raz_dual,
)
from gaborkit.cli import main
from gaborkit.operators import _factor_sizes, _frame_inverse_apply
from oracles import padded_spectrum

#: Frame bounds over redundancy of the periodized Gaussian on (n, n), L = 2n^2.
GAUSSIAN_A_OVER_R = 0.83462684167407
GAUSSIAN_B_OVER_R = 1.1803405990161

#: Frame bounds of the periodized Gaussian on (2m, m), L = 3m^2, at every even
#: m from 4 to 256 within 3.2e-15 (worst at m = 8).
GAUSSIAN_LADDER_LOWER = 0.602904396366939
GAUSSIAN_LADDER_UPPER = 2.45099542861082

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("L", [16384, 65536])
def test_critical_gaussian_kernel_is_the_alternating_character(L):
    step = int(np.sqrt(L))
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(L))
    # Not a frame: the dense frame operator here would have L^2 >= 2^28 entries.
    bounds = frame_bounds(g, SeparableLattice(L, step, step))
    assert bounds.frame_lower <= margin_cutoff((L, L)) ** 2 * bounds.frame_upper
    assert bounds.condition_number == float("inf")
    adjoint = SeparableLattice(L, step, step).adjoint()
    basis = kernel_basis(g, adjoint)
    assert len(basis) == 1
    assert index_commutative(g, adjoint) == 1
    (seq,) = basis
    witness = np.linalg.norm(synthesis_map(g, adjoint, seq.values)) / seq.norm2()
    assert witness <= 1e-10
    # The basis vector is the alternating sign (-1)^(k+l), up to a phase.
    k, l = np.indices(adjoint.grid_shape)
    alternating = (-1.0) ** (k + l) / step
    assert abs(abs(np.vdot(alternating, seq.values)) - 1.0) <= 1e-12


def test_index_task_beyond_the_dense_cap(capsys):
    # The index task alone reads the synthesis spectrum; the L x n synthesis
    # matrix here would have 2^32 entries.
    code = main(["analyze", "--length", "65536", "--lattice", "256,256", "--tasks", "index"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"]["index"] == {
        "commutative": True, "index": 1, "kernel_dimension_surrogate": 1,
    }


def painless_system(recipe, L, a, b):
    """A window whose support fits in ``M = L/b``, its lattice and its
    Walnut diagonal over one period ``a``."""
    g = make_window(WindowRecipe.parse(recipe), FiniteModel(L))
    lattice = SeparableLattice(L, a, b)
    assert np.flatnonzero(g.samples)[-1] < lattice.n_freq
    walnut = lattice.n_freq * np.sum(np.abs(g.samples.reshape(-1, a)) ** 2, axis=0)
    return g, lattice, walnut


def test_painless_synthesis_spectrum_is_the_walnut_diagonal():
    L = 65536
    g, lattice, walnut = painless_system("bspline:2:64", L, 64, 256)  # support 127 <= M = 256
    svals = padded_spectrum(SystemSpectra(g, lattice).synthesis, _factor_sizes(lattice)[2])
    assert svals.shape == (L,)
    assert svals[-1] ** 2 == pytest.approx(walnut.min(), rel=1e-13)
    assert svals[0] ** 2 == pytest.approx(walnut.max(), rel=1e-13)
    # The dense frame operator here would have 2^32 entries.
    bounds = frame_bounds(g, lattice)
    assert bounds.frame_lower == pytest.approx(walnut.min(), rel=1e-13)
    assert bounds.frame_upper == pytest.approx(walnut.max(), rel=1e-13)


def test_dual_and_bounds_commands_beyond_the_dense_cap(capsys):
    # The frame operator here would have 2^32 entries, 256 times the cap.
    argv = ["--length", "65536", "--lattice", "64,128"]
    assert main(["dual", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["biorthogonality_residual"] <= 1e-12
    assert main(["analyze", *argv, "--tasks", "bounds,duality"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["duality"]["frame"] and results["duality"]["agree"]
    assert results["bounds"]["condition_number"] < 2.0


def test_kernel_command_beyond_the_dense_cap(capsys):
    # The L x n synthesis matrix here has 2^28 entries, 16 times the cap.
    assert main(["kernel", "--length", "16384", "--lattice", "128,128"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["kernel"]["dimension"] == 1
    assert results["kernel"]["witness_residuals"][0] <= 1e-10
    assert results["index"] == {
        "commutative": True, "index": 1, "kernel_dimension_surrogate": 1,
    }


def half_density_gaussian(L):
    """The periodized Gaussian on ``(n, n)`` with ``L = 2*n**2``, and the
    extreme eigenvalues of its Gramian on the adjoint lattice."""
    n = int(np.sqrt(L // 2))
    assert 2 * n * n == L
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(L))
    lattice = SeparableLattice(L, n, n)
    eigs = padded_spectrum(**duality_check(g, lattice).adjoint_gramian_spectrum)
    return g, lattice, eigs[0], eigs[-1]


@pytest.mark.parametrize("L", [32, 128, 512, 2048])
def test_adjoint_gramian_is_the_frame_bounds_over_redundancy(L):
    # Duality: two factors of different shape, (p, q) = (1, 2) on the
    # lattice and (2, 1) on its adjoint, built from different translates.
    g, lattice, lowest, highest = half_density_gaussian(L)
    bounds = frame_bounds(g, lattice)
    r = lattice.redundancy
    assert lowest == pytest.approx(bounds.frame_lower / r, rel=1e-13)
    assert highest == pytest.approx(bounds.frame_upper / r, rel=1e-13)
    assert lowest == pytest.approx(GAUSSIAN_A_OVER_R, rel=1e-13)
    assert highest == pytest.approx(GAUSSIAN_B_OVER_R, rel=1e-13)


@pytest.mark.parametrize("L", [32768, 131072])
def test_adjoint_gramian_beyond_the_dense_cap(L):
    # The adjoint Gramian here has (L/2)^2 entries, up to 256 times the cap,
    # and the frame operator L^2.
    g, lattice, lowest, highest = half_density_gaussian(L)
    assert lowest == pytest.approx(GAUSSIAN_A_OVER_R, rel=1e-13)
    assert highest == pytest.approx(GAUSSIAN_B_OVER_R, rel=1e-13)
    bounds = frame_bounds(g, lattice)
    assert bounds.frame_lower / lattice.redundancy == pytest.approx(GAUSSIAN_A_OVER_R, rel=1e-13)
    assert bounds.frame_upper / lattice.redundancy == pytest.approx(GAUSSIAN_B_OVER_R, rel=1e-13)


@pytest.mark.parametrize("recipe,L,a,b", [
    ("bspline:2:32", 49152, 48, 768),  # p = 3, M = 64
    ("bspline:2:64", 65536, 64, 256),  # p = 1, M = 256
])
def test_painless_dual_is_the_window_over_the_walnut_diagonal(recipe, L, a, b):
    # The dense frame operator here would have L^2 >= 2^31 entries.
    g, lattice, walnut = painless_system(recipe, L, a, b)
    assert walnut.min() > 0.0
    want = g.samples / np.tile(walnut, L // a)
    got = _frame_inverse_apply(g, lattice, g.samples)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [4, 6, 8, 10, 16, 22, 32, 64, 96, 128, 256])
def test_gaussian_ladder_with_two_fiber_columns(m):
    # (c, p, q, d) = (m, 2, 3, m/2); at m = 256, L = 196608.
    L = 3 * m * m
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(L))
    lattice = SeparableLattice(L, 2 * m, m)
    assert _factor_sizes(lattice) == (m, 2, 3, m // 2)
    bounds = frame_bounds(g, lattice)
    assert abs(bounds.frame_lower - GAUSSIAN_LADDER_LOWER) <= 4e-15
    assert abs(bounds.frame_upper - GAUSSIAN_LADDER_UPPER) <= 4e-15


def test_painless_bounds_and_dual_at_a_million_samples():
    # q = 64 and n = 2^26 atoms: the frame operator would have 2^40 entries,
    # and the window factor q*L = 2^26, four times the cap.
    L = 2**20
    g, lattice, walnut = painless_system("bspline:2:64", L, 64, 256)
    assert _factor_sizes(lattice)[1:3] == (1, 64)
    bounds = frame_bounds(g, lattice)
    assert bounds.frame_lower == pytest.approx(walnut.min(), rel=1e-13)
    assert bounds.frame_upper == pytest.approx(walnut.max(), rel=1e-13)
    want = g.samples / np.tile(walnut, L // lattice.a)
    got = wexler_raz_dual(g, lattice).samples
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_commands_at_a_million_samples_stop_before_any_full_grid(capsys):
    # On (64, 128), n = 2^27: the index reads the adjoint's fiber and runs;
    # the autocorrelation of the bounds task and the reconstruction round
    # trips of the dual would each hold an n-entry grid, 2 GiB, and refuse.
    argv = ["--length", "1048576", "--lattice", "64,128"]
    assert main(["analyze", *argv, "--tasks", "index"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["index"]["index"] == 0
    for command, grid in ((["analyze", *argv, "--tasks", "bounds"], "autocorrelation"),
                          (["dual", *argv], "reconstruction")):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid} grid would need 134217728 entries"), err
        assert "Traceback" not in err


# The peak is the child's VmHWM, which starts afresh at exec; its ru_maxrss
# would keep the forking test process's.
FRAME_BOUNDS_CHILD = """
import re, sys, time
from gaborkit import FiniteModel, SeparableLattice, WindowRecipe, frame_bounds, make_window
L, a, b = map(int, sys.argv[1:])
g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(L))
start = time.perf_counter()
frame_bounds(g, SeparableLattice(L, a, b))
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    print(seconds, int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1)) / 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
@pytest.mark.parametrize(
    "a,b", [(64, 128), (256, 512), (32, 32), (64, 1024), (1024, 64), (512, 512)]
)
def test_frame_bounds_at_a_million_samples_in_a_child(a, b):
    # The fiber holds L = 2^20 entries whatever q is (up to 1024 here); the
    # peak is the child's, numpy included.  Measured 0.06-0.48 s and 86 MiB.
    done = subprocess.run(
        [sys.executable, "-c", FRAME_BOUNDS_CHILD, "1048576", str(a), str(b)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    seconds, peak_mib = map(float, done.stdout.split())
    assert peak_mib < 200, f"peak {peak_mib:.0f} MiB"
    assert seconds < 5, f"{seconds:.2f} s"


ANALYZE_CHILD = """
import re, sys, time
from gaborkit.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    print(code, seconds, int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1)) / 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_duality_report_at_a_million_samples_is_compact(tmp_path):
    # On (64, 128), L/(a*b) = 128: S has L = 2^20 eigenvalues, the fiber's
    # 8192 values squared 128 times each, and the adjoint Gramian on
    # (8192, 16384) has a*b = 8192, each once.  By the Ron-Shen / Janssen
    # duality the two lists agree up to L/(a*b).  Measured 0.5-0.7 s, 101 MiB
    # and a 0.48 MB report.
    out = tmp_path / "report.json"
    argv = ["analyze", "-L", "1048576", "--lattice", "64,128", "--tasks", "duality,index",
            "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-c", ANALYZE_CHILD, *argv],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    code, seconds, peak_mib = done.stdout.split()
    assert int(code) == 0, done.stderr
    assert out.stat().st_size < 10**6
    assert float(peak_mib) < 128, f"peak {float(peak_mib):.0f} MiB"
    assert float(seconds) < 5, f"{float(seconds):.2f} s"
    duality = json.loads(out.read_text())["results"]["duality"]
    frame, gramian = duality["frame_spectrum"], duality["adjoint_gramian_spectrum"]
    assert (frame["multiplicity"], frame["zeros"]) == (128, 0)
    assert (gramian["multiplicity"], gramian["zeros"]) == (1, 0)
    frame, gramian = np.array(frame["values"]), np.array(gramian["values"])
    assert frame.shape == gramian.shape == (8192,)
    assert np.abs(frame - 128 * gramian).max() <= 1e-13 * frame.max()
    assert duality["frame"] and duality["adjoint_riesz"] and duality["agree"]
