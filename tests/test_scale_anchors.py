"""Closed forms that check the factorized routes beyond the dense cap.

Above ``L = 4096`` no dense matrix can check a fast route, so these tests
assert what is known exactly at any length.  The periodized Gaussian on the
critical lattice ``(sqrt(L), sqrt(L))`` with even ``sqrt(L)`` annihilates
the alternating sequence exactly (acceptance criterion 08), and that
character spans the whole kernel: dimension 1, index 1, witness 0.
"""

import json

import numpy as np
import pytest

from gaborkit import (
    FiniteModel,
    SeparableLattice,
    WindowRecipe,
    index_commutative,
    kernel_basis,
    make_window,
    synthesis_map,
)
from gaborkit.cli import main


@pytest.mark.parametrize("L", [16384, 65536])
def test_critical_gaussian_kernel_is_the_alternating_character(L):
    step = int(np.sqrt(L))
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(L))
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


def test_kernel_command_beyond_the_dense_cap(capsys):
    # The L x n synthesis matrix here has 2^28 entries, 16 times the cap.
    assert main(["kernel", "--length", "16384", "--lattice", "128,128"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["kernel"]["dimension"] == 1
    assert results["kernel"]["witness_residuals"][0] <= 1e-10
    assert results["index"] == {
        "commutative": True, "index": 1, "kernel_dimension_surrogate": 1,
    }
