"""Each input rule has one owner, and the library refuses what the CLI
refuses: a ``tol_scale`` that is not positive and finite is a
``ConfigError`` on ``tol_scale`` from every public function that takes one,
before any decomposition, and a value that must be a positive integer
dividing L is refused as such wherever it is read."""

import inspect

import numpy as np
import pytest

import gaborkit
from gaborkit import (
    AnalysisConfig,
    ConfigError,
    FiniteModel,
    GaborkitError,
    LatticeError,
    SeparableLattice,
    WindowRecipe,
    gaussian_alternating_kernel_probe,
    janssen_coefficients,
    make_window,
    partition_of_unity_deviation,
    partition_of_unity_kernel,
)
from conftest import random_unit_window

#: Every public function with a ``tol_scale`` parameter, and its other
#: arguments from a window and a commuting lattice.
ARGUMENTS = {
    "check_all_conditions": lambda g, lattice: (g, lattice),
    "duality_check": lambda g, lattice: (g, lattice),
    "frame_bounds": lambda g, lattice: (g, lattice),
    "index_commutative": lambda g, lattice: (g, lattice),
    "kernel_basis": lambda g, lattice: (g, lattice),
    "margin_cutoff": lambda g, lattice: ((lattice.L, lattice.cardinality),),
    "rank_tolerance": lambda g, lattice: ((lattice.L, lattice.cardinality), 1.0),
    "twisted_invert": lambda g, lattice: (janssen_coefficients(g, lattice),),
    "wexler_raz_dual": lambda g, lattice: (g, lattice),
}

LINALG = ("svd", "eigvalsh", "eigh", "eig", "solve", "inv", "lstsq", "qr", "norm")


def test_every_public_tol_scale_function_is_listed():
    found = {
        name for name in gaborkit.__all__
        if inspect.isfunction(getattr(gaborkit, name))
        and "tol_scale" in inspect.signature(getattr(gaborkit, name)).parameters
    }
    assert found == set(ARGUMENTS)


@pytest.mark.parametrize("tol_scale", [0, -1.0, float("nan"), float("inf"), None, "1e3"])
@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_bad_tol_scale_is_refused_before_any_decomposition(rng, linalg_calls, name, tol_scale):
    lattice = SeparableLattice(12, 3, 4)  # commuting: L divides a*b
    args = ARGUMENTS[name](random_unit_window(rng, lattice.L), lattice)
    calls = linalg_calls(*LINALG)
    with pytest.raises(ConfigError) as err:
        getattr(gaborkit, name)(*args, tol_scale=tol_scale)
    assert err.value.field == "tol_scale"
    assert str(err.value) == f"tol_scale: must be positive and finite, got {tol_scale!r}"
    assert {called: shapes for called, shapes in calls.items() if shapes} == {}


def test_numeric_tol_scales_are_accepted():
    dims = (12, 16)
    assert gaborkit.margin_cutoff(dims, 1000) == gaborkit.margin_cutoff(dims, 1e3)
    assert gaborkit.margin_cutoff(dims, np.float64(2.0)) == gaborkit.margin_cutoff(dims, 2.0)
    assert gaborkit.rank_tolerance(dims, 1.0, np.int64(3)) == gaborkit.rank_tolerance(dims, 1.0, 3)


def test_config_refuses_tol_scale_with_the_tolerances_message():
    with pytest.raises(ConfigError) as from_config:
        AnalysisConfig(length=12, a=3, b=4, tol_scale=-1.0).validate()
    with pytest.raises(ConfigError) as from_library:
        gaborkit.margin_cutoff((12,), -1.0)
    assert str(from_config.value) == str(from_library.value)


@pytest.mark.parametrize(
    "recipe",
    [
        WindowRecipe("bspline", widths=(2.0,)),
        WindowRecipe("convolution_product", widths=(4, 2.0)),
        WindowRecipe("convolution_product", widths=(np.float64(4),)),
        WindowRecipe("bspline", order=2.0, widths=(2,)),
    ],
)
def test_non_integer_recipe_fields_are_refused(recipe):
    with pytest.raises(GaborkitError):
        make_window(recipe, FiniteModel(16))
    assert recipe.fault(16)


def test_non_integer_partition_periods_are_refused():
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), FiniteModel(16))
    with pytest.raises(LatticeError, match="period must be a positive integer, got 4.0"):
        partition_of_unity_deviation(g.samples, 4.0)
    with pytest.raises(LatticeError, match="partition period must be a positive integer"):
        partition_of_unity_kernel(g, pou_period=4.0, phases=2)
    assert partition_of_unity_deviation(g.samples, np.int64(4))[1] == 0.0


@pytest.mark.parametrize(
    "L,a,b,field,reason",
    [
        (1, 1, 1, "length", "must be an integer >= 2, got 1"),
        (12.0, 1, 1, "length", "must be an integer >= 2, got 12.0"),
        (12, 5, 4, "a", "5 does not divide L=12"),
        (12, 3, 2.0, "b", "must be a positive integer, got 2.0"),
        (12, 0, 4, "a", "must be a positive integer, got 0"),
    ],
)
def test_config_and_lattice_give_one_reason(L, a, b, field, reason):
    with pytest.raises(ConfigError) as from_config:
        AnalysisConfig(length=L, a=a, b=b).validate()
    assert (from_config.value.field, str(from_config.value)) == (field, f"{field}: {reason}")
    with pytest.raises(LatticeError) as from_lattice:
        SeparableLattice(L, a, b)
    assert str(from_lattice.value).endswith(reason)


@pytest.mark.parametrize("L", [16.0, 1, np.float64(36)])
def test_probe_reads_the_length_rule(L):
    with pytest.raises(LatticeError, match="signal length must be an integer >= 2"):
        gaussian_alternating_kernel_probe(L)


@pytest.mark.parametrize("window", ["", 5, None])
def test_config_refuses_a_window_that_is_not_text(window):
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, window=window).validate()
    assert err.value.field == "window"
