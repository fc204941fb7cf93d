"""Each input rule has one owner, and the library refuses what the CLI
refuses: a ``tol_scale`` that is not positive and finite is a
``ConfigError`` on ``tol_scale`` from every public function that takes one,
before any decomposition, a value that must be a positive integer
dividing L is refused as such wherever it is read, sample arrays that are
not numbers are a ``ShapeMismatchError`` wherever they are read, and a
window, sequence or signal with a nan or inf sample reaches no
decomposition."""

import inspect
import warnings

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
    ShapeMismatchError,
    TwistedSequence,
    Window,
    WindowRecipe,
    check_all_conditions,
    coefficient_map,
    frame_bounds,
    gaussian_alternating_kernel_probe,
    janssen_coefficients,
    make_window,
    partition_of_unity_deviation,
    partition_of_unity_kernel,
    periodized_gaussian,
    reconstruction_residual,
    shift_matrix,
    sweep,
    synthesis_map,
    tf_shift,
    twisted_invert,
    wexler_raz_dual,
)
from gaborkit.tolerances import _lattice_cutoff
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


@pytest.mark.parametrize("value", [1e3, 0.1, 2.5])
def test_a_float32_tol_scale_gives_the_cutoff_of_its_float(value):
    # numpy keeps float32 * float in float32, which cost 1.4e-15 of the
    # cutoff before the scale was read as a Python float.
    scale, dims = np.float32(value), (48, 96, 24)
    assert gaborkit.margin_cutoff(dims, scale) == gaborkit.margin_cutoff(dims, float(scale))
    assert gaborkit.rank_tolerance(dims, 3.0, scale) == gaborkit.rank_tolerance(dims, 3.0, float(scale))
    lattice = SeparableLattice(48, 2, 4)
    assert _lattice_cutoff(lattice, scale) == _lattice_cutoff(lattice, float(scale))
    assert type(gaborkit.margin_cutoff(dims, scale)) is float


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


def test_config_refuses_a_bare_task_string():
    # A string is a sequence of letters: it used to read as task "b".
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, tasks="bounds").validate()
    assert err.value.field == "tasks"
    assert "sequence of task names" in str(err.value)
    AnalysisConfig(length=12, a=3, b=4, tasks=["bounds"]).validate()


def test_a_width_that_is_not_a_sequence_is_a_recipe_fault():
    recipe = WindowRecipe("convolution_product", widths=2)
    assert recipe.fault(16) == "box widths must be a sequence of integers, got 2"
    with pytest.raises(LatticeError, match="sequence of integers"):
        make_window(recipe, FiniteModel(16))
    empty = WindowRecipe("convolution_product")
    assert empty.fault(16) == "convolution recipe needs at least one width"
    with pytest.raises(LatticeError):
        make_window(empty, FiniteModel(16))


@pytest.mark.parametrize("phases", ["2", 2.0, None, 1])
def test_partition_phases_must_be_an_integer_of_at_least_two(phases):
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), FiniteModel(16))
    with pytest.raises(LatticeError, match="integer number of phases"):
        partition_of_unity_kernel(g, 4, phases)


@pytest.mark.parametrize("samples", [np.float64(1.0), np.ones((4, 4))])
def test_partition_deviation_needs_a_sample_vector(samples):
    with pytest.raises(GaborkitError, match="samples must be a vector"):
        partition_of_unity_deviation(samples, 1)


@pytest.mark.parametrize("L", [16.0, 1, "16", None])
def test_periodized_gaussian_reads_the_length_rule(L):
    with pytest.raises(LatticeError, match="signal length must be an integer >= 2"):
        periodized_gaussian(L)
    assert periodized_gaussian(np.int64(16)).shape == (16,)


def test_a_zero_signal_is_refused_by_its_index():
    # A zero signal has no relative error; as a nan, max() would drop it.
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(16))
    lat = SeparableLattice(16, 2, 2)
    dual = wexler_raz_dual(g, lat)
    with pytest.raises(ShapeMismatchError, match="signal 1 is zero"):
        reconstruction_residual(g, dual, lat, [np.ones(16), np.zeros(16), np.ones(16)])
    assert reconstruction_residual(g, dual, lat, [np.ones(16)]) <= 1e-12


@pytest.mark.parametrize("pairs", [[(1,)], [(1, 2, 3)], [4], 4, [None]])
def test_sweep_refuses_pairs_that_are_not_pairs(pairs):
    with pytest.raises(ConfigError, match="pairs: needs a sequence of"):
        sweep(AnalysisConfig(length=12, a=1, b=1, window="delta"), pairs=pairs)


def test_sweep_refuses_pairs_that_name_no_lattice():
    # The CLI's --pairs ";" reaches this rule too: it has one owner.
    for pairs in ([], (), iter([])):
        with pytest.raises(ConfigError, match=r"pairs: \[\] names no lattice"):
            sweep(AnalysisConfig(length=12, a=1, b=1, window="delta"), pairs=pairs)


def test_sweep_takes_pairs_from_a_generator():
    rows = sweep(AnalysisConfig(length=12, a=1, b=1), pairs=((a, 12 // a) for a in (2, 3)))
    assert [(row["a"], row["b"]) for row in rows] == [(2, 6), (3, 4)]


@pytest.mark.parametrize("window", ["abc", ["1", "x"], {"a": 1}])
def test_a_window_that_is_not_numbers_is_a_shape_mismatch(window):
    lat = SeparableLattice(12, 3, 4)
    for call in (check_all_conditions, frame_bounds, lambda g, lat: Window(g), Window.unit):
        with pytest.raises(ShapeMismatchError, match="window samples must be numbers"):
            call(window, lat)


def _one_bad_sample(value, L=8):
    samples = np.zeros(L, dtype=complex)
    samples[0] = value
    return samples


#: A window with one inf sample and one with one nan sample.
NON_FINITE_WINDOWS = {"inf": _one_bad_sample(np.inf), "nan": _one_bad_sample(np.nan)}

#: Every public diagnostic that decomposes a window, on a commuting lattice.
DECOMPOSING = (
    "check_all_conditions", "duality_check", "frame_bounds", "index_commutative",
    "kernel_basis", "operator_norms", "wexler_raz_dual",
)


@pytest.mark.parametrize("bad", sorted(NON_FINITE_WINDOWS))
@pytest.mark.parametrize("name", DECOMPOSING)
def test_a_non_finite_window_reaches_no_decomposition(linalg_calls, capfd, name, bad):
    # With one inf sample, check_all_conditions on (8, 2, 2) read "consistent"
    # and LAPACK printed "DLASCL parameter number 4 had an illegal value".
    calls = linalg_calls(*LINALG)
    with pytest.raises(ShapeMismatchError, match="window has non-finite samples"):
        getattr(gaborkit, name)(NON_FINITE_WINDOWS[bad], SeparableLattice(8, 4, 4))
    assert {called: shapes for called, shapes in calls.items() if shapes} == {}
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("bad", sorted(NON_FINITE_WINDOWS))
def test_window_refuses_a_non_finite_sample_before_it_scales(bad):
    # Window.unit returned an all-nan window, or raised a raw RuntimeWarning.
    for make in (Window, Window.unit):
        with pytest.raises(ShapeMismatchError, match="window has non-finite samples"):
            make(NON_FINITE_WINDOWS[bad])


def test_reconstruction_refuses_a_non_finite_signal():
    # [inf, 0, ...] read 0.0, and a nan signal was dropped by max().
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(16))
    lat = SeparableLattice(16, 2, 2)
    dual = wexler_raz_dual(g, lat)
    good = np.ones(16)
    for signals, index in [([_one_bad_sample(np.inf, 16)], 0), ([good, np.full(16, np.nan)], 1),
                           ([np.full(16, np.nan), good], 0)]:
        with pytest.raises(ShapeMismatchError, match=f"signal {index} has non-finite samples"):
            reconstruction_residual(g, dual, lat, signals)


@pytest.mark.parametrize("scale", [1e200, 1.0, 1e-160, 1e-200])
def test_reconstruction_reads_a_finite_signal_of_any_scale(scale):
    # 1e200 ended in an overflow warning from the norm, 1e-200 was refused
    # as zero or not finite, and 1e-160 read 0.0.
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(16))
    lat = SeparableLattice(16, 2, 2)
    dual = wexler_raz_dual(g, lat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = reconstruction_residual(g, dual, lat, [np.full(16, scale)])
    assert 0 < residual <= 1e-12


@pytest.mark.parametrize("bad", ["all", "one"])
def test_twisted_invert_refuses_a_non_finite_sequence(linalg_calls, capfd, bad):
    # LAPACK printed "DLASCL parameter number 4 had an illegal value" and an
    # all-nan sequence came back.
    lat = SeparableLattice(12, 2, 3)
    values = np.full(lat.grid_shape, np.inf) if bad == "all" else np.eye(*lat.grid_shape)
    values[-1, -1] = np.inf
    calls = linalg_calls(*LINALG)
    with pytest.raises(GaborkitError, match="sequence has non-finite samples"):
        twisted_invert(TwistedSequence(values, lat))
    assert {called: shapes for called, shapes in calls.items() if shapes} == {}
    assert capfd.readouterr() == ("", "")


def test_sample_arrays_that_are_not_numbers_are_a_shape_mismatch():
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(12))
    lat = SeparableLattice(12, 3, 4)
    calls = {
        "signal": lambda: coefficient_map(g, lat, "abc"),
        "coefficients": lambda: synthesis_map(g, lat, "abc"),
        "sequence": lambda: TwistedSequence("abc", lat),
        "signal 0": lambda: reconstruction_residual(g, g, lat, "abc"),
    }
    for what, call in calls.items():
        with pytest.raises(ShapeMismatchError, match=f"^{what} must be numbers"):
            call()


def test_the_maps_carry_nan_through_unchecked():
    g = make_window(WindowRecipe("periodized_gaussian"), FiniteModel(12))
    lat = SeparableLattice(12, 3, 4)
    assert np.isnan(coefficient_map(g, lat, np.full(12, np.nan)).values).all()
    assert np.isnan(synthesis_map(g, lat, np.full(lat.grid_shape, np.nan))).all()
    coeffs = coefficient_map(NON_FINITE_WINDOWS["nan"], SeparableLattice(8, 2, 2), np.ones(8))
    assert np.isnan(coeffs.values).any()


@pytest.mark.parametrize("z", [(1.9, 0), (0.5, 1), ("a", 1), None, (1,), (1, 2, 3), "12"])
def test_a_phase_point_is_a_pair_of_integers(z):
    # int() truncated (1.9, 0) to (1, 0), and the rest ended in a raw error.
    model = FiniteModel(4)
    for call in (
        lambda: tf_shift(model, z, np.ones(4)),
        lambda: shift_matrix(model, z),
        lambda: SeparableLattice(8, 2, 2).contains(z),
    ):
        with pytest.raises(LatticeError, match="a phase point is a pair of integers"):
            call()


def test_integer_phase_points_are_reduced():
    model = FiniteModel(4)
    assert model.reduce((np.int64(5), -1)) == (1, 3)
    assert SeparableLattice(8, 2, 2).contains((np.int64(2), -4))
    assert not SeparableLattice(8, 2, 2).contains((3, 0))
