"""Window recipes, the alternating-sequence probe, and the
partition-of-unity kernel construction."""

import numpy as np
import pytest

from gaborkit import (
    ConfigError,
    FiniteModel,
    LatticeError,
    PartitionOfUnityError,
    SeparableLattice,
    ShapeMismatchError,
    Window,
    WindowRecipe,
    check_all_conditions,
    gaussian_alternating_kernel_probe,
    make_window,
    partition_of_unity_deviation,
    partition_of_unity_kernel,
    periodized_gaussian,
    random_window,
    save_window,
    synthesis_map,
)
from gaborkit.gallery import _box_product
from fixtures import EVEN_LADDER, EVEN_LADDER_DELTA, ODD_LADDER, ODD_LADDER_DELTA


def test_delta_recipe():
    w = make_window(WindowRecipe("delta"), FiniteModel(8))
    want = np.zeros(8)
    want[0] = 1.0
    assert np.array_equal(w.samples, want.astype(complex))
    assert w.label == "delta"


def test_gaussian_recipe_real_positive_symmetric():
    for L in (8, 12, 16, 37):
        g = periodized_gaussian(L)
        assert np.isclose(np.linalg.norm(g), 1.0, atol=1e-14)
        assert np.all(g > 0)
        assert np.all(np.isreal(g))
        for n in range(1, L):
            assert np.isclose(g[n], g[L - n], atol=1e-14)


def test_gaussian_periodization_converged():
    # Tail of the periodization below 1e-16 relative: doubling the reach
    # does not change the samples.
    L = 8
    n = np.arange(L)
    centered = ((n + L // 2) % L) - L // 2
    wide = np.zeros(L)
    for j in range(-12, 13):
        wide += np.exp(-np.pi * (centered + j * L) ** 2 / L)
    wide /= np.linalg.norm(wide)
    assert np.allclose(periodized_gaussian(L), wide, atol=1e-16, rtol=1e-15)


def test_bspline_partition_of_unity_all_divisor_widths():
    L = 16
    model = FiniteModel(L)
    for order in (1, 2, 3):
        w = make_window(WindowRecipe("bspline", order=order, widths=(4,)), model)
        for period in (1, 2, 4):  # divisors of the width
            _, dev = partition_of_unity_deviation(w.samples, period)
            assert dev <= 1e-13


def test_convolution_product_pou_each_width():
    L = 24
    model = FiniteModel(L)
    w = make_window(WindowRecipe("convolution_product", widths=(4, 2, 3)), model)
    for period in (4, 2, 3, 1):
        _, dev = partition_of_unity_deviation(w.samples, period)
        assert dev <= 1e-13


def test_bspline_unnormalized_sums_constant():
    # The integer box product tiles exactly: periodized sums are a single
    # repeated value before normalization.
    L = 12
    model = FiniteModel(L)
    w = make_window(WindowRecipe("bspline", order=2, widths=(3,)), model)
    mean, dev = partition_of_unity_deviation(w.samples, 3)
    assert dev == 0.0
    assert mean != 0


def exact_box_product(L, widths):
    """Circular convolution of unit boxes in Python integers: entry i after a
    width-w box is the sum of the w entries ending at i, a difference of
    prefix sums over the wrapped signal."""
    out = np.zeros(L, dtype=object)
    out[0] = 1
    for w in widths:
        prefix = np.concatenate([[0], np.cumsum(np.concatenate([out[L - w + 1:], out]))])
        out = prefix[w:] - prefix[:L]
    return out.tolist()


@pytest.mark.parametrize(
    "L,recipe,boxes",
    [
        (16, WindowRecipe("bspline", order=33, widths=(4,)), (4,) * 33),  # product 2^66
        (64, WindowRecipe("bspline", order=22, widths=(8,)), (8,) * 22),
        (12, WindowRecipe("convolution_product", widths=(1, 2, 1, 3)), (1, 2, 1, 3)),
        (65536, WindowRecipe("convolution_product", widths=(1024,) * 7), (1024,) * 7),
        (16, WindowRecipe("bspline", order=10**20, widths=(1,)), ()),  # identities: the delta
    ],
)
def test_box_products_near_the_int64_limit_are_exact(L, recipe, boxes):
    want = exact_box_product(L, boxes)
    assert max(want) <= np.iinfo(np.int64).max
    assert _box_product(L, recipe.widths, recipe.order).tolist() == want
    got = make_window(recipe, FiniteModel(L)).samples
    assert np.array_equal(got, Window.unit(np.array(want, dtype=np.int64)).samples)


@pytest.mark.parametrize(
    "L,order,width",
    [(16, 34, 4), (16, 40, 4), (64, 23, 8), (16, 10**20, 2), (16, 40, np.int64(4))],
)
def test_box_products_that_would_wrap_int64_are_refused(L, order, width):
    # Exact integers pass 2^63 - 1 here (for 10^20 rounds, within 68 of them);
    # a numpy width must not wrap the bound itself.
    assert max(exact_box_product(L, [width] * min(order, 68))) > np.iinfo(np.int64).max
    recipe = WindowRecipe("bspline", order=order, widths=(width,))
    with pytest.raises(ConfigError, match="would pass 64-bit integers") as err:
        make_window(recipe, FiniteModel(L))
    assert err.value.field == "window"


def test_recipe_width_errors():
    model = FiniteModel(16)
    with pytest.raises(LatticeError):
        make_window(WindowRecipe("bspline", order=1, widths=(5,)), model)
    with pytest.raises(LatticeError):
        make_window(WindowRecipe("bspline", order=0, widths=(4,)), model)
    with pytest.raises(LatticeError):
        make_window(WindowRecipe("convolution_product", widths=(3, 0)), model)
    with pytest.raises(LatticeError):
        WindowRecipe("boxcar")


def test_recipe_parsing():
    assert WindowRecipe.parse("delta").kind == "delta"
    assert WindowRecipe.parse("gaussian").kind == "periodized_gaussian"
    r = WindowRecipe.parse("bspline:2:4")
    assert (r.kind, r.order, r.widths) == ("bspline", 2, (4,))
    r = WindowRecipe.parse("conv:4,2")
    assert (r.kind, r.widths) == ("convolution_product", (4, 2))
    assert WindowRecipe.parse("file:/tmp/w.txt").path == "/tmp/w.txt"
    # Any other text is a path.
    assert WindowRecipe.parse("boxcar:2") == WindowRecipe("file", path="boxcar:2")


@pytest.mark.parametrize(
    "text",
    ["bspline:x:2", "bspline:2:4.5", "conv:a", "conv:4,b", "gaussian:3", "delta:1",
     "bspline:2", "bspline:1", "conv:"],
)
def test_recipe_non_integer_fields_are_config_errors(text):
    with pytest.raises(ConfigError) as err:
        WindowRecipe.parse(text)
    assert err.value.field == "window"


def test_random_window_unit(rng):
    w = random_window(FiniteModel(12), rng)
    assert np.isclose(np.linalg.norm(w.samples), 1.0, atol=1e-14)


def test_probe_requires_perfect_square():
    with pytest.raises(LatticeError):
        gaussian_alternating_kernel_probe(12)


def test_probe_even_steps_annihilates_symmetric_windows():
    # Even-step critical lattices: the alternating sequence is an EXACT
    # kernel vector for every even-symmetric window (terms cancel in
    # symmetric pairs), so the ratio is cancellation residue and the
    # delta-window control is exactly zero.  Committed values are
    # reproduced bit-for-bit by the fixed computation path.
    for L, want in EVEN_LADDER.items():
        got = gaussian_alternating_kernel_probe(L)
        assert got.ratio <= 1e-14
        assert abs(got.ratio - want) <= 1e-9
    for L, want in EVEN_LADDER_DELTA.items():
        delta = make_window(WindowRecipe("delta"), FiniteModel(L))
        got = gaussian_alternating_kernel_probe(L, window=delta)
        assert got.ratio == want == 0.0


def test_probe_even_steps_kernel_is_one_dimensional():
    # The exact annihilation is a genuine rank deficiency of exactly one.
    from gaborkit import kernel_basis, Window

    for L in (16, 36):
        lat = SeparableLattice(L, int(np.sqrt(L)), int(np.sqrt(L)))
        g = Window.unit(periodized_gaussian(L), "g")
        basis = kernel_basis(g, lat.adjoint())
        assert len(basis) == 1
        k = np.arange(lat.adjoint().n_time)[:, None]
        l = np.arange(lat.adjoint().n_freq)[None, :]
        alt = ((-1.0) ** (k + l)).astype(complex)
        alt /= np.linalg.norm(alt)
        overlap = abs(np.vdot(basis[0].flat, alt.reshape(-1)))
        assert np.isclose(overlap, 1.0, atol=1e-10)


def test_probe_odd_steps_strictly_decreasing_ladder():
    # Odd steps: no exact cancellation; the probe measures a genuine
    # residual that decays strictly with L (the finite shadow of the
    # continuous annihilation) and the delta control stays bounded away
    # from zero.
    ratios = []
    for L, want in ODD_LADDER.items():
        got = gaussian_alternating_kernel_probe(L)
        assert abs(got.ratio - want) <= 1e-9
        ratios.append(got.ratio)
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    for L, want in ODD_LADDER_DELTA.items():
        delta = make_window(WindowRecipe("delta"), FiniteModel(L))
        got = gaussian_alternating_kernel_probe(L, window=delta)
        assert abs(got.ratio - want) <= 1e-9
        assert got.ratio > 0.1


def test_pou_kernel_two_phases():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=2)
    assert (lat.a, lat.b) == (1, 8)
    adj = lat.adjoint()
    assert (adj.a, adj.b) == (2, 16)
    out = synthesis_map(g, adj, seq.values)
    assert np.linalg.norm(out) <= 1e-12 * seq.norm2()
    # Alternating +1/-1 along the adjoint time axis at frequency zero.
    assert np.allclose(seq.values[:, 0], [1, -1] * (adj.n_time // 2), atol=0)


def test_pou_kernel_four_phases():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=4)
    out = synthesis_map(g, lat.adjoint(), seq.values)
    assert np.linalg.norm(out) <= 1e-12 * seq.norm2()
    pattern = seq.values[:4, 0]
    assert np.allclose(pattern, [1, -1, 0, 0], atol=0)


def test_pou_kernel_other_windows_and_steps():
    model = FiniteModel(24)
    g = make_window(WindowRecipe("convolution_product", widths=(4, 2)), model)
    lat, seq = partition_of_unity_kernel(g, pou_period=4, phases=2, time_step=2)
    out = synthesis_map(g, lat.adjoint(), seq.values)
    assert np.linalg.norm(out) <= 1e-12 * seq.norm2()


def test_pou_kernel_makes_all_conditions_false():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    lat, _ = partition_of_unity_kernel(g, pou_period=4, phases=2)
    verdict = check_all_conditions(g, lat)
    assert verdict.all_false
    assert verdict.consistent


def test_pou_kernel_validation_errors():
    model = FiniteModel(16)
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), model)
    gauss = make_window(WindowRecipe("periodized_gaussian"), model)
    with pytest.raises(PartitionOfUnityError):
        partition_of_unity_kernel(gauss, pou_period=4, phases=2)
    with pytest.raises(LatticeError):
        partition_of_unity_kernel(g, pou_period=4, phases=3)  # 3 does not divide 4
    with pytest.raises(LatticeError):
        partition_of_unity_kernel(g, pou_period=5, phases=2)  # 5 does not divide 16
    with pytest.raises(LatticeError):
        partition_of_unity_kernel(g, pou_period=4, phases=1)
    for step in (0, 3, 2.0):  # not positive, not a divisor of 16, not an integer
        with pytest.raises(LatticeError, match="lattice step a"):
            partition_of_unity_kernel(g, pou_period=4, phases=2, time_step=step)
    with pytest.raises(LatticeError):  # the step is refused before the window is read
        partition_of_unity_kernel(gauss, pou_period=4, phases=2, time_step=3)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, -np.inf)])
def test_window_readers_refuse_non_finite_samples(tmp_path, bad):
    # A bspline that partitions unity at period 4, with one sample spoiled:
    # each reader refuses it before any arithmetic, so nothing warns.
    g = make_window(WindowRecipe("bspline", order=1, widths=(4,)), FiniteModel(16)).samples.copy()
    g[5] = bad
    readers = {
        "deviation": lambda: partition_of_unity_deviation(g, 4),
        "kernel": lambda: partition_of_unity_kernel(g, pou_period=4, phases=2),
        "probe": lambda: gaussian_alternating_kernel_probe(16, window=g),
        "save": lambda: save_window(tmp_path / "spoiled.txt", g),
    }
    for name, read in readers.items():
        with pytest.raises(ShapeMismatchError, match="window has non-finite samples"):
            read()
    assert not (tmp_path / "spoiled.txt").exists()


def test_gallery_frame_region_gaussian_redundancy_two_plus():
    # Periodized Gaussian: every divisor lattice with a*b <= L/2 is a frame.
    L = 24
    g = Window.unit(periodized_gaussian(L), "g")
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    checked = 0
    for a in divisors:
        for b in divisors:
            if a * b <= L // 2:
                verdict = check_all_conditions(g, SeparableLattice(L, a, b))
                assert verdict.frame and verdict.consistent, (a, b)
                checked += 1
    assert checked >= 8
