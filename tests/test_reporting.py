"""Config validation, the analysis runner, sweeps, file round-trips and
report determinism."""

import gc
import json
import math

import numpy as np
import pytest

from gaborkit import (
    AnalysisConfig,
    ConfigError,
    SeparableLattice,
    SystemSpectra,
    NotAFrameError,
    ShapeMismatchError,
    Window,
    divisor_pairs,
    duality_check,
    kernel_basis,
    load_window,
    margin_cutoff,
    periodized_gaussian,
    run,
    save_window,
    sweep,
    synthesis_map,
    wexler_raz_dual,
)
from gaborkit import reporting
from gaborkit.reporting import TASKS, consistency_alarm, jsonable
from conftest import fiber_block_shape, random_signal
from fixtures import CRITICAL_L16_FRAME_UPPER
from oracles import naive_shift


def test_config_validation_names_fields():
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=5, b=4).validate()
    assert err.value.field == "a"
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=7).validate()
    assert err.value.field == "b"
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, tasks=()).validate()
    assert err.value.field == "tasks"
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, tasks=("bounds", "nope")).validate()
    assert err.value.field == "tasks"
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=1, a=1, b=1).validate()
    assert err.value.field == "length"
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, tol_scale=-1.0).validate()
    assert err.value.field == "tol_scale"


@pytest.mark.parametrize("tol_scale", [float("nan"), float("inf")])
def test_config_validation_rejects_non_finite_tol_scale(tol_scale):
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, tol_scale=tol_scale).validate()
    assert err.value.field == "tol_scale"


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_config_validation_rejects_bad_seed(seed):
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(length=12, a=3, b=4, seed=seed).validate()
    assert err.value.field == "seed"
    # sweep validates its base configuration the same way.
    with pytest.raises(ConfigError) as err:
        sweep(AnalysisConfig(length=8, a=1, b=1, seed=seed), pairs=[(2, 2)])
    assert err.value.field == "seed"


def test_config_validation_accepts_numpy_seed():
    AnalysisConfig(length=12, a=3, b=4, seed=np.uint32(5)).validate()
    AnalysisConfig(length=12, a=3, b=4, seed=0).validate()


def test_config_validation_accepts_numpy_integers():
    config = AnalysisConfig(length=np.int64(12), a=np.int32(3), b=np.int64(4), tasks=("bounds",))
    config.validate()
    assert run(config).results["lattice"]["cardinality"] == 12


def test_run_onb_case(tmp_path):
    out = tmp_path / "report.json"
    config = AnalysisConfig(
        length=4, a=1, b=4, window="delta", tasks=("bounds", "conditions"), out=str(out)
    )
    report = run(config)
    assert np.isclose(report.results["bounds"].frame_lower, 1.0, atol=1e-12)
    assert np.isclose(report.results["bounds"].frame_upper, 1.0, atol=1e-12)
    assert report.results["conditions"].all_true
    assert not consistency_alarm(report)
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert payload["results"]["conditions"]["consistent"] is True
    assert payload["config"]["window"] == "delta"


def test_run_critical_gaussian_echoes_baseline():
    config = AnalysisConfig(length=16, a=4, b=4, window="gaussian", tasks=("bounds",))
    report = run(config)
    bounds = report.results["bounds"]
    assert abs(bounds.frame_upper - CRITICAL_L16_FRAME_UPPER) <= 1e-9
    # The system is exactly singular here: the lower bound is a true zero.
    assert bounds.frame_lower <= 1e-12
    assert bounds.condition_number == float("inf")


def test_run_all_tasks(tmp_path):
    config = AnalysisConfig(
        length=16,
        a=2,
        b=2,
        window="gaussian",
        tasks=("bounds", "conditions", "duality", "janssen", "dual_window", "kernel", "index"),
        out=str(tmp_path / "full.json"),
        spectra=str(tmp_path / "spectra.csv"),
    )
    report = run(config)
    assert report.results["janssen"]["relative_residual"] <= 1e-12
    assert report.results["dual_window"]["biorthogonality_residual"] <= 1e-10
    assert report.results["dual_window"]["reconstruction_residual"] <= 1e-10
    assert report.results["kernel"]["dimension"] == 0
    assert report.results["index"]["commutative"] is True
    assert report.results["index"]["index"] == 0
    text = (tmp_path / "spectra.csv").read_text().splitlines()
    assert text[0] == "kind,index,eigenvalue"
    assert sum(line.startswith("frame_operator") for line in text) == 16
    assert sum(line.startswith("adjoint_gramian") for line in text) == 4


def test_run_gallery_task():
    config = AnalysisConfig(length=16, a=4, b=4, window="gaussian", tasks=("gallery",))
    report = run(config)
    gallery = report.results["gallery"]
    assert [row["length"] for row in gallery["alternating_ladder"]] == [16, 36, 64, 100]
    assert gallery["partition_of_unity"]["kernel_residual"] <= 1e-12
    assert gallery["partition_of_unity"]["all_conditions_false"] is True


def test_run_index_noncommutative_surrogate():
    # Adjoint steps (2, 3) with L=12: 6 is not a multiple of 12, so the
    # adjoint shifts do not commute and only the kernel surrogate is
    # reported.
    config = AnalysisConfig(length=12, a=4, b=6, window="gaussian", tasks=("index",))
    report = run(config)
    entry = report.results["index"]
    assert entry["commutative"] is False
    assert entry["index"] is None
    assert entry["kernel_dimension_surrogate"] >= 12


def test_kernel_task_synthesizes_the_stack_it_is_built_as(monkeypatch):
    # No list of sequences is built and stacked again: the synthesis map
    # gets the very array of null vectors, and the witnesses are those of
    # the kernel basis.
    built, given = [], []

    def kernel(*args, _real=reporting._synthesis_kernel):
        built.append(_real(*args))
        return built[-1]

    def synthesize(g, lattice, coeffs, _real=reporting.synthesis_map):
        given.append(coeffs)
        return _real(g, lattice, coeffs)

    monkeypatch.setattr(reporting, "_synthesis_kernel", kernel)
    monkeypatch.setattr(reporting, "synthesis_map", synthesize)
    config = AnalysisConfig(length=24, a=6, b=6, window="random", tasks=("kernel",))
    result = run(config).results["kernel"]
    assert len(built) == len(given) == 1 and given[0] is built[0]
    g, adjoint = config.build_window(), config.lattice().adjoint()
    basis = kernel_basis(g, adjoint)
    assert result["dimension"] == len(basis) >= 12
    want = [np.linalg.norm(synthesis_map(g, adjoint, seq)) / seq.norm2() for seq in basis]
    assert np.abs(np.array(result["witness_residuals"]) - want).max() <= 1e-15


def test_window_roundtrip(tmp_path, rng):
    path = tmp_path / "w.txt"
    samples = random_signal(rng, 16)
    save_window(path, samples)
    back = load_window(path)
    assert np.array_equal(back, samples)


def test_window_file_is_the_per_sample_format(tmp_path, rng):
    # One pass over all samples writes what one ``.17g`` line per sample did.
    special = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -2.2250738585072009e-308),
               complex(1.7976931348623157e308, -1e300), complex(0.1, 1 / 3), complex(-1e16, 123.0)]
    samples = np.concatenate([random_signal(rng, 64), special, random_signal(rng, 8) * 1e-310])
    path = tmp_path / "w.txt"
    for window in (samples, samples[::2], samples.real, list(special)):
        save_window(path, window)
        want = "".join(f"{v.real:.17g}\t{v.imag:.17g}\n" for v in np.asarray(window, complex))
        assert path.read_text() == want
        assert np.array_equal(load_window(path), np.asarray(window, complex))
    with pytest.raises(ShapeMismatchError, match=r"one vector, got shape \(2, 2\)"):
        save_window(path, np.ones((2, 2)))


def test_run_with_window_file(tmp_path, rng):
    path = tmp_path / "w.txt"
    samples = random_signal(rng, 12)
    save_window(path, samples)
    config = AnalysisConfig(length=12, a=3, b=4, window=str(path), tasks=("bounds",))
    report = run(config)
    assert report.results["window_label"] == f"file:{path}"


def test_report_determinism_modulo_timing(tmp_path):
    def report_payload():
        config = AnalysisConfig(
            length=12, a=2, b=3, window="random", tasks=("bounds", "conditions", "dual_window")
        )
        payload = json.loads(run(config).to_json())
        payload.pop("timing")
        return json.dumps(payload, sort_keys=True)

    assert report_payload() == report_payload()


def test_random_window_uses_seed():
    a = AnalysisConfig(length=12, a=2, b=3, window="random", seed=1).build_window()
    b = AnalysisConfig(length=12, a=2, b=3, window="random", seed=1).build_window()
    c = AnalysisConfig(length=12, a=2, b=3, window="random", seed=2).build_window()
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_jsonable_encodings():
    assert jsonable(float("inf")) == "inf"
    assert jsonable(float("-inf")) == "-inf"
    assert jsonable(float("nan")) == "nan"
    assert jsonable(1 + 2j) == [1.0, 2.0]
    assert jsonable(np.arange(3)) == [0, 1, 2]
    assert jsonable({"x": np.float64(0.5)}) == {"x": 0.5}
    assert jsonable((True, np.bool_(False))) == [True, False]


def test_sweep_gaussian_L24_matches_per_row_recheck(tmp_path):
    out = tmp_path / "table.csv"
    base = AnalysisConfig(length=24, a=1, b=1, window="gaussian", out=str(out))
    rows = sweep(base)
    assert len(rows) == len(divisor_pairs(24))
    g = Window.unit(periodized_gaussian(24), "g")
    for row in rows:
        assert row["duality_agree"] is True
        assert row["consistent"] is True
        # Redundancy > 1 region is uniformly frame for the Gaussian.
        if row["redundancy"] >= 2:
            assert row["frame"] is True
        if row["redundancy"] < 1:
            assert row["frame"] is False
        # Independent re-check of the verdict: rank of the naively built
        # analysis matrix at the same shared cutoff.
        lat = SeparableLattice(24, row["a"], row["b"])
        C = np.array(
            [np.conj(naive_shift(24, (x, xi), g.samples)) for (x, xi) in lat.points()]
        )
        svals = np.linalg.svd(C, compute_uv=False)
        cut = margin_cutoff((24, lat.cardinality, lat.adjoint().cardinality))
        full_rank = svals.size >= 24 and svals[23] > cut * svals[0]
        assert row["frame"] == full_rank, row
    header = out.read_text().splitlines()[0]
    assert header.startswith("a,b,redundancy,frame_lower")


def test_sweep_decomposes_each_matrix_once(linalg_calls):
    # Row (a, b) reads the adjoint operators of row (L/b, L/a): each
    # lattice's analysis and synthesis map is decomposed once, and the frame
    # and Gramian spectra are the synthesis map's squared.
    shapes = linalg_calls("eigvalsh", "svd")
    rows = sweep(AnalysisConfig(length=12, a=1, b=1, window="gaussian"))
    lattices = [SeparableLattice(12, a, b) for a, b in divisor_pairs(12)]
    assert len(rows) == len(lattices) == 36
    assert shapes["eigvalsh"] == []
    # The analysis matrix dense, the synthesis map as one batch of the
    # sigma = 0 fiber's blocks.
    assert sorted(shapes["svd"]) == sorted(
        shape for m in lattices for shape in ((m.cardinality, 12), fiber_block_shape(m))
    )


def test_run_frees_its_spectra():
    # The lattice's entry and its adjoint's, each with a cached window
    # factor; neither may wait for the cyclic collector once run returns.
    gc.collect()
    gc.disable()
    try:
        run(AnalysisConfig(length=12, a=2, b=3, tasks=tuple(t for t in TASKS if t != "gallery")))
        leftover = [obj for obj in gc.get_objects() if isinstance(obj, SystemSpectra)]
    finally:
        gc.enable()
    assert not leftover


def live_spectra_after(config, raises=()):
    """The ``SystemSpectra`` that outlive ``run(config)`` with the cyclic
    collector off, and whether ``run`` raised one of ``raises``.  The
    exception is dropped before the count, as its traceback holds the run's
    frames."""
    gc.collect()
    gc.disable()
    raised = False
    try:
        try:
            run(config)
        except raises:
            raised = True
        leftover = [obj for obj in gc.get_objects() if isinstance(obj, SystemSpectra)]
    finally:
        gc.enable()
    return leftover, raised


def test_gallery_task_frees_its_spectra():
    # The partition-of-unity verdict builds a table for its own window and
    # lattice; it left both entries behind.
    leftover, _ = live_spectra_after(AnalysisConfig(length=12, a=2, b=3, tasks=("gallery",)))
    assert not leftover


def test_run_frees_its_spectra_when_a_task_raises():
    # A delta window on (4, 4) at L = 8 is not a frame: the dual task raises.
    config = AnalysisConfig(length=8, a=4, b=4, window="delta", tasks=("dual_window",))
    leftover, raised = live_spectra_after(config, raises=NotAFrameError)
    assert raised
    assert not leftover


def test_sweep_frees_its_spectra():
    # Each lattice's entry holds its window factor; none may wait for the
    # cyclic collector once the sweep returns.
    gc.collect()
    gc.disable()
    try:
        sweep(AnalysisConfig(length=12, a=1, b=1, window="gaussian"))
        leftover = [obj for obj in gc.get_objects() if isinstance(obj, SystemSpectra)]
    finally:
        gc.enable()
    assert not leftover


def test_sweep_delta_critical_pairs():
    # Delta window on a*b = L lattices: time-frequency translates collapse
    # onto single positions unless a == 1, so only a == 1 gives a basis.
    L = 16
    base = AnalysisConfig(length=L, a=1, b=1, window="delta")
    pairs = [(a, L // a) for a in (1, 2, 4, 8, 16)]
    rows = sweep(base, pairs)
    for row in rows:
        assert row["frame"] == (row["a"] == 1), row
        assert row["consistent"] is True


def test_sweep_empty_grid():
    base = AnalysisConfig(length=12, a=1, b=1, window="delta")
    assert sweep(base, []) == []


def test_sweep_rejects_bad_pairs():
    base = AnalysisConfig(length=12, a=1, b=1, window="delta")
    with pytest.raises(ConfigError):
        sweep(base, [(5, 1)])


def test_consistency_alarm_logic():
    config = AnalysisConfig(length=8, a=2, b=2, window="gaussian", tasks=("conditions",))
    report = run(config)
    assert not consistency_alarm(report)
    # Fabricated inconsistent verdict trips the alarm.
    report.results["conditions"].consistent = False
    report.results["conditions"].marginal = False
    assert consistency_alarm(report)
    report.results["conditions"].marginal = True
    assert not consistency_alarm(report)


def identity_windows(L):
    """Gaussian, delta, random and a box: the widest proper divisor of L,
    or all of Z_L when L is prime."""
    width = max(k for k in range(1, L) if L % k == 0)
    return ("gaussian", "delta", "random", f"bspline:1:{width if width > 1 else L}")


@pytest.mark.parametrize("L", range(2, 49))
def test_verdict_rules_agree_on_every_divisor_lattice(L):
    # Duality, the bounds, the dual's guard and the kernel rank all cut at
    # the lattice's one cutoff, at dims (L, n, n').
    tasks = ("bounds", "conditions", "duality", "index")
    for window in identity_windows(L):
        for a, b in divisor_pairs(L):
            config = AnalysisConfig(length=L, a=a, b=b, window=window, tasks=tasks)
            results = run(config).results
            g, lattice = config.build_window(), config.lattice()
            where = f"{window} on {(L, a, b)}"
            conditions = results["conditions"].conditions
            duality = results["duality"]
            assert (duality.frame, duality.adjoint_riesz) == (conditions["ii"], conditions["xi"]), where
            assert math.isfinite(results["bounds"].condition_number) == conditions["ii"], where
            try:
                wexler_raz_dual(g, lattice)
            except NotAFrameError:
                assert not conditions["ii"], where
            else:
                assert conditions["ii"], where
            surrogate = results["index"]["kernel_dimension_surrogate"]
            assert surrogate == len(kernel_basis(g, lattice.adjoint())), where


@pytest.mark.parametrize("L", range(2, 49))
def test_sweep_rows_read_duality_from_the_harness(L):
    for window in identity_windows(L):
        base = AnalysisConfig(length=L, a=1, b=1, window=window)
        g = base.build_window()
        for row in sweep(base):
            record = duality_check(g, SeparableLattice(L, row["a"], row["b"]))
            where = f"{window} on {(L, row['a'], row['b'])}"
            assert (row["adjoint_riesz"], row["duality_agree"]) == (record.adjoint_riesz, record.agree), where
