"""Command-line interface."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaborkit
from gaborkit import AnalysisConfig, load_window, run, sweep
from gaborkit.cli import main
from gaborkit.reporting import jsonable


def test_analyze_onb(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "analyze", "--length", "4", "--lattice", "1,4", "--window", "delta",
            "--tasks", "bounds,conditions", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["bounds"]["frame_lower"] == pytest.approx(1.0, abs=1e-12)
    assert payload["results"]["conditions"]["conditions"]["xiv"] is True


def test_analyze_prints_to_stdout(capsys):
    code = main(["analyze", "--length", "8", "--lattice", "2,2", "--window", "gaussian"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["conditions"]["consistent"] is True


def test_analyze_invalid_config_exit_1(capsys):
    code = main(["analyze", "--length", "12", "--lattice", "5,4", "--window", "delta"])
    assert code == 1
    assert "a: 5 does not divide" in capsys.readouterr().err


def test_analyze_bad_window_file_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = main(
        ["analyze", "--length", "8", "--lattice", "2,2", "--window", f"file:{missing}"]
    )
    assert code == 1


def test_analyze_non_finite_window_file_exit_1(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("1\t0\nnan\t0\n" + "0\t0\n" * 6)
    code = main(["analyze", "--length", "8", "--lattice", "2,2", "--window", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err


def test_analyze_window_file_that_is_not_text_exit_1(tmp_path, capsys):
    path = tmp_path / "w.bin"
    path.write_bytes(b"\xff" + b"0\t0\n" * 8)
    assert main(["analyze", "-L", "8", "--lattice", "2,2", "--window", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: window: window file {str(path)!r} is not text")


@pytest.mark.parametrize("window", ["bspline:40:4", "bspline:99999999999999999999:2"])
def test_analyze_box_product_past_int64_exit_1(capsys, window):
    # Both used to end in a report on a wrapped window or a raw OverflowError.
    assert main(["analyze", "-L", "16", "--lattice", "4,4", "--window", window]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: window: box product would pass 64-bit integers")


def test_analyze_window_file_of_wrong_length_exit_1(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("1\t0\n0.5\t0\n")
    code = main(["analyze", "-L", "8", "--lattice", "2,2", "--window", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: window: window file {str(path)!r} has length 2, expected 8")
    assert "Traceback" not in err


def test_sweep_csv(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "sweep", "--length", "12", "--window", "gaussian",
            "--pairs", "1,12;2,2;3,4", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[:3] == ["a", "b", "redundancy"]


def test_sweep_stdout(capsys):
    code = main(["sweep", "--length", "8", "--window", "delta", "--pairs", "1,8"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["frame"] is True


def test_sweep_length_72(capsys):
    # Row (72, 72) needs the Gramian on (1, 1): n = 5184, 26.9M dense entries.
    assert main(["sweep", "--length", "72"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 144
    assert all(row["consistent"] and row["duality_agree"] for row in rows)


def test_gallery(tmp_path):
    out = tmp_path / "g.json"
    code = main(["gallery", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    ladder = payload["results"]["gallery"]["alternating_ladder"]
    assert [row["length"] for row in ladder] == [16, 36, 64, 100]


def test_dual_writes_window(tmp_path, capsys):
    out = tmp_path / "dual.txt"
    code = main(
        ["dual", "--length", "8", "--lattice", "1,8", "--window", "delta", "--out", str(out)]
    )
    assert code == 0
    dual = load_window(out)
    want = np.zeros(8, dtype=complex)
    want[0] = 1.0
    assert np.allclose(dual, want, atol=1e-12)
    summary = json.loads(capsys.readouterr().out)
    assert summary["biorthogonality_residual"] <= 1e-10


def test_dual_not_frame_exit_1(tmp_path, capsys):
    code = main(
        ["dual", "--length", "8", "--lattice", "4,4", "--window", "delta", "--out",
         str(tmp_path / "d.txt")]
    )
    assert code == 1
    assert "sigma_min" in capsys.readouterr().err


def test_kernel_command(capsys):
    code = main(["kernel", "--length", "16", "--lattice", "1,8", "--window", "bspline:1:4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["kernel"]["dimension"] >= 1
    assert payload["results"]["index"]["index"] >= 1


def test_kernel_command_dimension_is_the_index(capsys):
    # The Gaussian's kernel on the self-adjoint (1, 24) counts at the
    # index's cutoff: its witnesses reach cutoff * sigma_max, not eps.
    assert main(["kernel", "-L", "24", "--lattice", "1,24"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["kernel"]["dimension"] == results["index"]["index"] == 5
    assert results["index"]["kernel_dimension_surrogate"] == 5


# Adjoint lattice: the lattice itself, commuting, non-commuting.
@pytest.mark.parametrize("length,lattice", [("16", "4,4"), ("16", "2,4"), ("24", "4,4")])
def test_kernel_command_one_svd(linalg_calls, capsys, length, lattice):
    # The index task reads the singular values of the kernel task's full SVD.
    calls = linalg_calls("svd")
    assert main(["kernel", "--length", length, "--lattice", lattice, "--window", "random"]) == 0
    assert len(calls["svd"]) == 1
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["index"]["kernel_dimension_surrogate"] == payload["kernel"]["dimension"]


@pytest.mark.parametrize("value", ["1e-200", "1e200"])
def test_analyze_extreme_window_scale(tmp_path, capsys, recwarn, value):
    path = tmp_path / "w.txt"
    path.write_text(f"{value}\t0\n" * 2 + "0\t0\n" * 6)
    code = main(["analyze", "--length", "8", "--lattice", "2,2", "--window", str(path)])
    assert code == 0
    assert not recwarn.list
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["bounds"]["frame_upper"] > 0


def test_lattice_argument_parsing(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--length", "8", "--lattice", "2", "--window", "delta"])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--length", "8", "--lattice", "3"],
        ["sweep", "--length", "8", "--jobs", "2"],
        ["nope"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    # Exit code 2 is reserved for a harness alarm.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_sweep_zero_step_exit_1(capsys):
    code = main(["sweep", "--length", "8", "--pairs", "0,2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a: must be a positive integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("window", ["gaussian", "delta"])
def test_allocation_failure_exit_1(capsys, window):
    # The window's first array, 8e17 bytes, is beyond any address space, so
    # numpy refuses it at once with a MemoryError; no size limit refuses L.
    code = main(["analyze", "-L", str(10**17), "--lattice", "1,1", "--window", window])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("length", ["9999999999999999999999", str(2**62)])
def test_length_past_any_index_exit_1(capsys, length):
    # np.arange(L) raised "Maximum allowed size exceeded" or "array is too
    # big": no complex vector of 16*L bytes can be indexed.
    code = main(["analyze", "-L", length, "--lattice", "1,1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: length: must be at most {np.iinfo(np.intp).max // 16}, got")
    assert err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--jobs" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,field",
    [
        (["analyze", "--length", "8", "--lattice", "2,2", "--out", "{missing}"], "out"),
        (["analyze", "--length", "8", "--lattice", "2,2", "--spectra", "{missing}"], "spectra"),
        (["sweep", "--length", "8", "--pairs", "2,2", "--out", "{missing}"], "out"),
        (["dual", "--length", "8", "--lattice", "1,8", "--window", "delta", "--out", "{missing}"],
         "out"),
    ],
)
def test_unwritable_output_exit_1(tmp_path, capsys, argv, field):
    missing = str(tmp_path / "no_such_dir" / "result")
    code = main([arg.format(missing=missing) for arg in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: cannot write")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,field",
    [
        (["analyze", "--length", "8", "--lattice", "2,2", "--window", "bspline:x:2"], "window"),
        (["analyze", "--length", "8", "--lattice", "2,2", "--window", "conv:a"], "window"),
        (["analyze", "--length", "8", "--lattice", "2,2", "--seed", "-1"], "seed"),
        (["analyze", "--length", "8", "--lattice", "2,2", "--window", "random", "--seed", "-1"],
         "seed"),
        (["sweep", "--length", "8", "--seed", "-1"], "seed"),
        (["analyze", "--length", "12", "--lattice", "2,3", "--window", "gaussian:3"], "window"),
        (["analyze", "--length", "12", "--lattice", "2,3", "--window", "delta:1"], "window"),
        (["analyze", "--length", "8", "--lattice", "2,2", "--window", "bspline:1"], "window"),
        (["analyze", "--length", "8", "--lattice", "2,2", "--window", "conv:"], "window"),
        (["sweep", "--length", "8", "--pairs", ";"], "pairs"),
        (["sweep", "--length", "8", "--pairs", "2"], "pairs"),
        (["sweep", "--length", "8", "--pairs", "a,b"], "pairs"),
        (["sweep", "--length", "8", "--pairs", "2,2,2"], "pairs"),
        (["sweep", "--length", "8", "--pairs", "2,2;3"], "pairs"),
        (["analyze", "-L", "8", "--lattice", "2,2", "--window", "bspline:0:2"], "window"),
        (["analyze", "-L", "8", "--lattice", "2,2", "--window", "conv:3"], "window"),
    ],
)
def test_bad_recipe_or_seed_exit_1(capsys, argv, field):
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


def _report(text):
    """A report's JSON without its ``timing`` block."""
    payload = json.loads(text)
    del payload["timing"]
    return payload


# Each command's argv beside the config it stands for; the fixed fields are
# the command's own, the others the flag defaults.
@pytest.mark.parametrize(
    "argv,fields",
    [
        (["analyze", "-L", "12", "--lattice", "2,3", "--window", "bspline:1:3"],
         dict(length=12, a=2, b=3, window="bspline:1:3")),
        (["analyze", "-L", "12", "--lattice", "3,2", "--window", "random", "--seed", "7",
          "--tasks", "bounds,janssen", "--tol-scale", "2"],
         dict(length=12, a=3, b=2, window="random", seed=7, tasks=("bounds", "janssen"),
              tol_scale=2.0)),
        (["dual", "-L", "12", "--lattice", "2,3", "--window", "random", "--out", "{tmp}/d.txt"],
         dict(length=12, a=2, b=3, window="random", tasks=("dual_window",))),
        (["kernel", "-L", "16", "--lattice", "2,4", "--window", "random"],
         dict(length=16, a=2, b=4, window="random", tasks=("kernel", "index"))),
        (["gallery", "--seed", "3"],
         dict(length=16, a=4, b=4, window="gaussian", tasks=("gallery",), seed=3)),
        (["sweep", "-L", "12", "--window", "delta", "--pairs", "1,12;2,2;3,4"],
         dict(length=12, a=1, b=1, window="delta")),
    ],
)
def test_command_is_its_config(tmp_path, capsys, argv, fields):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    out = capsys.readouterr().out
    config = AnalysisConfig(**fields)
    if argv[0] == "sweep":
        assert json.loads(out) == jsonable(sweep(config, [(1, 12), (2, 2), (3, 4)]))
        return
    want = run(config)
    if argv[0] == "dual":
        summary = dict(want.results["dual_window"])
        assert np.array_equal(load_window(tmp_path / "d.txt"), summary.pop("samples"))
        assert json.loads(out) == jsonable(summary)
    else:
        assert _report(out) == _report(want.to_json())


# Each subcommand's flags; a fixed config value is a parser default, not a flag.
@pytest.mark.parametrize(
    "command,flags",
    [
        ("analyze", ["-h", "--help", "--length", "-L", "--lattice", "--window", "--tol-scale",
                     "--seed", "--out", "--tasks", "--spectra"]),
        ("sweep", ["-h", "--help", "--length", "-L", "--window", "--tol-scale", "--seed",
                   "--out", "--pairs"]),
        ("gallery", ["-h", "--help", "--out", "--tol-scale", "--seed"]),
        ("dual", ["-h", "--help", "--length", "-L", "--lattice", "--window", "--tol-scale",
                  "--seed", "--out"]),
        ("kernel", ["-h", "--help", "--length", "-L", "--lattice", "--window", "--tol-scale",
                    "--seed", "--out"]),
    ],
)
def test_subcommand_help_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = []
    for line in text.split("options:")[1].splitlines():
        if line.startswith("  -"):
            listed += re.findall(r"-{1,2}[\w-]+", re.split(r"\s{2,}", line.strip())[0])
    assert listed == flags


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--length", "8", "--pairs", " ; 2,2 "],
        ["analyze", "--length", "8", "--lattice", "2,2"],
    ],
)
def test_closed_stdout_exit_1(argv):
    # The reader is gone before the command starts, so its first write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = [str(Path(gaborkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaborkit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The ``gaborkit ...`` examples of the README's "Command line" block,
    continuation lines joined, each without its leading ``gaborkit``."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gaborkit ")]


def test_readme_shows_every_command():
    assert {argv[0] for argv in readme_commands()} == {"analyze", "sweep", "dual", "kernel", "gallery"}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    assert main(argv) == 0
