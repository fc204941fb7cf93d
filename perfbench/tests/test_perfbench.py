"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Each workload runs one untraced and two traced passes (about half a
minute in all).  The tests check that every span a workload should fire
records calls, that tracing leaves the program's outputs unchanged apart
from the ``timing`` block, that call counts repeat exactly, that a
corrupted output is counted as a failure, and that the benchmark refuses to
run without the program source.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

run.pin_blas()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def measured(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param](7, tmp_path_factory.mktemp(request.param))
    workload.prepare()
    workload.warmup()
    result = harness.Measurement(workload)
    for index, traced in enumerate((False, True, True)):
        result.passes.append(harness.run_pass(workload, index, traced))
    harness.check(result)
    return result


def test_outputs_pass_their_checks(measured):
    assert measured.failures == []
    assert measured.failed_frac == 0.0


def test_expected_spans_fire(measured):
    metrics = measured.passes[1].tracer.metrics()
    silent = [span for span in measured.workload.expected_spans
              if metrics[f"{span}.calls"] == 0]
    assert silent == []


def _comparable(output):
    if isinstance(output, workloads.StreamOutput):
        return output
    parsed = json.loads(output.stdout)
    if isinstance(parsed, dict):
        parsed.pop("timing", None)
    return output.rc, parsed, output.file_text, output.error


def test_tracing_leaves_outputs_unchanged(measured):
    untraced, traced = measured.passes[0], measured.passes[1]
    assert [_comparable(o) for o in traced.outputs] == [_comparable(o) for o in untraced.outputs]


def test_call_counts_repeat_exactly(measured):
    first, second = (p.tracer.metrics() for p in measured.traced())
    calls = [name for name in first if name.endswith(".calls")]
    assert {name: first[name] for name in calls} == {name: second[name] for name in calls}


def _corrupt_report(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def _scale_upper_bound(report):
    report["results"]["bounds"]["frame_upper"] *= 1.0 + 1e-6


def _flip_frame_verdict(report):
    report["results"]["conditions"]["conditions"]["i"] = False


def _raise_witness(report):
    report["results"]["kernel"]["witness_residuals"][0] = 1e-6


def _miscount_index(report):
    report["results"]["index"]["index"] += 1


def _flip_sweep_frame(rows):
    row = next(r for r in rows if r["frame"])
    row["frame"] = False
    return rows


CORRUPTIONS = {
    "analyze": [
        ("perturbed frame bound", lambda o: replace(o, stdout=_corrupt_report(o.stdout, _scale_upper_bound))),
        ("flipped frame verdict", lambda o: replace(o, stdout=_corrupt_report(o.stdout, _flip_frame_verdict))),
        ("nonzero exit", lambda o: replace(o, rc=2)),
    ],
    "sweep": [
        ("flipped frame verdict",
         lambda o: replace(o, stdout=json.dumps(_flip_sweep_frame(json.loads(o.stdout))))),
        ("raised", lambda o: replace(o, error="MemoryGuardError: too big")),
    ],
    "kernel": [
        ("large witness residual", lambda o: replace(o, stdout=_corrupt_report(o.stdout, _raise_witness))),
        ("index off by one", lambda o: replace(o, stdout=_corrupt_report(o.stdout, _miscount_index))),
    ],
    "stream": [
        ("reconstruction error", lambda o: replace(o, error_value=1e-6)),
        ("wrong shape", lambda o: replace(o, shape_ok=False)),
    ],
}


def test_corrupted_output_counts_as_failure(measured):
    name = measured.workload.name
    case = measured.workload.cases[0]
    for label, corrupt in CORRUPTIONS[name]:
        damaged = harness.Measurement(measured.workload, passes=[
            replace(measured.passes[0], outputs=[corrupt(measured.passes[0].outputs[0])]
                    + measured.passes[0].outputs[1:]),
        ])
        failures = harness.check(damaged)
        assert [(index, case_name) for index, case_name, _ in failures] == [(0, case.name)], label
        assert damaged.failed_frac == 1 / len(measured.workload.cases), label


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == harness.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == tracing.metric_units()


def test_tail_percentile():
    assert harness.tail_percentile(range(10)) is None
    assert harness.tail_percentile(range(1, 21)) == (50.0, 10)
    assert harness.tail_percentile(range(1, 41)) == (75.0, 30)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
