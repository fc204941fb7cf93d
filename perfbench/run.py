"""gaborkit benchmark.

    python3 perfbench/run.py --workload {analyze,sweep,kernel,stream} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/gaborkit`` next to this directory, never from an installed copy, and
the run stops with a nonzero exit code and no result when that source is
missing.  BLAS is pinned to one thread before numpy loads.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of the traced passes.  The lines before it print every metric by name with
its unit, plus ``failed_frac``.  The full record (environment, per-pass
times, per-case medians, failures) is written to ``perfbench/out/``, and a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("analyze", "sweep", "kernel", "stream")
#: Fresh processes that repeat the set-up, besides the measuring one.
SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gaborkit benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_blas():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def require_source():
    if not (SRC / "gaborkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'gaborkit'}")


def import_program():
    package = SRC / "gaborkit"
    sys.path[:0] = [str(SRC), str(HERE)]
    import gaborkit

    if Path(gaborkit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported gaborkit from {gaborkit.__file__}, not {package}")
    return gaborkit


def set_up(args, workdir):
    """Import the program, make the inputs, make one warm-up call."""
    start = time.perf_counter()
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()
    workload.warmup()
    return workload, time.perf_counter() - start


def probe_setup(args):
    """Set-up seconds of a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    require_source()
    pin_blas()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        workload, setup_seconds = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_seconds}))
            return 0
        import harness
        import tracing
        import workloads

        setups = [setup_seconds]
        if not args.trace:
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
        began = time.perf_counter()
        result = harness.measure(workload, args.seconds, bool(args.trace))
        took = time.perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result.passes)} passes of {len(workload.cases)} cases in {took:.1f} s")
    e2e, case_medians = harness.end_to_end(result, setups)
    harness.print_end_to_end(e2e, case_medians, result, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(ROOT),
        "cases": [case.name for case in workload.cases],
        "pass_case_seconds": [p.case_seconds for p in result.passes],
        "pass_traced": [p.traced for p in result.passes],
        "case_median_s": case_medians,
        "end_to_end": e2e,
        "setup_s_samples": setups,
        "failures": result.failures,
        "excluded_cases": list(workloads.EXCLUDED),
    }
    if args.trace:
        metrics, counts_repeat, per_pass = harness.per_layer(result)
        units = {name: unit for name, (unit, _) in tracing.metric_units().items()}
        record.update(per_layer=metrics, per_layer_passes=per_pass, counts_repeat=counts_repeat)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(spans_path, [p.tracer for p in result.traced()])
        print(f"  traced passes {len(result.traced())}; call counts repeat exactly: "
              f"{counts_repeat}; spans written to {spans_path.relative_to(ROOT)}")
        for name in sorted(metrics):
            print(f"  {name:44s} {metrics[name]:.6g} {units[name]}")
    else:
        metrics = e2e
        units = {name: unit for name, (unit, _) in harness.END_TO_END.items()}
    env = record["environment"]
    print(f"  environment: {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']['name']} {env['blas']['version']}, "
          f"BLAS threads {env['blas_threads']}, git {env['git']}")
    for index, case, message in result.failures[:20]:
        print(f"  FAILED pass {index} {case}: {message}")
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
