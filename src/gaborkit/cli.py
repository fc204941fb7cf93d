"""Command-line front end.

Subcommands: analyze, sweep, gallery, dual, kernel.  Each one is an
:class:`AnalysisConfig` whose fixed fields its parser sets as defaults;
``sweep`` runs :func:`sweep` and the others :func:`run`.  Exit codes: 0 =
ran (and any equivalence verdicts were consistent), 2 = ran but an
equivalence verdict was inconsistent beyond the marginal band (a harness
alarm), 1 = usage, configuration or runtime error, an allocation the
machine cannot make, or a closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, GaborkitError
from .gallery import save_window
from .reporting import DEFAULT_SEED, AnalysisConfig, TASKS, consistency_alarm, jsonable, run, sweep
from .tolerances import DEFAULT_TOL_SCALE

DEFAULT_TASKS = ",".join(AnalysisConfig.tasks)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 is kept for a harness alarm."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_lattice(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"lattice must be 'a,b', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"lattice steps must be integers, got {text!r}")


def _parse_pairs(text):
    try:
        return [_parse_lattice(chunk) for chunk in text.split(";") if chunk.strip()]
    except argparse.ArgumentTypeError as err:
        raise ConfigError("pairs", str(err)) from None


def _add_common(parser, lattice=True):
    parser.add_argument("--length", "-L", type=int, required=True, help="signal length L")
    if lattice:
        parser.add_argument(
            "--lattice", type=_parse_lattice, required=True, metavar="a,b",
            help="lattice steps, both dividing L",
        )
    parser.add_argument(
        "--window", default="gaussian",
        help="window recipe (delta | gaussian | bspline:M:W | conv:W1,W2 | random) or file path",
    )
    parser.add_argument("--tol-scale", type=float, default=DEFAULT_TOL_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks")
    parser.add_argument("--out", default="", help="output path")


def build_parser():
    parser = _Parser(
        prog="gaborkit",
        description="Frame diagnostics for time-frequency shift systems on Z_L",
    )
    # Config fields that only some subcommands have a flag for.
    parser.set_defaults(tasks=DEFAULT_TASKS, spectra="")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run diagnostics tasks on one system")
    _add_common(analyze)
    analyze.add_argument(
        "--tasks", default=DEFAULT_TASKS,
        help=f"comma-separated subset of {','.join(TASKS)}",
    )
    analyze.add_argument("--spectra", default="", help="CSV path for eigenvalue tables")

    sweep_p = sub.add_parser(
        "sweep",
        help="bounds, fourteen-way harness (consistent, marginal flags) and duality over a grid",
    )
    _add_common(sweep_p, lattice=False)
    sweep_p.add_argument(
        "--pairs", default="", metavar="a1,b1;a2,b2",
        help="lattice grid; default: all divisor pairs of L",
    )
    sweep_p.set_defaults(lattice=(1, 1))

    gallery = sub.add_parser("gallery", help="run the counterexample gallery")
    gallery.add_argument("--out", default="", help="JSON output path")
    gallery.add_argument("--tol-scale", type=float, default=DEFAULT_TOL_SCALE)
    gallery.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gallery.set_defaults(length=16, lattice=(4, 4), window="gaussian", tasks="gallery")

    dual = sub.add_parser("dual", help="compute the canonical dual window")
    _add_common(dual)
    dual.set_defaults(tasks="dual_window")

    kernel = sub.add_parser("kernel", help="kernel of the adjoint-lattice synthesis map")
    _add_common(kernel)
    kernel.set_defaults(tasks="kernel,index")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = AnalysisConfig(
            length=args.length,
            a=args.lattice[0],
            b=args.lattice[1],
            window=args.window,
            tasks=tuple(t.strip() for t in args.tasks.split(",") if t.strip()),
            tol_scale=args.tol_scale,
            seed=args.seed,
            # dual's --out is the window file, not the report.
            out="" if args.command == "dual" else args.out,
            spectra=args.spectra,
        )
        if args.command == "sweep":
            rows = sweep(config, _parse_pairs(args.pairs) if args.pairs else None)
            if not config.out:
                print(json.dumps(jsonable(rows), indent=2, sort_keys=True), flush=True)
            return 2 if consistency_alarm(rows) else 0

        report = run(config)
        if args.command == "dual":
            summary = dict(report.results["dual_window"])
            samples = summary.pop("samples")
            if args.out:
                save_window(args.out, samples)
            print(json.dumps(jsonable(summary), indent=2, sort_keys=True), flush=True)
        elif not config.out:
            print(report.to_json(), flush=True)
        return 2 if consistency_alarm(report) else 0
    except GaborkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # The length rule refuses only lengths no array can index; numpy's
        # message names the allocation that failed.
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Each print flushes, so a closed stdout is seen here; devnull takes
        # the rest, so the flush at exit neither raises nor prints.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
