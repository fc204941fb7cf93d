"""Command-line front end.

Subcommands: analyze, sweep, gallery, dual, kernel.  Exit codes: 0 = ran
(and any equivalence verdicts were consistent), 2 = ran but an equivalence
verdict was inconsistent beyond the marginal band (a harness alarm), 1 =
usage, configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, GaborkitError
from .reporting import (
    AnalysisConfig,
    TASKS,
    consistency_alarm,
    jsonable,
    run,
    save_window,
    sweep,
)
from .tolerances import DEFAULT_TOL_SCALE


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
    pairs = [_parse_lattice(chunk) for chunk in text.split(";") if chunk.strip()]
    if not pairs:
        raise ConfigError("pairs", f"{text!r} names no lattice")
    return pairs


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
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    parser.add_argument("--out", default="", help="output path")


def build_parser():
    parser = _Parser(
        prog="gaborkit",
        description="Frame diagnostics for time-frequency shift systems on Z_L",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run diagnostics tasks on one system")
    _add_common(analyze)
    analyze.add_argument(
        "--tasks", default="bounds,conditions,duality",
        help=f"comma-separated subset of {','.join(TASKS)}",
    )
    analyze.add_argument("--spectra", default="", help="CSV path for eigenvalue tables")

    sweep_p = sub.add_parser("sweep", help="bounds + duality over a lattice grid")
    _add_common(sweep_p, lattice=False)
    sweep_p.add_argument(
        "--pairs", default="", metavar="a1,b1;a2,b2",
        help="lattice grid; default: all divisor pairs of L",
    )

    gallery = sub.add_parser("gallery", help="run the counterexample gallery")
    gallery.add_argument("--out", default="", help="JSON output path")
    gallery.add_argument("--tol-scale", type=float, default=DEFAULT_TOL_SCALE)
    gallery.add_argument("--seed", type=int, default=None)

    dual = sub.add_parser("dual", help="compute the canonical dual window")
    _add_common(dual)

    kernel = sub.add_parser("kernel", help="kernel of the adjoint-lattice synthesis map")
    _add_common(kernel)

    return parser


def _config_from(args, tasks):
    kwargs = dict(
        length=args.length,
        a=args.lattice[0],
        b=args.lattice[1],
        window=args.window,
        tasks=tuple(tasks),
        tol_scale=args.tol_scale,
        out=getattr(args, "out", ""),
        spectra=getattr(args, "spectra", ""),
    )
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return AnalysisConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
            config = _config_from(args, tasks)
            report = run(config)
            if not config.out:
                print(report.to_json())
            return 2 if consistency_alarm(report) else 0

        if args.command == "sweep":
            kwargs = dict(
                length=args.length, a=1, b=1, window=args.window,
                tol_scale=args.tol_scale, out=args.out,
            )
            if args.seed is not None:
                kwargs["seed"] = args.seed
            base = AnalysisConfig(**kwargs)
            pairs = _parse_pairs(args.pairs) if args.pairs else None
            rows = sweep(base, pairs)
            if not args.out:
                print(json.dumps(jsonable(rows), indent=2, sort_keys=True))
            alarm = any((not row["consistent"]) and (not row["marginal"]) for row in rows)
            return 2 if alarm else 0

        if args.command == "gallery":
            kwargs = dict(
                length=16, a=4, b=4, window="gaussian", tasks=("gallery",),
                tol_scale=args.tol_scale, out=args.out,
            )
            if args.seed is not None:
                kwargs["seed"] = args.seed
            report = run(AnalysisConfig(**kwargs))
            if not args.out:
                print(report.to_json())
            return 0

        if args.command == "dual":
            config = _config_from(args, ("dual_window",))
            config.out = ""
            report = run(config)
            samples = report.results["dual_window"]["samples"]
            if args.out:
                save_window(args.out, samples)
            summary = {
                key: value
                for key, value in report.results["dual_window"].items()
                if key != "samples"
            }
            print(json.dumps(jsonable(summary), indent=2, sort_keys=True))
            return 0

        if args.command == "kernel":
            config = _config_from(args, ("kernel", "index"))
            report = run(config)
            if not config.out:
                print(report.to_json())
            return 0

        raise AssertionError(f"unhandled command {args.command!r}")
    except GaborkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
