"""Command-line interface: run one scenario or a whole suite directory.

Both commands print the summary table, then one ``FAIL`` line on stderr per
failed scenario.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 the configuration could not be used (parse error, empty suite,
unusable --out, or for ``run`` an unusable scenario output directory).
The output root defaults to ``./out`` and can be overridden by ``--out``
or the ``ISS_PARABOLIC_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ScenarioError
from .runner import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_PASS,
    run_scenario,
    run_suite,
)
from .scenarios import nonnegative_int, parse_scenario, positive_float

SUMMARY_HEADER = "name,kind,pass,min_margin,wall_ms"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iss-parabolic",
        description="Simulate 1-D parabolic problems and certify stability estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, target, help_text in (
        ("run", "scenario", "run a single scenario file"),
        ("suite", "directory", "run every *.scn file in a directory"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(target)
        p.add_argument("--out", default=None, help="output root (default $ISS_PARABOLIC_OUT or ./out)")
        p.add_argument("--tol", type=positive_float, default=None, help="override the check tolerance (> 0)")
        p.add_argument("--seed", type=nonnegative_int, default=None, help="override the scenario seed")
        p.add_argument("--no-plots", action="store_true", help="skip SVG plot emission")
    return parser


def _out_root(arg_value) -> Path:
    if arg_value is not None:
        return Path(arg_value)
    return Path(os.environ.get("ISS_PARABOLIC_OUT", "out"))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_root = _out_root(args.out)
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use output root {out_root}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    options = {"tol": args.tol, "no_plots": args.no_plots, "seed_override": args.seed}
    if args.command == "run":
        try:
            results = [run_scenario(parse_scenario(args.scenario), out_root, **options)]
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        code = EXIT_PASS if results[0].passed else EXIT_CHECK_FAILED
    else:
        results, code = run_suite(args.directory, out_root, **options)
        if code == EXIT_CONFIG_ERROR:
            print(f"error: no scenario files (*.scn) found in {args.directory}", file=sys.stderr)
            return code
    print(SUMMARY_HEADER)
    for result in results:
        print(result.summary_row())
        if not result.passed:
            detail = result.message or f"check failed with margin {result.min_margin:.6g}"
            print(f"FAIL {result.name} [{result.kind}]: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
