"""Command-line interface: run one scenario or a whole suite directory.

Both commands print the summary table, then one ``FAIL`` line on stderr per
failed scenario.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 one ``error:`` line: an out-of-domain flag, an unusable --out,
for ``run`` a file refused when read or an unusable output directory, for
``suite`` a path that is no directory or holds no ``*.scn``.
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
    make_directory,
    run_scenario,
    run_suite,
)
from .scenarios import nonnegative_int, parse_scenario, tolerance

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
        p.add_argument("--tol", type=tolerance, default=None, help="override the check tolerance, in (0, 1)")
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
        make_directory(out_root, "output root")
        if args.command == "run":
            results = [run_scenario(parse_scenario(args.scenario, args.tol, args.seed), out_root, args.no_plots)]
            code = EXIT_PASS if results[0].passed else EXIT_CHECK_FAILED
        else:
            results, code = run_suite(args.directory, out_root, args.no_plots, args.tol, args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(SUMMARY_HEADER)
    for result in results:
        print(result.summary_row())
        if not result.passed:
            detail = result.message or f"check failed with margin {result.min_margin:.6g}"
            print(f"FAIL {result.name} [{result.kind}]: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
