"""Command line entry point: run scenarios, sweep parameters, verify.

    egf run <scenario-file> [--out DIR]
    egf sweep <scenario-file> --param NAME --values V1,V2,... [--out DIR]
    egf verify [--out DIR]

Exit codes: 0 success, 1 check failure, 2 a usage error or a scenario file
that cannot be read, decoded or parsed, 3 validation error or an artifact
that cannot be written, 4 solver failure, out of memory or a sweep or verify
worker process that died.  Codes 2-4 print one ``egf: <reason>: <detail>``
line on stderr; no input ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from .errors import SolverError, ValidationError
from .scenarios import ScenarioParseError, load_scenario

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, for the exit-code table,
    instead of printing the usage and exiting; its subparsers are of this class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egf",
        description="Extrinsic geometric flow scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file", help="scenario file path")
    p_run.add_argument("--out", default="egf-out", help="artifact directory")

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("file", help="base scenario file path")
    p_sweep.add_argument("--param", required=True, help="scalar key to vary")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of values"
    )
    p_sweep.add_argument("--out", default="egf-out", help="artifact root directory")

    p_verify = sub.add_parser("verify", help="run the bundled acceptance suite")
    p_verify.add_argument(
        "--out", default=None, help="also write the report to DIR/acceptance.txt"
    )
    return parser


class _ReadError(Exception):
    """The scenario file could not be read or decoded."""


# (exception, exit code, stderr label); the first row that matches wins.
_EXIT_CODES = (
    (argparse.ArgumentError, 2, "usage"),
    (_ReadError, 2, "cannot read scenario"),
    (ScenarioParseError, 2, "parse error"),
    (ValidationError, 3, "invalid scenario"),
    (OSError, 3, "cannot write artifacts"),
    (SolverError, 4, "solver failure"),
    # FloatingPointError from numpy's error state, OverflowError from Python
    # float and int arithmetic
    (ArithmeticError, 4, "floating-point error"),
    (MemoryError, 4, "out of memory"),
    (BrokenExecutor, 4, "worker process lost"),
)


def _load(path: str):
    try:
        return load_scenario(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _ReadError(exc) from exc


def _cmd_run(args) -> int:
    from .runner import run_scenario, write_artifacts

    result = run_scenario(_load(args.file))
    write_artifacts(result, args.out)
    for check in result.checks:
        print(check.line())
    print(f"overall: {'pass' if result.passed else 'fail'} -> {args.out}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    from .runner import sweep_values

    values = [v.strip() for v in args.values.split(",") if v.strip()]
    code, rows = sweep_values(_load(args.file), args.param, values, args.out)
    for row in rows:
        print(f"{args.param}={row[0]}: final_sup={row[1]:.6e} verdict={row[4]}")
    print(f"sweep table -> {args.out}/sweep.csv")
    return code


def _cmd_verify(args) -> int:
    import os

    from .acceptance import run_all

    results = run_all()
    lines = []
    for res in results:
        lines.append(res.line())
        lines.extend(f"    {detail}" for detail in res.details)
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    print("\n".join(lines))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "acceptance.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if not failed else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a value list may begin with "-" (--values -1,1); joined to its option,
    # argparse does not take it for an option of its own
    for i in range(len(argv) - 1):
        if argv[i] == "--values":
            argv[i:i + 2] = [f"--values={argv[i + 1]}"]
            break
    try:
        args = _build_parser().parse_args(argv)
        command = {"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify}[args.command]
        # one floating-point policy for every command: an overflow, an invalid
        # operation or a division by zero ends it (exit 4); underflow is ignored
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return command(args)
    except tuple(row[0] for row in _EXIT_CODES) as exc:
        code, label = next((c, lab) for kind, c, lab in _EXIT_CODES if isinstance(exc, kind))
        print(f"egf: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
