"""Command-line front end: list scenarios, run one, sweep a parameter.

Exit codes: 0 all checks passed; 1 at least one check failed (the report is
still written); 2 usage errors, unknown scenarios, out-of-range parameters,
a negative seed or an --out path that cannot be written; 3 a timeline step
hit an impossible outcome; 4 an internal error (any other exception).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ParameterError
from .report import dumps_json, report_to_csv, report_to_json, report_to_jsonable, sweep_to_csv, write_output
from .scenarios import StepFailure, list_scenarios, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ketsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list scenarios with their parameter schemas")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.add_argument("--out", default=None, help="write to a file instead of stdout")

    for name, helptext in (
        ("run", "run one scenario and emit its report"),
        ("sweep", "run a scenario across a parameter range"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a parameter; in sweep mode exactly one must be NAME=START:STOP:STEPS",
        )
        p.add_argument("--seed", type=int, default=0)
        if name == "run":
            p.add_argument("--format", choices=("json", "csv"), default="json")
        else:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


def _split_params(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParameterError(f"--param expects NAME=VALUE, got {pair!r}")
        if name in out:
            raise ParameterError(f"--param {name!r} given twice")
        out[name] = value
    return out


def _parse_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"sweep range expects START:STOP:STEPS, got {spec!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParameterError(f"sweep range expects numbers, got {spec!r}") from None
    if steps < 2:
        raise ParameterError("sweep needs at least 2 steps")
    if steps > 10000:
        raise ParameterError("sweep capped at 10000 steps")
    return np.linspace(start, stop, steps)


def _emit(text: str, path: str | None) -> None:
    """write_output, with a file that cannot be written as a usage error."""
    try:
        write_output(text, path)
    except OSError as exc:
        if path is None:
            raise
        raise ParameterError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _cmd_list(args) -> int:
    entries = list_scenarios()
    if args.format == "json":
        payload = {
            "scenarios": [
                {"name": name, "summary": summary, "params": schema}
                for name, schema, summary in entries
            ]
        }
        _emit(dumps_json(payload), args.out)
        return 0
    lines = []
    for name, schema, summary in entries:
        lines.append(f"{name}")
        lines.append(f"  {summary}")
        for pname, info in schema.items():
            bounds = ""
            if info["low"] is not None or info["high"] is not None:
                low, high = ("" if b is None else b for b in (info["low"], info["high"]))
                bounds = f" {'(' if info['low_open'] else '['}{low} .. {high}{')' if info['high_open'] else ']'}"
            lines.append(f"  --param {pname}={info['default']} ({info['kind']}{bounds}) {info['doc']}")
        lines.append("")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_run(args) -> int:
    overrides = _split_params(args.param)
    report = run_scenario(args.scenario, overrides, seed=args.seed)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _emit(text, args.out)
    return 0 if report.all_passed else 1


def _cmd_sweep(args) -> int:
    overrides = _split_params(args.param)
    swept = [k for k, v in overrides.items() if ":" in v]
    if len(swept) != 1:
        raise ParameterError("sweep expects exactly one --param NAME=START:STOP:STEPS")
    name = swept[0]
    values = _parse_range(overrides.pop(name))
    points = []
    for value in values:
        report = run_scenario(args.scenario, {**overrides, name: float(value)}, seed=args.seed)
        points.append((float(value), report))
    if args.format == "csv":
        text = sweep_to_csv(name, points)
    else:
        text = dumps_json(
            {
                "scenario": args.scenario,
                "swept": name,
                "points": [report_to_jsonable(r) for _v, r in points],
            }
        )
    _emit(text, args.out)
    return 0 if all(r.all_passed for _v, r in points) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ParameterError as exc:
        print(f"ketsim: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"ketsim: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        where = args.command
        if args.command != "list":
            where += f" {args.scenario} --seed {args.seed}"
            where += "".join(f" --param {p}" for p in args.param)
        print(f"ketsim: internal error in {where}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
