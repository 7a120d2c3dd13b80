"""Command line front end for the experiment suites.

Exit codes: 0 all suites passed, 1 a measured bound failed, 2 bad
configuration or arguments.  A bad value is reported with its line in
the config file when the file supplied it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from dataclasses import fields

from ._version import __version__
from .harness import (
    SUITE_RUNNERS,
    SUITES,
    ExperimentConfig,
    ExperimentReport,
)
from .operators import ExponentConfig


class ConfigError(Exception):
    pass


# "t" is shorthand for "ts": [t]
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} | {"t"}
_WS = re.compile(r"[ \t\n\r]*")


def load_config(path: str) -> tuple[dict, dict]:
    """The config object at path, and the "path:line" of each of its keys,
    where "t" counts as "ts"."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        is_object = isinstance(json.loads(raw), dict)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not is_object:
        raise ConfigError(f"{path}:1: config must be a JSON object")
    # the text is a valid JSON object: walk its top level key by key
    decode = json.JSONDecoder().raw_decode

    def skip(pos):
        return _WS.match(raw, pos).end()

    data, where = {}, {}
    pos = skip(skip(0) + 1)  # past "{"
    while raw.startswith('"', pos):
        lineno = raw.count("\n", 0, pos) + 1
        at = f"{path}:{lineno}"
        key, pos = decode(raw, pos)
        value, pos = decode(raw, skip(skip(pos) + 1))  # past ":"
        pos = skip(skip(pos) + 1)  # past "," (or the closing "}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{at}: unknown config key {key!r}")
        name = "ts" if key == "t" else key
        if name in where:
            raise ConfigError(f"{at}: duplicate config key {key!r}" if key in data
                              else f"{at}: 't' and 'ts' both set ts")
        data[key], where[name] = value, at
    return data, where


def _exponent_config(obj: dict) -> ExponentConfig:
    try:
        return ExponentConfig(**{k: math.inf if v == "inf" else v for k, v in obj.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"exponents are invalid: {exc}") from exc


def _build_config(args, data: dict, where: dict) -> ExperimentConfig:
    """The config file's values under SETLP_OUT under the flags, over the
    CLI's output dir "."; ExperimentConfig checks every value.  An error is
    anchored at a file line only when the file supplied the failing value."""
    kwargs = {"out": "."}
    for key, value in data.items():
        if key == "t":
            key, value = "ts", [value]
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    where = dict(where)
    for key, value in (("out", os.environ.get("SETLP_OUT") or None),
                       ("seed", args.seed), ("level", args.level), ("trials", args.trials),
                       ("out", args.out), ("emit_plot_data", args.emit_plot_data or None)):
        if value is not None:
            kwargs[key] = value
            where.pop(key, None)
    try:
        if isinstance(kwargs.get("exponents"), dict):
            kwargs["exponents"] = _exponent_config(kwargs["exponents"])
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        text = str(exc)
        at = where.get(text.split(" ", 1)[0])  # every message opens with its key
        raise ConfigError(f"{at}: {text}" if at else text) from exc


def _write_report(report: ExperimentReport, config: ExperimentConfig,
                  fmt: str) -> list[str]:
    os.makedirs(config.out, exist_ok=True)
    written = []
    base = os.path.join(config.out, report.suite)
    with open(base + ".json", "w") as fh:
        fh.write(report.to_json())
    written.append(base + ".json")
    if fmt == "csv":
        with open(base + ".csv", "w", newline="") as fh:
            csv.writer(fh).writerows(report.csv_rows())
        written.append(base + ".csv")
    if config.emit_plot_data and report.plot_rows:
        with open(base + "_plot.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("x", "series", "value"))
            for x, series, value in report.plot_rows:
                w.writerow((repr(x), series, repr(value)))
        written.append(base + "_plot.csv")
    return written


def _run_suite(name: str, config: ExperimentConfig, fmt: str) -> ExperimentReport:
    start = time.perf_counter()
    report = SUITE_RUNNERS[name](config)
    report.wall_clock = time.perf_counter() - start
    _write_report(report, config, fmt)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{name}: {verdict} ({report.wall_clock:.1f}s)")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setlp",
        description="Operator-norm experiments for set-valued fields on dyadic grids.",
    )
    parser.add_argument("--version", action="version", version=f"setlp {__version__}")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES + ("bodies-selftest", "all"):
        p = sub.add_parser(name, help=f"run the {name} suite" if name != "all"
                           else "run every measurement suite")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--level", type=int, help="grid refinement level")
        p.add_argument("--trials", type=int, help="trial count per suite")
        p.add_argument("--out", help="directory for reports")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="also emit a flat CSV next to the JSON report")
        p.add_argument("--emit-plot-data", action="store_true",
                       help="write (x, series, value) rows for plotting")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data, where = load_config(args.config) if args.config else ({}, {})
        config = _build_config(args, data, where)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in suites:
        ok = _run_suite(name, config, args.format).passed and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
