"""Command line front end for the experiment suites.

Exit codes: 0 all suites passed, 1 a measured bound failed, 2 bad
configuration or arguments.  Config-file problems are reported with the
offending line when it can be located.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

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


_CONFIG_KEYS = {
    "name", "seed", "level", "trials", "alpha", "t", "ts", "directions",
    "out", "fixtures", "exponents", "emit_plot_data",
}


def _line_of(raw: str, key: str) -> str:
    needle = f'"{key}"'
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return str(i)
    return "?"


def _decode_number(value):
    if value == "inf":
        return math.inf
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}:1: config must be a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{_line_of(raw, key)}: unknown config key {key!r}")
    data["__path__"] = path
    data["__raw__"] = raw
    return data


def _build_config(args, data: dict) -> ExperimentConfig:
    path = data.pop("__path__", "<config>")
    raw = data.pop("__raw__", "")

    def fail(key: str, msg: str):
        raise ConfigError(f"{path}:{_line_of(raw, key)}: {msg}")

    # ExperimentConfig checks every value's type and range
    kwargs = {key: data[key] for key in ("seed", "level", "trials", "alpha", "directions")
              if key in data}
    if "name" in data:
        kwargs["name"] = str(data["name"])
    ts_key = "ts" if "ts" in data else ("t" if "t" in data else None)
    if ts_key is not None:
        val = data[ts_key]
        kwargs["ts"] = tuple(val) if isinstance(val, list) else (val,)
    if "fixtures" in data:
        if not isinstance(data["fixtures"], list):
            fail("fixtures", "fixtures must be a list of names")
        kwargs["fixtures"] = tuple(data["fixtures"])
    if "out" in data:
        kwargs["out"] = str(data["out"])
    if "emit_plot_data" in data:
        kwargs["emit_plot_data"] = bool(data["emit_plot_data"])
    if "exponents" in data:
        exp = data["exponents"]
        if not isinstance(exp, dict):
            fail("exponents", "exponents must be an object with p0, q0, p1, q1, t")
        try:
            kwargs["exponents"] = ExponentConfig(
                **{k: _decode_number(v) for k, v in exp.items()})
        except (TypeError, ValueError) as exc:
            fail("exponents", f"bad exponents: {exc}")

    # flags beat the environment, which beats the config file
    env_out = os.environ.get("SETLP_OUT")
    if env_out:
        kwargs["out"] = env_out
    for key in ("seed", "level", "trials"):
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
    if getattr(args, "out", None) is not None:
        kwargs["out"] = args.out
    if getattr(args, "emit_plot_data", False):
        kwargs["emit_plot_data"] = True

    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        text = str(exc)
        key = text.split(" ", 1)[0]  # a whole key word: "trials", never "t"
        if key == "ts":
            key = ts_key  # the line of "ts", or of its shorthand "t"
        if key in _CONFIG_KEYS and raw:
            raise ConfigError(f"{path}:{_line_of(raw, key)}: {text}") from exc
        raise ConfigError(text) from exc


def _write_report(report: ExperimentReport, config: ExperimentConfig,
                  fmt: str) -> list[str]:
    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    base = os.path.join(out_dir, report.suite)
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
        data = load_config(args.config) if args.config else {}
        config = _build_config(args, data)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    try:
        for name in suites:
            report = _run_suite(name, config, args.format)
            ok = ok and report.passed
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
