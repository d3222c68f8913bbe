"""Command line driver: configure an experiment, run it, emit one JSON report.

Exit status: 1 if a check failed (fail or no-witness-at-horizon), else 0
(pass or witness-found), and 2 for usage errors, each reported in one line
on stderr. A JSON config file may supply any option; command line flags
override it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    KNOB_TYPES,
    SPECS,
    ExperimentConfig,
    UsageError,
    flag,
    run,
)


def _epilog() -> str:
    lines = ["experiments (* draws samples: needs --seed) and their options:"]
    for name, spec in SPECS.items():
        lines.append(f"  {name}{'*' if spec.seeded else ''}")
        for key, knob in spec.knobs.items():
            default = knob.default.__doc__ if callable(knob.default) else knob.default
            text = f"    {flag(key):14s} default {default}"
            if knob.low is not None:
                text += f", at least {knob.low}"
            if knob.high is not None:
                text += f", at most {knob.high}"
            lines.append(text)
    lines.append(
        "Numeric options are positive integers. A value outside its bounds "
        "exits 2 before any work starts."
    )
    return "\n".join(lines)


class Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A malformed command line is a usage error like any other."""
        raise UsageError(message)


def usage_error(err: Exception) -> int:
    """Print a usage error or an unusable path as one stderr line; exit status 2."""
    print("error:", " ".join(str(err).splitlines()), file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="liftlab",
        description="Run one named experiment and print its JSON report.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--experiment", choices=SPECS)
    parser.add_argument("--config", help="JSON file with option defaults")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="also write the report to this path")
    for key, kind in KNOB_TYPES.items():
        parser.add_argument(flag(key), dest=key, type=kind)
    return parser


def _read_json(path: str):
    """The JSON document in a file; one nested too deeply to parse is a ValueError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply to read") from None


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict = {}
    if args.config:
        data = _read_json(args.config)
        if not isinstance(data, dict):
            raise UsageError("the config file must hold a JSON object")
        merged.update(data)
    merged.update(
        (key, value)
        for key, value in vars(args).items()
        if key != "config" and value is not None
    )
    return ExperimentConfig(**merged)


def main(argv: list[str] | None = None) -> int:
    try:
        config = _merge_config(build_parser().parse_args(argv))
        report = run(config)
        text = report.to_json()
        if config.out is not None:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (OSError, ValueError) as err:
        return usage_error(err)
    sys.stdout.write(text)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
