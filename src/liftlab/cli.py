"""Command line driver: configure an experiment, run it, emit one JSON report.

Exit status: 0 for pass or witness-found, 1 for fail or
no-witness-at-horizon, 2 for usage errors. A JSON config file may supply
any option; command line flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import run
from .reports import EXPERIMENTS, ExperimentConfig, UsageError

_CONFIG_KEYS = (
    "experiment",
    "seed",
    "out",
    "precision",
    "level",
    "horizon",
    "depth",
    "max_degree",
    "words",
    "circles",
    "word",
    "start",
    "system",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="Run one named experiment and print its JSON report.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON file with option defaults")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="also write the report to this path")
    parser.add_argument("--precision", type=int)
    parser.add_argument("--level", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--words", type=int)
    parser.add_argument("--circles", type=int)
    parser.add_argument("--word", help="loop word, e.g. 'a^5' or 'a b^-1'")
    parser.add_argument("--start", help="start fibre point for lifts")
    parser.add_argument("--system", help="monodromy system JSON to lift in")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise UsageError("the config file must hold a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if "experiment" not in merged:
        raise UsageError("an experiment name is required (--experiment)")
    return ExperimentConfig(**merged)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        report = run(config)
        text = report.to_json()
        if config.out:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if report.verdict in ("pass", "witness-found") else 1


if __name__ == "__main__":
    sys.exit(main())
