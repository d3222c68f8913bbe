#!/usr/bin/env python3
"""Run the whole experiment battery and write one report file per experiment.

Usage: python scripts/run_experiments.py [--out-dir out] [--seed 20260808]

Seeded experiments all use the one seed given here; reports land in the
output directory as <experiment>.json and a one-line verdict summary is
printed per experiment.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from liftlab.experiments import SPECS, ExperimentConfig, UsageError, run  # noqa: E402
from liftlab.reports import PASSING_VERDICTS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args()
    try:
        configs = [
            ExperimentConfig(experiment=name, seed=args.seed if spec.seeded else None)
            for name, spec in SPECS.items()
        ]
    except UsageError as err:  # a bad seed stops the battery before any report
        parser.exit(2, f"error: {err}\n")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for config in configs:
        name = config.experiment
        report = run(config)
        path = out_dir / f"{name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        ok = report.verdict in PASSING_VERDICTS
        failures += 0 if ok else 1
        print(f"{name:24s} {report.verdict:22s} {report.wall_time_s:8.2f}s  -> {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
