#!/usr/bin/env python3
"""Run the whole experiment battery and write one report file per experiment.

Usage: python scripts/run_experiments.py [--out-dir out] [--seed 20260808]

Seeded experiments all use the one seed given here; reports land in the
output directory as <experiment>.json and a one-line verdict summary is
printed per experiment. Once every report is written, summary.json in the
same directory maps each experiment to its verdict, failed checks, exit
code, wall time and report file name. Exit status is that of ``liftlab``
(0, 1, or 2 with one error line); every config and the output directory are
checked first, and a run that exits 2 writes no summary.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from liftlab import cli  # noqa: E402
from liftlab.experiments import SPECS, ExperimentConfig, run  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=20260808)
    summary = {}
    try:
        args = parser.parse_args(argv)
        configs = [
            ExperimentConfig(experiment=name, seed=args.seed if spec.seeded else None)
            for name, spec in SPECS.items()
        ]
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for config in configs:
            name = config.experiment
            report = run(config)
            path = out_dir / f"{name}.json"
            path.write_text(report.to_json(), encoding="utf-8")
            summary[name] = {
                "verdict": report.verdict,
                "failed_checks": report.failed_checks,
                "exit_code": report.exit_status,
                "wall_time_s": round(report.wall_time_s, 6),
                "report": path.name,
            }
            print(f"{name:24s} {report.verdict:22s} {report.wall_time_s:8.2f}s  -> {path}")
        text = json.dumps(summary, indent=2) + "\n"
        (out_dir / "summary.json").write_text(text, encoding="utf-8")
    except (OSError, ValueError) as err:
        return cli.usage_error(err)
    return max((entry["exit_code"] for entry in summary.values()), default=0)


if __name__ == "__main__":
    sys.exit(main())
