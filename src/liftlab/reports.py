"""Machine-readable experiment reports.

A report is a single JSON document with schema tag "liftlab-report/1".
Everything inside it except ``wall_time_s`` is a pure function of the
configuration (including the seed), so two runs with the same config are
byte-identical outside that one field. All digit strings in payloads are
ASCII, least significant digit first; exact rationals are "p/q" strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA = "liftlab-report/1"

VERDICTS = ("pass", "fail", "witness-found", "no-witness-at-horizon")
PASSING_VERDICTS = ("pass", "witness-found")  # exit status 0; the rest exit 1


@dataclass
class Report:
    experiment: str
    config: dict
    claim: dict
    verdict: str
    payload: dict
    wall_time_s: float

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict {self.verdict!r} outside {VERDICTS}")

    @property
    def exit_status(self) -> int:
        """The exit status of the run, read by ``liftlab`` and the battery."""
        return 0 if self.verdict in PASSING_VERDICTS else 1

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "claim": self.claim,
            "config": self.config,
            "verdict": self.verdict,
            "payload": self.payload,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def comparison_region(report_json: str) -> dict:
    """The deterministic part of a serialized report: everything but wall time."""
    doc = json.loads(report_json)
    doc.pop("wall_time_s", None)
    return doc
