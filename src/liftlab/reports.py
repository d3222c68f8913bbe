"""Machine-readable experiment reports.

A report is a single JSON document with schema tag "liftlab-report/1".
Everything inside it except ``wall_time_s`` is a pure function of the
configuration (including the seed), so two runs with the same config are
byte-identical outside that one field. All digit strings in payloads are
ASCII, least significant digit first; exact rationals are "p/q" strings.

The text is exactly ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline,
but each flat list in it is one call of an unindented encoder, in C: with
``indent``, json before Python 3.13 takes one Python generator step per value.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

SCHEMA = "liftlab-report/1"

VERDICTS = ("pass", "fail", "witness-found", "no-witness-at-horizon")


def verdict(failed: list[str], witnesses: tuple[str, ...]) -> str:
    """The verdict of a run whose checks named in ``failed`` did not hold.

    A run that declares witness checks found its witnesses if nothing failed,
    and found none at its horizon if only witness checks failed.
    """
    if not witnesses:
        return "fail" if failed else "pass"
    if not failed:
        return "witness-found"
    return "no-witness-at-horizon" if set(failed) <= set(witnesses) else "fail"


@dataclass
class Report:
    experiment: str
    config: dict
    claim: dict
    verdict: str
    failed_checks: list[str]  # in the order the runner declares its checks
    payload: dict
    wall_time_s: float

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict {self.verdict!r} outside {VERDICTS}")
        if (self.verdict in ("pass", "witness-found")) == bool(self.failed_checks):
            raise ValueError(
                f"verdict {self.verdict!r} contradicts failed checks {self.failed_checks}"
            )

    @property
    def exit_status(self) -> int:
        """The exit status of the run, read by ``liftlab`` and the battery."""
        return 1 if self.failed_checks else 0

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "claim": self.claim,
            "config": self.config,
            "verdict": self.verdict,
            "failed_checks": self.failed_checks,
            "payload": self.payload,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)`` and a newline."""
        pieces: list[str] = []
        _write(self.to_dict(), 0, pieces)
        # a "\n" piece would save this copy but raised a 1 MiB report's peak RSS 1 MB
        return "".join(pieces) + "\n"


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """Writes a flat list's items one to a line, indented to ``depth``, and scalars."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


def _write(value, depth: int, pieces: list[str]) -> None:
    """Append ``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it at ``depth``."""
    is_dict = isinstance(value, dict)
    if not value or not (is_dict or isinstance(value, (list, tuple))):
        # an int alone is cheaper to write than the encoder is to set up
        pieces.append(str(value) if type(value) is int else _encoder(0).encode(value))
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if not is_dict and all(isinstance(item, (str, int, float, type(None))) for item in value):
        pieces += ("[", inner, _encoder(depth + 1).encode(value)[1:-1], outer, "]")
        return
    pieces.append("{" if is_dict else "[")
    for i, item in enumerate(sorted(value.items()) if is_dict else value):
        pieces.append("," + inner if i else inner)
        if is_dict:  # json's text for a non-string key is read off '{key: 0}'
            key, item = item
            pieces.append(_encoder(0).encode(key) + ": " if type(key) is str
                          else _encoder(0).encode({key: 0})[1:-2])
        _write(item, depth + 1, pieces)
    pieces += (outer, "}" if is_dict else "]")


def comparison_region(report_json: str) -> dict:
    """The deterministic part of a serialized report: everything but wall time."""
    doc = json.loads(report_json)
    doc.pop("wall_time_s", None)
    return doc
