"""Experiment configuration, machine-readable reports, and the claims registry.

A report is a single JSON document with schema tag "liftlab-report/1".
Everything inside it except ``wall_time_s`` is a pure function of the
configuration (including the seed), so two runs with the same config are
byte-identical outside that one field. All digit strings in payloads are
ASCII, least significant digit first; exact rationals are "p/q" strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

SCHEMA = "liftlab-report/1"

VERDICTS = ("pass", "fail", "witness-found", "no-witness-at-horizon")

EXPERIMENTS = (
    "mt-generate",
    "mt-dynamics",
    "tower-equicontinuity",
    "solenoid-lift",
    "amalgam-rigidity",
    "amalgam-deck",
    "covers-obstruction",
    "hawaiian-suite",
    "spiral-orbits",
    "rotation-density",
)

# Experiments that draw seeded random samples; a seed is mandatory for them.
RANDOMIZED_EXPERIMENTS = frozenset(
    {"tower-equicontinuity", "amalgam-rigidity", "hawaiian-suite"}
)

# One claim per experiment: what the run checks, stated mathematically.
CLAIMS: dict[str, dict[str, str]] = {
    "mt-generate": {
        "id": "constructions-agree",
        "statement": (
            "The two-letter substitution, the doubling construction, and the "
            "bit-count parity rule generate the same binary sequence."
        ),
    },
    "mt-dynamics": {
        "id": "mixed-orbit-behaviour",
        "statement": (
            "The doubled sequence is aperiodic, every short factor recurs "
            "with a bounded gap, and window pairs both approach (proximal "
            "evidence) and separate (non-equicontinuity evidence) under "
            "shifting, at the stated depth and horizon."
        ),
    },
    "tower-equicontinuity": {
        "id": "strict-towers-equicontinuous",
        "statement": (
            "A strict tower of finite shift systems acts equicontinuously: "
            "agreement depth in the thread metric is preserved by every "
            "iterate, so the modulus is the identity; defective towers are "
            "rejected at construction."
        ),
    },
    "solenoid-lift": {
        "id": "solenoid-monodromy",
        "statement": (
            "Loop lifting in the k-fold self-cover tower of the circle acts "
            "by +1 on the k-ary residue fibre, transitively at every level."
        ),
    },
    "amalgam-rigidity": {
        "id": "doubling-scales-disagree",
        "statement": (
            "Repeated doubling contracts binary residues one valuation step "
            "per iteration while the glued ternary images stay at one "
            "constant scale, so no nontrivial translation pair commutes "
            "with the glue."
        ),
    },
    "amalgam-deck": {
        "id": "glued-system-rigid",
        "statement": (
            "Exhaustive translation-pair search over the glued double "
            "solenoid at this truncation finds only the identity symmetry."
        ),
    },
    "covers-obstruction": {
        "id": "no-common-cover-degree",
        "statement": (
            "A connected cover of the figure eight compatible with the "
            "binary side needs a full cycle of 2-power length, with the "
            "ternary side a 3-power length; both hold only in degree 1."
        ),
    },
    "hawaiian-suite": {
        "id": "squaring-tower-connected",
        "statement": (
            "Every level of the squaring tower over nested circles is "
            "connected, letter-count parity classifies lifts with a "
            "surjective boundary map, and the level-n deck group is the "
            "full sign group of order 2^n acting freely and transitively."
        ),
    },
    "spiral-orbits": {
        "id": "spiral-decomposes",
        "statement": (
            "The compactified spiral splits into one traversing orbit and "
            "two fixed boundary circles; the traversing orbit closes up on "
            "both boundaries."
        ),
    },
    "rotation-density": {
        "id": "irrational-orbits-dense",
        "statement": (
            "The largest gap of an irrational rotation orbit shrinks as the "
            "orbit grows, while a rational rotation's gap stalls."
        ),
    },
}


class UsageError(ValueError):
    """Invalid experiment name, missing seed, or mistyped or out-of-range bounds."""


@dataclass
class ExperimentConfig:
    """Bounds and knobs for one experiment run; None means use the default."""

    experiment: str
    seed: int | None = None
    out: str | None = None
    precision: int | None = None
    level: int | None = None
    horizon: int | None = None
    depth: int | None = None
    max_degree: int | None = None
    words: int | None = None
    circles: int | None = None
    word: str | None = None
    start: str | None = None
    system: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}"
            )
        for name in ("out", "word", "start", "system"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise UsageError(f"--{name} must be a string, not {value!r}")
        for name in ("seed", "precision", "level", "horizon", "depth",
                     "max_degree", "words", "circles"):
            value = getattr(self, name)
            if value is None:
                continue
            flag = "--" + name.replace("_", "-")
            if type(value) is not int:
                raise UsageError(f"{flag} must be an integer, not {value!r}")
            if value < 1 and name != "seed":
                raise UsageError(f"{flag} must be >= 1")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise UsageError("--seed must fit in 64 bits")
        if self.experiment in RANDOMIZED_EXPERIMENTS and self.seed is None:
            raise UsageError(
                f"experiment {self.experiment} draws random samples; --seed is mandatory"
            )


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


def frac_str(value: Fraction) -> str:
    """Canonical "p/q" (or integer) string for an exact rational."""
    return str(value)


def comparison_region(report_json: str) -> dict:
    """The deterministic part of a serialized report: everything but wall time."""
    doc = json.loads(report_json)
    doc.pop("wall_time_s", None)
    return doc
