"""The four benchmark workloads: their operations and the checks on each output.

An operation is one in-process ``liftlab.cli.main(argv)`` call with its
output captured, or one library call. Only the call is timed; the checks run
after it, outside the timed region. Checks gate on mathematical content
(verdicts, exit codes, class counts, fibre and group orders, identities),
never on a digest of a whole report, so that fields added to reports later do
not count correct runs as failed. Each operation's comparison region must
also be identical on every pass of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from layers import WORKLOADS
from liftlab import cli, covers, lifting, profinite
from liftlab.reports import comparison_region

DEFAULT_SEED = 20260808

# Connected covers of the figure eight up to isomorphism, degrees 2..7.
CLASS_COUNTS = {2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163}
# Covers whose petal is one full cycle, one per class (degree: petal, count).
FULL_CYCLE_COUNTS = {2: ("a", 2), 3: ("b", 4), 4: ("a", 10), 8: ("a", 5100)}
# Each operation takes about a second on an unloaded host, so that a run
# holds many passes; the defaults of covers-obstruction (degree 12, with
# exhaustive degree 8) and hawaiian-suite (level 12) take ten times that.
OBSTRUCTION_MAX_DEGREE = 7
CENSUS_DEGREES = range(2, 8)
CENSUS_FULL_CYCLE = (2, 3, 4, 8)
ROUND_TRIP_MAX_LENGTH = 10
AMALGAM_PRECISIONS = range(2, 11)
HAWAIIAN_LEVELS = 7


@dataclass
class Op:
    """One timed operation and the check of its outcome.

    ``call`` returns the outcome; ``check`` lists what is wrong with it (an
    empty list means correct); ``region`` extracts the part that must be
    identical on every pass. ``known_defect``, when set, recognises the one
    disclosed way in which this operation fails at the parent commit.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    region: Callable[[object], str]
    known_defect: Callable[[object], bool] | None = None


# ---------------------------------------------------------------------------
# command line operations


@dataclass
class CliOutcome:
    code: int
    stdout: str
    report: dict | None = field(default=None)


def _run_cli(argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutcome(code, out.getvalue())


def _report(outcome: CliOutcome) -> dict:
    if outcome.report is None:
        outcome.report = json.loads(outcome.stdout)
    return outcome.report


def _cli_region(outcome: CliOutcome) -> str:
    region = comparison_region(outcome.stdout)
    return hashlib.sha256(json.dumps(region, sort_keys=True).encode()).hexdigest()


def cli_op(name: str, argv: list[str], payload_check, known_defect=None) -> Op:
    """A CLI operation expecting exit 0 and an accepting verdict."""

    def check(outcome: CliOutcome) -> list[str]:
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        report = _report(outcome)
        if report["verdict"] not in ("pass", "witness-found"):
            problems.append(f"verdict {report['verdict']}")
        return problems + payload_check(report["payload"])

    def defect(outcome: CliOutcome) -> bool:
        return known_defect(outcome.code, _report(outcome))

    return Op(
        name,
        lambda: _run_cli(argv),
        check,
        _cli_region,
        defect if known_defect else None,
    )


def expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# covers


def check_covers_obstruction(payload: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "admissible_degrees", payload["admissible_degrees"], [1])
    degrees = payload["degrees"]
    expect(problems, "degrees", sorted(degrees, key=int),
           [str(d) for d in range(1, OBSTRUCTION_MAX_DEGREE + 1)])
    for d, count in CLASS_COUNTS.items():
        expect(problems, f"degree {d} classes", degrees[str(d)].get("classes"), count)
    for d, entry in degrees.items():
        if d != "1":
            expect(problems, f"degree {d} simultaneously compatible",
                   entry.get("simultaneously_compatible"), 0)
    return problems


def hall_subgroup_counts(limit: int) -> dict[int, int]:
    """Index-d subgroups of the free group of rank 2 (M. Hall, 1949)."""
    counts: dict[int, int] = {}
    for d in range(1, limit + 1):
        counts[d] = d * math.factorial(d) - sum(
            math.factorial(d - i) * counts[i] for i in range(1, d)
        )
    return counts


def cover_census() -> dict:
    """Class counts, labelled-pair counts via centralizers, full-cycle families."""
    classes, labelled, compatible = {}, {}, 0
    for d in CENSUS_DEGREES:
        classes[d] = labelled[d] = 0
        for rep in covers.iter_connected_coverings(d):
            classes[d] += 1
            centralizer = len(lifting.deck_search(rep.as_system()))
            labelled[d] += math.factorial(d) // centralizer
            compatible += covers.cyclic_quotient_compatible(
                rep, "a", 2
            ) and covers.cyclic_quotient_compatible(rep, "b", 3)
    full_cycle = {}
    for d in CENSUS_FULL_CYCLE:
        petal, _ = FULL_CYCLE_COUNTS[d]
        other, base = ("b", 3) if petal == "a" else ("a", 2)
        full_cycle[d] = 0
        for rep in covers.full_cycle_coverings(d, petal):
            full_cycle[d] += 1
            compatible += covers.cyclic_quotient_compatible(rep, other, base)
    return {
        "classes": classes,
        "labelled_pairs": labelled,
        "full_cycle": full_cycle,
        "simultaneously_compatible": compatible,
    }


def check_census(result: dict) -> list[str]:
    problems: list[str] = []
    hall = hall_subgroup_counts(max(CENSUS_DEGREES))
    for d in CENSUS_DEGREES:
        expect(problems, f"degree {d} classes", result["classes"][d], CLASS_COUNTS[d])
        # each class contributes d!/|centralizer| labelled transitive pairs
        expect(problems, f"degree {d} Hall identity", result["labelled_pairs"][d],
               hall[d] * math.factorial(d - 1))
    for d in CENSUS_FULL_CYCLE:
        expect(problems, f"degree {d} full-cycle classes", result["full_cycle"][d],
               FULL_CYCLE_COUNTS[d][1])
    expect(problems, "simultaneously compatible", result["simultaneously_compatible"], 0)
    return problems


def _json_region(result) -> str:
    return json.dumps(result, sort_keys=True, default=str)


def covers_ops(seed: int) -> list[Op]:
    return [
        cli_op("covers-obstruction",
               ["--experiment", "covers-obstruction",
                "--max-degree", str(OBSTRUCTION_MAX_DEGREE)],
               check_covers_obstruction),
        Op("cover-census", cover_census, check_census, _json_region),
    ]


# ---------------------------------------------------------------------------
# squaring


def check_hawaiian_suite(payload: dict) -> list[str]:
    problems: list[str] = []
    levels = payload["levels"]
    expect(problems, "levels", [row["level"] for row in levels],
           list(range(1, HAWAIIAN_LEVELS + 1)))
    for row in levels:
        n = row["level"]
        expect(problems, f"level {n} fibre_size", row["fibre_size"], 2**n)
        expect(problems, f"level {n} deck_order", row["deck_order"], 2**n)
        for flag in ("connected", "boundary_surjective", "deck_verified"):
            expect(problems, f"level {n} {flag}", row[flag], True)
    words = payload["kernel_words"]
    expect(problems, "kernel words agreed", words["agreed"], words["sampled"])
    for flag in ("tower_strict", "lift_bond_commutes", "dropping_a_circle_disconnects"):
        expect(problems, flag, payload[flag], True)
    return problems


def squaring_ops(seed: int) -> list[Op]:
    return [
        cli_op("hawaiian-suite",
               ["--experiment", "hawaiian-suite", "--seed", str(seed),
                "--level", str(HAWAIIAN_LEVELS)],
               check_hawaiian_suite),
    ]


# ---------------------------------------------------------------------------
# glue


def _survivor_pairs(payload: dict) -> list[tuple[int, int]]:
    return [(s["binary_offset"], s["ternary_offset"]) for s in payload["survivors"]]


def check_amalgam_deck(payload: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "survivors", _survivor_pairs(payload), [(0, 0)])
    expect(problems, "identity_only", payload["identity_only"], True)
    if payload["binary_precision"] <= 4:
        expect(problems, "centralizer cross-check", payload.get("centralizer_cross_check"), [0])
    return problems


def amalgam_odd_precision_defect(code: int, report: dict) -> bool:
    """At odd precision m the search keeps the spurious pair (2^(m-1), 0).

    The top binary digit of an odd-length string never completes a glue
    codeword, so translating by 2^(m-1) looks invisible at the common ternary
    precision. This is a defect of the program, disclosed rather than hidden.
    """
    m = report["payload"]["binary_precision"]
    return (
        m % 2 == 1
        and code == 1
        and report["verdict"] == "fail"
        and _survivor_pairs(report["payload"]) == [(0, 0), (2 ** (m - 1), 0)]
    )


def check_rigidity(payload: dict) -> list[str]:
    problems: list[str] = []
    samples = payload["samples"]
    expect(problems, "samples", len(samples), 200)
    expect(problems, "all_diverge", payload["all_diverge"], True)
    for i, row in enumerate(samples):
        for flag in ("valuations_march", "distances_constant", "diverges"):
            expect(problems, f"sample {i} {flag}", row[flag], True)
        expect(problems, f"sample {i} valuations", len(row["binary_valuations"]), 60)
    return problems


def ternary_strings(max_length: int) -> list[str]:
    return [
        "".join(digits)
        for length in range(1, max_length + 1)
        for digits in itertools.product("012", repeat=length)
    ]


def glue_round_trips(strings: list[str]) -> dict:
    """decode(encode(s)) for every string, counted and compared with s."""
    glue = profinite.default_glue()
    mismatches = 0
    for s in strings:
        res = profinite.glue_forward(glue, profinite.glue_backward(glue, s))
        if res.digits != s or res.leftover:
            mismatches += 1
    return {"round_trips": len(strings), "mismatches": mismatches}


def check_round_trips(result: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "round trips", result["round_trips"],
           sum(3**n for n in range(1, ROUND_TRIP_MAX_LENGTH + 1)))
    expect(problems, "mismatches", result["mismatches"], 0)
    return problems


def glue_ops(seed: int) -> list[Op]:
    ops = [
        cli_op(f"amalgam-deck-m{m}",
               ["--experiment", "amalgam-deck", "--precision", str(m)],
               check_amalgam_deck, amalgam_odd_precision_defect)
        for m in AMALGAM_PRECISIONS
    ]
    ops.append(cli_op(
        "amalgam-rigidity",
        ["--experiment", "amalgam-rigidity", "--seed", str(seed), "--precision", "256",
         "--words", "200", "--depth", "60"],
        check_rigidity,
    ))
    strings = ternary_strings(ROUND_TRIP_MAX_LENGTH)
    ops.append(Op("glue-round-trips", lambda: glue_round_trips(strings),
                  check_round_trips, _json_region))
    return ops


# ---------------------------------------------------------------------------
# shift

THUE_MORSE_FACTOR_COUNTS = {"1": 2, "2": 4, "3": 6, "4": 10, "5": 12, "6": 16}
MT_DYNAMICS_DEPTH = 5  # depth 6 takes three times as long
TOWER_LEVELS = 10  # level 11 takes twice as long
ROTATION_HORIZON = 10_000  # orbits of horizon/4, horizon/2 and horizon points


def thue_morse(length: int) -> str:
    word = "0"
    while len(word) < length:
        word += word.translate(str.maketrans("01", "10"))
    return word[:length]


def check_mt_dynamics(payload: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "prefix_length", payload["prefix_length"], 2**16)
    expect(problems, "factor_counts", payload["factor_counts"], THUE_MORSE_FACTOR_COUNTS)
    expect(problems, "least period", payload["least_period_up_to_128"], None)
    expect(problems, "witness_depth", payload["witness_depth"], MT_DYNAMICS_DEPTH)
    horizon = payload["witness_horizon"]
    for kind in ("proximal", "separation"):
        witness = payload[kind]
        if witness is None:
            problems.append(f"no {kind} witness")
        elif abs(witness["shift"]) > horizon:
            problems.append(f"{kind} shift {witness['shift']} beyond horizon {horizon}")
    return problems


def check_tower_equicontinuity(payload: dict) -> list[str]:
    problems: list[str] = []
    table = payload["cyclic_tower"]["modulus_table"]
    top = len(table)
    expect(problems, "cyclic levels", top, TOWER_LEVELS)
    for row in table:
        n = row["level"]
        expect(problems, f"level {n} delta", row["delta_level"], n)
        # fibres of Z/2^(n+1) over Z/2^n hold two points: 2^n * 2^2 ordered pairs
        expect(problems, f"level {n} pairs", row["pairs_checked"],
               2**n if n == top else 2 ** (n + 2))
    expect(problems, "random towers", len(payload["random_towers"]), 20)
    for entry in payload["random_towers"]:
        expect(problems, f"tower {entry['tower_seed']} identity modulus",
               entry["identity_modulus"], True)
    expect(problems, "defects rejected",
           [entry["rejected"] for entry in payload["rejected_examples"]], [True, True])
    return problems


def check_rotation_density(payload: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "orbit sizes", payload["orbit_sizes"],
           [ROTATION_HORIZON // 4, ROTATION_HORIZON // 2, ROTATION_HORIZON])
    expect(problems, "strictly_decreasing", payload["strictly_decreasing"], True)
    expect(problems, "control_constant", payload["control_constant"], True)
    return problems


def check_mt_generate(payload: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "length", payload["length"], 2**20)
    if payload["word"] != thue_morse(2**20):
        problems.append("word differs from the Thue-Morse prefix")
    expect(problems, "doubling_agrees", payload["doubling_agrees"], True)
    expect(problems, "popcount_agrees", payload["popcount_agrees"], True)
    return problems


def check_solenoid_lift(payload: dict) -> list[str]:
    problems: list[str] = []
    # a^1000 a^-37 adds 963 in Z/2^14, which acts transitively
    expect(problems, "endpoint", payload["endpoint"], str(963 % 2**14))
    expect(problems, "orbit_count", payload["orbit_count"], 1)
    expect(problems, "component_degrees", payload["component_degrees"],
           [{"size": 2**14, "truncation_flagged": False}])
    expect(problems, "fibre size", len(payload["system"]["fibre"]), 2**14)
    return problems


def check_spiral_orbits(payload: dict) -> list[str]:
    problems: list[str] = []
    expect(problems, "orbit sizes", sorted(payload["orbit_sizes"]), [1, 1, 4001])
    expect(problems, "closure adds", payload["spiral_orbit_closure_adds"], ["bot", "top"])
    expect(problems, "boundary_fixed", payload["boundary_fixed"], True)
    return problems


def shift_ops(seed: int) -> list[Op]:
    return [
        cli_op("mt-dynamics",
               ["--experiment", "mt-dynamics", "--level", "16",
                "--depth", str(MT_DYNAMICS_DEPTH)],
               check_mt_dynamics),
        cli_op("tower-equicontinuity",
               ["--experiment", "tower-equicontinuity", "--seed", str(seed),
                "--level", str(TOWER_LEVELS)],
               check_tower_equicontinuity),
        cli_op("rotation-density",
               ["--experiment", "rotation-density", "--horizon", str(ROTATION_HORIZON)],
               check_rotation_density),
        cli_op("mt-generate", ["--experiment", "mt-generate", "--level", "20"],
               check_mt_generate),
        cli_op("solenoid-lift",
               ["--experiment", "solenoid-lift", "--level", "14", "--word", "a^1000 a^-37"],
               check_solenoid_lift),
        cli_op("spiral-orbits", ["--experiment", "spiral-orbits", "--horizon", "2000"],
               check_spiral_orbits),
    ]


OPS_BY_WORKLOAD = {
    "covers": covers_ops,
    "squaring": squaring_ops,
    "glue": glue_ops,
    "shift": shift_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    return OPS_BY_WORKLOAD[workload](seed)


# ---------------------------------------------------------------------------
# passes


class Runner:
    """Runs passes over a workload's operations and counts failed operations.

    An operation fails if it raises, exits non-zero, misses a check, or
    produces a comparison region that differs from its first pass. A failure
    is expected only when it matches the operation's disclosed defect.
    """

    def __init__(self, ops: list[Op], around_call=contextlib.nullcontext):
        self.ops = ops
        self.around_call = around_call  # entered around each timed call only
        self.regions: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: list[str] = []

    def run_pass(self) -> dict[str, float]:
        """Run every operation once; returns each operation's call time."""
        times = {}
        for op in self.ops:
            self.attempted += 1
            error = None
            with self.around_call():
                started = perf_counter()
                try:
                    outcome = op.call()
                except Exception as err:  # a raising operation is a counted failure
                    error = err
                times[op.name] = perf_counter() - started
            if error is not None:
                self._fail(op, [f"raised {type(error).__name__}: {error}"], expected=False)
            else:
                self._judge(op, outcome)
        return times

    def _judge(self, op: Op, outcome) -> None:
        try:
            problems = op.check(outcome)
            region = op.region(outcome)
            expected = bool(problems) and op.known_defect is not None and op.known_defect(outcome)
        except (KeyError, TypeError, ValueError) as err:
            self._fail(op, [f"unreadable output: {type(err).__name__}: {err}"], expected=False)
            return
        first = self.regions.setdefault(op.name, region)
        if first != region:
            problems.append("comparison region differs from the first pass")
            expected = False
        if problems:
            self._fail(op, problems, expected)

    def _fail(self, op: Op, problems: list[str], expected: bool) -> None:
        self.failed += 1
        self.unexpected += not expected
        tag = "known defect" if expected else "FAILED"
        line = f"{op.name}: {tag}: {'; '.join(problems[:3])}"
        if line not in self.failures and len(self.failures) < 40:
            self.failures.append(line)
