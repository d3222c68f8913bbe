"""Every check of a verdict can fail: at least one program mutant per check.

Each mutant replaces one function of the program (never the check in the
runner) so that the checks its row lists, and no others, no longer hold. Run
through the command line, the experiment must then report the row's verdict,
name exactly those checks in ``failed_checks`` and exit 1. Together the rows
of an experiment fail every check its runner returns.

In spiral-orbits there is no ``len(orbits) == 3`` check: the sorted orbit
sizes [1, 1, 2h+1] already say so. In tower-equicontinuity both modulus
checks read ``delta_level``, which ``equicontinuity_modulus`` sets to the
level or raises, so only a mutant of its table flips them. The
amalgam-rigidity mutants skew the doubling that ``profinite.rigidity_witness``
applies on one side of the glue each. In covers-obstruction the runner
enumerates exhaustively up to ``experiments.EXHAUSTIVE_MAX_DEGREE`` (8) and
takes the full-cycle census above it, first reached at degree 9; a test
below lowers the bound to 1, so that ``--max-degree 4`` runs the census at
degrees 2, 3 and 4 in milliseconds, unmutated and mutated. amalgam-deck runs
at an even precision, 4, where the search finds only the identity and the
centralizer cross-check runs. hawaiian-suite runs to level 5: up to level 4
``deck_group_hn`` checks ``apply_deck`` against the searched group, so only a
translation that first appears at level 5 can break the flip-commute loop
without ending the run as an inconsistent model. Its fibre-size and
deck-order rows mutate the functions that return the closed forms
``range(2**n)`` and, above level 4, the unsearched deck group: unmutated,
both checks hold by construction. Its surjectivity check covers every target
of every level; a test below hides one level-9 target of 512.

A second table breaks a model so that two computations that must agree
on it do not; the run must still end as ``fail`` with exit 1, the failed
check ``model_consistent`` and a report naming the inconsistency.
"""

import itertools
import json
from fractions import Fraction

import pytest

from liftlab import (
    amalgam, cli, covers, experiments, hawaiian, lifting, profinite, symdyn,
)

ARGV = {
    "mt-generate": ["--level", "4"],
    "mt-dynamics": ["--level", "8", "--depth", "1", "--words", "16"],
    "tower-equicontinuity": ["--seed", "1", "--level", "3", "--words", "3"],
    "spiral-orbits": ["--horizon", "4"],
    "rotation-density": ["--horizon", "12"],
    "amalgam-rigidity": ["--seed", "1", "--precision", "16", "--words", "4",
                         "--depth", "6"],
    "hawaiian-suite": ["--seed", "1", "--level", "5", "--circles", "5", "--words", "20"],
    "solenoid-lift": ["--level", "3", "--word", "a^5 a^-2"],
    "amalgam-deck": ["--precision", "4"],
    "covers-obstruction": ["--max-degree", "4"],
}


def _flip_last(word: str) -> str:
    return word[:-1] + ("1" if word[-1] == "0" else "0")


def _skewed_modulus(real, skewed_call):
    """The modulus, with the top row's delta off by one on the chosen calls."""
    calls = itertools.count()

    def mutant(tower):
        table = real(tower)
        if skewed_call(next(calls)):
            table[-1]["delta_level"] -= 1
        return table

    return mutant


def _first_bond_not_equivariant(real):
    """The solenoid tower, with its first bond onto but not equivariant."""

    def mutant(base, top_level):
        tower = real(base, top_level)
        tower.bonds[0] = {0: 0, 1: 1, 2: 1, 3: 0}
        return tower

    return mutant


def _extra_survivor(real):
    """The translation pairs, plus the spurious (2^(m-1), 0) of odd precision."""

    def mutant(model):
        pairs = real(model)
        half = 2 ** (model.binary_precision - 1)
        return pairs + [amalgam.TranslationPair(half, 0, pairs[0].ternary_precision)]

    return mutant


def _middle_point_moved(real):
    """The orbits, with the spiral orbit's middle point moved to a boundary orbit."""

    def mutant(sys):
        orbits = real(sys)
        spiral = max(orbits, key=len)
        min(orbits, key=len).append(spiral.pop(len(spiral) // 2))
        return orbits

    return mutant


# check -> {row: (experiment, module, function, mutant built from the real
# function, verdict the mutant must produce, every check the run then fails,
# in the order the runner declares them)}
MUTANTS = {
    "doubling_agrees": {
        "substitution agrees with doubling": (
            "mt-generate", symdyn, "mt_doubling",
            lambda real: lambda n: _flip_last(real(n)), "fail", ["doubling_agrees"]),
    },
    "popcount_agrees": {
        "doubling agrees with popcount parity": (
            "mt-generate", symdyn, "popcount_parity_prefix",
            lambda real: lambda length: _flip_last(real(length)), "fail",
            ["popcount_agrees"]),
    },
    "aperiodic": {
        "no period up to 128": (
            "mt-dynamics", symdyn, "aperiodicity_check",
            lambda real: lambda word, max_period: 1, "fail", ["aperiodic"]),
    },
    "factors_recur": {
        "every length-8 factor recurs": (
            "mt-dynamics", symdyn, "max_recurrence_gap",
            lambda real: lambda word, length: real(word + "0" * length, length), "fail",
            ["factors_recur"]),
    },
    "proximal_witness": {
        "proximal witness found": (
            "mt-dynamics", symdyn, "proximal_search",
            lambda real: lambda *args: None, "no-witness-at-horizon", ["proximal_witness"]),
    },
    "separation_witness": {
        "separation witness found": (
            "mt-dynamics", symdyn, "non_equicontinuity_witness",
            lambda real: lambda *args: None, "no-witness-at-horizon",
            ["separation_witness"]),
    },
    "cyclic_identity_modulus": {
        "cyclic tower has the identity modulus": (
            "tower-equicontinuity", symdyn, "equicontinuity_modulus",
            lambda real: _skewed_modulus(real, lambda call: call == 0), "fail",
            ["cyclic_identity_modulus"]),
    },
    "random_identity_moduli": {
        "random towers have the identity modulus": (
            "tower-equicontinuity", symdyn, "equicontinuity_modulus",
            lambda real: _skewed_modulus(real, lambda call: call > 0), "fail",
            ["random_identity_moduli"]),
    },
    "defects_rejected": {
        "defective towers are rejected": (
            "tower-equicontinuity", symdyn, "tower_strictness_check",
            lambda real: lambda tower: (), "fail", ["defects_rejected"]),
    },
    "orbit_sizes": {
        "orbit sizes are 1, 1 and 2 * horizon + 1": (
            "spiral-orbits", lifting, "orbit_partition", _middle_point_moved, "fail",
            ["orbit_sizes"]),
    },
    "closure_adds_both_boundaries": {
        "spiral orbit closes up on both boundaries": (
            "spiral-orbits", lifting, "orbit_closure",
            lambda real: lambda sys, orbit: [
                p for p in real(sys, orbit) if p not in ("bot", "top")], "fail",
            ["closure_adds_both_boundaries"]),
    },
    "boundary_fixed": {
        "boundary circle is fixed": (
            "spiral-orbits", lifting, "lift_word",
            lambda real: lambda sys, word, start: sys.fibre[0], "fail", ["boundary_fixed"]),
    },
    "strictly_decreasing": {
        "irrational gaps strictly decrease": (
            "rotation-density", lifting, "rotation_orbit_gaps",
            lambda real: lambda alpha, count: Fraction(1, 3), "fail",
            ["strictly_decreasing"]),
    },
    "control_constant": {
        "rational control gap is constant": (
            "rotation-density", lifting, "rotation_orbit_gaps",
            lambda real: lambda alpha, count: Fraction(1, count), "fail",
            ["control_constant"]),
    },
    "all_diverge": {
        "binary valuations march": (
            "amalgam-rigidity", profinite, "padic_scale",
            lambda real: lambda n, x: real(1 if x.base == 2 else n, x), "fail",
            ["all_diverge"]),
        "ternary distances stay constant": (
            "amalgam-rigidity", profinite, "padic_scale",
            lambda real: lambda n, x: real(n * n if x.base == 3 else n, x), "fail",
            ["all_diverge"]),
    },
    "identity_only": {
        "a single translation pair survives": (
            "amalgam-deck", amalgam, "translation_deck_search", _extra_survivor, "fail",
            ["identity_only", "cross_check_agrees"]),
        "the surviving pair is the identity": (
            "amalgam-deck", amalgam, "translation_deck_search",
            lambda real: lambda model: [
                amalgam.TranslationPair(0, 1, pair.ternary_precision)
                for pair in real(model)], "fail", ["identity_only"]),
    },
    "cross_check_agrees": {
        "the centralizer cross-check agrees": (
            "amalgam-deck", amalgam, "centralizer_deck_search",
            lambda real: lambda model: real(model) + [1], "fail", ["cross_check_agrees"]),
    },
    "connected": {
        "every level graph is connected": (
            "hawaiian-suite", hawaiian, "is_connected",
            lambda real: lambda graph, omit_circle=None: (
                omit_circle is not None and real(graph, omit_circle)), "fail",
            ["connected"]),
    },
    "fibre_sizes": {
        "every level-n fibre has 2^n points": (
            "hawaiian-suite", hawaiian.HnGraph, "vertices",
            lambda real: lambda graph: range(2 ** graph.level + 1), "fail",
            ["fibre_sizes"]),
    },
    "boundary_surjective": {
        "the boundary map is onto": (
            "hawaiian-suite", hawaiian, "connect_fibre_points",
            lambda real: lambda level, source, target: real(level, source, target)[1:],
            "fail", ["boundary_surjective"]),
    },
    "deck_verified": {
        "the deck group has order 2^n": (
            "hawaiian-suite", hawaiian, "deck_group_hn",
            lambda real: lambda level: real(level)[1:], "fail", ["deck_verified"]),
        "deck translations commute with the flips": (
            "hawaiian-suite", hawaiian, "apply_deck",
            lambda real: lambda delta, eps: (
                real(delta, eps) ^ 1 if delta >= 2**4 and eps == 1 else real(delta, eps)),
            "fail", ["deck_verified"]),
    },
    "kernel_words_agree": {
        "every kernel word lifts to a loop": (
            "hawaiian-suite", hawaiian, "kernel_check",
            lambda real: lambda word, level: False, "fail", ["kernel_words_agree"]),
    },
    "tower_strict": {
        "the tower is strict": (
            "hawaiian-suite", lifting, "tower_strictness_check",
            lambda real: lambda tower: ("bond 0: not onto the level-1 fibre",), "fail",
            ["tower_strict"]),
    },
    "lift_bond_commutes": {
        "lifting commutes with the bonds": (
            "hawaiian-suite", lifting, "lift_word",
            lambda real: lambda sys, word, start: real(sys, word, start) ^ 1, "fail",
            ["lift_bond_commutes"]),
    },
    "dropping_a_circle_disconnects": {
        "dropping a circle disconnects": (
            "hawaiian-suite", hawaiian, "is_connected",
            lambda real: lambda graph, omit_circle=None: (
                omit_circle is not None or real(graph)), "fail",
            ["dropping_a_circle_disconnects"]),
    },
    "endpoint_agrees": {
        "the lift ends at start + exponent sum": (
            "solenoid-lift", lifting, "lift_word_flagged",
            lambda real: lambda sys, word, start: (
                (real(sys, word, start)[0] + 1) % len(sys.fibre), False), "fail",
            ["endpoint_agrees"]),
    },
    "transitive": {
        "the loop acts transitively": (
            "solenoid-lift", lifting, "orbit_partition",
            lambda real: lambda sys: [part for orbit in real(sys)
                                      for part in (orbit[:4], orbit[4:])], "fail",
            ["transitive"]),
    },
    "no_truncation_crossed": {
        "no truncation artifact is crossed": (
            "solenoid-lift", lifting, "lift_word_flagged",
            lambda real: lambda sys, word, start: (real(sys, word, start)[0], True), "fail",
            ["no_truncation_crossed"]),
    },
    "only_degree_1_admissible": {
        "only degree 1 is admissible": (
            "covers-obstruction", covers, "factorization_obstruction",
            lambda real: lambda degree: real(degree) or degree == 2, "fail",
            ["only_degree_1_admissible"]),
    },
    "none_simultaneously_compatible": {
        "no exhaustive class is simultaneously compatible": (
            "covers-obstruction", covers, "cyclic_quotient_compatible",
            lambda real: lambda rep, petal, base: True, "fail",
            ["none_simultaneously_compatible"]),
    },
}
ROWS = {row: (check, *spec) for check, rows in MUTANTS.items() for row, spec in rows.items()}

# broken model -> (experiment, [(module, function, mutant built from the real
# function)], words of the inconsistency the report must name)
BROKEN_MODELS = {
    "strictness check admits a non-equivariant bond": (
        "tower-equicontinuity", [
            (symdyn, "tower_strictness_check", lambda real: lambda tower: ()),
            (lifting, "solenoid_tower", _first_bond_not_equivariant)],
        "agreement not preserved"),
    "lift off by one bit": (
        "hawaiian-suite", [
            (hawaiian, "lift_word_hn",
             lambda real: lambda level, word, start: real(level, word, start) ^ 1)],
        "parity and lifting disagree"),
    "deck search misses an element": (
        "hawaiian-suite", [
            (hawaiian, "deck_search",
             lambda real: lambda *args, **kwargs: real(*args, **kwargs)[1:])],
        "exhaustive deck group differs"),
}


def run_cli(capsys, experiment: str) -> tuple[int, dict]:
    code = cli.main(["--experiment", experiment, *ARGV[experiment]])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("experiment", ARGV)
def test_unmutated_run_passes(capsys, experiment):
    code, report = run_cli(capsys, experiment)
    assert (code, report["failed_checks"]) == (0, [])


@pytest.mark.parametrize("row", ROWS)
def test_mutant_fails_the_verdict(monkeypatch, capsys, row):
    _, experiment, module, name, mutant, verdict, failed_checks = ROWS[row]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    code, report = run_cli(capsys, experiment)
    assert (code, report["verdict"], report["failed_checks"]) == (1, verdict, failed_checks)


@pytest.mark.parametrize("experiment", ARGV)
def test_every_check_has_a_mutant(experiment):
    """Each row fails the check it is filed under, and together the rows of an
    experiment fail every check its runner returns, and only those."""
    args = vars(cli.build_parser().parse_args(["--experiment", experiment, *ARGV[experiment]]))
    del args["config"]
    checks, _ = experiments.SPECS[experiment].runner(
        **experiments.ExperimentConfig(**args).echoed)
    rows = [(check, failed_checks) for check, owner, *_, failed_checks in ROWS.values()
            if owner == experiment]
    assert all(check in failed_checks for check, failed_checks in rows)
    assert {name for _, failed_checks in rows for name in failed_checks} == set(checks)


@pytest.mark.parametrize("mutated", [False, True])
def test_full_cycle_conjunct_can_fail(monkeypatch, capsys, mutated):
    """No full-cycle class is simultaneously compatible, or the run fails.

    With the exhaustive bound at 1, degrees 2..4 all take the full-cycle
    census (``test_reports_cli`` checks their modes and counts).
    """
    monkeypatch.setattr(experiments, "EXHAUSTIVE_MAX_DEGREE", 1)
    if mutated:
        monkeypatch.setattr(
            covers, "cyclic_quotient_compatible", lambda rep, petal, base: True)
    code, report = run_cli(capsys, "covers-obstruction")
    assert (code, report["failed_checks"]) == (
        (1, ["none_simultaneously_compatible"]) if mutated else (0, []))


def test_every_surjectivity_target_is_checked(monkeypatch):
    """One unreachable target among the 512 of level 9 fails the run."""
    real = hawaiian.connect_fibre_points
    monkeypatch.setattr(
        hawaiian, "connect_fibre_points",
        lambda level, source, target: (
            () if (level, target) == (9, 511) else real(level, source, target)))
    checks, payload = experiments.run_hawaiian_suite(
        circles=9, level=9, words=1, seed=1)
    row = payload["levels"][8]
    assert [name for name, ok in checks.items() if not ok] == ["boundary_surjective"]
    assert (row["level"], row["boundary_surjective"], row["surjectivity_targets"]) == (
        9, False, 512)


@pytest.mark.parametrize("model", BROKEN_MODELS)
def test_broken_model_fails_with_a_report(monkeypatch, capsys, model):
    experiment, patches, inconsistency = BROKEN_MODELS[model]
    for module, name, mutant in patches:
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    code, report = run_cli(capsys, experiment)
    assert (code, report["verdict"], report["failed_checks"]) == (
        1, "fail", ["model_consistent"])
    assert inconsistency in report["payload"]["inconsistent_model"]
