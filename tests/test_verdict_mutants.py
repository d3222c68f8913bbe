"""Every conjunct of a verdict can fail: one program mutant per conjunct.

Each mutant replaces one function of the program (never the check in the
runner) so that exactly one conjunct of the experiment's verdict no longer
holds. Run through the command line, the experiment must then report
``fail`` (or ``no-witness-at-horizon`` for a missing witness) and exit 1.
A verdict that ignored the conjunct would still pass under its mutant.

Covered so far: mt-generate, mt-dynamics, tower-equicontinuity,
spiral-orbits and rotation-density. In spiral-orbits the conjunct
``len(orbits) == 3`` has no mutant of its own: the orbit sizes conjunct
implies it. In tower-equicontinuity both modulus conjuncts read
``delta_level``, which ``equicontinuity_modulus`` sets to the level or
raises, so only a mutant of its table flips them.
"""

import itertools
import json
from fractions import Fraction

import pytest

from liftlab import cli, lifting, symdyn

ARGV = {
    "mt-generate": ["--level", "4"],
    "mt-dynamics": ["--level", "8", "--depth", "1", "--words", "16"],
    "tower-equicontinuity": ["--seed", "1", "--level", "3", "--words", "3"],
    "spiral-orbits": ["--horizon", "4"],
    "rotation-density": ["--horizon", "12"],
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


def _middle_point_moved(real):
    """The orbits, with the spiral orbit's middle point moved to a boundary orbit."""

    def mutant(sys):
        orbits = real(sys)
        spiral = max(orbits, key=len)
        min(orbits, key=len).append(spiral.pop(len(spiral) // 2))
        return orbits

    return mutant


# conjunct -> (experiment, module, function, mutant built from the real
# function, verdict the mutant must produce)
MUTANTS = {
    "substitution agrees with doubling": (
        "mt-generate", symdyn, "mt_substitution",
        lambda real: lambda n: _flip_last(real(n)), "fail"),
    "doubling agrees with popcount parity": (
        "mt-generate", symdyn, "popcount_parity_prefix",
        lambda real: lambda length: _flip_last(real(length)), "fail"),
    "no period up to 128": (
        "mt-dynamics", symdyn, "aperiodicity_check",
        lambda real: lambda word, max_period: 1, "fail"),
    "proximal witness found": (
        "mt-dynamics", symdyn, "proximal_search",
        lambda real: lambda *args: None, "no-witness-at-horizon"),
    "separation witness found": (
        "mt-dynamics", symdyn, "non_equicontinuity_witness",
        lambda real: lambda *args: None, "no-witness-at-horizon"),
    "cyclic tower has the identity modulus": (
        "tower-equicontinuity", symdyn, "equicontinuity_modulus",
        lambda real: _skewed_modulus(real, lambda call: call == 0), "fail"),
    "random towers have the identity modulus": (
        "tower-equicontinuity", symdyn, "equicontinuity_modulus",
        lambda real: _skewed_modulus(real, lambda call: call > 0), "fail"),
    "defective towers are rejected": (
        "tower-equicontinuity", symdyn, "tower_strictness_check",
        lambda real: lambda tower: (), "fail"),
    "orbit sizes are 1, 1 and 2 * horizon + 1": (
        "spiral-orbits", lifting, "orbit_partition", _middle_point_moved, "fail"),
    "spiral orbit closes up on both boundaries": (
        "spiral-orbits", lifting, "orbit_closure",
        lambda real: lambda sys, orbit: [
            p for p in real(sys, orbit) if p not in ("bot", "top")], "fail"),
    "boundary circle is fixed": (
        "spiral-orbits", lifting, "lift_word",
        lambda real: lambda sys, word, start: sys.fibre[0], "fail"),
    "irrational gaps strictly decrease": (
        "rotation-density", lifting, "rotation_orbit_gaps",
        lambda real: lambda alpha, count: Fraction(1, 3), "fail"),
    "rational control gap is constant": (
        "rotation-density", lifting, "rotation_orbit_gaps",
        lambda real: lambda alpha, count: Fraction(1, count), "fail"),
}


def run_cli(capsys, experiment: str) -> tuple[int, str]:
    code = cli.main(["--experiment", experiment, *ARGV[experiment]])
    return code, json.loads(capsys.readouterr().out)["verdict"]


@pytest.mark.parametrize("experiment", ARGV)
def test_unmutated_run_passes(capsys, experiment):
    assert run_cli(capsys, experiment)[0] == 0


@pytest.mark.parametrize("conjunct", MUTANTS)
def test_mutant_fails_the_verdict(monkeypatch, capsys, conjunct):
    experiment, module, name, mutant, verdict = MUTANTS[conjunct]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert run_cli(capsys, experiment) == (1, verdict)
