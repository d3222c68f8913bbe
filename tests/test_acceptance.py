"""Acceptance gate: every criterion at its stated tolerance and time budget.

Each test prints one pass/fail line (collected in the terminal summary) and
fails if its wall time exceeds the budget. Expected values marked as
regression pins were produced by the stated independent oracle on its first
run and are asserted verbatim since.
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from random import Random

from criteria import criterion

from liftlab import amalgam, covers, hawaiian, lifting, symdyn
from liftlab.profinite import (
    PrefixCodeHomeo,
    TruncatedPadic,
    default_glue,
    glue_backward,
    glue_forward,
    padic_add,
    padic_distance,
    padic_scale,
    padic_sub,
    rigidity_witness,
)
from liftlab.reports import comparison_region

MT32 = "01101001100101101001011001101001"


def oracle_parity(length: int) -> str:
    bits = [0] * max(length, 1)
    for i in range(1, length):
        bits[i] = bits[i // 2] if i % 2 == 0 else 1 - bits[i // 2]
    return "".join(map(str, bits[:length]))


def test_c01_thue_morse_prefix():
    with criterion(1, "32-symbol prefix", 1.0):
        assert symdyn.mt_substitution(5) == MT32


def test_c02_construction_equivalence():
    with criterion(2, "three construction routes at 4096", 1.0):
        word = symdyn.mt_substitution(12)
        assert len(word) == 4096
        assert word == symdyn.mt_doubling(12)
        assert word == oracle_parity(4096)


def test_c03_aperiodicity():
    with criterion(3, "no period <= 128 in prefix 4096", 1.0):
        assert symdyn.aperiodicity_check(symdyn.mt_prefix(4096), 128) is None


def test_c04_almost_periodicity():
    with criterion(4, "uniform recurrence of length-8 factors", 5.0):
        gap, factor = symdyn.max_recurrence_gap(symdyn.mt_prefix(2**14), 8)
        # regression pin from the first oracle run
        assert gap == 36
        assert factor == "00101101"


def test_c05_non_equicontinuity_witnesses():
    with criterion(5, "separation witnesses for depths 1..8", 30.0):
        for depth in range(1, 9):
            horizon = 2 ** (depth + 4)
            windows = symdyn.omega0_windows(horizon + max(depth, 2) + 1, 256)
            witness = symdyn.non_equicontinuity_witness(windows, depth, horizon)
            assert witness is not None, f"no witness at depth {depth}"
            assert witness.x != witness.y
            assert witness.start_distance.at_most(Fraction(1, 2**depth))
            assert abs(witness.shift_by) <= horizon
            after = symdyn.word_metric(
                symdyn.shift(witness.x, witness.shift_by),
                symdyn.shift(witness.y, witness.shift_by),
            )
            assert after.at_least(Fraction(1, 2))


def test_c06_strict_tower_equicontinuity():
    with criterion(6, "identity modulus on strict towers", 5.0):
        solenoid = lifting.solenoid_tower(2, 8)
        table = symdyn.equicontinuity_modulus(
            symdyn.StrictTower(solenoid.levels, solenoid.bonds)
        )
        assert [row["level"] for row in table] == list(range(1, 9))
        assert all(row["delta_level"] == row["level"] for row in table)
        rng = Random(20260808)
        for _ in range(20):
            tower = symdyn.random_strict_tower(rng.randrange(2**32))
            rows = symdyn.equicontinuity_modulus(tower)
            assert all(row["delta_level"] == row["level"] for row in rows)
        lower, upper = lifting.solenoid_tower(2, 2).levels
        for bad_bond in ({x: 0 for x in range(4)}, {0: 0, 1: 1, 2: 1, 3: 0}):
            try:
                symdyn.StrictTower([lower, upper], [bad_bond])
            except ValueError:
                continue
            raise AssertionError("defective tower was not rejected")


def test_c07_padic_arithmetic_oracle():
    with criterion(7, "10^4 residue cases vs big integers", 5.0):
        rng = Random(28101997)
        for _ in range(10_000):
            base = rng.choice((2, 3, 5))
            k = rng.randint(1, 64)
            modulus = base**k
            a, b = rng.randrange(modulus), rng.randrange(modulus)
            n = rng.randint(-(2**63), 2**63)
            x = TruncatedPadic(base, k, a)
            y = TruncatedPadic(base, k, b)
            assert padic_add(x, y).residue == (a + b) % modulus
            assert padic_sub(x, y).residue == (a - b) % modulus
            assert padic_scale(n, x).residue == (n * a) % modulus
        for _ in range(2_000):
            base = rng.choice((2, 3, 5))
            k = rng.randint(1, 32)
            modulus = base**k
            x, y, z = (
                TruncatedPadic(base, k, rng.randrange(modulus)) for _ in range(3)
            )
            assert padic_distance(x, z).bound <= max(
                padic_distance(x, y).bound, padic_distance(y, z).bound
            )


def test_c08_glue_homeomorphism():
    with criterion(8, "decode-encode identity to length 12", 30.0):
        glue = default_glue()
        assert sum(Fraction(1, 2 ** len(w)) for w in PrefixCodeHomeo.code) == 1
        count = 0
        for length in range(1, 13):
            for digits in itertools.product("012", repeat=length):
                s = "".join(digits)
                res = glue_forward(glue, glue_backward(glue, s))
                assert res.digits == s and res.leftover == ""
                count += 1
        assert count == sum(3**L for L in range(1, 13))


def test_c09_rigidity_witness():
    with criterion(9, "doubling rigidity at precision 64", 30.0):
        rng = Random(23571113)
        for _ in range(50):
            a = TruncatedPadic(2, 64, rng.randrange(1, 2**64))
            report = rigidity_witness(a, 30)
            assert report.valuations_march
            assert len(report.w_distances) == 29
            bounds = {d.bound for d in report.w_distances}
            assert all(d.exact for d in report.w_distances)
            assert bounds == {report.expected_distance}
            assert report.diverges
        pairs = amalgam.translation_deck_search(amalgam.AmalgamModel(6))
        assert [(p.binary_offset, p.ternary_offset) for p in pairs] == [(0, 0)]


def hall_subgroup_counts(limit):
    from math import factorial

    counts = {}
    for d in range(1, limit + 1):
        counts[d] = d * factorial(d) - sum(
            factorial(d - i) * counts[i] for i in range(1, d)
        )
    return counts


def test_c10_factorization_obstruction():
    from math import factorial

    with criterion(10, "cover degrees to bound 12", 300.0):
        assert covers.factorization_obstruction(1)
        for d in range(2, 13):
            assert not covers.factorization_obstruction(d)

        # every cover of degree <= 8, literally, and the enumeration is
        # complete: labeled-pair counts reproduce the subgroup recursion
        subgroup_counts = hall_subgroup_counts(8)
        for d in range(2, 9):
            labeled_pairs = 0
            for rep in covers.iter_connected_coverings(d):
                assert not (
                    covers.cyclic_quotient_compatible(rep, "a", 2)
                    and covers.cyclic_quotient_compatible(rep, "b", 3)
                )
                centralizer = len(lifting.deck_search(rep.as_system()))
                labeled_pairs += factorial(d) // centralizer
            assert labeled_pairs == subgroup_counts[d] * factorial(d - 1)

        # complete families satisfying one side's condition, degrees 2..12
        for d in range(2, 13):
            if covers.is_power(d, 2):
                for rep in covers.full_cycle_coverings(d, "a"):
                    assert not covers.cyclic_quotient_compatible(rep, "b", 3)
            if covers.is_power(d, 3):
                for rep in covers.full_cycle_coverings(d, "b"):
                    assert not covers.cyclic_quotient_compatible(rep, "a", 2)
            if not covers.is_power(d, 2) and not covers.is_power(d, 3):
                # neither side's condition is satisfiable at this degree:
                # even a cover with a full cycle on either petal fails both
                witness = covers.CoveringPermutationRep(
                    d, tuple((x + 1) % d for x in range(d)), tuple(range(d))
                )
                assert not covers.cyclic_quotient_compatible(witness, "a", 2)
                assert not covers.cyclic_quotient_compatible(witness, "b", 3)


def test_c11_hawaiian_suite():
    with criterion(11, "squaring tower levels 1..12", 60.0):
        rng = Random(161803)
        for n in range(1, 13):
            graph = hawaiian.HnGraph(n, 12)
            assert hawaiian.is_connected(graph)
            assert len(graph.vertices()) == 2**n
            targets = (
                hawaiian.all_sign_vectors(n)
                if n <= 8
                else [hawaiian.random_sign_vector(rng, n) for _ in range(200)]
            )
            source = hawaiian.ALL_PLUS
            for target in targets:
                word = hawaiian.connect_fibre_points(n, source, target)
                assert hawaiian.lift_word_hn(n, word, source) == target
            deck = hawaiian.deck_group_hn(n)
            assert len(deck) == 2**n
            if n <= 8:
                fibre = hawaiian.all_sign_vectors(n)
                for eps in fibre:
                    images = {hawaiian.apply_deck(delta, eps) for delta in deck}
                    assert len(images) == 2**n  # free and transitive
        for n in (1, 2, 3, 4):  # searched exhaustively, checked against the closed form
            assert hawaiian.deck_group_hn(n) == list(hawaiian.all_sign_vectors(n))
        for _ in range(1000):
            word = hawaiian.random_kernel_word(rng, 12)
            level = rng.randint(1, 12)
            assert hawaiian.kernel_check(word, level)
            start = hawaiian.random_sign_vector(rng, level)
            assert hawaiian.lift_word_hn(level, word, start) == start
        tower = hawaiian.hn_tower(12)
        assert lifting.tower_strictness_check(tower).ok
        for _ in range(200):
            n = rng.randint(1, 11)
            upper, lower = tower.levels[n], tower.levels[n - 1]
            bond = tower.bonds[n - 1]
            word = tuple(
                (hawaiian.petal_name(rng.randint(1, 12)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))
            )
            start = upper.fibre[rng.randrange(len(upper.fibre))]
            assert bond[lifting.lift_word(upper, word, start)] == lifting.lift_word(
                lower, word, bond[start]
            )


def test_c12_lifting_functoriality():
    with criterion(12, "concatenation and cancellation laws", 5.0):
        rng = Random(31415926)

        def systems():
            yield lifting.solenoid_level(2, rng.randint(1, 6))
            yield lifting.solenoid_level(3, rng.randint(1, 4))
            yield lifting.solenoid_level(5, rng.randint(1, 3))
            yield lifting.spiral_system(rng.randint(2, 16))
            yield hawaiian.hn_level(rng.randint(1, 5), 6)
            yield lifting.random_permutation_system(
                rng.randrange(2**31), rng.randint(2, 32)
            )

        checked = 0
        while checked < 1000:
            for sys_model in systems():
                petals = sys_model.petals
                w1 = tuple(
                    (rng.choice(petals), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 10))
                )
                w2 = tuple(
                    (rng.choice(petals), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 10))
                )
                start = sys_model.fibre[rng.randrange(len(sys_model.fibre))]
                assert lifting.lift_word(sys_model, w1 + w2, start) == (
                    lifting.lift_word(sys_model, w2, lifting.lift_word(sys_model, w1, start))
                )
                assert (
                    lifting.lift_word(sys_model, w1 + lifting.inverse_word(w1), start)
                    == start
                )
                checked += 1


def test_c13_cli_determinism():
    args = [
        sys.executable, "-m", "liftlab",
        "--experiment", "mt-generate", "--level", "6",
    ]
    first = subprocess.run(args, capture_output=True, text=True, timeout=60)
    second = subprocess.run(args, capture_output=True, text=True, timeout=60)
    assert first.returncode == 0 and second.returncode == 0
    with criterion(13, "byte-identical report payloads", 1.0):
        assert comparison_region(first.stdout) == comparison_region(second.stdout)
        without_wall = lambda text: [
            line for line in text.splitlines() if "wall_time_s" not in line
        ]
        assert without_wall(first.stdout) == without_wall(second.stdout)
        payload_a = json.loads(first.stdout)["payload"]
        payload_b = json.loads(second.stdout)["payload"]
        assert json.dumps(payload_a, sort_keys=True) == json.dumps(
            payload_b, sort_keys=True
        )
