"""Thue-Morse generators, window dynamics, witness searches, towers."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.hawaiian import hn_tower
from liftlab.lifting import (
    MonodromySystem,
    TowerModel,
    solenoid_level,
    solenoid_tower,
)
from liftlab.symdyn import (
    CentralWord,
    StrictTower,
    WindowError,
    aperiodicity_check,
    equicontinuity_modulus,
    factor_counts,
    kernel_of_action,
    max_recurrence_gap,
    mt_doubling,
    mt_prefix,
    mt_substitution,
    non_equicontinuity_witness,
    omega0,
    omega0_windows,
    popcount_parity_prefix,
    proximal_search,
    random_strict_tower,
    shift,
    truncate_window,
    word_metric,
)


def oracle_thue_morse(length: int) -> str:
    """Independent route: t(2n) = t(n), t(2n+1) = 1 - t(n), t(0) = 0."""
    bits = [0] * max(length, 1)
    for i in range(1, length):
        bits[i] = bits[i // 2] if i % 2 == 0 else 1 - bits[i // 2]
    return "".join(map(str, bits[:length]))


class TestGenerators:
    def test_seed_and_displayed_blocks(self):
        assert mt_substitution(0) == "0"
        assert mt_substitution(3) == "01101001"
        assert mt_substitution(5) == "01101001100101101001011001101001"

    def test_doubling_examples(self):
        assert mt_doubling(1) == "01"
        assert mt_doubling(3) == "01101001"

    def test_three_routes_agree_to_4096(self):
        for n in range(13):
            sub = mt_substitution(n)
            assert sub == mt_doubling(n) == oracle_thue_morse(len(sub))

    def test_prefix_slices(self):
        assert mt_prefix(10) == oracle_thue_morse(10)
        assert mt_prefix(1000) == oracle_thue_morse(1000)

    def test_generators_allocate_no_object_per_symbol(self):
        # a list of one object per symbol costs 8 bytes a symbol; the string
        # itself costs one, so a 2**20 prefix must peak well under 4 MiB
        for build in (lambda: popcount_parity_prefix(2**20), lambda: mt_substitution(20)):
            tracemalloc.start()
            try:
                word = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert word[:4096] == oracle_thue_morse(4096) and len(word) == 2**20
            assert peak < 4 * 2**20


class TestWindows:
    def test_omega0_center(self):
        w = omega0(1)
        assert (w[-1], w[0]) == ("0", "0")

    def test_omega0_right_half_and_mirror(self):
        w = omega0(4)
        assert w.symbols[w.radius :] == "0110"
        t = mt_prefix(4)
        assert w.symbols == t[::-1] + t

    def test_windows_nest(self):
        big, small = omega0(16), omega0(5)
        assert truncate_window(big, 5) == small

    def test_shift_identity_and_example(self):
        w = omega0(8)
        assert shift(w, 0) == w
        shifted = shift(w, 1)
        assert shifted.symbols[shifted.radius :].startswith("1101")

    def test_shift_action_law_same_sign(self):
        w = omega0(32)
        assert shift(shift(w, 3), 2) == shift(w, 5)
        assert shift(shift(w, -4), -1) == shift(w, -5)

    def test_shift_action_law_mixed_sign_on_overlap(self):
        w = omega0(32)
        double = shift(shift(w, 6), -2)
        direct = shift(w, 4)
        assert double == truncate_window(direct, double.radius)

    def test_shift_window_error(self):
        with pytest.raises(WindowError):
            shift(omega0(3), 3)

    @pytest.mark.parametrize("bad", ["2", " ", "\u00e9"])
    @pytest.mark.parametrize("position", [0, 3, 7])
    def test_window_rejects_a_foreign_symbol_anywhere(self, bad, position):
        symbols = "01101001"
        CentralWord(4, symbols)
        with pytest.raises(ValueError, match="0/1"):
            CentralWord(4, symbols[:position] + bad + symbols[position + 1 :])

    def test_window_rejects_a_wrong_length(self):
        for symbols in ("011", "01100", ""):
            with pytest.raises(ValueError, match="needs 4 symbols"):
                CentralWord(2, symbols)

    def test_metric_examples(self):
        x = omega0(8)
        same = word_metric(x, x)
        assert not same.exact and same.bound == Fraction(1, 256)
        flipped_center = CentralWord(
            8, x.symbols[:8] + ("1" if x[0] == "0" else "0") + x.symbols[9:]
        )
        d = word_metric(x, flipped_center)
        assert d.exact and d.bound == 1
        flipped_three = CentralWord(
            8, x.symbols[:11] + ("1" if x[3] == "0" else "0") + x.symbols[12:]
        )
        d3 = word_metric(x, flipped_three)
        assert d3.exact and d3.bound == Fraction(1, 8)

    def test_metric_radius_mismatch(self):
        with pytest.raises(WindowError):
            word_metric(omega0(3), omega0(4))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 24), st.data())
    def test_metric_is_symmetric_ultrametric(self, radius, data):
        def window():
            bits = data.draw(
                st.lists(st.sampled_from("01"), min_size=2 * radius, max_size=2 * radius)
            )
            return CentralWord(radius, "".join(bits))

        x, y, z = window(), window(), window()
        assert word_metric(x, y).bound == word_metric(y, x).bound
        assert word_metric(x, z).bound <= max(
            word_metric(x, y).bound, word_metric(y, z).bound
        )


def oracle_factors(word: str, length: int) -> set[str]:
    """Every length-L contiguous subword, sliced at every position."""
    return {word[i : i + length] for i in range(len(word) - length + 1)}


class TestFactorLanguage:
    def test_tiny_alphabet_counts(self):
        assert factor_counts(mt_prefix(4), range(1, 2)) == {1: 2}
        assert factor_counts(mt_prefix(4096), range(2, 3)) == {2: 4}
        assert factor_counts("0", range(1, 2)) == {1: 1}

    def test_counts_from_enumeration_oracle(self):
        word = mt_prefix(2**16)
        oracle = {
            L: len({word[i : i + L] for i in range(len(word) - L + 1)})
            for L in range(1, 7)
        }
        assert oracle == {1: 2, 2: 4, 3: 6, 4: 10, 5: 12, 6: 16}
        assert factor_counts(word, range(1, 7)) == oracle

    def test_no_cubes_of_letters(self):
        word = mt_prefix(4096)
        assert factor_counts(word, range(3, 4)) == {3: 6}
        assert "000" not in word and "111" not in word

    def test_factor_closure_to_16(self):
        word = mt_prefix(2**14)
        counts = factor_counts(word, range(1, 17))
        for L in range(2, 17):
            level = oracle_factors(word, L)
            below = oracle_factors(word, L - 1)
            derived = {f[:-1] for f in level} | {f[1:] for f in level}
            assert derived == below
            assert (counts[L], counts[L - 1]) == (len(level), len(below))

    def test_length_error(self):
        for lengths in (range(5, 6), range(3, 6), range(0, 2)):
            with pytest.raises(ValueError, match="outside"):
                factor_counts("0101", lengths)

    def test_matches_set_oracle_on_random_words(self):
        # every length range inside [1, n]; a factor that occurs only at the
        # end of the word is counted only through the short tail suffixes
        rng = Random(20260808)
        for n in range(1, 41):
            word = "".join(rng.choice("01") for _ in range(n))
            oracle = {L: len(oracle_factors(word, L)) for L in range(1, n + 1)}
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    lengths = range(lo, hi + 1)
                    assert factor_counts(word, lengths) == {
                        L: oracle[L] for L in lengths
                    }, (word, lengths)

    def test_omega0_window_language_computed_directly(self):
        # language of the doubled sequence is computed, not assumed equal to
        # the one-sided language; at short lengths the two coincide here
        window = omega0(2**12)
        for L in range(1, 7):
            assert oracle_factors(window.symbols, L) == oracle_factors(
                mt_prefix(2**13), L
            )
        assert factor_counts(window.symbols, range(1, 7)) == factor_counts(
            mt_prefix(2**13), range(1, 7)
        )


class TestAperiodicityRecurrence:
    def test_periodic_controls(self):
        assert aperiodicity_check("0101", 2) == 2
        assert aperiodicity_check("0000", 2) == 1

    def test_mt_prefix_has_no_short_period(self):
        assert aperiodicity_check(mt_prefix(4096), 128) is None

    def test_window_too_small(self):
        with pytest.raises(WindowError):
            aperiodicity_check("0101", 3)

    def test_zero_recurs_quickly(self):
        gap, _factor = max_recurrence_gap(mt_prefix(64), 1)
        assert gap <= 3

    def test_whole_word_occurs_once(self):
        w = mt_prefix(64)
        with pytest.raises(ValueError):
            max_recurrence_gap(w, len(w))

    def test_uniform_bound_pinned_from_oracle_run(self):
        # regression values fixed by the first enumeration run
        gap, factor = max_recurrence_gap(mt_prefix(2**14), 8)
        assert gap == 36
        assert factor == "00101101"


class TestWitnessSearches:
    def test_depth_zero_trivial(self):
        windows = omega0_windows(8, 6)
        w = proximal_search(windows, 0, 4)
        assert w is not None and w.x != w.y

    def test_proximal_on_mt(self):
        windows = omega0_windows(64 + 4 + 2, 128)
        w = proximal_search(windows, 4, 64)
        assert w is not None
        assert word_metric(shift(w.x, w.shift_by), shift(w.y, w.shift_by)).at_most(
            Fraction(1, 16)
        )

    def test_proximal_none_for_swapped_constants(self):
        m = 8
        windows = [CentralWord(m, "0" * 2 * m), CentralWord(m, "1" * 2 * m)]
        assert proximal_search(windows, 1, 4) is None

    def test_separation_on_mt_all_depths(self):
        for depth in range(1, 9):
            horizon = 2 ** (depth + 4)
            windows = omega0_windows(horizon + max(depth, 2) + 1, 256)
            w = non_equicontinuity_witness(windows, depth, horizon)
            assert w is not None, f"no separation witness at depth {depth}"
            assert w.start_distance.at_most(Fraction(1, 2**depth))
            assert w.end_distance.at_least(Fraction(1, 2))
            # re-verify the reported shift directly
            d = word_metric(shift(w.x, w.shift_by), shift(w.y, w.shift_by))
            assert d.at_least(Fraction(1, 2))

    def test_separation_none_for_single_window(self):
        windows = [omega0(16)]
        assert non_equicontinuity_witness(windows, 2, 8) is None

    def test_window_length_precondition(self):
        with pytest.raises(WindowError):
            proximal_search(omega0_windows(8, 4), 4, 16)


def strict(tower: TowerModel) -> StrictTower:
    return StrictTower(tower.levels, tower.bonds)


class TestFiniteZSystems:
    """Finite Z-systems are one-petal monodromy systems; the step is the petal."""

    def test_step_must_be_bijection(self):
        with pytest.raises(ValueError):
            MonodromySystem([0, 1, 2], {"a": {0: 1, 1: 1, 2: 0}})

    def test_kernel_examples(self):
        assert kernel_of_action({0: 0, 1: 1}) == 1
        assert kernel_of_action({x: (x + 1) % 8 for x in range(8)}) == 8

    def test_kernel_matches_lcm_oracle(self):
        rng = Random(7)
        for _ in range(25):
            n = rng.randint(2, 10)
            perm = list(range(n))
            rng.shuffle(perm)
            # independent oracle: cycle decomposition by hand
            lengths = []
            seen = set()
            for p in range(n):
                if p in seen:
                    continue
                q, size = p, 0
                while True:
                    seen.add(q)
                    q = perm[q]
                    size += 1
                    if q == p:
                        break
                lengths.append(size)
            expected = 1
            for size in lengths:
                expected = expected * size // gcd(expected, size)
            assert kernel_of_action(dict(enumerate(perm))) == expected


class TestStrictTowers:
    def test_construction_rejects_non_onto_bond(self):
        lower, upper = solenoid_tower(2, 2).levels
        with pytest.raises(ValueError, match="onto"):
            StrictTower([lower, upper], [{x: 0 for x in range(4)}])
        # a bond into points outside the lower fibre is not onto either
        with pytest.raises(ValueError, match="onto"):
            StrictTower([lower, upper], [{x: x + 2 for x in range(4)}])

    def test_construction_rejects_non_equivariant_bond(self):
        lower, upper = solenoid_tower(2, 2).levels
        with pytest.raises(ValueError, match="equivariant"):
            StrictTower([lower, upper], [{0: 0, 1: 1, 2: 1, 3: 0}])

    def test_one_level_tower_modulus(self):
        table = equicontinuity_modulus(StrictTower([solenoid_level(2, 1)], []))
        assert table == [
            {"level": 1, "delta_level": 1, "pairs_checked": 2, "powers_checked": 2}
        ]

    def test_cyclic_tower_identity_modulus(self):
        table = equicontinuity_modulus(strict(solenoid_tower(2, 3)))
        assert [row["level"] for row in table] == [1, 2, 3]
        assert all(row["delta_level"] == row["level"] for row in table)

    def test_random_towers_identity_modulus(self):
        for seed in range(10):
            tower = random_strict_tower(seed)
            table = equicontinuity_modulus(tower)
            assert all(row["delta_level"] == row["level"] for row in table)
            # every ordered pair within a fibre is certified; the top row
            # counts the top level's points
            squares = [
                sum(size**2 for size in Counter(bond.values()).values())
                for bond in tower.bonds
            ]
            assert [row["pairs_checked"] for row in table] == squares + [
                len(tower.levels[-1].fibre)
            ]

    def test_modulus_detects_a_broken_bond_past_the_first_member(self):
        # Z/6 over Z/2 by reduction mod 2: fibres {0, 2, 4} and {1, 3, 5}
        lower = MonodromySystem([0, 1], {"a": {0: 1, 1: 0}})
        upper = MonodromySystem(list(range(6)), {"a": {p: (p + 1) % 6 for p in range(6)}})
        tower = StrictTower([lower, upper], [{p: p % 2 for p in range(6)}])
        assert equicontinuity_modulus(tower)[0]["pairs_checked"] == 18
        # moving 4 into the fibre over 1 puts it after 1 and 3 there, so the
        # mismatch shows on members that are not first in their fibre
        tower.bonds[0][4] = 1
        with pytest.raises(AssertionError, match="agreement not preserved"):
            equicontinuity_modulus(tower)

    def test_modulus_reads_the_given_petal(self):
        # the squaring tower with one circle kept as petal a: a_j flips
        # coordinate j, so a_3 acts trivially on level 2 and with order 2 on
        # level 3; row n checks powers of the step on level n + 1 (the top
        # row on the top level)
        squaring = hn_tower(3)
        for petal, powers in (("a1", [2, 2, 2]), ("a3", [1, 2, 2])):
            levels = [
                MonodromySystem(lv.fibre, {"a": lv.actions[petal]})
                for lv in squaring.levels
            ]
            table = equicontinuity_modulus(StrictTower(levels, squaring.bonds))
            assert [row["powers_checked"] for row in table] == powers
            assert all(row["delta_level"] == row["level"] for row in table)
