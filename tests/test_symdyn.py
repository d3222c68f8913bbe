"""Thue-Morse generators, window dynamics, witness searches, towers."""

import tracemalloc
from collections import Counter
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.hawaiian import hn_tower
from liftlab.lifting import (
    MonodromySystem,
    TowerModel,
    cycle_lengths,
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

    @pytest.mark.parametrize("length", [-1, -300])
    def test_negative_prefix_length_is_rejected(self, length):
        for route in (mt_prefix, popcount_parity_prefix):
            with pytest.raises(ValueError, match=f"prefix length must be >= 0, got {length}"):
                route(length)

    def test_block_parity_and_interleave_match_oracle(self):
        # the parity word is built 256 symbols at a time, so probe either side
        # of block edges, and lengths whose block index has either digit parity
        rng = Random(20260808)
        edges = [0, 1, 255, 256, 257, 511, 512, 513, 4095, 4096, 4097]
        for length in edges + [rng.randint(0, 70_000) for _ in range(20)]:
            assert popcount_parity_prefix(length) == oracle_thue_morse(length), length
        for n in range(17):
            assert mt_substitution(n) == oracle_thue_morse(2**n)

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
        assert (w.symbols[w.radius - 1], w.symbols[w.radius]) == ("0", "0")

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

    # Arabic-Indic and fullwidth zeros and a lone surrogate are foreign too
    @pytest.mark.parametrize("bad", ["2", " ", "\u00e9", "\u0660", "\uff10", "\ud800"])
    @pytest.mark.parametrize("position", [0, 3, 7])
    def test_window_rejects_a_foreign_symbol_anywhere(self, bad, position):
        symbols = "01101001"
        CentralWord(symbols)
        with pytest.raises(ValueError, match="0/1") as raised:
            CentralWord(symbols[:position] + bad + symbols[position + 1 :])
        assert type(raised.value) is ValueError  # the window's error, never a codec's

    def test_window_rejects_a_wrong_length(self):
        for symbols in ("0", "011", "012", "01100"):
            with pytest.raises(ValueError, match="even number of symbols"):
                CentralWord(symbols)
        assert [CentralWord(s).radius for s in ("", "01", "0110")] == [0, 1, 2]

    def test_negative_radius_is_rejected(self):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            omega0(-1)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            omega0_windows(-1, 2)
        with pytest.raises(WindowError, match="to radius -1"):
            truncate_window(omega0(2), -1)

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_window_count_is_rejected(self, count):
        # -1 used to return [], and -5 to blame a radius the caller never passed
        with pytest.raises(ValueError, match=f"window count must be >= 0, got {count}"):
            omega0_windows(2, count)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 24), st.data())
    def test_sub_windows_are_checked_windows(self, radius, data):
        """shift, truncate_window and omega0_windows skip the 0/1 re-check.

        What they return must still be the window that the checking
        constructor builds from the same slice: same symbols, radius, hash.
        """
        x = CentralWord(data.draw(st.text("01", min_size=2 * radius, max_size=2 * radius)))
        t = data.draw(st.integers(1 - radius, radius - 1))
        m = radius - abs(t)
        r = data.draw(st.integers(0, radius))
        count = data.draw(st.integers(0, 8))
        pairs = [
            (shift(x, t), x.symbols[radius + t - m : radius + t + m]),
            (truncate_window(x, r), x.symbols[radius - r : radius + r]),
        ]
        source = omega0(r + count).symbols
        pairs += zip(omega0_windows(r, count), (source[c + count : c + count + 2 * r]
                                                for c in range(count)))
        for window, symbols in pairs:
            checked = CentralWord(symbols)
            assert window == checked and hash(window) == hash(checked)
            assert vars(window) == vars(checked)  # symbols and radius, nothing else
        assert len(pairs) == 2 + count

    def test_metric_examples(self):
        # exponents v of 2^-v; full agreement certifies only d(x, x) <= 2^-8
        x = omega0(8)
        assert word_metric(x, x) == 8
        assert word_metric(omega0(0), omega0(0)) == 0
        flipped_center = CentralWord(
            x.symbols[:8] + ("1" if x.symbols[8] == "0" else "0") + x.symbols[9:]
        )
        assert word_metric(x, flipped_center) == 0
        flipped_three = CentralWord(
            x.symbols[:11] + ("1" if x.symbols[11] == "0" else "0") + x.symbols[12:]
        )
        assert word_metric(x, flipped_three) == 3

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
            return CentralWord("".join(bits))

        x, y, z = window(), window(), window()
        assert word_metric(x, y) == word_metric(y, x)
        # d(x,z) <= max(d(x,y), d(y,z)) on exponents: v(x,z) >= min(v(x,y), v(y,z))
        assert word_metric(x, z) >= min(word_metric(x, y), word_metric(y, z))
        # the radius is reached exactly when the windows agree
        assert (word_metric(x, y) == radius) == (x == y)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 24), st.data())
    def test_metric_matches_ring_by_ring_reference(self, radius, data):
        """word_metric equals the innermost ring that holds a disagreement.

        Ring v holds indices v and -v-1; equal windows reach the radius.
        """
        bits = data.draw(st.text("01", min_size=2 * radius, max_size=2 * radius))
        flips = data.draw(st.sets(st.integers(-radius, radius - 1))) if radius else set()
        other = "".join(
            ("1" if b == "0" else "0") if i - radius in flips else b
            for i, b in enumerate(bits)
        )
        x, y = CentralWord(bits), CentralWord(other)

        def ring_by_ring(x, y):
            def symbol(w, i):
                return w.symbols[i + w.radius]

            for v in range(x.radius):
                ring = (v, -v - 1)
                if [symbol(x, i) for i in ring] != [symbol(y, i) for i in ring]:
                    return v
            return x.radius

        rings = {i if i >= 0 else -i - 1 for i in flips}
        assert word_metric(x, y) == ring_by_ring(x, y) == min(rings, default=radius)
        assert word_metric(y, x) == word_metric(x, y)
        assert word_metric(x, x) == ring_by_ring(x, x) == radius


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

    @pytest.mark.parametrize("max_period", [0, -1])
    def test_no_period_scan_below_one(self, max_period):
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            aperiodicity_check("0101", max_period)

    @pytest.mark.parametrize("length", [5, 0, -1])
    def test_recurrence_rejects_a_factor_length_outside_the_word(self, length):
        with pytest.raises(ValueError, match=rf"factor length {length} outside \[1, 4\]"):
            max_recurrence_gap("0110", length)

    def test_zero_recurs_quickly(self):
        gap, _factor = max_recurrence_gap(mt_prefix(64), 1)
        assert gap <= 3

    def test_whole_word_occurs_once(self):
        w = mt_prefix(64)
        assert max_recurrence_gap(w, len(w)) == (None, w)

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
        # d <= 1/16 on exponents: v >= 4
        assert word_metric(shift(w.x, w.shift_by), shift(w.y, w.shift_by)) >= 4

    def test_proximal_none_for_swapped_constants(self):
        m = 8
        windows = [CentralWord("0" * 2 * m), CentralWord("1" * 2 * m)]
        assert proximal_search(windows, 1, 4) is None

    def test_separation_on_mt_all_depths(self):
        for depth in range(1, 9):
            horizon = 2 ** (depth + 4)
            windows = omega0_windows(horizon + max(depth, 2) + 1, 256)
            w = non_equicontinuity_witness(windows, depth, horizon)
            assert w is not None, f"no separation witness at depth {depth}"
            # d <= 2^-depth and d >= 1/2 on exponents: v >= depth and v <= 1
            assert w.start_distance >= depth
            assert w.end_distance <= 1
            # re-verify the reported shift directly; below the radius is exact
            xs = shift(w.x, w.shift_by)
            d = word_metric(xs, shift(w.y, w.shift_by))
            assert d <= 1 and d < xs.radius

    def test_witness_distances_are_exact_at_every_depth(self):
        # mt-dynamics windows at depths 1..7: no witness distance is a bound
        for depth in range(1, 8):
            horizon = 2 ** (depth + 4)
            windows = omega0_windows(horizon + max(depth, 2) + 1, 192)
            for w in (
                proximal_search(windows, depth, horizon),
                non_equicontinuity_witness(windows, depth, horizon),
            ):
                assert w is not None, f"no witness at depth {depth}"
                radius = w.x.radius
                assert w.start_distance < radius
                assert w.end_distance < radius - abs(w.shift_by)

    def test_separation_none_for_single_window(self):
        windows = [omega0(16)]
        assert non_equicontinuity_witness(windows, 2, 8) is None

    def test_window_length_precondition(self):
        with pytest.raises(WindowError):
            proximal_search(omega0_windows(8, 4), 4, 16)


def strict(tower: TowerModel) -> StrictTower:
    return StrictTower(tower.levels, tower.bonds)


def all_powers_modulus(tower: StrictTower) -> list[dict] | None:
    """Check every power of the step up to its order, on every fibre member.

    The table ``equicontinuity_modulus`` should return, or None where some
    power of the step moves two points of one fibre over different points.
    """
    table = []
    for n in range(1, len(tower.levels) + 1):
        if n == len(tower.levels):
            top = tower.levels[n - 1]
            table.append({
                "level": n, "delta_level": n, "pairs_checked": len(top.fibre),
                "powers_checked": lcm(*cycle_lengths(top.actions["a"])),
            })
            continue
        upper, bond = tower.levels[n], tower.bonds[n - 1]
        step = upper.actions["a"]
        fibres: dict = {}
        for p in upper.fibre:
            fibres.setdefault(bond[p], []).append(p)
        order = lcm(*cycle_lengths(step))
        pairs = 0
        for members in fibres.values():
            # same bond image at every power is an equivalence relation, so
            # comparing with the first member covers every ordered pair
            x, *rest = members
            images = []
            for _ in range(order):
                x = step[x]
                images.append(bond[x])
            for y in rest:
                for image in images:
                    y = step[y]
                    if bond[y] != image:
                        return None
            pairs += len(members) ** 2
        table.append(
            {"level": n, "delta_level": n, "pairs_checked": pairs, "powers_checked": order}
        )
    return table


class CountingDict(dict):
    """A step table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class TestFiniteZSystems:
    """Finite Z-systems are one-petal monodromy systems; the step is the petal."""

    def test_step_must_be_bijection(self):
        with pytest.raises(ValueError):
            MonodromySystem([0, 1, 2], {"a": {0: 1, 1: 1, 2: 0}})

    def test_kernel_examples(self):
        assert lcm(*cycle_lengths({0: 0, 1: 1})) == 1
        assert lcm(*cycle_lengths({x: (x + 1) % 8 for x in range(8)})) == 8

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
            assert cycle_lengths(dict(enumerate(perm))) == sorted(lengths)
            assert lcm(*cycle_lengths(dict(enumerate(perm)))) == expected


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

    def test_one_step_modulus_equals_the_all_powers_check(self):
        # random and cyclic towers, and copies with one bond entry moved after
        # construction; a moved entry may or may not break agreement
        towers = [random_strict_tower(seed) for seed in range(200)]
        towers += [strict(solenoid_tower(2, level)) for level in range(1, 9)]
        rng = Random(3)
        for _ in range(300):
            if rng.random() < 0.5:
                tower = random_strict_tower(rng.randrange(200))
            else:
                tower = strict(solenoid_tower(2, rng.randint(2, 6)))
            i = rng.randrange(len(tower.bonds))
            point = rng.choice(tower.levels[i + 1].fibre)
            tower.bonds[i][point] = rng.choice(tower.levels[i].fibre)
            towers.append(tower)
        outcomes = Counter()
        for tower in towers:
            expected = all_powers_modulus(tower)
            if expected is None:
                with pytest.raises(AssertionError, match="agreement not preserved"):
                    equicontinuity_modulus(tower)
            else:
                assert equicontinuity_modulus(tower) == expected
            outcomes[expected is None] += 1
        assert outcomes[True] > 50 and outcomes[False] > 250

    def test_modulus_work_is_linear_in_the_fibres(self):
        # per row, one step lookup per upper point for the check and one for
        # the order's cycle walk (the top row walks the top level only);
        # checking every power of the step takes |fibre|^2 at the cyclic top
        for tower in [strict(solenoid_tower(2, 8))] + [
            random_strict_tower(seed) for seed in range(5)
        ]:
            for level in tower.levels:
                level.actions["a"] = CountingDict(level.actions["a"])
            equicontinuity_modulus(tower)
            uppers = tower.levels[1:] + tower.levels[-1:]
            lookups = sum(level.actions["a"].lookups for level in tower.levels)
            assert lookups <= 2 * sum(len(upper.fibre) for upper in uppers)

    def test_modulus_reads_the_given_petal(self):
        # the squaring tower with one circle kept as petal a: circle j flips
        # coordinate j, so circle 3 acts trivially on level 2 and with order
        # 2 on level 3; row n checks powers of the step on level n + 1 (the
        # top row on the top level)
        squaring = hn_tower(3)
        for petal, powers in ((1, [2, 2, 2]), (3, [1, 2, 2])):
            levels = [
                MonodromySystem(lv.fibre, {"a": lv.actions[petal]})
                for lv in squaring.levels
            ]
            table = equicontinuity_modulus(StrictTower(levels, squaring.bonds))
            assert [row["powers_checked"] for row in table] == powers
            assert all(row["delta_level"] == row["level"] for row in table)
