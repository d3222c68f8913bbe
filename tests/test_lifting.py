"""Monodromy evaluation, orbits, deck search, towers, models."""

import itertools
import json
from bisect import insort
from fractions import Fraction
from random import Random
from time import perf_counter

import pytest

from liftlab.lifting import (
    MAX_WORD_LETTERS,
    MonodromySystem,
    SearchBoundExceeded,
    TowerModel,
    component_degrees,
    deck_search,
    golden_ratio_64bit,
    inverse_word,
    lift_word,
    lift_word_flagged,
    orbit_closure,
    orbit_partition,
    parse_loop_word,
    random_permutation_system,
    rotation_orbit_gaps,
    solenoid_level,
    solenoid_tower,
    spiral_system,
    system_to_json,
    tower_strictness_check,
)


def random_word(rng: Random, petals, max_len: int = 12):
    return tuple(
        (rng.choice(petals), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
    )


def sample_systems(rng: Random):
    yield solenoid_level(2, rng.randint(1, 6))
    yield solenoid_level(3, rng.randint(1, 4))
    yield solenoid_level(5, rng.randint(1, 3))
    yield spiral_system(rng.randint(2, 20))
    yield random_permutation_system(rng.randrange(2**31), rng.randint(2, 40))


class TestWords:
    def test_parsing(self):
        assert parse_loop_word("a^5") == (("a", 1),) * 5
        assert parse_loop_word("a b^-2") == (("a", 1), ("b", -1), ("b", -1))
        assert parse_loop_word("") == ()

    def test_expansion_bounded_before_allocation(self):
        assert len(parse_loop_word("a^1000 a^-37")) == 1037
        assert len(parse_loop_word(f"a^{MAX_WORD_LETTERS - 1} b^-1")) == MAX_WORD_LETTERS
        started = perf_counter()
        for text in ("a^1000000000000", f"a^{MAX_WORD_LETTERS} b^-1"):
            with pytest.raises(ValueError, match="more than"):
                parse_loop_word(text)
        assert perf_counter() - started < 0.1

    def test_empty_exponent_rejected(self):
        for text in ("a^", "a^5 b^"):
            with pytest.raises(ValueError, match="malformed token"):
                parse_loop_word(text)

    def test_inverse(self):
        w = parse_loop_word("a b^-1 a")
        assert inverse_word(w) == (("a", -1), ("b", 1), ("a", -1))


class TestLifting:
    def test_empty_word_fixes_start(self):
        sys = solenoid_level(2, 3)
        assert lift_word(sys, (), 5) == 5

    def test_solenoid_power(self):
        sys = solenoid_level(2, 3)
        assert lift_word(sys, parse_loop_word("a^5"), 0) == 5

    def test_spiral_boundary_fixed(self):
        sys = spiral_system(6)
        assert lift_word(sys, parse_loop_word("a"), "top") == "top"
        assert lift_word(sys, parse_loop_word("a^-3"), "bot") == "bot"

    def test_unknown_petal_and_bad_start(self):
        sys = solenoid_level(2, 2)
        for lift in (lift_word, lift_word_flagged):
            with pytest.raises(ValueError):
                lift(sys, parse_loop_word("b"), 0)
            with pytest.raises(ValueError):
                lift(sys, parse_loop_word("a"), 99)

    def test_clamp_flag_reported(self):
        sys = spiral_system(3)
        end, crossed = lift_word_flagged(sys, parse_loop_word("a"), 3)
        assert end == -3 and crossed
        end, crossed = lift_word_flagged(sys, parse_loop_word("a"), 0)
        assert end == 1 and not crossed

    def test_functoriality_seeded(self):
        rng = Random(424242)
        checked = 0
        while checked < 300:
            for sys in sample_systems(rng):
                petals = sys.petals
                w1, w2 = random_word(rng, petals), random_word(rng, petals)
                start = sys.fibre[rng.randrange(len(sys.fibre))]
                assert lift_word(sys, w1 + w2, start) == lift_word(
                    sys, w2, lift_word(sys, w1, start)
                )
                assert lift_word(sys, w1 + inverse_word(w1), start) == start
                checked += 1

    def test_petals_are_the_action_keys(self):
        swap = {0: 1, 1: 0}
        sys = MonodromySystem([0, 1], {"b": swap, "a": swap})
        assert sys.petals == ("b", "a")
        assert lift_word(sys, parse_loop_word("a b^-1 a"), 0) == 1
        with pytest.raises(ValueError, match="at least one petal"):
            MonodromySystem([0, 1], {})


class TestOrbits:
    def test_identity_actions_give_singletons(self):
        sys = MonodromySystem(range(4), {"a": {x: x for x in range(4)}})
        assert orbit_partition(sys) == [[0], [1], [2], [3]]

    def test_solenoid_is_transitive(self):
        assert [len(o) for o in orbit_partition(solenoid_level(2, 5))] == [32]
        assert [len(o) for o in orbit_partition(solenoid_level(3, 2))] == [9]

    def test_spiral_three_orbits(self):
        sys = spiral_system(7)
        sizes = sorted(len(o) for o in orbit_partition(sys))
        assert sizes == [1, 1, 15]

    def test_partition_invariant_under_relabeling(self):
        rng = Random(5)
        sys = random_permutation_system(17, 9)
        relabel = dict(zip(sys.fibre, rng.sample(range(100, 109), 9)))
        conj = MonodromySystem(
            [relabel[p] for p in sys.fibre],
            {
                petal: {relabel[p]: relabel[q] for p, q in act.items()}
                for petal, act in sys.actions.items()
            },
        )
        original = {frozenset(relabel[p] for p in orbit) for orbit in orbit_partition(sys)}
        conjugated = {frozenset(orbit) for orbit in orbit_partition(conj)}
        assert original == conjugated

    def test_cover_degree_flags(self):
        sys = spiral_system(5)
        orbits = orbit_partition(sys)
        degrees = component_degrees(sys, orbits)
        assert [deg["size"] for deg in degrees] == [len(o) for o in orbits]
        for orbit, deg in zip(orbits, degrees):
            # only the traversing orbit crosses the clamped wrap step 5 -> -5
            assert deg["truncation_flagged"] == (len(orbit) == 11)
        assert sorted(deg["size"] for deg in degrees) == [1, 1, 11]
        assert component_degrees(solenoid_level(2, 3), [[0, 1]]) == [
            {"size": 2, "truncation_flagged": False}
        ]

    def test_closure_discrete_metric_is_orbit(self):
        sys = MonodromySystem(
            range(4),
            {"a": {0: 1, 1: 0, 2: 3, 3: 2}},
            metric=lambda p, q: Fraction(0) if p == q else Fraction(1),
        )
        orbit = orbit_partition(sys)[0]
        assert orbit_closure(sys, orbit) == orbit

    def test_closure_spiral_adds_boundaries(self):
        sys = spiral_system(6)
        orbit = max(orbit_partition(sys), key=len)
        closure = orbit_closure(sys, orbit)
        assert set(closure) == set(orbit) | {"bot", "top"}

    def test_closure_solenoid_single_orbit(self):
        sys = solenoid_level(2, 4)
        orbit = orbit_partition(sys)[0]
        assert orbit_closure(sys, orbit) == orbit

    def test_closure_requires_metric(self):
        sys = random_permutation_system(3, 5)
        with pytest.raises(ValueError):
            orbit_closure(sys, orbit_partition(sys)[0])


class TestDeckSearch:
    def test_solenoid_translations(self):
        for n in range(1, 5):
            sys = solenoid_level(2, n)
            decks = deck_search(sys)
            m = 2**n
            assert len(decks) == m
            for h in decks:
                s = h[0]
                assert all(h[x] == (x + s) % m for x in range(m))

    def test_trivial_action_gives_all_bijections(self):
        sys = MonodromySystem(range(3), {"a": {x: x for x in range(3)}})
        assert len(deck_search(sys)) == 6

    def test_bound_exceeded(self):
        sys = MonodromySystem(range(8), {"a": {x: x for x in range(8)}})
        with pytest.raises(SearchBoundExceeded):
            deck_search(sys, max_results=100)

    def test_output_is_a_commuting_group(self):
        rng = Random(12)
        for _ in range(5):
            sys = random_permutation_system(rng.randrange(2**31), rng.randint(3, 12))
            decks = deck_search(sys)
            keys = {tuple(sorted((p, h[p]) for p in sys.fibre)) for h in decks}
            identity = {p: p for p in sys.fibre}
            assert tuple(sorted(identity.items())) in keys
            for h in decks:
                inverse = {v: k for k, v in h.items()}
                assert tuple(sorted(inverse.items())) in keys
                for g in decks:
                    composed = {p: h[g[p]] for p in sys.fibre}
                    assert tuple(sorted(composed.items())) in keys
                for petal in sys.petals:
                    act = sys.actions[petal]
                    assert all(h[act[p]] == act[h[p]] for p in sys.fibre)

    def test_matches_brute_force_centralizer(self):
        def brute_force_centralizer(sys):
            # every fibre bijection, kept if it commutes with every petal
            # action; itertools yields them in the order deck_search sorts
            found = []
            for images in itertools.permutations(sys.fibre):
                h = dict(zip(sys.fibre, images))
                if all(h[act[p]] == act[h[p]]
                       for act in sys.actions.values() for p in sys.fibre):
                    found.append(h)
            return found

        def union(rng, blocks):
            # disjoint union of the given actions of (a, b) on range(k),
            # each moved onto fresh points; the fibre order is shuffled
            fibre = list(range(sum(len(pa) for pa, _ in blocks)))
            rng.shuffle(fibre)
            actions = {"a": {}, "b": {}}
            offset = 0
            for pa, pb in blocks:
                for x in range(len(pa)):
                    actions["a"][offset + x] = offset + pa[x]
                    actions["b"][offset + x] = offset + pb[x]
                offset += len(pa)
            return MonodromySystem(fibre, actions)

        def random_action(rng, k):
            pa, pb = list(range(k)), list(range(k))
            rng.shuffle(pa)
            rng.shuffle(pb)
            return pa, pb

        rng = Random(20260808)
        systems = []
        for _ in range(6):
            # isomorphic orbits: copies of one transitive action
            k = rng.choice((2, 3))
            cycle = [(x + 1) % k for x in range(k)]
            _, pb = random_action(rng, k)
            systems.append(union(rng, [(cycle, pb)] * (6 // k)))
            # orbits of different sizes, hence not isomorphic
            sizes = rng.choice(((1, 2, 3), (2, 4), (1, 5), (1, 1, 4)))
            systems.append(union(rng, [random_action(rng, k) for k in sizes]))
        systems.append(MonodromySystem(range(6), {"a": {x: x for x in range(6)}}))
        assert all(len(orbit_partition(sys)) > 1 for sys in systems)
        for sys in systems:
            assert deck_search(sys) == brute_force_centralizer(sys)


class TestTowers:
    def test_solenoid_tower_strict(self):
        tower = solenoid_tower(2, 8)
        verdict = tower_strictness_check(tower)
        assert verdict.ok and verdict.violations == ()

    def test_dropping_a_point_breaks_surjectivity(self):
        tower = solenoid_tower(2, 2)
        broken = TowerModel(tower.levels, [{x: 0 for x in range(4)}])
        verdict = tower_strictness_check(broken)
        assert not verdict.ok
        assert any("onto" in v for v in verdict.violations)

    def test_non_equivariant_bond_detected(self):
        # four-point counterexample: swap two preimages of one point
        tower = solenoid_tower(2, 2)
        bond = {0: 0, 1: 1, 2: 1, 3: 0}
        verdict = tower_strictness_check(TowerModel(tower.levels, [bond]))
        assert not verdict.ok
        assert any("equivariant" in v for v in verdict.violations)

    def test_lift_projects_through_bonds(self):
        rng = Random(99)
        tower = solenoid_tower(3, 4)
        assert tower_strictness_check(tower).ok
        for _ in range(100):
            n = rng.randint(0, len(tower.levels) - 2)
            upper, lower = tower.levels[n + 1], tower.levels[n]
            bond = tower.bonds[n]
            word = random_word(rng, upper.petals)
            start = upper.fibre[rng.randrange(len(upper.fibre))]
            assert bond[lift_word(upper, word, start)] == lift_word(
                lower, word, bond[start]
            )


class TestRotation:
    def test_two_points(self):
        alpha = Fraction(3, 7)
        assert rotation_orbit_gaps(alpha, 2) == max(alpha, 1 - alpha)

    def test_rational_control_stalls(self):
        for n in (3, 10, 50):
            assert rotation_orbit_gaps(Fraction(1, 3), n) == Fraction(1, 3)

    def test_golden_gap_shrinks(self):
        alpha = golden_ratio_64bit()
        g250 = rotation_orbit_gaps(alpha, 250)
        g1000 = rotation_orbit_gaps(alpha, 1000)
        assert g1000 < g250
        assert g1000 < Fraction(1, 100)

    @pytest.mark.parametrize(
        "alpha",
        [golden_ratio_64bit(), Fraction(1, 3), Fraction(3, 7), Fraction(-2, 5)],
        ids=["golden", "1/3", "3/7", "-2/5"],
    )
    def test_gaps_match_a_fraction_sort_and_the_three_gap_theorem(self, alpha):
        points = [Fraction(0)]
        for count in range(2, 301):
            insort(points, ((count - 1) * alpha) % 1)
            gaps = [b - a for a, b in zip(points, points[1:])]
            gaps.append(points[0] + 1 - points[-1])
            assert rotation_orbit_gaps(alpha, count) == max(gaps), count
            # Sos (1958): between distinct points at most three gap lengths,
            # and the largest of three is the sum of the other two
            lengths = sorted(set(gaps) - {0})
            assert len(lengths) <= 3, count
            if len(lengths) == 3:
                assert lengths[2] == lengths[0] + lengths[1], count

    def test_golden_approximation_quality(self):
        alpha = golden_ratio_64bit()
        # (2a + 1)^2 is within rounding of 5 at 64 fractional bits
        err = (2 * alpha + 1) ** 2 - 5
        assert abs(err) < Fraction(1, 2**60)


class TestSerialization:
    def test_system_round_trip(self):
        # decode the index arrays here: no reader of these documents ships
        for sys in (solenoid_level(2, 3), spiral_system(4)):
            doc = json.loads(json.dumps(system_to_json(sys), sort_keys=True))
            fibre = doc["fibre"]
            assert doc["kind"] == "monodromy-system"
            assert tuple(fibre) == sys.fibre
            assert {
                petal: {fibre[i]: fibre[j] for i, j in enumerate(row)}
                for petal, row in doc["actions"].items()
            } == sys.actions
            assert {(petal, fibre[i]) for petal, i in doc["clamped"]} == sys.clamped
