"""Monodromy evaluation, orbits, deck search, towers, models."""

import itertools
import json
import operator
from bisect import insort
from fractions import Fraction
from math import gcd
from random import Random
from time import perf_counter

import pytest

from liftlab import lifting
from liftlab.covers import CoveringPermutationRep
from liftlab.lifting import (
    MAX_WORD_LETTERS,
    MonodromySystem,
    TowerModel,
    component_degrees,
    deck_search,
    golden_ratio_64bit,
    inverse_word,
    lift_word,
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
from liftlab.profinite import TruncatedPadic, padic_distance


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
        assert parse_loop_word("a^+2 b^-0") == (("a", 1), ("a", 1))
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
        for text in ("a^", "a^5 b^", "a^b", "a^1_000", "a^\u0663", "a^2^3"):
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

    def test_lift_through_a_clamp(self):
        # the wrap transition closing the truncated orbit is lifted like any
        # other; its flag lives on orbit data (test_cover_degree_flags)
        sys = spiral_system(3)
        assert ("a", 3) in sys.clamped
        assert lift_word(sys, parse_loop_word("a"), 3) == -3
        assert lift_word(sys, parse_loop_word("a"), 0) == 1

    def test_unknown_petal_and_bad_start(self):
        sys = solenoid_level(2, 2)
        with pytest.raises(ValueError):
            lift_word(sys, parse_loop_word("b"), 0)
        with pytest.raises(ValueError):
            lift_word(sys, parse_loop_word("a"), 99)

    @pytest.mark.parametrize("exp", [2, 0, -2])
    def test_exponents_other_than_one_or_minus_one_rejected(self, exp):
        sys = solenoid_level(2, 3)
        with pytest.raises(ValueError, match=f"1 or -1, got {exp}"):
            lift_word(sys, (("a", exp),), 0)

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
        pairs = MonodromySystem([0, 1], {"b": enumerate([1, 0]), "a": [(0, 1), (1, 0)]})
        assert pairs.actions == sys.actions and pairs.inverse == sys.inverse
        with pytest.raises(ValueError, match="not a fibre bijection"):
            MonodromySystem([0, 1], {"a": [(0, 1), (1, 1)]})
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
        # solenoid_level carries no metric; give its fibre the 2-adic one
        level = solenoid_level(2, 4)

        def metric(x, y):
            v = padic_distance(TruncatedPadic(2, 4, x), TruncatedPadic(2, 4, y))
            return Fraction(0) if x == y else Fraction(1, 2**v)

        sys = MonodromySystem(level.fibre, level.actions, metric=metric)
        orbit = orbit_partition(sys)[0]
        assert orbit_closure(sys, orbit) == orbit

    def test_closure_tie_with_a_flagged_end_counts_as_approached(self):
        # orbit 0 -> 1 -> 2 -> 0 on a line; the wrap 2 -> 0 is flagged, so 0
        # and 2 are flagged ends and 1 is not. "tie" sits midway between 1 and
        # 2; "near" is strictly nearest 1.
        position = {0: 0, 1: 10, 2: 20, "tie": 15, "near": 9}
        sys = MonodromySystem(
            position,
            {"a": {0: 1, 1: 2, 2: 0, "tie": "tie", "near": "near"}},
            metric=lambda p, q: Fraction(abs(position[p] - position[q])),
            clamped={("a", 2)},
        )
        assert orbit_closure(sys, [0, 1, 2]) == [0, 1, 2, "tie"]

    def test_closure_measures_each_pair_once(self):
        spiral = spiral_system(6)
        seen = []

        def metric(p, q):
            seen.append((p, q))
            return spiral.metric(p, q)

        sys = MonodromySystem(spiral.fibre, spiral.actions, metric, spiral.clamped)
        orbit = max(orbit_partition(sys), key=len)
        assert orbit_closure(sys, orbit) == orbit_closure(spiral, orbit)
        outside = [p for p in sys.fibre if p not in set(orbit)]
        assert sorted(seen, key=repr) == sorted(
            itertools.product(outside, orbit), key=repr
        )

    def test_spiral_metric_is_the_embedding_distance(self):
        """The metric is |e(p) - e(q)| for e(t) = t / (1 + |t|), e(bot) = -1, e(top) = 1."""

        def embed(p) -> Fraction:
            if p in ("bot", "top"):
                return Fraction(-1 if p == "bot" else 1)
            return Fraction(p, 1 + abs(p))

        for K in range(1, 13):
            sys = spiral_system(K)
            for p, q in itertools.product(sys.fibre, repeat=2):
                assert sys.metric(p, q) == abs(embed(p) - embed(q)), (K, p, q)
        sys = spiral_system(2000)
        rng = Random(2000)
        for _ in range(2000):
            p = rng.choice(sys.fibre)
            q = rng.choice((rng.choice(sys.fibre), "bot", "top"))
            d = sys.metric(p, q)
            assert type(d) is Fraction and d == abs(embed(p) - embed(q)), (p, q)

    def test_closure_requires_metric(self):
        for sys in (random_permutation_system(3, 5), solenoid_level(2, 4)):
            with pytest.raises(ValueError, match="needs a metric"):
                orbit_closure(sys, orbit_partition(sys)[0])


def brute_force_centralizer(sys):
    """Every fibre bijection commuting with every petal action, in the order
    deck_search promises: itertools yields the image tuples in fibre order."""
    found = []
    for images in itertools.permutations(sys.fibre):
        h = dict(zip(sys.fibre, images))
        if all(h[act[p]] == act[h[p]]
               for act in sys.actions.values() for p in sys.fibre):
            found.append(h)
    return found


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

    @pytest.mark.parametrize("points", [0, 3, 8], ids=["empty", "3", "8"])
    def test_trivial_action_is_rejected(self, monkeypatch, points):
        # a trivial action on two or more points is disconnected, and so is an
        # empty fibre: rejected once the identity's propagation, if any, is done
        sys = MonodromySystem(range(points), {"a": {x: x for x in range(points)}})
        propagations = []
        real = lifting._propagate_equivariant
        monkeypatch.setattr(lifting, "_propagate_equivariant",
                            lambda *args: propagations.append(args) or real(*args))
        with pytest.raises(ValueError, match="needs a connected system"):
            deck_search(sys)
        assert [args[1:] for args in propagations] == ([(0, 0)] if points else [])

    def test_output_is_a_commuting_group(self):
        rng = Random(12)
        checked = 0
        while checked < 5:
            sys = random_permutation_system(rng.randrange(2**31), rng.randint(3, 12))
            if len(orbit_partition(sys)) > 1:
                continue
            checked += 1
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
        # a union is rejected; each of its components is connected, and its
        # deck transformations are the whole centralizer
        for sys in systems:
            with pytest.raises(ValueError, match="needs a connected system"):
                deck_search(sys)
            for orbit in orbit_partition(sys):
                part = MonodromySystem(orbit, {
                    petal: {p: act[p] for p in orbit} for petal, act in sys.actions.items()
                })
                assert deck_search(part) == brute_force_centralizer(part)

    def test_transitive_matches_brute_force_centralizer(self):
        # one orbit: the candidates from its first point are the whole centralizer
        rng = Random(31)
        systems = [solenoid_level(2, 2), solenoid_level(3, 1), solenoid_level(6, 1)]
        while len(systems) < 30:
            sys = random_permutation_system(rng.randrange(2**31), rng.randint(1, 6))
            if len(orbit_partition(sys)) == 1:
                fibre = list(sys.fibre)
                rng.shuffle(fibre)
                systems.append(MonodromySystem(fibre, sys.actions))
        for sys in systems:
            assert deck_search(sys) == brute_force_centralizer(sys)

    @pytest.mark.parametrize("sys", [
        solenoid_level(2, 3),  # centralizer of order 8
        solenoid_level(5, 1),  # order 5
        MonodromySystem(range(1), {"a": {0: 0}}),  # one point, order 1
        MonodromySystem(range(3), {"a": {x: x for x in range(3)}}),  # three orbits, 3!
    ], ids=["Z8", "Z5", "point", "trivial-3"])
    def test_bound_is_exact(self, sys):
        # at most |fibre| maps, each a bijection; a regular action attains it,
        # and a disconnected system, whose centralizer can exceed it, is rejected
        if len(orbit_partition(sys)) > 1:
            assert len(brute_force_centralizer(sys)) > len(sys.fibre)
            with pytest.raises(ValueError, match="needs a connected system"):
                deck_search(sys)
            return
        decks = deck_search(sys)
        assert decks == brute_force_centralizer(sys)
        assert len(decks) == len(sys.fibre)
        assert all(sorted(h) == sorted(h.values()) == sorted(sys.fibre) for h in decks)


def two_sided_steps(sys):
    """Every petal's action and its inverse, the inverse built here."""
    return [table for act in sys.actions.values()
            for table in (act, {v: k for k, v in act.items()})]


def reference_orbits(sys):
    """Orbits by a walk over actions and inverses, sorted as orbit_partition sorts."""
    steps = two_sided_steps(sys)
    orbits, seen = [], set()
    for p in sys.fibre:
        if p not in seen:
            orbit, frontier = {p}, [p]
            while frontier:
                q = frontier.pop()
                for nxt in (step[q] for step in steps):
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
            seen |= orbit
            orbits.append(sorted(orbit, key=sys.index.__getitem__))
    return orbits


def reference_decks(sys):
    """deck_search as it was before the forward-only walk: each target of the
    first point propagated over actions and inverses, kept without a conflict."""
    steps = two_sided_steps(sys)
    x0 = sys.fibre[0]
    found = []
    for y in sys.fibre:
        h, stack = {x0: y}, [x0]
        while stack and h is not None:
            p = stack.pop()
            for step in steps:
                q, image = step[p], step[h[p]]
                if q not in h:
                    h[q] = image
                    stack.append(q)
                elif h[q] != image:
                    h = None
                    break
        if h is not None:
            found.append(h)
    return found


def seeded_system(rng: Random) -> MonodromySystem:
    """1-3 petals on 1-12 points; half the time each petal permutes within
    random blocks, so the system is often disconnected."""
    n = rng.randint(1, 12)
    points = list(range(n))
    rng.shuffle(points)
    cuts = []
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
    blocks = [points[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
    actions = {}
    for petal in ("a", "b", "c")[: rng.randint(1, 3)]:
        actions[petal] = {}
        for block in blocks:
            images = block[:]
            rng.shuffle(images)
            actions[petal].update(zip(block, images))
    fibre = list(range(n))
    rng.shuffle(fibre)
    return MonodromySystem(fibre, actions)


class CountingTable(dict):
    """A point table that counts its reads in a shared one-item list."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, key):
        self.reads[0] += 1
        return super().__getitem__(key)


class TestForwardWalks:
    def test_forward_walks_match_two_sided_references(self):
        rng = Random(20261020)
        disconnected = 0
        for _ in range(300):
            sys = seeded_system(rng)
            orbits = orbit_partition(sys)
            assert orbits == reference_orbits(sys)
            if len(orbits) > 1:
                disconnected += 1
                with pytest.raises(ValueError, match="needs a connected system"):
                    deck_search(sys)
            for orbit in orbits:
                part = MonodromySystem(orbit, {
                    petal: {p: act[p] for p in orbit} for petal, act in sys.actions.items()
                })
                # brute force up to 7! maps; past that the two-sided reference
                oracle = brute_force_centralizer if len(orbit) <= 7 else reference_decks
                assert deck_search(part) == oracle(part)
        assert 50 < disconnected < 250

    @pytest.mark.parametrize("sys", [
        solenoid_level(2, 4),
        MonodromySystem(range(6), {"a": {x: (x + 1) % 6 for x in range(6)},
                                   "b": {x: (-x) % 6 for x in range(6)}}),
        MonodromySystem(range(7), {"a": {x: (x + 1) % 7 for x in range(7)},
                                   "b": {x: (2 * x) % 7 for x in range(7)},
                                   "c": {x: x for x in range(7)}}),
    ], ids=["k1-n16", "k2-n6", "k3-n7"])
    def test_identity_propagation_reads_each_forward_table_twice_per_point(
        self, monkeypatch, sys
    ):
        # each point reads every forward table at itself and at its image:
        # 2*k*n reads, where a walk over the inverse tables too reads 4*k*n
        reads = [0]
        for petal, act in sys.actions.items():
            sys.actions[petal] = CountingTable(act, reads)
        sys.inverse = {petal: CountingTable({v: k for k, v in act.items()}, reads)
                       for petal, act in sys.actions.items()}
        per_call = []
        real = lifting._propagate_equivariant

        def counted(*args):
            before = reads[0]
            result = real(*args)
            per_call.append(reads[0] - before)
            return result

        monkeypatch.setattr(lifting, "_propagate_equivariant", counted)
        decks = deck_search(sys)
        assert len(per_call) == len(sys.fibre) and decks[0] == {p: p for p in sys.fibre}
        assert per_call[0] == 2 * len(sys.petals) * len(sys.fibre)


class TestInverseTables:
    def test_inverse_is_built_only_by_an_inverse_letter(self):
        systems = [
            CoveringPermutationRep(3, (1, 2, 0), (0, 2, 1)).as_system(),
            solenoid_level(3, 2),
            random_permutation_system(5, 9),
        ]
        tower = solenoid_tower(2, 4)
        assert tower_strictness_check(tower) == ()
        for sys in [*systems, *tower.levels]:
            if len(orbit_partition(sys)) == 1:
                deck_search(sys)
            lift_word(sys, ((sys.petals[0], 1),) * 3, sys.fibre[0])
            assert "inverse" not in vars(sys)
        for sys in systems:
            lift_word(sys, (("a", -1),), sys.fibre[0])
            assert sys.inverse == {
                p: {v: k for k, v in act.items()} for p, act in sys.actions.items()
            }

    @pytest.mark.parametrize("fibre, actions, clamped, message", [
        ([0, 1, 2], {"a": {0: 1, 1: 1, 2: 0}}, (), "not a fibre bijection"),
        ([0, 1], {"a": {0: 1, 1: 5}}, (), "not a fibre bijection"),
        ([0, 1, 2], {"a": {0: 1, 1: 0}}, (), "not a fibre bijection"),
        ([0, 1], {"a": {0: 1, 1: 0, 2: 2}}, (), "not a fibre bijection"),
        ([0, 1], {"a": {0: 0, 1: 1}, "b": {0: 0}}, (), "petal 'b' is not"),
        ([0, 0], {"a": {0: 1}}, (("z", 9),), "fibre labels must be distinct"),
        ([0, 0], {}, (), "at least one petal"),
        ([0, 1], {"a": {0: 1, 1: 0}}, (("b", 0),), r"clamp flag \('b', 0\)"),
        ([0, 1], {"a": {0: 1, 1: 0}}, (("a", 2),), r"clamp flag \('a', 2\)"),
        ([0, 1], {"a": {0: 0}}, (("b", 0),), "not a fibre bijection"),
    ], ids=["repeated-image", "image-outside", "missing-key", "extra-key",
            "second-petal", "labels-before-actions", "petals-first",
            "clamp-unknown-petal", "clamp-unknown-point", "actions-before-clamps"])
    def test_malformed_input_keeps_its_message_and_check_order(
        self, fibre, actions, clamped, message
    ):
        with pytest.raises(ValueError, match=message):
            MonodromySystem(fibre, actions, clamped=frozenset(clamped))


class TestTowers:
    def test_solenoid_tower_strict(self):
        tower = solenoid_tower(2, 8)
        assert tower_strictness_check(tower) == ()

    def test_dropping_a_point_breaks_surjectivity(self):
        tower = solenoid_tower(2, 2)
        broken = TowerModel(tower.levels, [{x: 0 for x in range(4)}])
        assert any("onto" in v for v in tower_strictness_check(broken))

    def test_non_equivariant_bond_detected(self):
        # four-point counterexample: swap two preimages of one point
        tower = solenoid_tower(2, 2)
        bond = {0: 0, 1: 1, 2: 1, 3: 0}
        violations = tower_strictness_check(TowerModel(tower.levels, [bond]))
        assert any("equivariant" in v for v in violations)

    def test_lift_projects_through_bonds(self):
        rng = Random(99)
        tower = solenoid_tower(3, 4)
        assert tower_strictness_check(tower) == ()
        for _ in range(100):
            n = rng.randint(0, len(tower.levels) - 2)
            upper, lower = tower.levels[n + 1], tower.levels[n]
            bond = tower.bonds[n]
            word = random_word(rng, upper.petals)
            start = upper.fibre[rng.randrange(len(upper.fibre))]
            assert bond[lift_word(upper, word, start)] == lift_word(
                lower, word, bond[start]
            )


def sorted_orbit_gap(alpha: Fraction, count: int) -> Fraction:
    """The largest gap of {k * alpha mod 1 : k < count} by an exact sort.

    With alpha = a/q, k * alpha mod 1 is (k * a mod q) / q, so the sort is
    of integers; this is the reference for the closed-form kernel.
    """
    a, q = alpha.numerator, alpha.denominator
    points = sorted(k * a % q for k in range(count))
    inner = max(map(operator.sub, points[1:], points), default=0)
    return Fraction(max(inner, points[0] + q - points[-1]), q)


def fibonacci_up_to(limit: int) -> list[int]:
    fib = [1, 2]
    while fib[-1] + fib[-2] <= limit:
        fib.append(fib[-1] + fib[-2])
    return fib


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

    @pytest.mark.parametrize("q", range(1, 26))
    def test_every_small_rational_matches_the_sort(self, q):
        # numerators in [-q, 2q] cover negative, integer and above-1 alphas,
        # and counts up to 2q + 2 pass count >= q, where the orbit is full
        for a in range(-q, 2 * q + 1):
            if gcd(a, q) != 1:
                continue
            alpha = Fraction(a, q)
            for count in range(2, 2 * q + 3):
                assert rotation_orbit_gaps(alpha, count) == sorted_orbit_gap(
                    alpha, count), (alpha, count)

    def test_golden_matches_the_sort_across_fibonacci_counts(self):
        # the walk's steps change regime at the Fibonacci numbers
        alpha = golden_ratio_64bit()
        counts = {2_500, 5_000, 10_000, 100_000}
        for f in fibonacci_up_to(100_000):
            counts.update(c for c in (f - 1, f, f + 1) if c >= 2)
        for count in sorted(counts):
            assert rotation_orbit_gaps(alpha, count) == sorted_orbit_gap(
                alpha, count), count

    def test_random_rationals_match_the_sort(self):
        rng = Random(31)
        for _ in range(200):
            q = rng.randrange(2, 10**9)
            alpha = Fraction(rng.randrange(-q, 2 * q), q)
            count = rng.randrange(2, 5_000)
            assert rotation_orbit_gaps(alpha, count) == sorted_orbit_gap(
                alpha, count), (alpha, count)

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
