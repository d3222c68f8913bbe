"""Squaring tower levels: parity boundary, lifts, graphs, deck group.

Sign vectors are ints: coordinate j of a level-n vector is bit n - j, and +
is 0, so ``0b01`` at level 2 is ``+-``. ``TestTupleOracle`` checks the int
operations against the +-1-tuple definitions at levels 1..10. Its model does
no bit arithmetic: it decodes an int by its position in ``range(2**n)``,
which runs through the sign tuples in product order.
"""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.hawaiian import (
    ALL_PLUS,
    HnGraph,
    all_sign_vectors,
    apply_deck,
    connect_fibre_points,
    deck_group_hn,
    flip,
    hn_graph_to_json,
    hn_level,
    hn_tower,
    is_connected,
    kernel_check,
    lift_word_hn,
    parity_boundary,
    random_kernel_word,
    random_sign_vector,
    sign_string,
)
from liftlab.lifting import (
    MonodromySystem,
    deck_search,
    lift_word,
    tower_strictness_check,
)

letters = st.tuples(st.integers(1, 6), st.sampled_from((1, -1)))
h_words = st.lists(letters, max_size=20).map(tuple)


class TestParityBoundary:
    def test_examples(self):
        assert parity_boundary((), 3) == 0b000
        assert parity_boundary(((1, 1), (2, 1), (1, 1)), 2) == 0b01
        assert parity_boundary(((1, 1), (1, 1), (2, 1), (2, 1)), 4) == 0b0000

    def test_letters_beyond_level_ignored(self):
        assert parity_boundary(((5, 1),), 2) == 0b00

    @settings(deadline=None, max_examples=120)
    @given(h_words, h_words)
    def test_homomorphism(self, w1, w2):
        level = 6
        combined = parity_boundary(w1 + w2, level)
        left = parity_boundary(w1, level)
        right = parity_boundary(w2, level)
        assert combined == left ^ right


class TestLifts:
    def test_empty_word(self):
        assert lift_word_hn(3, (), 0b010) == 0b010

    def test_single_flip(self):
        assert lift_word_hn(2, ((1, 1),), 0b00) == 0b10

    def test_endpoint_depends_only_on_parity(self):
        rng = Random(31)
        for _ in range(100):
            level = rng.randint(1, 6)
            base = tuple(
                (rng.randint(1, level), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))
            )
            # same parity by construction: append a square of a random word
            extra = tuple(
                (rng.randint(1, level), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 4))
            )
            same_parity = base + extra + extra
            start = random_sign_vector(rng, level)
            assert lift_word_hn(level, base, start) == lift_word_hn(
                level, same_parity, start
            )

    def test_kernel_words_fix_everything(self):
        rng = Random(8)
        for _ in range(200):
            word = random_kernel_word(rng, 8)
            for start in (0b00000, 0b11111, 0b01010):
                assert lift_word_hn(5, word, start) == start

    def test_bad_start(self):
        with pytest.raises(ValueError):
            lift_word_hn(2, (), 0b100)

    def test_closed_form_matches_the_table_model(self):
        """Every word of length <= 4 over circles 1..4, from every start.

        The closed form is the monodromy of the whole nest, so it needs no N:
        a circle far above the level fixes the start, as at every truncation.
        """
        letters = [(j, e) for j in range(1, 5) for e in (1, -1)]
        words = [w for k in range(5) for w in itertools.product(letters, repeat=k)]
        for n in range(1, 5):
            system = hn_level(n, 4)
            for word in words:
                for start in all_sign_vectors(n):
                    assert lift_word_hn(n, word, start) == lift_word(system, word, start)
        word = ((99, 1),)
        assert lift_word_hn(2, word, 0) == 0 == lift_word(hn_level(2, 99), word, 0)

    @pytest.mark.parametrize("circle", [0, -1])
    def test_circles_below_one_are_rejected(self, circle):
        with pytest.raises(ValueError, match="circles are numbered from 1"):
            lift_word_hn(2, ((circle, 1),), 0)
        with pytest.raises(ValueError, match="circles are numbered from 1"):
            kernel_check(((circle, 1), (circle, -1)), 2)
        with pytest.raises(ValueError, match="unknown petal"):
            lift_word(hn_level(2, 4), ((circle, 1),), 0)


class TestConnectivityAndSurjectivity:
    def test_level_one_graph(self):
        graph = HnGraph(1, 1)
        edges = graph.edges()
        assert len(graph.vertices()) == 2
        assert len(edges) == 2
        assert {kind for *_edge, kind in edges} == {"semicircle-up", "semicircle-down"}
        assert is_connected(graph)

    def test_outer_loops_counted(self):
        graph = HnGraph(2, 5)
        loops = [e for e in graph.edges() if e[3] == "outer-loop"]
        assert len(loops) == (5 - 2) * 4

    def test_edge_count_formula(self):
        # n * 2^n semicircles plus (N - n) * 2^n outer loops
        for n, N in ((1, 1), (2, 4), (3, 7)):
            graph = HnGraph(n, N)
            assert len(graph.edges()) == n * 2**n + (N - n) * 2**n

    def test_connected_up_to_12(self):
        for n in (3, 8):
            assert is_connected(HnGraph(n, 12))
        big = HnGraph(12, 16)
        assert len(big.vertices()) == 4096
        assert is_connected(big)

    def test_dropping_any_circle_disconnects(self):
        for j in (1, 2, 3):
            assert not is_connected(HnGraph(3, 3), omit_circle=j)

    def test_connect_fibre_points(self):
        assert connect_fibre_points(2, 0b00, 0b00) == ()
        assert connect_fibre_points(2, 0b00, 0b11) == ((1, 1), (2, 1))
        for n in range(1, 7):
            for source in all_sign_vectors(n):
                for target in all_sign_vectors(n):
                    word = connect_fibre_points(n, source, target)
                    assert lift_word_hn(n, word, source) == target

    def test_graph_json(self):
        doc = hn_graph_to_json(HnGraph(2, 3))
        assert doc["vertices"] == ["++", "+-", "-+", "--"]
        assert ["++", "-+", 1, "semicircle-up"] in doc["edges"]
        assert ["++", "++", 3, "outer-loop"] in doc["edges"]

    def test_sign_strings(self):
        assert sign_string(2, 0b01) == "+-"


class TestKernelCharacterizations:
    def test_commutator_and_single_letter(self):
        commutator = ((1, 1), (2, 1), (1, -1), (2, -1))
        assert kernel_check(commutator, 2)
        assert not kernel_check(((1, 1),), 2)
        assert kernel_check(((99, 1),), 2)  # above the level, at any truncation

    def test_seeded_words_agree(self):
        rng = Random(4096)
        for _ in range(500):
            length = rng.randint(0, 10)
            word = tuple(
                (rng.randint(1, 6), rng.choice((1, -1))) for _ in range(length)
            )
            assert kernel_check(word, 4) == (parity_boundary(word, 4) == 0)

    def test_a_lift_that_disagrees_with_the_parity_fails(self, monkeypatch):
        commutator = ((1, 1), (2, 1), (1, -1), (2, -1))
        real = lift_word_hn
        monkeypatch.setattr("liftlab.hawaiian.lift_word_hn",
                            lambda level, word, start: real(level, word, start) ^ 1)
        assert parity_boundary(commutator, 2) == 0
        assert not kernel_check(commutator, 2)


class TestDeckGroup:
    def test_small_orders(self):
        assert len(deck_group_hn(1)) == 2
        assert len(deck_group_hn(3)) == 8

    def test_exhaustive_matches_closed_form(self):
        # up to level 4 the group is searched exhaustively and checked
        # against the closed form; the centralizer is recomputed here too
        for n in (1, 2, 3, 4):
            closed_form = list(all_sign_vectors(n))
            found = deck_search(hn_level(n, n))
            assert sorted(h[ALL_PLUS] for h in found) == sorted(closed_form)
            assert deck_group_hn(n) == closed_form

    def test_elementary_abelian(self):
        for delta in deck_group_hn(3):
            assert apply_deck(delta, delta) == ALL_PLUS

    def test_free_and_transitive(self):
        for n in (2, 5, 8):
            group = deck_group_hn(n)
            fibre = all_sign_vectors(n)
            for eps in fibre:
                images = [apply_deck(delta, eps) for delta in group]
                assert sorted(images) == sorted(fibre)

    def test_keeps_only_searched_sign_multiplications(self, monkeypatch):
        # a search that misses an element and adds a map that is not a sign
        # multiplication: the group is what remains, short of the closed form
        found = deck_search(hn_level(3, 3))
        swapped = {eps: eps for eps in all_sign_vectors(3)} | {1: 2, 2: 1}
        monkeypatch.setattr("liftlab.hawaiian.deck_search",
                            lambda sys: found[1:] + [swapped])
        assert deck_group_hn(3) == sorted(h[ALL_PLUS] for h in found[1:])
        assert len(deck_group_hn(3)) == 7

    def test_exhaustive_bound(self, monkeypatch):
        # above level 4 no exhaustive search runs; the closed form is returned
        def no_search(*args, **kwargs):
            raise AssertionError("exhaustive search above level 4")

        monkeypatch.setattr("liftlab.hawaiian.deck_search", no_search)
        assert deck_group_hn(6) == list(all_sign_vectors(6))
        with pytest.raises(AssertionError):
            deck_group_hn(4)


class TestTower:
    def test_fibre_sizes(self):
        tower = hn_tower(12)
        assert [len(lv.fibre) for lv in tower.levels] == [2**n for n in range(1, 13)]

    def test_strict(self):
        assert tower_strictness_check(hn_tower(12)) == ()

    def test_lift_bond_commute_sampled(self):
        rng = Random(123)
        tower = hn_tower(8)
        for _ in range(200):
            n = rng.randint(1, 7)
            upper, lower = tower.levels[n], tower.levels[n - 1]
            bond = tower.bonds[n - 1]
            word = tuple(
                (rng.randint(1, 8), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            )
            start = upper.fibre[rng.randrange(len(upper.fibre))]
            assert bond[lift_word(upper, word, start)] == lift_word(
                lower, word, bond[start]
            )

    def test_monodromy_flips_match_direct_lift(self):
        rng = Random(55)
        sys = hn_level(4, 6)
        for _ in range(100):
            word = tuple(
                (rng.randint(1, 6), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))
            )
            start = sys.fibre[rng.randrange(len(sys.fibre))]
            assert lift_word(sys, word, start) == lift_word_hn(4, word, start)


class TestFactorizationCriterion:
    """The squaring tower factors through a model whose petal actions are
    commuting involutions: then every kernel word acts trivially."""

    def test_kernel_words_act_trivially_when_criterion_holds(self):
        rng = Random(77)
        # an elementary abelian action that is not a squaring-tower level
        fibre = all_sign_vectors(2)
        sys = MonodromySystem(
            fibre,
            {
                1: {eps: flip(2, eps, 1) for eps in fibre},
                2: {eps: flip(2, eps, 1) for eps in fibre},
                3: {eps: flip(2, eps, 2) for eps in fibre},
            },
        )
        for _ in range(200):
            word = random_kernel_word(rng, 3)
            for start in fibre:
                assert lift_word(sys, word, start) == start


# ---------------------------------------------------------------------------
# the +-1-tuple model that the int encoding must reproduce

ORACLE_LEVELS = range(1, 11)
# The encoding: level-n vector v is the v-th sign tuple in product order,
# ++..+, ++..-, ... (coordinate j at bit n - j, + stored as 0).
SIGN_TUPLES = {n: list(itertools.product((1, -1), repeat=n)) for n in ORACLE_LEVELS}


def as_tuple(vector, n):
    return SIGN_TUPLES[n][vector]


def tuple_flip(t, circle):
    return tuple(-s if j == circle - 1 else s for j, s in enumerate(t))


def tuple_deck(delta, eps):
    return tuple(d * e for d, e in zip(delta, eps))


def tuple_parity(word, level):
    """The boundary as signs: coordinate j is - iff circle j occurs an odd
    number of times."""
    parity = [1] * level
    for index, _exp in word:
        if index <= level:
            parity[index - 1] = -parity[index - 1]
    return tuple(parity)


def tuple_lift(level, word, start):
    return tuple_deck(tuple_parity(word, level), start)


def tuple_connect(level, source, target):
    return tuple((j + 1, 1) for j in range(level) if source[j] != target[j])


def tuple_edges(level, circles):
    """``HnGraph.edges``: each flip pair from its + end, then the outer loops."""
    out = []
    for t in SIGN_TUPLES[level]:
        for j in range(1, level + 1):
            if t[j - 1] == 1:
                other = tuple_flip(t, j)
                out.append((t, other, j, "semicircle-up"))
                out.append((t, other, j, "semicircle-down"))
        out.extend((t, t, j, "outer-loop") for j in range(level + 1, circles + 1))
    return out


def tuple_sign_string(t):
    return "".join("+" if s == 1 else "-" for s in t)


class TestTupleOracle:
    def test_encoding_runs_in_product_order(self):
        for n in ORACLE_LEVELS:
            assert all_sign_vectors(n) == range(len(SIGN_TUPLES[n]))
            assert as_tuple(ALL_PLUS, n) == (1,) * n

    def test_random_vector_draws_one_sign_per_coordinate(self):
        for n in ORACLE_LEVELS:
            rng, twin = Random(n), Random(n)
            for _ in range(20):
                drawn = random_sign_vector(rng, n)
                assert as_tuple(drawn, n) == tuple(twin.choice((1, -1)) for _ in range(n))
            assert rng.random() == twin.random()  # the same stream consumed

    def test_flip_and_sign_string(self):
        for n in ORACLE_LEVELS:
            for v in all_sign_vectors(n):
                assert sign_string(n, v) == tuple_sign_string(as_tuple(v, n))
                for j in range(1, n + 1):
                    assert as_tuple(flip(n, v, j), n) == tuple_flip(as_tuple(v, n), j)

    def test_deck_and_connecting_words(self):
        rng = Random(1618)
        for n in ORACLE_LEVELS:
            fibre = all_sign_vectors(n)
            if n <= 6:
                pairs = itertools.product(fibre, repeat=2)
            else:
                pairs = [(rng.choice(fibre), rng.choice(fibre)) for _ in range(2000)]
            for u, v in pairs:
                s, t = as_tuple(u, n), as_tuple(v, n)
                assert as_tuple(apply_deck(u, v), n) == tuple_deck(s, t)
                assert connect_fibre_points(n, u, v) == tuple_connect(n, s, t)

    def test_parity_and_lift(self):
        rng = Random(2718)
        for n in ORACLE_LEVELS:
            for _ in range(40):
                word = tuple(
                    (rng.randint(1, n + 2), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 10))
                )
                assert as_tuple(parity_boundary(word, n), n) == tuple_parity(word, n)
                for v in all_sign_vectors(n):
                    lifted = lift_word_hn(n, word, v)
                    assert as_tuple(lifted, n) == tuple_lift(n, word, as_tuple(v, n))

    def test_graph_edges(self):
        for n in ORACLE_LEVELS:
            edges = [
                (as_tuple(u, n), as_tuple(v, n), j, kind)
                for u, v, j, kind in HnGraph(n, n + 2).edges()
            ]
            assert edges == tuple_edges(n, n + 2)

    def test_bonds_forget_the_last_coordinate(self):
        tower = hn_tower(6)
        for n, bond in enumerate(tower.bonds, 1):
            assert set(bond) == set(all_sign_vectors(n + 1))
            for v, image in bond.items():
                assert as_tuple(image, n) == as_tuple(v, n + 1)[:-1]
