"""The squaring tower over a truncated nest of circles.

The base is the union of N shrinking circles through one point, truncated
to finitely many circles. Level n of the tower doubles the first n circles:
its fibre is the sign vectors {+-1}^n, circle j <= n flips coordinate j,
and circles beyond n act trivially. Lifting a loop word therefore only sees
the per-letter parity, which is the boundary map into (Z/2)^n computed by
``parity_boundary``.

Graphs, connectivity, the deck group (coordinatewise sign multiplications)
and the kernel characterizations are all exact finite checks at level n;
every report carries the truncation N.

A sign vector of level n is an int in ``range(2**n)`` with coordinate j at
bit n - j and + stored as 0: flips, deck translations and lifts are XORs,
and ``range(2**n)`` runs ++..+, ++..-, ... in the order of the graph JSON,
the only place sign strings appear. No other module reads the bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifting import LoopWord, MonodromySystem, TowerModel, deck_search

HLetter = tuple[int, int]
HLetterWord = tuple[HLetter, ...]

SignVector = int
ALL_PLUS: SignVector = 0  # + at every coordinate: the base point of every level


def _bit(level: int, circle: int) -> int:
    return 1 << (level - circle)


def sign_string(level: int, vector: SignVector) -> str:
    return format(vector, f"0{level}b").replace("0", "+").replace("1", "-")


def all_sign_vectors(n: int) -> range:
    return range(2**n)


def random_sign_vector(rng, level: int) -> SignVector:
    """One seeded sign per coordinate, coordinate 1 first."""
    signs = [rng.choice((1, -1)) for _ in range(level)]
    return sum(_bit(level, j) for j, s in enumerate(signs, 1) if s == -1)


def parity_boundary(word: HLetterWord, level: int) -> SignVector:
    """Per-circle signed letter count mod 2, for circles 1..level."""
    parity = 0
    for index, _exp in word:
        if index <= level:
            parity ^= _bit(level, index)
    return parity


def lift_word_hn(level: int, word: HLetterWord, start: SignVector) -> SignVector:
    """Endpoint of the lift: coordinate j flips once per odd letter count."""
    if not 0 <= start < 2**level:
        raise ValueError(f"start must be a sign vector in range(2**{level})")
    return start ^ parity_boundary(word, level)


def connect_fibre_points(
    level: int, source: SignVector, target: SignVector
) -> HLetterWord:
    """A word lifting source to target: one letter per differing coordinate.

    Constructive proof that the boundary map onto (Z/2)^level is surjective.
    """
    if not (0 <= source < 2**level and 0 <= target < 2**level):
        raise ValueError(f"sign vectors must lie in range(2**{level})")
    return tuple(
        (j, 1) for j in range(1, level + 1) if (source ^ target) & _bit(level, j)
    )


def kernel_check(word: HLetterWord, level: int) -> bool:
    """Zero boundary iff the lift fixes every start; both computed, compared."""
    parity_trivial = parity_boundary(word, level) == 0
    lift_trivial = all(
        lift_word_hn(level, word, start) == start
        for start in all_sign_vectors(level)
    )
    if parity_trivial != lift_trivial:
        raise AssertionError(
            "parity and lifting disagree; the model is inconsistent"
        )
    return parity_trivial


# ---------------------------------------------------------------------------
# level graphs


@dataclass(frozen=True)
class HnGraph:
    """Level-n graph: vertices are sign vectors, doubled circles give
    parallel semicircle edges, untouched circles give loops at every vertex."""

    level: int
    circles: int

    def __post_init__(self) -> None:
        if not 1 <= self.level <= self.circles:
            raise ValueError(
                f"level must satisfy 1 <= n <= circles, got n={self.level} "
                f"N={self.circles}"
            )

    def vertices(self) -> range:
        return all_sign_vectors(self.level)

    def edges(self) -> list[tuple[SignVector, SignVector, int, str]]:
        out = []
        for eps in self.vertices():
            for j in range(1, self.level + 1):
                if not eps & _bit(self.level, j):  # one endpoint per unordered pair
                    other = flip(self.level, eps, j)
                    out.append((eps, other, j, "semicircle-up"))
                    out.append((eps, other, j, "semicircle-down"))
            for j in range(self.level + 1, self.circles + 1):
                out.append((eps, eps, j, "outer-loop"))
        return out


def flip(level: int, vector: SignVector, circle: int) -> SignVector:
    return vector ^ _bit(level, circle)


def is_connected(graph: HnGraph, omit_circle: int | None = None) -> bool:
    """Breadth-first connectivity; optionally drop all edges of one circle."""
    seen = {ALL_PLUS}
    queue = [ALL_PLUS]
    while queue:
        eps = queue.pop()
        for j in range(1, graph.level + 1):
            if j == omit_circle:
                continue
            other = flip(graph.level, eps, j)
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == 2**graph.level


def hn_graph_to_json(graph: HnGraph) -> dict:
    return {
        "kind": "hn-graph",
        "level": graph.level,
        "circles": graph.circles,
        "vertices": [sign_string(graph.level, v) for v in graph.vertices()],
        "edges": [
            [sign_string(graph.level, u), sign_string(graph.level, v), j, kind]
            for u, v, j, kind in graph.edges()
        ],
    }


# ---------------------------------------------------------------------------
# monodromy systems and the tower


def petal_name(circle: int) -> str:
    return f"a{circle}"


def h_word_to_loop_word(word: HLetterWord) -> LoopWord:
    return tuple((petal_name(j), exp) for j, exp in word)


def hn_level(level: int, circles: int) -> MonodromySystem:
    """Level-n monodromy over the N-petal rose: flips below n, trivial above."""
    if not 1 <= level <= circles:
        raise ValueError("need 1 <= level <= circles")
    fibre = all_sign_vectors(level)
    actions = {}
    for j in range(1, circles + 1):
        if j <= level:
            actions[petal_name(j)] = {eps: flip(level, eps, j) for eps in fibre}
        else:
            actions[petal_name(j)] = {eps: eps for eps in fibre}
    return MonodromySystem(fibre, actions)


def hn_tower(circles: int) -> TowerModel:
    """Levels 1..N with bonds forgetting the last coordinate."""
    if circles < 1:
        raise ValueError("need at least one circle")
    levels = [hn_level(n, circles) for n in range(1, circles + 1)]
    bonds = [{eps: eps >> 1 for eps in upper.fibre} for upper in levels[1:]]
    return TowerModel(levels, bonds)


# ---------------------------------------------------------------------------
# deck group


def apply_deck(delta: SignVector, eps: SignVector) -> SignVector:
    return delta ^ eps


def deck_group_hn(level: int) -> list[SignVector]:
    """The deck group at level n: all coordinatewise sign multiplications.

    Up to level 4 the group is found by exhaustive centralizer search over
    the fibre and verified to consist of sign multiplications and to equal
    the closed form; above it the closed form is returned directly. Order
    2^n either way.
    """
    closed_form = list(all_sign_vectors(level))
    if level > 4:
        return closed_form
    sys = hn_level(level, level)
    found = deck_search(sys, max_results=2 ** (level + 1))
    for h in found:
        if any(h[eps] != apply_deck(h[ALL_PLUS], eps) for eps in sys.fibre):
            raise AssertionError("centralizer element is not a sign multiplication")
    if sorted(h[ALL_PLUS] for h in found) != closed_form:
        raise AssertionError("exhaustive deck group differs from the closed form")
    return closed_form


# ---------------------------------------------------------------------------
# seeded kernel words


def random_kernel_word(rng, circles: int) -> HLetterWord:
    """A seeded word in which every letter appears an even number of times.

    At most four distinct letters, each used two or four times.
    """
    chosen = rng.sample(
        range(1, circles + 1), k=rng.randint(1, min(4, circles))
    )
    letters = [
        (j, rng.choice((1, -1)))
        for j in chosen
        for _ in range(2 * rng.randint(1, 2))
    ]
    rng.shuffle(letters)
    return tuple(letters)
