"""Monodromy models of lifting dynamics over roses (wedges of circles).

A lifting total space over a rose is represented purely by its monodromy:
a finite fibre and one bijection per petal, keyed by petal label; the rose
is nothing more than those keys. Path lifting is then word evaluation,
path components are orbits of the generated group, and the deck
transformations of a connected system are the fibre bijections commuting
with every petal action. The total space is never materialized.

Orbits and deck transformations walk each petal's forward table only. A
permutation of a finite fibre has its inverse among its powers, so forward
steps reach the whole orbit, and a map commuting with every forward step
commutes with its inverse too.

Word evaluation is left to right: the first letter acts first, matching
path concatenation. Cycle structure and tower strictness are stated here
too, once for every model; this module imports no other ``liftlab`` module.

Infinite fibres are truncated. Truncation artifacts (the wrap transition
closing a cut orbit) are flagged, and every consumer of orbit data carries
the flag through rather than silently pretending the model is complete.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from random import Random


class InconsistentModel(AssertionError):
    """Two computations that must agree on a model do not: the model is broken.

    An experiment that meets one reports ``fail``, not a usage error.
    """


LoopLetter = tuple[Hashable, int]
LoopWord = tuple[LoopLetter, ...]


# A parsed word holds one letter per unit of exponent; the sum is checked first.
MAX_WORD_LETTERS = 100_000


def parse_loop_word(text: str) -> LoopWord:
    """Parse words like "a^5 b^-2 a"; exponents expand into single letters."""
    tokens = []
    for token in text.split():
        label, caret, exp_text = token.partition("^")
        # ASCII digits only: int() alone also takes "1_000" and non-ASCII digits
        if not label or (caret and not re.fullmatch(r"[+-]?[0-9]+", exp_text)):
            raise ValueError(f"malformed token {token!r}")
        tokens.append((label, int(exp_text) if caret else 1))
    if sum(abs(exp) for _, exp in tokens) > MAX_WORD_LETTERS:
        raise ValueError(f"word expands into more than {MAX_WORD_LETTERS} letters")
    letters: list[LoopLetter] = []
    for label, exp in tokens:
        sign = 1 if exp >= 0 else -1
        letters.extend((label, sign) for _ in range(abs(exp)))
    return tuple(letters)


def inverse_word(word: LoopWord) -> LoopWord:
    return tuple((label, -exp) for label, exp in reversed(word))


class MonodromySystem:
    """A finite fibre with one bijection per petal of the base rose.

    The petals are the keys of ``actions``, in insertion order; an action is a
    mapping or an iterable of (point, image) pairs. ``metric``, when present,
    is an exact rational function on fibre pairs. ``clamped`` flags the
    transitions (petal, point) that only close off a truncated infinite orbit.
    ``inverse``, each petal's inverse table, is filled on first use (only
    lifting an inverse letter reads it); nothing else is ever written, and
    two threads that race to fill it build equal tables, so systems are safe
    to share across threads.
    """

    def __init__(self, fibre, actions, metric=None, clamped=frozenset()):
        if not actions:
            raise ValueError("a rose needs at least one petal")
        self.petals = tuple(actions)
        self.fibre = tuple(fibre)
        self.index = {p: i for i, p in enumerate(self.fibre)}
        if len(self.index) != len(self.fibre):
            raise ValueError("fibre labels must be distinct")
        self.actions = {petal: dict(act) for petal, act in actions.items()}
        points = self.index.keys()
        for petal, act in self.actions.items():
            if act.keys() != points or set(act.values()) != points:
                raise ValueError(f"action of petal {petal!r} is not a fibre bijection")
        self.metric = metric
        self.clamped = frozenset(clamped)
        for petal, point in self.clamped:
            if petal not in self.actions or point not in self.index:
                raise ValueError(f"clamp flag ({petal!r}, {point!r}) references nothing")

    @functools.cached_property
    def inverse(self) -> dict:
        return {petal: dict(zip(act.values(), act)) for petal, act in self.actions.items()}

    def __repr__(self) -> str:
        return (
            f"MonodromySystem(petals={list(self.petals)}, "
            f"fibre={len(self.fibre)} points)"
        )


def lift_word_flagged(sys: MonodromySystem, word: LoopWord, start):
    """Unique path lifting as monodromy evaluation, first letter first.

    Returns the endpoint and whether the path crossed a truncation artifact.
    """
    if start not in sys.index:
        raise ValueError(f"start point {start!r} is not in the fibre")
    point = start
    crossed = False
    for label, exp in word:
        if label not in sys.actions:
            raise ValueError(f"unknown petal {label!r}")
        if exp == 1:
            crossed = crossed or (label, point) in sys.clamped
            point = sys.actions[label][point]
        elif exp == -1:
            point = sys.inverse[label][point]
            crossed = crossed or (label, point) in sys.clamped
        else:
            raise ValueError(f"letter exponents are 1 or -1, got {exp!r}")
    return point, crossed


def lift_word(sys: MonodromySystem, word: LoopWord, start):
    """The endpoint of the lift of ``word`` from ``start``."""
    return lift_word_flagged(sys, word, start)[0]


def orbit_partition(sys: MonodromySystem) -> list[list]:
    """Orbits of the group generated by all petal actions.

    For a monodromy model these index the path components of the total
    space. Orbits are returned sorted by least fibre index, each sorted by
    fibre index, so the partition is deterministic.
    """
    steps = list(sys.actions.values())
    seen = set()
    orbits = []
    for p in sys.fibre:
        if p in seen:
            continue
        stack = [p]
        orbit = []
        seen.add(p)
        while stack:
            q = stack.pop()
            orbit.append(q)
            for step in steps:
                nxt = step[q]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        orbits.append(sorted(orbit, key=sys.index.__getitem__))
    return orbits


def cycle_lengths(step: dict) -> list[int]:
    """Sorted cycle lengths of a permutation given as a point table."""
    seen = set()
    lengths = []
    for p in step:
        if p in seen:
            continue
        length = 0
        q = p
        while q not in seen:
            seen.add(q)
            q = step[q]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def component_degrees(sys: MonodromySystem, orbits: list[list]) -> list[dict]:
    """Degree of the covering restricted to each path component.

    ``truncation_flagged`` is true when the orbit crosses a clamp artifact,
    i.e. the genuine model's component is infinite and ``size`` is only the
    truncated one.
    """
    clamped_points = {point for _petal, point in sys.clamped}
    return [
        {"size": len(orbit), "truncation_flagged": not clamped_points.isdisjoint(orbit)}
        for orbit in orbits
    ]


def orbit_closure(sys: MonodromySystem, orbit: list) -> list:
    """Fibre points that the orbit approaches at the model's resolution.

    The orbit itself, plus every outside point whose nearest orbit point
    (in the system metric) is an endpoint of a clamp-flagged transition:
    those are the directions in which the genuine orbit keeps going. A tie
    between flagged and unflagged nearest points counts as approached.
    """
    if sys.metric is None:
        raise ValueError("orbit closure needs a metric on the fibre")
    members = set(orbit)
    flagged_ends = members & {
        end for petal, point in sys.clamped if point in members
        for end in (point, sys.actions[petal][point])
    }
    closure = list(orbit)
    if flagged_ends:
        for p in sys.fibre:
            if p not in members:
                distance = {q: sys.metric(p, q) for q in orbit}
                nearest = min(distance.values())
                if any(distance[q] == nearest for q in flagged_ends):
                    closure.append(p)
    return sorted(closure, key=sys.index.__getitem__)


# ---------------------------------------------------------------------------
# towers of systems over a common base


@dataclass
class TowerModel:
    """Levels over one rose with bonding maps of fibres, top to bottom.

    Construction only checks shapes; ``tower_strictness_check`` lists every
    violation so that defective towers can be built and then diagnosed.
    """

    levels: list[MonodromySystem]
    bonds: list[dict]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a tower needs at least one level")
        petals = self.levels[0].petals
        if any(lv.petals != petals for lv in self.levels):
            raise ValueError("all levels must share the base rose")
        if len(self.bonds) != len(self.levels) - 1:
            raise ValueError(
                f"{len(self.levels)} levels require {len(self.levels) - 1} bonds"
            )


def tower_strictness_check(tower: TowerModel) -> tuple[str, ...]:
    """Each bond that is not onto or not equivariant; empty for a strict tower."""
    violations = []
    for i, bond in enumerate(tower.bonds):
        upper, lower = tower.levels[i + 1], tower.levels[i]
        if set(bond) != set(upper.fibre):
            violations.append(f"bond {i}: not defined on the whole level-{i + 2} fibre")
            continue
        image = set(bond.values())
        if image != set(lower.fibre):
            violations.append(f"bond {i}: not onto the level-{i + 1} fibre")
            if not image <= set(lower.fibre):
                continue
        for petal in upper.petals:
            for p in upper.fibre:
                if bond[upper.actions[petal][p]] != lower.actions[petal][bond[p]]:
                    violations.append(
                        f"bond {i}: not equivariant for petal {petal!r} at {p!r}"
                    )
                    break
    return tuple(violations)


# ---------------------------------------------------------------------------
# deck transformations


def _propagate_equivariant(steps: list[dict], start, target):
    """Extend start -> target equivariantly over its orbit; None on conflict."""
    h = {start: target}
    stack = [start]
    while stack:
        p = stack.pop()
        hp = h[p]
        for step in steps:
            q = step[p]
            image = step[hp]
            if q in h:
                if h[q] != image:
                    return None
            else:
                h[q] = image
                stack.append(q)
    return h


def deck_search(sys: MonodromySystem) -> list[dict]:
    """Deck transformations of a connected system, in fibre order of the image.

    By unique path lifting a deck transformation is fixed by the image y of
    the first point x0, so x0 -> y is propagated for each y in fibre order and
    each map without a conflict is kept. ``ValueError`` if the identity misses
    a point: the system is disconnected, or empty. A map h without a conflict
    commutes with the group G the petals generate, so Stab(x0) <= Stab(h(x0));
    G is transitive, so both have order |G|/|fibre| and are equal, which makes
    h injective. Hence at most |fibre| results, and no bound is needed.
    """
    if not sys.fibre:
        raise ValueError("deck search needs a connected system, not an empty one")
    steps = list(sys.actions.values())
    x0 = sys.fibre[0]
    results = [_propagate_equivariant(steps, x0, x0)]
    if len(results[0]) < len(sys.fibre):
        raise ValueError("deck search needs a connected system")
    for y in sys.fibre[1:]:
        h = _propagate_equivariant(steps, x0, y)
        if h is not None:
            results.append(h)
    return results


# ---------------------------------------------------------------------------
# model builders


def solenoid_level(base: int, level: int) -> MonodromySystem:
    """Level ``level`` of the base-fold self-cover tower of the circle.

    Fibre Z/base^level with the loop acting by +1. There is no fibre
    metric, so ``orbit_closure`` rejects the system; with no clamped
    transitions every orbit would be its own closure anyway.
    """
    m = base**level
    return MonodromySystem(range(m), {"a": {x: (x + 1) % m for x in range(m)}})


def solenoid_tower(base: int, top_level: int) -> TowerModel:
    levels = [solenoid_level(base, n) for n in range(1, top_level + 1)]
    bonds = [
        {x: x % base**n for x in range(base ** (n + 1))}
        for n in range(1, top_level)
    ]
    return TowerModel(levels, bonds)


def spiral_system(truncation: int) -> MonodromySystem:
    """The compactified spiral over the circle, cut at +-truncation.

    Fibre: the integer orbit -K..K plus the two boundary circle points.
    The loop advances the integer part by one and fixes the boundaries; the
    single wrap step K -> -K is a flagged truncation artifact, kept only so
    the action stays a bijection. The metric comes from the embedding
    t -> t / (1 + |t|) with the boundaries at -1 and +1.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    K = truncation
    ints = list(range(-K, K + 1))
    fibre = ints + ["bot", "top"]
    # each point's embedding as (numerator, positive denominator)
    embedding = {t: (t, 1 + abs(t)) for t in ints}
    embedding["bot"], embedding["top"] = (-1, 1), (1, 1)

    def metric(p, q) -> Fraction:
        a, b = embedding[p]
        c, d = embedding[q]
        return Fraction(abs(a * d - c * b), b * d)

    action = {k: k + 1 for k in range(-K, K)}
    action[K] = -K
    action["bot"] = "bot"
    action["top"] = "top"
    return MonodromySystem(
        fibre,
        {"a": action},
        metric=metric,
        clamped=frozenset({("a", K)}),
    )


def random_permutation_system(seed: int, fibre_size: int) -> MonodromySystem:
    rng = Random(seed)
    points = list(range(fibre_size))
    actions = {}
    for petal in ("a", "b"):
        perm = points[:]
        rng.shuffle(perm)
        actions[petal] = dict(zip(points, perm))
    return MonodromySystem(points, actions)


# ---------------------------------------------------------------------------
# irrational rotation orbits


def rotation_orbit_gaps(alpha: Fraction, count: int) -> Fraction:
    """Largest circular gap in {k * alpha mod 1 : k < count}, exactly."""
    if count < 2:
        raise ValueError("need at least two orbit points")
    # with alpha = a/q, k * alpha mod 1 is (k * a mod q) / q: sort integers
    a, q = alpha.numerator, alpha.denominator
    points = sorted(k * a % q for k in range(count))
    inner = max(map(operator.sub, points[1:], points))
    return Fraction(max(inner, points[0] + q - points[-1]), q)


def golden_ratio_64bit() -> Fraction:
    """(sqrt(5) - 1) / 2 rounded down at 64 fractional bits, as an exact rational."""
    num = isqrt(5 << 128)
    return Fraction(num - (1 << 64), 1 << 65)


# ---------------------------------------------------------------------------
# JSON serialization


def system_to_json(sys: MonodromySystem) -> dict:
    """Schema: petals, fibre labels, actions and clamps as fibre indices."""
    return {
        "kind": "monodromy-system",
        "petals": list(sys.petals),
        "fibre": list(sys.fibre),
        "actions": {
            petal: [sys.index[sys.actions[petal][p]] for p in sys.fibre]
            for petal in sys.petals
        },
        "clamped": sorted(
            [petal, sys.index[p]] for petal, p in sys.clamped
        ),
    }
