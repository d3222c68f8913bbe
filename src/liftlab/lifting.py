"""Monodromy models of lifting dynamics over roses (wedges of circles).

A lifting total space over a rose is represented purely by its monodromy:
a finite fibre and one bijection per petal. Path lifting is then word
evaluation, path components are orbits of the generated group, and deck
transformations are fibre bijections commuting with every petal action.
The total space is never materialized.

Word evaluation is left to right: the first letter acts first, matching
path concatenation.

Infinite fibres are truncated. Truncation artifacts (the wrap transition
closing a cut orbit) are flagged, and every consumer of orbit data carries
the flag through rather than silently pretending the model is complete.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from random import Random

from .profinite import TruncatedPadic, padic_distance


class SearchBoundExceeded(RuntimeError):
    """An exhaustive search would exceed its configured bound."""


@dataclass(frozen=True)
class RoseBase:
    """A wedge of circles, one petal label per circle."""

    petals: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.petals:
            raise ValueError("a rose needs at least one petal")
        if len(set(self.petals)) != len(self.petals):
            raise ValueError("petal labels must be distinct")


LoopLetter = tuple[str, int]
LoopWord = tuple[LoopLetter, ...]


# A parsed word holds one letter per unit of exponent; the sum is checked first.
MAX_WORD_LETTERS = 100_000


def parse_loop_word(text: str) -> LoopWord:
    """Parse words like "a^5 b^-2 a"; exponents expand into single letters."""
    tokens = []
    for token in text.split():
        label, caret, exp_text = token.partition("^")
        if not label or (caret and not exp_text):
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

    ``metric``, when present, must be an exact rational function on fibre
    pairs. ``clamped`` flags transitions (petal, point) that exist only to
    close off a truncated infinite orbit. Systems are never mutated after
    construction, so they are safe to share across threads and searches.
    """

    def __init__(self, base, fibre, actions, metric=None, clamped=frozenset()):
        self.base = base
        self.fibre = tuple(fibre)
        self.index = {p: i for i, p in enumerate(self.fibre)}
        if len(self.index) != len(self.fibre):
            raise ValueError("fibre labels must be distinct")
        if set(actions) != set(base.petals):
            raise ValueError("need exactly one action per petal")
        self.actions = {petal: dict(actions[petal]) for petal in base.petals}
        points = set(self.fibre)
        for petal, act in self.actions.items():
            if act.keys() != points or set(act.values()) != points:
                raise ValueError(f"action of petal {petal!r} is not a fibre bijection")
        self.inverse = {
            petal: dict(zip(act.values(), act)) for petal, act in self.actions.items()
        }
        self.metric = metric
        self.clamped = frozenset(clamped)
        for petal, point in self.clamped:
            if petal not in self.actions or point not in self.index:
                raise ValueError(f"clamp flag ({petal!r}, {point!r}) references nothing")

    def __repr__(self) -> str:
        return (
            f"MonodromySystem(petals={list(self.base.petals)}, "
            f"fibre={len(self.fibre)} points)"
        )

    def act(self, petal: str, point, exponent: int):
        table = self.actions if exponent == 1 else self.inverse
        return table[petal][point]

    def is_clamped_step(self, petal: str, point, exponent: int) -> bool:
        if exponent == 1:
            return (petal, point) in self.clamped
        return (petal, self.inverse[petal][point]) in self.clamped


def lift_word(sys: MonodromySystem, word: LoopWord, start):
    """Unique path lifting as monodromy evaluation, first letter first."""
    if start not in sys.index:
        raise ValueError(f"start point {start!r} is not in the fibre")
    point = start
    for label, exp in word:
        if label not in sys.actions:
            raise ValueError(f"unknown petal {label!r}")
        point = sys.act(label, point, exp)
    return point


def lift_word_flagged(sys: MonodromySystem, word: LoopWord, start):
    """Like ``lift_word`` but reports whether a truncation artifact was crossed."""
    if start not in sys.index:
        raise ValueError(f"start point {start!r} is not in the fibre")
    point = start
    crossed = False
    for label, exp in word:
        if label not in sys.actions:
            raise ValueError(f"unknown petal {label!r}")
        crossed = crossed or sys.is_clamped_step(label, point, exp)
        point = sys.act(label, point, exp)
    return point, crossed


def _step_tables(sys: MonodromySystem) -> list[dict]:
    """Each petal's action and its inverse as point tables, petal by petal."""
    return [table for petal in sys.base.petals
            for table in (sys.actions[petal], sys.inverse[petal])]


def orbit_partition(sys: MonodromySystem) -> list[list]:
    """Orbits of the group generated by all petal actions.

    For a monodromy model these index the path components of the total
    space. Orbits are returned sorted by least fibre index, each sorted by
    fibre index, so the partition is deterministic.
    """
    steps = _step_tables(sys)
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


@dataclass(frozen=True)
class CoverDegree:
    """Degree of the covering restricted to one path component.

    ``truncation_flagged`` is true when the orbit crosses a clamp artifact,
    i.e. the genuine model's component is infinite and the number below is
    only the truncated size.
    """

    value: int
    truncation_flagged: bool


def component_cover_degree(sys: MonodromySystem, orbit: list) -> CoverDegree:
    members = set(orbit)
    flagged = any(point in members for _petal, point in sys.clamped)
    return CoverDegree(len(orbit), flagged)


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
    flagged_ends = set()
    for petal, point in sys.clamped:
        if point in members:
            flagged_ends.add(point)
            flagged_ends.add(sys.actions[petal][point])
    closure = list(orbit)
    if flagged_ends:
        for p in sys.fibre:
            if p in members:
                continue
            best = min(sys.metric(p, q) for q in orbit)
            nearest = {q for q in orbit if sys.metric(p, q) == best}
            if nearest & flagged_ends:
                closure.append(p)
    return sorted(closure, key=sys.index.__getitem__)


# ---------------------------------------------------------------------------
# towers of systems over a common base


@dataclass
class TowerModel:
    """Levels over one rose with bonding maps of fibres, top to bottom.

    Construction only checks shapes; ``tower_strictness_check`` produces the
    full verdict so that defective towers can be built and then diagnosed.
    """

    levels: list[MonodromySystem]
    bonds: list[dict]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a tower needs at least one level")
        petals = self.levels[0].base.petals
        if any(lv.base.petals != petals for lv in self.levels):
            raise ValueError("all levels must share the base rose")
        if len(self.bonds) != len(self.levels) - 1:
            raise ValueError(
                f"{len(self.levels)} levels require {len(self.levels) - 1} bonds"
            )


@dataclass(frozen=True)
class StrictnessVerdict:
    ok: bool
    violations: tuple[str, ...]


def tower_strictness_check(tower: TowerModel) -> StrictnessVerdict:
    """Verify every bond is onto and equivariant for every petal."""
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
        for petal in upper.base.petals:
            for p in upper.fibre:
                if bond[upper.actions[petal][p]] != lower.actions[petal][bond[p]]:
                    violations.append(
                        f"bond {i}: not equivariant for petal {petal!r} at {p!r}"
                    )
                    break
    return StrictnessVerdict(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# deck transformations


def _propagate_equivariant(steps: list[dict], orbit: list, target):
    """Extend rep -> target equivariantly over the orbit; None on conflict."""
    h = {orbit[0]: target}
    stack = [orbit[0]]
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
    if len(set(h.values())) != len(orbit):
        return None
    return h


def deck_search(sys: MonodromySystem, max_results: int = 20000) -> list[dict]:
    """All fibre bijections commuting with every petal action.

    The centralizer of the generated group inside the symmetric group of the
    fibre. Candidates are propagated equivariantly from one representative
    per orbit, so the cost is quadratic in the fibre, not factorial; the
    number of results is still capped because a trivial action admits every
    bijection.
    """
    orbits = orbit_partition(sys)
    steps = _step_tables(sys)
    per_orbit = []
    for orbit in orbits:
        candidates = []
        for y in sys.fibre:
            h = _propagate_equivariant(steps, orbit, y)
            if h is not None:
                candidates.append(h)
        per_orbit.append(candidates)

    results: list[dict] = []

    def backtrack(k: int, used: set, acc: dict) -> None:
        if k == len(per_orbit):
            if len(results) >= max_results:
                raise SearchBoundExceeded(
                    f"deck search exceeded {max_results} results"
                )
            results.append(dict(acc))
            return
        for h in per_orbit[k]:
            image = set(h.values())
            if image & used:
                continue
            acc.update(h)
            backtrack(k + 1, used | image, acc)
            for key in h:
                del acc[key]

    backtrack(0, set(), {})
    results.sort(key=lambda h: tuple(sys.index[h[p]] for p in sys.fibre))
    return results


# ---------------------------------------------------------------------------
# model builders


def solenoid_level(base: int, level: int) -> MonodromySystem:
    """Level ``level`` of the base-fold self-cover tower of the circle.

    Fibre Z/base^level with the loop acting by +1; the fibre metric is the
    base-adic distance of residues.
    """
    m = base**level

    def metric(x: int, y: int) -> Fraction:
        if x == y:
            return Fraction(0)
        d = padic_distance(
            TruncatedPadic(base, level, x), TruncatedPadic(base, level, y)
        )
        return d.bound

    return MonodromySystem(
        RoseBase(("a",)),
        range(m),
        {"a": {x: (x + 1) % m for x in range(m)}},
        metric=metric,
    )


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

    def embed(p) -> Fraction:
        if p == "bot":
            return Fraction(-1)
        if p == "top":
            return Fraction(1)
        return Fraction(p, 1 + abs(p))

    action = {k: k + 1 for k in range(-K, K)}
    action[K] = -K
    action["bot"] = "bot"
    action["top"] = "top"
    return MonodromySystem(
        RoseBase(("a",)),
        fibre,
        {"a": action},
        metric=lambda p, q: abs(embed(p) - embed(q)),
        clamped=frozenset({("a", K)}),
    )


def random_permutation_system(seed: int, fibre_size: int) -> MonodromySystem:
    rng = Random(seed)
    points = list(range(fibre_size))
    petals = ("a", "b")
    actions = {}
    for petal in petals:
        perm = points[:]
        rng.shuffle(perm)
        actions[petal] = dict(zip(points, perm))
    return MonodromySystem(RoseBase(petals), points, actions)


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
        "petals": list(sys.base.petals),
        "fibre": list(sys.fibre),
        "actions": {
            petal: [sys.index[sys.actions[petal][p]] for p in sys.fibre]
            for petal in sys.base.petals
        },
        "clamped": sorted(
            [petal, sys.index[p]] for petal, p in sys.clamped
        ),
    }
