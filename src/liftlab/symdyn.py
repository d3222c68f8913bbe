"""Thue-Morse machinery and finite witnesses for shift dynamics.

Binary words are plain ASCII 0/1 strings. A :class:`CentralWord` is a finite
window of a two-sided sequence, indexed -m..m-1 around the origin; the
two-sided base point ``omega0`` is the Thue-Morse sequence preceded by its
own reversal. The metric on windows is 2^-(innermost disagreement), with
full agreement reported only as a bound, matching the working resolution.

Witness searches here are deterministic scans. They can only ever produce
evidence at a stated depth and horizon, or bounded-horizon absence; neither
outcome is a limit claim.

A finite shift system is a one-petal ``lifting.MonodromySystem``, and a
``StrictTower`` of them is a ``lifting.TowerModel`` that models an inverse
sequence of finite dynamics. Strictness (onto, equivariant bonds) is checked
at construction; ``equicontinuity_modulus`` then certifies level by level
that agreement depth is preserved by every iterate of the step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

from .lifting import MonodromySystem, TowerModel, orbit_partition, tower_strictness_check
from .ultrametric import Distance, bounded_distance, exact_distance


class WindowError(ValueError):
    """A window is too small for the requested operation."""


# ---------------------------------------------------------------------------
# word generators

_SUBSTITUTE = str.maketrans({"0": "01", "1": "10"})
_SWAP = str.maketrans("01", "10")
_DROP_BITS = str.maketrans("", "", "01")


def mt_substitution(n: int) -> str:
    """n-fold substitution 0 -> 01, 1 -> 10 on the seed "0"; length 2^n."""
    word = "0"
    for _ in range(n):
        word = word.translate(_SUBSTITUTE)
    return word


def mt_doubling(n: int) -> str:
    """Doubling construction: a_{k+1} = a_k followed by its complement."""
    word = "0"
    for _ in range(n):
        word += word.translate(_SWAP)
    return word


@lru_cache(maxsize=8)
def _mt_block(n: int) -> str:
    return mt_doubling(n)


def mt_prefix(length: int) -> str:
    """The first ``length`` symbols of the Thue-Morse sequence."""
    n = 0
    while (1 << n) < length:
        n += 1
    return _mt_block(n)[:length]


def popcount_parity_prefix(length: int) -> str:
    """Third route to the same sequence: parity of the binary digit sum."""
    # ASCII "0" is 48: one byte per symbol, no object per symbol
    return bytes(48 + (i.bit_count() & 1) for i in range(length)).decode("ascii")


# ---------------------------------------------------------------------------
# central windows of two-sided sequences


@dataclass(frozen=True)
class CentralWord:
    """Window of a two-sided binary sequence over indices -radius..radius-1."""

    radius: int
    symbols: str

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if len(self.symbols) != 2 * self.radius:
            raise ValueError(
                f"window of radius {self.radius} needs {2 * self.radius} symbols"
            )
        if self.symbols.translate(_DROP_BITS):  # what is left is not 0/1
            raise ValueError("window symbols must be 0/1")

    def __getitem__(self, index: int) -> str:
        if not -self.radius <= index < self.radius:
            raise WindowError(f"index {index} outside window of radius {self.radius}")
        return self.symbols[index + self.radius]


def omega0(radius: int) -> CentralWord:
    """Two-sided base point: Thue-Morse on i >= 0, its reversal on i < 0."""
    t = mt_prefix(radius) if radius else ""
    return CentralWord(radius, t[::-1] + t)


def shift(x: CentralWord, t: int) -> CentralWord:
    """Shifted window (sigma^t x)(i) = x(i + t); radius shrinks by |t|."""
    if abs(t) >= x.radius:
        raise WindowError(
            f"shift by {t} exceeds window of radius {x.radius}"
        )
    m = x.radius - abs(t)
    lo = (t - m) + x.radius
    return CentralWord(m, x.symbols[lo : lo + 2 * m])


def truncate_window(x: CentralWord, radius: int) -> CentralWord:
    if radius > x.radius:
        raise WindowError(f"cannot grow window from {x.radius} to {radius}")
    lo = x.radius - radius
    return CentralWord(radius, x.symbols[lo : lo + 2 * radius])


def word_metric(x: CentralWord, y: CentralWord) -> Distance:
    """2^-(smallest |n| with x_n != y_n); a bound if the windows agree."""
    if x.radius != y.radius:
        raise WindowError(f"radius mismatch: {x.radius} vs {y.radius}")
    for v in range(x.radius):
        if x[v] != y[v] or x[-v - 1] != y[-v - 1]:
            return exact_distance(2, v)
    return bounded_distance(2, x.radius)


# ---------------------------------------------------------------------------
# factor language


def factor_counts(word: str, lengths: range) -> dict[int, int]:
    """Number of distinct length-L contiguous subwords, for each L in lengths.

    One pass: with M the longest length, every length-L factor is the
    length-L prefix of a length-M factor or of a suffix shorter than M, and
    ``word[i : i + M]`` is one or the other at every position i.
    """
    for length in lengths:
        if length < 1 or length > len(word):
            raise ValueError(f"factor length {length} outside [1, {len(word)}]")
    longest = max(lengths, default=0)
    pieces = {word[i : i + longest] for i in range(len(word))}
    return {L: len({p[:L] for p in pieces if len(p) >= L}) for L in lengths}


def aperiodicity_check(word: str, max_period: int) -> int | None:
    """Least global period <= max_period of the word, or None."""
    if len(word) < 2 * max_period:
        raise WindowError(
            f"need a word of length >= {2 * max_period} to scan periods <= {max_period}"
        )
    for p in range(1, max_period + 1):
        if word[:-p] == word[p:]:
            return p
    return None


def max_recurrence_gap(word: str, length: int) -> tuple[int, str]:
    """Uniform recurrence bound over all length-L factors, with a witness.

    Returns the largest gap between consecutive occurrences of any length-L
    factor, and a factor achieving it. Every factor must recur.
    """
    positions: dict[str, list[int]] = {}
    for i in range(len(word) - length + 1):
        positions.setdefault(word[i : i + length], []).append(i)
    worst = 0
    witness = ""
    for factor in sorted(positions):
        starts = positions[factor]
        if len(starts) < 2:
            raise ValueError(f"factor {factor!r} occurs only once in the sample")
        gap = max(b - a for a, b in zip(starts, starts[1:]))
        if gap > worst:
            worst, witness = gap, factor
    return worst, witness


# ---------------------------------------------------------------------------
# witness searches over windows


@dataclass(frozen=True)
class OrbitPairWitness:
    """Two distinct windows and a shift exhibiting approach or separation."""

    x: CentralWord
    y: CentralWord
    shift_by: int
    start_distance: Distance
    end_distance: Distance


def omega0_windows(radius: int, count: int) -> list[CentralWord]:
    """Windows of omega0 centred at 0, 1, ..., count-1."""
    source = omega0(radius + count)
    out = []
    for c in range(count):
        lo = c - radius + source.radius
        out.append(CentralWord(radius, source.symbols[lo : lo + 2 * radius]))
    return out


def _signed_shifts(horizon: int, include_zero: bool) -> list[int]:
    shifts = [0] if include_zero else []
    for t in range(1, horizon + 1):
        shifts.append(t)
        shifts.append(-t)
    return shifts


def proximal_search(
    windows: list[CentralWord],
    depth: int,
    horizon: int,
) -> OrbitPairWitness | None:
    """Distinct windows whose shifted copies agree to the given depth.

    Scans pairs in input order and shifts 0, 1, -1, 2, ... and returns the
    first pair x != y with d(shift(x, t), shift(y, t)) <= 2^-depth. Absence
    within the horizon is a valid outcome (None).
    """
    if depth < 0 or horizon < 0:
        raise ValueError("depth and horizon must be >= 0")
    if windows and windows[0].radius < horizon + depth + 1:
        raise WindowError(
            f"windows of radius {windows[0].radius} cannot shift by {horizon} "
            f"and still certify depth {depth}"
        )
    target = Fraction(1, 2**depth)
    shifts = _signed_shifts(horizon, include_zero=True)
    for i, j in itertools.combinations(range(len(windows)), 2):
        x, y = windows[i], windows[j]
        if x == y:
            continue
        for t in shifts:
            xs, ys = shift(x, t), shift(y, t)
            d = word_metric(xs, ys)
            if d.at_most(target):
                return OrbitPairWitness(x, y, t, word_metric(x, y), d)
    return None


def non_equicontinuity_witness(
    windows: list[CentralWord],
    depth: int,
    horizon: int,
) -> OrbitPairWitness | None:
    """Windows within 2^-depth whose orbits separate to >= 1/2 within the horizon."""
    if depth < 1 or horizon < 1:
        raise ValueError("depth and horizon must be >= 1")
    if windows and windows[0].radius < horizon + max(depth, 2):
        raise WindowError(
            f"windows of radius {windows[0].radius} cannot shift by {horizon} "
            f"and still certify depth {depth}"
        )
    half = Fraction(1, 2)
    # Pairs must agree to the requested depth first; bucket on the central block.
    buckets: dict[str, list[int]] = {}
    order: list[str] = []
    for idx, w in enumerate(windows):
        lo = w.radius - depth + 1
        key = w.symbols[lo : lo + 2 * depth - 1]
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(idx)
    for key in order:
        members = buckets[key]
        for a, b in itertools.combinations(members, 2):
            x, y = windows[a], windows[b]
            if x == y:
                continue
            start = word_metric(x, y)
            if not start.at_most(Fraction(1, 2**depth)):
                continue
            for t in _signed_shifts(horizon, include_zero=False):
                d = word_metric(shift(x, t), shift(y, t))
                if d.at_least(half):
                    return OrbitPairWitness(x, y, t, start, d)
    return None


# ---------------------------------------------------------------------------
# strict towers of finite shift systems
#
# A finite shift system is a one-petal monodromy system: the petal's
# permutation of the fibre is the step.


def kernel_of_action(step: dict) -> int:
    """Index of the action kernel: the least n >= 1 with step^n = identity."""
    order = 1
    seen = set()
    for p in step:
        if p in seen:
            continue
        length = 0
        q = p
        while True:
            seen.add(q)
            q = step[q]
            length += 1
            if q == p:
                break
        order = order * length // gcd(order, length)
    return order


class StrictTower(TowerModel):
    """A tower whose bonds are onto and equivariant for every petal.

    ``bonds[i]`` maps the fibre of ``levels[i + 1]`` onto that of
    ``levels[i]``. Violations are rejected here, at construction, with the
    first one that ``tower_strictness_check`` finds.
    """

    def __init__(self, levels: list[MonodromySystem], bonds: list[dict]):
        super().__init__(list(levels), [dict(bond) for bond in bonds])
        violations = tower_strictness_check(self).violations
        if violations:
            raise ValueError(violations[0])


def equicontinuity_modulus(tower: StrictTower) -> list[dict]:
    """Certify the identity modulus for the thread metric, level by level.

    The step is the action of petal ``a``. For agreement depth n the same depth n
    works as a modulus: any pair of level-(n+1) points over a common level-n
    point stays over a common point under every power of the step. The
    check is exhaustive per level and the returned table records how many
    ordered pairs were certified.
    """
    table = []
    for n in range(1, len(tower.levels) + 1):
        if n == len(tower.levels):
            top = tower.levels[n - 1]
            table.append(
                {
                    "level": n,
                    "delta_level": n,
                    "pairs_checked": len(top.fibre),
                    "powers_checked": kernel_of_action(top.actions["a"]),
                }
            )
            continue
        upper = tower.levels[n]
        step = upper.actions["a"]
        bond = tower.bonds[n - 1]
        fibres: dict = {}
        for p in upper.fibre:
            fibres.setdefault(bond[p], []).append(p)
        order = kernel_of_action(step)
        pairs = 0
        for members in fibres.values():
            # "same bond image at every power" is an equivalence relation, so
            # agreeing with the first member certifies every ordered pair
            x, *rest = members
            images = []
            for _ in range(order):
                x = step[x]
                images.append(bond[x])
            for y in rest:
                for image in images:
                    y = step[y]
                    if bond[y] != image:
                        raise AssertionError(
                            "agreement not preserved; tower invariants violated"
                        )
            pairs += len(members) ** 2
        table.append(
            {
                "level": n,
                "delta_level": n,
                "pairs_checked": pairs,
                "powers_checked": order,
            }
        )
    return table


def random_strict_tower(seed: int) -> StrictTower:
    """A seeded random strict tower of four one-petal permutation systems.

    Level 1 is a random permutation of 2 to 5 points; each next level sits
    over it with fibre sizes constant along step orbits (so an equivariant
    bijective step over the base exists) and random fibre bijections.
    """
    rng = Random(seed)
    size = rng.randint(2, 5)
    base_points = list(range(size))
    perm = base_points[:]
    rng.shuffle(perm)
    levels = [MonodromySystem(base_points, {"a": dict(zip(base_points, perm))})]
    bonds = []
    for _ in range(3):
        lower = levels[-1]
        # fibre sizes constant on each step orbit
        fibre_size: dict = {}
        for orbit in orbit_partition(lower):
            fibre_size.update(dict.fromkeys(orbit, rng.randint(1, 3)))
        points = [(p, i) for p in lower.fibre for i in range(fibre_size[p])]
        step = {}
        for p in lower.fibre:
            image = lower.actions["a"][p]
            matching = list(range(fibre_size[p]))
            rng.shuffle(matching)
            for i, j in enumerate(matching):
                step[(p, i)] = (image, j)
        bonds.append({pt: pt[0] for pt in points})
        levels.append(MonodromySystem(points, {"a": step}))
    return StrictTower(levels, bonds)
