"""Thue-Morse machinery and finite witnesses for shift dynamics.

Binary words are plain ASCII 0/1 strings. A :class:`CentralWord` is a finite
window of a two-sided sequence, indexed -m..m-1 around the origin; the
two-sided base point ``omega0`` is the Thue-Morse sequence preceded by its
own reversal. The metric on windows is 2^-v with v the innermost ring of
disagreement; ``word_metric`` returns v, and the radius when windows agree.

Witness searches here are deterministic scans. They can only ever produce
evidence at a stated depth and horizon, or bounded-horizon absence; neither
outcome is a limit claim.

A finite shift system is a one-petal ``lifting.MonodromySystem``, and a
``StrictTower`` of them is a ``lifting.TowerModel`` that models an inverse
sequence of finite dynamics. Strictness (onto, equivariant bonds) is checked
at construction; ``equicontinuity_modulus`` then certifies level by level
that agreement depth is preserved by one step, hence by every iterate.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import lcm
from random import Random

from .lifting import (
    InconsistentModel, MonodromySystem, TowerModel, cycle_lengths, orbit_partition,
    tower_strictness_check,
)


class WindowError(ValueError):
    """A window is too small for the requested operation."""


# ---------------------------------------------------------------------------
# word generators

_SWAP = str.maketrans("01", "10")
_SWAP_BYTES = bytes.maketrans(b"01", b"10")


def mt_substitution(n: int) -> str:
    """n-fold substitution 0 -> 01, 1 -> 10 on the seed "0"; length 2^n.

    One substitution step sends w to the interleave of w and its complement:
    symbol i of w becomes symbols 2i and 2i + 1 of the image, w_i followed
    by 1 - w_i, which is 0 -> 01, 1 -> 10 read symbol by symbol.
    """
    word = bytearray(b"0")
    for _ in range(n):
        image = bytearray(2 * len(word))
        image[0::2] = word
        image[1::2] = word.translate(_SWAP_BYTES)
        word = image
    return word.decode("ascii")


def mt_doubling(n: int) -> str:
    """Doubling construction: a_{k+1} = a_k followed by its complement."""
    word = "0"
    for _ in range(n):
        word += word.translate(_SWAP)
    return word


def mt_prefix(length: int) -> str:
    """The first ``length`` symbols of the Thue-Morse sequence."""
    if length < 0:
        raise ValueError(f"prefix length must be >= 0, got {length}")
    return mt_doubling(max(length - 1, 0).bit_length())[:length]


# symbol l of the block is the parity of the binary digit sum of l < 256
_PARITY_BLOCK = "".join(str(low.bit_count() & 1) for low in range(256))
_PARITY_BLOCKS = (_PARITY_BLOCK, _PARITY_BLOCK.translate(_SWAP))


def popcount_parity_prefix(length: int) -> str:
    """Third route to the same sequence: parity of the binary digit sum.

    The digits of 256h + l (l < 256) are those of h above those of l, so
    parity(256h + l) = parity(h) xor parity(l): block h of the word is the
    256-symbol parity block, complemented when h has odd digit sum.
    """
    if length < 0:
        raise ValueError(f"prefix length must be >= 0, got {length}")
    full, rest = divmod(length, 256)
    blocks = [_PARITY_BLOCKS[high.bit_count() & 1] for high in range(full)]
    blocks.append(_PARITY_BLOCKS[full.bit_count() & 1][:rest])
    return "".join(blocks)


# ---------------------------------------------------------------------------
# central windows of two-sided sequences


@dataclass(frozen=True)
class CentralWord:
    """Window of a two-sided binary sequence over indices -radius..radius-1."""

    symbols: str

    def __post_init__(self) -> None:
        if len(self.symbols) % 2:
            raise ValueError(f"a window needs an even number of symbols, got {len(self.symbols)}")
        # ASCII encodes one byte per symbol; what is left without 0/1 is foreign
        if not self.symbols.isascii() or self.symbols.encode().translate(None, b"01"):
            raise ValueError("window symbols must be 0/1")
        # not a field; unlike a self.__dict__ write, this keeps attribute reads fast
        object.__setattr__(self, "radius", len(self.symbols) // 2)


def _subwindow(x: CentralWord, centre: int, radius: int) -> CentralWord:
    """The ``radius`` window of x at ``centre`` (within x); as a slice of x it is checked."""
    lo = x.radius + centre - radius
    window = object.__new__(CentralWord)
    object.__setattr__(window, "symbols", x.symbols[lo : lo + 2 * radius])
    object.__setattr__(window, "radius", radius)
    return window


def omega0(radius: int) -> CentralWord:
    """Two-sided base point: Thue-Morse on i >= 0, its reversal on i < 0."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    t = mt_prefix(radius)
    return CentralWord(t[::-1] + t)


def shift(x: CentralWord, t: int) -> CentralWord:
    """Shifted window (sigma^t x)(i) = x(i + t); radius shrinks by |t|."""
    if abs(t) >= x.radius:
        raise WindowError(
            f"shift by {t} exceeds window of radius {x.radius}"
        )
    return _subwindow(x, t, x.radius - abs(t))


def truncate_window(x: CentralWord, radius: int) -> CentralWord:
    if not 0 <= radius <= x.radius:
        raise WindowError(f"cannot cut a window of radius {x.radius} to radius {radius}")
    return _subwindow(x, 0, radius)


def word_metric(x: CentralWord, y: CentralWord) -> int:
    """Smallest v with x_v != y_v or x_-v-1 != y_-v-1, else the radius."""
    if x.radius != y.radius:
        raise WindowError(f"radius mismatch: {x.radius} vs {y.radius}")
    m, a, b = x.radius, x.symbols, y.symbols  # symbol i sits at index m + i
    for v in range(m):
        if a[m + v] != b[m + v] or a[m - v - 1] != b[m - v - 1]:
            return v
    return m


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
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if len(word) < 2 * max_period:
        raise WindowError(
            f"need a word of length >= {2 * max_period} to scan periods <= {max_period}"
        )
    for p in range(1, max_period + 1):
        if word[:-p] == word[p:]:
            return p
    return None


def max_recurrence_gap(word: str, length: int) -> tuple[int | None, str]:
    """Uniform recurrence bound over all length-L factors, with a witness.

    Returns the largest gap between consecutive occurrences of any length-L
    factor, and a factor achieving it. If some factor occurs only once, the
    gap is None and the factor is the first such one.
    """
    if length < 1 or length > len(word):
        raise ValueError(f"factor length {length} outside [1, {len(word)}]")
    positions: defaultdict[str, list[int]] = defaultdict(list)
    for i in range(len(word) - length + 1):
        positions[word[i : i + length]].append(i)
    worst = 0
    witness = ""
    for factor in sorted(positions):
        starts = positions[factor]
        if len(starts) < 2:
            return None, factor
        gap = max(map(operator.sub, starts[1:], starts))
        if gap > worst:
            worst, witness = gap, factor
    return worst, witness


# ---------------------------------------------------------------------------
# witness searches over windows


@dataclass(frozen=True)
class OrbitPairWitness:
    """Two distinct windows and a shift exhibiting approach or separation.

    The distances are ``word_metric`` exponents: of x and y, and of their
    copies shifted by ``shift_by``. Both are exact, below the radius compared.
    The start is, as x != y. A separation ends at <= 1, and a shifted radius
    is >= 2. A proximal pair was short of depth at the shift one step before
    (|t| - 1, same sign), a step moves a disagreement by at most one ring,
    and a shifted radius is >= depth + 1.
    """

    x: CentralWord
    y: CentralWord
    shift_by: int
    start_distance: int
    end_distance: int


def omega0_windows(radius: int, count: int) -> list[CentralWord]:
    """Windows of omega0 centred at 0, 1, ..., count-1."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if count < 0:
        raise ValueError(f"window count must be >= 0, got {count}")
    source = omega0(radius + count)
    return [_subwindow(source, c, radius) for c in range(count)]


def _signed_shifts(horizon: int) -> list[int]:
    return [t for u in range(1, horizon + 1) for t in (u, -u)]


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
    shifts = [0, *_signed_shifts(horizon)]
    for x, y in itertools.combinations(windows, 2):
        if x == y:
            continue
        for t in shifts:
            xs, ys = shift(x, t), shift(y, t)
            d = word_metric(xs, ys)
            if d >= depth:
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
    # Pairs must agree to the requested depth first; bucket on the central block.
    buckets: dict[str, list[CentralWord]] = {}
    for w in windows:
        lo = w.radius - depth + 1
        buckets.setdefault(w.symbols[lo : lo + 2 * depth - 1], []).append(w)
    shifts = _signed_shifts(horizon)
    for members in buckets.values():
        for x, y in itertools.combinations(members, 2):
            if x == y:
                continue
            start = word_metric(x, y)
            if start < depth:
                continue
            for t in shifts:
                d = word_metric(shift(x, t), shift(y, t))
                if d <= 1:
                    return OrbitPairWitness(x, y, t, start, d)
    return None


# ---------------------------------------------------------------------------
# strict towers of finite shift systems
#
# A finite shift system is a one-petal monodromy system: the petal's
# permutation of the fibre is the step.


class StrictTower(TowerModel):
    """A tower whose bonds are onto and equivariant for every petal.

    ``bonds[i]`` maps the fibre of ``levels[i + 1]`` onto that of
    ``levels[i]``. Violations are rejected here, at construction, with the
    first one that ``tower_strictness_check`` finds.
    """

    def __init__(self, levels: list[MonodromySystem], bonds: list[dict]):
        super().__init__(list(levels), [dict(bond) for bond in bonds])
        violations = tower_strictness_check(self)
        if violations:
            raise ValueError(violations[0])


def equicontinuity_modulus(tower: StrictTower) -> list[dict]:
    """Certify the identity modulus for the thread metric, level by level.

    The step is the action of petal ``a``. For agreement depth n the same depth n
    works as a modulus: any pair of level-(n+1) points over a common level-n
    point stays over a common point under every power of the step.

    One step suffices. Let x K y mean that x and y have the same bond image.
    The check is that x K y implies step x K step y, on every fibre of the
    bond; then x K y gives step^k x K step^k y for every k by induction on k,
    and the converse is the case k = 1. So each fibre needs only the bond
    images of its members' one-step images, which must all be equal, and a
    tower fails here exactly when some power of the step breaks agreement.

    The table records, per level, the ordered pairs certified (the squared
    fibre sizes; the top level counts its points) and in ``powers_checked``
    the order of the step, the lcm of its cycle lengths: the powers up to it
    are all the distinct powers, each certified by the induction.
    """
    table = []
    top = len(tower.levels)
    for n in range(1, top + 1):
        upper = tower.levels[min(n, top - 1)]  # the top row reads the top level
        step = upper.actions["a"]
        if n == top:
            pairs = len(upper.fibre)
        else:
            bond = tower.bonds[n - 1]
            below = list(map(bond.__getitem__, upper.fibre))
            sizes = Counter(below)
            above = map(bond.__getitem__, map(step.__getitem__, upper.fibre))
            # K is preserved by the step iff each fibre steps into one fibre
            if len(set(zip(below, above))) != len(sizes):
                raise InconsistentModel("agreement not preserved; tower invariants violated")
            pairs = sum(size * size for size in sizes.values())
        table.append(
            {
                "level": n,
                "delta_level": n,
                "pairs_checked": pairs,
                "powers_checked": lcm(*cycle_lengths(step)),
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
