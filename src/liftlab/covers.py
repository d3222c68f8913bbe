"""Connected finite covers of the figure eight as permutation pairs.

A degree-d cover of the two-petal rose is a pair of permutations of
{0..d-1}, one per petal, acting transitively; simultaneous relabeling is
cover isomorphism. Enumeration generates each isomorphism class exactly
once by producing only pairs whose labels agree with the breadth-first
labeling from point 0 and keeping those whose BFS code is minimal over all
start points. Minimality is tested on every partial table, as in Sims'
low-index subgroups algorithm (C. C. Sims, *Computation with Finitely
Presented Groups*, 1994, ch. 5), so a branch is cut as soon as some start
point's code is already smaller.

The obstruction: a connected cover compatible with the binary solenoid side
must have a petal cycle of length d with d a power of 2, and with the
ternary side a power of 3, so only d = 1 admits both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .lifting import MonodromySystem, RoseBase

FIGURE_EIGHT = ("a", "b")


@dataclass(frozen=True)
class CoveringPermutationRep:
    """A connected cover of the figure eight: one permutation per petal."""

    degree: int
    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]

    def perm(self, petal: str) -> tuple[int, ...]:
        if petal == "a":
            return self.perm_a
        if petal == "b":
            return self.perm_b
        raise ValueError(f"unknown petal {petal!r}")

    def as_system(self) -> MonodromySystem:
        points = range(self.degree)
        return MonodromySystem(
            RoseBase(FIGURE_EIGHT),
            points,
            {
                "a": {x: self.perm_a[x] for x in points},
                "b": {x: self.perm_b[x] for x in points},
            },
        )


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        out.append(length)
    return sorted(out)


def is_power(value: int, base: int) -> bool:
    """Exact power test: value == base**k for some k >= 0."""
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


def factorization_obstruction(degree: int) -> bool:
    """Degrees admissible for a cover under both solenoid sides: only 1.

    The degree must simultaneously be a power of 2 and a power of 3.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return is_power(degree, 2) and is_power(degree, 3)


def cyclic_quotient_compatible(
    rep: CoveringPermutationRep, petal: str, base: int
) -> bool:
    """Can the base-fold solenoid side map onto this cover through the petal?

    Necessary condition: the petal's permutation has a cycle of length equal
    to the full degree, and that degree is a power of ``base``.
    """
    if not is_power(rep.degree, base):
        return False
    return any(length == rep.degree for length in cycle_lengths(rep.perm(petal)))


# ---------------------------------------------------------------------------
# exhaustive enumeration up to simultaneous relabeling

_SLOTS_PER_POINT = 4  # sigma_a, sigma_a^-1, sigma_b, sigma_b^-1


def _code_compare(tables, d: int, start: int) -> int:
    """Compare the partial BFS code from ``start`` with the identity code.

    ``tables`` holds the four slot tables, -1 marking an undefined entry.
    Entries are compared in order up to the first one undefined on either
    side. Returns -1 / +1 when the code from ``start`` is already smaller /
    larger, and 0 while undecided; on a complete table 0 means equal.
    """
    label = [-1] * d
    label[start] = 0
    order = [start]
    for x, old in enumerate(order):  # order grows as the BFS labels points
        for table in tables:
            reference = table[x]
            neighbor = table[old]
            if reference == -1 or neighbor == -1:
                return 0
            relabeled = label[neighbor]
            if relabeled == -1:
                relabeled = label[neighbor] = len(order)
                order.append(neighbor)
            if relabeled != reference:
                return -1 if relabeled < reference else 1
    return 0


def iter_connected_coverings(
    degree: int, max_degree: int = 12
) -> Iterator[CoveringPermutationRep]:
    """Generate all degree-d connected covers, one per isomorphism class.

    Backtracking over partial permutation pairs in breadth-first slot order;
    fresh points always receive the next label, so every table is BFS-labeled
    from point 0 and its code is the identity code. After every slot
    assignment each start point still undecided is compared with it on the
    entries defined so far (Sims' minimality test, 1994, ch. 5). Completing
    a table never changes a defined entry, so a start whose code is already
    smaller prunes the whole subtree, and one whose code is already larger
    is dropped for the subtree. A complete table that survives is minimal
    over all start points and is emitted.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > max_degree:
        raise ValueError(f"degree {degree} exceeds the configured bound {max_degree}")
    d = degree
    tables = [[-1] * d for _ in range(_SLOTS_PER_POINT)]

    def undecided(starts: list[int]) -> list[int] | None:
        alive = []
        for start in starts:
            sign = _code_compare(tables, d, start)
            if sign < 0:
                return None
            if sign == 0:
                alive.append(start)
        return alive

    def solve(
        slot: int, labeled: int, starts: list[int]
    ) -> Iterator[CoveringPermutationRep]:
        while slot < labeled * _SLOTS_PER_POINT:
            x, kind = divmod(slot, _SLOTS_PER_POINT)
            if tables[kind][x] == -1:
                break
            slot += 1
        else:
            if labeled == d:
                yield CoveringPermutationRep(d, tuple(tables[0]), tuple(tables[2]))
            return

        table, partner = tables[kind], tables[kind ^ 1]
        for v in range(min(labeled + 1, d)):
            fresh = v == labeled
            if not fresh and partner[v] != -1:
                continue
            table[x] = v
            partner[v] = x
            alive = undecided(starts)
            if alive is not None:
                yield from solve(slot + 1, labeled + fresh, alive)
            table[x] = partner[v] = -1

    yield from solve(0, 1, list(range(1, d)))


def enumerate_connected_coverings(
    degree: int, max_degree: int = 12
) -> list[CoveringPermutationRep]:
    return list(iter_connected_coverings(degree, max_degree))


def full_cycle_coverings(degree: int, petal: str) -> Iterator[CoveringPermutationRep]:
    """All connected covers whose given petal is a single d-cycle.

    This is the complete family of covers satisfying the cycle condition on
    that petal: any such cover is isomorphic to one with the petal acting as
    the canonical cycle x -> x + 1, and the other petal arbitrary. The other
    petal is reduced modulo conjugation by the cycle's centralizer (its own
    powers), one representative per class.
    Transitivity is automatic. Feasible through degree 9 and a bit beyond.
    """
    d = degree
    cycle = tuple((x + 1) % d for x in range(d))
    for other in itertools.permutations(range(d)):
        canonical = True
        for i in range(1, d):
            # conjugate by cycle^i, entrywise, with early exit
            for x in range(d):
                value = (other[(x - i) % d] + i) % d
                if value < other[x]:
                    canonical = False
                    break
                if value > other[x]:
                    break
            if not canonical:
                break
        if not canonical:
            continue
        if petal == "a":
            yield CoveringPermutationRep(d, cycle, other)
        else:
            yield CoveringPermutationRep(d, other, cycle)
