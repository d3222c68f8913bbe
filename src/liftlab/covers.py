"""Connected finite covers of the figure eight as permutation pairs.

A degree-d cover of the two-petal rose is a pair of permutations of
{0..d-1}, one per petal, acting transitively; simultaneous relabeling is
cover isomorphism. Enumeration generates each isomorphism class exactly
once by producing only pairs whose labels agree with the breadth-first
labeling from point 0 and keeping those whose BFS code is minimal over all
start points. Minimality is tested on every partial table, as in Sims'
low-index subgroups algorithm (C. C. Sims, *Computation with Finitely
Presented Groups*, 1994, ch. 5), so a branch is cut as soon as some start
point's code is already smaller. Each start's comparison resumes at the
entry where it last stopped: it stopped because that entry was undefined,
and a slot assignment defines only two entries, so only the starts stopped
at one of those two can move on.

The obstruction: a connected cover compatible with the binary solenoid side
must have a petal cycle of length d with d a power of 2, and with the
ternary side a power of 3, so only d = 1 admits both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .lifting import MonodromySystem, cycle_lengths

MAX_DEGREE = 12


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
        return MonodromySystem(
            range(self.degree),
            {"a": dict(enumerate(self.perm_a)), "b": dict(enumerate(self.perm_b))},
        )


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
    return rep.degree in cycle_lengths(dict(enumerate(rep.perm(petal))))


# ---------------------------------------------------------------------------
# exhaustive enumeration up to simultaneous relabeling

_SLOTS_PER_POINT = 4  # sigma_a, sigma_a^-1, sigma_b, sigma_b^-1


def _resume(tables, d: int, state):
    """Advance one start's comparison with the identity code from where it stopped.

    ``tables`` holds the four slot tables, -1 marking an undefined entry.
    ``state`` is ``(blocker, label, order, x, k)``: the start's partial
    relabeling (``label``, and ``order`` listing the points in the order
    they were labeled) and the entry it stopped at, table ``k`` at BFS
    position ``x``. ``blocker`` is ``k * d + p`` for the undefined entry
    ``tables[k][p]`` that stopped it, -1 once the code is compared in full.
    Returns -1 / +1 when the code from the start is already smaller /
    larger, else 0 and the advanced state. ``label`` and ``order`` are
    copied before they grow, so the state passed in stays valid for the
    sibling branches.
    """
    _, label, order, x, k = state
    copied = False
    while x < len(order):
        old = order[x]
        while k < _SLOTS_PER_POINT:
            table = tables[k]
            reference = table[x]
            if reference == -1:
                return 0, (k * d + x, label, order, x, k)
            neighbor = table[old]
            if neighbor == -1:
                return 0, (k * d + old, label, order, x, k)
            relabeled = label[neighbor]
            if relabeled == -1:
                if not copied:
                    label, order, copied = label[:], order[:], True
                relabeled = label[neighbor] = len(order)
                order.append(neighbor)
            if relabeled != reference:
                return (-1 if relabeled < reference else 1), None
            k += 1
        x, k = x + 1, 0
    return 0, (-1, label, order, x, k)


def iter_connected_coverings(degree: int) -> Iterator[CoveringPermutationRep]:
    """Generate all degree-d connected covers, one per isomorphism class.

    Backtracking over partial permutation pairs in breadth-first slot order;
    fresh points always receive the next label, so every table is BFS-labeled
    from point 0 and its code is the identity code. Each start point still
    undecided is compared with it on the entries defined so far (Sims'
    minimality test, 1994, ch. 5). Completing a table never changes a
    defined entry, so a start whose code is already smaller prunes the whole
    subtree, and one whose code is already larger is dropped for the
    subtree. A start that stays undecided stopped at one undefined entry and
    keeps its partial relabeling; an assignment defines exactly two entries,
    (kind, x) and (kind ^ 1, v), so only the starts stopped at one of those
    two resume, from where they stopped, and every other start's comparison
    would stop at the same place again. A complete table that survives is
    minimal over all start points and is emitted.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the bound {MAX_DEGREE}")
    d = degree
    tables = [[-1] * d for _ in range(_SLOTS_PER_POINT)]

    def solve(
        slot: int, labeled: int, starts: list
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
        entry = kind * d + x
        for v in range(min(labeled + 1, d)):
            fresh = v == labeled
            if not fresh and partner[v] != -1:
                continue
            table[x] = v
            partner[v] = x
            partner_entry = (kind ^ 1) * d + v
            alive: list | None = []
            for state in starts:
                if state[0] == entry or state[0] == partner_entry:
                    sign, state = _resume(tables, d, state)
                    if sign < 0:
                        alive = None
                        break
                    if sign > 0:
                        continue
                alive.append(state)
            if alive is not None:
                yield from solve(slot + 1, labeled + fresh, alive)
            table[x] = partner[v] = -1

    # every start first stops at entry (0, 0), undefined until slot 0
    starts = []
    for start in range(1, d):
        label = [-1] * d
        label[start] = 0
        starts.append((0, label, [start], 0, 0))
    yield from solve(0, 1, starts)


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
