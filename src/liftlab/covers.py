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
import operator
from dataclasses import dataclass
from typing import Iterator

from .lifting import MonodromySystem, cycle_lengths

MAX_DEGREE = 12


@dataclass(frozen=True, slots=True)
class CoveringPermutationRep:
    """A connected cover of the figure eight: one permutation per petal."""

    degree: int
    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]

    def as_system(self) -> MonodromySystem:
        return MonodromySystem(
            range(self.degree),
            {"a": enumerate(self.perm_a), "b": enumerate(self.perm_b)},
        )


def is_power(value: int, base: int) -> bool:
    """Exact power test: value == base**k for some k >= 0."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
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
    perms = {"a": rep.perm_a, "b": rep.perm_b}
    if petal not in perms:
        raise ValueError(f"unknown petal {petal!r}")
    if not is_power(rep.degree, base):
        return False
    return rep.degree in cycle_lengths(dict(enumerate(perms[petal])))


# ---------------------------------------------------------------------------
# exhaustive enumeration up to simultaneous relabeling

def iter_connected_coverings(degree: int) -> Iterator[CoveringPermutationRep]:
    """Generate all degree-d connected covers, one per isomorphism class.

    Backtracking over partial permutation pairs in breadth-first slot order;
    fresh points always receive the next label, so every table is BFS-labeled
    from point 0 and its code is the identity code. The four slot tables
    (sigma_a, sigma_a^-1, sigma_b, sigma_b^-1) are one flat list: entry
    ``4 * p + k`` is table ``k`` at point ``p``, -1 while undefined, and slot
    ``s`` fills entry ``s``. A bitmask per table of the targets nothing maps
    to yet lets the value loop visit only assignable targets, in order.

    Each start point still undecided is compared with the identity code on
    the entries defined so far (Sims' minimality test, 1994, ch. 5).
    Completing a table never changes a defined entry, so a start whose code
    is already smaller prunes the whole subtree, and one whose code is
    already larger is dropped for the subtree. An undecided start keeps its
    partial relabeling (``label``; ``order`` holds 4 * p for the points p in
    labeling order), the code position it reached, and its blocker: the
    undefined entry that stopped it, -1 once compared in full. An assignment
    defines exactly two entries, so only the starts blocked at one of them
    resume; every other start would stop at the same place again. ``label``
    and ``order`` are copied before they grow, so a state stays valid for
    sibling branches. A complete table that survives is minimal over all
    start points and is emitted.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the bound {MAX_DEGREE}")
    d = degree
    table = [-1] * (4 * d)
    free = [(1 << d) - 1] * 4

    def solve(
        slot: int, labeled: int, starts: list
    ) -> Iterator[CoveringPermutationRep]:
        while slot < 4 * labeled:
            if table[slot] == -1:
                break
            slot += 1
        else:
            if labeled == d:
                yield CoveringPermutationRep(d, tuple(table[0::4]), tuple(table[2::4]))
            return

        x, kind = slot >> 2, slot & 3
        other, x_bit = kind ^ 1, 1 << x
        # the labeled points and the next fresh one, if nothing maps there yet
        targets = free[kind] & ((2 << labeled) - 1)
        while targets:
            v_bit = targets & -targets
            targets ^= v_bit
            v = v_bit.bit_length() - 1
            partner = 4 * v + other
            table[slot] = v
            table[partner] = x
            free[kind] ^= v_bit
            free[other] ^= x_bit
            alive: list | None = []
            for state in starts:
                blocker = state[0]
                if blocker != slot and blocker != partner:
                    alive.append(state)
                    continue
                _, label, order, pos = state
                # resume this start's comparison at code position pos
                copied = False
                while pos < 4 * len(order):
                    reference = table[pos]
                    if reference == -1:
                        blocker = pos
                        break
                    blocker = order[pos >> 2] + (pos & 3)
                    neighbor = table[blocker]
                    if neighbor == -1:
                        break
                    relabeled = label[neighbor]
                    if relabeled == -1:
                        if not copied:
                            label, order, copied = label[:], order[:], True
                        relabeled = label[neighbor] = len(order)
                        order.append(4 * neighbor)
                    if relabeled != reference:
                        break
                    pos += 1
                else:
                    blocker = -1
                if blocker == -1 or table[blocker] == -1:  # still undecided
                    alive.append((blocker, label, order, pos))
                elif relabeled < reference:
                    # this start's code is smaller: the subtree holds no rep
                    alive = None
                    break
            if alive is not None:
                yield from solve(slot + 1, labeled + (v == labeled), alive)
            table[slot] = table[partner] = -1
            free[kind] ^= v_bit
            free[other] ^= x_bit

    # every start first stops at entry 0, undefined until slot 0
    starts = []
    for start in range(1, d):
        label = [-1] * d
        label[start] = 0
        starts.append((0, label, [4 * start], 0))
    yield from solve(0, 1, starts)


def full_cycle_coverings(degree: int, petal: str) -> Iterator[CoveringPermutationRep]:
    """All connected covers whose given petal is a single d-cycle.

    This is the complete family of covers satisfying the cycle condition on
    that petal: any such cover is isomorphic to one with the petal acting as
    the canonical cycle x -> x + 1, and the other petal sigma arbitrary.
    sigma is reduced modulo conjugation by the cycle's centralizer (its own
    powers) to its lexicographically least conjugate. Conjugating by the
    i-th power puts the displacement (sigma(d - i) - (d - i)) mod d at
    position 0, so a least sigma has sigma(0) equal to its least
    displacement: sigma(0) = s >= 1 is completed, in lexicographic order,
    only by values of displacement at least s. Every other conjugate then
    starts above sigma(0) except those that tie there, by the i-th power
    with displacement s at y = d - i, and only those are compared entrywise.
    Transitivity is automatic. Feasible through degree 9 and a bit beyond.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
    if petal not in ("a", "b"):
        raise ValueError(f"unknown petal {petal!r}")
    d = degree
    cycle = tuple((x + 1) % d for x in range(d))

    def completions(prefix: tuple, unused: tuple, least: int):
        """Completions of ``prefix``, in order, with every displacement >= least."""
        if not unused:
            yield prefix
        x = len(prefix)
        for i, v in enumerate(unused):
            if (v - x) % d >= least:
                yield from completions(prefix + (v,), unused[:i] + unused[i + 1 :], least)

    candidates = itertools.chain(
        ((0, *rest) for rest in itertools.permutations(range(1, d))),
        *(completions((s,), (*range(s), *range(s + 1, d)), s) for s in range(1, d)),
    )
    # shifted[s][y] == (y + s) % d, except at y = 0, where nothing ties
    shifted = [(None, *((y + s) % d for y in range(1, d))) for s in range(d)]
    for other in candidates:
        canonical = True
        for y in itertools.compress(
            range(d), map(operator.eq, other, shifted[other[0]])
        ):
            # conjugate by cycle^(d - y), entrywise from x = 1, with early exit
            for x in range(1, d):
                value = (other[(x + y) % d] - y) % d
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
