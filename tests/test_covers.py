"""Cover enumeration correctness against brute force and subgroup counts."""

import hashlib
import itertools
from math import factorial

import pytest

from liftlab.covers import (
    MAX_DEGREE,
    CoveringPermutationRep,
    cycle_lengths,
    cyclic_quotient_compatible,
    factorization_obstruction,
    full_cycle_coverings,
    is_power,
    iter_connected_coverings,
)
from liftlab.lifting import deck_search


def oracle_transitive(pa, pb) -> bool:
    """Union-find connectivity, written independently of the library BFS."""
    d = len(pa)
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(d):
        for y in (pa[x], pb[x]):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    return len({find(x) for x in range(d)}) == 1


def canonical_form(pa, pb):
    """Minimum over all simultaneous relabelings, by full enumeration."""
    d = len(pa)
    best = None
    for relabel in itertools.permutations(range(d)):
        ra = [0] * d
        rb = [0] * d
        for x in range(d):
            ra[relabel[x]] = relabel[pa[x]]
            rb[relabel[x]] = relabel[pb[x]]
        form = (tuple(ra), tuple(rb))
        if best is None or form < best:
            best = form
    return best


def brute_force_classes(d):
    perms = list(itertools.permutations(range(d)))
    classes = set()
    for pa in perms:
        for pb in perms:
            if oracle_transitive(pa, pb):
                classes.add(canonical_form(pa, pb))
    return classes


def bfs_code(pa, pb, start):
    """Full code of the labeling by breadth-first search from ``start``.

    Neighbours are taken in the order a, a^-1, b, b^-1; entry (x, slot) is
    the new label of that neighbour of the point labeled x.
    """
    d = len(pa)
    ia = [0] * d
    ib = [0] * d
    for x in range(d):
        ia[pa[x]] = x
        ib[pb[x]] = x
    order = [start]
    label = {start: 0}
    for old in order:
        for y in (pa[old], ia[old], pb[old], ib[old]):
            if y not in label:
                label[y] = len(order)
                order.append(y)
    return tuple(
        label[y] for old in order for y in (pa[old], ia[old], pb[old], ib[old])
    )


def hall_subgroup_counts(limit):
    """Index-d subgroup counts of the rank-2 free group, by recursion."""
    counts = {}
    for d in range(1, limit + 1):
        total = d * factorial(d)
        total -= sum(factorial(d - i) * counts[i] for i in range(1, d))
        counts[d] = total
    return counts


class TestHelpers:
    def test_is_power(self):
        assert is_power(1, 2) and is_power(8, 2) and is_power(9, 3)
        assert not is_power(6, 2) and not is_power(6, 3) and not is_power(0, 2)

    def test_cycle_lengths(self):
        assert cycle_lengths((1, 2, 3, 0)) == [4]
        assert cycle_lengths((1, 0, 3, 2)) == [2, 2]
        assert cycle_lengths((0, 1, 2)) == [1, 1, 1]


class TestObstruction:
    def test_admissible_degrees(self):
        assert factorization_obstruction(1)
        for d in range(2, 13):
            assert not factorization_obstruction(d)

    def test_compatibility_examples(self):
        one = CoveringPermutationRep(1, (0,), (0,))
        assert cyclic_quotient_compatible(one, "a", 2)
        assert cyclic_quotient_compatible(one, "b", 3)
        four_cycle = CoveringPermutationRep(4, (1, 2, 3, 0), (0, 1, 2, 3))
        assert cyclic_quotient_compatible(four_cycle, "a", 2)
        assert not cyclic_quotient_compatible(four_cycle, "a", 3)
        assert not cyclic_quotient_compatible(four_cycle, "b", 2)


class TestEnumeration:
    def test_degree_one(self):
        assert list(iter_connected_coverings(1)) == [
            CoveringPermutationRep(1, (0,), (0,))
        ]

    def test_degree_two_has_three_classes(self):
        assert len(list(iter_connected_coverings(2))) == 3

    def test_matches_brute_force_to_degree_four(self):
        for d in range(1, 5):
            brute = brute_force_classes(d)
            enumerated = list(iter_connected_coverings(d))
            assert len(enumerated) == len(brute)
            assert {
                canonical_form(rep.perm_a, rep.perm_b) for rep in enumerated
            } == brute

    def test_every_rep_is_transitive(self):
        for d in range(1, 7):
            for rep in iter_connected_coverings(d):
                assert oracle_transitive(rep.perm_a, rep.perm_b)

    def test_no_duplicate_classes(self):
        for d in range(2, 6):
            reps = list(iter_connected_coverings(d))
            forms = {canonical_form(rep.perm_a, rep.perm_b) for rep in reps}
            assert len(forms) == len(reps)

    def test_reps_are_canonical_to_degree_seven(self):
        # the code from 0 must be the rep's own labeling and minimal over all
        # start points; the minimal code is a complete invariant, so equal
        # minima would be duplicate classes
        expected = {2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163}
        for d, count in expected.items():
            reps = list(iter_connected_coverings(d))
            assert len(reps) == count
            minima = set()
            for rep in reps:
                pa, pb = rep.perm_a, rep.perm_b
                assert oracle_transitive(pa, pb)
                ia = [pa.index(x) for x in range(d)]
                ib = [pb.index(x) for x in range(d)]
                own = tuple(
                    y for x in range(d) for y in (pa[x], ia[x], pb[x], ib[x])
                )
                codes = [bfs_code(pa, pb, start) for start in range(d)]
                assert codes[0] == own
                assert min(codes) == own
                minima.add(own)
            assert len(minima) == count

    def test_class_counts_against_subgroup_counts(self):
        # sum over classes of (labeled pairs per class) equals the labeled
        # transitive pair count N_d * (d-1)! from the subgroup recursion
        counts = hall_subgroup_counts(6)
        for d in range(1, 7):
            total = 0
            for rep in iter_connected_coverings(d):
                centralizer = len(deck_search(rep.as_system()))
                total += factorial(d) // centralizer
            assert total == counts[d] * factorial(d - 1)

    def test_emission_order_is_pinned(self):
        # SHA-256 of bytes(perm_a + perm_b) for each rep in the order yielded;
        # how the minimality test is run must not change which reps come
        # out, or in which order
        expected = {
            2: "382d64a0c54b98d08b49ddc96ccd2544f3274d86115a4ecc9f0b042f635ce578",
            3: "1b79e2c2225fbe4389f88d81fad9a9a6c5f261d2bce64b8bfb925ab70b8b6ddb",
            4: "2ff40d2d2b30a2430e88da86ddc042aa2ca8a10293c0ec6dc0fdb67a4e3b1098",
            5: "e5bb33422f67b5b09a577c8c3cce4cd0e977e3e480ab8ea9e6476af972dfd11b",
            6: "9b2c6c8b5e4336736c7ded0ce4930383cac331594a2923a0dba93b958443fac8",
            7: "1619989412b1a2e69d4cdb10dedeb5bef9b27e37c63d6e157e81c3ba4900f6a6",
        }
        for d, digest in expected.items():
            sha = hashlib.sha256()
            for rep in iter_connected_coverings(d):
                sha.update(bytes(rep.perm_a + rep.perm_b))
            assert sha.hexdigest() == digest, d

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            list(iter_connected_coverings(MAX_DEGREE + 1))


class TestFullCycleFamily:
    def test_matches_exhaustive_restriction(self):
        for d in (3, 4, 5, 6):
            constrained = list(full_cycle_coverings(d, "a"))
            from_exhaustive = [
                rep
                for rep in iter_connected_coverings(d)
                if cycle_lengths(rep.perm_a) == [d]
            ]
            assert len(constrained) == len(from_exhaustive)

    def test_all_have_the_full_cycle(self):
        for rep in full_cycle_coverings(5, "b"):
            assert cycle_lengths(rep.perm_b) == [5]
            assert oracle_transitive(rep.perm_a, rep.perm_b)

    def test_dedup_only_drops_conjugates(self):
        # one other petal per class under conjugation by powers of the cycle
        d = 4

        def conjugates(perm):
            return {tuple((perm[(x - i) % d] + i) % d for x in range(d))
                    for i in range(d)}

        raw = list(itertools.permutations(range(d)))
        classes = {min(conjugates(perm)) for perm in raw}
        deduped = [rep.perm_b for rep in full_cycle_coverings(d, "a")]
        assert len(raw) == 24 and len(deduped) == 10
        assert {min(conjugates(perm)) for perm in deduped} == classes
