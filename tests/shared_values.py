"""Checks that the strands tables keep one object per value.

Each circle's table (``hfhat.algebra._Strands``) holds one frozenset per
distinct pair set and one tuple per distinct support; diagrams and the
generator idempotents of the bimodules take theirs from it.
"""

from __future__ import annotations

from collections import Counter

import hfhat.algebra as alg


def assert_one_object_per_value(diagrams, idempotents=()) -> None:
    """Over each circle, equal pair sets and equal supports of ``diagrams``
    are one object, and so are the pair sets of ``idempotents``, given as
    (circle, pair set) pairs; those are the circle's ``pair_set`` objects,
    and a genus-g circle has at most 2^(2g) pair-set objects."""
    first: dict = {}

    def check(pmc, value):
        kept = first.setdefault((pmc, value), value)
        assert kept is value, (pmc, value)

    for a in diagrams:
        for value in (a.supp, a.left_pairs, a.right_pairs):
            check(a.pmc, value)
    for pmc, pairs in idempotents:
        assert alg.pair_set(pmc, pairs) is pairs, (pmc, pairs)
        check(pmc, pairs)
    pair_sets = Counter(pmc for pmc, value in first if isinstance(value, frozenset))
    assert all(n <= 4 ** pmc.genus for pmc, n in pair_sets.items()), pair_sets
