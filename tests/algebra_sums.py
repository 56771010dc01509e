"""F2 sums of basic strands generators, as the tests build them.

The pipeline multiplies basic generators one pair at a time
(``hfhat.algebra.multiply_basic``); the tests also multiply whole sums and
list every idempotent of a circle.
"""

from __future__ import annotations

from itertools import combinations

from hfhat.algebra import StrandsGenerator, idempotent, multiply_basic
from hfhat.pmc import PointedMatchedCircle


def multiply(x: frozenset, y: frozenset) -> frozenset:
    out: set = set()
    for a in x:
        for b in y:
            c = multiply_basic(a, b)
            if c is not None:
                out ^= {c}
    return frozenset(out)


def all_idempotents(pmc: PointedMatchedCircle) -> list[StrandsGenerator]:
    out = []
    for size in range(pmc.n_pairs + 1):
        for pairs in combinations(range(pmc.n_pairs), size):
            out.append(idempotent(pmc, pairs))
    return out
