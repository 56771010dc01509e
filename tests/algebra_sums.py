"""F2 sums of basic strands generators, as the tests build them.

The pipeline multiplies basic generators one pair at a time
(``hfhat.algebra.multiply_basic``) and enumerates diagrams one idempotent
block at a time (``hfhat.algebra.Block``); the tests also multiply whole
sums, list every idempotent of a circle, and enumerate a circle's whole
basis by its moving strands, the oracle the blocks are checked against.
"""

from __future__ import annotations

from itertools import combinations

import hfhat.algebra as alg
from hfhat.algebra import StrandsGenerator, completions, idempotent, multiply_basic
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


_bases: dict = {}  # circle -> (its strands table, its basis)


def full_basis(pmc: PointedMatchedCircle) -> list[StrandsGenerator]:
    """All basic generators of every weight, in basis order: every set of
    starts on distinct pairs, every upward assignment of ends on further
    distinct pairs, and every set of the free pairs as horizontals.  A
    basis is kept only while its circle's strands table is the current
    one, so a test that resets ``hfhat.algebra._tables`` gets fresh
    diagrams."""
    table = alg._strands(pmc)
    kept = _bases.get(pmc)
    if kept is None or kept[0] is not table:
        kept = _bases[pmc] = (table, _enumerate(pmc))
    return kept[1]


def _enumerate(pmc):
    out = []
    for num_moving in range(pmc.n_pairs + 1):
        for starts in combinations(range(1, pmc.n_points + 1), num_moving):
            if len({pmc.pair_of(s) for s in starts}) == num_moving:
                for moving in _assignments(pmc, starts):
                    out.extend(completions(pmc, moving))
    out.sort(key=StrandsGenerator.sort_key)
    return out


def _assignments(pmc, starts, chosen=()):
    if not starts:
        yield chosen
        return
    s = starts[0]
    taken_ends = {e for _, e in chosen}
    taken_pairs = {pmc.pair_of(e) for _, e in chosen}
    for e in range(s + 1, pmc.n_points + 1):
        if e in taken_ends or pmc.pair_of(e) in taken_pairs:
            continue
        yield from _assignments(pmc, starts[1:], chosen + ((s, e),))
