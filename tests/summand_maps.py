"""Algebra maps the tests check the strands algebra against.

Truncation is the quotient by the differential ideal of local multiplicity
two or more; the summand restriction is the quotient map from the algebra
of a connected sum Z # Z0 to the algebra of Z at a fixed idempotent of Z0.
The pipeline uses neither: it truncates through ``StrandsGenerator.kept``.
"""

from __future__ import annotations

from hfhat.algebra import StrandsGenerator
from hfhat.pmc import PointedMatchedCircle


def truncate_element(x: frozenset) -> frozenset:
    """Quotient by the differential ideal of local multiplicity >= 2."""
    return frozenset(a for a in x if a.kept)


def summand_restriction(
    a: StrandsGenerator,
    keep_points: int,
    sum_pmc: PointedMatchedCircle,
    part_pmc: PointedMatchedCircle,
    base_pairs: frozenset,
) -> StrandsGenerator | None:
    """One basic-generator step of the quotient map A(Z#Z0) -> A(Z).

    keep_points is the number of points of the first summand Z; the
    generator dies unless its support stays inside Z and its horizontals on
    Z0 are exactly base_pairs (which are stripped).
    """
    if any(s > keep_points or e > keep_points for s, e in a.moving):
        return None
    inner, outer = [], []
    for h in a.horizontals:
        (p, _q) = sum_pmc.pairs[h]
        (inner if p <= keep_points else outer).append(h)
    if frozenset(outer) != base_pairs:
        return None
    pair_map = {}
    for h in inner:
        p, q = sum_pmc.pairs[h]
        pair_map[h] = part_pmc.pair_of(p)
    return StrandsGenerator(part_pmc, a.moving, sorted(pair_map[h] for h in inner))


def quotient_map(
    x: frozenset,
    keep_points: int,
    sum_pmc: PointedMatchedCircle,
    part_pmc: PointedMatchedCircle,
    base_pairs,
) -> frozenset:
    base = frozenset(base_pairs)
    out: set = set()
    for a in x:
        b = summand_restriction(a, keep_points, sum_pmc, part_pmc, base)
        if b is not None:
            out ^= {b}
    return frozenset(out)
