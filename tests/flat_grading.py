"""Gradings of basic generators and the quarter-parity congruence.

The pipeline grades whole coefficients (``hfhat.grading.gr_coefficient``);
the tests grade single basic generators to check the group laws against
the algebra, and check that every grading meets the congruence between its
Maslov component and the parity changes of its chain.
"""

from __future__ import annotations

from hfhat.algebra import StrandsGenerator
from hfhat.grading import GradingElement


def parity_changes(alpha: tuple[int, ...]) -> int:
    seq = [0, *alpha, 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if (a - b) % 2)


def check_congruence(g: GradingElement) -> bool:
    """j must equal the quarter parity-change count modulo 1."""
    return (2 * g.j2 - parity_changes(g.chain)) % 4 == 0


def gr_generator(a: StrandsGenerator) -> GradingElement:
    """Big-group grading of a basic generator: crossings minus the average
    multiplicity of the support along the initial points of all strands."""
    return GradingElement(a.iota2, a.supp)
