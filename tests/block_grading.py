"""Reference grading arithmetic over tuples of per-block tuples.

The test oracles compute in this form, independently of the flat chains of
``hfhat.grading``; the two forms meet only where results are compared,
through ``to_blocks`` and ``to_flat``.  A flat chain is its blocks end to
end with one 0 between adjacent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from hfhat.grading import GradingElement


@dataclass(frozen=True)
class BlockElement:
    j2: int
    alphas: tuple[tuple[int, ...], ...]

    def __mul__(self, other: "BlockElement") -> "BlockElement":
        assert len(self.alphas) == len(other.alphas)
        twist2 = sum(_m2_boundary(a2, a1) for a1, a2 in zip(self.alphas, other.alphas))
        alphas = tuple(tuple(map(add, a1, a2)) for a1, a2 in zip(self.alphas, other.alphas))
        return BlockElement(self.j2 + other.j2 + twist2, alphas)

    def inverse(self) -> "BlockElement":
        return self.power(-1)

    def power(self, n: int) -> "BlockElement":
        return BlockElement(n * self.j2, tuple(tuple(n * x for x in a) for a in self.alphas))

    @property
    def is_identity(self) -> bool:
        return self.j2 == 0 and all(all(x == 0 for x in a) for a in self.alphas)

    def flat(self) -> tuple[int, ...]:
        """The blocks end to end, without separators."""
        return tuple(x for a in self.alphas for x in a)


def _m2_boundary(alpha, beta) -> int:
    return sum(b0 * a1 - a0 * b1 for a0, a1, b0, b1 in zip(alpha, alpha[1:], beta, beta[1:]))


def block_identity(sizes, j2: int = 0) -> BlockElement:
    return BlockElement(j2, tuple((0,) * s for s in sizes))


def block_congruence(g: BlockElement) -> bool:
    def parity_changes(alpha):
        seq = [0, *alpha, 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if (a - b) % 2)

    return (2 * g.j2 - sum(parity_changes(a) for a in g.alphas)) % 4 == 0


def place_blocks(g: BlockElement, sizes, positions) -> BlockElement:
    """Embed g's blocks into a wider stack at the given positions."""
    alphas = [(0,) * s for s in sizes]
    for block, pos in zip(g.alphas, positions):
        assert len(block) == sizes[pos]
        alphas[pos] = tuple(x + y for x, y in zip(alphas[pos], block))
    return BlockElement(g.j2, tuple(alphas))


def to_blocks(g: GradingElement, sizes) -> BlockElement:
    blocks, start = [], 0
    for size in sizes:
        blocks.append(tuple(g.chain[start:start + size]))
        assert start + size == len(g.chain) or g.chain[start + size] == 0
        start += size + 1
    assert len(g.chain) == max(start - 1, 0)
    return BlockElement(g.j2, tuple(blocks))


def to_flat(g: BlockElement) -> GradingElement:
    chain: list[int] = []
    for i, a in enumerate(g.alphas):
        chain.extend(((0,) if i else ()) + a)
    return GradingElement(g.j2, tuple(chain))
