"""Pointed matched circles, chords, and arc-slides.

A pointed matched circle encodes a closed oriented surface of genus k as an
oriented circle with 4k marked points matched in pairs, plus a basepoint z.
Points are labelled 1..4k in the order they appear after cutting the circle
open at z, so z sits between point 4k and point 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class InvalidCircleError(ValueError):
    """Raised for a matching that does not describe a surface."""


class InvalidSlideError(ValueError):
    """Raised when an arc-slide request violates the adjacency rules."""


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class PointedMatchedCircle:
    """4k points on a circle, matched in pairs, with a basepoint convention.

    ``pairs`` is the canonical form of the matching: a tuple of 2k sorted
    point-pairs, ordered by their smaller point.  Instances are immutable
    and hashable; all operations return new circles.
    """

    __slots__ = ("pairs", "n_points", "genus", "_pair_of", "_hash")

    def __init__(self, pairs):
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        n = 4 * len(canon) // 2
        seen = [pt for pair in canon for pt in pair]
        if sorted(seen) != list(range(1, len(seen) + 1)):
            raise InvalidCircleError(f"matching is not two-to-one on 1..{len(seen)}: {canon}")
        if len(canon) % 2 != 0:
            raise InvalidCircleError("need an even number of matched pairs (4k points)")
        self.pairs = canon
        self._hash = hash(canon)  # every strands diagram hashes its circle
        self.n_points = n
        self.genus = n // 4
        self._pair_of = {}
        for idx, (a, b) in enumerate(canon):
            self._pair_of[a] = idx
            self._pair_of[b] = idx
        if not self._surgery_connected():
            raise InvalidCircleError(f"surgery on {canon} yields a disconnected 1-manifold")

    def _surgery_connected(self) -> bool:
        # Arcs between consecutive points; arc i runs from point i to point
        # i+1, with arc 0 the basepoint arc from 4k back to 1.  Surgering a
        # matched 0-sphere {p,q} joins the arc below p to the arc above q
        # and vice versa.
        n = self.n_points
        if n == 0:
            return True
        parent = list(range(n))
        below = lambda p: (p - 1) % n
        above = lambda p: p % n
        for p, q in self.pairs:
            _union(parent, below(p), above(q))
            _union(parent, below(q), above(p))
        return len({_find(parent, a) for a in range(n)}) == 1

    def pair_of(self, point: int) -> int:
        return self._pair_of[point]

    def partner(self, point: int) -> int:
        a, b = self.pairs[self._pair_of[point]]
        return b if point == a else a

    @property
    def n_pairs(self) -> int:
        return self.n_points // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, PointedMatchedCircle) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PointedMatchedCircle({list(self.pairs)})"

    def to_json(self) -> dict:
        return {"points": self.n_points, "matching": [list(p) for p in self.pairs]}

    @staticmethod
    def from_json(data) -> "PointedMatchedCircle":
        """The circle of ``{"matching": [[a, b], ...]}`` with an optional
        ``points`` count; raises InvalidCircleError unless well formed."""
        matching = data.get("matching") if isinstance(data, dict) else None
        if not isinstance(matching, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
                for p in matching):
            raise InvalidCircleError(f"a circle needs a matching of integer pairs, got {data!r}")
        pmc = PointedMatchedCircle(matching)
        if pmc.n_points != data.get("points", pmc.n_points):
            raise InvalidCircleError("declared point count disagrees with matching")
        return pmc


def split_pmc(genus: int) -> PointedMatchedCircle:
    """Genus-g circle built from g standard torus blocks a,b,a',b'."""
    pairs = []
    for i in range(genus):
        base = 4 * i
        pairs.append((base + 1, base + 3))
        pairs.append((base + 2, base + 4))
    return PointedMatchedCircle(pairs)


def antipodal_pmc(genus: int) -> PointedMatchedCircle:
    """Genus-g circle with antipodal matching {i, i+2g}."""
    return PointedMatchedCircle([(i, i + 2 * genus) for i in range(1, 2 * genus + 1)])


def reverse_point(pmc: PointedMatchedCircle, point: int) -> int:
    """The orientation-reversing relabelling r(i) = 4k+1-i."""
    return pmc.n_points + 1 - point


def reverse_pmc(pmc: PointedMatchedCircle) -> PointedMatchedCircle:
    """The orientation-reversed circle -Z, with points relabelled by r."""
    n = pmc.n_points
    return PointedMatchedCircle([(n + 1 - b, n + 1 - a) for a, b in pmc.pairs])


def reversed_pair_map(pmc: PointedMatchedCircle) -> list[int]:
    """pair index of Z -> pair index of -Z under the relabelling r."""
    rev = reverse_pmc(pmc)
    return [rev.pair_of(reverse_point(pmc, a)) for a, _ in pmc.pairs]


def connected_sum(pmc1: PointedMatchedCircle, pmc2: PointedMatchedCircle) -> PointedMatchedCircle:
    """Concatenate two circles, pmc1's points first: z stays in pmc1's
    basepoint region."""
    shift = pmc1.n_points
    pairs = list(pmc1.pairs) + [(a + shift, b + shift) for a, b in pmc2.pairs]
    return PointedMatchedCircle(pairs)


@dataclass(frozen=True, order=True)
class Chord:
    """The interval [start, end] in the cut-open circle, start < end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"chord needs start < end, got [{self.start},{self.end}]")


def all_chords(pmc: PointedMatchedCircle) -> list[Chord]:
    n = pmc.n_points
    return [Chord(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class ArcSlide:
    """The slide of the foot b1 over the matched pair containing c1.

    b1 and c1 must be adjacent in the source circle with z not between
    them, and must belong to different pairs.  The target circle replaces
    b1 by a new foot b1' adjacent to c2 (the partner of c1), positioned so
    the arc from b1' to c2 runs against the arc from b1 to c1.
    """

    __slots__ = (
        "source", "b1", "c1", "b2", "c2", "target", "b1_new",
        "point_map", "pair_map", "kind",
    )

    def __init__(self, source: PointedMatchedCircle, b1: int, c1: int):
        n = source.n_points
        if not (1 <= b1 <= n and 1 <= c1 <= n):
            raise InvalidSlideError(f"points {b1},{c1} out of range 1..{n}")
        if abs(b1 - c1) != 1:
            raise InvalidSlideError(f"{b1} and {c1} are not adjacent away from z")
        if source.pair_of(b1) == source.pair_of(c1):
            raise InvalidSlideError(f"{b1} and {c1} are matched to each other")
        self.source = source
        self.b1 = b1
        self.c1 = c1
        self.b2 = source.partner(b1)
        self.c2 = source.partner(c1)

        # Remove b1 and insert b1' adjacent to c2, against the b1->c1 arc:
        # if c1 = b1+1 the new foot goes just above c2, otherwise just below.
        old_points = [p for p in range(1, n + 1) if p != b1]
        if c1 == b1 + 1:
            insert_at = old_points.index(self.c2) + 1
        else:
            insert_at = old_points.index(self.c2)
        order = old_points[:insert_at] + [0] + old_points[insert_at:]  # 0 marks b1'
        point_map = {old: i + 1 for i, old in enumerate(order) if old != 0}
        self.b1_new = order.index(0) + 1
        self.point_map = point_map

        pairs = []
        for a, b in source.pairs:
            a2 = self.b1_new if a == b1 else point_map[a]
            b2 = self.b1_new if b == b1 else point_map[b]
            pairs.append((a2, b2))
        self.target = PointedMatchedCircle(pairs)
        self.pair_map = [
            self.target.pair_of(self.b1_new if a == b1 else point_map[a])
            for a, _ in source.pairs
        ]

        lo, hi = min(c1, self.c2), max(c1, self.c2)
        self.kind = "under" if lo < b1 < hi else "over"

    @property
    def b_pair(self) -> int:
        return self.source.pair_of(self.b1)

    @property
    def c_pair(self) -> int:
        return self.source.pair_of(self.c1)

    def inverse(self) -> "ArcSlide":
        """The slide moving b1' back over the other foot of C."""
        inv = ArcSlide(self.target, self.b1_new, self.point_map[self.c2])
        if inv.target != self.source:
            raise InvalidSlideError("inverse slide does not return to the source circle")
        return inv

    def reflected(self) -> "ArcSlide":
        """The same slide on the orientation-reversed circle."""
        src = self.source
        return ArcSlide(reverse_pmc(src), reverse_point(src, self.b1), reverse_point(src, self.c1))

    def __repr__(self) -> str:
        return f"ArcSlide({self.source!r}, b1={self.b1}, c1={self.c1})"


def all_arcslides(pmc: PointedMatchedCircle) -> Iterator[ArcSlide]:
    """Every legal slide on the circle; 2 per unmatched adjacent point pair."""
    for p in range(1, pmc.n_points):
        q = p + 1
        if pmc.pair_of(p) != pmc.pair_of(q):
            yield ArcSlide(pmc, p, q)
            yield ArcSlide(pmc, q, p)
