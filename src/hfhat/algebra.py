"""The strands algebra of a pointed matched circle, over F2.

Basic generators are strands diagrams: upward strands in the cut-open
circle together with matched pairs of horizontal strands.  F2-linear
combinations are plain frozensets of generators; addition is symmetric
difference.
"""

from __future__ import annotations

from itertools import combinations, count, product

from .pmc import PointedMatchedCircle, reverse_pmc, reverse_point, reversed_pair_map


class _Strands:
    """The strands algebra's view of one circle, keyed in ``_tables`` by
    the circle's ``pairs``, so equal circles built apart share it.

    ``diagrams`` interns every valid diagram, identity diagrams included
    (``idempotent``), under its normalised (moving, horizontals) key only,
    so a diagram is validated once however often it is named, and a
    product (valid by construction) is not validated at all.  ``values``
    holds one object per distinct pair set and support tuple, each keyed by
    itself: diagrams and generator idempotents take theirs from it
    (``pair_set``), so a circle keeps at most 2^(2g) pair sets however many
    diagrams it has.
    ``blocks`` holds one ``Block`` per (left pairs, right pairs,
    truncated), each made on first use; together they are the circle's
    basis.  The reversed circle is filled in on first use.
    """

    __slots__ = ("diagrams", "values", "blocks", "reverse")

    def __init__(self):
        self.diagrams: dict = {}
        self.values: dict = {}
        self.blocks: dict = {}
        # (-Z, pair index of Z -> pair index of -Z); points map by reverse_point
        self.reverse: tuple | None = None


_tables: dict = {}
_ids = count()


def _strands(pmc: PointedMatchedCircle) -> _Strands:
    table = _tables.get(pmc.pairs)
    if table is None:
        table = _tables[pmc.pairs] = _Strands()
    return table


def diagrams(pmc: PointedMatchedCircle) -> dict:
    """The circle's interned diagrams by normalised (moving, horizontals)
    tuples: a lookup that hits needs no ``StrandsGenerator`` call."""
    return _strands(pmc).diagrams


def pair_set(pmc: PointedMatchedCircle, pairs) -> frozenset:
    """The circle's one frozenset of the matched pairs ``pairs``."""
    pairs = frozenset(pairs)
    return _strands(pmc).values.setdefault(pairs, pairs)


class StrandsGenerator:
    """A basic strands diagram, interned: naming a diagram twice over one
    circle gives the same object, so equality is identity.

    moving:      sorted tuple of (start, end) with start < end
    horizontals: sorted tuple of pair indices; each contributes both
                 matched horizontal strands
    kept:        every local multiplicity is at most one, so the diagram
                 survives truncation
    id:          a small integer naming the diagram among all circles'
                 diagrams; products are cached by packed id pairs
    """

    __slots__ = ("pmc", "moving", "horizontals", "left_pairs", "right_pairs",
                 "supp", "inv", "iota2", "weight", "kept", "id", "_hash")

    def __new__(cls, pmc: PointedMatchedCircle, moving, horizontals):
        diagrams = _strands(pmc).diagrams
        key = (tuple(sorted(tuple(m) for m in moving)), tuple(sorted(horizontals)))
        self = diagrams.get(key)
        if self is None:
            self = super().__new__(cls)
            self._build(pmc, *key)  # a ValueError leaves no entry
            diagrams[key] = self
        return self

    def _build(self, pmc, moving, horizontals) -> None:
        """Validate a new diagram and fill in its derived fields."""
        starts = [s for s, _ in moving]
        ends = [e for _, e in moving]
        if any(s >= e for s, e in moving):
            raise ValueError(f"strand must move up: {moving}")
        if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
            raise ValueError(f"duplicate starts or ends in {moving}")
        start_pairs = [pmc.pair_of(s) for s in starts]
        end_pairs = [pmc.pair_of(e) for e in ends]
        if len(set(start_pairs)) != len(start_pairs) or len(set(end_pairs)) != len(end_pairs):
            raise ValueError(f"matched points both used as starts (or ends): {moving}")
        hset = set(horizontals)
        if len(hset) != len(horizontals):
            raise ValueError("duplicate horizontal pair")
        if hset & set(start_pairs) or hset & set(end_pairs):
            raise ValueError("horizontal pair collides with a moving endpoint")
        self._fill(pmc, moving, horizontals)

    def _fill(self, pmc, moving, horizontals) -> None:
        """The derived fields of a valid diagram on its normalised key."""
        starts = [s for s, _ in moving]
        hset = set(horizontals)
        self.pmc = pmc
        self.moving = moving
        self.horizontals = horizontals
        self.left_pairs = pair_set(pmc, hset.union(map(pmc.pair_of, starts)))
        self.right_pairs = pair_set(pmc, hset.union(pmc.pair_of(e) for _, e in moving))
        self.weight = len(moving) + len(horizontals) - pmc.genus

        supp = [0] * max(pmc.n_points - 1, 0)
        for s, e in moving:
            for i in range(s, e):
                supp[i - 1] += 1
        supp = tuple(supp)
        self.supp = _strands(pmc).values.setdefault(supp, supp)
        self.kept = all(m <= 1 for m in supp)

        h_points = [p for h in horizontals for p in pmc.pairs[h]]
        # a horizontal at p crosses the strand (s, e) exactly when s < p < e
        inv = self.inv = _inv_of_strands([*moving, *((p, p) for p in h_points)])
        # doubled Maslov component: crossings minus the average support
        # multiplicity at every strand's initial point
        m2 = 0
        for p in starts + h_points:
            m2 += (supp[p - 2] if p >= 2 else 0) + (supp[p - 1] if p - 1 < len(supp) else 0)
        self.iota2 = 2 * inv - m2
        self.id = next(_ids)
        self._hash = hash((pmc, moving, horizontals))

    @property
    def is_idempotent(self) -> bool:
        return not self.moving

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        segs = [f"{s}->{e}" for s, e in self.moving]
        segs += [f"h{h}" for h in self.horizontals]
        return "Strands(" + ",".join(segs) + ")"

    def sort_key(self):
        return (self.moving, self.horizontals)

    def to_json(self) -> dict:
        return {"moving": [list(m) for m in self.moving],
                "horizontals": list(self.horizontals)}

    def ascii(self) -> str:
        """Crude strand picture, one row per point, bottom row = point 1."""
        rows = []
        for p in range(self.pmc.n_points, 0, -1):
            mark = "."
            for s, e in self.moving:
                if s == p:
                    mark = "/"
                elif e == p:
                    mark = "\\"
            if self.pmc.pair_of(p) in self.horizontals:
                mark = "-"
            rows.append(f"{p:3d} {mark}")
        return "\n".join(rows)


def _interned_product(pmc: PointedMatchedCircle, moving: tuple, horizontals: tuple):
    """The interned diagram on the normalised key of a surviving product,
    filled in without validation: a product of valid diagrams is valid."""
    table = _strands(pmc).diagrams
    out = table.get((moving, horizontals))
    if out is None:
        out = table[moving, horizontals] = object.__new__(StrandsGenerator)
        out._fill(pmc, moving, horizontals)
    return out


def idempotent(pmc: PointedMatchedCircle, pairs) -> StrandsGenerator:
    """The interned identity diagram of the idempotent on ``pairs``."""
    return StrandsGenerator(pmc, (), tuple(sorted(pairs)))


_mul_cache: dict = {}
_diff_cache: dict = {}
_EMPTY: frozenset = frozenset()  # every vanishing differential


def cached_products() -> dict:
    """The product cache, ``a.id << 32 | b.id`` -> ``multiply_basic(a, b)``,
    for loops that read many products: a missing key is a pair not yet
    multiplied."""
    return _mul_cache


def multiply_basic(a: StrandsGenerator, b: StrandsGenerator) -> StrandsGenerator | None:
    """Product of basic generators; None when it vanishes (see
    _multiply_basic_uncached).  Cached under the packed key
    ``a.id << 32 | b.id``, which names the pair while ids stay below 2**32."""
    key = a.id << 32 | b.id
    try:
        return _mul_cache[key]
    except KeyError:
        pass
    if a.pmc.pairs != b.pmc.pairs:  # the circles' equality, as a tuple compare
        raise ValueError("cannot multiply generators over different circles")
    result = _mul_cache[key] = _multiply_basic_uncached(a, b)
    return result


def _multiply_basic_uncached(a, b):
    """One pass over a's strands through b's start-to-end map.

    The product vanishes when a's right idempotent is not b's left one,
    when a moving strand of a does not continue into b, or when two
    composite strands cross twice.  The idempotent test stands for the
    strand-level rules: every moving start of b is reached, and some half
    of each horizontal of a continues and of each horizontal of b is
    reached.  A half-horizontal that is neither continued nor reached is
    dropped; the remaining strands are straightened.
    """
    if a.right_pairs != b.left_pairs:
        return None
    pairs = a.pmc.pairs
    ends = dict(b.moving)
    for h in b.horizontals:
        for p in pairs[h]:
            ends[p] = p
    composite = []
    for s, m in a.moving:
        if m not in ends:
            return None
        composite.append((s, m, ends[m]))
    for h in a.horizontals:
        composite += [(p, p, ends[p]) for p in pairs[h] if p in ends]

    for (s1, m1, e1), (s2, m2, e2) in combinations(composite, 2):
        cross_lower = (s1 < s2) != (m1 < m2)
        cross_upper = (m1 < m2) != (e1 < e2)
        if cross_lower and cross_upper:
            return None

    moving = tuple(sorted((s, e) for s, _, e in composite if s != e))
    horizontals = tuple(h for h in a.horizontals if h in b.horizontals)
    return _interned_product(a.pmc, moving, horizontals)


def _inv_of_strands(strands) -> int:
    """Crossing count of a list of (start, end) strands, straightened."""
    inv = 0
    for (s1, e1), (s2, e2) in combinations(strands, 2):
        if (s1 < s2) != (e1 < e2):
            inv += 1
    return inv


def differential_basic(a: StrandsGenerator) -> frozenset:
    """Sum of upward resolutions at crossings; double crossings die.

    The double-crossing test runs on the resolved diagram before any
    mate-less horizontal is dropped, so crossings with the doomed
    horizontal still count against the resolution.  Every vanishing
    differential is the one shared empty frozenset.  Cached by ``a.id``.
    """
    result = _diff_cache.get(a.id)
    if result is not None:
        return result
    pmc = a.pmc
    out: set = set()
    moving = list(a.moving)
    h_strands = [(p, p) for h in a.horizontals for p in pmc.pairs[h]]
    for i, j in combinations(range(len(moving)), 2):
        s1, e1 = moving[i]
        s2, e2 = moving[j]
        if (s1 < s2) == (e1 < e2):
            continue
        new_moving = [m for k, m in enumerate(moving) if k not in (i, j)]
        new_moving += [(s1, e2), (s2, e1)]
        if _inv_of_strands(new_moving + h_strands) == a.inv - 1:
            out ^= {StrandsGenerator(pmc, new_moving, a.horizontals)}
    for i, (s, e) in enumerate(moving):
        for h in a.horizontals:
            for p in pmc.pairs[h]:
                if not s < p < e:
                    continue
                new_moving = [m for k, m in enumerate(moving) if k != i]
                new_moving += [(s, p), (p, e)]
                ghost = [(q, q) for hh in a.horizontals for q in pmc.pairs[hh] if q != p]
                if _inv_of_strands(new_moving + ghost) != a.inv - 1:
                    continue
                new_h = [x for x in a.horizontals if x != h]
                out ^= {StrandsGenerator(pmc, new_moving, new_h)}
    result = _diff_cache[a.id] = frozenset(out) or _EMPTY
    return result


def differential(x: frozenset) -> frozenset:
    out: set = set()
    for a in x:
        out ^= differential_basic(a)
    return frozenset(out)


def idempotents(pmc: PointedMatchedCircle) -> list[frozenset]:
    """The circle's pair sets, one per idempotent: by size, then in
    ``combinations`` order."""
    n = pmc.n_pairs
    return [pair_set(pmc, pairs) for size in range(n + 1) for pairs in combinations(range(n), size)]


def basis(pmc: PointedMatchedCircle, weight: int) -> list[StrandsGenerator]:
    """All basic generators of the given weight, lexicographically ordered:
    the blocks between idempotents on genus + weight pairs."""
    ids = [i for i in idempotents(pmc) if len(i) == pmc.genus + weight]
    return sorted((a for left in ids for right in ids for a in block(pmc, left, right).basics),
                  key=StrandsGenerator.sort_key)


class Block:
    """The basics of a circle's algebra from the idempotent ``left`` to
    ``right``, as positions: only those that survive truncation if
    ``truncated``.

    The blocks are the one enumeration of the circle's diagrams: ``basis``
    is their union.  ``basics`` are enumerated directly (see
    ``_enumerate_block``) in basis order, and ``position`` numbers them.
    ``d[i]`` lists the positions of the terms of the differential of basic
    i, in the order of ``differential_basic``, without the terms
    truncation drops.
    ``left_by(e)`` and ``right_by(e)`` give, for each position, the
    position of e times the basic or the basic times e in its own block,
    or -1 where the product dies or truncation drops it; they are cached
    by e's id.
    """

    __slots__ = ("pmc", "left", "right", "truncated", "basics", "position", "d",
                 "_left_by", "_right_by")

    def __init__(self, pmc: PointedMatchedCircle, left: frozenset, right: frozenset,
                 truncated: bool):
        self.pmc, self.left, self.right, self.truncated = pmc, left, right, truncated
        basics = _enumerate_block(pmc, left, right)
        if truncated:
            basics = [a for a in basics if a.kept]
        self.basics = basics
        self.position = position = {a: i for i, a in enumerate(basics)}
        self.d = [tuple(position[t] for t in differential_basic(a) if t.kept or not truncated)
                  for a in basics]
        self._left_by: dict = {}
        self._right_by: dict = {}

    def _positions(self, products, target: "Block") -> list[int]:
        position, truncated = target.position, self.truncated
        return [-1 if p is None or (truncated and not p.kept) else position[p] for p in products]

    def left_by(self, e: StrandsGenerator) -> list[int]:
        """Positions of e * a in block(e.left, right), a running over the basics."""
        out = self._left_by.get(e.id)
        if out is None:
            target = block(self.pmc, e.left_pairs, self.right, self.truncated)
            out = self._left_by[e.id] = self._positions(
                [multiply_basic(e, a) for a in self.basics], target)
        return out

    def right_by(self, e: StrandsGenerator) -> list[int]:
        """Positions of a * e in block(left, e.right), a running over the basics."""
        out = self._right_by.get(e.id)
        if out is None:
            target = block(self.pmc, self.left, e.right_pairs, self.truncated)
            out = self._right_by[e.id] = self._positions(
                [multiply_basic(a, e) for a in self.basics], target)
        return out


def block(pmc: PointedMatchedCircle, left: frozenset, right: frozenset,
          truncated: bool = False) -> Block:
    """The circle's one ``Block`` from ``left`` to ``right``."""
    blocks = _strands(pmc).blocks
    key = (left, right, truncated)
    out = blocks.get(key)
    if out is None:
        out = blocks[key] = Block(pmc, left, right, truncated)
    return out


def _enumerate_block(pmc, left, right) -> list[StrandsGenerator]:
    """Every diagram from the idempotent ``left`` to ``right``, in basis
    order: horizontals H on pairs of both, and moving strands from one
    foot of each pair of left - H up to one foot of each pair of right - H,
    in every upward matching."""
    out = []
    if len(left) != len(right):
        return out
    pairs = pmc.pairs
    shared = sorted(left & right)
    for size in range(len(shared) + 1):
        for hs in combinations(shared, size):
            ends = [pairs[q] for q in sorted(right.difference(hs))]
            for starts in product(*(pairs[p] for p in sorted(left.difference(hs)))):
                for moving in _matchings(starts, ends):
                    out.append(StrandsGenerator(pmc, tuple(sorted(moving)), hs))
    out.sort(key=StrandsGenerator.sort_key)
    return out


def _matchings(starts, ends, chosen=()):
    """Every way to send each start up to a foot of its own pair of ``ends``."""
    if not starts:
        yield chosen
        return
    s = starts[0]
    for i, feet in enumerate(ends):
        rest = ends[:i] + ends[i + 1:]
        for e in feet:
            if e > s:
                yield from _matchings(starts[1:], rest, chosen + ((s, e),))


def reversal(pmc: PointedMatchedCircle) -> tuple[PointedMatchedCircle, list[int]]:
    """The reversed circle -Z with the map from pairs of Z to pairs of -Z,
    built once per circle."""
    table = _strands(pmc)
    if table.reverse is None:
        table.reverse = (reverse_pmc(pmc), reversed_pair_map(pmc))
    return table.reverse


def completions(pmc: PointedMatchedCircle, moving):
    """Every diagram with the moving strands ``moving``: one for each set of
    the pairs they leave free as horizontals, by size and then in
    ``combinations`` order."""
    used = {pmc.pair_of(p) for m in moving for p in m}
    free = [h for h in range(pmc.n_pairs) if h not in used]
    for size in range(len(free) + 1):
        for hs in combinations(free, size):
            yield StrandsGenerator(pmc, moving, hs)


def chordset_element(pmc: PointedMatchedCircle, chords, weight: int | None = None) -> frozenset:
    """Sum over all valid horizontal completions of several moving strands.

    The empty chord set gives the sum of all idempotents (restricted to one
    weight if requested).
    """
    chords = list(chords)
    moving = tuple((c.start, c.end) for c in chords)
    try:
        StrandsGenerator(pmc, moving, ())
    except ValueError:
        return frozenset()
    return frozenset(a for a in completions(pmc, moving) if weight is None or a.weight == weight)


def opposite_basic(a: StrandsGenerator) -> StrandsGenerator:
    """Transport a generator to the reversed circle; anti-homomorphism."""
    pmc = a.pmc
    rev, pair_map = reversal(pmc)
    moving = [(reverse_point(pmc, e), reverse_point(pmc, s)) for s, e in a.moving]
    horizontals = [pair_map[h] for h in a.horizontals]
    return StrandsGenerator(rev, moving, horizontals)
