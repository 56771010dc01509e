"""Gradings: the big grading group, coset lattices, and a word's action on H_1.

Group elements are pairs (j, alpha) with j a half-integer Maslov component
and alpha a one-chain of interval multiplicities, one block of coordinates
per algebra factor of the graded structure.  j is stored doubled so all
arithmetic is exact.

An element holds its chain flat: all blocks end to end, with one 0 between
adjacent blocks.  The twist and the parity count only ever pair adjacent
coordinates, and every pair across a separator has a 0, so sums over the
whole chain equal the sums block by block.  ``chain_length``,
``stack_blocks``, ``split_blocks`` and ``join`` expose that layout, and
the separator split below says how chains cut at a separator recombine.

The product is (j, a)(k, b) = (j + k + t(a, b), a + b), twisted by the
average local multiplicity of b along the boundary of a: doubled,
t(a, b) = a . Db with (Db)_i = b_{i+1} - b_{i-1}, coordinates outside the
chain being 0.  t is bilinear and antisymmetric, so b^k = (k*j, k*b), and
the hot paths use closed forms that touch only coordinates that can be
nonzero:

* row operation: h * b^k adds k*b to h's chain and
  k*(j_b + sum over j in supp b of b_j (h_{j-1} - h_{j+1})) to its j2;
* arrow loop: for an arrow x -> y with coefficient c and representatives
  (jx, rx), (jy, ry), the loop gr(y)^-1 (lambda gr(c))^-1 gr(x) has chain
  rx - ry - c and j2 = jx - jy - jc - 2 - t(ry, rx) + t(rx + ry, c), which
  is jx - jy - jc - 2 + t(rx + ry, ry + c) as t(ry, ry) = 0;
* Mor arrow loops from the factors' arrows: a generator (x, a, y) of
  Mor(M, N) has rep X gr(a) gr(y), X the transported gr(x)^-1, and each
  of its arrows comes from one factor arrow.  A coefficient-differential
  arrow has the identity loop, since gr(da) = lambda^-1 gr(a); an arrow
  from N's y -> y2 has N's own loop, whatever x and a are; an arrow from
  M's x0 -> x, whose coefficient is e_c on the consumed blocks and k on
  the kept one, has the loop g^-1 h g with g = gr(a) gr(y) and the core
  h = gr(e_c)^-1 X0^-1 gr(k)^-1 lambda^-1 X, one per M-arrow: the arrow
  loop of k from X to X0 gr(e_c).  ``MorGrading`` and ``MorPlan`` key these
  loops through ``arrow_loop``, the one evaluation of every arrow loop;
* conjugation: g^-1 h g = (j_h + 2 t(h, g), h), so a Mor arrow's loop is
  keyed by one dot product of g against its core's boundary.  g's chain
  is gr(a)'s plus gr(y)'s, so the key's j2 splits into a part per (y,
  core) (``MorGrading.m_loop_part``) less a part per (core, a)
  (``MorPlan.coef_shifts``), each computed once;
* propagation step: with (jg, g) = lambda gr(c), the rep g^-1 (jx, rx)
  across an arrow walked forward is (jx - jg - t(g, rx), rx - g), and
  g (jx, rx) walked backward is (jx + jg + t(g, rx), rx + g);
* propagation loop: gr(src)^-1 g gr(tgt) with gr(src) = (ja, a),
  gr(tgt) = (jb, b) and m = g - a is (jb - ja + jg - t(a, g) + t(m, b), m + b),
  the inverse of the arrow loop.  Propagation keeps this form on its
  (j2, chain) pairs: through ``arrow_loop`` (elements built, the loop
  negated) it grades the 294 genus-2 catalogue bimodules 10-20% slower;
* separator split: for k the index of a block separator,
  t(a, b) = t(a[:k], b[:k]) + t(a[k:], b[k:]), so elements on disjoint
  blocks commute and multiply by concatenation.  ``join_gradings`` joins
  a tensor product's two sides' gradings this way, and
  ``Gradings.eliminate`` drops leading blocks that every generator shares.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from copy import copy
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import add, mul, sub

from .algebra import StrandsGenerator


class StructureError(RuntimeError):
    """An internal invariant (such as d squared = 0) failed."""


@dataclass(frozen=True, slots=True)
class GradingElement:
    j2: int  # doubled Maslov component
    chain: tuple[int, ...]  # the factors' multiplicity blocks, 0-separated

    def __mul__(self, other: "GradingElement") -> "GradingElement":
        a, b = self.chain, other.chain
        if len(a) != len(b):
            raise ValueError("grading elements live over different factor lists")
        return GradingElement(self.j2 + other.j2 + _twist2(a, b), tuple(map(add, a, b)))

    def inverse(self) -> "GradingElement":
        return self.power(-1)

    def power(self, n: int) -> "GradingElement":
        """g^n = (n*j + n(n-1)/2 * m(alpha, d alpha), n*alpha) for every integer n.

        The twist is bilinear, so the k-th factor of the product adds
        (k-1) times m(alpha, d alpha).  It is also antisymmetric, so that
        term vanishes and g^n = (n*j, n*alpha).
        """
        return GradingElement(n * self.j2, tuple(map(n.__mul__, self.chain)))

    @property
    def is_identity(self) -> bool:
        return self.j2 == 0 and not any(self.chain)


def _twist2(a, b) -> int:
    """Doubled twist t(a, b) of a product with chains a then b: m(b, d a), the
    boundary of a evaluated against the two-sided average multiplicity of
    b.  It is bilinear and antisymmetric."""
    return sum(map(mul, a, b[1:])) - sum(map(mul, b, a[1:]))


def _twist_on(row, supp) -> int:
    """t(h, b) for h a working row and b given by its padded support."""
    return sum(v * (row[i - 1] - row[i + 1]) for i, v in supp)


def _row_op(row, supp, j2: int, k: int) -> None:
    """row := row * b^k in place, for b given by its padded support and j2."""
    row[-1] += k * (j2 + _twist_on(row, supp))
    for i, v in supp:
        row[i] += k * v


def _boundary(b) -> tuple[int, ...]:
    """(Db)_i = b_{i+1} - b_{i-1} for i up to len(b), so t(a, b) = a . Db."""
    return tuple(map(sub, (*b[1:], 0, 0), (0, *b)))


def chain_length(sizes) -> int:
    """Length of the flat chain of blocks of the given sizes."""
    return sum(sizes) + len(sizes) - 1 if sizes else 0


def stack_blocks(blocks) -> tuple[int, ...]:
    """The flat chain of a list of blocks."""
    out: list[int] = []
    for i, block in enumerate(blocks):
        if i:
            out.append(0)
        out.extend(block)
    return tuple(out)


def split_blocks(chain, sizes) -> list[tuple[int, ...]]:
    """The blocks of a flat chain laid out by ``sizes``."""
    out, start = [], 0
    for size in sizes:
        out.append(tuple(chain[start:start + size]))
        start += size + 1
    return out


def join(g: GradingElement, h: GradingElement) -> GradingElement:
    """g on the leading blocks times h on the blocks after them: by the
    separator split, their chains concatenate across one separator, which
    stays when a side is one block of size 0.  Both sides need blocks."""
    return GradingElement(g.j2 + h.j2, (*g.chain, 0, *h.chain))


def join_gradings(m: Gradings, n: Gradings, generators) -> Gradings:
    """A tensor product's grading set on its generators (u, v): m's blocks
    then n's, each side's reps and relations joined with the other's."""
    m_one, n_one = (GradingElement(0, (0,) * chain_length(g.sizes)) for g in (m, n))
    reps = {(u, v): join(m.reps[u], n.reps[v]) for u, v in generators}
    relations = [join(r, n_one) for r in m.relations] + [join(m_one, r) for r in n.relations]
    return Gradings(m.sizes + n.sizes, reps, relations)


def gr_coefficient(coef: tuple[StrandsGenerator, ...], sizes: tuple[int, ...]) -> GradingElement:
    """Grading of a basic coefficient of a multi-factor structure."""
    if tuple(len(a.supp) for a in coef) != tuple(sizes):
        raise ValueError("coefficient does not match the factor sizes")
    return GradingElement(sum(a.iota2 for a in coef), stack_blocks(a.supp for a in coef))


# ---------------------------------------------------------------------------
# Relation subgroups


class RelationLattice:
    """The subgroup generated by a list of grading elements.

    Supports orbit membership for the homological part and the achievable
    set of lambda powers, which is j0 + n*Z for a torsion modulus n.

    A row operation is the group product h * b^k in the closed form of the
    module docstring, on a working row [0, *chain, 0, j2]: the chain padded
    with one 0 at each end (column col at index col + 1), then j2.
    Separator columns are never pivots.

    The echelon basis holds subgroup elements, one per pivot column, and is
    reached by exact group products only, so it generates the same subgroup
    as the relations.  A relation that reduces to the zero chain is a pure
    lambda power read from its own j2; together with the commutators of the
    basis, 2*t(a, b), these generate every lambda power in the subgroup,
    and their gcd is the torsion modulus.  Any two subgroup elements with
    the same chain differ by such a lambda power, so a degree taken modulo
    the torsion does not depend on which basis the reduction chose.
    """

    def __init__(self, relations: list[GradingElement], sizes: tuple[int, ...]):
        self.length = chain_length(sizes)
        tor = 0
        rows = []
        for r in relations:
            if any(r.chain):
                rows.append([0, *r.chain, 0, r.j2])
            else:
                tor = gcd(tor, r.j2)
        basis = []  # (padded pivot column, working row, its support)
        for col in range(1, self.length + 1):
            live = [row for row in rows if row[col]]
            if not live:
                continue
            rows = [row for row in rows if not row[col]]
            while True:  # Euclid on the column
                piv = min(live, key=lambda row: abs(row[col]))
                supp = [(i, v) for i, v in enumerate(piv[:-1]) if v]  # padded support
                live_next = [piv]
                for row in live:
                    if row is piv:
                        continue
                    _row_op(row, supp, piv[-1], -(row[col] // piv[col]))
                    if row[col]:
                        live_next.append(row)
                    elif any(row[:-1]):
                        rows.append(row)
                    else:
                        tor = gcd(tor, row[-1])
                live = live_next
                if len(live) == 1:
                    break
            basis.append((col, piv, supp))
        for i, (_, a, _) in enumerate(basis):
            for _, _, supp in basis[i + 1:]:
                tor = gcd(tor, 2 * _twist_on(a, supp))
        self._basis = [(col, GradingElement(row[-1], tuple(row[1:-2])), supp)
                       for col, row, supp in basis]
        self.lambda_torsion2 = tor

    def generators(self) -> list[GradingElement]:
        """The echelon basis plus one pure lambda power carrying the torsion."""
        out = [b for _, b, _ in self._basis]
        if self.lambda_torsion2:
            out.append(GradingElement(self.lambda_torsion2, (0,) * self.length))
        return out

    def reduce(self, g: GradingElement):
        """j2 of g * h for some subgroup element h cancelling g's chain, or
        None if g's chain is not in the lattice.  It is defined modulo the
        lambda torsion."""
        row = [0, *g.chain, 0, g.j2]
        for col, b, supp in self._basis:
            if row[col]:
                q, r = divmod(row[col], b.chain[col - 1])
                if r:
                    return None
                _row_op(row, supp, b.j2, -q)
        if any(row[:-1]):
            return None
        return row[-1]

    def contains(self, g: GradingElement) -> bool:
        """Whether g lies in the subgroup: its chain reduces away and the j2
        left over is a lambda power of the subgroup, a multiple of the
        torsion."""
        j2 = self.reduce(g)
        tor = self.lambda_torsion2
        return j2 is not None and (j2 % tor == 0 if tor else j2 == 0)


class ProductReps(Mapping):
    """Representatives held as products of factor elements, each multiplied
    out when it is first read and cut to its chain from index ``start`` on.

    A Mor stage has a rep for every generator, but ``cancel`` keeps few of
    them, so only the reps that are read are built.  A product's chain is
    the sum of its factors' chains, so a rep's chain is known unbuilt.
    """

    def __init__(self, products: dict, start: int = 0):
        self.products = products  # key -> its factor elements, multiplied left to right
        self.start = start
        self._built: dict = {}

    @staticmethod
    def of(reps: Mapping) -> "ProductReps":
        """``reps`` itself if it holds uncut products, else one factor per rep."""
        if isinstance(reps, ProductReps) and not reps.start:
            return reps
        return ProductReps({x: (g,) for x, g in reps.items()})

    def __getitem__(self, x) -> GradingElement:
        rep = self._built.get(x)
        if rep is None:
            rep = self._built[x] = self._build(self.products[x])
        return rep

    def _build(self, factors) -> GradingElement:
        g = reduce(mul, factors)
        return GradingElement(g.j2, g.chain[self.start:]) if self.start else g

    def __iter__(self):
        return iter(self.products)

    def __len__(self) -> int:
        return len(self.products)

    def renamed(self, names: dict) -> "ProductReps":
        """The same reps with each key x called names[x]; none is built."""
        return ProductReps({names[x]: f for x, f in self.products.items()}, self.start)


class Gradings:
    """A grading set by representatives and relations.

    Each generator's grading is the right coset rep * <relations>.  Two
    generators are in the same lambda orbit when the chain parts of their
    representatives differ by the relation lattice; the relative Maslov
    degree is then the lambda power, modulo the lattice's lambda torsion.
    The reps are a dict or, for a Mor stage, ``ProductReps`` built on read.
    """

    def __init__(self, sizes, reps: Mapping, relations: list[GradingElement]):
        self.sizes = tuple(sizes)
        self.reps = _own(reps)
        self.relations = list(relations)
        self._lattice: list[RelationLattice] = []  # built on first use; with_reps copies share it

    @property
    def lattice(self) -> RelationLattice:
        if not self._lattice:
            self._lattice.append(RelationLattice(self.relations, self.sizes))
        return self._lattice[0]

    def with_reps(self, reps: Mapping) -> "Gradings":
        """The same relations and lattice over new representatives."""
        out = copy(self)
        out.reps = _own(reps)
        return out

    def renamed(self, names: dict) -> "Gradings":
        """The same grading set with each generator x called names[x]."""
        reps = self.reps
        if isinstance(reps, ProductReps):
            return self.with_reps(reps.renamed(names))
        return self.with_reps({names[x]: g for x, g in reps.items()})

    def eliminate(self, count: int) -> "Gradings":
        """The same grading set over the blocks after the first ``count``.

        The lattice's basis rows that pivot in those blocks reduce each rep
        there, by floor division, to a residue.  Generators with one
        residue lie in one orbit of the kept blocks' group, which commutes
        with the eliminated blocks (the separator split), so the kept parts
        of the reduced reps, over the basis rows that vanish on the
        eliminated blocks and the lambda torsion, grade the same set.  A
        reduction depends on the rep's eliminated part alone and is worked
        out once per part, as a subgroup element multiplying the rep.
        ``eliminate(0)`` shortens the relations to the lattice's generators.

        Every generator's residue is checked, from the chain sum of its
        rep's factors; its reduced rep is one more factor on its product,
        multiplied out when first read.
        """
        lattice = self.lattice
        length, cut = chain_length(self.sizes), chain_length(self.sizes[:count])
        start = cut + 1 if count else 0
        pivots = [(col, b, supp) for col, b, supp in lattice._basis if col <= cut]
        multipliers: dict = {}  # eliminated part -> the subgroup element reducing it
        products = {}
        for x, factors in ProductReps.of(self.reps).products.items():
            head = factors[0].chain[:cut]
            for f in factors[1:]:
                head = tuple(map(add, head, f.chain[:cut]))
            h = multipliers.get(head)
            if h is None:
                padded = head + (0,) * (length - cut)
                row = [0, *padded, 0, 0]
                for col, b, supp in pivots:
                    if row[col]:
                        _row_op(row, supp, b.j2, -(row[col] // b.chain[col - 1]))
                residue = tuple(row[1:cut + 1])
                if not multipliers:
                    first = (x, residue)
                elif residue != first[1]:
                    raise StructureError(f"generators {first[0]!r} and {x!r} reduce to different "
                                         f"residues on the first {count} block(s)")
                h = multipliers[head] = (GradingElement(0, padded).inverse()
                                         * GradingElement(row[-1], tuple(row[1:-2])))
            products[x] = factors if h.is_identity else (*factors, h)
        relations = [GradingElement(b.j2, b.chain[start:])
                     for col, b, _ in lattice._basis if col > cut]
        if lattice.lambda_torsion2:
            relations.append(GradingElement(lattice.lambda_torsion2, (0,) * (length - start)))
        return Gradings(self.sizes[count:], ProductReps(products, start), relations)

    def has_pure_lambda_relation(self) -> bool:
        """Whether some relation is a nonzero power of lambda alone."""
        return any(r.j2 and not any(r.chain) for r in self.relations)


def _own(reps: Mapping) -> Mapping:
    """A grading set's own copy of ``reps``: ``ProductReps`` are never
    changed after construction, so they are shared unbuilt."""
    return reps if isinstance(reps, ProductReps) else dict(reps)


# ---------------------------------------------------------------------------
# The integer action of a slide word on H_1


def slide_homology_matrix(slide) -> list[list[int]]:
    """Matrix of the slide on the pair classes, target basis by source basis.

    The sliding pair maps to its successor plus or minus the slid-over pair;
    all other pairs are fixed.  psi(h(B)) = b_sign * h(B') + c_sign * h(C),
    and the signs depend only on where the other foot b2 of the sliding
    pair sits against the feet of C and on which foot of C is slid over.
    """
    n = slide.source.n_pairs
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        if j != slide.b_pair:
            mat[slide.pair_map[j]][j] = 1
    lo, hi = sorted((slide.c1, slide.c2))
    if lo < slide.b2 < hi:
        b_sign, c_sign = -1, 1
    elif (slide.b2 > hi) == (slide.c1 > slide.c2):
        b_sign, c_sign = 1, -1
    else:
        b_sign, c_sign = 1, 1
    mat[slide.pair_map[slide.b_pair]][slide.b_pair] = b_sign
    mat[slide.pair_map[slide.c_pair]][slide.b_pair] = c_sign
    return mat


def xi_word(slides, n_pairs: int | None = None) -> list[list[int]]:
    """The integer matrix of a composable word of slides on the pair
    classes, target basis by source basis: the last slide's matrix times
    the earlier ones'."""
    slides = list(slides)
    for first, second in zip(slides, slides[1:]):
        if first.target != second.source:
            raise ValueError("slide word is not composable")
    if n_pairs is None:
        n_pairs = slides[0].source.n_pairs if slides else 0
    out = [[int(i == j) for j in range(n_pairs)] for i in range(n_pairs)]
    for s in slides:
        m = slide_homology_matrix(s)
        out = [[sum(m[i][k] * out[k][j] for k in range(n_pairs)) for j in range(n_pairs)]
               for i in range(n_pairs)]
    return out


# ---------------------------------------------------------------------------
# Propagation of gradings over a differential graph


def propagate_gradings(structure):
    """Assign a coset to each generator by walking the differential graph.

    Tree arrows fix gradings exactly by gr(x) = lambda * gr(coef) * gr(y);
    every non-tree arrow contributes one loop relation.  Each connected
    component starts from the identity at its first generator.  An arrow
    is graded once, from whichever end the walk reaches first: seen again
    from its other end it would give the identity (a tree arrow) or the
    same loop (any other).  Reps and loops are carried as (j2, chain)
    pairs by the closed forms of the module docstring.
    """
    sizes = structure.factor_sizes()
    blocks: dict = {}  # (factor, element) -> its block, checked against the factor once

    def lambda_gr(coef):
        """lambda * gr_coefficient(coef) as (j2, chain): lambda is central."""
        if len(coef) != len(sizes):
            raise ValueError("coefficient does not match the factor sizes")
        j2, chain = 2, ()
        for i, a in enumerate(coef):
            block = blocks.get((i, a))
            if block is None:
                if len(a.supp) != sizes[i]:
                    raise ValueError("coefficient does not match the factor sizes")
                block = blocks[i, a] = (0, *a.supp) if i else a.supp
            j2 += a.iota2
            chain += block
        return j2, chain

    adjacency: dict = {x: [] for x in structure.generators}
    n_arrows = 0
    for x in structure.generators:
        for y, coefs in structure.delta.get(x, {}).items():
            for coef in sorted(coefs, key=_coef_key):
                adjacency[x].append((y, coef, True, n_arrows))
                adjacency[y].append((x, coef, False, n_arrows))
                n_arrows += 1

    reps: dict = {}
    relations: dict = {}  # (j2, chain) pairs in first-seen order
    graded = [False] * n_arrows
    for start in structure.generators:
        if start in reps:
            continue
        reps[start] = (0, (0,) * chain_length(sizes))
        stack = [start]
        while stack:
            x = stack.pop()
            for y, coef, forward, arrow in adjacency[x]:
                if graded[arrow]:
                    continue
                graded[arrow] = True
                jg, cg = lambda_gr(coef)
                if y not in reps:
                    jx, rx = reps[x]
                    if forward:
                        reps[y] = (jx - jg - _twist2(cg, rx), tuple(map(sub, rx, cg)))
                    else:
                        reps[y] = (jx + jg + _twist2(cg, rx), tuple(map(add, rx, cg)))
                    stack.append(y)
                else:
                    (ja, a), (jb, b) = (reps[x], reps[y]) if forward else (reps[y], reps[x])
                    m = tuple(map(sub, cg, a))
                    j2 = jb - ja + jg - _twist2(a, cg) + _twist2(m, b)
                    chain = tuple(map(add, m, b))
                    if j2 or any(chain):
                        relations[j2, chain] = None
    return Gradings(sizes, {x: GradingElement(*r) for x, r in reps.items()},
                    [GradingElement(*r) for r in relations])


def _coef_key(coef):
    return tuple(g.sort_key() for g in coef)


def arrow_defects(structure, gradings: Gradings) -> list[GradingElement]:
    """The distinct arrow loops that are not the identity modulo the
    relations, in first-seen order.

    Loops are told apart by their keys, so an element is built, and the
    lattice asked, once per distinct loop rather than once per arrow.
    """
    return loop_defects(dict.fromkeys(_arrow_loop_parts(structure, gradings)), gradings)


def loop_defects(loops, gradings: Gradings) -> list[GradingElement]:
    """The loops, distinct (j2, chain) keys, that are not the identity
    modulo the relations, in their order."""
    lattice = gradings.lattice
    out = []
    for j2, chain in loops:
        if j2 or any(chain):
            h = GradingElement(j2, chain)
            if not lattice.contains(h):
                out.append(h)
    return out


def arrow_loop(src: GradingElement, tgt: GradingElement, lam_c: GradingElement) -> tuple:
    """The key (j2, chain) of the loop gr(tgt)^-1 lam_c^-1 gr(src) of an
    arrow src -> tgt whose coefficient c has lam_c = lambda gr(c), by the
    arrow loop of the module docstring."""
    rx, ry = src.chain, tgt.chain
    u = tuple(map(add, ry, lam_c.chain))
    return src.j2 - tgt.j2 - lam_c.j2 + _twist2(tuple(map(add, rx, ry)), u), tuple(map(sub, rx, u))


def _arrow_loop_parts(structure, gradings: Gradings):
    """The ``arrow_loop`` key of each arrow of the structure, in delta order.

    The structure's factor blocks end the grading's (a Mor stage is graded
    with the blocks it consumes in front of its factor's), so coefficients
    are placed on the trailing blocks.
    """
    sizes = structure.factor_sizes()
    if gradings.sizes[len(gradings.sizes) - len(sizes):] != sizes:
        raise ValueError("grading blocks do not end with the factor sizes")
    length = chain_length(gradings.sizes)
    reps = gradings.reps
    lam_coefs: dict = {}  # coef -> lambda gr(coef), placed on the trailing blocks
    for x in structure.generators:
        for y, coefs in structure.delta[x].items():
            for coef in coefs:
                lam_c = lam_coefs.get(coef)
                if lam_c is None:
                    lam_c = lam_coefs[coef] = _lambda_gr(coef, sizes, length)
                yield arrow_loop(reps[x], reps[y], lam_c)


def _lambda_gr(coef, sizes, length: int) -> GradingElement:
    """lambda gr(coef) on the trailing blocks of a chain of ``length``; an
    empty coefficient over no blocks gives lambda alone."""
    g = gr_coefficient(coef, sizes)
    return GradingElement(g.j2 + 2, (0,) * (length - len(g.chain)) + g.chain)


# ---------------------------------------------------------------------------
# Morphism-complex gradings


class MorPlan:
    """What the grading of Mor(M, N) takes from M alone: the layout (M's
    ``consumed`` blocks, which are N's, then the ``kept`` factor's block
    reversed, if any), M's reps and relations on it, the cores of M's
    arrows with the table numbering their chains, and a memo of
    coefficient gradings, the one part that grows once the plan is built.
    """

    def __init__(self, m: Gradings, consumed: list, kept: list):
        self.sizes = tuple(m.sizes[i] for i in consumed + kept)
        self.eliminated = len(consumed) if kept else 0  # a final pairing keeps its blocks
        self.consumed_sizes = tuple(m.sizes[i] for i in consumed)
        self.kept_sizes = tuple(m.sizes[i] for i in kept)
        self.cut = chain_length(self.consumed_sizes)
        self.length = chain_length(self.sizes)
        self.pad = (0,) * (self.length - self.cut)  # the kept block and its separator, if any

        def transport(g: GradingElement) -> GradingElement:
            # a kept action is a right action read over the reversed circle,
            # whose grading group is the opposite one: its block is reversed
            blocks = split_blocks(g.chain, m.sizes)
            tail = [tuple(reversed(blocks[i])) for i in kept]
            return GradingElement(g.j2, stack_blocks([blocks[i] for i in consumed] + tail))

        self.x_inv = {x: transport(g).inverse() for x, g in m.reps.items()}
        self.relations = [transport(r) for r in m.relations]
        self.coefs: dict = {}  # consumed coefficient -> its grading on the layout
        self.chain_ids = {(0,) * self.length: 0}  # chain -> its id; 0 is IDENTITY_LOOP's

    def padded(self, g: GradingElement) -> GradingElement:
        """An element of N on the layout: the kept block, if any, is 0."""
        return GradingElement(g.j2, g.chain + self.pad)

    def coef(self, coef) -> GradingElement:
        """gr(coef) of a consumed coefficient on the layout."""
        g = self.coefs.get(coef)
        if g is None:
            g = self.coefs[coef] = self.padded(gr_coefficient(coef, self.consumed_sizes))
        return g

    def coef_shifts(self, core, coefs) -> list[int]:
        """The part 2 gr(a) . Dh of the loop of an M-arrow with core h
        that its coefficient a decides, for each a in ``coefs``: the
        conjugation's dot product is linear in g = gr(a) gr(y), whose chain
        is a's plus y's (see ``MorGrading.m_loop_part``)."""
        cut, d_h = self.cut, core[2]
        return [2 * sum(map(mul, self.coef(a).chain[:cut], d_h)) for a in coefs]

    def core(self, x0, x, e_c, k) -> tuple:
        """(j2, chain index, boundary of the chain[:cut]) of the core
        h = gr(e_c)^-1 X0^-1 (lambda gr(k))^-1 X of an arrow x0 -> x of M
        with consumed part e_c and kept part k: the arrow loop of k from X
        to X0 gr(e_c)."""
        lam_k = _lambda_gr(k, self.kept_sizes, self.length)  # k = () in a final pairing
        j2, chain = arrow_loop(self.x_inv[x], self.x_inv[x0] * self.coef(e_c), lam_k)
        chain_id = self.chain_ids.setdefault(chain, len(self.chain_ids))
        return (j2, chain_id, _boundary(chain)[:self.cut])


class MorGrading:
    """The grading of one Mor(M, N) over M's ``plan``: generator i is
    ``names[i]`` = (x, a, y), the i-th triple built, with the rep
    X gr(a) gr(y), X the transported gr(x)^-1.  Each arrow's loop is read
    from the factor arrow that produced it (the Mor loops of the module
    docstring) and keyed (j2, chain index), chains numbered in
    ``chain_ids``, which extends the plan's.  ``tally`` counts a loop +1
    for every coefficient the complex gains and -1 for every one it
    toggles away, so the loops with a positive count are exactly the loops
    of the complex's arrows.
    """

    IDENTITY_LOOP = (0, 0)  # the key of a coefficient-differential arrow's loop

    def __init__(self, plan: MorPlan, n: Gradings):
        self.plan = plan
        self.y_rep = {y: plan.padded(g) for y, g in n.reps.items()}
        self.relations = plan.relations + [plan.padded(r) for r in n.relations]
        self.chain_ids = dict(plan.chain_ids)
        self.tally, self.names = Counter(), []  # names: appended by the builder

    def n_loop(self, y, y2, e) -> tuple:
        """The key of N's loop gr(y2)^-1 (lambda gr(e))^-1 gr(y)."""
        a = self.plan.coef(e)
        j2, chain = arrow_loop(self.y_rep[y], self.y_rep[y2], GradingElement(a.j2 + 2, a.chain))
        return (j2, self.chain_ids.setdefault(chain, len(self.chain_ids)))

    def m_loop_part(self, core, y) -> tuple:
        """The part of the loop g^-1 h g of an M-arrow with core h into
        (x, a, y) that y decides, g = gr(a) gr(y): (j2, chain index) with
        j2 = j_h - 2 gr(y) . Dh on the consumed blocks, where g lives.
        The loop's key is (j2 - s, chain index) for s the coefficient part
        of a from ``MorPlan.coef_shifts``."""
        j2, chain, d_h = core
        return (j2 - 2 * sum(map(mul, self.y_rep[y].chain[:self.plan.cut], d_h)), chain)

    def loops(self) -> list:
        """The distinct loops (j2, chain) with a positive count, in
        first-seen order."""
        chains = list(self.chain_ids)
        return [(j2, chains[c]) for (j2, c), n in self.tally.items() if n > 0]

    def gradings(self) -> Gradings:
        """The grading set of the generators 0, 1, ... named by ``names``
        on the layout, each rep a product built on read."""
        x_inv, y_rep, coef = self.plan.x_inv, self.y_rep, self.plan.coef
        reps = {i: (x_inv[x], coef(a), y_rep[y]) for i, (x, a, y) in enumerate(self.names)}
        return Gradings(self.plan.sizes, ProductReps(reps), self.relations)
