"""Gradings: the big grading group, coset lattices, and the mod-2 action.

Group elements are pairs (j, alpha) with j a half-integer Maslov component
and alpha a one-chain of interval multiplicities, one block of coordinates
per algebra factor of the graded structure.  j is stored doubled so all
arithmetic is exact.  The product twists by the average local multiplicity
of the second chain along the boundary of the first.

An element holds its chain flat: all blocks end to end, with one 0 between
adjacent blocks.  The twist and the parity count only ever pair adjacent
coordinates, and every pair across a separator has a 0, so sums over the
whole chain equal the sums block by block.  Only this module knows that
layout; ``chain_length``, ``stack_blocks``, ``split_blocks`` and
``place`` expose it.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from math import gcd
from operator import add, mul

from .algebra import StrandsGenerator
from .pmc import reversed_pair_map


@dataclass(frozen=True)
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
    """Doubled twist of a product with chains a then b: m(b, d a), the
    boundary of a evaluated against the two-sided average multiplicity of
    b.  It is bilinear and antisymmetric."""
    return sum(map(mul, a, b[1:])) - sum(map(mul, b, a[1:]))


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


def place(g: GradingElement, length: int, offset: int) -> GradingElement:
    """g with its chain at ``offset`` inside a zero chain of ``length``."""
    tail = length - offset - len(g.chain)
    if tail < 0:
        raise ValueError("grading element does not fit at that offset")
    return GradingElement(g.j2, (0,) * offset + g.chain + (0,) * tail)


def lambda_power(sizes: tuple[int, ...], n: int = 1) -> GradingElement:
    return GradingElement(2 * n, (0,) * chain_length(sizes))


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


def iota2(a: StrandsGenerator) -> int:
    """Doubled Maslov component of the generator's grading, computed when
    the diagram is interned."""
    return a.iota2


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

    The twist of a product g*h is the bilinear, antisymmetric
    m2(beta, d alpha) for chains alpha of g and beta of h, so
    m2(beta, d beta) = 0 and b^k = (k*j, k*beta): a row operation is the
    group product h * b^k.  Separator columns are never pivots.

    The echelon basis holds subgroup elements, one per pivot column, and is
    reached by exact group products only, so it generates the same subgroup
    as the relations.  A relation that reduces to the zero chain is a pure
    lambda power read from its own j2; together with the commutators of the
    basis, 2*m2(b, d a), these generate every lambda power in the subgroup,
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
                rows.append(r)
            else:
                tor = gcd(tor, r.j2)
        self._basis: list[tuple[int, GradingElement]] = []  # (pivot column, element)
        for col in range(self.length):
            live = [row for row in rows if row.chain[col]]
            if not live:
                continue
            rows = [row for row in rows if not row.chain[col]]
            while True:  # Euclid on the column
                piv = min(live, key=lambda row: abs(row.chain[col]))
                live_next = [piv]
                for row in live:
                    if row is piv:
                        continue
                    row = row * piv.power(-(row.chain[col] // piv.chain[col]))
                    if row.chain[col]:
                        live_next.append(row)
                    elif any(row.chain):
                        rows.append(row)
                    else:
                        tor = gcd(tor, row.j2)
                live = live_next
                if len(live) == 1:
                    break
            self._basis.append((col, piv))
        for i, (_, a) in enumerate(self._basis):
            for _, b in self._basis[i + 1:]:
                tor = gcd(tor, 2 * _twist2(a.chain, b.chain))
        self.lambda_torsion2 = tor

    def generators(self) -> list[GradingElement]:
        """The echelon basis plus one pure lambda power carrying the torsion."""
        out = [b for _, b in self._basis]
        if self.lambda_torsion2:
            out.append(GradingElement(self.lambda_torsion2, (0,) * self.length))
        return out

    def _reduce(self, g: GradingElement):
        """j2 of g * h for some subgroup element h cancelling g's chain, or
        None if g's chain is not in the lattice."""
        for col, b in self._basis:
            if g.chain[col]:
                if g.chain[col] % b.chain[col]:
                    return None
                g = g * b.power(-(g.chain[col] // b.chain[col]))
        if any(g.chain):
            return None
        return g.j2

    def contains_chain(self, g: GradingElement) -> bool:
        return self._reduce(g) is not None

    def lambda_degree(self, g: GradingElement):
        """If g = lambda^t * (element of the subgroup), return (t, modulus2);
        the degree is defined mod modulus2 / 2.  None if not in the orbit."""
        diff2 = self._reduce(g)
        if diff2 is None or diff2 % 2:
            return None
        tor = self.lambda_torsion2
        if tor:
            if tor % 2:
                return None
            return ((diff2 // 2) % (tor // 2) if tor != 2 else 0, tor)
        return (diff2 // 2, 0)

    def is_lambda_free(self) -> bool:
        return self.lambda_torsion2 == 0


class Gradings:
    """A grading set by representatives and relations.

    Each generator's grading is the right coset rep * <relations>.  Two
    generators are in the same lambda orbit when the chain parts of their
    representatives differ by the relation lattice; the relative Maslov
    degree is then the lambda power, modulo the lattice's lambda torsion.
    """

    def __init__(self, sizes, reps: dict, relations: list[GradingElement]):
        self.sizes = tuple(sizes)
        self.reps = dict(reps)
        self.relations = list(relations)
        self._lattice = RelationLattice(self.relations, self.sizes)

    @property
    def lattice(self) -> RelationLattice:
        return self._lattice

    def degree_difference(self, x, y):
        """(degree of x) - (degree of y) with its modulus, or None."""
        h = self.reps[y].inverse() * self.reps[x]
        return self._lattice.lambda_degree(h)

    def same_orbit(self, x, y) -> bool:
        h = self.reps[y].inverse() * self.reps[x]
        return self._lattice.contains_chain(h)

    def is_lambda_free(self) -> bool:
        return self._lattice.is_lambda_free()

    def with_reps(self, reps: dict) -> "Gradings":
        """The same relations and lattice over new representatives."""
        out = copy(self)
        out.reps = dict(reps)
        return out

    def compact(self) -> "Gradings":
        """Equivalent grading data with at most basis-many relations.

        Long relation lists accumulate along a pipeline; an echelon basis
        of the chain lattice plus one pure lambda power carrying the
        torsion generates the same subgroup, so the lattice is kept.
        """
        out = self.with_reps(self.reps)
        out.relations = self._lattice.generators()
        return out

    def has_pure_lambda_relation(self) -> bool:
        """Whether some relation is a nonzero power of lambda alone."""
        return any(r.j2 and not any(r.chain) for r in self.relations)

    def orbit_partition(self, keys):
        """Group keys into lambda orbits, preserving input order."""
        orbits: list[list] = []
        for k in keys:
            for orbit in orbits:
                if self.same_orbit(k, orbit[0]):
                    orbit.append(k)
                    break
            else:
                orbits.append([k])
        return orbits


# ---------------------------------------------------------------------------
# The mod-2 grading action of a slide word


class Mod2GradingMap:
    """The symplectic-with-parity action of a word of slides.

    Tracks the integer matrix on the pair classes h(B_i) together with the
    rule that a class a picks up the parity of |a|_1 + |psi(a)|_1 on the
    Maslov bit.
    """

    def __init__(self, matrix: list[list[int]]):
        self.matrix = [list(row) for row in matrix]  # columns = source pairs

    @staticmethod
    def identity(n_pairs: int) -> "Mod2GradingMap":
        return Mod2GradingMap([[1 if i == j else 0 for j in range(n_pairs)] for i in range(n_pairs)])

    def apply_chain(self, a: list[int]) -> list[int]:
        n = len(self.matrix)
        return [sum(self.matrix[i][j] * a[j] for j in range(n)) for i in range(n)]

    def apply(self, m_bit: int, a: list[int]) -> tuple[int, list[int]]:
        image = self.apply_chain(a)
        norm = sum(abs(x) for x in a) + sum(abs(x) for x in image)
        return ((m_bit + norm) % 2, image)

    def compose(self, first: "Mod2GradingMap") -> "Mod2GradingMap":
        """self after first."""
        n = len(self.matrix)
        out = [
            [sum(self.matrix[i][k] * first.matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return Mod2GradingMap(out)


def slide_homology_matrix(slide) -> list[list[int]]:
    """Matrix of the slide on the pair classes, target basis by source basis.

    The sliding pair maps to its successor plus or minus the slid-over pair;
    all other pairs are fixed.  Signs follow the six combinatorial cases of
    the slide, reduced to the c1-above-c2 configuration by reflecting.
    """
    n = slide.source.n_pairs
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        if j != slide.b_pair:
            mat[slide.pair_map[j]][j] = 1

    if slide.c1 > slide.c2:
        case = _slide_case(slide)
        b_sign, c_sign = _CASE_SIGNS[case]
        mat[slide.pair_map[slide.b_pair]][slide.b_pair] = b_sign
        mat[slide.pair_map[slide.c_pair]][slide.b_pair] = c_sign
        return mat

    # Reflect to reach the c1-above-c2 configuration, act, reflect back.
    src_map = reversed_pair_map(slide.source)  # pairs of Z -> pairs of -Z
    tgt_map = reversed_pair_map(slide.target)
    inner = slide_homology_matrix(slide.reflected())
    out = [[0] * n for _ in range(n)]
    for j in range(n):
        col = [0] * n
        col[src_map[j]] = 1
        image = [sum(inner[i][k] * col[k] for k in range(n)) for i in range(n)]
        # the reflected slide ends on -Z'; transport back.
        for i in range(n):
            if image[i]:
                out[tgt_map.index(i)][j] = image[i]
    return out


def _slide_case(slide) -> str:
    """Combinatorial case of a slide with c1 above c2."""
    b1, b2, c1, c2 = slide.b1, slide.b2, slide.c1, slide.c2
    if slide.kind == "under":
        if not c2 < b2 < c1:
            return "U.I" if b2 > c1 else "U.III"
        return "U.II"
    if b2 > c1:
        return "O.I"
    if c2 < b2 < c1:
        return "O.II"
    return "O.III"


_CASE_SIGNS = {
    # psi(h(B)) = b_sign * h(B') + c_sign * h(C)
    "U.I": (1, -1),
    "U.II": (-1, 1),
    "U.III": (1, 1),
    "O.I": (1, -1),
    "O.II": (-1, 1),
    "O.III": (1, 1),
}


def xi_word(slides, n_pairs: int | None = None) -> Mod2GradingMap:
    """The mod-2 grading map of a composable word of slides."""
    slides = list(slides)
    for first, second in zip(slides, slides[1:]):
        if first.target != second.source:
            raise ValueError("slide word is not composable")
    if n_pairs is None:
        n_pairs = slides[0].source.n_pairs if slides else 0
    out = Mod2GradingMap.identity(n_pairs)
    for s in slides:
        out = Mod2GradingMap(slide_homology_matrix(s)).compose(out)
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
    same loop (any other).
    """
    sizes = structure.factor_sizes()
    reps: dict = {}
    relations: list[GradingElement] = []

    adjacency: dict = {x: [] for x in structure.generators}
    n_arrows = 0
    for x in structure.generators:
        for y, coefs in structure.delta.get(x, {}).items():
            for coef in sorted(coefs, key=_coef_key):
                adjacency[x].append((y, coef, True, n_arrows))
                adjacency[y].append((x, coef, False, n_arrows))
                n_arrows += 1

    graded = [False] * n_arrows
    for start in structure.generators:
        if start in reps:
            continue
        reps[start] = lambda_power(sizes, 0)
        stack = [start]
        while stack:
            x = stack.pop()
            for y, coef, forward, arrow in adjacency[x]:
                if graded[arrow]:
                    continue
                graded[arrow] = True
                g = gr_coefficient(coef, sizes)
                g = GradingElement(g.j2 + 2, g.chain)  # lambda * g: lambda is central
                if y not in reps:
                    # gr(src) = lambda * gr(coef) * gr(tgt)
                    reps[y] = (g.inverse() if forward else g) * reps[x]
                    stack.append(y)
                else:
                    if forward:
                        loop = reps[x].inverse() * g * reps[y]
                    else:
                        loop = reps[y].inverse() * g * reps[x]
                    if not loop.is_identity:
                        relations.append(loop)
    return Gradings(sizes, reps, dedupe_relations(relations))


def _coef_key(coef):
    return tuple(g.sort_key() for g in coef)


def dedupe_relations(relations):
    """Distinct non-identity relations, in first-seen order."""
    return [r for r in dict.fromkeys(relations) if not r.is_identity]


def arrow_defects(structure, gradings: Gradings) -> list[GradingElement]:
    """The distinct loops h = (lambda*gr(coef)*gr(tgt))^-1 * gr(src) of the
    arrows that are not the identity modulo the relations.

    The structure's factor blocks lead the grading's; its retired blocks
    follow, and coefficients are placed at the front.
    """
    sizes = structure.factor_sizes()
    if gradings.sizes[:len(sizes)] != sizes:
        raise ValueError("grading blocks do not start with the factor sizes")
    length = chain_length(gradings.sizes)
    lam = lambda_power(gradings.sizes)
    reps = gradings.reps
    # h = gr(tgt)^-1 * (lambda*gr(coef))^-1 * gr(src); both inverses recur
    rep_inverse = {y: g.inverse() for y, g in reps.items()}
    coef_inverse: dict = {}
    loops = []
    for x in structure.generators:
        for y, coefs in structure.delta[x].items():
            for coef in coefs:
                if coef not in coef_inverse:
                    g = lam * place(gr_coefficient(coef, sizes), length, 0)
                    coef_inverse[coef] = g.inverse()
                loops.append(rep_inverse[y] * coef_inverse[coef] * reps[x])
    lattice = gradings.lattice
    trivial = (0, lattice.lambda_torsion2)
    return [h for h in dedupe_relations(loops) if lattice.lambda_degree(h) != trivial]
