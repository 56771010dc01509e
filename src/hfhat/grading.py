"""Gradings: the big grading group, coset lattices, and the mod-2 action.

Group elements are pairs (j, alpha) with j a half-integer Maslov component
and alpha a one-chain of interval multiplicities, one block of coordinates
per algebra factor of the graded structure.  j is stored doubled so all
arithmetic is exact.  The product twists by the average local multiplicity
of the second chain along the boundary of the first.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from math import gcd
from operator import add

from .algebra import StrandsGenerator


@dataclass(frozen=True)
class GradingElement:
    j2: int  # doubled Maslov component
    alphas: tuple[tuple[int, ...], ...]  # one multiplicity vector per factor

    def __mul__(self, other: "GradingElement") -> "GradingElement":
        if len(self.alphas) != len(other.alphas):
            raise ValueError("grading elements live over different factor lists")
        twist2 = 0
        for a1, a2 in zip(self.alphas, other.alphas):
            twist2 += _m2_boundary(a2, a1)
        alphas = tuple(
            tuple(map(add, a1, a2)) if any(a2) else a1 for a1, a2 in zip(self.alphas, other.alphas)
        )
        return GradingElement(self.j2 + other.j2 + twist2, alphas)

    def inverse(self) -> "GradingElement":
        return self.power(-1)

    def power(self, n: int) -> "GradingElement":
        """g^n = (n*j + n(n-1)/2 * m(alpha, d alpha), n*alpha) for every integer n.

        The twist is bilinear, so the k-th factor of the product adds
        (k-1) times m(alpha, d alpha).  It is also antisymmetric, so that
        term vanishes and g^n = (n*j, n*alpha).
        """
        alphas = tuple(tuple(n * x for x in a) if any(a) else a for a in self.alphas)
        return GradingElement(n * self.j2, alphas)

    @property
    def is_identity(self) -> bool:
        return self.j2 == 0 and all(all(x == 0 for x in a) for a in self.alphas)

    def flat(self) -> tuple[int, ...]:
        return tuple(x for a in self.alphas for x in a)


def _m2_boundary(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """Doubled value of m(alpha, d(beta)): the boundary of beta evaluated
    against the two-sided average multiplicity of alpha.  It equals
    <w(alpha), beta> (see _twist_weights) and is antisymmetric."""
    if not any(alpha) or not any(beta):
        return 0
    return sum(b0 * a1 - a0 * b1 for a0, a1, b0, b1 in zip(alpha, alpha[1:], beta, beta[1:]))


def _twist_weights(flat, sizes) -> list[int]:
    """w(alpha) with w_i = alpha_{i+1} - alpha_{i-1} inside each block of
    ``sizes`` (zero past a block's ends), so m2(alpha, d beta) = <w(alpha), beta>."""
    out = []
    start = 0
    for size in sizes:
        end = start + size
        for i in range(start, end):
            out.append((flat[i + 1] if i + 1 < end else 0) - (flat[i - 1] if i > start else 0))
        start = end
    return out


def identity_element(sizes: tuple[int, ...]) -> GradingElement:
    return GradingElement(0, tuple((0,) * s for s in sizes))


def lambda_power(sizes: tuple[int, ...], n: int = 1) -> GradingElement:
    return GradingElement(2 * n, tuple((0,) * s for s in sizes))


def parity_changes(alpha: tuple[int, ...]) -> int:
    seq = [0, *alpha, 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if (a - b) % 2)


def epsilon4(alpha: tuple[int, ...]) -> int:
    """Quadrupled congruence defect: the number of parity changes."""
    return parity_changes(alpha)


def check_congruence(g: GradingElement) -> bool:
    """j must equal the quarter parity-change count modulo 1."""
    e4 = sum(epsilon4(a) for a in g.alphas)
    return (2 * g.j2 - e4) % 4 == 0


def gr_generator(a: StrandsGenerator) -> GradingElement:
    """Big-group grading of a basic generator: crossings minus the average
    multiplicity of the support along the initial points of all strands."""
    return GradingElement(iota2(a), (a.supp,))


def iota2(a: StrandsGenerator) -> int:
    """Doubled Maslov component of the generator's grading."""
    start_points = [s for s, _ in a.moving]
    for h in a.horizontals:
        start_points.extend(a.pmc.pairs[h])
    n = len(a.supp)
    m2 = 0
    for p in start_points:
        m2 += (a.supp[p - 2] if p >= 2 else 0) + (a.supp[p - 1] if p - 1 < n else 0)
    return 2 * a.inv - m2


def gr_coefficient(coef: tuple[StrandsGenerator, ...], sizes: tuple[int, ...]) -> GradingElement:
    """Grading of a basic coefficient of a multi-factor structure."""
    j2 = sum(iota2(a) for a in coef)
    alphas = tuple(a.supp for a in coef)
    if tuple(len(a) for a in alphas) != sizes:
        raise ValueError("coefficient does not match the factor sizes")
    return GradingElement(j2, alphas)


# ---------------------------------------------------------------------------
# Relation subgroups


class RelationLattice:
    """The subgroup generated by a list of grading elements.

    Supports orbit membership for the homological part and the achievable
    set of lambda powers, which is j0 + n*Z for a torsion modulus n.

    Elements are handled flat: a doubled Maslov component and one chain of
    all blocks end to end.  The twist of a product g*h is
    m2(beta, d alpha) = <w(beta), alpha> for chains alpha of g and beta of
    h, with the weights w(beta)_i = beta_{i+1} - beta_{i-1} inside each
    block.  It is bilinear and antisymmetric, so m2(beta, d beta) = 0 and
    b^k = (k*j, k*beta): a row operation h -> h * b^k costs one dot
    product with the weights of b.

    The echelon basis holds subgroup elements, one per pivot column, and is
    reached by exact group products only, so it generates the same subgroup
    as the relations.  A relation that reduces to the zero chain is a pure
    lambda power read from its own j2; together with the commutators of the
    basis, 2*<w(b), a>, these generate every lambda power in the subgroup,
    and their gcd is the torsion modulus.  Any two subgroup elements with
    the same chain differ by such a lambda power, so a degree taken modulo
    the torsion does not depend on which basis the reduction chose.
    """

    def __init__(self, relations: list[GradingElement], sizes: tuple[int, ...]):
        self.sizes = tuple(sizes)
        tor = 0
        rows = []
        for r in relations:
            chain = list(r.flat())
            if any(chain):
                rows.append((r.j2, chain))
            else:
                tor = gcd(tor, r.j2)
        # (pivot column, j2, chain, twist weights of the chain)
        self._basis: list[tuple[int, int, list[int], list[int]]] = []
        for col in range(sum(self.sizes)):
            live = [row for row in rows if row[1][col]]
            if not live:
                continue
            rows = [row for row in rows if not row[1][col]]
            while True:  # Euclid on the column
                piv = min(live, key=lambda row: abs(row[1][col]))
                weights = _twist_weights(piv[1], self.sizes)
                live_next = [piv]
                for row in live:
                    if row is piv:
                        continue
                    row = _times_power(row, piv, weights, -(row[1][col] // piv[1][col]))
                    if row[1][col]:
                        live_next.append(row)
                    elif any(row[1]):
                        rows.append(row)
                    else:
                        tor = gcd(tor, row[0])
                live = live_next
                if len(live) == 1:
                    break
            self._basis.append((col, piv[0], piv[1], weights))
        for i, (_, _, a, _) in enumerate(self._basis):
            for _, _, _, w in self._basis[i + 1:]:
                tor = gcd(tor, 2 * _dot(w, a))
        self.lambda_torsion2 = tor

    def generators(self) -> list[GradingElement]:
        """The echelon basis plus one pure lambda power carrying the torsion."""
        out = []
        for _, j2, chain, _ in self._basis:
            alphas = []
            start = 0
            for size in self.sizes:
                alphas.append(tuple(chain[start:start + size]))
                start += size
            out.append(GradingElement(j2, tuple(alphas)))
        if self.lambda_torsion2:
            out.append(GradingElement(self.lambda_torsion2, identity_element(self.sizes).alphas))
        return out

    def _reduce(self, g: GradingElement):
        """j2 of g * h for some subgroup element h cancelling g's chain, or
        None if g's chain is not in the lattice."""
        j2, chain = g.j2, list(g.flat())
        for col, jb, b, w in self._basis:
            if chain[col]:
                if chain[col] % b[col]:
                    return None
                j2, chain = _times_power((j2, chain), (jb, b), w, -(chain[col] // b[col]))
        if any(chain):
            return None
        return j2

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


def _dot(u: list[int], v: list[int]) -> int:
    return sum(x * y for x, y in zip(u, v) if x and y)


def _times_power(h, b, weights_b, k):
    """h * b^k for flat elements (j2, chain); weights_b are b's twist weights."""
    (jh, ah), (jb, ab) = h, b
    return (jh + k * jb + k * _dot(weights_b, ah), [x + k * y for x, y in zip(ah, ab)])


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
        return any(
            r.j2 != 0 and all(all(v == 0 for v in a) for a in r.alphas)
            for r in self.relations
        )

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
    from .pmc import ArcSlide, reverse_pmc, reverse_point

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
    refl = ArcSlide(
        reverse_pmc(slide.source),
        reverse_point(slide.source, slide.b1),
        reverse_point(slide.source, slide.c1),
    )
    from .pmc import reversed_pair_map

    src_map = reversed_pair_map(slide.source)  # pairs of Z -> pairs of -Z
    tgt_map = reversed_pair_map(slide.target)
    inner = slide_homology_matrix(refl)
    out = [[0] * n for _ in range(n)]
    for j in range(n):
        col = [0] * n
        col[src_map[j]] = 1
        image = [sum(inner[i][k] * col[k] for k in range(n)) for i in range(n)]
        # refl.target should be reverse_pmc(slide.target); transport back.
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
    component starts from the identity at its first generator.
    """
    sizes = structure.factor_sizes()
    reps: dict = {}
    relations: list[GradingElement] = []
    lam = lambda_power(sizes)

    arrows = []
    for x in structure.generators:
        for y, coefs in structure.delta.get(x, {}).items():
            for coef in sorted(coefs, key=_coef_key):
                arrows.append((x, coef, y))

    adjacency: dict = {x: [] for x in structure.generators}
    for x, coef, y in arrows:
        adjacency[x].append((y, coef, "fwd"))
        adjacency[y].append((x, coef, "bwd"))

    for start in structure.generators:
        if start in reps:
            continue
        reps[start] = identity_element(sizes)
        stack = [start]
        while stack:
            x = stack.pop()
            for y, coef, direction in adjacency[x]:
                g = lam * gr_coefficient(coef, sizes)
                if y not in reps:
                    # gr(src) = lambda * gr(coef) * gr(tgt)
                    if direction == "fwd":
                        reps[y] = g.inverse() * reps[x]
                    else:
                        reps[y] = g * reps[x]
                    stack.append(y)
                else:
                    if direction == "fwd":
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
    seen = set()
    out = []
    for r in relations:
        key = (r.j2, r.alphas)
        if key not in seen and not r.is_identity:
            seen.add(key)
            out.append(r)
    return out


def verify_arrow_compatibility(structure, gradings: Gradings) -> bool:
    """Every arrow must satisfy gr(src) = lambda*gr(coef)*gr(tgt) mod relations."""
    sizes = structure.factor_sizes()
    lam = lambda_power(sizes)
    for x in structure.generators:
        for y, coefs in structure.delta.get(x, {}).items():
            for coef in coefs:
                g = lam * gr_coefficient(coef, sizes)
                h = (g * gradings.reps[y]).inverse() * gradings.reps[x]
                if gradings.lattice.lambda_degree(h) != (0, gradings.lattice.lambda_torsion2):
                    return False
    return True
