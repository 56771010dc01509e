"""The product-based relation lattice and arrow loops, as test oracles.

These are the earlier forms of ``hfhat.grading.RelationLattice`` and
``hfhat.grading.arrow_defects``: every row operation and every arrow loop is
a full-length ``GradingElement`` product.  The sparse forms in the package
must give the same elements, in the same order.  ``arrow_loops`` is the
package's loop formula one element per arrow, and ``place`` and
``dedupe_relations`` are the helpers the oracles share.
``pairwise_spinc_maslov`` is the spin-c split as it stood before orbits
were keyed by their reduced chain.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from hfhat.grading import (
    GradingElement,
    StructureError,
    _arrow_loop_parts,
    chain_length,
    gr_coefficient,
)
from hfhat.homalg import cancel


def place(g: GradingElement, length: int, offset: int) -> GradingElement:
    """g with its chain at ``offset`` inside a zero chain of ``length``."""
    tail = length - offset - len(g.chain)
    assert tail >= 0, "grading element does not fit at that offset"
    return GradingElement(g.j2, (0,) * offset + g.chain + (0,) * tail)


def dedupe_relations(relations):
    """Distinct non-identity relations, in first-seen order."""
    return [r for r in dict.fromkeys(relations) if not r.is_identity]


def arrow_loops(structure, gradings):
    """The loop h = gr(tgt)^-1 * (lambda*gr(coef))^-1 * gr(src) of each
    arrow, in delta order, by the package's loop formula."""
    for j2, chain in _arrow_loop_parts(structure, gradings):
        yield GradingElement(j2, chain)


def lambda_power(sizes, n=1):
    """lambda^n over the given factor sizes: a pure Maslov shift of n."""
    return GradingElement(2 * n, (0,) * chain_length(sizes))


class ProductLattice:
    """Echelon basis and lambda torsion of a relation list, by products."""

    def __init__(self, relations, sizes):
        self.length = chain_length(sizes)
        tor = 0
        rows = []
        for r in relations:
            if any(r.chain):
                rows.append(r)
            else:
                tor = gcd(tor, r.j2)
        self._basis = []  # (pivot column, element)
        for col in range(self.length):
            live = [row for row in rows if row.chain[col]]
            if not live:
                continue
            rows = [row for row in rows if not row.chain[col]]
            while True:
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
                tor = gcd(tor, (a * b).j2 - (b * a).j2)
        self.lambda_torsion2 = tor

    def generators(self):
        out = [b for _, b in self._basis]
        if self.lambda_torsion2:
            out.append(GradingElement(self.lambda_torsion2, (0,) * self.length))
        return out

    def reduce(self, g):
        for col, b in self._basis:
            if g.chain[col]:
                if g.chain[col] % b.chain[col]:
                    return None
                g = g * b.power(-(g.chain[col] // b.chain[col]))
        if any(g.chain):
            return None
        return g.j2

    def lambda_degree(self, g):
        diff2 = self.reduce(g)
        if diff2 is None or diff2 % 2:
            return None
        tor = self.lambda_torsion2
        if tor:
            if tor % 2:
                return None
            return ((diff2 // 2) % (tor // 2) if tor != 2 else 0, tor)
        return (diff2 // 2, 0)


def pairwise_spinc_maslov(complex_):
    """``spinc_maslov`` by a pairwise orbit search: each generator, in the
    reduced complex's order, joins the first orbit whose base it shares a
    lambda orbit with, by an exact-division reduction of base^-1 g
    against the product lattice."""
    reduced = cancel(complex_)
    name = complex_.name or "complex"
    reps = reduced.gradings.reps
    lattice = ProductLattice(reduced.gradings.relations, reduced.gradings.sizes)
    tor = lattice.lambda_torsion2
    orbits = []  # (inverse of the base's rep, degrees from the base)
    for g in reduced.generators:
        for base_inv, degrees in orbits:
            diff2 = lattice.reduce(base_inv * reps[g])
            if diff2 is not None:
                break
        else:
            base_inv, degrees, diff2 = reps[g].inverse(), [], 0
            orbits.append((base_inv, degrees))
        if diff2 % 2 or tor % 2:
            raise StructureError(f"{name}: the degree of {g!r} in its lambda orbit cannot be "
                                 f"read (doubled difference {diff2}, torsion {tor})")
        degrees.append(diff2 // 2)
    modulus = tor // 2
    out = []
    for _, degrees in orbits:
        floor = min(degrees)
        hist = Counter(str(d % modulus if modulus else d - floor) for d in degrees)
        out.append({"rank": len(degrees), "maslov": dict(hist), "modulus": modulus})
    out.sort(key=lambda o: (-o["rank"], sorted(o["maslov"].items())))
    return out


def matrix_product(a, b):
    """The integer matrix a times b: b's action followed by a's."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def product_arrow_loops(structure, gradings):
    """gr(tgt)^-1 * (lambda*gr(coef))^-1 * gr(src) per arrow, by two
    products; coefficients sit on the trailing blocks."""
    sizes = structure.factor_sizes()
    assert gradings.sizes[len(gradings.sizes) - len(sizes):] == sizes
    length = chain_length(gradings.sizes)
    lam = lambda_power(gradings.sizes)
    reps = gradings.reps
    rep_inverse = {y: g.inverse() for y, g in reps.items()}
    coef_inverse = {}
    loops = []
    for x in structure.generators:
        for y, coefs in structure.delta[x].items():
            for coef in coefs:
                if coef not in coef_inverse:
                    c = gr_coefficient(coef, sizes)
                    g = lam * place(c, length, length - len(c.chain))
                    coef_inverse[coef] = g.inverse()
                loops.append(rep_inverse[y] * coef_inverse[coef] * reps[x])
    return loops


def product_arrow_defects(structure, gradings):
    """The distinct loops that are not the identity modulo a product lattice."""
    lattice = ProductLattice(gradings.relations, gradings.sizes)
    trivial = (0, lattice.lambda_torsion2)
    loops = dedupe_relations(product_arrow_loops(structure, gradings))
    return [h for h in loops if lattice.lambda_degree(h) != trivial]
