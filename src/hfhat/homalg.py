"""Type D structures over products of strands algebras.

A structure holds generators with one idempotent per algebra factor and a
sparse delta whose coefficients are tuples of basic strands generators, one
per factor.  An F2 chain complex is the degenerate case with no factors.
The morphism complexes, tensor products, and arrow cancellation all
operate uniformly on this representation.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import add, mul

from . import algebra as alg
from .grading import (
    GradingElement,
    Gradings,
    ProductReps,
    StructureError,
    _boundary,
    arrow_loop,
    chain_length,
    gr_coefficient,
    join,
    loop_defects,
    propagate_gradings,
    split_blocks,
    stack_blocks,
)
from .pmc import PointedMatchedCircle


@dataclass(frozen=True)
class AlgebraFactor:
    pmc: PointedMatchedCircle
    truncated: bool = False

    @property
    def size(self) -> int:
        return max(self.pmc.n_points - 1, 0)


def coef_multiply(factors, c1, c2):
    """Componentwise product of basic coefficient tuples; None if it dies."""
    out = []
    for f, a, b in zip(factors, c1, c2):
        p = alg.multiply_basic(a, b)
        if p is None:
            return None
        if f.truncated and not p.kept:
            return None
        out.append(p)
    return tuple(out)


def coef_differential(factors, c):
    """Leibniz differential of a coefficient tuple, one tuple per term.

    Terms from different factors differ in the factor they change, so
    none cancel and they come out factor by factor.
    """
    for i, a in enumerate(c):
        for term in alg.differential_basic(a):
            if term.kept or not factors[i].truncated:
                yield c[:i] + (term,) + c[i + 1:]


def identity_coef(factors, idem) -> tuple:
    """The identity coefficient of an idempotent, one per factor.

    It is the only idempotent coefficient an arrow out of a generator with
    that idempotent can carry: an idempotent diagram is fixed by its pairs.
    """
    return tuple(alg.idempotent(f.pmc, s) for f, s in zip(factors, idem))


class TypeDStructure:
    """Finitely generated type D structure with algebra-valued delta."""

    def __init__(self, factors, name: str = ""):
        self.factors = tuple(factors)
        self.name = name
        self.generators: list = []
        self.idem: dict = {}
        self.delta: dict = {}
        self.gradings: Gradings | None = None

    # -- construction -----------------------------------------------------

    def add_generator(self, key, idempotents) -> None:
        idem = tuple(frozenset(s) for s in idempotents)
        if len(idem) != len(self.factors):
            raise ValueError("one idempotent needed per algebra factor")
        if key in self.idem:
            raise ValueError(f"duplicate generator {key!r}")
        self.generators.append(key)
        self.idem[key] = idem
        self.delta[key] = {}

    def add_arrow(self, src, tgt, coef) -> bool:
        """Toggle the coefficient on the arrow src -> tgt over F2; whether
        it is now there."""
        coef = tuple(coef)
        for i, a in enumerate(coef):
            if a.left_pairs != self.idem[src][i] or a.right_pairs != self.idem[tgt][i]:
                raise ValueError(f"coefficient {coef!r} incompatible with idempotents")
        entry = self.delta[src].setdefault(tgt, frozenset())
        entry ^= {coef}
        if entry:
            self.delta[src][tgt] = entry
        else:
            del self.delta[src][tgt]
        return coef in entry

    def idempotent_coef(self, src):
        return identity_coef(self.factors, self.idem[src])

    # -- bookkeeping -------------------------------------------------------

    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)

    def arrow_count(self) -> int:
        return sum(len(v) for row in self.delta.values() for v in row.values())

    def sorted_generators(self) -> list:
        return sorted(self.generators, key=repr)

    def copy(self) -> "TypeDStructure":
        out = TypeDStructure(self.factors, self.name)
        out.generators = list(self.generators)
        out.idem = dict(self.idem)
        out.delta = {x: dict(row) for x, row in self.delta.items()}
        out.gradings = self.gradings
        return out

    def relabel(self) -> "TypeDStructure":
        """Rename generators to small integers, deterministically.

        Deeply nested keys accumulate along a pipeline; flattening them
        keeps hashing and ordering cheap without touching the structure.
        """
        order = {g: i for i, g in enumerate(self.sorted_generators())}
        out = TypeDStructure(self.factors, self.name)
        for g in self.generators:
            out.add_generator(order[g], self.idem[g])
        for x, row in self.delta.items():
            for y, coefs in row.items():
                out.delta[order[x]][order[y]] = coefs
        if self.gradings is not None:
            out.gradings = self.gradings.renamed(order)
        return out

    # -- structural equation ----------------------------------------------

    def d_squared(self) -> dict:
        """(src, tgt) -> surviving coefficient set of the squared delta."""
        odd: dict = {}  # (src, tgt, term) seen an odd number of times, first-seen order
        for x in self.generators:
            for y, coefs in self.delta[x].items():
                terms = [(y, term) for c in coefs for term in coef_differential(self.factors, c)]
                for z, coefs2 in self.delta[y].items():
                    for c in coefs:
                        for e in coefs2:
                            p = coef_multiply(self.factors, c, e)
                            if p is not None:
                                terms.append((z, p))
                for z, term in terms:
                    item = (x, z, term)
                    if item in odd:
                        del odd[item]
                    else:
                        odd[item] = None
        out: dict = {}
        for x, z, term in odd:
            out.setdefault((x, z), set()).add(term)
        return {key: frozenset(terms) for key, terms in out.items()}

    def verify_d_squared(self) -> bool:
        return not self.d_squared()

    def require_d_squared(self) -> None:
        bad = self.d_squared()
        if bad:
            raise StructureError(f"d^2 != 0 on {self.name or 'structure'}: {sorted(bad, key=repr)[:3]}")

    # -- gradings ----------------------------------------------------------

    def propagate_gradings(self) -> Gradings:
        self.gradings = propagate_gradings(self)
        return self.gradings


def truncate(M: TypeDStructure) -> TypeDStructure:
    """The image of M over the truncated algebras: the same generators,
    and the arrows whose every coefficient entry is kept.

    Diagrams of local multiplicity at least two span a dg ideal (supports
    add under products, and the differential keeps them), so the quotient
    map is a dg map and the image is again a structure.  Every kept arrow
    is an arrow of M, so M's grading set grades the image; d^2 = 0 is
    checked on it.
    """
    out = TypeDStructure([AlgebraFactor(f.pmc, True) for f in M.factors], M.name)
    out.generators = list(M.generators)
    out.idem = dict(M.idem)
    for x, row in M.delta.items():
        kept = {y: frozenset(c for c in coefs if all(a.kept for a in c))
                for y, coefs in row.items()}
        out.delta[x] = {y: coefs for y, coefs in kept.items() if coefs}
    out.gradings = M.gradings
    out.require_d_squared()
    return out


# ---------------------------------------------------------------------------
# Tensor product over F2 (external: disjoint factor lists)


def tensor(M: TypeDStructure, N: TypeDStructure) -> TypeDStructure:
    """M x N over the union of their factor lists, graded by joining the
    two grading sets; both structures must be graded."""
    _require_gradings(M, N)
    out = TypeDStructure(M.factors + N.factors, name=f"({M.name})x({N.name})")
    for u in M.generators:
        for v in N.generators:
            out.add_generator((u, v), M.idem[u] + N.idem[v])
    m_pad = {u: M.idempotent_coef(u) for u in M.generators}
    n_pad = {v: N.idempotent_coef(v) for v in N.generators}
    for u in M.generators:
        for v in N.generators:
            for u2, coefs in M.delta[u].items():
                for c in coefs:
                    out.add_arrow((u, v), (u2, v), c + n_pad[v])
            for v2, coefs in N.delta[v].items():
                for c in coefs:
                    out.add_arrow((u, v), (u, v2), m_pad[u] + c)
    m_reps, n_reps = M.gradings.reps, N.gradings.reps
    m_one, n_one = (GradingElement(0, (0,) * chain_length(S.gradings.sizes)) for S in (M, N))
    reps = {(u, v): join(m_reps[u], n_reps[v]) for u in M.generators for v in N.generators}
    rels = [join(r, n_one) for r in M.gradings.relations]
    rels += [join(m_one, r) for r in N.gradings.relations]
    out.gradings = Gradings(M.gradings.sizes + N.gradings.sizes, reps, rels)
    return out


def _require_gradings(*structures: TypeDStructure) -> None:
    for S in structures:
        if S.gradings is None:
            raise ValueError(f"{S.name or 'structure'} is ungraded; grade it before pairing")


# ---------------------------------------------------------------------------
# Morphism complexes


def mor_complex(M: TypeDStructure, N: TypeDStructure) -> TypeDStructure:
    """Chain complex of module maps between structures over one algebra.

    Basis elements (x, coefficients, y) stand for the map sending the
    generator x of M to the algebra-decorated generator y of N; the
    differential combines the coefficient differential with composition
    against the deltas on both sides.
    """
    if M.factors != N.factors:
        raise ValueError("morphism complex needs both structures over the same factors")
    return _mor(M, N, None)


def mor_against_bimodule(B: TypeDStructure, N: TypeDStructure, seam: int) -> TypeDStructure:
    """Morphisms from a two-factor structure into a one-factor structure.

    The factor of B selected by ``seam`` is consumed against N's algebra,
    which must agree with it on the nose.  Morphism complexes are
    contravariant in their source, so the surviving action of the other
    factor is a right action: the result is a left type D structure over
    the reversed circle, with coefficients carried through the
    orientation-reversing map.
    """
    if len(B.factors) != 2 or len(N.factors) != 1:
        raise ValueError("need a two-factor source and a one-factor target")
    if B.factors[seam] != N.factors[0]:
        raise ValueError("seam factor does not match the target algebra")
    return _mor(B, N, 1 - seam)


def _mor(M: TypeDStructure, N: TypeDStructure, keep) -> TypeDStructure:
    """Mor(M, N) with every factor of M but ``keep`` consumed against N's.

    Generators are (x, coef, y) with one basic element of each consumed
    factor in coef.  The kept factor of M, if any, survives as a left
    action over its reversed circle, its coefficients carried through the
    orientation-reversing map.  Both sides must be graded; each arrow's
    loop is tallied under the factor arrow that produced it
    (``_MorGrading``).
    """
    _require_gradings(M, N)
    kept = [] if keep is None else [keep]
    consumed = [i for i in range(len(M.factors)) if i != keep]
    reversals = [alg.reversal(M.factors[i].pmc) for i in kept]
    out = TypeDStructure(
        [AlgebraFactor(rev, M.factors[i].truncated) for (rev, _), i in zip(reversals, kept)],
        name=f"Mor({M.name},{N.name})",
    )
    stage = _MorGrading(M, N, keep)
    tally = stage.tally

    per_pair: dict = {}
    ident: dict = {}  # x -> the identity coefficient of every generator (x, coef, y)
    for x in M.generators:
        idem = tuple(alg.pair_set(rev, (rpm[p] for p in M.idem[x][i]))
                     for (rev, rpm), i in zip(reversals, kept))
        ident[x] = identity_coef(out.factors, idem)
        for y in N.generators:
            choices = [
                alg.basics_between(N.factors[k].pmc, M.idem[x][i], N.idem[y][k],
                                   N.factors[k].truncated)
                for k, i in enumerate(consumed)
            ]
            per_pair[(x, y)] = list(product(*choices))
            for coef in per_pair[(x, y)]:
                out.add_generator((x, coef, y), idem)

    # arrows out of each y of N, with the key of their loop
    outgoing = {y: [(y2, e, stage.n_loop(y, y2, e))
                    for y2, coefs in N.delta[y].items() for e in coefs]
                for y in N.generators}
    # arrows into each x of M, split once into consumed and (opposite) kept
    # parts, with the core of their loops
    incoming: dict = {}
    for x0 in M.generators:
        for x1, coefs in M.delta[x0].items():
            parts = []
            for e in coefs:
                e_c = tuple(e[i] for i in consumed)
                k = tuple(alg.opposite_basic(e[i]) for i in kept)
                parts.append((e_c, k, stage.core(x0, x1, e_c, k)))
            incoming.setdefault(x1, []).append((x0, parts))

    for x in M.generators:
        into = incoming.get(x, ())
        for y in N.generators:
            for coef in per_pair[(x, y)]:
                src = (x, coef, y)
                for term in coef_differential(N.factors, coef):
                    added = out.add_arrow(src, (x, term, y), ident[x])
                    tally[_IDENTITY_LOOP] += 1 if added else -1
                for y2, e, loop in outgoing[y]:
                    p = coef_multiply(N.factors, coef, e)
                    if p is not None:
                        tally[loop] += 1 if out.add_arrow(src, (x, p, y2), ident[x]) else -1
                g = stage.g_chain(coef, y) if into else ()
                for x0, parts in into:
                    for e, kept_part, (j2, chain, d_h) in parts:
                        p = coef_multiply(N.factors, e, coef)
                        if p is not None:
                            # g^-1 h g for the core h: one dot product
                            loop = (j2 - 2 * sum(map(mul, g, d_h)), chain)
                            tally[loop] += 1 if out.add_arrow(src, (x0, p, y), kept_part) else -1
    _mor_gradings(out, stage)
    return out


_IDENTITY_LOOP = (0, 0)  # the identity loop's key in every ``_MorGrading``


class _MorGrading:
    """The grading pieces of Mor(M, N) and the tally of its arrow loops.

    The layout is M's consumed blocks, which are N's blocks, and then the
    kept factor's block, if any, so N's reps and the consumed coefficients
    sit at offset 0.  A generator (x, a, y) has the rep X gr(a) gr(y), X
    the transported gr(x)^-1.

    Each arrow's loop is read from the factor arrow that produced it (the
    Mor loops of the ``grading`` module docstring) and keyed (j2, chain
    index), chains numbered by value in ``chain_ids``.  ``tally`` counts a
    loop +1 for every coefficient ``add_arrow`` adds and -1 for every one
    it toggles away, so the loops with a positive count are exactly the
    loops of the complex's arrows.
    """

    def __init__(self, M: TypeDStructure, N: TypeDStructure, keep):
        m_sizes = M.gradings.sizes
        kept = [] if keep is None else [keep]
        consumed = [i for i in range(len(m_sizes)) if i != keep]
        self.sizes = tuple(m_sizes[i] for i in consumed + kept)
        self.eliminated = len(consumed) if kept else 0  # a final pairing keeps its blocks
        self.consumed_sizes = tuple(m_sizes[i] for i in consumed)
        self.kept_sizes = tuple(m_sizes[i] for i in kept)
        self.cut = chain_length(self.consumed_sizes)
        self.length = chain_length(self.sizes)
        self.pad = (0,) * (self.length - self.cut)  # the kept block and its separator, if any

        def transport(g: GradingElement) -> GradingElement:
            # a kept action is a right action read over the reversed circle,
            # whose grading group is the opposite one: its block is reversed
            blocks = split_blocks(g.chain, m_sizes)
            tail = [tuple(reversed(blocks[i])) for i in kept]
            return GradingElement(g.j2, stack_blocks([blocks[i] for i in consumed] + tail))

        self.x_inv = {x: transport(g).inverse() for x, g in M.gradings.reps.items()}
        self.y_rep = {y: self.padded(g) for y, g in N.gradings.reps.items()}
        self.relations = [transport(r) for r in M.gradings.relations]
        self.relations += [self.padded(r) for r in N.gradings.relations]
        self.coefs: dict = {}  # consumed coefficient -> its grading on the layout
        self.kept_coefs: dict = {}  # kept coefficient k -> lambda gr(k) on the layout
        self.chain_ids = {(0,) * self.length: 0}  # _IDENTITY_LOOP's chain
        self.tally: Counter = Counter()

    def padded(self, g: GradingElement) -> GradingElement:
        """An element of N on the layout: the kept block, if any, is 0."""
        return GradingElement(g.j2, g.chain + self.pad)

    def coef(self, coef) -> GradingElement:
        """gr(coef) of a consumed coefficient on the layout."""
        g = self.coefs.get(coef)
        if g is None:
            g = self.coefs[coef] = self.padded(gr_coefficient(coef, self.consumed_sizes))
        return g

    def _chain_id(self, chain) -> int:
        return self.chain_ids.setdefault(chain, len(self.chain_ids))

    def n_loop(self, y, y2, e) -> tuple:
        """The key of N's loop gr(y2)^-1 (lambda gr(e))^-1 gr(y)."""
        a = self.coef(e)
        j2, chain = arrow_loop(self.y_rep[y], self.y_rep[y2], GradingElement(a.j2 + 2, a.chain))
        return (j2, self._chain_id(chain))

    def core(self, x0, x, e_c, k) -> tuple:
        """(j2, chain index, boundary of the chain[:cut]) of the core
        h = gr(e_c)^-1 X0^-1 (lambda gr(k))^-1 X of an arrow x0 -> x of M
        with consumed part e_c and kept part k: the arrow loop of k from X
        to X0 gr(e_c)."""
        lam_k = self.kept_coefs.get(k)
        if lam_k is None:
            g = gr_coefficient(k, self.kept_sizes)  # k = () in a final pairing
            lam_k = self.kept_coefs[k] = GradingElement(
                g.j2 + 2, (0,) * (self.length - len(g.chain)) + g.chain)
        j2, chain = arrow_loop(self.x_inv[x], self.x_inv[x0] * self.coef(e_c), lam_k)
        return (j2, self._chain_id(chain), _boundary(chain)[:self.cut])

    def g_chain(self, coef, y) -> tuple:
        """The chain of g = gr(a) gr(y) on the consumed blocks, where it lives."""
        return tuple(map(add, self.coef(coef).chain[:self.cut], self.y_rep[y].chain[:self.cut]))

    def loops(self) -> list:
        """The distinct loops (j2, chain) with a positive count, in
        first-seen order."""
        chains = list(self.chain_ids)
        return [(j2, chains[c]) for (j2, c), n in self.tally.items() if n > 0]

    def gradings(self, out: TypeDStructure) -> Gradings:
        """The grading set on the layout, each rep a product built on read."""
        x_inv, y_rep, coef = self.x_inv, self.y_rep, self.coef
        reps = ProductReps({key: (x_inv[key[0]], coef(key[1]), y_rep[key[2]])
                            for key in out.generators})
        return Gradings(self.sizes, reps, self.relations)


def _mor_gradings(out: TypeDStructure, stage: _MorGrading) -> None:
    """Gradings of a morphism complex: the coset of gr(x)^-1 gr'(a) gr(y).

    The set is laid out as ``_MorGrading`` says.  The loops that ``_mor``
    tallied, one per distinct loop of an arrow, are checked on that
    layout.  A stage then eliminates the consumed blocks, leaving exactly
    its factor's block; a final pairing keeps them, since there the
    residues are its spin-c structures.  Every generator's residue is
    checked, but its rep is built only when it is first read, so a stage
    builds the reps of the generators that ``cancel`` keeps.
    """
    grad = stage.gradings(out)
    defects = loop_defects(stage.loops(), grad)
    if defects:
        grad = Gradings(grad.sizes, grad.reps, grad.lattice.generators() + defects)
    try:
        out.gradings = grad.eliminate(stage.eliminated)
    except StructureError as err:
        raise StructureError(f"{out.name}: {err}") from None


# ---------------------------------------------------------------------------
# Reduction by cancelling idempotent-coefficient arrows


def _coef_inverse(factors, entry, ident):
    """(ident + rest)^-1 = sum of powers of rest; rest is nilpotent."""
    rest = entry - {ident}
    total = {ident}
    power = frozenset(rest)
    while power:
        total ^= power
        nxt: set = set()
        for c1 in power:
            for c2 in rest:
                p = coef_multiply(factors, c1, c2)
                if p is not None:
                    nxt ^= {p}
        power = frozenset(nxt)
    return frozenset(total)


def cancel(M: TypeDStructure, order_seed: int = 0, retract: dict | None = None) -> TypeDStructure:
    """Remove all idempotent-coefficient arrows by zig-zag elimination.

    Each step drops a pair of generators joined by an invertible arrow and
    splices the remaining arrows through its inverse.  The pivot is the
    arrow x -> y of least Markowitz cost (|back(y)| - 1) * (|delta(x)| - 1),
    which keeps fill-in small; ties go to the least (rank x, rank y), where
    rank is the position in ``sorted_generators()`` and a nonzero
    ``order_seed`` rotates it.  A heap holds the candidate arrows; after a
    splice only arrows at the generators it touched are pushed again, and
    entries that no longer match the structure are dropped when popped.
    Gradings of surviving generators carry over unchanged.

    For a bare complex, a ``retract`` dict is filled with the strong
    deformation retract the pivots compose to: "f" sends each survivor to
    a chain of M, "g" each generator of M to a chain of survivors, and "T"
    each generator of M to a chain of M, with g f = 1 and
    dT + Td = 1 + f g.  Chains are sets of generators.
    """
    if retract is not None and M.factors:
        raise ValueError("a retract is recorded only for bare complexes")
    out = M.copy()
    delta = out.delta
    back: dict = {x: set() for x in out.generators}
    for x in out.generators:
        for y in delta[x]:
            back[y].add(x)
    order = out.sorted_generators()
    rank = {g: (i - order_seed) % len(order) for i, g in enumerate(order)}
    heap: list = []  # (cost, rank x, rank y, x, y); the ranks make entries unique
    # the one idempotent coefficient an arrow out of x can carry
    identity = {x: out.idempotent_coef(x) for x in out.generators}

    def push(x, y):
        if x != y and identity[x] in delta[x].get(y, ()):
            cost = (len(back[y]) - 1) * (len(delta[x]) - 1)
            heapq.heappush(heap, (cost, rank[x], rank[y], x, y))

    for x in out.generators:
        for y in delta[x]:
            push(x, y)

    if retract is not None:
        f = {b: {b} for b in out.generators}
        g = {b: {b} for b in out.generators}
        g_into = {b: {b} for b in out.generators}  # v -> {b : v in g(b)}
        T: dict = {b: set() for b in out.generators}

    while heap:
        cost, _, _, x, y = heapq.heappop(heap)
        if x not in delta or y not in delta:
            continue
        ident = identity[x]
        if ident not in delta[x].get(y, ()) or cost != (len(back[y]) - 1) * (len(delta[x]) - 1):
            continue
        if retract is not None:
            # compose with the elementary retract of the pair x -> y: f(w) += f(x)
            # for each w -> y; where g(b) holds y, T(b) += f(x) and y becomes
            # dx - x - y; then x leaves every g(b)
            fx = f.pop(x)
            f.pop(y)
            for w in back[y] - {x, y}:
                f[w] ^= fx
            rest = set(delta[x]) - {x, y}
            for b in g_into.pop(y):
                T[b] ^= fx
                g[b].discard(y)
                for v in rest:
                    if v in g[b]:
                        g[b].discard(v)
                        g_into[v].discard(b)
                    else:
                        g[b].add(v)
                        g_into[v].add(b)
            for b in g_into.pop(x):
                g[b].discard(x)
        inv = _coef_inverse(out.factors, delta[x][y], ident)
        outgoing = [(z, coefs) for z, coefs in delta[x].items() if z not in (x, y)]
        entering = [(w, delta[w][y]) for w in back[y] if w not in (x, y)]
        for w, wcoefs in entering:
            for z, zcoefs in outgoing:
                for cw in wcoefs:
                    for ci in inv:
                        left = coef_multiply(out.factors, cw, ci)
                        if left is None:
                            continue
                        for cz in zcoefs:
                            p = coef_multiply(out.factors, left, cz)
                            if p is None:
                                continue
                            entry = delta[w].setdefault(z, frozenset()) ^ {p}
                            if entry:
                                delta[w][z] = entry
                                back[z].add(w)
                            else:
                                del delta[w][z]
                                back[z].discard(w)
        # only arrows out of these rows or into these columns change cost or appear
        sources = (back[x] | back[y]) - {x, y}
        targets = (set(delta[x]) | set(delta[y])) - {x, y}
        for dead in (x, y):
            for z in delta.pop(dead, {}):
                back[z].discard(dead)
            for w in back.pop(dead, ()):  # arrows into dead
                if w in delta and dead in delta[w]:
                    del delta[w][dead]
        for w in sources:
            for z in delta[w]:
                push(w, z)
        for z in targets:
            for w in back[z]:
                push(w, z)

    out.generators = [g for g in out.generators if g in delta]
    out.idem = {g: out.idem[g] for g in out.generators}
    out.delta = {g: delta[g] for g in out.generators}
    if out.gradings is not None:
        out.gradings = out.gradings.with_reps({g: out.gradings.reps[g] for g in out.generators})
    if retract is not None:
        retract.update(f=f, g=g, T=T)
    return out
