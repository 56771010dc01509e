"""Type D structures over products of strands algebras.

A structure holds generators with one idempotent per algebra factor and a
sparse delta whose coefficients are tuples of basic strands generators, one
per factor.  An F2 chain complex is the degenerate case with no factors.
The morphism complexes, tensor products, and arrow cancellation all
operate uniformly on this representation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import algebra as alg
from .grading import (
    GradingElement,
    Gradings,
    dedupe_relations,
    gr_coefficient,
    lambda_power,
    propagate_gradings,
)
from .pmc import PointedMatchedCircle


class StructureError(RuntimeError):
    """An internal invariant (such as d squared = 0) failed."""


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
        if f.truncated and any(m > 1 for m in p.supp):
            return None
        out.append(p)
    return tuple(out)


def coef_differential(factors, c):
    """Leibniz differential of a coefficient tuple, as a set of tuples."""
    out: set = set()
    for i, a in enumerate(c):
        for term in alg.differential_basic(a):
            if factors[i].truncated and any(m > 1 for m in term.supp):
                continue
            out ^= {c[:i] + (term,) + c[i + 1:]}
    return out


def coef_is_idempotent(c) -> bool:
    return all(a.is_idempotent for a in c)


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

    def add_arrow(self, src, tgt, coef) -> None:
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

    def idempotent_coef(self, src, tgt):
        return tuple(
            alg.idempotent(f.pmc, sorted(self.idem[src][i]))
            for i, f in enumerate(self.factors)
        )

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
            out.gradings = self.gradings.with_reps(
                {order[g]: rep for g, rep in self.gradings.reps.items()})
        return out

    # -- structural equation ----------------------------------------------

    def d_squared(self) -> dict:
        """(src, tgt) -> surviving coefficient set of the squared delta."""
        acc: dict = {}
        for x in self.generators:
            for y, coefs in self.delta[x].items():
                for c in coefs:
                    for term in coef_differential(self.factors, c):
                        key = (x, y)
                        acc[key] = acc.get(key, frozenset()) ^ {term}
                for z, coefs2 in self.delta[y].items():
                    for c in coefs:
                        for e in coefs2:
                            p = coef_multiply(self.factors, c, e)
                            if p is not None:
                                key = (x, z)
                                acc[key] = acc.get(key, frozenset()) ^ {p}
        return {k: v for k, v in acc.items() if v}

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

    def grading_blocks(self) -> tuple[int, ...]:
        if self.gradings is not None:
            return self.gradings.sizes
        return self.factor_sizes()


def verify_idempotent_compat(M: TypeDStructure) -> bool:
    for x in M.generators:
        for y, coefs in M.delta[x].items():
            for c in coefs:
                for i in range(len(M.factors)):
                    if c[i].left_pairs != M.idem[x][i] or c[i].right_pairs != M.idem[y][i]:
                        return False
    return True


# ---------------------------------------------------------------------------
# Tensor product over F2 (external: disjoint factor lists)


def tensor(M: TypeDStructure, N: TypeDStructure) -> TypeDStructure:
    out = TypeDStructure(M.factors + N.factors, name=f"({M.name})x({N.name})")
    for u in M.generators:
        for v in N.generators:
            out.add_generator((u, v), M.idem[u] + N.idem[v])
    for u in M.generators:
        for v in N.generators:
            for u2, coefs in M.delta[u].items():
                pad = tuple(alg.idempotent(f.pmc, sorted(s)) for f, s in zip(N.factors, N.idem[v]))
                for c in coefs:
                    out.add_arrow((u, v), (u2, v), c + pad)
            for v2, coefs in N.delta[v].items():
                pad = tuple(alg.idempotent(f.pmc, sorted(s)) for f, s in zip(M.factors, M.idem[u]))
                for c in coefs:
                    out.add_arrow((u, v), (u, v2), pad + c)
    if M.gradings is not None and N.gradings is not None:
        sizes = M.gradings.sizes + N.gradings.sizes
        reps = {}
        for u in M.generators:
            gu = M.gradings.reps[u]
            for v in N.generators:
                gv = N.gradings.reps[v]
                reps[(u, v)] = GradingElement(gu.j2 + gv.j2, gu.alphas + gv.alphas)
        rels = [_pad_right(r, N.gradings.sizes) for r in M.gradings.relations]
        rels += [_pad_left(r, M.gradings.sizes) for r in N.gradings.relations]
        out.gradings = Gradings(sizes, reps, rels)
    return out


def _pad_right(g: GradingElement, sizes) -> GradingElement:
    return GradingElement(g.j2, g.alphas + tuple((0,) * s for s in sizes))


def _pad_left(g: GradingElement, sizes) -> GradingElement:
    return GradingElement(g.j2, tuple((0,) * s for s in sizes) + g.alphas)


# ---------------------------------------------------------------------------
# Morphism complexes


_basics_cache: dict = {}


def _basics_between(factor: AlgebraFactor, left: frozenset, right: frozenset):
    key = (factor, left, right)
    if key in _basics_cache:
        return _basics_cache[key]
    out = [
        a
        for a in alg.full_basis(factor.pmc)
        if a.left_pairs == left and a.right_pairs == right
    ]
    if factor.truncated:
        out = [a for a in out if all(m <= 1 for m in a.supp)]
    _basics_cache[key] = out
    return out


def mor_complex(M: TypeDStructure, N: TypeDStructure) -> TypeDStructure:
    """Chain complex of module maps between structures over one algebra.

    Basis elements (x, coefficients, y) stand for the map sending the
    generator x of M to the algebra-decorated generator y of N; the
    differential combines the coefficient differential with composition
    against the deltas on both sides.
    """
    if M.factors != N.factors:
        raise ValueError("morphism complex needs both structures over the same factors")
    out = TypeDStructure((), name=f"Mor({M.name},{N.name})")
    factors = M.factors
    per_pair: dict = {}
    for x in M.generators:
        for y in N.generators:
            choices = [
                _basics_between(f, M.idem[x][i], N.idem[y][i])
                for i, f in enumerate(factors)
            ]
            per_pair[(x, y)] = _product_tuples(choices)
            for coef in per_pair[(x, y)]:
                out.add_generator((x, coef, y), ())
    for x in M.generators:
        for y in N.generators:
            for coef in per_pair[(x, y)]:
                src = (x, coef, y)
                for term in coef_differential(factors, coef):
                    out.add_arrow(src, (x, term, y), ())
                for y2, coefs in N.delta[y].items():
                    for e in coefs:
                        p = coef_multiply(factors, coef, e)
                        if p is not None:
                            out.add_arrow(src, (x, p, y2), ())
                for x0 in M.generators:
                    for x1, coefs in M.delta[x0].items():
                        if x1 != x:
                            continue
                        for e in coefs:
                            p = coef_multiply(factors, e, coef)
                            if p is not None:
                                out.add_arrow(src, (x0, p, y), ())
    _mor_gradings(out, M, N, spectator=None)
    return out


def mor_against_bimodule(B: TypeDStructure, N: TypeDStructure, seam: int) -> TypeDStructure:
    """Morphisms from a two-factor structure into a one-factor structure.

    The factor of B selected by ``seam`` is consumed against N's algebra,
    which must agree with it on the nose.  Morphism complexes are
    contravariant in their source, so the surviving action of the other
    factor is a right action: the result is a left type D structure over
    the reversed circle, with coefficients carried through the
    orientation-reversing map.
    """
    from .pmc import reversed_pair_map, reverse_pmc

    if len(B.factors) != 2 or len(N.factors) != 1:
        raise ValueError("need a two-factor source and a one-factor target")
    if B.factors[seam] != N.factors[0]:
        raise ValueError("seam factor does not match the target algebra")
    keep = 1 - seam
    keep_pmc = B.factors[keep].pmc
    rpm = reversed_pair_map(keep_pmc)
    out = TypeDStructure(
        (AlgebraFactor(reverse_pmc(keep_pmc), B.factors[keep].truncated),),
        name=f"Mor({B.name},{N.name})",
    )
    factor = B.factors[seam]

    def translate(pairs):
        return frozenset(rpm[p] for p in pairs)

    per_pair: dict = {}
    for b in B.generators:
        for u in N.generators:
            per_pair[(b, u)] = _basics_between(factor, B.idem[b][seam], N.idem[u][0])
            for a in per_pair[(b, u)]:
                out.add_generator((b, a, u), (translate(B.idem[b][keep]),))

    incoming: dict = {}
    for b0 in B.generators:
        for b1, coefs in B.delta[b0].items():
            incoming.setdefault(b1, []).append((b0, coefs))

    for b in B.generators:
        for u in N.generators:
            for a in per_pair[(b, u)]:
                src = (b, a, u)
                ident = out.idempotent_coef(src, src)
                for term in alg.differential_basic(a):
                    if factor.truncated and any(m > 1 for m in term.supp):
                        continue
                    out.add_arrow(src, (b, term, u), ident)
                for u2, coefs in N.delta[u].items():
                    for e in coefs:
                        p = alg.multiply_basic(a, e[0])
                        if p is None or (factor.truncated and any(m > 1 for m in p.supp)):
                            continue
                        out.add_arrow(src, (b, p, u2), ident)
                for b0, coefs in incoming.get(b, []):
                    for e in coefs:
                        q = e[seam]
                        p = alg.multiply_basic(q, a)
                        if p is None or (factor.truncated and any(m > 1 for m in p.supp)):
                            continue
                        out.add_arrow(src, (b0, p, u), (alg.opposite_basic(e[keep]),))
    _mor_gradings(out, B, N, spectator=keep)
    return out


def _product_tuples(choices):
    out = [()]
    for pool in choices:
        out = [t + (a,) for t in out for a in pool]
    return out


def _place_blocks(g: GradingElement, sizes, positions) -> GradingElement:
    """Embed g's blocks into a wider stack at the given positions."""
    alphas = [(0,) * s for s in sizes]
    for block, pos in zip(g.alphas, positions):
        if len(block) != sizes[pos]:
            raise ValueError("block size mismatch while embedding grading")
        alphas[pos] = tuple(x + y for x, y in zip(alphas[pos], block))
    return GradingElement(g.j2, tuple(alphas))


def _mor_gradings(out: TypeDStructure, M: TypeDStructure, N: TypeDStructure, spectator):
    """Gradings of a morphism complex: the coset of gr(x)^-1 gr'(a) gr(y).

    The consumed blocks of M are identified with N's live blocks; N's
    retired blocks ride along.  A surviving factor's block is moved to the
    front so the result again has its live blocks first.
    """
    if M.gradings is None or N.gradings is None:
        return
    m_sizes = M.gradings.sizes
    n_sizes = N.gradings.sizes
    if m_sizes != M.factor_sizes() or n_sizes[: len(N.factors)] != N.factor_sizes():
        return  # unsupported stacking layout; leave ungraded
    n_old = n_sizes[len(N.factors):]

    if spectator is None:
        # Full consumption: every factor of M pairs with the same factor of N.
        sizes = m_sizes + n_old
        m_pos = list(range(len(m_sizes)))
        n_pos = m_pos + list(range(len(m_sizes), len(sizes)))
        coef_pos = m_pos
        transport = lambda g: g
    else:
        keep, seam = spectator, 1 - spectator
        sizes = (m_sizes[keep], m_sizes[seam]) + n_old
        m_pos = [0, 1] if keep == 0 else [1, 0]
        n_pos = [1] + list(range(2, len(sizes)))
        coef_pos = [1]

        def transport(g: GradingElement, _k=keep) -> GradingElement:
            # the surviving action is a right action read over the reversed
            # circle: its block transports by minus the reversed chain
            alphas = list(g.alphas)
            alphas[_k] = tuple(-v for v in reversed(alphas[_k]))
            return GradingElement(g.j2, tuple(alphas))

    reps = {}
    for key in out.generators:
        x, coef, y = key
        gx = _place_blocks(transport(M.gradings.reps[x]), sizes, m_pos)
        gy = _place_blocks(N.gradings.reps[y], sizes, n_pos)
        coef_tuple = coef if spectator is None else (coef,)
        ga = _place_blocks(
            gr_coefficient(coef_tuple, tuple(len(a.supp) for a in coef_tuple)),
            sizes,
            coef_pos,
        )
        reps[key] = gx.inverse() * ga * gy
    rels = [_place_blocks(transport(r), sizes, m_pos) for r in M.gradings.relations]
    rels += [_place_blocks(r, sizes, n_pos) for r in N.gradings.relations]
    grad = Gradings(sizes, reps, dedupe_relations(rels))

    lam = lambda_power(sizes)
    extra = []
    result_pos = [0] if spectator is not None else []
    for x in out.generators:
        for y, coefs in out.delta[x].items():
            for coef in coefs:
                g = lam
                if coef:
                    g = lam * _place_blocks(
                        gr_coefficient(coef, out.factor_sizes()), sizes, result_pos
                    )
                extra.append((g * grad.reps[y]).inverse() * grad.reps[x])
    defects = [h for h in dedupe_relations(extra)
               if grad.lattice.lambda_degree(h) != (0, grad.lattice.lambda_torsion2)]
    if defects:
        grad = Gradings(sizes, reps, grad.compact().relations + defects)
    out.gradings = grad.compact()


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


def cancel(M: TypeDStructure, order_seed: int = 0) -> TypeDStructure:
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
    """
    out = M.copy()
    delta = out.delta
    back: dict = {x: set() for x in out.generators}
    for x in out.generators:
        for y in delta[x]:
            back[y].add(x)
    order = out.sorted_generators()
    rank = {g: (i - order_seed) % len(order) for i, g in enumerate(order)}
    heap: list = []  # (cost, rank x, rank y, x, y); the ranks make entries unique

    def ident_of(x, y):
        if x != y:
            for c in delta[x].get(y, ()):
                if coef_is_idempotent(c):
                    return c
        return None

    def push(x, y):
        if ident_of(x, y) is not None:
            cost = (len(back[y]) - 1) * (len(delta[x]) - 1)
            heapq.heappush(heap, (cost, rank[x], rank[y], x, y))

    for x in out.generators:
        for y in delta[x]:
            push(x, y)

    while heap:
        cost, _, _, x, y = heapq.heappop(heap)
        if x not in delta or y not in delta:
            continue
        ident = ident_of(x, y)
        if ident is None or cost != (len(back[y]) - 1) * (len(delta[x]) - 1):
            continue
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
    return out


def modules_isomorphic(M: TypeDStructure, N: TypeDStructure) -> bool:
    """Whether two type D structures match under an idempotent bijection.

    Searches the idempotent-respecting generator bijections for one
    carrying the differential over on the nose; enough to compare reduced
    models with few generators per idempotent.
    """
    from itertools import permutations

    if M.factors != N.factors or len(M.generators) != len(N.generators):
        return False
    by_idem_m: dict = {}
    by_idem_n: dict = {}
    for g in M.generators:
        by_idem_m.setdefault(M.idem[g], []).append(g)
    for g in N.generators:
        by_idem_n.setdefault(N.idem[g], []).append(g)
    if set(by_idem_m) != set(by_idem_n):
        return False
    if any(len(by_idem_m[k]) != len(by_idem_n[k]) for k in by_idem_m):
        return False
    keys = sorted(by_idem_m, key=repr)
    choices = [list(permutations(by_idem_n[k])) for k in keys]

    def assignments(idx, mapping):
        if idx == len(keys):
            yield dict(mapping)
            return
        for perm in choices[idx]:
            new = dict(mapping)
            new.update(zip(by_idem_m[keys[idx]], perm))
            yield from assignments(idx + 1, new)

    for phi in assignments(0, {}):
        ok = True
        for x in M.generators:
            got = {(phi[y], coefs) for y, coefs in M.delta[x].items()}
            want = {(y, coefs) for y, coefs in N.delta[phi[x]].items()}
            if got != want:
                ok = False
                break
        if ok:
            return True
    return False


def homology_rank(C: TypeDStructure) -> int:
    """Rank of the homology of an F2 complex (no algebra factors)."""
    if C.factors:
        raise ValueError("homology is for bare complexes; cancel modules first")
    return len(cancel(C).generators)
