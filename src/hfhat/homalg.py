"""Type D structures over products of strands algebras.

A structure names one pointed matched circle per algebra factor and holds
generators with one idempotent per factor and a sparse delta whose
coefficients are tuples of basic strands generators, one per factor.  One
``truncated`` flag says whether all its factors are the truncated
algebras, as ``truncate`` makes them.  An F2 chain complex is the
degenerate case with no factors.  This module builds, pairs (morphism
complexes, tensor products) and reduces (arrow cancellation) structures;
``grading`` lays out and grades what they produce (``MorGrading``,
``join_gradings``).
"""

from __future__ import annotations

import heapq
from itertools import product
from operator import mul

from . import algebra as alg
from .grading import (
    Gradings,
    MorGrading,
    MorPlan,
    StructureError,
    join_gradings,
    loop_defects,
    propagate_gradings,
)


def coef_multiply(truncated: bool, c1, c2):
    """Componentwise product of basic coefficient tuples; None if it dies,
    or if ``truncated`` and some entry is dropped."""
    out = []
    for a, b in zip(c1, c2):
        p = alg.multiply_basic(a, b)
        if p is None or (truncated and not p.kept):
            return None
        out.append(p)
    return tuple(out)


def coef_differential(truncated: bool, c):
    """Leibniz differential of a coefficient tuple, one tuple per term;
    if ``truncated``, without the terms that truncation drops.

    Terms from different factors differ in the factor they change, so
    none cancel and they come out factor by factor.
    """
    for i, a in enumerate(c):
        for term in alg.differential_basic(a):
            if term.kept or not truncated:
                yield c[:i] + (term,) + c[i + 1:]


def identity_coef(circles, idem) -> tuple:
    """The identity coefficient of an idempotent, one per factor circle.

    It is the only idempotent coefficient an arrow out of a generator with
    that idempotent can carry: an idempotent diagram is fixed by its pairs.
    """
    return tuple(alg.idempotent(pmc, s) for pmc, s in zip(circles, idem))


class TypeDStructure:
    """Finitely generated type D structure with algebra-valued delta."""

    def __init__(self, factors, name: str = "", truncated: bool = False):
        self.factors = tuple(factors)  # one circle per algebra factor
        self.name = name
        self.truncated = truncated
        self.generators: list = []
        self.idem: dict = {}
        self.delta: dict = {}
        self.gradings: Gradings | None = None
        self.plans: dict = {}  # kept factor -> its Mor plan (``_mor_plan``)

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
        _check_idempotents(coef, self.idem[src], self.idem[tgt])
        return _toggle(self.delta[src], tgt, frozenset((coef,)))

    # -- bookkeeping -------------------------------------------------------

    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(max(pmc.n_points - 1, 0) for pmc in self.factors)

    def arrow_count(self) -> int:
        return sum(len(v) for row in self.delta.values() for v in row.values())

    def sorted_generators(self) -> list:
        return sorted(self.generators, key=repr)

    def copy(self) -> "TypeDStructure":
        out = TypeDStructure(self.factors, self.name, self.truncated)
        out.generators = list(self.generators)
        out.idem = dict(self.idem)
        out.delta = {x: dict(row) for x, row in self.delta.items()}
        out.gradings = self.gradings
        return out

    def relabel(self) -> "TypeDStructure":
        """Rename each generator to its place in ``sorted_generators()``,
        keeping their order.  The pipeline never calls this; tests and
        perfbench's trace still do."""
        order = {g: i for i, g in enumerate(self.sorted_generators())}
        out = TypeDStructure(self.factors, self.name, self.truncated)
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
                terms = [(y, term) for c in coefs for term in coef_differential(self.truncated, c)]
                for z, coefs2 in self.delta[y].items():
                    for c in coefs:
                        for e in coefs2:
                            p = coef_multiply(self.truncated, c, e)
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


def _check_idempotents(coef, src_idem, tgt_idem) -> None:
    for i, a in enumerate(coef):
        if a.left_pairs != src_idem[i] or a.right_pairs != tgt_idem[i]:
            raise ValueError(f"coefficient {coef!r} incompatible with idempotents")


def _toggle(row: dict, tgt, single: frozenset) -> bool:
    """Toggle the one coefficient in ``single`` on the arrow to tgt of a
    delta row; whether it is now there.  An absent entry becomes
    ``single`` itself, so entries may be shared: they are replaced, never
    changed."""
    old = row.get(tgt)
    if old is None:
        row[tgt] = single
        return True
    entry = old ^ single
    if entry:
        row[tgt] = entry
        return len(entry) > len(old)
    del row[tgt]
    return False


def truncate(M: TypeDStructure) -> TypeDStructure:
    """The image of M over the truncated algebras: the same generators,
    and the arrows whose every coefficient entry is kept.

    Diagrams of local multiplicity at least two span a dg ideal (supports
    add under products, and the differential keeps them), so the quotient
    map is a dg map and the image is again a structure.  Every kept arrow
    is an arrow of M, so M's grading set grades the image; d^2 = 0 is
    checked on it.
    """
    out = TypeDStructure(M.factors, M.name, truncated=True)
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
    two grading sets; both structures must be graded and truncated alike."""
    _require_gradings(M, N)
    if M.truncated != N.truncated:
        raise ValueError("tensor product needs both structures truncated alike")
    out = TypeDStructure(M.factors + N.factors, f"({M.name})x({N.name})", M.truncated)
    for u in M.generators:
        for v in N.generators:
            out.add_generator((u, v), M.idem[u] + N.idem[v])
    m_pad = {u: identity_coef(M.factors, M.idem[u]) for u in M.generators}
    n_pad = {v: identity_coef(N.factors, N.idem[v]) for v in N.generators}
    for u in M.generators:
        for v in N.generators:
            for u2, coefs in M.delta[u].items():
                for c in coefs:
                    out.add_arrow((u, v), (u2, v), c + n_pad[v])
            for v2, coefs in N.delta[v].items():
                for c in coefs:
                    out.add_arrow((u, v), (u, v2), m_pad[u] + c)
    out.gradings = join_gradings(M.gradings, N.gradings, out.generators)
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
    if M.factors != N.factors or M.truncated != N.truncated:
        raise ValueError("morphism complex needs both structures over the same algebras")
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
    if B.factors[seam] != N.factors[0] or B.truncated != N.truncated:
        raise ValueError("seam factor does not match the target algebra")
    return _mor(B, N, 1 - seam)


def _mor_plan(M: TypeDStructure, keep) -> tuple:
    """What Mor(M, -) with M's factor ``keep`` kept takes from M alone,
    built on M's first such pairing and kept in ``M.plans``, so it goes
    with M; M must not change once paired.

    Delta entries of one coefficient are the plan's frozensets of it, one
    per part and one per unit, shared by every stage; entries are
    replaced, never changed, so sharing is safe.
    """
    plan = M.plans.get(keep)
    if plan is not None:
        return plan
    kept = [] if keep is None else [keep]
    consumed = [i for i in range(len(M.factors)) if i != keep]
    reversals = [alg.reversal(M.factors[i]) for i in kept]
    factors = tuple(rev for rev, _ in reversals)
    grading = MorPlan(M.gradings, consumed, kept)
    number = {x: i for i, x in enumerate(M.generators)}
    left = [tuple(M.idem[x][i] for i in consumed) for x in M.generators]
    idem = [tuple(alg.pair_set(rev, (rpm[p] for p in M.idem[x][i]))
                  for (rev, rpm), i in zip(reversals, kept)) for x in M.generators]
    # arrows into each x, by number: the number of their source, and their
    # coefficients split into consumed and (opposite) kept parts, the kept
    # part checked against its ends, with the core of their loops and a
    # memo of the cores' coefficient parts by block
    incoming: list = [[] for _ in M.generators]
    for x0 in M.generators:
        for x1, coefs in M.delta[x0].items():
            parts = []
            for e in coefs:
                e_c = tuple(e[i] for i in consumed)
                k = tuple(alg.opposite_basic(e[i]) for i in kept)
                _check_idempotents(k, idem[number[x1]], idem[number[x0]])
                parts.append((e_c, frozenset((k,)), grading.core(x0, x1, e_c, k), {}))
            incoming[number[x1]].append((number[x0], parts))
    units = [frozenset((identity_coef(factors, i),)) for i in idem]
    plan = M.plans[keep] = (left, factors, idem, units, incoming, grading)
    return plan


def _strides(sizes) -> list[int]:
    """Place values of mixed-radix positions with digits below ``sizes``."""
    out, step = [], 1
    for size in reversed(sizes):
        out.append(step)
        step *= size
    return out[::-1]


class CoefBlock:
    """The coefficient tuples from the idempotents ``left`` to ``right`` of
    some factors, one basic per factor: the product of the factors'
    ``algebra.Block``s, numbered in ``itertools.product`` order.  No
    factors give the one coefficient ().

    ``d`` and the maps ``left_by(e)`` and ``right_by(e)``, for e a
    coefficient tuple, are the factor blocks' taken factor by factor, as
    ``coef_differential`` and ``coef_multiply`` take them; a product is -1
    where some factor's dies.
    """

    __slots__ = ("blocks", "coefs", "d", "_maps")

    def __init__(self, blocks):
        self.blocks = blocks
        self.coefs = list(product(*(b.basics for b in blocks)))
        strides = _strides([len(b.basics) for b in blocks])
        self.d = [tuple(pos + (t - i) * stride
                        for b, i, stride in zip(blocks, digits, strides) for t in b.d[i])
                  for pos, digits in enumerate(product(*(range(len(b.basics)) for b in blocks)))]
        self._maps: dict = {}

    def left_by(self, e) -> list[int]:
        """Positions of e * c, c running over ``coefs``, in the block from
        e's left idempotents."""
        if len(self.blocks) == 1:
            return self.blocks[0].left_by(e[0])
        return self._map(e, [alg.block(b.pmc, a.left_pairs, b.right, b.truncated)
                             for b, a in zip(self.blocks, e)], alg.Block.left_by)

    def right_by(self, e) -> list[int]:
        """Positions of c * e, c running over ``coefs``, in the block to
        e's right idempotents."""
        if len(self.blocks) == 1:
            return self.blocks[0].right_by(e[0])
        return self._map(e, [alg.block(b.pmc, b.left, a.right_pairs, b.truncated)
                             for b, a in zip(self.blocks, e)], alg.Block.right_by)

    def _map(self, e, targets, factor_map) -> list[int]:
        key = (factor_map, e)
        out = self._maps.get(key)
        if out is None:
            strides = _strides([len(t.basics) for t in targets])
            out = self._maps[key] = [
                -1 if any(p < 0 for p in ps) else sum(map(mul, ps, strides))
                for ps in product(*(factor_map(b, a) for b, a in zip(self.blocks, e)))]
        return out


_coef_blocks: dict = {}  # factor blocks -> their CoefBlock


def coef_block(circles, truncated: bool, left, right) -> CoefBlock:
    """The one ``CoefBlock`` of the algebras of ``circles``, truncated or
    not, from ``left`` to ``right``."""
    blocks = tuple(alg.block(pmc, i, j, truncated) for pmc, i, j in zip(circles, left, right))
    out = _coef_blocks.get(blocks)
    if out is None:
        out = _coef_blocks[blocks] = CoefBlock(blocks)
    return out


def _mor(M: TypeDStructure, N: TypeDStructure, keep) -> TypeDStructure:
    """Mor(M, N) with every factor of M but ``keep`` consumed against N's.

    Generator i is the i-th triple (x, coef, y) built, one basic element
    of each consumed factor in coef; ``MorGrading.names`` keeps the
    triples.  The triples of one (x, y) are the positions of one
    ``CoefBlock``, numbered on from ``first[x][y]``, and each row is read off
    the block maps: the coefficient's differential, then N's arrows out of
    y, then M's arrows into x.  The kept factor of M, if any, survives as
    a left action over its reversed circle, its coefficients carried
    through the orientation-reversing map.  Both sides must be graded.
    M's plan holds what depends on M alone.  Each arrow's loop is tallied
    as ``MorGrading`` reads it off the factor arrow that produced it.
    """
    _require_gradings(M, N)
    left, factors, idem, units, incoming, plan = _mor_plan(M, keep)
    out = TypeDStructure(factors, f"Mor({M.name},{N.name})", M.truncated)
    stage = MorGrading(plan, N.gradings)
    names = stage.names
    ys = N.generators
    first, block_of = [], []  # [x][y]: the number of the first triple of (x, y), its block
    for x, lx in zip(M.generators, left):
        starts, row_blocks = [], []
        for y in ys:
            blk = coef_block(N.factors, N.truncated, lx, N.idem[y])
            starts.append(len(names))
            row_blocks.append(blk)
            names.extend([(x, coef, y) for coef in blk.coefs])
        first.append(starts)
        block_of.append(row_blocks)
    out.generators = list(range(len(names)))

    # arrows out of each y of N: the number of their target, with the key
    # of their loop
    number = {y: j for j, y in enumerate(ys)}
    outgoing = [[(number[y2], e, stage.n_loop(y, y2, e))
                 for y2, coefs in N.delta[y].items() for e in coefs] for y in ys]
    tally, delta, out_idem = stage.tally, out.delta, out.idem
    differential_arrows = 0
    for i, (starts, row_blocks) in enumerate(zip(first, block_of)):
        unit, idem_x = units[i], idem[i]
        for j, (b, blk) in enumerate(zip(starts, row_blocks)):
            if not blk.coefs:
                continue
            ahead = []
            for k, e, loop in outgoing[j]:
                products = blk.right_by(e)
                if max(products) >= 0:
                    ahead.append((starts[k], products, loop))
            behind = []
            for i0, parts in incoming[i]:
                for e_c, kept_part, core, memo in parts:
                    products = blk.left_by(e_c)
                    if max(products) >= 0:
                        shifts = memo.get(blk)
                        if shifts is None:
                            shifts = memo[blk] = plan.coef_shifts(core, blk.coefs)
                        behind.append((first[i0][j], products, kept_part, shifts,
                                       *stage.m_loop_part(core, ys[j])))
            out_idem.update(dict.fromkeys(range(b, b + len(blk.d)), idem_x))
            for pos, terms in enumerate(blk.d):
                # the terms of one differential are distinct, so none cancel
                row = delta[b + pos] = {b + t: unit for t in terms}
                differential_arrows += len(terms)
                for there, products, loop in ahead:
                    p = products[pos]
                    if p >= 0:
                        tally[loop] += 1 if _toggle(row, there + p, unit) else -1
                for there, products, kept_part, shifts, j2, chain in behind:
                    p = products[pos]
                    if p >= 0:
                        added = _toggle(row, there + p, kept_part)
                        tally[j2 - shifts[pos], chain] += 1 if added else -1
    tally[0, (0,) * plan.length] += differential_arrows  # each one's loop is trivial
    _mor_gradings(out, stage)
    return out


def _mor_gradings(out: TypeDStructure, stage: MorGrading) -> None:
    """Gradings of a morphism complex: the coset of gr(x)^-1 gr'(a) gr(y).

    The set is laid out as ``MorGrading`` says.  The loops that ``_mor``
    tallied, one per distinct loop of an arrow, are checked on that
    layout.  A stage then eliminates the consumed blocks, leaving exactly
    its factor's block; a final pairing keeps them, since there the
    residues are its spin-c structures.  Every generator's residue is
    checked, but its rep is built only when it is read, so a stage
    builds the reps of the generators that ``cancel`` keeps.
    """
    grad = stage.gradings()
    defects = loop_defects(stage.loops(), grad)
    if defects:
        grad = Gradings(grad.sizes, grad.reps, grad.lattice.generators() + defects)
    try:
        out.gradings = grad.eliminate(stage.plan.eliminated)
    except StructureError:
        try:  # again over the names, so that the error names (x, coef, y)
            grad.renamed(stage.names).eliminate(stage.plan.eliminated)
        except StructureError as err:
            raise StructureError(f"{out.name}: {err}") from None
        raise


# ---------------------------------------------------------------------------
# Reduction by cancelling idempotent-coefficient arrows


def _coef_inverse(truncated: bool, entry, ident):
    """(ident + rest)^-1 = sum of powers of rest; rest is nilpotent."""
    rest = entry - {ident}
    total = {ident}
    power = frozenset(rest)
    while power:
        total ^= power
        nxt: set = set()
        for c1 in power:
            for c2 in rest:
                p = coef_multiply(truncated, c1, c2)
                if p is not None:
                    nxt ^= {p}
        power = frozenset(nxt)
    return frozenset(total)


def cancel(M: TypeDStructure, retract: dict | None = None) -> TypeDStructure:
    """Remove all idempotent-coefficient arrows by zig-zag elimination.

    Each step drops a pair of generators joined by an invertible arrow and
    splices the remaining arrows through its inverse.  The pivot is the
    arrow x -> y of least Markowitz cost (|back(y)| - 1) * (|delta(x)| - 1),
    which keeps fill-in small; ties go to the least (rank x, rank y), where
    rank is the position in M's generators.  A heap holds the candidate
    arrows; after a splice only the arrows out of the rows and into the
    columns it touched are pushed again, and entries that no longer match
    the structure are dropped when popped.  A pivot of cost 0 has no arrow
    into y but x's or none out of x but to y, so it is dropped without the
    inverse or a splice.  Each idempotent's identity coefficient is made
    once.  Gradings of surviving generators carry over unchanged.

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
    rank = {g: i for i, g in enumerate(out.generators)}
    heap: list = []  # (cost, rank x, rank y, x, y); the ranks make entries unique
    # the one idempotent coefficient an arrow out of x can carry, as a
    # one-element set made once per idempotent: a disjointness test reads
    # the hashes the sets store, where a membership test hashes the tuple
    units = {i: frozenset((identity_coef(out.factors, i),)) for i in set(out.idem.values())}
    identity = {x: units[i] for x, i in out.idem.items()}

    def push_row(w) -> None:
        """Push every invertible arrow out of w at its current cost."""
        unit, rw, fan_out = identity[w], rank[w], len(delta[w]) - 1
        for z, coefs in delta[w].items():
            if w != z and not unit.isdisjoint(coefs):
                heapq.heappush(heap, ((len(back[z]) - 1) * fan_out, rw, rank[z], w, z))

    for x in out.generators:
        push_row(x)

    if retract is not None:
        f = {b: {b} for b in out.generators}
        g = {b: {b} for b in out.generators}
        g_into = {b: {b} for b in out.generators}  # v -> {b : v in g(b)}
        T: dict = {b: set() for b in out.generators}

    while heap:
        cost, _, _, x, y = heapq.heappop(heap)
        if x not in delta or y not in delta:
            continue
        if (cost != (len(back[y]) - 1) * (len(delta[x]) - 1)
                or identity[x].isdisjoint(delta[x].get(y, ()))):
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
                g[b] ^= rest
                for v in rest:
                    g_into[v] ^= {b}
            for b in g_into.pop(x):
                g[b].discard(x)
        if cost:  # else no arrow enters y or none leaves x but x -> y
            (ident,) = identity[x]
            inv = _coef_inverse(out.truncated, delta[x][y], ident)
            outgoing = [(z, coefs) for z, coefs in delta[x].items() if z not in (x, y)]
            entering = [(w, delta[w][y]) for w in back[y] if w not in (x, y)]
            for w, wcoefs in entering:
                for z, zcoefs in outgoing:
                    for cw in wcoefs:
                        for ci in inv:
                            left = coef_multiply(out.truncated, cw, ci)
                            if left is None:
                                continue
                            for cz in zcoefs:
                                p = coef_multiply(out.truncated, left, cz)
                                if p is None:
                                    continue
                                if _toggle(delta[w], z, frozenset((p,))):
                                    back[z].add(w)
                                elif z not in delta[w]:
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
            push_row(w)
        for z in targets:
            rz, fan_in = rank[z], len(back[z]) - 1
            for w in back[z]:
                row = delta[w]
                if w != z and not identity[w].isdisjoint(row[z]):
                    heapq.heappush(heap, (fan_in * (len(row) - 1), rank[w], rz, w, z))

    out.generators = [g for g in out.generators if g in delta]
    out.idem = {g: out.idem[g] for g in out.generators}
    out.delta = {g: delta[g] for g in out.generators}
    if out.gradings is not None:
        out.gradings = out.gradings.with_reps({g: out.gradings.reps[g] for g in out.generators})
    if retract is not None:
        retract.update(f=f, g=g, T=T)
    return out
