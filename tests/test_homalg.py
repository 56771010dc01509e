import gc
import heapq
import json
import random
from itertools import product
from operator import add, mul

import pytest

import hfhat.algebra as alg
import hfhat.grading as grading
import hfhat.homalg as homalg
import hfhat.manifolds as manifolds
from hfhat.algebra import StrandsGenerator, idempotent
from hfhat.cli import main
from hfhat.grading import Gradings, RelationLattice, arrow_defects, loop_defects
from hfhat.homalg import (
    AlgebraFactor,
    StructureError,
    TypeDStructure,
    _coef_inverse,
    cancel,
    coef_differential,
    coef_multiply,
    mor_against_bimodule,
    mor_complex,
    tensor,
    truncate,
)
from hfhat.manifolds import (
    cfd_self_gluing,
    cfd_zero_framed_handlebody,
    cfd_zero_framed_handlebody_reversed,
    dd_elementary_cobordism,
    dehn_twist_expand,
)
from hfhat.pmc import all_arcslides, reverse_pmc, reversed_pair_map, split_pmc
from hfhat.slides import arcslide_dd, dd_identity
from hfhat.pmc import ArcSlide

from algebra_sums import all_idempotents
from block_grading import BlockElement, block_identity, place_blocks, to_blocks, to_flat
from module_checks import homology_rank, modules_isomorphic
from product_grading import (
    ProductLattice,
    arrow_loops,
    dedupe_relations,
    place,
    product_arrow_defects,
    product_arrow_loops,
)

Z1 = split_pmc(1)
Z2 = split_pmc(2)


def coef_is_idempotent(c) -> bool:
    return all(a.is_idempotent for a in c)


def two_step_complex():
    C = TypeDStructure(())
    C.add_generator("a", ())
    C.add_generator("b", ())
    C.add_arrow("a", "b", ())
    return C


def test_verify_d_squared_on_identity_bimodule():
    for pmc in (Z1, Z2):
        assert dd_identity(pmc).verify_d_squared()


def test_verify_d_squared_on_handlebody():
    assert cfd_zero_framed_handlebody(1).verify_d_squared()
    assert cfd_zero_framed_handlebody(2).verify_d_squared()


def _drop_one_coefficient(module):
    broken = module.copy()
    for x in broken.generators:
        if broken.delta[x]:
            y = next(iter(broken.delta[x]))
            coef = next(iter(broken.delta[x][y]))
            broken.delta[x] = dict(broken.delta[x])
            broken.delta[x][y] = broken.delta[x][y] ^ {coef}
            if not broken.delta[x][y]:
                del broken.delta[x][y]
            break
    return broken


def test_corrupted_module_fails_d_squared():
    assert not _drop_one_coefficient(dd_identity(Z2)).verify_d_squared()


def _d_squared_frozensets(structure):
    """The squared delta, accumulated as one new frozenset per term."""
    acc: dict = {}
    for x in structure.generators:
        for y, coefs in structure.delta[x].items():
            for c in coefs:
                for term in coef_differential(structure.factors, c):
                    acc[(x, y)] = acc.get((x, y), frozenset()) ^ {term}
            for z, coefs2 in structure.delta[y].items():
                for c in coefs:
                    for e in coefs2:
                        p = coef_multiply(structure.factors, c, e)
                        if p is not None:
                            acc[(x, z)] = acc.get((x, z), frozenset()) ^ {p}
    return {k: v for k, v in acc.items() if v}


def test_d_squared_matches_the_frozenset_accumulator():
    broken = _drop_one_coefficient(arcslide_dd(ArcSlide(Z2, 1, 2)))
    assert broken.d_squared()
    assert broken.d_squared() == _d_squared_frozensets(broken)
    # a -> b1 -> c and a -> b2 -> c give the same term twice, which cancels
    square = TypeDStructure(())
    for g in ("a", "b1", "b2", "c"):
        square.add_generator(g, ())
    for x, y in (("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c")):
        square.add_arrow(x, y, ())
    assert square.d_squared() == _d_squared_frozensets(square) == {}
    del square.delta["b2"]["c"]
    assert square.d_squared() == _d_squared_frozensets(square) == {("a", "c"): frozenset({()})}


def test_idempotent_compatibility():
    # add_arrow refuses a coefficient whose idempotents disagree with its ends
    rho1 = StrandsGenerator(Z1, [(1, 2)], ())  # from pair 0 to pair 1
    N = TypeDStructure((AlgebraFactor(Z1),))
    N.add_generator("u", (frozenset({0}),))
    N.add_generator("v", (frozenset({1}),))
    N.add_arrow("u", "v", (rho1,))
    for src, tgt in (("v", "u"), ("u", "u"), ("v", "v")):
        with pytest.raises(ValueError, match="incompatible with idempotents"):
            N.add_arrow(src, tgt, (rho1,))
    assert N.delta["u"] == {"v": frozenset({(rho1,)})}
    assert not N.delta["v"]


def test_homology_of_zero_boundary():
    C = TypeDStructure(())
    for i in range(5):
        C.add_generator(i, ())
    assert homology_rank(C) == 5


def test_homology_of_acyclic_complex():
    assert homology_rank(two_step_complex()) == 0


def test_cancel_idempotent_arrow_pair():
    pmc = Z1
    M = TypeDStructure((AlgebraFactor(pmc),))
    idem = frozenset({0})
    M.add_generator("x", (idem,))
    M.add_generator("y", (idem,))
    M.add_arrow("x", "y", (idempotent(pmc, [0]),))
    reduced = cancel(M)
    assert reduced.generators == []


def test_cancel_is_idempotent_operation():
    h = cfd_zero_framed_handlebody(2)
    s = ArcSlide(Z2, 5, 4)
    raw = mor_against_bimodule(arcslide_dd(s), h, seam=0)
    red = cancel(raw)
    again = cancel(red)
    assert len(red.generators) == len(again.generators)
    for x in red.generators:
        for coefs in red.delta[x].values():
            for c in coefs:
                assert not all(a.is_idempotent for a in c)


def test_cancellation_order_independence():
    h = cfd_zero_framed_handlebody(2)
    s = ArcSlide(Z2, 5, 4)
    raw = mor_against_bimodule(arcslide_dd(s), h, seam=0)
    sizes = set()
    idem_counts = set()
    for seed in (0, 3, 11, 17):
        red = cancel(raw, order_seed=seed)
        sizes.add(len(red.generators))
        idem_counts.add(tuple(sorted(repr(red.idem[g]) for g in red.generators)))
    assert len(sizes) == 1 and len(idem_counts) == 1


def test_cancel_matches_f2_homology_on_random_complexes():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 12)
        levels = [rng.randint(0, 2) for _ in range(n)]
        rows = [0] * n
        for i in range(n):
            for j in range(n):
                if levels[i] == levels[j] + 1 and rng.random() < 0.4:
                    rows[i] |= 1 << j
        square_zero = True
        for i in range(n):
            acc = 0
            for j in range(n):
                if rows[i] >> j & 1:
                    acc ^= rows[j]
            if acc:
                square_zero = False
        if not square_zero:
            continue
        C = TypeDStructure(())
        for i in range(n):
            C.add_generator(i, ())
        rank = 0
        work = [r for r in rows if r]
        for col in range(n):
            piv = next((r for r in work if r >> col & 1), None)
            if piv is None:
                continue
            work = [r ^ piv if (r >> col & 1) and r is not piv else r for r in work if r is not piv]
            rank += 1
        for i in range(n):
            for j in range(n):
                if rows[i] >> j & 1:
                    C.add_arrow(i, j, ())
        assert homology_rank(C) == n - 2 * rank


def test_mor_complex_boundary_squared_zero():
    h = cfd_zero_framed_handlebody(2)
    C = mor_complex(h, h)
    assert C.verify_d_squared()


def _stage_names(monkeypatch):
    """The names (x, coef, y) of each Mor complex's generators, by number,
    in build order, read where ``_mor`` hands the complex to its grading."""
    names = []
    mor_gradings = homalg._mor_gradings

    def recorded(out, stage):
        names.append(stage.names)
        mor_gradings(out, stage)

    monkeypatch.setattr(homalg, "_mor_gradings", recorded)
    return names


def test_mor_self_contains_identity_cycle(monkeypatch):
    names = _stage_names(monkeypatch)
    h = cfd_zero_framed_handlebody(2)
    C = mor_complex(h, h)
    ident = ("x", tuple(idempotent(Z2, sorted(h.idem["x"][0])) for _ in range(1)), "x")
    assert ident in set(names[-1])
    assert names[-1].index(ident) in set(C.generators)
    # the identity morphism is a cycle
    assert not C.delta[names[-1].index(ident)]


def test_identity_pairing_rank_two():
    h = cfd_zero_framed_handlebody(1)
    hr = cfd_zero_framed_handlebody_reversed(1)
    C = mor_complex(dd_identity(Z1), tensor(h, hr))
    assert C.verify_d_squared()
    assert homology_rank(C) == 2


def test_tensor_structure():
    h = cfd_zero_framed_handlebody(1)
    hr = cfd_zero_framed_handlebody_reversed(1)
    T = tensor(h, hr)
    assert T.verify_d_squared()
    assert len(T.generators) == 1
    assert T.arrow_count() == 2


def test_mor_preserves_homology_through_cancellation():
    h2 = cfd_zero_framed_handlebody(2)
    s = ArcSlide(Z2, 2, 1)
    raw = mor_against_bimodule(arcslide_dd(s), h2, seam=0).relabel()
    red = cancel(raw)
    # a stage carries exactly its factor's block, so it grades a morphism
    # complex against itself, before and after reduction alike
    before, after = mor_complex(raw, raw), mor_complex(red, red)
    assert before.gradings is not None and after.gradings is not None
    assert homology_rank(before) == homology_rank(after)


@pytest.mark.parametrize("b1, c1", [(2, 1), (5, 4), (3, 4)])
def test_a_reduced_stage_grades_its_own_endomorphisms(b1, c1):
    stage = cancel(mor_against_bimodule(arcslide_dd(ArcSlide(Z2, b1, c1)),
                                        cfd_zero_framed_handlebody(2), seam=0).relabel())
    assert stage.gradings.sizes == stage.factor_sizes()
    orbits = manifolds.spinc_maslov(mor_complex(stage, stage))
    assert [orbit["rank"] for orbit in orbits] == [4]


def test_relabel_keeps_structure():
    dd = dd_identity(Z1)
    flat = dd.relabel()
    assert sorted(flat.generators) == list(range(len(dd.generators)))
    assert flat.verify_d_squared()
    assert flat.arrow_count() == dd.arrow_count()


def test_cancel_and_relabel_keep_the_lattice():
    stage = mor_against_bimodule(arcslide_dd(ArcSlide(Z1, 2, 1)), cfd_zero_framed_handlebody(1),
                                 seam=0)
    assert stage.gradings is not None
    assert cancel(stage).gradings.lattice is stage.gradings.lattice
    assert stage.relabel().gradings.lattice is stage.gradings.lattice


@pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("pairing", ["mor_complex", "mor_against_bimodule", "tensor"])
def test_pairing_an_ungraded_structure_raises_naming_it(pairing, side):
    h = cfd_zero_framed_handlebody(1)
    fn, args = {
        "mor_complex": (mor_complex, [h, h]),
        "mor_against_bimodule": (lambda B, N: mor_against_bimodule(B, N, seam=0),
                                 [arcslide_dd(ArcSlide(Z1, 2, 1)), h]),
        "tensor": (tensor, [h, cfd_zero_framed_handlebody_reversed(1)]),
    }[pairing]
    bare = args[side].copy()  # arcslide_dd's bimodule is cached, so strip a copy
    bare.name, bare.gradings = "bare-input", None
    args[side] = bare
    with pytest.raises(ValueError, match="bare-input is ungraded"):
        fn(*args)


def test_modules_isomorphic_detects_relabelling():
    dd = dd_identity(Z1)
    assert modules_isomorphic(dd, dd.relabel())


def test_json_dump_of_sparse_complex():
    C = two_step_complex()
    payload = [
        {"from": repr(x), "to": repr(y), "terms": len(coefs)}
        for x in C.sorted_generators()
        for y, coefs in C.delta[x].items()
    ]
    text = json.dumps(payload)
    assert json.loads(text) == payload


def _pool_scan_cancel(M):
    """The earlier cancel, kept as an oracle: rescan and sort the pool each
    step, ties going to the least positions in M's generators."""
    out = M.copy()
    delta = out.delta
    position = {g: i for i, g in enumerate(out.generators)}
    back = {x: set() for x in out.generators}
    for x in out.generators:
        for y in delta[x]:
            back[y].add(x)
    alive = set(out.generators)

    def candidates():
        for x in alive:
            for y, coefs in delta[x].items():
                if x == y:
                    continue
                for c in coefs:
                    if coef_is_idempotent(c):
                        yield x, y, c
                        break

    while True:
        best = None
        best_cost = None
        for x, y, c in sorted(candidates(), key=lambda t: (position[t[0]], position[t[1]])):
            cost = (len(back[y]) - 1) * (len(delta[x]) - 1)
            if best_cost is None or cost < best_cost:
                best, best_cost = (x, y, c), cost
        if best is None:
            break
        x, y, ident = best
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
        for dead in (x, y):
            alive.discard(dead)
            for z in delta.pop(dead, {}):
                back[z].discard(dead)
            for w in back.pop(dead, ()):
                if w in delta and dead in delta[w]:
                    del delta[w][dead]
    out.generators = [g for g in out.generators if g in alive]
    out.delta = {g: delta[g] for g in out.generators}
    return out


def _assert_cancel_matches_pool_scan(M):
    new, old = cancel(M), _pool_scan_cancel(M)
    assert new.generators == old.generators
    assert new.delta == old.delta
    # the same pivot sequence also leaves every row in the same order
    assert [list(row) for row in new.delta.values()] == [list(row) for row in old.delta.values()]
    if M.gradings is not None:
        assert new.gradings.reps == {g: M.gradings.reps[g] for g in old.generators}
    for x in new.generators:
        for coefs in new.delta[x].values():
            assert not any(coef_is_idempotent(c) for c in coefs)
    assert new.verify_d_squared()
    return new


def _random_square_zero_complex(rng):
    """A random bare complex: disjoint arrows and cycles, in a random basis."""
    n = rng.randint(6, 30)
    d = [[0] * n for _ in range(n)]
    free = list(range(n))
    rng.shuffle(free)
    for _ in range(rng.randint(1, n // 2)):
        i, j = free.pop(), free.pop()
        d[i][j] = 1
    for _ in range(rng.randint(0, 3 * n)):
        # conjugate by the involution e_a -> e_a + e_b
        a, b = rng.sample(range(n), 2)
        for row in d:
            row[b] ^= row[a]
        d[a] = [u ^ v for u, v in zip(d[a], d[b])]
    C = TypeDStructure(())
    names = [f"g{i}" for i in range(n)]  # repr order differs from creation order
    for name in names:
        C.add_generator(name, ())
    for i in range(n):
        for j in range(n):
            if d[i][j]:
                C.add_arrow(names[i], names[j], ())
    return C


def test_cancel_matches_pool_scan_on_random_complexes():
    rng = random.Random(11)
    ties = 0
    for _ in range(300):
        C = _random_square_zero_complex(rng)
        assert C.verify_d_squared()
        back = {x: sum(x in C.delta[w] for w in C.generators) for x in C.generators}
        costs = sorted((back[y] - 1) * (len(C.delta[x]) - 1)
                       for x in C.generators for y in C.delta[x] if x != y)
        ties += len(costs) > 2 and costs[0] == costs[2]
        _assert_cancel_matches_pool_scan(C)
    assert ties >= 50


def test_cancel_matches_pool_scan_on_pipeline_stages():
    module = cfd_zero_framed_handlebody(1)
    for s in dehn_twist_expand(Z1, 1, 3) + dehn_twist_expand(Z1, 0, -2):
        raw = mor_against_bimodule(arcslide_dd(s), module, seam=0).relabel()
        module = _assert_cancel_matches_pool_scan(raw)
    _assert_cancel_matches_pool_scan(mor_complex(cfd_zero_framed_handlebody(1), module))
    raw = mor_against_bimodule(arcslide_dd(ArcSlide(Z2, 2, 1)), cfd_zero_framed_handlebody(2),
                               seam=0)
    assert raw.gradings is not None
    _assert_cancel_matches_pool_scan(raw)


# The two earlier morphism-complex builders and their grading step, kept as
# the oracle for the single builder behind mor_complex and mor_against_bimodule.


def _old_coef_differential(factors, c):
    out = set()
    for i, a in enumerate(c):
        for term in alg.differential_basic(a):
            if factors[i].truncated and any(m > 1 for m in term.supp):
                continue
            out ^= {c[:i] + (term,) + c[i + 1:]}
    return out


def _old_mor_complex(M, N):
    out = TypeDStructure((), name=f"Mor({M.name},{N.name})")
    factors = M.factors
    per_pair = {}
    for x in M.generators:
        for y in N.generators:
            choices = [
                alg.basics_between(f.pmc, M.idem[x][i], N.idem[y][i], f.truncated)
                for i, f in enumerate(factors)
            ]
            per_pair[(x, y)] = list(product(*choices))
            for coef in per_pair[(x, y)]:
                out.add_generator((x, coef, y), ())
    for x in M.generators:
        for y in N.generators:
            for coef in per_pair[(x, y)]:
                src = (x, coef, y)
                for term in _old_coef_differential(factors, coef):
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
    _old_mor_gradings(out, M, N, spectator=None)
    return out


def _old_mor_against_bimodule(B, N, seam):
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

    per_pair = {}
    for b in B.generators:
        for u in N.generators:
            per_pair[(b, u)] = alg.basics_between(factor.pmc, B.idem[b][seam], N.idem[u][0],
                                                  factor.truncated)
            for a in per_pair[(b, u)]:
                out.add_generator((b, a, u), (translate(B.idem[b][keep]),))

    incoming = {}
    for b0 in B.generators:
        for b1, coefs in B.delta[b0].items():
            incoming.setdefault(b1, []).append((b0, coefs))

    for b in B.generators:
        for u in N.generators:
            for a in per_pair[(b, u)]:
                src = (b, a, u)
                ident = (idempotent(out.factors[0].pmc, sorted(out.idem[src][0])),)
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
                        p = alg.multiply_basic(e[seam], a)
                        if p is None or (factor.truncated and any(m > 1 for m in p.supp)):
                            continue
                        out.add_arrow(src, (b0, p, u), (alg.opposite_basic(e[keep]),))
    _old_mor_gradings(out, B, N, spectator=keep)
    return out


def _block_coefficient(coef):
    return BlockElement(sum(a.iota2 for a in coef), tuple(a.supp for a in coef))


def _block_dedupe(elements):
    return [g for g in dict.fromkeys(elements) if not g.is_identity]


def _old_mor_gradings(out, M, N, spectator):
    """The earlier grading pass in block form; only the lattice sees flat
    chains.  It stops where the package's pass calls ``eliminate``: the
    consumed blocks lead, the kept block trails."""
    if M.gradings is None or N.gradings is None:
        return
    m_sizes = M.gradings.sizes
    n_sizes = N.gradings.sizes
    if spectator is None:
        sizes = m_sizes
        m_pos = n_pos = coef_pos = list(range(len(m_sizes)))

        def transport(g):
            return to_blocks(g, m_sizes)
    else:
        keep, seam = spectator, 1 - spectator
        sizes = (m_sizes[seam], m_sizes[keep])
        m_pos = [1, 0] if keep == 0 else [0, 1]
        n_pos = coef_pos = [0]

        def transport(g):
            alphas = list(to_blocks(g, m_sizes).alphas)
            alphas[keep] = tuple(reversed(alphas[keep]))
            return BlockElement(g.j2, tuple(alphas))

    def from_n(g):
        return place_blocks(to_blocks(g, n_sizes), sizes, n_pos)

    reps = {}
    for key in out.generators:
        x, coef, y = key
        gx = place_blocks(transport(M.gradings.reps[x]), sizes, m_pos)
        coef_tuple = coef if spectator is None else (coef,)
        ga = place_blocks(_block_coefficient(coef_tuple), sizes, coef_pos)
        reps[key] = gx.inverse() * ga * from_n(N.gradings.reps[y])
    rels = [place_blocks(transport(r), sizes, m_pos) for r in M.gradings.relations]
    rels += [from_n(r) for r in N.gradings.relations]
    flat_reps = {key: to_flat(g) for key, g in reps.items()}
    grad = Gradings(sizes, flat_reps, [to_flat(r) for r in rels])
    lam = block_identity(sizes, 2)
    extra = []
    result_pos = [1] if spectator is not None else []
    for x in out.generators:
        for y, coefs in out.delta[x].items():
            for coef in coefs:
                g = lam
                if coef:
                    g = lam * place_blocks(_block_coefficient(coef), sizes, result_pos)
                extra.append((g * reps[y]).inverse() * reps[x])
    defects = [to_flat(h) for h in _block_dedupe(extra)
               if not grad.lattice.contains(to_flat(h))]
    if defects:
        grad = Gradings(sizes, flat_reps, grad.lattice.generators() + defects)
    out.gradings = grad


def _eliminate_inputs(monkeypatch):
    """The grading sets ``Gradings.eliminate`` is called on, in call order."""
    inputs = []
    eliminate = Gradings.eliminate

    def recorded(self, count):
        inputs.append(self)
        return eliminate(self, count)

    monkeypatch.setattr(Gradings, "eliminate", recorded)
    return inputs


def _numbered(S):
    """S with each generator renamed to its position in ``S.generators``."""
    number = {g: i for i, g in enumerate(S.generators)}
    out = TypeDStructure(S.factors, S.name)
    for g in S.generators:
        out.add_generator(number[g], S.idem[g])
    for x, row in S.delta.items():
        for y, coefs in row.items():
            out.delta[number[x]][number[y]] = coefs
    if S.gradings is not None:
        out.gradings = S.gradings.renamed(number)
    return out


def _assert_same_mor(new, graded, names, old, wrap, ordered_rows):
    """Equal complexes once the old keys (x, a, y) are mapped by ``wrap``
    and numbered by build position; ``names`` are the new builder's names
    by number, and ``graded`` is the grading set it eliminated from.

    The old pairing took a coefficient's differential terms in set order,
    the old slide stage (and the new builder) factor by factor, so only a
    slide stage's rows are also compared in order.
    """
    def key(g):
        x, a, y = g
        return (x, wrap(a), y)

    assert names == [key(g) for g in old.generators]
    old = _numbered(old)
    assert new.factors == old.factors
    assert new.generators == old.generators
    assert new.idem == old.idem
    assert new.delta == old.delta
    if ordered_rows:
        assert [list(row) for row in new.delta.values()] == [list(row) for row in old.delta.values()]
    assert (new.gradings is None) == (old.gradings is None)
    if new.gradings is not None:
        assert graded.sizes == old.gradings.sizes
        assert graded.reps == old.gradings.reps
        assert graded.relations == old.gradings.relations
        assert graded.lattice.lambda_torsion2 == old.gradings.lattice.lambda_torsion2
    return new


def test_mor_builder_matches_the_two_earlier_builders(monkeypatch):
    inputs = _eliminate_inputs(monkeypatch)
    names = _stage_names(monkeypatch)

    def check_stage(B, N, seam):
        new = mor_against_bimodule(B, N, seam=seam)
        _assert_same_mor(new, inputs[-1], names[-1], _old_mor_against_bimodule(B, N, seam),
                         lambda a: (a,), True)
        return cancel(new)

    def check_pairing(M, N):
        new = mor_complex(M, N)
        return _assert_same_mor(new, inputs[-1], names[-1], _old_mor_complex(M, N),
                                lambda a: a, False)

    for truncated in (False, True):
        def over(structure):
            return truncate(structure) if truncated else structure

        def h(genus):
            return over(cfd_zero_framed_handlebody(genus))

        def dd(slide):
            return over(arcslide_dd(slide))

        module = h(1)
        for s in dehn_twist_expand(Z1, 1, 2) + dehn_twist_expand(Z1, 0, -1):
            module = check_stage(dd(s), module, 0)
        check_pairing(h(1), module)
        stage = check_stage(dd(ArcSlide(Z2, 2, 1)), h(2), 0)
        check_stage(dd(ArcSlide(Z2, 3, 4)), stage, 0)

        cob = over(dd_elementary_cobordism(reverse_pmc(Z1)))
        capped = check_stage(cob, module, 1)
        check_pairing(h(2), capped)

        check_pairing(h(2), h(2))
        hr = over(cfd_zero_framed_handlebody_reversed(1))
        check_pairing(over(dd_identity(Z1)), tensor(h(1), hr))

        left = cancel(over(cfd_self_gluing(Z1)))
        glued = check_stage(dd(ArcSlide(Z2, 3, 4)), left, 0)
        assert check_pairing(left, glued).gradings is not None


class _CheckedLattice(RelationLattice):
    """A relation lattice that checks its basis, torsion and every
    reduction against the product-based lattice over the same relations."""

    def __init__(self, relations, sizes):
        super().__init__(relations, sizes)
        self.product = ProductLattice(relations, sizes)
        assert self.generators() == self.product.generators()
        assert self.lambda_torsion2 == self.product.lambda_torsion2

    def reduce(self, g):
        got = super().reduce(g)
        assert got == self.product.reduce(g)
        return got


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
@pytest.mark.parametrize("preset", ["poincare", "s1xs2-g1", "s1xs2-g2", "self-gluing-g1"])
def test_arrow_loops_and_lattices_match_the_product_path(preset, truncated, monkeypatch, capsys):
    """Every lattice, arrow loop and defect of a checked preset run equals
    the product-based one: the Mor stages, the final pairing and each
    reduced stage that checking mode regrades."""
    checked = []

    def compared_defects(structure, gradings):
        assert list(arrow_loops(structure, gradings)) == product_arrow_loops(structure, gradings)
        defects = arrow_defects(structure, gradings)
        assert defects == product_arrow_defects(structure, gradings)
        checked.append(structure)
        return defects

    monkeypatch.setattr(grading, "RelationLattice", _CheckedLattice)
    mor_stages = _route_mor_defects(monkeypatch, compared_defects)
    monkeypatch.setattr(manifolds, "arrow_defects", compared_defects)
    argv = ["--truncated"] * truncated + ["--output", "json", "hf-hat", "--preset", preset, "--check"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["orbits"]
    # each Mor complex once, and each reduced stage once under check mode
    assert len(checked) == len(mor_stages) + len(result["stages"])


def _route_mor_defects(monkeypatch, compare):
    """Send every Mor complex's defect pass, which reads the loops ``_mor``
    tallied from the factors' arrows, through ``compare(structure,
    gradings)`` as well, a pass over every arrow of the complex on its
    full-layout reps: the tallied loops must be the arrows' distinct
    loops, and the two defect lists equal, order included.  Returns the
    Mor complexes in build order."""
    built = []
    mor_gradings = homalg._mor_gradings

    def recorded(out, stage):
        built.append(out)
        mor_gradings(out, stage)

    def compared(loops, gradings):
        assert len(set(loops)) == len(loops)
        assert set(loops) == set(grading._arrow_loop_parts(built[-1], gradings))
        defects = loop_defects(loops, gradings)
        assert compare(built[-1], gradings) == defects
        return defects

    monkeypatch.setattr(homalg, "_mor_gradings", recorded)
    monkeypatch.setattr(homalg, "loop_defects", compared)
    return built


def _product_mor_reps(out, names, M, N, keep):
    """Mor reps as two full-length products, x_inv[x] * ga * y_rep[y], on
    the consumed blocks followed by the kept one; generator i is named
    names[i] = (x, coef, y)."""
    m_sizes = M.gradings.sizes
    kept = [] if keep is None else [keep]
    consumed = [i for i in range(len(m_sizes)) if i != keep]
    length = grading.chain_length([m_sizes[i] for i in consumed + kept])

    def transport(g):
        blocks = grading.split_blocks(g.chain, m_sizes)
        back = [tuple(reversed(blocks[i])) for i in kept]
        chain = grading.stack_blocks([blocks[i] for i in consumed] + back)
        return place(grading.GradingElement(g.j2, chain), length, 0)

    x_inv = {x: transport(g).inverse() for x, g in M.gradings.reps.items()}
    y_rep = {y: place(g, length, 0) for y, g in N.gradings.reps.items()}
    consumed_sizes = [m_sizes[i] for i in consumed]
    return {i: x_inv[x]
            * place(grading.gr_coefficient(coef, consumed_sizes), length, 0)
            * y_rep[y]
            for i in out.generators for x, coef, y in [names[i]]}


def test_split_reps_and_loops_match_full_length_products_on_a_seeded_word(monkeypatch):
    """The seeded genus-2 word of 20 slides under check mode: every Mor
    stage's reps, before its consumed block is eliminated, equal the
    full-length products, every arrow loop the product-based loop, and
    every defect pass and cancel the per-arrow pass and the coefficient
    scan.  Every stage is graded on two blocks and leaves one."""
    rng = random.Random(3)
    slides, cur = [], Z2
    for _ in range(20):
        slides.append(rng.choice(sorted(all_arcslides(cur), key=lambda s: (s.b1, s.c1))))
        cur = slides[-1].target
    stages, loop_checks = [], []

    def compared_defects(structure, gradings):
        assert list(arrow_loops(structure, gradings)) == product_arrow_loops(structure, gradings)
        loop_checks.append(len(gradings.sizes))
        return _compared_defects(structure, gradings)

    mor = homalg._mor
    inputs = _eliminate_inputs(monkeypatch)
    names = _stage_names(monkeypatch)

    def compared_mor(M, N, keep):
        out = mor(M, N, keep)
        assert inputs[-1].reps == _product_mor_reps(out, names[-1], M, N, keep)
        stages.append(len(inputs[-1].sizes))
        assert out.gradings.sizes == out.factor_sizes()
        return out

    _route_mor_defects(monkeypatch, compared_defects)
    monkeypatch.setattr(manifolds, "arrow_defects", compared_defects)
    monkeypatch.setattr(homalg, "_mor", compared_mor)
    monkeypatch.setattr(manifolds, "cancel", _compared_cancel)
    module = manifolds.apply_slides(cfd_zero_framed_handlebody(2), slides, check=True)
    assert stages == [2] * 20
    assert len(loop_checks) == 40 and max(loop_checks) == 2
    assert module.gradings.sizes == (7,)


# The defect pass that keys loops before building them, and the pivot test
# by the source's identity coefficient, checked against the per-arrow pass
# and the coefficient scan they replaced, on every stage of a run.


def _per_arrow_defects(structure, gradings):
    """Defects from one full-length loop per arrow, deduplicated as elements."""
    lattice = gradings.lattice
    loops = dedupe_relations(arrow_loops(structure, gradings))
    return [h for h in loops if not lattice.contains(h)]


def _coefficient_scan_cancel(M):
    """cancel finding each pivot's idempotent coefficient by scanning the
    arrow's coefficients for one whose entries are all idempotents."""
    out = M.copy()
    delta = out.delta
    back = {x: set() for x in out.generators}
    for x in out.generators:
        for y in delta[x]:
            back[y].add(x)
    rank = {g: i for i, g in enumerate(out.generators)}
    heap = []

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
        sources = (back[x] | back[y]) - {x, y}
        targets = (set(delta[x]) | set(delta[y])) - {x, y}
        for dead in (x, y):
            for z in delta.pop(dead, {}):
                back[z].discard(dead)
            for w in back.pop(dead, ()):
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


def _compared_defects(structure, gradings):
    """arrow_defects, asserted equal to the per-arrow pass, and also with
    the relations dropped, where every loop but the identity is a defect."""
    defects = arrow_defects(structure, gradings)
    assert defects == _per_arrow_defects(structure, gradings)
    bare = Gradings(gradings.sizes, gradings.reps, [])
    assert arrow_defects(structure, bare) == _per_arrow_defects(structure, bare)
    return defects


def _compared_cancel(M):
    """cancel, asserted equal to the coefficient scan: the same survivors,
    the same rows in the same order, the same reps."""
    new, old = cancel(M), _coefficient_scan_cancel(M)
    assert new.generators == old.generators
    assert [list(row.items()) for row in new.delta.values()] \
        == [list(row.items()) for row in old.delta.values()]
    assert (new.gradings is None) == (old.gradings is None)
    if new.gradings is not None:
        assert new.gradings.reps == old.gradings.reps
    return new


def _install_stage_oracles(monkeypatch):
    """Route every defect pass and every cancel of a run through the
    oracles; the returned counter records how often each ran."""
    seen = {"defects": 0, "cancel": 0}

    def defects(structure, gradings):
        seen["defects"] += 1
        return _compared_defects(structure, gradings)

    def reduced(M):
        seen["cancel"] += 1
        return _compared_cancel(M)

    _route_mor_defects(monkeypatch, defects)
    monkeypatch.setattr(manifolds, "arrow_defects", defects)
    monkeypatch.setattr(manifolds, "cancel", reduced)
    return seen


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
@pytest.mark.parametrize("preset", ["poincare", "s1xs2-g1", "s1xs2-g2", "self-gluing-g1"])
def test_keyed_defects_and_identity_pivots_match_the_scans(preset, truncated, monkeypatch, capsys):
    """Every Mor stage, reduced stage and final pairing of a checked preset
    run: the same defects in the same order, the same reduced structures."""
    seen = _install_stage_oracles(monkeypatch)
    argv = ["--truncated"] * truncated + ["--output", "json", "hf-hat", "--preset", preset, "--check"]
    assert main(argv) == 0
    stages = len(json.loads(capsys.readouterr().out)["stages"])
    # a raw and a reduced pass per stage, one on the final pairing
    assert seen["defects"] == 2 * stages + 1
    # a cancel per stage and one for the spin-c split; Poincare reduces its base too
    assert seen["cancel"] == stages + 1 + (preset == "poincare")


def test_arrow_loops_split_exactly_at_every_separator():
    """arrow_loops places coefficients on the trailing blocks.  With one
    factor per trailing block of a random layout, for every count of
    factors, the loops equal the product-based ones.  Products split
    exactly at every separator, as ``join`` and ``eliminate`` rely on."""
    rng = random.Random(15)
    circles = {pmc.n_points - 1: pmc for pmc in (Z1, Z2)}
    for _ in range(30):
        sizes = tuple(rng.choice(list(circles)) for _ in range(rng.randint(1, 5)))

        def element():
            blocks = [tuple(rng.randint(-3, 3) for _ in range(s)) for s in sizes]
            return grading.GradingElement(rng.randint(-9, 9), grading.stack_blocks(blocks))

        for n_factors in range(len(sizes) + 1):
            pmcs = [circles[s] for s in sizes[len(sizes) - n_factors:]]
            S = TypeDStructure([AlgebraFactor(pmc) for pmc in pmcs])
            for g in range(5):
                S.add_generator(g, [{pmc.pair_of(1)} for pmc in pmcs])
            for _ in range(12):
                coef = tuple(rng.choice([idempotent(pmc, [pmc.pair_of(1)]),
                                         StrandsGenerator(pmc, [(1, 3)], ())]) for pmc in pmcs)
                S.add_arrow(rng.randrange(5), rng.randrange(5), coef)
            G = Gradings(sizes, {g: element() for g in S.generators}, [])
            assert list(arrow_loops(S, G)) == product_arrow_loops(S, G)

        a, b = element(), element()
        for k in (grading.chain_length(sizes[:i]) for i in range(1, len(sizes))):
            head = grading.GradingElement(a.j2, a.chain[:k]) * grading.GradingElement(b.j2, b.chain[:k])
            tail = grading.GradingElement(0, a.chain[k:]) * grading.GradingElement(0, b.chain[k:])
            assert a * b == grading.GradingElement(head.j2 + tail.j2, head.chain + tail.chain)


def _image(table, chain):
    out = set()
    for v in chain:
        out ^= table[v]
    return out


def test_cancel_records_a_strong_deformation_retract():
    rng = random.Random(11)
    for trial in range(200):
        C = _random_square_zero_complex(rng)
        seed = trial % 7
        retract: dict = {}
        red = cancel(C, order_seed=seed, retract=retract)
        plain = cancel(C, order_seed=seed)
        assert red.generators == plain.generators
        assert red.delta == plain.delta
        assert [list(row) for row in red.delta.values()] == \
            [list(row) for row in plain.delta.values()]
        f, g, T = retract["f"], retract["g"], retract["T"]
        assert list(f) == red.generators
        assert set(g) == set(T) == set(C.generators)
        d = {x: set(C.delta[x]) for x in C.generators}
        d_red = {x: set(red.delta[x]) for x in red.generators}
        for w in red.generators:
            assert _image(g, f[w]) == {w}
            assert _image(d, f[w]) == _image(f, d_red[w])  # f is a chain map
        for b in C.generators:
            assert g[b] <= set(red.generators)
            assert _image(d_red, g[b]) == _image(g, d[b])  # so is g
            assert _image(d, T[b]) ^ _image(T, d[b]) == {b} ^ _image(f, g[b])


def test_cancel_records_a_retract_only_for_bare_complexes():
    with pytest.raises(ValueError):
        cancel(cfd_zero_framed_handlebody(1), retract={})


def test_basics_between_matches_a_full_basis_scan():
    ids = [i.left_pairs for i in all_idempotents(Z2)]
    for truncated in (False, True):
        found = 0
        for left in ids:
            for right in ids:
                scan = [a for a in alg.full_basis(Z2)
                        if a.left_pairs == left and a.right_pairs == right
                        and (not truncated or all(m <= 1 for m in a.supp))]
                assert list(alg.basics_between(Z2, left, right, truncated)) == scan
                found += len(scan)
        assert found == len([a for a in alg.full_basis(Z2)
                             if not truncated or all(m <= 1 for m in a.supp)])


def _assert_block_maps(factors, block, left_es, right_es):
    """A ``CoefBlock``'s differential and maps by the coefficients in
    ``left_es`` and ``right_es`` against ``coef_differential`` and
    ``coef_multiply``, position by position."""
    coefs = block.coefs
    for i, coef in enumerate(coefs):
        assert [coefs[t] for t in block.d[i]] == list(coef_differential(factors, coef))
    lefts = tuple(b.left for b in block.blocks)
    rights = tuple(b.right for b in block.blocks)

    def check(positions, wants, target):
        assert len(positions) == len(coefs)
        for p, want in zip(positions, wants):
            assert (p < 0) == (want is None)
            if want is not None:
                assert target.coefs[p] == want

    for e in left_es:
        check(block.left_by(e), [coef_multiply(factors, e, c) for c in coefs],
              homalg.coef_block(factors, tuple(a.left_pairs for a in e), rights))
    for e in right_es:
        check(block.right_by(e), [coef_multiply(factors, c, e) for c in coefs],
              homalg.coef_block(factors, lefts, tuple(a.right_pairs for a in e)))


@pytest.mark.parametrize("genus", [1, 2])
def test_block_differentials_and_products_match_the_coefficient_functions(genus):
    """Every block of the split circle, plain and truncated, with every
    basic acting on either side."""
    pmc = split_pmc(genus)
    ids = [i.left_pairs for i in all_idempotents(pmc)]
    basis = alg.full_basis(pmc)
    for truncated in (False, True):
        factors = (AlgebraFactor(pmc, truncated),)
        for left in ids:
            for right in ids:
                block = homalg.coef_block(factors, (left,), (right,))
                assert block.coefs == [(a,) for a in alg.basics_between(pmc, left, right,
                                                                          truncated)]
                _assert_block_maps(factors, block,
                                   [(e,) for e in basis if e.right_pairs == left],
                                   [(e,) for e in basis if e.left_pairs == right])


def test_a_two_factor_block_is_the_product_of_its_factor_blocks():
    """The blocks of the identity pairing: the identity bimodule of the
    genus-2 circle against the two handlebodies, with its arrows on the
    left and the tensor product's on the right.  Some blocks have
    differentials in both factors."""
    for truncated in (False, True):
        def over(structure):
            return truncate(structure) if truncated else structure

        M = over(dd_identity(Z2))
        N = tensor(over(cfd_zero_framed_handlebody(2)),
                   over(cfd_zero_framed_handlebody_reversed(2)))
        assert M.factors == N.factors and len(M.factors) == 2
        into = {}
        for x0 in M.generators:
            for x1, coefs in M.delta[x0].items():
                into.setdefault(x1, []).extend(coefs)
        differentiated = set()  # factors whose basics have differential terms
        for x in M.generators:
            for y in N.generators:
                block = homalg.coef_block(M.factors, M.idem[x], N.idem[y])
                assert block.coefs == list(product(*(
                    alg.basics_between(f.pmc, i, j, f.truncated)
                    for f, i, j in zip(M.factors, M.idem[x], N.idem[y]))))
                differentiated.update(k for k, b in enumerate(block.blocks) if any(b.d))
                _assert_block_maps(M.factors, block, into.get(x, []),
                                   [e for coefs in N.delta[y].values() for e in coefs])
        assert differentiated == {0, 1}


# Gradings.eliminate against the grading set it starts from


def _check_elimination(full, new, count):
    """``new`` grades the orbit of ``full`` under the group of the blocks
    after the first ``count``: the same lambda torsion; for a base b and
    every generator x, new(x) new(b)^-1, padded with zeros on the
    eliminated blocks, carries b to x in ``full``; and every relation of
    ``new``, conjugated by new(b), lies in the stabiliser of b in ``full``."""
    assert new.sizes == full.sizes[count:]
    lattice = full.lattice
    assert new.lattice.lambda_torsion2 == lattice.lambda_torsion2
    pad = (0,) * (grading.chain_length(full.sizes) - grading.chain_length(new.sizes))

    def padded(g):
        return grading.GradingElement(g.j2, pad + g.chain)

    if not new.reps:
        return
    b = next(iter(full.reps))
    base, base_inv = new.reps[b], new.reps[b].inverse()
    assert new.reps.keys() == full.reps.keys()
    for x, g in new.reps.items():
        assert lattice.contains(full.reps[x].inverse() * padded(g * base_inv) * full.reps[b]), x
    for s in new.relations:
        assert lattice.contains(full.reps[b].inverse() * padded(base * s * base_inv)
                                * full.reps[b]), s


def test_eliminated_blocks_leave_the_same_grading_set(monkeypatch, capsys):
    """Every eliminate call of the presets, plain and truncated, the lens
    spaces L(p,1) for p up to 5, T1^2 T3^3, the 20-slide word (3,4) (2,3)
    ten times and seeded genus-1 twist words."""
    counts = []
    eliminate = Gradings.eliminate

    def checked(self, count):
        new = eliminate(self, count)
        _check_elimination(self, new, count)
        counts.append(count)
        return new

    monkeypatch.setattr(Gradings, "eliminate", checked)
    stages = 0
    for preset in ("poincare", "s1xs2-g1", "s1xs2-g2", "self-gluing-g1"):
        for truncated in (False, True):
            argv = ["--truncated"] * truncated + ["--output", "json", "hf-hat", "--preset", preset]
            assert main(argv) == 0
            stages += len(json.loads(capsys.readouterr().out)["stages"])
    words = [manifolds.MappingWord(1, [("twist", 1, p)]) for p in range(1, 6)]
    words.append(manifolds.MappingWord(2, [("twist", 1, 2), ("twist", 3, 3)]))
    words.append(manifolds.MappingWord(2, [("slide", b, c) for _ in range(10)
                                           for b, c in ((3, 4), (2, 3))]))
    rng = random.Random(11)
    for _ in range(20):
        words.append(manifolds.MappingWord(1, [("twist", rng.randrange(2),
                                                rng.choice([-3, -2, -1, 1, 2, 3]))
                                               for _ in range(rng.randint(1, 4))]))
    for word in words:
        stages += len(manifolds.hf_hat_closed(word).stages)
    # every stage eliminates its consumed block; every final pairing none
    assert counts.count(0) == 8 + len(words)
    assert counts.count(1) == stages and set(counts) == {0, 1}


def test_a_stage_whose_residues_differ_raises_naming_it():
    """Two copies of H0(1), one shifted by a chain outside its lattice, lie
    in two orbits; the stage against them cannot eliminate its consumed
    block."""
    h = cfd_zero_framed_handlebody(1)
    N = TypeDStructure(h.factors, "H0+H0")
    for copy in (0, 1):
        for g in h.generators:
            N.add_generator((copy, g), h.idem[g])
        for x, row in h.delta.items():
            for y, coefs in row.items():
                N.delta[copy, x][copy, y] = coefs
    shift = grading.GradingElement(0, (1, 0, 0))
    N.gradings = Gradings(h.gradings.sizes, {(copy, g): shift * r if copy else r
                                             for copy in (0, 1)
                                             for g, r in h.gradings.reps.items()},
                          h.gradings.relations)
    with pytest.raises(StructureError, match=r"^Mor\(DD\(slide 2 over 1\),H0\+H0\): generators "
                                             r".*\(0, 'x'\)\) and .*\(1, 'x'\)\) reduce"):
        mor_against_bimodule(arcslide_dd(ArcSlide(Z1, 2, 1)), N, seam=0)


def test_a_stage_error_in_a_word_names_the_stage_once():
    """The two-orbit module of the test above, run through apply_slides:
    the error names the stage and its slide, then the Mor complex."""
    h = cfd_zero_framed_handlebody(1)
    N = TypeDStructure(h.factors, "H0+H0")
    for copy in (0, 1):
        for g in h.generators:
            N.add_generator((copy, g), h.idem[g])
        for x, row in h.delta.items():
            for y, coefs in row.items():
                N.delta[copy, x][copy, y] = coefs
    shift = grading.GradingElement(0, (1, 0, 0))
    N.gradings = Gradings(h.gradings.sizes, {(copy, g): shift * r if copy else r
                                             for copy in (0, 1)
                                             for g, r in h.gradings.reps.items()},
                          h.gradings.relations)
    with pytest.raises(StructureError, match=r"^stage 1 \(slide at 2 over 1\): Mor\(DD\(slide 2 "
                                             r"over 1\),H0\+H0\): generators .* reduce") as err:
        manifolds.apply_slides(N, [ArcSlide(Z1, 2, 1)])
    assert str(err.value).count("stage") == 1


# Arrow loops read from the factors' arrows, and reps built when first read


def test_factor_keyed_loops_match_the_per_arrow_pass_on_every_stage(monkeypatch, capsys):
    """Every Mor complex of the presets, plain and truncated, of L(p,1) for
    p up to 5 with either final pairing, T1^2 T3^3, the 20-slide word
    (3,4) (2,3) ten times, 20 seeded genus-1 and 12 seeded genus-2 twist
    words: the loops ``_mor`` tallies from the factors' arrows are the
    distinct loops of the complex's arrows, and their defects are those of
    the per-arrow pass, in the same order."""
    defective = []

    def per_arrow(structure, gradings):
        defects = arrow_defects(structure, gradings)
        defective.append(bool(defects))
        return defects

    built = _route_mor_defects(monkeypatch, per_arrow)
    for preset in ("poincare", "s1xs2-g1", "s1xs2-g2", "self-gluing-g1"):
        for truncated in (False, True):
            argv = ["--truncated"] * truncated + ["--output", "json", "hf-hat", "--preset", preset]
            assert main(argv) == 0
    capsys.readouterr()
    words = [(manifolds.MappingWord(1, [("twist", 1, p)]), final)
             for p in range(1, 6) for final in ("hom", "identity")]
    words.append((manifolds.MappingWord(2, [("twist", 1, 2), ("twist", 3, 3)]), "hom"))
    words.append((manifolds.MappingWord(2, [("slide", b, c) for _ in range(10)
                                            for b, c in ((3, 4), (2, 3))]), "hom"))
    rng = random.Random(11)
    for _ in range(20):
        words.append((manifolds.MappingWord(1, [("twist", rng.randrange(2),
                                                 rng.choice([-3, -2, -1, 1, 2, 3]))
                                                for _ in range(rng.randint(1, 4))]), "hom"))
    rng = random.Random(5)
    for _ in range(12):
        words.append((manifolds.MappingWord(2, [("twist", rng.randrange(4),
                                                 rng.choice([-3, -2, -1, 1, 2, 3]))
                                                for _ in range(rng.randint(1, 3))]), "hom"))
    for word, final in words:
        manifolds.hf_hat_closed(word, final=final)
    assert len(built) == len(defective) == 291
    # the lens-space stages carry defect relations, so non-empty lists are compared too
    assert sum(defective) == 33


def _eager_eliminate(full, count):
    """``Gradings.eliminate`` as it stood when it reduced every rep at once:
    the oracle for reps built when first read."""
    lattice = full.lattice
    length, cut = grading.chain_length(full.sizes), grading.chain_length(full.sizes[:count])
    start = cut + 1 if count else 0
    pivots = [(col, b, supp) for col, b, supp in lattice._basis if col <= cut]
    multipliers, reps = {}, {}
    for x, g in full.reps.items():
        head = g.chain[:cut]
        if head not in multipliers:
            padded = head + (0,) * (length - cut)
            row = [0, *padded, 0, 0]
            for col, b, supp in pivots:
                if row[col]:
                    grading._row_op(row, supp, b.j2, -(row[col] // b.chain[col - 1]))
            multipliers[head] = (grading.GradingElement(0, padded).inverse()
                                 * grading.GradingElement(row[-1], tuple(row[1:-2])))
        r = g * multipliers[head]
        reps[x] = grading.GradingElement(r.j2, r.chain[start:])
    relations = [grading.GradingElement(b.j2, b.chain[start:])
                 for col, b, _ in lattice._basis if col > cut]
    if lattice.lambda_torsion2:
        relations.append(grading.GradingElement(lattice.lambda_torsion2, (0,) * (length - start)))
    return Gradings(full.sizes[count:], reps, relations)


def test_reps_built_on_read_equal_the_products_and_the_eager_elimination(monkeypatch):
    """Every rep of every Mor complex of L(3,1), with either final
    pairing, and of the seeded genus-2 word of 20 slides, read in full:
    before elimination each equals the two full-length products, and after
    it the rep and relations of the eager elimination."""
    mor = homalg._mor
    inputs = _eliminate_inputs(monkeypatch)
    names = _stage_names(monkeypatch)
    checked = []

    def compared(M, N, keep):
        out = mor(M, N, keep)
        full = inputs[-1]
        assert dict(full.reps) == _product_mor_reps(out, names[-1], M, N, keep)
        eager = _eager_eliminate(full, len(full.sizes) - len(out.factors) if out.factors else 0)
        assert dict(out.gradings.reps) == eager.reps
        assert out.gradings.relations == eager.relations
        checked.append(len(out.generators))
        return out

    monkeypatch.setattr(homalg, "_mor", compared)
    for final in ("hom", "identity"):
        manifolds.hf_hat_closed(manifolds.MappingWord(1, [("twist", 1, 3)]), final=final)
    rng = random.Random(3)
    slides, cur = [], Z2
    for _ in range(20):
        slides.append(rng.choice(sorted(all_arcslides(cur), key=lambda s: (s.b1, s.c1))))
        cur = slides[-1].target
    manifolds.apply_slides(cfd_zero_framed_handlebody(2), slides)
    # three slides and a final pairing per final model, then 20 stages
    assert len(checked) == 2 * (3 + 1) + 20 and sum(checked) > 1000


def test_a_poincare_run_builds_only_the_reps_it_reads(monkeypatch, capsys):
    """cancel reads the reps of the generators it keeps, so a Poincare run
    builds about one rep per survivor, not one per Mor generator (4620)."""
    built = []
    build = grading.ProductReps._build

    def counted(self, factors):
        built.append(factors)
        return build(self, factors)

    monkeypatch.setattr(grading.ProductReps, "_build", counted)
    assert main(["--output", "json", "hf-hat", "--preset", "poincare"]) == 0
    result = json.loads(capsys.readouterr().out)
    survivors = sum(stage["after"] for stage in result["stages"])
    assert survivors + 1 <= len(built) <= 120
    assert sum(stage["before"] for stage in result["stages"]) + result["mor_generators"] == 4620


# Mor stages numbered as they are built, and the per-bimodule plan


def _conjugator(stage, coef, y):
    """The chain of g = gr(coef) gr(y) on the consumed blocks, where it
    lives: what conjugates the cores of the arrows out of (x, coef, y)."""
    cut = stage.plan.cut
    return tuple(map(add, stage.plan.coef(coef).chain[:cut], stage.y_rep[y].chain[:cut]))


def _m_loop(core, g):
    """The key of the loop g^-1 h g of an M-arrow with core h and
    conjugator g: one dot product against the core's boundary."""
    j2, chain, d_h = core
    return (j2 - 2 * sum(map(mul, g, d_h)), chain)


def _tuple_keyed_mor(M, N, keep):
    """``_mor`` as it stood before it numbered its generators: keys
    (x, coef, y) added one by one, arrows through ``add_arrow``, on a
    plan of its own.  It is numbered by build position and then graded;
    returns it and its keys by number."""
    kept = [] if keep is None else [keep]
    consumed = [i for i in range(len(M.factors)) if i != keep]
    reversals = [alg.reversal(M.factors[i].pmc) for i in kept]
    out = TypeDStructure(
        [AlgebraFactor(rev, M.factors[i].truncated) for (rev, _), i in zip(reversals, kept)],
        name=f"Mor({M.name},{N.name})",
    )
    plan = grading.MorPlan(M.gradings, consumed, kept)
    incoming = {}
    for x0 in M.generators:
        for x1, coefs in M.delta[x0].items():
            parts = []
            for e in coefs:
                e_c = tuple(e[i] for i in consumed)
                k = tuple(alg.opposite_basic(e[i]) for i in kept)
                parts.append((e_c, k, plan.core(x0, x1, e_c, k)))
            incoming.setdefault(x1, []).append((x0, parts))
    stage = grading.MorGrading(plan, N.gradings)
    tally = stage.tally
    per_pair, ident = {}, {}
    for x in M.generators:
        idem = tuple(alg.pair_set(rev, (rpm[p] for p in M.idem[x][i]))
                     for (rev, rpm), i in zip(reversals, kept))
        ident[x] = homalg.identity_coef(out.factors, idem)
        for y in N.generators:
            choices = [alg.basics_between(N.factors[k].pmc, M.idem[x][i], N.idem[y][k],
                                          N.factors[k].truncated)
                       for k, i in enumerate(consumed)]
            per_pair[x, y] = list(product(*choices))
            for coef in per_pair[x, y]:
                out.add_generator((x, coef, y), idem)
    outgoing = {y: [(y2, e, stage.n_loop(y, y2, e))
                    for y2, coefs in N.delta[y].items() for e in coefs]
                for y in N.generators}
    for x in M.generators:
        into = incoming.get(x, ())
        for y in N.generators:
            for coef in per_pair[x, y]:
                src = (x, coef, y)
                for term in coef_differential(N.factors, coef):
                    added = out.add_arrow(src, (x, term, y), ident[x])
                    tally[stage.IDENTITY_LOOP] += 1 if added else -1
                for y2, e, loop in outgoing[y]:
                    p = coef_multiply(N.factors, coef, e)
                    if p is not None:
                        tally[loop] += 1 if out.add_arrow(src, (x, p, y2), ident[x]) else -1
                g = _conjugator(stage, coef, y) if into else ()
                for x0, parts in into:
                    for e, kept_part, core in parts:
                        p = coef_multiply(N.factors, e, coef)
                        if p is not None:
                            added = out.add_arrow(src, (x0, p, y), kept_part)
                            tally[_m_loop(core, g)] += 1 if added else -1
    stage.names = list(out.generators)
    out = _numbered(out)
    homalg._mor_gradings(out, stage)
    return out, stage.names


def _assert_same_stage(new, old):
    """The same structure, generator order, row order, reps and relations."""
    assert new.factors == old.factors and new.name == old.name
    assert new.generators == old.generators
    assert list(new.idem.items()) == list(old.idem.items())
    assert list(new.delta) == list(old.delta)
    for x in new.generators:
        assert list(new.delta[x].items()) == list(old.delta[x].items())
    assert new.gradings.sizes == old.gradings.sizes
    assert list(new.gradings.reps) == list(old.gradings.reps)
    assert dict(new.gradings.reps) == dict(old.gradings.reps)
    assert new.gradings.relations == old.gradings.relations


def test_stages_are_numbered_in_build_order_of_the_tuple_keyed_build(monkeypatch, capsys):
    """Every Mor complex of the presets, plain and truncated, of L(3,1)
    with either final pairing and of the 20-slide word (3,4) (2,3) ten
    times: name i is the i-th triple built, and the complex is the
    tuple-keyed build renamed through those names by build position."""
    names = _stage_names(monkeypatch)
    mor = homalg._mor
    checked = []

    def compared(M, N, keep):
        new = mor(M, N, keep)
        old, old_names = _tuple_keyed_mor(M, N, keep)
        assert names[-1] == old_names
        _assert_same_stage(new, old)
        checked.append(len(new.generators))
        return new

    monkeypatch.setattr(homalg, "_mor", compared)
    for preset in ("poincare", "s1xs2-g1", "s1xs2-g2", "self-gluing-g1"):
        for truncated in (False, True):
            argv = ["--truncated"] * truncated + ["--output", "json", "hf-hat", "--preset", preset]
            assert main(argv) == 0
    capsys.readouterr()
    for final in ("hom", "identity"):
        manifolds.hf_hat_closed(manifolds.MappingWord(1, [("twist", 1, 3)]), final=final)
    twenty = manifolds.MappingWord(2, [("slide", b, c) for _ in range(10)
                                       for b, c in ((3, 4), (2, 3))])
    for truncated in (False, True):
        manifolds.hf_hat_closed(twenty, truncated=truncated)
    # stages and a final pairing: 2 * (11 + 1 + 1 + 9) for the presets,
    # 2 * 4 for L(3,1) and 2 * 21 for the word
    assert len(checked) == 44 + 8 + 42 and sum(checked) > 10000


def _snapshot(S):
    """Every container of a structure, copied down to its immutable values."""
    g = S.gradings
    return (list(S.generators), dict(S.idem), {x: dict(row) for x, row in S.delta.items()},
            g, g.sizes, dict(g.reps), list(g.relations))


def test_a_warm_plan_builds_the_stage_a_cold_one_does_and_writes_no_bimodule():
    """A stage against a bimodule whose plan was built by earlier stages
    equals one against a fresh copy of it, along a word that repeats two
    slides, and a copy's plan goes with the copy; a full Poincare run,
    which reuses the plans of the cached bimodules, leaves every cached
    bimodule as it was."""
    slides = manifolds.MappingWord(2, manifolds.poincare_twist_tokens()).expand()
    module = cancel(cfd_self_gluing(Z1))
    for s in slides:
        bim = arcslide_dd(s)
        warm = mor_against_bimodule(bim, module, seam=0)
        cold_bim = bim.copy()
        assert cold_bim not in homalg._plans
        cold = mor_against_bimodule(cold_bim, module, seam=0)
        assert homalg._plans[bim][1] is not homalg._plans[cold_bim][1]
        _assert_same_stage(warm, cold)
        module = cancel(warm)
        plans = len(homalg._plans)
        del cold_bim
        gc.collect()
        assert len(homalg._plans) == plans - 1
    cached = [arcslide_dd(s) for s in slides]
    assert len({id(b) for b in cached}) == 2
    before = [_snapshot(b) for b in cached]
    manifolds.poincare_sphere()
    after = [_snapshot(b) for b in cached]
    for old, new in zip(before, after):
        assert new[3] is old[3]
        assert new == old


def test_cancel_leaves_the_shared_entries_of_a_raw_stage_as_they_were(monkeypatch):
    """A Mor stage's one-coefficient entries are frozensets shared through
    its bimodule's plan: the glued module, every raw Poincare stage and
    the final pairing keep their delta and idempotents while cancel
    reduces them."""
    checked = []

    def snapshotted(M, *args, **kwargs):
        before = _snapshot(M)
        out = cancel(M, *args, **kwargs)
        assert _snapshot(M) == before
        checked.append(len(M.generators))
        return out

    monkeypatch.setattr(manifolds, "cancel", snapshotted)
    manifolds.poincare_sphere()
    assert len(checked) == 12 and sum(checked[1:]) == 4620
