from itertools import product

import pytest

import hfhat.algebra as alg
from hfhat.ainfty import (
    BoundednessError,
    MinimalModel,
    RetractError,
    box_closed,
    box_tensor_minimal,
    caa_identity,
    minimal_model,
)
from hfhat.algebra import StrandsGenerator
from hfhat.homalg import AlgebraFactor, TypeDStructure, cancel, homology_rank
from hfhat.manifolds import apply_slides, cfd_zero_framed_handlebody, hf_hat_closed, MappingWord
from hfhat.pmc import ArcSlide, reverse_pmc, split_pmc

Z1 = split_pmc(1)
REV = reverse_pmc(Z1)

RHO = {name: StrandsGenerator(Z1, [mv], ()) for name, mv in
       [("1", (1, 2)), ("2", (2, 3)), ("3", (3, 4)),
        ("12", (1, 3)), ("23", (2, 4)), ("123", (1, 4))]}
LAM = {name: StrandsGenerator(REV, [mv], ()) for name, mv in
       [("1", (1, 2)), ("2", (2, 3)), ("3", (3, 4)),
        ("12", (1, 3)), ("23", (2, 4)), ("123", (1, 4))]}


def test_caa_identity_generator_count():
    assert len(caa_identity(Z1).basis) == 30


def test_caa_identity_d_squared_zero():
    caa = caa_identity(Z1)
    for b in caa.basis:
        acc = set()
        for t in caa.differential(b):
            acc ^= set(caa.differential(t))
        assert not acc


def test_caa_identity_differential_pair_structure():
    caa = caa_identity(Z1)
    sources = [b for b in caa.basis if caa.differential(b)]
    arrows = sum(len(caa.differential(b)) for b in caa.basis)
    assert len(sources) == 14
    assert arrows == 15
    model = minimal_model(caa)
    assert len(model.generators) == 2


def test_minimal_model_retract_identities():
    # the constructor verifies g o f = id and dT + Td = id + fg
    minimal_model(caa_identity(Z1))


def test_minimal_model_quoted_operations():
    """The two quoted minimal-model operations, in this package's labels.

    The loop family's interior inputs rho_23 and lambda_12 match the
    published computation on the nose; the closing single chord is the
    mirror-partner of the opener under our reversed-circle labelling.
    """
    model = minimal_model(caa_identity(Z1))
    x0, y0 = model.generators
    triple = model.operation(x0, lambdas=[LAM["1"]], rhos=[RHO["3"]])
    assert triple == frozenset({y0})
    loop = model.operation(x0, lambdas=[LAM["12"], LAM["1"]], rhos=[RHO["3"], RHO["23"]])
    assert loop == frozenset({y0})


@pytest.fixture(scope="module")
def caa_genus_two():
    return caa_identity(split_pmc(2))


def test_minimal_model_operations_are_gauge_invariant(caa_genus_two):
    # genus 2 has enough pivot ties for the seed to change the retract
    low, high = (minimal_model(caa_genus_two, seed=s) for s in (0, 500))
    assert low.generators == high.generators
    assert any(low._g[b] != high._g[b] or low._T[b] != high._T[b]
               for b in caa_genus_two.basis)

    caa = caa_identity(Z1)
    models = [minimal_model(caa, seed=s) for s in (0, 1)]
    ops = []
    for model in models:
        table = set()
        for x in model.generators:
            for r in RHO.values():
                for l in LAM.values():
                    v = model.operation(x, lambdas=[l], rhos=[r])
                    for y in v:
                        table.add((x[0], r.moving, l.moving, y[0]))
        ops.append(table)
    assert ops[0] == ops[1]


def test_truncated_genus_two_identity_stays_in_its_basis():
    caa = caa_identity(split_pmc(2), truncated=True)
    basis = set(caa.basis)
    for b in caa.basis:
        assert caa.differential(b) <= basis
        acc = set()
        for t in caa.differential(b):
            acc ^= set(caa.differential(t))
        assert not acc
    model = minimal_model(caa)
    assert len(model.generators) == 6
    for x in model.generators:
        chain = frozenset(model._f[x])
        for side, pmc in (("rho", caa.pmc), ("lambda", caa.rev)):
            for r in alg.full_basis(pmc):
                if r.weight == 0 and not r.is_idempotent:
                    assert caa.act(chain, side, r) <= basis


def test_strict_unitality():
    model = minimal_model(caa_identity(Z1))
    x0 = model.generators[0]
    iota = alg.idempotent(Z1, sorted(x0[2].left_pairs))
    assert model.operation(x0, rhos=[iota]) == frozenset({x0})
    assert model.operation(x0, lambdas=[LAM["2"], alg.idempotent(REV, [0])]) == frozenset()


def test_ainfty_relations_exhaustive_short_inputs():
    """Structure relations over every pair of input sequences whose total
    support length is at most four: operation compositions over all splits
    cancel against operations with one adjacent product taken inside."""
    model = minimal_model(caa_identity(Z1))
    singles_r = [RHO[k] for k in ("1", "2", "3", "12", "23", "123")]
    singles_l = [LAM[k] for k in ("1", "2", "3", "12", "23", "123")]

    def seqs(pool, max_total):
        yield ()
        for a in pool:
            la = a.moving[0][1] - a.moving[0][0]
            if la <= max_total:
                for rest in seqs(pool, max_total - la):
                    yield (a,) + rest

    def total(seq):
        return sum(e - s for a in seq for s, e in a.moving)

    lam_seqs = [s for s in seqs(singles_l, 4) if len(s) <= 2]
    rho_seqs = [s for s in seqs(singles_r, 4) if len(s) <= 2]
    for x in model.generators:
        for ls in lam_seqs:
            for rs in rho_seqs:
                if not (ls or rs) or total(ls) + total(rs) > 4:
                    continue
                acc = set()
                for i in range(len(ls) + 1):
                    for j in range(len(rs) + 1):
                        if (i, j) == (0, 0) or (i, j) == (len(ls), len(rs)):
                            continue
                        for y in model.operation(x, lambdas=ls[:i], rhos=rs[:j]):
                            acc ^= set(model.operation(y, lambdas=ls[i:], rhos=rs[j:]))
                for k in range(len(ls) - 1):
                    prod = alg.multiply_basic(ls[k], ls[k + 1])
                    if prod is not None:
                        acc ^= set(model.operation(
                            x, lambdas=ls[:k] + (prod,) + ls[k + 2:], rhos=rs))
                for k in range(len(rs) - 1):
                    prod = alg.multiply_basic(rs[k], rs[k + 1])
                    if prod is not None:
                        acc ^= set(model.operation(
                            x, lambdas=ls, rhos=rs[:k] + (prod,) + rs[k + 2:]))
                assert not acc, (x, ls, rs)


def test_box_with_zero_delta_module():
    model = minimal_model(caa_identity(Z1))
    N = TypeDStructure((cfd_zero_framed_handlebody(1).factors[0],))
    N.add_generator("u", (frozenset({0}),))
    out = box_tensor_minimal(model, "rho", N)
    # vanishing delta leaves only the (zero) m_1 differential
    assert out.arrow_count() == 0
    assert len(out.generators) == 1  # one model generator matches the idempotent


def test_box_tensor_depth_cap_raises():
    model = minimal_model(caa_identity(Z1))
    loops = TypeDStructure((cfd_zero_framed_handlebody(1).factors[0],))
    loops.add_generator("u", (frozenset({0}),))
    loops.add_arrow("u", "u", (RHO["12"],))
    assert loops.verify_d_squared()
    with pytest.raises(BoundednessError):
        box_tensor_minimal(model, "rho", loops, depth_cap=1)


def test_cross_path_ranks_on_random_words():
    import random

    from hfhat.ainfty import box_closed_dg
    from hfhat.manifolds import cfd_zero_framed_handlebody_reversed

    rng = random.Random(23)
    caa = caa_identity(Z1)
    left = cfd_zero_framed_handlebody_reversed(1)
    for _ in range(3):
        word = MappingWord(genus=1)
        for _i in range(rng.randint(1, 6)):
            word.steps.append(("slide", *rng.choice(
                [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])))
        mor_rank = hf_hat_closed(1, word).total_rank
        right = apply_slides(cfd_zero_framed_handlebody(1), word.expand())
        boxed = box_closed_dg(caa, left, right)
        assert boxed.verify_d_squared()
        assert homology_rank(boxed) == mor_rank, word.steps


# The two earlier box walkers, kept as the oracle for the single walker
# behind box_tensor_minimal and box_closed.


def _old_chain(table, chain):
    out = set()
    for v in chain:
        out ^= table[v]
    return frozenset(out)


def _old_box_tensor_minimal(model, side, N, depth_cap=None):
    cap = depth_cap if depth_cap is not None else 10 * max(len(N.generators), 1)
    idem_of = model.lambda_idempotent if side == "lambda" else model.rho_idempotent
    out = TypeDStructure((), name=f"box({side})")
    pairs = [(x, u) for x in model.generators for u in N.generators
             if idem_of(x) == N.idem[u][0]]
    for x, u in pairs:
        out.add_generator((x, u), ())
    for x, u in pairs:
        stack = [(0, u, None)]
        while stack:
            depth, w, chain = stack.pop()
            if depth:
                result = _old_chain(model._g, chain) if chain else frozenset()
                for y in result:
                    if (y, w) in out.idem:
                        out.add_arrow((x, u), (y, w), ())
            if depth >= cap:
                raise BoundednessError("box tensor exceeded its depth cap")
            for w2, cs in N.delta[w].items():
                for c in cs:
                    basic = c[0]
                    if basic.is_idempotent:
                        if chain is None:
                            kept = model.module.act(frozenset(model._f[x]), side, basic)
                            for y in _old_chain(model._g, kept):
                                if (y, w2) in out.idem:
                                    out.add_arrow((x, u), (y, w2), ())
                        continue
                    if chain is None:
                        nxt = model.module.act(frozenset(model._f[x]), side, basic)
                    else:
                        nxt = model.module.act(_old_chain(model._T, chain), side, basic)
                    if nxt:
                        stack.append((depth + 1, w2, nxt))
    return out


def _old_box_closed(model, N_lambda, N_rho, depth_cap=None):
    size = max(len(N_lambda.generators) + len(N_rho.generators), 1)
    cap = depth_cap if depth_cap is not None else 10 * size
    out = TypeDStructure((), name="box(closed)")
    triples = [
        (x, u, v)
        for x in model.generators
        for u in N_lambda.generators
        if model.lambda_idempotent(x) == N_lambda.idem[u][0]
        for v in N_rho.generators
        if model.rho_idempotent(x) == N_rho.idem[v][0]
    ]
    for key in triples:
        out.add_generator(key, ())
    for x, u, v in triples:
        stack = [(0, u, v, None)]
        while stack:
            depth, w_l, w_r, chain = stack.pop()
            if depth:
                for y in _old_chain(model._g, chain):
                    if (y, w_l, w_r) in out.idem:
                        out.add_arrow((x, u, v), (y, w_l, w_r), ())
            if depth >= cap:
                raise BoundednessError("box tensor exceeded its depth cap")
            moves = [("lambda", w2, c[0], w_r)
                     for w2, cs in N_lambda.delta[w_l].items() for c in cs]
            moves += [("rho", w_l, c[0], w2)
                      for w2, cs in N_rho.delta[w_r].items() for c in cs]
            for side, nl, basic, nr in moves:
                if basic.is_idempotent:
                    if chain is None:
                        kept = model.module.act(frozenset(model._f[x]), side, basic)
                        for y in _old_chain(model._g, kept):
                            if (y, nl, nr) in out.idem:
                                out.add_arrow((x, u, v), (y, nl, nr), ())
                    continue
                if chain is None:
                    nxt = model.module.act(frozenset(model._f[x]), side, basic)
                else:
                    nxt = model.module.act(_old_chain(model._T, chain), side, basic)
                if nxt:
                    stack.append((depth + 1, nl, nr, nxt))
    return out


def _assert_same_box(new, old):
    assert new.name == old.name
    assert new.generators == old.generators
    assert new.delta == old.delta
    assert [list(row) for row in new.delta.values()] == [list(row) for row in old.delta.values()]


def test_box_walker_matches_the_two_earlier_walkers():
    import random

    from hfhat.manifolds import cfd_zero_framed_handlebody_reversed

    rng = random.Random(23)  # the words of test_cross_path_ranks_on_random_words
    model = minimal_model(caa_identity(Z1))
    left = cfd_zero_framed_handlebody_reversed(1)
    arrows = 0
    for _ in range(3):
        word = MappingWord(genus=1)
        for _i in range(rng.randint(1, 6)):
            word.steps.append(("slide", *rng.choice(
                [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])))
        right = apply_slides(cfd_zero_framed_handlebody(1), word.expand())
        closed = box_closed(model, left, right)
        _assert_same_box(closed, _old_box_closed(model, left, right))
        arrows += closed.arrow_count()
        for side, N in (("lambda", left), ("rho", right)):
            _assert_same_box(box_tensor_minimal(model, side, N),
                             _old_box_tensor_minimal(model, side, N))
    assert arrows == 0  # reduced genus-1 modules leave the boxes arrow-free

    # every weight-0 coefficient, units included, forward along 0 < 1 < 2 < 3
    def acyclic(pmc):
        N = TypeDStructure((AlgebraFactor(pmc),))
        for i in range(4):
            N.add_generator(i, (frozenset({i % 2}),))
        for i in range(4):
            for j in range(i + 1, 4):
                for a in alg.basis(pmc, 0):
                    if a.left_pairs == N.idem[i][0] and a.right_pairs == N.idem[j][0]:
                        N.add_arrow(i, j, (a,))
        return N

    dag_l, dag_r = acyclic(REV), acyclic(Z1)
    closed = box_closed(model, dag_l, dag_r)
    _assert_same_box(closed, _old_box_closed(model, dag_l, dag_r))
    assert closed.arrow_count() == 14
    for side, N in (("lambda", dag_l), ("rho", dag_r)):
        _assert_same_box(box_tensor_minimal(model, side, N),
                         _old_box_tensor_minimal(model, side, N))

    loops = TypeDStructure((cfd_zero_framed_handlebody(1).factors[0],))
    loops.add_generator("u", (frozenset({0}),))
    loops.add_arrow("u", "u", (RHO["12"],))
    _assert_same_box(box_tensor_minimal(model, "rho", loops),
                     _old_box_tensor_minimal(model, "rho", loops))
    _assert_same_box(box_closed(model, dag_l, loops), _old_box_closed(model, dag_l, loops))
    for walk in (box_tensor_minimal, _old_box_tensor_minimal):
        with pytest.raises(BoundednessError):
            walk(model, "rho", loops, depth_cap=1)


def _scan_differential(module, elt):
    """The dual identity's differential by full-basis scans, as first written."""
    g, a, c = elt
    out = set()
    for c2 in alg.differential_basic(c):
        out ^= {(g, a, c2)}
    for b in alg.full_basis(module.rev):
        if b.right_pairs == a.right_pairs and a in alg.differential_basic(b):
            out ^= {(g, b, c)}
    for g2 in module.ddid.generators:
        for g3, coefs in module.ddid.delta[g2].items():
            if g3 != g:
                continue
            for p, q in coefs:
                pc = alg.multiply_basic(p, c)
                if pc is None or (module.truncated and any(m > 1 for m in pc.supp)):
                    continue
                for b in alg.full_basis(module.rev):
                    if b.right_pairs == module.ddid.idem[g2][1] and alg.multiply_basic(b, q) == a:
                        out ^= {(g2, b, pc)}
    return frozenset(out)


def _scan_lambda_action(module, chain, r):
    out = set()
    for g, a, c in chain:
        for b in alg.full_basis(module.rev):
            if b.left_pairs == r.right_pairs and alg.multiply_basic(r, b) == a:
                out ^= {(g, b, c)}
    return frozenset(out)


@pytest.mark.parametrize("truncated", [False, True])
def test_dual_identity_index_lookups_match_basis_scans(truncated):
    module = caa_identity(Z1, truncated)
    arrows = 0
    for b in module.basis:
        assert module.differential(b) == _scan_differential(module, b)
        arrows += len(module.differential(b))
        for r in alg.full_basis(module.rev):
            chain = frozenset({b})
            assert module.act(chain, "lambda", r) == _scan_lambda_action(module, chain, r)
    assert arrows == 15
    chain = frozenset(module.basis[::3])
    for r in alg.full_basis(module.rev):
        assert module.act(chain, "lambda", r) == _scan_lambda_action(module, chain, r)
