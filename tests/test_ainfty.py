import pytest

import hfhat.algebra as alg
from hfhat.ainfty import DualIdentityBimodule, MinimalModel
from hfhat.algebra import StrandsGenerator
from hfhat.manifolds import apply_slides, cfd_zero_framed_handlebody, hf_hat_closed, MappingWord
from hfhat.pmc import reverse_pmc, split_pmc

from module_checks import homology_rank

Z1 = split_pmc(1)
REV = reverse_pmc(Z1)

RHO = {name: StrandsGenerator(Z1, [mv], ()) for name, mv in
       [("1", (1, 2)), ("2", (2, 3)), ("3", (3, 4)),
        ("12", (1, 3)), ("23", (2, 4)), ("123", (1, 4))]}
LAM = {name: StrandsGenerator(REV, [mv], ()) for name, mv in
       [("1", (1, 2)), ("2", (2, 3)), ("3", (3, 4)),
        ("12", (1, 3)), ("23", (2, 4)), ("123", (1, 4))]}


def test_caa_identity_generator_count():
    assert len(DualIdentityBimodule(Z1).basis) == 30


def test_caa_identity_d_squared_zero():
    caa = DualIdentityBimodule(Z1)
    for b in caa.basis:
        acc = set()
        for t in caa.differential(b):
            acc ^= set(caa.differential(t))
        assert not acc


def test_caa_identity_differential_pair_structure():
    caa = DualIdentityBimodule(Z1)
    sources = [b for b in caa.basis if caa.differential(b)]
    arrows = sum(len(caa.differential(b)) for b in caa.basis)
    assert len(sources) == 14
    assert arrows == 15
    model = MinimalModel(caa)
    assert len(model.generators) == 2


def test_minimal_model_retract_identities():
    # the constructor verifies g o f = id and dT + Td = id + fg
    MinimalModel(DualIdentityBimodule(Z1))


def test_minimal_model_quoted_operations():
    """The two quoted minimal-model operations, in this package's labels.

    The loop family's interior inputs rho_23 and lambda_12 match the
    published computation on the nose; the closing single chord is the
    mirror-partner of the opener under our reversed-circle labelling.
    """
    model = MinimalModel(DualIdentityBimodule(Z1))
    x0, y0 = model.generators
    triple = model.operation(x0, lambdas=[LAM["1"]], rhos=[RHO["3"]])
    assert triple == frozenset({y0})
    loop = model.operation(x0, lambdas=[LAM["12"], LAM["1"]], rhos=[RHO["3"], RHO["23"]])
    assert loop == frozenset({y0})


@pytest.fixture(scope="module")
def caa_genus_two():
    return DualIdentityBimodule(split_pmc(2))


def test_minimal_model_operations_are_gauge_invariant(caa_genus_two):
    # genus 2 has enough pivot ties for the seed to change the retract
    low, high = (MinimalModel(caa_genus_two, seed=s) for s in (0, 500))
    assert low.generators == high.generators
    assert any(low._g[b] != high._g[b] or low._T[b] != high._T[b]
               for b in caa_genus_two.basis)

    caa = DualIdentityBimodule(Z1)
    models = [MinimalModel(caa, seed=s) for s in (0, 1)]
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
    caa = DualIdentityBimodule(split_pmc(2), truncated=True)
    basis = set(caa.basis)
    for b in caa.basis:
        assert caa.differential(b) <= basis
        acc = set()
        for t in caa.differential(b):
            acc ^= set(caa.differential(t))
        assert not acc
    model = MinimalModel(caa)
    assert len(model.generators) == 6
    for x in model.generators:
        chain = frozenset(model._f[x])
        for side, pmc in (("rho", caa.pmc), ("lambda", caa.rev)):
            for r in alg.full_basis(pmc):
                if r.weight == 0 and not r.is_idempotent:
                    assert caa.act(chain, side, r) <= basis


def test_strict_unitality():
    model = MinimalModel(DualIdentityBimodule(Z1))
    x0 = model.generators[0]
    iota = alg.idempotent(Z1, sorted(x0[2].left_pairs))
    assert model.operation(x0, rhos=[iota]) == frozenset({x0})
    assert model.operation(x0, lambdas=[LAM["2"], alg.idempotent(REV, [0])]) == frozenset()


def test_ainfty_relations_exhaustive_short_inputs():
    """Structure relations over every pair of input sequences whose total
    support length is at most four: operation compositions over all splits
    cancel against operations with one adjacent product taken inside."""
    model = MinimalModel(DualIdentityBimodule(Z1))
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


def test_cross_path_ranks_on_random_words():
    import random

    from module_checks import box_closed_dg
    from hfhat.manifolds import cfd_zero_framed_handlebody_reversed

    rng = random.Random(23)
    caa = DualIdentityBimodule(Z1)
    left = cfd_zero_framed_handlebody_reversed(1)
    for _ in range(3):
        word = MappingWord(genus=1)
        for _i in range(rng.randint(1, 6)):
            word.steps.append(("slide", *rng.choice(
                [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])))
        mor_rank = hf_hat_closed(word).total_rank
        right = apply_slides(cfd_zero_framed_handlebody(1), word.expand())
        boxed = box_closed_dg(caa, left, right)
        assert boxed.verify_d_squared()
        assert homology_rank(boxed) == mor_rank, word.steps


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
    module = DualIdentityBimodule(Z1, truncated)
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
