"""Comparisons of type D structures that the tests make.

The pipeline reduces structures and reads their gradings; the tests also
compare reduced models up to relabelling, count the homology of bare
complexes, and close the dg identity bimodule's two strict actions by the
box tensor product, a second route to a closed manifold's rank.
"""

from __future__ import annotations

from itertools import permutations

from hfhat.ainfty import DualIdentityBimodule
from hfhat.homalg import TypeDStructure, cancel


def modules_isomorphic(M: TypeDStructure, N: TypeDStructure) -> bool:
    """Whether two type D structures match under an idempotent bijection.

    Searches the idempotent-respecting generator bijections for one
    carrying the differential over on the nose; enough to compare reduced
    models with few generators per idempotent.
    """
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


def rotated(M: TypeDStructure, shift: int) -> TypeDStructure:
    """A copy of M whose generator list starts at position ``shift``,
    taken mod its length: ``cancel`` breaks pivot ties by position, so a
    rotation is how a test makes it pick other pivots."""
    out = M.copy()
    k = shift % len(M.generators) if M.generators else 0
    out.generators = M.generators[k:] + M.generators[:k]
    return out


def homology_rank(C: TypeDStructure) -> int:
    """Rank of the homology of an F2 complex (no algebra factors)."""
    if C.factors:
        raise ValueError("homology is for bare complexes; cancel modules first")
    return len(cancel(C).generators)


def box_closed_dg(module: DualIdentityBimodule, N_lambda: TypeDStructure,
                  N_rho: TypeDStructure) -> TypeDStructure:
    """Close both strict actions of the dg identity bimodule.

    With only a differential and two strict actions, the box differential
    needs single delta steps and no homotopy trees, so no boundedness
    hypotheses enter.
    """
    out = TypeDStructure((), name="box(dg)")
    triples = [
        (b, u, v)
        for b in module.basis
        for u in N_lambda.generators
        if b[1].left_pairs == N_lambda.idem[u][0]
        for v in N_rho.generators
        if b[2].right_pairs == N_rho.idem[v][0]
    ]
    for key in triples:
        out.add_generator(key, ())
    for b, u, v in triples:
        for b2 in module.differential(b):
            if (b2, u, v) in out.idem:
                out.add_arrow((b, u, v), (b2, u, v), ())
        for u2, cs in N_lambda.delta[u].items():
            for c in cs:
                for b2 in module.act(frozenset({b}), "lambda", c[0]):
                    if (b2, u2, v) in out.idem:
                        out.add_arrow((b, u, v), (b2, u2, v), ())
        for v2, cs in N_rho.delta[v].items():
            for c in cs:
                for b2 in module.act(frozenset({b}), "rho", c[0]):
                    if (b2, u, v2) in out.idem:
                        out.add_arrow((b, u, v), (b2, u, v2), ())
    return out
