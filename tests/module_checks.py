"""Comparisons of type D structures that the tests make.

The pipeline reduces structures and reads their gradings; the tests also
compare reduced models up to relabelling, and count the homology of bare
complexes.
"""

from __future__ import annotations

from itertools import permutations

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


def homology_rank(C: TypeDStructure) -> int:
    """Rank of the homology of an F2 complex (no algebra factors)."""
    if C.factors:
        raise ValueError("homology is for bare complexes; cancel modules first")
    return len(cancel(C).generators)
