"""A-infinity modules: the dualized identity bimodule and its minimal model.

The dualized identity bimodule is an honest dg bimodule with two commuting
right actions.  Transferring its structure to homology through a strong
deformation retract produces infinitely many higher operations, so they
are exposed through a lazy, memoized evaluator: each operation is a g -
action - T - action - ... - f zigzag, summed over the interleavings of the
two input sequences.
"""

from __future__ import annotations

from . import algebra as alg
from .algebra import StrandsGenerator
from .homalg import TypeDStructure, cancel
from .pmc import PointedMatchedCircle
from .slides import dd_identity


class RetractError(ValueError):
    """Proposed perturbation data fails the retract identities."""


# ---------------------------------------------------------------------------
# The dualized identity bimodule (a dg bimodule with two right actions)


class DualIdentityBimodule:
    """Module maps from the identity bimodule into its second algebra.

    Basis triples (g, a, c): g is a generator of the identity bimodule,
    a decorates it with a first-factor algebra element ending at g's left
    idempotent, and c is the value in the second algebra.  The two right
    actions precompose with the first factor and postmultiply the value.
    """

    def __init__(self, pmc: PointedMatchedCircle, truncated: bool = False):
        self.pmc = pmc
        self.rev = alg.reversal(pmc)[0]
        self.truncated = truncated
        self.ddid = dd_identity(pmc)
        basis = []
        for g in self.ddid.generators:
            left, right = self.ddid.idem[g]
            for a in alg.full_basis(self.rev):
                if a.right_pairs != right or a.weight != 0 or not self._kept(a):
                    continue
                for c in alg.full_basis(pmc):
                    if c.left_pairs != left or c.weight != 0 or not self._kept(c):
                        continue
                    basis.append((g, a, c))
        self.basis = sorted(basis, key=lambda t: (repr(t[0]), t[1].sort_key(), t[2].sort_key()))
        self._differential = {b: self._compute_differential(b) for b in self.basis}

    def _compute_differential(self, elt) -> frozenset:
        g, a, c = elt
        out: set = set()
        for c2 in alg.differential_basic(c):
            out ^= {(g, a, c2)}
        for b in alg.basics_between(self.rev, a.left_pairs, a.right_pairs):
            if a in alg.differential_basic(b):
                out ^= {(g, b, c)}
        for g2 in self.ddid.generators:
            for g3, coefs in self.ddid.delta[g2].items():
                if g3 != g:
                    continue
                for p, q in coefs:
                    pc = alg.multiply_basic(p, c)
                    if pc is None or not self._kept(pc):
                        continue
                    for b in alg.basics_between(self.rev, a.left_pairs, self.ddid.idem[g2][1]):
                        if alg.multiply_basic(b, q) == a:
                            out ^= {(g2, b, pc)}
        return frozenset(out)

    def _kept(self, a: StrandsGenerator) -> bool:
        """Whether a survives truncation: multiplicity at most one.

        Supports add under products, so a factor of a kept element is
        kept: only products of kept elements need the test.
        """
        return not self.truncated or a.kept

    def differential(self, elt) -> frozenset:
        return self._differential[elt]

    def act(self, chain: frozenset, side: str, r: StrandsGenerator) -> frozenset:
        """Right action by a basic element of either boundary algebra.

        The first-factor action multiplies the value; the reversed-factor
        action divides the decoration, both induced from the identity
        bimodule's two left module structures.
        """
        out: set = set()
        for g, a, c in chain:
            if side == "rho":
                cs = alg.multiply_basic(c, r)
                if cs is not None and self._kept(cs):
                    out ^= {(g, a, cs)}
            elif side == "lambda":
                for b in alg.basics_between(self.rev, r.right_pairs, a.right_pairs):
                    if alg.multiply_basic(r, b) == a:
                        out ^= {(g, b, c)}
            else:
                raise ValueError(f"unknown side {side!r}")
        return frozenset(out)


class MinimalModel:
    """The transferred structure on the homology of the dualized identity.

    Operations are evaluated lazily: feed the inclusion through
    alternating action/homotopy steps and project.  Bimodule operations
    sum over all interleavings of the two input sequences.
    """

    def __init__(self, module: DualIdentityBimodule, seed: int = 0):
        self.module = module
        bare = TypeDStructure((), name="dual identity")
        for b in module.basis:
            bare.add_generator(b, ())
        for b in module.basis:
            for b2 in module.differential(b):
                bare.add_arrow(b, b2, ())
        retract: dict = {}
        reduced = cancel(bare, order_seed=seed, retract=retract)
        if reduced.arrow_count():
            raise RetractError("reduced differential is nonzero")
        self.generators = reduced.generators
        self._f = retract["f"]
        self._g = retract["g"]
        self._T = retract["T"]
        self._memo: dict = {}
        self._verify_retract()

    def _verify_retract(self) -> None:
        d = self.module._differential
        for w in self.generators:
            if _image(self._g, self._f[w]) != {w}:
                raise RetractError("g o f is not the identity on the retract")
        for b in self.module.basis:
            if _image(d, self._T[b]) ^ _image(self._T, d[b]) != {b} ^ _image(self._f, self._g[b]):
                raise RetractError("dT + Td != id + fg")

    # -- lazy operations ----------------------------------------------------

    def op_sequence(self, x, inputs) -> frozenset:
        """One zigzag: f, multiply/T alternately along the inputs, then g.

        ``inputs`` is a tuple of (side, basic generator); empty input gives
        zero (the model is minimal).
        """
        if not inputs:
            return frozenset()
        key = (x, inputs)
        if key in self._memo:
            return self._memo[key]
        chain = frozenset(self._f[x])
        for i, (side, r) in enumerate(inputs):
            if i:
                chain = _image(self._T, chain)
                if not chain:
                    break
            chain = self.module.act(chain, side, r)
            if not chain:
                break
        result = _image(self._g, chain)
        self._memo[key] = result
        return result

    def operation(self, x, lambdas=(), rhos=()) -> frozenset:
        """The bimodule operation with the two ordered input sequences."""
        lambdas = tuple(lambdas)
        rhos = tuple(rhos)
        if any(r.is_idempotent for r in lambdas + rhos):
            # strict unitality: idempotents act only through the plain
            # module structure, never through higher operations
            if len(lambdas) + len(rhos) != 1:
                return frozenset()
            ident = (lambdas + rhos)[0]
            _, a, c = x
            matches = (a.left_pairs == ident.left_pairs) if lambdas else (
                c.right_pairs == ident.left_pairs)
            return frozenset({x}) if matches else frozenset()
        out: set = set()
        for merged in _interleavings(
            tuple(("lambda", r) for r in lambdas), tuple(("rho", r) for r in rhos)
        ):
            out ^= self.op_sequence(x, merged)
        return frozenset(out)


def _image(table: dict, chain) -> frozenset:
    """The F2 sum of ``table[v]`` over the elements v of ``chain``."""
    out: set = set()
    for v in chain:
        out ^= table[v]
    return frozenset(out)


def _interleavings(seq1, seq2):
    if not seq1:
        yield seq2
        return
    if not seq2:
        yield seq1
        return
    for rest in _interleavings(seq1[1:], seq2):
        yield (seq1[0],) + rest
    for rest in _interleavings(seq1, seq2[1:]):
        yield (seq2[0],) + rest
