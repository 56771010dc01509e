"""Handlebody modules and the closed and bordered pipelines.

A three-manifold presented by a gluing word is computed by walking the
word: each slide or handle attachment contributes one morphism complex
against its bimodule, reduced before the next step; for a closed manifold
the two handlebody modules are paired off at the end and the homology is
split into lambda orbits with relative Maslov degrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import algebra as alg
from .algebra import StrandsGenerator
from .grading import arrow_defects, xi_word
from .homalg import (
    StructureError,
    TypeDStructure,
    cancel,
    identity_coef,
    mor_against_bimodule,
    mor_complex,
    tensor,
    truncate,
)
from .pmc import (
    ArcSlide,
    PointedMatchedCircle,
    connected_sum,
    reverse_pmc,
    split_pmc,
)
from .slides import arcslide_dd, dd_identity


# ---------------------------------------------------------------------------
# Building blocks


def cfd_zero_framed_handlebody(genus: int) -> TypeDStructure:
    """One generator; one differential loop per handle, along its a-arc."""
    return _handlebody(genus, 1, f"H0(g={genus})")


def cfd_zero_framed_handlebody_reversed(genus: int) -> TypeDStructure:
    """The zero-framed handlebody presented over the reversed circle."""
    # the split circle is its own reverse, but the b-feet take the arcs
    return _handlebody(genus, 2, f"H0rev(g={genus})")


def _handlebody(genus: int, foot: int, name: str) -> TypeDStructure:
    """Handle i occupies pair(4i + foot) and loops along the chord from it."""
    pmc = split_pmc(genus)
    out = TypeDStructure((pmc,), name=name)
    idem = frozenset(pmc.pair_of(4 * i + foot) for i in range(genus))
    out.add_generator("x", (idem,))
    for i in range(genus):
        s, t = 4 * i + foot, 4 * i + foot + 2
        horiz = sorted(p for p in idem if p != pmc.pair_of(s))
        out.add_arrow("x", "x", (StrandsGenerator(pmc, [(s, t)], horiz),))
    out.propagate_gradings()
    return out


def self_gluing_circle(pmc: PointedMatchedCircle) -> PointedMatchedCircle:
    return connected_sum(reverse_pmc(pmc), pmc)


def cfd_self_gluing(pmc: PointedMatchedCircle) -> TypeDStructure:
    """The handlebody whose boundary doubles the circle across a junction.

    The identity bimodule of the reversed circle, read inside the glued
    algebra: each generator's and each arrow's two halves are fused, and
    every chord symmetric across the junction is added.
    """
    big = self_gluing_circle(pmc)
    n = pmc.n_points
    ddid = dd_identity(reverse_pmc(pmc))
    out = TypeDStructure((big,), name=f"Hsg(g={pmc.genus})")

    key_of = {}
    for g in ddid.generators:
        idem = _fuse_pair(big, *identity_coef(ddid.factors, ddid.idem[g]), shift=n).left_pairs
        key_of[g] = tuple(sorted(idem))
        out.add_generator(key_of[g], (idem,))
    for g in ddid.generators:
        for g2, coefs in ddid.delta[g].items():
            for aL, aR in coefs:
                out.add_arrow(key_of[g], key_of[g2], (_fuse_pair(big, aL, aR, shift=n),))

    # chords symmetric about the junction between the halves: s runs over
    # 1..n and t over n+1..2n, and no pair of a connected sum crosses it
    for radius in range(n):
        s, t = n - radius, n + radius + 1
        for a in alg.completions(big, [(s, t)]):
            src = tuple(sorted(a.left_pairs))
            tgt = tuple(sorted(a.right_pairs))
            if src in out.idem and tgt in out.idem:
                out.add_arrow(src, tgt, (a,))
    out.propagate_gradings()
    return out


def _fuse_pair(big, a_first: StrandsGenerator, a_second: StrandsGenerator,
               shift: int) -> StrandsGenerator:
    moving = list(a_first.moving) + [(s + shift, t + shift) for s, t in a_second.moving]
    horiz = [big.pair_of(a_first.pmc.pairs[h][0]) for h in a_first.horizontals]
    horiz += [big.pair_of(a_second.pmc.pairs[h][0] + shift) for h in a_second.horizontals]
    return StrandsGenerator(big, moving, sorted(horiz))


def dd_elementary_cobordism(pmc: PointedMatchedCircle) -> TypeDStructure:
    """The handle-attaching cobordism with its split bordering.

    Built as the identity bimodule tensored with the genus-one handlebody,
    re-read inside the algebra of the summed circle at the handlebody's
    idempotent.  A bimodule over the enlarged circle and the reversed one.
    """
    ddid = dd_identity(pmc)
    torus = split_pmc(1)
    big = connected_sum(pmc, torus)
    n = pmc.n_points
    out = TypeDStructure((big, ddid.factors[1]), name=f"Cob(g{pmc.genus}->g{pmc.genus + 1})")

    # the torus block carries the reversed-handlebody framing so that the
    # orientation reversal at the next pairing lands on the zero-framed one
    h_idem = alg.idempotent(torus, [torus.pair_of(2)])
    h_loop = StrandsGenerator(torus, [(2, 4)], ())

    for g in ddid.generators:
        i_left = identity_coef(ddid.factors, ddid.idem[g])[0]
        out.add_generator(g, (_fuse_pair(big, i_left, h_idem, n).left_pairs, ddid.idem[g][1]))
    for g in ddid.generators:
        for g2, coefs in ddid.delta[g].items():
            for aL, aR in coefs:
                out.add_arrow(g, g2, (_fuse_pair(big, aL, h_idem, n), aR))
        i_left, i_right = identity_coef(ddid.factors, ddid.idem[g])
        out.add_arrow(g, g, (_fuse_pair(big, i_left, h_loop, n), i_right))
    out.propagate_gradings()
    return out


# ---------------------------------------------------------------------------
# Mapping words


class WordError(ValueError):
    """A gluing word fails to compose."""


@dataclass
class MappingWord:
    """A sequence of slide and Dehn-twist tokens on a split surface."""

    genus: int
    steps: list = field(default_factory=list)

    @staticmethod
    def from_json(data) -> "MappingWord":
        """The word of a JSON object; raises WordError unless it is well formed.

        The genus is an integer of at least 0; each step holds exactly one
        of ``slide`` (integers ``b1`` and ``c1``) and ``dehn_twist`` (an
        integer ``pair`` and an optional integer ``power``, default 1).
        """
        if not isinstance(data, dict):
            raise WordError(f"a word is a JSON object, got {data!r}")
        word = MappingWord(genus=_int_field(data, "genus", minimum=0))
        steps = data.get("steps", [])
        if not isinstance(steps, list):
            raise WordError(f"steps must be a list, got {steps!r}")
        for step in steps:
            kinds = [k for k in ("slide", "dehn_twist") if isinstance(step, dict) and k in step]
            if len(kinds) != 1:
                raise WordError(f"step {step!r} needs exactly one of slide or dehn_twist")
            body = step[kinds[0]]
            if kinds[0] == "slide":
                word.steps.append(("slide", _int_field(body, "b1"), _int_field(body, "c1")))
            else:
                word.steps.append(("twist", _int_field(body, "pair"),
                                   _int_field(body, "power", default=1)))
        return word

    def to_json(self) -> dict:
        steps = []
        for step in self.steps:
            if step[0] == "slide":
                steps.append({"slide": {"b1": step[1], "c1": step[2]}})
            else:
                steps.append({"dehn_twist": {"pair": step[1], "power": step[2]}})
        return {"genus": self.genus, "steps": steps}

    def expand(self) -> list[ArcSlide]:
        return expand_steps(split_pmc(self.genus), self.steps)


def _int_field(obj, key: str, default=None, minimum=None) -> int:
    """``obj[key]`` (or ``default`` when it is absent) as an integer."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" of at least {minimum}"
        raise WordError(f"{key} must be an integer{bound}, got {value!r} in {obj!r}")
    return value


def expand_steps(cur: PointedMatchedCircle, steps) -> list:
    """The arc-slides of ('slide', b1, c1) and ('twist', pair, power) tokens.

    Tokens refer to positions on the running circle, which starts at
    ``cur``.  ('cobordism',) markers pass through unchanged and move the
    running circle to the boundary left by attaching a handle.
    """
    out: list = []
    for step in steps:
        if step[0] == "cobordism":
            out.append(step)
            cur = reverse_pmc(connected_sum(reverse_pmc(cur), split_pmc(1)))
            continue
        if step[0] == "slide":
            try:
                batch = [ArcSlide(cur, step[1], step[2])]
            except ValueError as err:
                raise WordError(str(err)) from err
        else:
            batch = dehn_twist_expand(cur, step[1], step[2])
        out.extend(batch)
        if batch:
            cur = batch[-1].target
    return out


def dehn_twist_expand(pmc: PointedMatchedCircle, pair: int, power: int = 1) -> list[ArcSlide]:
    """Factor a Dehn twist along a matched pair into arc-slides.

    Each point between the feet slides over the pair once, in turn.  A
    positive power twists in the direction pinned by the Poincare sphere
    computation; a negative power gives the inverse twist.
    """
    if not 0 <= pair < pmc.n_pairs:
        raise WordError(f"no matched pair {pair} on this circle")
    inverted = power < 0
    out: list[ArcSlide] = []
    cur = pmc
    for _ in range(abs(power)):
        b, b_top = cur.pairs[pair]
        count = b_top - b - 1
        batch = []
        for _ in range(count):
            s = ArcSlide(cur, b + 1, b)
            batch.append(s)
            cur = s.target
        if not inverted:
            batch = [s.inverse() for s in reversed(batch)]
        out.extend(batch)
        if batch:
            cur = batch[-1].target
    return out


# ---------------------------------------------------------------------------
# The pipeline


def apply_slides(module: TypeDStructure, slides, stats: list | None = None,
                 check: bool = False) -> TypeDStructure:
    """Pair the module against each step's bimodule in turn, reducing as we go.

    A slide's bimodule consumes its source factor against the module and
    leaves a module over the slide's target circle; a ('cobordism',)
    marker pairs the elementary cobordism's second factor with it and
    raises the boundary genus by one.  Over a truncated module each
    distinct bimodule is projected with ``truncate`` once.  Stages come
    numbered.  With ``check``, every stage must have d^2 = 0 and, once
    reduced, gradings that agree with each of its arrows.  A
    ``StructureError`` raised while a stage is built, graded or reduced
    names the stage.
    """
    current = module
    projected: dict = {}  # bimodule -> its image over the truncated algebras
    for index, step in enumerate(slides, 1):
        slide = isinstance(step, ArcSlide)
        label = f"slide at {step.b1} over {step.c1}" if slide else "cobordism"
        try:
            if slide:
                bim, seam = arcslide_dd(step), 0
            else:
                bim, seam = dd_elementary_cobordism(reverse_pmc(current.factors[0])), 1
            if module.truncated:
                if bim not in projected:
                    projected[bim] = truncate(bim)
                bim = projected[bim]
            if bim.factors[seam] != current.factors[0]:
                raise WordError(f"stage {index} ({label}) does not act on the module's circle")
            raw = mor_against_bimodule(bim, current, seam=seam)
            if check:
                raw.require_d_squared()
            reduced = cancel(raw)
            if check and arrow_defects(reduced, reduced.gradings):
                raise StructureError("gradings disagree with its arrows")
        except StructureError as err:
            raise StructureError(f"stage {index} ({label}): {err}") from None
        if stats is not None:
            stats.append((len(raw.generators), len(reduced.generators)))
        current = reduced
    return current


@dataclass
class ClosedResult:
    """Homology ranks split by lambda orbit, with pipeline stage sizes."""

    orbits: list
    stages: list
    mor_rank: int = 0

    @property
    def total_rank(self) -> int:
        return sum(o["rank"] for o in self.orbits)

    def to_json(self) -> dict:
        return {
            "orbits": self.orbits,
            "stages": [{"before": b, "after": a} for b, a in self.stages],
            "mor_generators": self.mor_rank,
        }

    def text(self) -> str:
        lines = [f"total rank {self.total_rank} in {len(self.orbits)} orbit(s)"]
        for i, orbit in enumerate(self.orbits):
            mas = ", ".join(f"{d}: {c}" for d, c in sorted(orbit["maslov"].items()))
            mod = orbit.get("modulus", 0)
            tag = f" (degrees mod {mod})" if mod else ""
            lines.append(f"  orbit {i}: rank {orbit['rank']}{tag}  maslov {{{mas}}}")
        for i, (before, after) in enumerate(self.stages):
            lines.append(f"  stage {i + 1}: {before} -> {after}")
        lines.append(f"  final mor complex: {self.mor_rank} generators")
        return "\n".join(lines)


def spinc_maslov(complex_: TypeDStructure) -> list[dict]:
    """Split a reduced complex into lambda orbits with relative degrees.

    Each generator's rep reduces once, by ``RelationLattice.reduced``: the
    reduced chain keys its lambda orbit, and the j2 left less that of the
    orbit's first generator is its doubled degree, modulo the torsion.  A
    degree that is not an integer raises.
    """
    reduced = cancel(complex_)
    name = complex_.name or "complex"
    if reduced.gradings is None:
        raise StructureError(f"{name} is ungraded; no spin-c split")
    reps, lattice = reduced.gradings.reps, reduced.gradings.lattice
    tor = lattice.lambda_torsion2
    orbits: dict = {}  # reduced chain -> (j2 of the first generator's reduction, degrees)
    for g in reduced.generators:
        r = lattice.reduced(reps[g])
        base, degrees = orbits.setdefault(r.chain, (r.j2, []))
        diff2 = r.j2 - base
        if diff2 % 2 or tor % 2:
            raise StructureError(f"{name}: the degree of {g!r} in its lambda orbit cannot be "
                                 f"read (doubled difference {diff2}, torsion {tor})")
        degrees.append(diff2 // 2)
    modulus = tor // 2
    out = []
    for _, degrees in orbits.values():
        floor = min(degrees)
        hist = Counter(str(d % modulus if modulus else d - floor) for d in degrees)
        out.append({"rank": len(degrees), "maslov": dict(hist), "modulus": modulus})
    out.sort(key=lambda o: (-o["rank"], sorted(o["maslov"].items())))
    return out


def hf_hat_closed(word: MappingWord, truncated: bool = False, final: str = "hom",
                  check: bool = False) -> ClosedResult:
    """HF-hat of the closed manifold glued from two handlebodies by the word.

    ``final`` picks the pairing model for the last step: ``hom`` maps one
    handlebody module into the other, ``identity`` maps the identity
    bimodule into the tensor of the two sides.  Both give the same
    homology; the identity model is the larger complex.  A word that does
    not return to the split circle raises ``WordError``.  With ``check``,
    the rank must be at least |H_1| and, when H_1 is finite, there must be
    one orbit per spin-c structure, |H_1| in all.  Each orbit's rank must
    be odd when H_1 is finite and even when it is not: the Euler
    characteristic of HF-hat in one spin-c structure is then +-1 or 0.
    """
    genus = word.genus
    slides = word.expand()
    if slides and slides[-1].target != split_pmc(genus):
        raise WordError("word does not return to the split circle")
    stats: list = []
    left = cfd_zero_framed_handlebody(genus)
    if truncated:
        left = truncate(left)
    if final == "hom":
        pairing = mor_complex(left, apply_slides(left, slides, stats, check=check))
    elif final == "identity":
        start = cfd_zero_framed_handlebody_reversed(genus)
        right = apply_slides(truncate(start) if truncated else start,
                             [s.reflected() for s in slides], stats, check=check)
        ddid = dd_identity(split_pmc(genus))
        pairing = mor_complex(truncate(ddid) if truncated else ddid, tensor(left, right))
    else:
        raise ValueError(f"unknown final pairing {final!r}")
    result = _closed(pairing, stats, check)
    if check:
        order = h1_order(slides, genus)
        if result.total_rank < order or (order and len(result.orbits) != order):
            raise StructureError(f"word {word.steps}: {len(result.orbits)} orbit(s) of total "
                                 f"rank {result.total_rank}, but |H_1| = {order}")
        for i, orbit in enumerate(result.orbits):
            if orbit["rank"] % 2 != bool(order):
                raise StructureError(f"word {word.steps}: orbit {i} has rank {orbit['rank']}, "
                                     f"but |H_1| = {order} makes every orbit's rank "
                                     f"{'odd' if order else 'even'}")
    return result


def _closed(pairing: TypeDStructure, stats: list, check: bool) -> ClosedResult:
    """The closed result of a final pairing complex."""
    if check:
        pairing.require_d_squared()
    return ClosedResult(orbits=spinc_maslov(pairing), stages=stats,
                        mor_rank=len(pairing.generators))


def h1_order(slides, genus: int) -> int:
    """|H_1| of the closed manifold the slides glue, 0 if it is infinite.

    It is |det| of the word's action on H_1 of the surface, rows at the
    odd pairs and columns at the even ones.
    """
    m = xi_word(slides, 2 * genus)
    return abs(_det([[m[2 * i + 1][2 * j] for j in range(genus)] for i in range(genus)]))


def _det(rows) -> int:
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def cfd_bordered(start_genus: int, steps, truncated: bool = False,
                 stats: list | None = None) -> TypeDStructure:
    """CFD of a bordered manifold built from slides and handle attachments.

    ``steps`` mixes ('slide', b1, c1), ('twist', pair, power) and
    ('cobordism',) tokens; a cobordism raises the boundary genus by one
    with the split bordering.  Tokens refer to positions on the running
    underlying circle, which starts as the split circle of the given genus.
    """
    start = cfd_zero_framed_handlebody(start_genus)
    return apply_slides(truncate(start) if truncated else start,
                        expand_steps(split_pmc(start_genus), steps), stats)


# ---------------------------------------------------------------------------
# Presets reproducing the published computations


SELF_GLUING_SLIDES = [(5, 4), (2, 1), (3, 2), (4, 3), (2, 1), (6, 5), (7, 6), (2, 3)]


def self_gluing_word() -> MappingWord:
    return MappingWord(2, [("slide", b1, c1) for b1, c1 in SELF_GLUING_SLIDES])


def poincare_twist_tokens() -> list:
    # Five repetitions of the two torus twists on the split genus-two
    # circle, as slides in the direction pinned by the published run
    return [("slide", 3, 4), ("slide", 2, 3)] * 5


def poincare_sphere(truncated: bool = False, check: bool = False) -> ClosedResult:
    """HF-hat of the Poincare sphere via self-gluing handlebodies."""
    stats: list = []
    glued = cfd_self_gluing(split_pmc(1))
    base = cancel(truncate(glued) if truncated else glued)
    module = apply_slides(base, MappingWord(2, poincare_twist_tokens()).expand(),
                          stats, check=check)
    return _closed(mor_complex(base, module), stats, check)
