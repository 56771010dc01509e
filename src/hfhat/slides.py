"""Identity and arc-slide bimodules.

Both are type D structures over a pair of strands algebras, one for each
boundary circle, with the second circle orientation-reversed.  The
identity bimodule's differential is the sum of all matched chord pairs;
an arc-slide bimodule's differential is the solution of its structural
equation over the near-chords, the over-slide ambiguities fixed by a basic
choice.
"""

from __future__ import annotations

from typing import NamedTuple

from . import algebra as alg
from .algebra import StrandsGenerator
from .homalg import AlgebraFactor, StructureError, TypeDStructure
from .pmc import (
    ArcSlide,
    Chord,
    PointedMatchedCircle,
    all_chords,
    reverse_point,
)

# ---------------------------------------------------------------------------
# The identity bimodule


def dd_identity(pmc: PointedMatchedCircle) -> TypeDStructure:
    """The identity bimodule: complementary idempotent pairs, with one
    differential term for every chord and every horizontal completion."""
    rev, rpm = alg.reversal(pmc)
    out = TypeDStructure((AlgebraFactor(pmc), AlgebraFactor(rev)), name=f"DDid(g={pmc.genus})")
    for left in alg.idempotents(pmc):
        right = [rpm[p] for p in range(pmc.n_pairs) if p not in left]
        out.add_generator(tuple(sorted(left)), (left, alg.pair_set(rev, right)))
    for chord in all_chords(pmc):
        for aL, aR in matched_chord_terms(pmc, rev, rpm, chord):
            out.add_arrow(tuple(sorted(aL.left_pairs)), tuple(sorted(aL.right_pairs)), (aL, aR))
    out.propagate_gradings()
    return out


def matched_chord_terms(pmc, rev, rpm, chord: Chord):
    """Basic pairs (a, a_o) pairing a chord completion on the circle with
    the matching completion on the reverse, complementary at both ends."""
    s, t = chord.start, chord.end
    ps, pt = pmc.pair_of(s), pmc.pair_of(t)
    if ps == pt:
        return
    ro_s, ro_t = reverse_point(pmc, t), reverse_point(pmc, s)
    for aL in alg.completions(pmc, [(s, t)]):
        comp = [p for p in range(pmc.n_pairs) if p not in aL.left_pairs]
        horiz_o = [rpm[p] for p in comp if p != pt]
        aR = StrandsGenerator(rev, [(ro_s, ro_t)], horiz_o)
        yield aL, aR


# ---------------------------------------------------------------------------
# Arc-slide combinatorics: transports, restricted supports, idempotent partners


class SlideContext:
    """Precomputed bookkeeping for one arc-slide."""

    def __init__(self, slide: ArcSlide):
        self.slide = slide
        src = self.src = slide.source
        tgt = self.tgt = slide.target
        self.rev_tgt, rpm = alg.reversal(tgt)  # pairs of Z' -> pairs of -Z'
        # source point -> target point, the sliding foot b1 to the new foot b1'
        forward = {**slide.point_map, slide.b1: slide.b1_new}
        self.sigma = Chord(min(slide.b1, slide.c1), max(slide.b1, slide.c1))
        self.c_span = Chord(min(slide.c1, slide.c2), max(slide.c1, slide.c2))
        c2p = slide.point_map[slide.c2]
        chords = all_chords(src)  # the target has as many points
        self.sides = tuple(  # the source side, then the target side
            _Side(sigma, c_foot, span, points, chords,
                  [c for c in chords if foot not in (c.start, c.end)
                   and pmc.pair_of(c.start) != pmc.pair_of(c.end)])
            for pmc, foot, sigma, c_foot, span, points in (
                (src, slide.b1, self.sigma, slide.c1, self.c_span, forward),
                (tgt, slide.b1_new, Chord(min(slide.b1_new, c2p), max(slide.b1_new, c2p)), c2p,
                 _carry(self.c_span, forward), {q: p for p, q in forward.items()})))
        # the right idempotents (pairs of -Z') near-complementary to each
        # left one (pairs of Z), on bit masks (bit p for pair p): its
        # complement (X type), and when it holds c but not b, the complement
        # less b plus c (Y type)
        n, b, c = src.n_pairs, 1 << slide.b_pair, 1 << slide.c_pair
        to_rev = [1 << rpm[q] for q in slide.pair_map]  # pairs of Z -> pairs of -Z'
        self.partner_masks: list[list[int]] = []
        for left in range(1 << n):
            rest = (1 << n) - 1 & ~left
            found = [rest, rest & ~b | c] if left & c and rest & b else [rest]
            self.partner_masks.append([sum(bit for p, bit in enumerate(to_rev) if r >> p & 1)
                                       for r in found])
        # the circle's pair sets, both ways: pair set -> bit mask, and bit
        # mask -> (rank in ``alg.idempotents`` order, sorted pairs), listed
        # by rank, so the subsets of one set come in ``combinations`` order
        ids = alg.idempotents(src)
        self.masks = {pairs: sum(1 << p for p in pairs) for pairs in ids}
        self.subsets = {self.masks[pairs]: (rank, tuple(sorted(pairs)))
                        for rank, pairs in enumerate(ids)}
        # each circle's interned diagrams, read before any construction
        self.known_l, self.known_r = alg.diagrams(src), alg.diagrams(self.rev_tgt)
        # the C-span's intervals as common gaps from 0: interval i is gap
        # i - 1, less one from the foot b1 on; the sliding interval has none
        self.span_gaps = {i - 1 - (slide.b1 <= i) for i in range(self.c_span.start, self.c_span.end)
                          if i != self.sigma.start}

    # A restricted support is the support summed onto the common gaps: the
    # sliding interval is one of the two at the moving foot, so dropping it
    # keeps the other intervals in order, no two sharing a gap.

    def restricted_left(self, a: StrandsGenerator) -> tuple[int, ...]:
        k = self.sigma.start
        return a.supp[:k - 1] + a.supp[k:]

    def restricted_right(self, a_o: StrandsGenerator) -> tuple[int, ...]:
        rs, k = a_o.supp[::-1], self.sides[1].sigma.start  # in target-circle coordinates
        return rs[:k - 1] + rs[k:]

    def partners(self, left: frozenset) -> list[frozenset]:
        """The right idempotents near-complementary to ``left``, X type first."""
        return [alg.pair_set(self.rev_tgt, self.subsets[right][1])
                for right in self.partner_masks[self.masks[left]]]


def _carry(chord: Chord, points: dict) -> Chord:
    """The chord with both ends moved to the other circle by ``points``."""
    a, b = points[chord.start], points[chord.end]
    return Chord(min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# Near-chord enumeration


class NearChord(NamedTuple):
    """A basic differential candidate for an arc-slide bimodule."""

    left: StrandsGenerator
    right: StrandsGenerator
    kind: str
    indeterminate: bool

    def __repr__(self) -> str:
        flag = "?" if self.indeterminate else ""
        return f"NearChord[{self.kind}{flag}]({self.left},{self.right})"


def _pieces(chord: Chord, cut: Chord) -> list[Chord]:
    """Components of the chord with the cut interval removed; cut inside."""
    out = []
    if chord.start < cut.start:
        out.append(Chord(chord.start, cut.start))
    if cut.end < chord.end:
        out.append(Chord(cut.end, chord.end))
    return out


def _join_interval(chord: Chord, s: Chord) -> list[Chord] | None:
    """Moving set carrying the chord's support plus one copy of s.

    Adjacent intervals concatenate; disjoint ones stay separate strands; a
    strictly interior s doubles up as a nested strand of its own.
    """
    if chord.end == s.start:
        return [Chord(chord.start, s.end)]
    if s.end == chord.start:
        return [Chord(s.start, chord.end)]
    if chord.end < s.start or s.end < chord.start:
        return [chord, s]
    if chord.start <= s.start and s.end <= chord.end:
        if chord.start == s.start or chord.end == s.end:
            return None  # shared endpoint: no valid strand pair
        return [chord, s]
    return None


class _Side(NamedTuple):
    """One circle of the slide, in its own coordinates."""

    sigma: Chord  # the sliding interval
    c_foot: int  # the foot of C at sigma: c1, or c2' on the target
    span: Chord  # the C-span
    points: dict  # this circle's points -> the other circle's
    chords: list[Chord]
    restricted: list[Chord]  # chords avoiding the moving foot, ends unmatched


def _moving_configs(ctx: SlideContext):
    """(kind, source moving set, target moving set) for every near-chord
    shape, type by type and the source side first; target chords are in
    target-circle coordinates.  A mirrored type is written once for a side
    ``me`` and swapped into place for the target."""
    slide = ctx.slide
    over = slide.kind == "over"
    src, tgt = ctx.sides
    configs: list[tuple[str, list, list]] = []

    def add(kind, me, mine, theirs):
        configs.append((kind, mine, theirs) if me is src else (kind, theirs, mine))

    # type 1: a restricted chord on both sides
    for xi in src.restricted:
        configs.append(("1", [xi], [_carry(xi, src.points)]))

    # type 2: the sliding interval alone, on either side
    for me in (src, tgt):
        add("2", me, [me.sigma], [])

    # type 3: sigma glued onto a chord touching it at the C-foot
    for me in (src, tgt):
        s = me.sigma
        for xi in me.chords:
            if me.c_foot in (xi.start, xi.end) and (xi.end == s.start or xi.start == s.end):
                add("3", me, _join_interval(xi, s), [_carry(xi, me.points)])

    # type 4: a chord containing sigma, minus sigma on one side
    for me in (src, tgt):
        for xi in me.chords:
            if xi.start <= me.sigma.start and me.sigma.end <= xi.end and xi != me.sigma:
                add("4", me, _pieces(xi, me.sigma), [_carry(xi, me.points)])

    # type 5: two chords, one ending on each foot of C, opposite signs
    c1, c2, b1, b2 = slide.c1, slide.c2, slide.b1, slide.b2
    sigma = ctx.sigma
    for xi in src.restricted:
        if c1 not in (xi.start, xi.end) or b2 in (xi.start, xi.end):
            continue
        sign_c1 = 1 if xi.end == c1 else -1
        for eta in src.chords:
            if b1 in (eta.start, eta.end) or c2 not in (eta.start, eta.end):
                continue
            sign_c2 = 1 if eta.end == c2 else -1
            if sign_c1 == sign_c2:
                continue
            if {xi.start, xi.end} & {eta.start, eta.end}:
                continue
            disjoint = xi.end < eta.start or eta.end < xi.start
            nested = (xi.start < eta.start and eta.end < xi.end
                      or eta.start < xi.start and xi.end < eta.end)
            if over and not (disjoint or nested):
                continue
            # the chord at c1 must approach it away from the sliding interval
            if xi.start <= sigma.start and sigma.end <= xi.end:
                continue
            configs.append(("5", [xi, eta], [_carry(xi, src.points), _carry(eta, src.points)]))

    # type 6: sigma glued on one side, the other side's sigma removed
    for me, other in ((src, tgt), (tgt, src)):
        there = other.sigma
        for xi in me.restricted:
            xt = _carry(xi, me.points)
            if not (xt.start <= there.start and there.end <= xt.end):
                continue
            if xt.start < there.start and there.end < xt.end:
                continue  # sigma interior: not this type
            if over and not (xi.end <= me.sigma.start or me.sigma.end <= xi.start):
                continue
            join = _join_interval(xi, me.sigma)
            if join is not None:
                add("6", me, join, _pieces(xt, there))

    if over:
        # type 7: the C-span on both sides, broken once on one side
        for me in (src, tgt):
            span, span_there = me.span, [_carry(me.span, me.points)]
            for w in range(span.start + 1, span.end):
                add("7", me, [Chord(span.start, w), Chord(w, span.end)], span_there)
        # type 8: the C-span plus a disjoint or strictly nested restricted chord
        span, span_t = src.span, tgt.span
        for xi in src.restricted:
            if {xi.start, xi.end} & {span.start, span.end}:
                continue
            disjoint = xi.end < span.start or span.end < xi.start
            nested = span.start < xi.start and xi.end < span.end
            around = xi.start < span.start and span.end < xi.end
            if not (disjoint or nested or around):
                continue
            configs.append(("8", [span, xi], [span_t, _carry(xi, src.points)]))

    return configs


def _complete(ctx: SlideContext, src_chords, tgt_chords):
    """All horizontal completions with near-complementary ends, by left
    completion and then right completion, on pair-set bit masks."""
    src, rev, table = ctx.src, ctx.rev_tgt, ctx.subsets
    known_l, known_r = ctx.known_l, ctx.known_r
    top = ctx.tgt.n_points + 1  # reverse_point(tgt, p) is top - p
    moving_l = tuple(sorted((c.start, c.end) for c in src_chords))
    moving_r = tuple(sorted((top - c.end, top - c.start) for c in tgt_chords))
    try:
        bare_l = known_l.get((moving_l, ())) or StrandsGenerator(src, moving_l, ())
        bare_r = known_r.get((moving_r, ())) or StrandsGenerator(rev, moving_r, ())
    except ValueError:
        return
    if ctx.restricted_left(bare_l) != ctx.restricted_right(bare_r):
        return
    masks, partners = ctx.masks, ctx.partner_masks
    l_in, l_out = masks[bare_l.left_pairs], masks[bare_l.right_pairs]
    r_in, r_out = masks[bare_r.left_pairs], masks[bare_r.right_pairs]
    taken = l_in | l_out
    # a right completion is fixed by its left idempotent, one of the left
    # completion's partners; its horizontals avoid bare_r's pairs
    for hl, (_, hl_pairs) in table.items():
        if hl & taken:
            continue
        ends = partners[l_out | hl]
        found = [table[hr] for right in partners[l_in | hl]
                 if not r_in & ~right and not (hr := right & ~r_in) & r_out and r_out | hr in ends]
        if not found:
            continue
        aL = known_l.get((moving_l, hl_pairs)) or StrandsGenerator(src, moving_l, hl_pairs)
        if len(found) > 1:
            found.sort()
        for _, hr_pairs in found:
            yield aL, known_r.get((moving_r, hr_pairs)) or StrandsGenerator(rev, moving_r, hr_pairs)


def _is_indeterminate(ctx: SlideContext, kind: str, aL) -> bool:
    if ctx.slide.kind == "under":
        return False
    if kind in ("7", "8"):
        return True
    span_gaps = ctx.span_gaps
    rl = ctx.restricted_left(aL)
    covered = {g for g, m in enumerate(rl) if m}
    if kind == "3":
        return covered == span_gaps
    if kind == "4" and span_gaps <= covered:
        # the restricted multiplicity jumps at c1 or c2: the gaps on either
        # side of a source point p != b1 are padded[k] and padded[k + 1]
        padded, b1 = (0, *rl, 0), ctx.slide.b1
        return any(padded[k] != padded[k + 1]
                   for k in (p - 1 - (b1 < p) for p in (ctx.slide.c1, ctx.slide.c2)))
    return False


def enumerate_near_chords(slide: ArcSlide | SlideContext) -> list[NearChord]:
    """The syntactic near-chord list for the slide, each flagged
    determinate or indeterminate.  A near-chord that two configurations
    reach raises, naming the slide and both kinds.  Given the slide's
    context, it uses that one instead of building another."""
    ctx = slide if isinstance(slide, SlideContext) else SlideContext(slide)
    seen: dict = {}  # left.id << 32 | right.id -> the near-chord
    for kind, src_chords, tgt_chords in _moving_configs(ctx):
        for aL, aR in _complete(ctx, src_chords, tgt_chords):
            key = aL.id << 32 | aR.id
            first = seen.get(key)
            if first is not None:
                raise StructureError(f"near-chord ({aL},{aR}) of {ctx.slide!r} is reached "
                                     f"as kind {first.kind} and as kind {kind}")
            seen[key] = NearChord(aL, aR, kind, _is_indeterminate(ctx, kind, aL))
    return sorted(seen.values(), key=lambda nc: (nc.left.moving, nc.left.horizontals,
                                                 nc.right.moving, nc.right.horizontals))


# ---------------------------------------------------------------------------
# The arc-slide bimodule


def slide_generators(ctx: SlideContext):
    """All near-complementary idempotent pairs: every X type, then every Y."""
    lefts = alg.idempotents(ctx.src)
    return ([(left, ctx.partners(left)[0]) for left in lefts]
            + [(left, right) for left in lefts for right in ctx.partners(left)[1:]])


_slide_dd_cache: dict = {}


def arcslide_dd(slide: ArcSlide) -> TypeDStructure:
    """The bimodule of an arc-slide over its two boundary algebras.

    Its differential is the solution of the slide's structural equation
    (``_slide_terms``), which is d^2 = 0 for the returned structure: an
    under-slide has no unknowns, so the equation only checks it, and an
    over-slide's indeterminate terms are pinned by the basic choice on the
    source side and the equation's unique solution over F2.
    """
    cache_key = (slide.source, slide.b1, slide.c1)
    if cache_key in _slide_dd_cache:
        return _slide_dd_cache[cache_key]
    out = _arcslide_dd_uncached(slide)
    _slide_dd_cache[cache_key] = out
    return out


def _arcslide_dd_uncached(slide: ArcSlide) -> TypeDStructure:
    ctx = SlideContext(slide)
    return arcslide_dd_on(ctx, enumerate_near_chords(ctx))


def arcslide_dd_on(ctx: SlideContext, chords) -> TypeDStructure:
    """The slide's bimodule on its near-chords ``chords``, uncached."""
    slide = ctx.slide
    out = TypeDStructure((AlgebraFactor(slide.source), AlgebraFactor(ctx.rev_tgt)),
                         name=f"DD(slide {slide.b1} over {slide.c1})")
    for left, right in slide_generators(ctx):
        out.add_generator((tuple(sorted(left)), tuple(sorted(right))), (left, right))

    key_of = {idem: key for key, idem in out.idem.items()}
    for nc in _slide_terms(ctx, chords):
        src_key = key_of[nc.left.left_pairs, nc.right.left_pairs]
        tgt_key = key_of[nc.left.right_pairs, nc.right.right_pairs]
        out.add_arrow(src_key, tgt_key, (nc.left, nc.right))
    out.propagate_gradings()
    # no loop may reduce to a bare lambda power
    if out.gradings.has_pure_lambda_relation():
        raise StructureError(f"the grading set of {slide!r} has a pure lambda relation")
    return out


_MISSING = object()  # a product not yet in the cache


def _slide_terms(ctx, chords):
    """The differential terms of a slide: the one solution of its
    structural equation dA + A*A = 0, which is d^2 = 0 of the bimodule.

    The determinate near-chords and the basic choice (the sigma-extended
    indeterminates that cover the sliding interval on the source side) are
    the base B, labelled 0; the other indeterminates are the unknowns X_i,
    labelled i + 1.  One pass expands d(B + sum X) + (B + sum X)^2: the
    terms of dc, and of each product c1*c2 that survives (c1 ends where c2
    starts), are toggled into the bucket named by the union of their
    labels.  Bucket 0 is the constant dB + B*B; bucket i + 1 is X_i's row,
    X_i*X_i included, as x_i^2 = x_i over F2; the cross bucket (i, j) is
    X_i*X_j + X_j*X_i, which must come out empty.  A coefficient's
    idempotents fix its generator pair, so a term is keyed by its entries'
    ids, ``left.id << 32 | right.id``.  Products are read from the product
    cache, ``multiply_basic`` making those it lacks.  An under-slide has no
    unknowns, so its constant must be empty.
    """
    determinate = [nc for nc in chords if not nc.indeterminate]
    chosen3 = [nc for nc in chords
               if nc.indeterminate and nc.kind == "3" and nc.left.supp[ctx.sigma.start - 1]]
    unknowns = [nc for nc in chords if nc.indeterminate and nc.kind != "3"]
    labelled = [(nc.left, nc.right, 0) for nc in determinate + chosen3]
    labelled += [(nc.left, nc.right, i) for i, nc in enumerate(unknowns, start=1)]
    starting: dict = {}  # the left idempotents -> (left.id, right.id, left, right, label)
    for a, b, label in labelled:
        starting.setdefault((a.left_pairs, b.left_pairs), []).append((a.id, b.id, a, b, label))

    get, multiply = alg.cached_products().get, alg.multiply_basic
    differential = alg.differential_basic
    # by label: the terms toggled into it an odd number of times
    buckets = [set() for _ in range(len(unknowns) + 1)]
    cross: dict = {}  # two unknowns' labels, in order -> their cross bucket
    for a1, b1, l1 in labelled:
        mine = buckets[l1]
        ka, kb = a1.id << 32, b1.id << 32
        # the terms of dc are distinct, so toggling each toggles them all
        mine.symmetric_difference_update([t.id << 32 | b1.id for t in differential(a1)])
        mine.symmetric_difference_update([ka | t.id for t in differential(b1)])
        for ida, idb, a2, b2, l2 in starting.get((a1.right_pairs, b1.right_pairs), ()):
            pa = get(ka | ida, _MISSING)
            if pa is _MISSING:
                pa = multiply(a1, a2)
            if pa is None:
                continue
            pb = get(kb | idb, _MISSING)
            if pb is _MISSING:
                pb = multiply(b1, b2)
            if pb is None:
                continue
            if l1 == l2 or not l2:
                terms = mine
            elif not l1:
                terms = buckets[l2]
            else:
                terms = cross.setdefault((l1, l2) if l1 < l2 else (l2, l1), set())
            term = pa.id << 32 | pb.id
            if term in terms:
                terms.remove(term)
            else:
                terms.add(term)
    if any(cross.values()):
        raise StructureError(
            f"structural equation of {ctx.slide!r} has a nonzero cross term")
    values = _solve_f2(buckets[1:], buckets[0], ctx.slide)
    return determinate + chosen3 + [nc for nc, bit in zip(unknowns, values) if bit]


def _solve_f2(rows: list[set], target: set, slide: ArcSlide) -> list[int]:
    """The solution of sum_i c_i * rows[i] = target over F2, each row the
    set of its nonzero entries.

    Raises, naming the slide, unless the solution exists and is unique;
    so any entry of a row can be its pivot.
    """
    rows = [set(r) for r in rows]
    target = set(target)
    n = len(rows)
    combos = [{i} for i in range(n)]
    pivots: list = []
    for i in range(n):
        if not rows[i]:
            continue
        piv = next(iter(rows[i]))
        for j in range(n):
            if j != i and piv in rows[j]:
                rows[j] ^= rows[i]
                combos[j] ^= combos[i]
        pivots.append((piv, i))
    values = [0] * n
    for piv, i in pivots:
        if piv in target:
            target ^= rows[i]
            for k in combos[i]:
                values[k] ^= 1
    if target:
        raise StructureError(f"structural equation of {slide!r} is unsatisfiable")
    if len(pivots) < n:
        raise StructureError(f"structural equation of {slide!r} has a "
                             f"{n - len(pivots)}-dimensional solution kernel")
    return values
