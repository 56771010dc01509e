from collections import Counter
from functools import partial

import pytest

import hfhat.algebra as alg
from hfhat.homalg import cancel, mor_against_bimodule, mor_complex, truncate
from hfhat.manifolds import cfd_zero_framed_handlebody
from hfhat.pmc import (ArcSlide, Chord, all_arcslides, all_chords, antipodal_pmc, reverse_pmc,
                       split_pmc)
from hfhat.slides import (
    SlideContext,
    arcslide_dd,
    dd_identity,
    enumerate_near_chords,
)

from module_checks import homology_rank, modules_isomorphic
from near_diagonal import (
    dischords,
    grading_minus_one_scan,
    idem_type,
    near_diagonal_grading,
    near_diagonal_pairs,
)
from shared_values import assert_one_object_per_value
from slide_oracles import over_slide_terms_all_pairs, slide_bimodule
from summand_maps import summand_restriction

Z1 = split_pmc(1)
Z2 = split_pmc(2)
A2 = antipodal_pmc(2)
GENUS2_CIRCLES = (Z2, A2)


def test_dd_identity_generator_counts():
    dd1 = dd_identity(Z1)
    assert len(dd1.generators) == 4
    weight0 = [g for g in dd1.generators if len(dd1.idem[g][0]) == 1]
    assert len(weight0) == 2


def test_dd_identity_rank_as_one_sided_module():
    dd = dd_identity(Z1)
    rank = 0
    for g in dd.generators:
        if len(dd.idem[g][0]) != Z1.genus:
            continue
        for c in alg.basis(reverse_pmc(Z1), 0):
            if c.left_pairs == dd.idem[g][1]:
                rank += 1
    assert rank == 8


def test_dd_identity_d_squared_genus_two():
    for pmc in GENUS2_CIRCLES:
        assert dd_identity(pmc).verify_d_squared()


def test_near_chord_enumeration_matches_grading_scan():
    for pmc in (Z1,) + GENUS2_CIRCLES:
        for slide in all_arcslides(pmc):
            enum = {(c.left, c.right) for c in enumerate_near_chords(slide)}
            scan = set(grading_minus_one_scan(slide))
            assert enum == scan, (pmc.pairs, slide.b1, slide.c1)


def test_near_chords_have_grading_minus_one():
    for slide in all_arcslides(Z2):
        for chord in enumerate_near_chords(slide):
            assert near_diagonal_grading(slide, chord.left, chord.right) == -1


def test_near_chords_lie_in_near_diagonal_subalgebra():
    for slide in list(all_arcslides(Z2))[:4]:
        ctx = SlideContext(slide)
        for chord in enumerate_near_chords(slide):
            assert ctx.restricted_left(chord.left) == ctx.restricted_right(chord.right)


def test_short_near_chords_present():
    for slide in all_arcslides(Z2):
        ctx = SlideContext(slide)
        found_sigma = False
        for chord in enumerate_near_chords(slide):
            if chord.kind == "2":
                found_sigma = True
        assert found_sigma


def test_under_slides_have_no_indeterminates():
    for pmc in GENUS2_CIRCLES:
        for slide in all_arcslides(pmc):
            if slide.kind == "under":
                assert not any(c.indeterminate for c in enumerate_near_chords(slide))


def test_dischord_gradings():
    for slide in all_arcslides(Z2):
        expected = 0 if slide.kind == "over" else -2
        for left, right in dischords(slide):
            assert near_diagonal_grading(slide, left, right) == expected


def test_near_diagonal_grading_additive_under_products():
    from hfhat.homalg import coef_multiply

    slide = ArcSlide(Z2, 3, 2)
    pairs = list(near_diagonal_pairs(slide))
    by_left = {}
    for aL, aR in pairs:
        by_left.setdefault((aL.left_pairs, aR.left_pairs), []).append((aL, aR))
    checked = 0
    for aL, aR in pairs:
        for bL, bR in by_left.get((aL.right_pairs, aR.right_pairs), ()):
            prod = coef_multiply(False, (aL, aR), (bL, bR))
            if prod is None:
                continue
            checked += 1
            assert (
                near_diagonal_grading(slide, aL, aR)
                + near_diagonal_grading(slide, bL, bR)
                == near_diagonal_grading(slide, *prod)
            )
    assert checked > 100


def test_arcslide_bimodules_genus_two_catalog():
    for pmc in GENUS2_CIRCLES:
        for slide in all_arcslides(pmc):
            dd = arcslide_dd(slide)  # verifies the structural equation itself
            assert dd.verify_d_squared()
            assert not dd.gradings.has_pure_lambda_relation()
            near = {(c.left, c.right) for c in enumerate_near_chords(slide)}
            bad = set(dischords(slide))
            for x in dd.generators:
                for coefs in dd.delta[x].values():
                    for c in coefs:
                        assert c in near and c not in bad


def test_genus_one_slide_bimodules():
    for slide in all_arcslides(Z1):
        dd = arcslide_dd(slide)
        assert dd.verify_d_squared()
        assert len(dd.generators) == 5  # 4 complementary + 1 sub-complementary


def _reachable_circles(start):
    circles, todo = {start}, [start]
    while todo:
        for slide in all_arcslides(todo.pop()):
            if slide.target not in circles:
                circles.add(slide.target)
                todo.append(slide.target)
    return sorted(circles, key=repr)


def test_catalogue_bimodules_share_pair_sets_supports_and_products(monkeypatch):
    # every slide bimodule of the circles reachable from split_pmc(1) and
    # split_pmc(2), built cold, and the two split identity bimodules
    monkeypatch.setattr("hfhat.slides._slide_dd_cache", {})
    monkeypatch.setattr(alg, "_mul_cache", {})
    multiplied = set()
    multiply = alg.multiply_basic

    def recording(a, b):
        multiplied.add((a, b))
        return multiply(a, b)

    monkeypatch.setattr(alg, "multiply_basic", recording)
    contexts = []  # the slide of each SlideContext built

    class CountedContext(SlideContext):
        def __init__(self, slide):
            contexts.append(slide)
            super().__init__(slide)

    monkeypatch.setattr("hfhat.slides.SlideContext", CountedContext)
    modules = [dd_identity(Z1), dd_identity(Z2)]
    for start in (Z1, Z2):
        contexts.clear()
        modules += [arcslide_dd(s) for pmc in _reachable_circles(start) for s in all_arcslides(pmc)]
    assert len(modules) == 2 + 6 + 294
    # one context per slide: the near-chord enumeration reads the bimodule's
    assert len(contexts) == len({(s.source, s.b1, s.c1) for s in contexts}) == 294
    diagrams, idempotents = [], []
    for dd in modules:
        for x in dd.generators:
            idempotents += zip(dd.factors, dd.idem[x])
            diagrams += [a for coefs in dd.delta[x].values() for c in coefs for a in c]
    assert_one_object_per_value(diagrams, idempotents)
    assert multiplied and len(alg._mul_cache) == len(multiplied)
    assert len({id(d) for d in alg._diff_cache.values() if not d}) == 1


def test_over_slide_gauge_independence():
    # two basic choices give homotopy equivalent bimodules: equal homology
    # of the morphism complex against the genus-matched handlebody module
    slide = ArcSlide(Z2, 5, 4)
    h = cfd_zero_framed_handlebody(2)
    target_side = partial(over_slide_terms_all_pairs, basic_choice_side="target")
    ranks = []
    for dd in (arcslide_dd(slide), slide_bimodule(slide, target_side)):
        module = cancel(mor_against_bimodule(dd, h, seam=0).relabel())
        ranks.append(homology_rank(mor_complex(module, module)))
    assert ranks[0] == ranks[1]


def test_stability_under_stabilized_slide():
    # a genus-1 slide and its torus-stabilized genus-2 extension induce the
    # same bimodule after restricting to a fixed idempotent on the new
    # summand and killing everything whose support touches it
    from hfhat.algebra import StrandsGenerator
    from hfhat.homalg import TypeDStructure

    small = ArcSlide(Z1, 2, 1)
    big = ArcSlide(Z2, 2, 1)
    dd_small = arcslide_dd(small)
    dd_big = arcslide_dd(big)
    rev_big = reverse_pmc(big.target)
    rev_small = reverse_pmc(small.target)
    base_left = frozenset({Z2.pair_of(5)})
    # on the reversed target the new summand sits in the first block, and
    # the complementary torus pair must be occupied there
    base_right = frozenset({rev_big.pair_of(1)})

    def restrict_left(a):
        return summand_restriction(a, 4, Z2, Z1, base_left)

    def restrict_right(b):
        if any(s <= 4 or e <= 4 for s, e in b.moving):
            return None
        inner = [h for h in b.horizontals if rev_big.pairs[h][0] > 4]
        outer = frozenset(h for h in b.horizontals if rev_big.pairs[h][0] <= 4)
        if outer != base_right:
            return None
        moving = [(s - 4, e - 4) for s, e in b.moving]
        horiz = [rev_small.pair_of(rev_big.pairs[h][0] - 4) for h in inner]
        return StrandsGenerator(rev_small, moving, sorted(horiz))

    induced = TypeDStructure((Z1, rev_small))
    keep = {}
    for g in dd_big.generators:
        left, right = dd_big.idem[g]
        if not (base_left <= left and base_right <= right):
            continue
        new_left = frozenset(Z1.pair_of(Z2.pairs[p][0]) for p in left - base_left)
        new_right = frozenset(
            rev_small.pair_of(rev_big.pairs[p][0] - 4) for p in right - base_right
        )
        keep[g] = (new_left, new_right)
        induced.add_generator(g, (new_left, new_right))
    for g in keep:
        for g2, coefs in dd_big.delta[g].items():
            if g2 not in keep:
                continue
            for aL, aR in coefs:
                qa, qb = restrict_left(aL), restrict_right(aR)
                if qa is not None and qb is not None:
                    induced.add_arrow(g, g2, (qa, qb))
    assert len(induced.generators) == len(dd_small.generators)
    assert induced.verify_d_squared()
    assert modules_isomorphic(induced, dd_small)


def test_unsatisfiable_trap_is_exercised():
    # the solver is exercised by every over-slide; a clean run is the trap
    slide = ArcSlide(Z2, 1, 2)
    dd = arcslide_dd(slide)
    assert dd.verify_d_squared()


def test_over_slide_without_a_lambda_free_solution_raises(monkeypatch):
    from hfhat.grading import Gradings
    from hfhat.homalg import StructureError
    from hfhat.slides import _arcslide_dd_uncached

    monkeypatch.setattr(Gradings, "has_pure_lambda_relation", lambda self: True)
    # one raise serves both kinds, and it names the slide
    for slide, kind in ((ArcSlide(Z2, 1, 2), "over"), (ArcSlide(Z2, 2, 1), "under")):
        assert slide.kind == kind
        with pytest.raises(StructureError, match="pure lambda relation") as err:
            _arcslide_dd_uncached(slide)
        assert repr(slide) in str(err.value)


class _KeepsNothing(dict):
    """A product cache that stores nothing, so every product the
    structural equation reads is a ``multiply_basic`` call."""

    def __setitem__(self, key, value):
        pass


def _route_products(monkeypatch, product):
    """Send every basic product through ``product(a, b)``, uncached: the
    equation reads the product cache and calls ``multiply_basic`` on a
    miss, left entries first and right entries only if the left product
    survives, as ``homalg.coef_multiply`` does."""
    monkeypatch.setattr(alg, "_mul_cache", _KeepsNothing())
    monkeypatch.setattr(alg, "multiply_basic", product)


def _entry_pairs(chords):
    """How often each ordered pair of basic entries, left with left or
    right with right, is multiplied over the composable pairs of chords."""
    pairs = Counter()
    for c1 in chords:
        for c2 in chords:
            if (c1.left.right_pairs, c1.right.right_pairs) == (c2.left.left_pairs,
                                                                c2.right.left_pairs):
                pairs.update([(c1.left, c2.left), (c1.right, c2.right)])
    return pairs


def _lone_pairs(chords, unknowns, both_ways):
    """Pairs (x, y) of distinct unknowns, x ending where y starts (and y
    where x starts if ``both_ways``), whose entry pairs each occur in one
    composable pair of chords only, so forcing them forces x*y alone."""
    once = _entry_pairs(chords)

    def lone(c1, c2):
        return (once[c1[0], c2[0]] == 1 and once[c1[1], c2[1]] == 1
                and c1[0].right_pairs == c2[0].left_pairs
                and c1[1].right_pairs == c2[1].left_pairs)

    return [(x, y) for x in unknowns for y in unknowns
            if x != y and lone(x, y) and (not both_ways or lone(y, x))]


def test_a_nonzero_cross_term_of_the_over_slide_equation_raises(monkeypatch):
    from hfhat.homalg import StructureError
    from hfhat.slides import _arcslide_dd_uncached

    slide = ArcSlide(Z2, 1, 2)
    assert slide.kind == "over"
    chords = enumerate_near_chords(slide)
    unknowns = [(nc.left, nc.right) for nc in chords if nc.indeterminate and nc.kind != "3"]
    x, y = _lone_pairs(chords, unknowns, both_ways=False)[0]
    multiply = alg.multiply_basic
    forced = []

    def one_cross_term(a, b):  # x*y becomes x, any nonzero term
        if (a, b) == (x[0], y[0]):
            forced.append((x, y))
            return x[0]
        if (a, b) == (x[1], y[1]):
            return x[1]
        return multiply(a, b)

    _route_products(monkeypatch, one_cross_term)
    with pytest.raises(StructureError, match="nonzero cross term") as err:
        _arcslide_dd_uncached(slide)
    assert repr(slide) in str(err.value)
    assert len(forced) == 1


def test_cross_terms_of_the_over_slide_equation_cancel_in_pairs(monkeypatch):
    from hfhat.slides import SlideContext, _slide_terms

    slide = ArcSlide(Z2, 1, 2)
    ctx = SlideContext(slide)
    chords = enumerate_near_chords(slide)
    expected = _slide_terms(ctx, chords)
    unknowns = [(nc.left, nc.right) for nc in chords if nc.indeterminate and nc.kind != "3"]
    # a pair composable both ways, so both x*y and y*x enter the equation
    pair = _lone_pairs(chords, unknowns, both_ways=True)[0]
    term = min(pair, key=repr)  # the same nonzero term both ways
    forced_entries = {}
    for c1, c2 in (pair, pair[::-1]):
        forced_entries[c1[0], c2[0]] = term[0]
        forced_entries[c1[1], c2[1]] = term[1]
    multiply = alg.multiply_basic
    forced = []

    def cancelling(a, b):
        if (a, b) in forced_entries:
            if any((a, b) == (c1[0], c2[0]) for c1, c2 in (pair, pair[::-1])):
                forced.append((a, b))
            return forced_entries[a, b]
        return multiply(a, b)

    _route_products(monkeypatch, cancelling)
    assert _slide_terms(ctx, chords) == expected
    assert len(forced) == 2


@pytest.mark.parametrize("b1, c1, kind, raised, same", [(3, 4, "under", 116, 0),
                                                         (5, 4, "over", 122, 12)])
def test_each_dropped_near_chord_fails_the_structural_equation(b1, c1, kind, raised, same,
                                                               monkeypatch):
    # the structural equation is the bimodule's one d^2 check: without a
    # determinate near-chord it is unsatisfiable, and without an
    # indeterminate one it fails or gives the same bimodule
    import hfhat.slides as slides
    from hfhat.homalg import StructureError
    from hfhat.slides import _arcslide_dd_uncached

    slide = ArcSlide(Z2, b1, c1)
    assert slide.kind == kind
    full = _arcslide_dd_uncached(slide).delta
    chords = enumerate_near_chords(slide)
    assert len(chords) == raised + same
    outcomes = Counter()
    for i, dropped in enumerate(chords):
        monkeypatch.setattr(slides, "enumerate_near_chords",
                            lambda s, i=i: chords[:i] + chords[i + 1:])
        try:
            delta = _arcslide_dd_uncached(slide).delta
        except StructureError as err:
            assert f"structural equation of {slide!r}" in str(err)
            outcomes["raised"] += 1
            continue
        assert dropped.indeterminate and dropped.kind in "3478"
        assert delta == full
        outcomes["same"] += 1
    assert outcomes == Counter(raised=raised, same=same)


def test_solve_f2_returns_the_unique_solution_or_raises():
    from hfhat.homalg import StructureError
    from hfhat.slides import _solve_f2

    slide = ArcSlide(Z2, 1, 2)
    rows = [{"a", "b"}, {"b"}, {"c"}]
    assert _solve_f2(rows, {"a", "c"}, slide) == [1, 1, 1]
    assert _solve_f2(rows, {"b"}, slide) == [0, 1, 0]
    assert _solve_f2(rows, set(), slide) == [0, 0, 0]
    with pytest.raises(StructureError, match="1-dimensional solution kernel") as err:
        _solve_f2(rows + [{"a"}], {"a"}, slide)
    assert repr(slide) in str(err.value)
    with pytest.raises(StructureError, match="unsatisfiable") as err:
        _solve_f2(rows, {"d"}, slide)
    assert repr(slide) in str(err.value)


def test_genus_three_over_slides_have_one_solution():
    # _solve_f2 raises unless each over-slide equation has exactly one
    # solution; this pins that past the genus-2 catalogue
    over = [s for s in all_arcslides(split_pmc(3)) if s.kind == "over"]
    assert len(over) == 10
    for slide in over:
        dd = arcslide_dd(slide)
        for module in (dd, truncate(dd)):
            assert len(module.generators) == 80  # 64 complementary + 16 Y-type
            assert module.arrow_count()


def _arrow_set(module):
    return {(x, y, c) for x, row in module.delta.items() for y, coefs in row.items() for c in coefs}


def test_truncated_slide_bimodules_are_projections_of_the_full_ones():
    # the kept part of each full slide bimodule against the bimodule built
    # over the truncated algebras: kept near-chords, the over-slide equation
    # solved there by the all-pairs oracle, gradings propagated over its own
    # arrows.  Reps and relation lists may differ element by element, so
    # cosets are compared.
    source_side = partial(over_slide_terms_all_pairs, basic_choice_side="source")
    genus3_over = [s for s in all_arcslides(split_pmc(3)) if s.kind == "over"]
    catalogue = [s for c in _reachable_circles(Z2) for s in all_arcslides(c)]
    families = [list(all_arcslides(Z1)), catalogue, list(all_arcslides(A2)), genus3_over]
    assert [len(f) for f in families] == [6, 294, 14, 10]
    for slide in (s for family in families for s in family):
        got = truncate(arcslide_dd(slide))
        want = slide_bimodule(slide, source_side, truncated=True)
        assert ((got.factors, got.truncated, got.generators, got.idem)
                == (want.factors, want.truncated, want.generators, want.idem))
        assert _arrow_set(got) == _arrow_set(want)
        mine, theirs = got.gradings, want.gradings
        assert mine.lattice.lambda_torsion2 == theirs.lattice.lambda_torsion2
        for a, b in ((mine, theirs), (theirs, mine)):
            assert all(b.lattice.contains(r) for r in a.relations)
        for x in got.generators:
            assert mine.lattice.contains(theirs.reps[x].inverse() * mine.reps[x])


# ---------------------------------------------------------------------------
# All-pairs oracles for the indexed completion and equation assembly


def _complete_all_pairs(ctx, src_chords, tgt_chords):
    """Every left completion tested against every right completion."""
    from itertools import combinations

    from hfhat.algebra import StrandsGenerator
    from hfhat.pmc import Chord, reverse_point

    src, rev = ctx.src, ctx.rev_tgt
    moving_l = [(c.start, c.end) if isinstance(c, Chord) else c for c in src_chords]
    moving_r = [
        (reverse_point(ctx.tgt, c.end if isinstance(c, Chord) else c[1]),
         reverse_point(ctx.tgt, c.start if isinstance(c, Chord) else c[0]))
        for c in tgt_chords
    ]
    try:
        bare_l = StrandsGenerator(src, moving_l, ())
        bare_r = StrandsGenerator(rev, moving_r, ())
    except ValueError:
        return
    if ctx.restricted_left(bare_l) != ctx.restricted_right(bare_r):
        return
    free_l = [h for h in range(src.n_pairs)
              if h not in bare_l.left_pairs and h not in bare_l.right_pairs]
    free_r = [h for h in range(rev.n_pairs)
              if h not in bare_r.left_pairs and h not in bare_r.right_pairs]
    rights = [StrandsGenerator(rev, moving_r, hr)
              for size_r in range(len(free_r) + 1)
              for hr in combinations(free_r, size_r)]
    for size_l in range(len(free_l) + 1):
        for hl in combinations(free_l, size_l):
            aL = StrandsGenerator(src, moving_l, hl)
            for aR in rights:
                if idem_type(ctx, aL.left_pairs, aR.left_pairs) is None:
                    continue
                if idem_type(ctx, aL.right_pairs, aR.right_pairs) is None:
                    continue
                yield aL, aR


ORACLE_SLIDES = [(name, slide) for name, pmc in (("g1", Z1), ("split", Z2), ("antipodal", A2))
                 for slide in all_arcslides(pmc)]


def _chord_rows(chords):
    return [(nc.left, nc.right, nc.kind, nc.indeterminate) for nc in chords]


def _bimodule_rows(module):
    """Generators, delta rows in order, reps in insertion order, relations."""
    delta = [(x, [(y, sorted(coefs, key=repr)) for y, coefs in module.delta[x].items()])
             for x in module.generators]
    gradings = module.gradings
    return (delta, list(gradings.reps.items()), gradings.relations,
            gradings.lattice.lambda_torsion2)


@pytest.mark.parametrize("name, slide", ORACLE_SLIDES,
                         ids=[f"{name}-{s.b1}-{s.c1}" for name, s in ORACLE_SLIDES])
def test_indexed_slide_paths_match_the_all_pairs_oracle(name, slide, monkeypatch):
    import hfhat.slides as slides

    ctx = SlideContext(slide)
    for _, src_chords, tgt_chords in slides._moving_configs(ctx):
        assert (list(slides._complete(ctx, src_chords, tgt_chords))
                == list(_complete_all_pairs(ctx, src_chords, tgt_chords)))
    chords = enumerate_near_chords(slide)
    dis = dischords(slide)
    built = slides._arcslide_dd_uncached(slide)

    # the equation multiplies exactly the composable pairs the oracle does:
    # with nothing cached, the same entry products, as often
    multiplied = []
    multiply = alg.multiply_basic

    def recording_multiply(a, b):
        multiplied.append((a, b))
        return multiply(a, b)

    _route_products(monkeypatch, recording_multiply)
    source_side = partial(over_slide_terms_all_pairs, basic_choice_side="source")
    if slide.kind == "over":
        terms = slides._slide_terms(ctx, chords)
        indexed_products = Counter(multiplied)
        multiplied.clear()
        assert source_side(ctx, False, chords) == terms
        assert indexed_products == Counter(multiplied)
    monkeypatch.undo()

    monkeypatch.setattr(slides, "_complete", _complete_all_pairs)
    monkeypatch.setattr(slides, "_slide_terms",
                        lambda ctx, chords: source_side(ctx, False, chords))
    assert _chord_rows(enumerate_near_chords(slide)) == _chord_rows(chords)
    assert dischords(slide) == dis
    assert _bimodule_rows(slides._arcslide_dd_uncached(slide)) == _bimodule_rows(built)


def test_truncated_slide_terms_match_the_all_pairs_oracle():
    # the library solves over the full algebras only; the kept terms of its
    # solution, in order, are the oracle's solution over the truncated
    # algebras, where coef_multiply and coef_differential drop every term
    # that truncation drops
    from hfhat.slides import _slide_terms

    source_side = partial(over_slide_terms_all_pairs, basic_choice_side="source")
    for _, slide in ORACLE_SLIDES:
        ctx = SlideContext(slide)
        chords = enumerate_near_chords(ctx)
        kept = [nc for nc in chords if nc.left.kept and nc.right.kept]
        assert ([nc for nc in _slide_terms(ctx, chords) if nc.left.kept and nc.right.kept]
                == source_side(ctx, True, kept))


# ---------------------------------------------------------------------------
# Hand-built oracles for the rules now read from dd_identity and partners


def _hand_built_self_gluing(pmc, truncated):
    """The earlier cfd_self_gluing: subsets and matched chords by hand."""
    from itertools import combinations

    from hfhat.algebra import StrandsGenerator
    from hfhat.homalg import TypeDStructure
    from hfhat.manifolds import _fuse_pair, self_gluing_circle
    from hfhat.pmc import Chord, reverse_point, reversed_pair_map
    from hfhat.slides import matched_chord_terms

    def pair_under_reversal(rev_pair):
        return pmc.pair_of(reverse_point(pmc, rev.pairs[rev_pair][0]))

    rev = reverse_pmc(pmc)
    big = self_gluing_circle(pmc)
    n = pmc.n_points
    out = TypeDStructure((big,), f"Hsg(g={pmc.genus})", truncated)
    keys = {}
    for size in range(pmc.n_pairs + 1):
        for left in combinations(range(pmc.n_pairs), size):
            rev_pairs = frozenset(big.pair_of(rev.pairs[p][0]) for p in left)
            comp = [q for q in range(pmc.n_pairs)
                    if q not in {pair_under_reversal(p) for p in left}]
            idem = rev_pairs | frozenset(big.pair_of(pmc.pairs[q][0] + n) for q in comp)
            key = tuple(sorted(idem))
            keys[key] = idem
            out.add_generator(key, (idem,))
    rpm_rev = reversed_pair_map(rev)
    for chord in [Chord(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]:
        for aL, aR in matched_chord_terms(rev, pmc, rpm_rev, chord):
            fused = _fuse_pair(big, aL, aR, shift=n)
            src, tgt = tuple(sorted(fused.left_pairs)), tuple(sorted(fused.right_pairs))
            if src in keys and tgt in keys and (fused.kept or not truncated):
                out.add_arrow(src, tgt, (fused,))
    for radius in range(n):
        s, t = n - radius, n + radius + 1
        if s < 1 or t > big.n_points or big.pair_of(s) == big.pair_of(t):
            continue
        free = [h for h in range(big.n_pairs) if h not in (big.pair_of(s), big.pair_of(t))]
        for size in range(len(free) + 1):
            for hs in combinations(free, size):
                a = StrandsGenerator(big, [(s, t)], hs)
                src, tgt = tuple(sorted(a.left_pairs)), tuple(sorted(a.right_pairs))
                if src in keys and tgt in keys and (a.kept or not truncated):
                    out.add_arrow(src, tgt, (a,))
    out.propagate_gradings()
    return out


def _hand_built_pair_to_rev(ctx):
    """Pairs of Z to pairs of -Z', inverted from the map back to Z."""
    slide = ctx.slide
    rpm = alg.reversal(ctx.tgt)[1]
    return {slide.pair_map.index(p): rpm[p] for p in range(ctx.tgt.n_pairs)}


def _hand_built_slide_generators(ctx):
    """The earlier slide_generators: complements, then the Y pairs by hand."""
    from itertools import combinations

    every = range(ctx.src.n_pairs)
    rpm_inv = _hand_built_pair_to_rev(ctx)
    out = []
    for size in range(ctx.src.n_pairs + 1):
        for left in combinations(every, size):
            right = frozenset(p for p in every if p not in left)
            out.append((frozenset(left), frozenset(rpm_inv[p] for p in right)))
    b, c = ctx.slide.b_pair, ctx.slide.c_pair
    rest = [p for p in every if p not in (b, c)]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            right_src = frozenset({c, *(p for p in rest if p not in extra)})
            out.append((frozenset({c, *extra}), frozenset(rpm_inv[p] for p in right_src)))
    return out


def _hand_built_idem_type(ctx, left, right_rev):
    """The earlier idem_type, by intersection and union over Z."""
    pair_from_rev = {v: k for k, v in _hand_built_pair_to_rev(ctx).items()}
    right = frozenset(pair_from_rev[p] for p in right_rev)
    every = frozenset(range(ctx.src.n_pairs))
    b, c = ctx.slide.b_pair, ctx.slide.c_pair
    if not left & right and left | right == every:
        return "CX" if c in left else "XC"
    if left & right == {c} and left | right == every - {b}:
        return "Y"
    return None


def _catalogue_circles():
    """Every circle reachable by slides from the split circles of genus 1 and 2."""
    out = []
    for start in (Z1, Z2):
        seen, todo = {start}, [start]
        while todo:
            for slide in all_arcslides(todo.pop()):
                if slide.target not in seen:
                    seen.add(slide.target)
                    todo.append(slide.target)
        out += sorted(seen, key=repr)
    return out


RULE_CASES = (
    [("self-gluing", pmc, truncated) for pmc in (Z1, Z2, A2) for truncated in (False, True)]
    + [("slides", pmc, None) for pmc in _catalogue_circles()]
)


@pytest.mark.parametrize("rule, pmc, truncated", RULE_CASES,
                         ids=[f"{rule}-{'.'.join(f'{a}{b}' for a, b in pmc.pairs)}-{truncated}"
                              for rule, pmc, truncated in RULE_CASES])
def test_idempotent_rules_match_the_hand_built_oracles(rule, pmc, truncated):
    from itertools import combinations

    from hfhat.manifolds import cfd_self_gluing
    from hfhat.slides import slide_generators

    if rule == "self-gluing":
        new = cfd_self_gluing(pmc)
        new, old = truncate(new) if truncated else new, _hand_built_self_gluing(pmc, truncated)
        assert ((new.name, new.factors, new.truncated, new.generators)
                == (old.name, old.factors, old.truncated, old.generators))
        assert new.idem == old.idem
        for x in old.generators:
            assert list(new.delta[x].items()) == list(old.delta[x].items())
        assert list(new.gradings.reps.items()) == list(old.gradings.reps.items())
        assert new.gradings.relations == old.gradings.relations
        assert new.gradings.lattice.lambda_torsion2 == old.gradings.lattice.lambda_torsion2
        return
    subsets = [frozenset(s) for size in range(pmc.n_pairs + 1)
               for s in combinations(range(pmc.n_pairs), size)]
    for slide in all_arcslides(pmc):
        ctx = SlideContext(slide)
        assert slide_generators(ctx) == _hand_built_slide_generators(ctx)
        for left in subsets:
            for right in subsets:
                assert idem_type(ctx, left, right) == _hand_built_idem_type(ctx, left, right)


# ---------------------------------------------------------------------------
# Oracle for _moving_configs: the near-chord shapes with each mirrored type
# spelled out twice, source loop then target loop, through four point and
# chord transports whose ``fat`` flag maps the moving foot


def _point(ctx, p, fat=False):
    if p == ctx.slide.b1:
        if not fat:
            raise KeyError("the sliding foot has no target point")
        return ctx.slide.b1_new
    return ctx.slide.point_map[p]


def _point_back(ctx, q, fat=False):
    if q == ctx.slide.b1_new:
        if not fat:
            raise KeyError("the new foot has no source point")
        return ctx.slide.b1
    for p, v in ctx.slide.point_map.items():
        if v == q:
            return p
    raise KeyError(q)


def _chord(ctx, c, fat=False):
    a, b = _point(ctx, c.start, fat), _point(ctx, c.end, fat)
    return Chord(min(a, b), max(a, b))


def _chord_back(ctx, c, fat=False):
    a, b = _point_back(ctx, c.start, fat), _point_back(ctx, c.end, fat)
    return Chord(min(a, b), max(a, b))


def _span_gaps_by_count(ctx):
    """The common gaps of the C-span's intervals but the sliding one: the
    source points but b1 up to the interval's start, less one."""
    points = [p for p in range(1, ctx.src.n_points + 1) if p != ctx.slide.b1]
    return {sum(1 for p in points if p <= i) - 1 for i in range(ctx.c_span.start, ctx.c_span.end)
            if i != ctx.sigma.start}


def _moving_configs_side_by_side(ctx):
    from hfhat.slides import _join_interval, _pieces

    slide = ctx.slide
    c2p = _point(ctx, slide.c2)
    sigma, sigma_p = ctx.sigma, Chord(min(slide.b1_new, c2p), max(slide.b1_new, c2p))
    over = slide.kind == "over"
    chords_src, chords_tgt = all_chords(ctx.src), all_chords(ctx.tgt)
    restricted = [c for c in chords_src if slide.b1 not in (c.start, c.end)
                  and ctx.src.pair_of(c.start) != ctx.src.pair_of(c.end)]
    configs = []

    for xi in restricted:
        configs.append(("1", [xi], [_chord(ctx, xi)]))

    configs.append(("2", [sigma], []))
    configs.append(("2", [], [sigma_p]))

    for xi in chords_src:
        if slide.b1 in (xi.start, xi.end):
            continue
        if xi.end == sigma.start or xi.start == sigma.end:
            if slide.c1 in (xi.start, xi.end):
                configs.append(("3", _join_interval(xi, sigma), [_chord(ctx, xi)]))
    for xi_t in chords_tgt:
        if slide.b1_new in (xi_t.start, xi_t.end):
            continue
        if xi_t.end == sigma_p.start or xi_t.start == sigma_p.end:
            if c2p in (xi_t.start, xi_t.end):
                configs.append(("3", [_chord_back(ctx, xi_t)], _join_interval(xi_t, sigma_p)))

    for xi in chords_src:
        if xi.start <= sigma.start and sigma.end <= xi.end and xi != sigma:
            configs.append(("4", _pieces(xi, sigma), [_chord(ctx, xi, fat=True)]))
    for xi_t in chords_tgt:
        if xi_t.start <= sigma_p.start and sigma_p.end <= xi_t.end and xi_t != sigma_p:
            configs.append(("4", [_chord_back(ctx, xi_t, fat=True)], _pieces(xi_t, sigma_p)))

    c1, c2, b1, b2 = slide.c1, slide.c2, slide.b1, slide.b2
    for xi in restricted:
        if c1 not in (xi.start, xi.end) or b2 in (xi.start, xi.end):
            continue
        sign_c1 = 1 if xi.end == c1 else -1
        for eta in chords_src:
            if b1 in (eta.start, eta.end):
                continue
            if c2 not in (eta.start, eta.end):
                continue
            sign_c2 = 1 if eta.end == c2 else -1
            if sign_c1 == sign_c2:
                continue
            if {xi.start, xi.end} & {eta.start, eta.end}:
                continue
            disjoint = xi.end < eta.start or eta.end < xi.start
            nested = (xi.start < eta.start and eta.end < xi.end) or (
                eta.start < xi.start and xi.end < eta.end)
            if over and not (disjoint or nested):
                continue
            if xi.start <= sigma.start and sigma.end <= xi.end:
                continue
            configs.append(("5", [xi, eta], [_chord(ctx, xi), _chord(ctx, eta)]))

    for xi in restricted:
        xt = _chord(ctx, xi)
        if not (xt.start <= sigma_p.start and sigma_p.end <= xt.end):
            continue
        if xt.start < sigma_p.start and sigma_p.end < xt.end:
            continue
        if over and not (xi.end <= sigma.start or sigma.end <= xi.start):
            continue
        join = _join_interval(xi, sigma)
        if join is None:
            continue
        configs.append(("6", join, _pieces(xt, sigma_p)))
    for xi_t in chords_tgt:
        if slide.b1_new in (xi_t.start, xi_t.end):
            continue
        if ctx.tgt.pair_of(xi_t.start) == ctx.tgt.pair_of(xi_t.end):
            continue
        try:
            xs = _chord_back(ctx, xi_t)
        except KeyError:
            continue
        if not (xs.start <= sigma.start and sigma.end <= xs.end):
            continue
        if xs.start < sigma.start and sigma.end < xs.end:
            continue
        if over and not (xi_t.end <= sigma_p.start or sigma_p.end <= xi_t.start):
            continue
        join = _join_interval(xi_t, sigma_p)
        if join is None:
            continue
        configs.append(("6", _pieces(xs, sigma), join))

    if over:
        span, span_t = ctx.c_span, _chord(ctx, ctx.c_span)
        for w in range(span.start + 1, span.end):
            configs.append(("7", [Chord(span.start, w), Chord(w, span.end)], [span_t]))
        for w in range(span_t.start + 1, span_t.end):
            configs.append(("7", [span], [Chord(span_t.start, w), Chord(w, span_t.end)]))
        for xi in restricted:
            if {xi.start, xi.end} & {span.start, span.end}:
                continue
            disjoint = xi.end < span.start or span.end < xi.start
            nested = span.start < xi.start and xi.end < span.end
            around = xi.start < span.start and span.end < xi.end
            if not (disjoint or nested or around):
                continue
            configs.append(("8", [span, xi], [span_t, _chord(ctx, xi)]))
    return configs


def test_near_chords_per_side_match_the_side_by_side_shapes(monkeypatch):
    # kind drives the over-slide basic choice, so the rows are compared in
    # order with kind and the indeterminate flag, not as (left, right) sets
    import hfhat.slides as slides

    circles = [pmc for start in (Z1, Z2, antipodal_pmc(1)) for pmc in _reachable_circles(start)]
    assert len(circles) == 23
    slides_seen = [s for pmc in circles for s in all_arcslides(pmc)]
    for slide in slides_seen:
        ctx = SlideContext(slide)
        assert ctx.span_gaps == _span_gaps_by_count(ctx)
    per_side = [_chord_rows(enumerate_near_chords(s)) for s in slides_seen]
    monkeypatch.setattr(slides, "_moving_configs", _moving_configs_side_by_side)
    assert [_chord_rows(enumerate_near_chords(s)) for s in slides_seen] == per_side


def test_a_near_chord_reached_twice_raises_naming_the_slide_and_both_kinds(monkeypatch):
    import hfhat.slides as slides
    from hfhat.homalg import StructureError

    slide = ArcSlide(Z2, 5, 4)
    ctx = SlideContext(slide)
    configs = slides._moving_configs(ctx)
    kind, src_chords, tgt_chords = next(c for c in configs if any(slides._complete(ctx, *c[1:])))
    again = "7" if kind != "7" else "8"
    monkeypatch.setattr(slides, "_moving_configs",
                        lambda ctx: [*configs, (again, src_chords, tgt_chords)])
    with pytest.raises(StructureError) as err:
        enumerate_near_chords(slide)
    message = str(err.value)
    assert repr(slide) in message
    assert f"kind {kind} and as kind {again}" in message


def _support_jump_points(ctx, restricted):
    """Source points where the restricted support multiplicity jumps, by a
    scan over every source point but b1."""
    points = [p for p in range(1, ctx.src.n_points + 1) if p != ctx.slide.b1]
    jumps = set()
    for k, p in enumerate(points):
        below = restricted[k - 1] if k > 0 else 0
        above = restricted[k] if k < len(restricted) else 0
        if below != above:
            jumps.add(p)
    return jumps


def test_kind_four_flags_match_the_support_jump_scan():
    # a kind-4 near-chord of an over-slide is indeterminate when it covers
    # the C-span and its restricted support jumps at c1 or c2
    genus3_over = [s for s in all_arcslides(split_pmc(3)) if s.kind == "over"]
    catalogue = [s for c in _reachable_circles(Z2) for s in all_arcslides(c)]
    flags = Counter()
    for slide in catalogue + genus3_over:
        ctx = SlideContext(slide)
        span_gaps = _span_gaps_by_count(ctx)
        for nc in enumerate_near_chords(ctx):
            if nc.kind != "4":
                continue
            rl = ctx.restricted_left(nc.left)
            jumps = _support_jump_points(ctx, rl)
            want = (slide.kind == "over" and span_gaps <= {g for g, m in enumerate(rl) if m}
                    and (slide.c1 in jumps or slide.c2 in jumps))
            assert nc.indeterminate == want
            flags[want] += 1
    assert flags[True] and flags[False]
