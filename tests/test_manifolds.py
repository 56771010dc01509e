import json
import random

import pytest

import hfhat.manifolds as manifolds
from hfhat.grading import GradingElement
from hfhat.homalg import (
    StructureError,
    cancel,
    mor_against_bimodule,
    mor_complex,
)
from hfhat.manifolds import (
    MappingWord,
    WordError,
    apply_slides,
    cfd_bordered,
    cfd_self_gluing,
    cfd_zero_framed_handlebody,
    cfd_zero_framed_handlebody_reversed,
    dd_elementary_cobordism,
    dehn_twist_expand,
    h1_order,
    hf_hat_closed,
    self_gluing_word,
    spinc_maslov,
)
from hfhat.pmc import ArcSlide, all_arcslides, connected_sum, reverse_pmc, split_pmc
from hfhat.slides import arcslide_dd

from module_checks import homology_rank, modules_isomorphic

Z1 = split_pmc(1)
Z2 = split_pmc(2)


def test_zero_framed_handlebody_shape():
    h1 = cfd_zero_framed_handlebody(1)
    assert len(h1.generators) == 1 and h1.arrow_count() == 1
    h2 = cfd_zero_framed_handlebody(2)
    assert len(h2.generators) == 1 and h2.arrow_count() == 2
    assert h1.verify_d_squared() and h2.verify_d_squared()


def test_handlebody_relations_are_loop_gradings():
    h2 = cfd_zero_framed_handlebody(2)
    assert len(h2.gradings.relations) == 2


def test_self_gluing_module_d_squared():
    sg = cfd_self_gluing(Z1)
    assert sg.verify_d_squared()
    assert len(sg.generators) == 4


def test_self_gluing_junction_chords_per_radius():
    sg = cfd_self_gluing(Z1)
    crossing = {}
    for x in sg.generators:
        for coefs in sg.delta[x].values():
            for (a,) in [tuple(c) for c in coefs]:
                for s, e in a.moving:
                    if s <= 4 < e:
                        crossing.setdefault(e - s, []).append(a)
    # one junction-symmetric chord family per radius with a valid completion
    assert set(crossing) == {1, 3, 5, 7}


def test_self_gluing_equals_slide_route():
    direct = cancel(cfd_self_gluing(Z1))
    slides = apply_slides(cfd_zero_framed_handlebody(2), self_gluing_word().expand())
    assert modules_isomorphic(direct, slides)


def test_genus_one_empty_word():
    result = hf_hat_closed(MappingWord(genus=1))
    assert result.total_rank == 2
    assert len(result.orbits) == 1
    assert result.orbits[0]["maslov"] == {"0": 1, "1": 1}
    assert result.orbits[0]["modulus"] == 0


def test_genus_two_empty_word():
    result = hf_hat_closed(MappingWord(genus=2))
    assert result.total_rank == 4
    assert len(result.orbits) == 1


def test_identity_final_matches_hom_final():
    for steps in ([], [("slide", 2, 1)]):
        word = MappingWord(genus=1)
        word.steps = list(steps)
        hom = hf_hat_closed(word, final="hom")
        ident = hf_hat_closed(word, final="identity")
        assert hom.total_rank == ident.total_rank


def test_malformed_word_rejected():
    word = MappingWord(genus=1)
    word.steps = [("slide", 1, 3)]
    with pytest.raises(WordError):
        word.expand()


def test_dehn_twist_expansion_counts():
    ones = dehn_twist_expand(Z1, 0, 1)
    assert len(ones) == 1  # one point between the feet of the first pair
    assert (ones[0].b1, ones[0].c1) == (2, 3)
    inverse = dehn_twist_expand(Z1, 0, -1)
    assert (inverse[0].b1, inverse[0].c1) == (2, 1)
    assert len(dehn_twist_expand(Z2, 0, 2)) == 2
    assert dehn_twist_expand(Z1, 1, 0) == []


def _reversed_twist_expand(pmc, pair: int, power: int) -> list:
    """The Dehn-twist factorization as it ran with the twist direction
    flipped by a separate handedness switch."""
    inverted = power >= 0
    out = []
    cur = pmc
    for _ in range(abs(power)):
        b, b_top = cur.pairs[pair]
        batch = []
        for _ in range(b_top - b - 1):
            s = ArcSlide(cur, b + 1, b)
            batch.append(s)
            cur = s.target
        if not inverted:
            batch = [s.inverse() for s in reversed(batch)]
        out.extend(batch)
        if batch:
            cur = batch[-1].target
    return out


def test_flipped_handedness_is_the_negated_power():
    def spelled(slides):
        return [(s.source, s.b1, s.c1) for s in slides]

    for pmc in (Z1, Z2):
        for pair in range(pmc.n_pairs):
            for power in range(-3, 4):
                assert (spelled(_reversed_twist_expand(pmc, pair, power))
                        == spelled(dehn_twist_expand(pmc, pair, -power))), (pmc, pair, power)


def test_dehn_twist_inverse_cancels():
    word = MappingWord(genus=1)
    word.steps = [("twist", 0, 1), ("twist", 0, -1)]
    result = hf_hat_closed(word)
    assert result.total_rank == 2  # back to the identity gluing


def test_twist_word_equals_slide_word():
    twisted = MappingWord(genus=1)
    twisted.steps = [("twist", 0, 1)]
    slid = MappingWord(genus=1)
    slid.steps = [("slide", 2, 3)]
    assert (
        hf_hat_closed(twisted).total_rank == hf_hat_closed(slid).total_rank
    )


def test_twist_power_concatenates():
    doubled = dehn_twist_expand(Z2, 1, 2)
    single = dehn_twist_expand(Z2, 1, 1)
    assert [(s.b1, s.c1) for s in doubled[: len(single)]] == [
        (s.b1, s.c1) for s in single
    ]
    assert len(doubled) == 2 * len(single)


def test_word_json_round_trip():
    word = MappingWord(genus=2)
    word.steps = [("slide", 5, 4), ("twist", 1, -2)]
    clone = MappingWord.from_json(json.loads(json.dumps(word.to_json())))
    assert clone.genus == 2 and clone.steps == word.steps


def test_slide_inverse_insertion_invariance():
    rng = random.Random(31)
    base = MappingWord(genus=1)
    base.steps = [("slide", 2, 1), ("slide", 3, 2)]
    reference = hf_hat_closed(base).total_rank
    for _ in range(3):
        slides = base.expand()
        spot = rng.randint(0, len(slides))
        cur = Z1 if spot == 0 else slides[spot - 1].target
        extra = rng.choice(sorted({(s.b1, s.c1) for s in all_arcslides(cur)}))
        insertion = ArcSlide(cur, *extra)
        new = slides[:spot] + [insertion, insertion.inverse()] + slides[spot:]
        module = apply_slides(cfd_zero_framed_handlebody(1), new)
        left = cfd_zero_framed_handlebody(1)
        assert homology_rank(mor_complex(left, module)) == reference


def test_elementary_cobordism_d_squared():
    cob = dd_elementary_cobordism(Z1)
    assert cob.verify_d_squared()
    # one generator per identity-bimodule generator
    assert len(cob.generators) == 4


def test_cobordism_capped_gives_connected_sum_rank():
    module = cfd_bordered(1, [("cobordism",)])
    cap = cfd_zero_framed_handlebody(2)
    assert module.factors == cap.factors
    rank = homology_rank(mor_complex(cap, module))
    assert rank == 4  # two S1xS2 summands


def test_cobordism_on_genus_zero_caps_to_s1xs2_rank():
    # the genus-0 case: the consumed block of the cobordism stage has size 0
    module = cfd_bordered(0, [("cobordism",)])
    assert homology_rank(mor_complex(cfd_zero_framed_handlebody(1), module)) == 2


@pytest.mark.parametrize("truncated", [False, True])
def test_genus_zero_identity_pairing_gives_one_orbit_of_rank_one(truncated):
    # S^3: the identity pairing tensors two sides of one size-0 block each
    for final in ("hom", "identity"):
        result = hf_hat_closed(MappingWord(genus=0), truncated=truncated, final=final,
                               check=True)
        assert [o["rank"] for o in result.orbits] == [1]


def test_cobordism_then_word_cross_check():
    module = cfd_bordered(1, [("slide", 2, 1), ("slide", 2, 1), ("cobordism",)])
    cap = cfd_zero_framed_handlebody(2)
    via_cobordism = homology_rank(mor_complex(cap, module))
    word = MappingWord(genus=2)
    word.steps = [("slide", 2, 1), ("slide", 2, 1)]
    direct = hf_hat_closed(word).total_rank
    assert via_cobordism == direct


def test_spinc_splitting_shape():
    result = hf_hat_closed(MappingWord(genus=1))
    payload = result.to_json()
    assert payload["orbits"][0]["rank"] == 2
    assert "stages" in payload and result.text()


def test_ungraded_complex_has_no_spinc_split():
    C = mor_complex(cfd_zero_framed_handlebody(1), cfd_zero_framed_handlebody(1))
    C.gradings = None
    with pytest.raises(StructureError, match="ungraded"):
        spinc_maslov(C)


def test_check_mode_checks_each_reduced_stage_grading(monkeypatch):
    slides = dehn_twist_expand(Z1, 1, 3) + dehn_twist_expand(Z1, 0, -2)
    apply_slides(cfd_zero_framed_handlebody(1), slides, check=True)

    reduced = []

    def tampered_cancel(structure):
        out = cancel(structure)
        reduced.append(out)
        if len(reduced) == 2:  # shift one rep with an arrow by half a lambda
            x = next(g for g in out.generators if out.delta[g])
            rep = out.gradings.reps[x]
            out.gradings = out.gradings.with_reps(
                {**out.gradings.reps, x: GradingElement(rep.j2 + 1, rep.chain)})
        return out

    monkeypatch.setattr(manifolds, "cancel", tampered_cancel)
    with pytest.raises(StructureError, match=rf"stage 2 \(slide at {slides[1].b1} over") as err:
        apply_slides(cfd_zero_framed_handlebody(1), slides, check=True)
    assert str(err.value).count("stage") == 1


def _stepwise_cfd_bordered(start_genus, steps, stats):
    """The bordered loop as it stood before slides and cobordisms shared one
    stage body: each token read and paired on its own."""
    module = cfd_zero_framed_handlebody(start_genus)
    cur = split_pmc(start_genus)
    for step in steps:
        if step[0] == "cobordism":
            base = reverse_pmc(cur)
            raw = mor_against_bimodule(dd_elementary_cobordism(base), module, seam=1)
            module = cancel(raw)
            stats.append((len(raw.generators), len(module.generators)))
            cur = reverse_pmc(connected_sum(base, split_pmc(1)))
            continue
        if step[0] == "twist":
            batch = dehn_twist_expand(cur, step[1], step[2])
        else:
            batch = [ArcSlide(cur, step[1], step[2])]
        for s in batch:
            raw = mor_against_bimodule(arcslide_dd(s), module, seam=0)
            module = cancel(raw)
            stats.append((len(raw.generators), len(module.generators)))
        if batch:
            cur = batch[-1].target
    return module


def test_bordered_word_reads_tokens_like_the_stepwise_loop():
    steps = [("twist", 1, 2), ("cobordism",), ("slide", 3, 4), ("twist", 3, -1)]
    stats, expected_stats = [], []
    module = cfd_bordered(1, steps, stats=stats)
    expected = _stepwise_cfd_bordered(1, steps, expected_stats)
    assert module.factors == expected.factors
    assert module.sorted_generators() == expected.sorted_generators()
    assert module.delta == expected.delta
    assert stats == expected_stats and len(stats) == 5


def test_a_stage_off_the_running_circle_is_named_by_its_place_in_the_word():
    # two twist slides and a handle later the module lives on the genus-2 circle
    steps = dehn_twist_expand(Z1, 1, 2) + [("cobordism",), ArcSlide(Z1, 2, 1)]
    with pytest.raises(WordError, match=r"stage 4 \(slide at 2 over 1\)"):
        apply_slides(cfd_zero_framed_handlebody(1), steps)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_lens_space_splits_into_p_orbits_of_rank_one(p):
    word = MappingWord(1, [("twist", 1, p)])
    assert h1_order(word.expand(), word.genus) == p
    assert [o["rank"] for o in hf_hat_closed(word).orbits] == [1] * p


def test_two_handle_twists_give_six_orbits_of_rank_one():
    word = MappingWord(2, [("twist", 1, 2), ("twist", 3, 3)])
    assert h1_order(word.expand(), word.genus) == 6
    assert [o["rank"] for o in hf_hat_closed(word).orbits] == [1] * 6


def _twists(*spec) -> list:
    """The word steps of (pair, power) twists, in order."""
    return [("twist", pair, power) for pair, power in spec]


# Words that a relation of the mapping class group identifies, or that are
# conjugate or inverse, give the same total rank and the same number of
# spin-c orbits.  Maslov degrees are not compared: they are defined only up
# to the lambda torsion of the Mor grading sets.
RELATED_WORDS = {
    "chain-relation": (1, [[], _twists(*[(0, 1), (1, 1)] * 6)], 2, 1),
    "braid-relation": (1, [_twists((0, 1), (1, 1), (0, 1)),
                           _twists((1, 1), (0, 1), (1, 1))], 1, 1),
    "conjugate-and-inverse": (1, [_twists((1, 3)), _twists((0, 1), (1, 3), (0, -1)),
                                  _twists((1, -3))], 3, 3),
    "disjoint-twists-commute": (2, [_twists((1, 2), (3, 3)), _twists((3, 3), (1, 2))], 6, 6),
}


@pytest.mark.parametrize("genus, words, rank, orbits", RELATED_WORDS.values(),
                         ids=RELATED_WORDS.keys())
def test_related_words_give_the_same_rank_and_orbit_count(genus, words, rank, orbits):
    for steps in words:
        result = hf_hat_closed(MappingWord(genus, steps))
        assert (result.total_rank, len(result.orbits)) == (rank, orbits), steps


def test_seeded_genus_one_twist_words_match_the_order_of_h1():
    rng = random.Random(11)
    orders = []
    for _ in range(60):
        word = MappingWord(1, [("twist", rng.randrange(2), rng.choice([-3, -2, -1, 1, 2, 3]))
                               for _ in range(rng.randint(1, 4))])
        order = h1_order(word.expand(), word.genus)
        result = hf_hat_closed(word)
        # S^3, a lens space or S1xS2: the rank is |H_1|, or 2 when H_1 is infinite
        assert result.total_rank == (order or 2), word.steps
        if order:
            assert len(result.orbits) == order, word.steps
        orders.append(order)
    # the sample reaches rational and non-rational homology spheres alike
    assert 0 in orders and max(orders) >= 5


def test_seeded_genus_two_twist_words_pass_the_checked_run():
    rng = random.Random(5)
    orders = []
    for _ in range(12):
        word = MappingWord(2, [("twist", rng.randrange(4), rng.choice([-3, -2, -1, 1, 2, 3]))
                               for _ in range(rng.randint(1, 3))])
        hf_hat_closed(word, check=True)  # raises unless rank and orbits fit |H_1|
        orders.append(h1_order(word.expand(), 2))
    # two rational homology spheres among them, with 2 and 6 spin-c structures
    assert sorted(o for o in orders if o) == [2, 6]


def test_a_truncated_run_projects_each_distinct_bimodule_once(monkeypatch):
    """The truncated Poincare run pairs against 2 distinct slide
    bimodules over 10 stages; each is projected once, and the run gives
    what pairing each stage against its own projection gives."""
    base = cancel(manifolds.truncate(cfd_self_gluing(Z1)))
    module, stages = base, []
    for s in MappingWord(2, manifolds.poincare_twist_tokens()).expand():
        raw = mor_against_bimodule(manifolds.truncate(arcslide_dd(s)), module, seam=0)
        module = cancel(raw)
        stages.append((len(raw.generators), len(module.generators)))
    pairing = mor_complex(base, module)
    projected = []
    truncate = manifolds.truncate

    def counted(structure):
        if len(structure.factors) == 2:
            projected.append(structure)
        return truncate(structure)

    monkeypatch.setattr(manifolds, "truncate", counted)
    result = manifolds.poincare_sphere(truncated=True)
    assert len(projected) == len({id(b) for b in projected}) == 2
    assert result.stages == stages
    assert result.orbits == spinc_maslov(pairing)
    assert result.mor_rank == len(pairing.generators)


def test_results_do_not_depend_on_the_pivot_tie_break(monkeypatch):
    """Reduced models are unique up to isomorphism, so every result is the
    same when every cancel of the pipeline breaks its pivot ties with
    another rotation of the generator order: the Poincare preset, the
    self-gluing word and the genus-2 empty word under both final
    pairings, L(2,1), L(3,1) and T1^2 T3^3, each plain and truncated."""
    runs = [(manifolds.poincare_sphere, {})]
    runs += [(hf_hat_closed, {"word": word, "final": final})
             for word in (self_gluing_word(), MappingWord(2)) for final in ("hom", "identity")]
    runs += [(hf_hat_closed, {"word": MappingWord(genus, twists)})
             for genus, twists in ((1, [("twist", 1, 2)]), (1, [("twist", 1, 3)]),
                                   (2, [("twist", 1, 2), ("twist", 3, 3)]))]

    survivors: dict = {0: [], 7: []}

    def results(seed):
        def seeded(M):
            out = cancel(M, order_seed=seed)
            survivors[seed].append(out.generators)
            return out

        monkeypatch.setattr(manifolds, "cancel", seeded)
        return [run(truncated=t, **kw).to_json() for run, kw in runs for t in (False, True)]

    assert results(7) == results(0)
    assert survivors[7] != survivors[0]  # the rotation does pick other pivots


def test_the_pipeline_never_builds_the_full_basis(monkeypatch):
    """The Poincare sphere and the genus-3 word T1^2, plain and truncated,
    read every basic they use from the per-idempotent blocks: with
    ``full_basis`` refused and every block made afresh, both still run."""
    import hfhat.algebra as alg
    import hfhat.homalg as homalg

    def refused(pmc):
        raise AssertionError(f"full_basis built for {pmc}")

    monkeypatch.setattr(alg, "full_basis", refused)
    monkeypatch.setattr(homalg, "_coef_blocks", {})
    for table in list(alg._tables.values()):
        monkeypatch.setattr(table, "blocks", {})
    word = MappingWord(3, [("twist", 1, 2)])
    for truncated in (False, True):
        assert manifolds.poincare_sphere(truncated=truncated).total_rank == 1
        result = hf_hat_closed(word, truncated=truncated)
        assert [o["rank"] for o in result.orbits] == [4, 4]
        assert result.stages == ([(148, 2), (387, 3)] if truncated else [(252, 2), (679, 3)])
