"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy pipelines run once per session through fixtures.  Every tolerance is
exact; ranks and generator counts are integers compared with equality.
"""

import random
import time
from functools import partial
from itertools import product

import pytest

import hfhat.algebra as alg
from hfhat.ainfty import DualIdentityBimodule, MinimalModel, StrandsGenerator
from hfhat.grading import xi_word
from hfhat.homalg import (
    cancel,
    mor_against_bimodule,
    mor_complex,
)
from hfhat.manifolds import (
    MappingWord,
    apply_slides,
    cfd_self_gluing,
    cfd_zero_framed_handlebody,
    hf_hat_closed,
    poincare_sphere,
    self_gluing_word,
)
from hfhat.pmc import ArcSlide, all_arcslides, antipodal_pmc, reverse_pmc, split_pmc
from hfhat.slides import (
    arcslide_dd,
    dd_identity,
    enumerate_near_chords,
)

from algebra_sums import full_basis, multiply
from flat_grading import gr_generator
from module_checks import homology_rank, modules_isomorphic, rotated
from near_diagonal import dischords, grading_minus_one_scan, near_diagonal_grading
from slide_oracles import over_slide_terms_all_pairs, slide_bimodule
from product_grading import lambda_power, matrix_product

Z1 = split_pmc(1)
Z2 = split_pmc(2)
A2 = antipodal_pmc(2)


@pytest.fixture(scope="module")
def poincare():
    start = time.time()
    result = poincare_sphere()
    result.elapsed = time.time() - start
    return result


@pytest.fixture(scope="module")
def self_gluing_stats():
    stats = []
    module = apply_slides(cfd_zero_framed_handlebody(2), self_gluing_word().expand(),
                          stats=stats)
    return stats, module


def test_criterion_1_poincare_sphere(poincare):
    assert poincare.total_rank == 1, "Poincare homology rank must be 1"
    assert len(poincare.orbits) == 1, "all generators in a single lambda orbit"
    assert poincare.elapsed < 300, f"runtime {poincare.elapsed:.0f}s exceeds five minutes"
    note = "" if poincare.mor_rank == 405 else f" (convention shift, 405 expected)"
    print(f"\nPASS criterion 1: Poincare sphere rank 1, one orbit, "
          f"final Mor complex {poincare.mor_rank} generators{note}, "
          f"{poincare.elapsed:.0f}s")
    assert poincare.mor_rank == 405


def test_criterion_2_reduced_count_tables(poincare, self_gluing_stats):
    stats, _ = self_gluing_stats
    after = tuple(a for _, a in stats)
    assert after == (2, 2, 1, 3, 1, 2, 4, 4), (
        f"self-gluing stage table {after} != (2, 2, 1, 3, 1, 2, 4, 4)")
    twist_after = tuple(a for _, a in poincare.stages)
    primes = twist_after[0::2]
    seconds = twist_after[1::2]
    assert primes == (7, 6, 9, 11, 14), f"twist table {primes}"
    assert seconds == (5, 7, 10, 13, 15), f"twist table {seconds}"
    print("\nPASS criterion 2: reduced-count tables match the published runs")


def test_criterion_3_s1xs2_family():
    g1 = hf_hat_closed(MappingWord(genus=1))
    assert g1.total_rank == 2
    assert len(g1.orbits) == 1
    assert g1.orbits[0]["maslov"] == {"0": 1, "1": 1}, "two adjacent degrees"
    assert g1.orbits[0]["modulus"] == 0
    g2 = hf_hat_closed(MappingWord(genus=2))
    assert g2.total_rank == 4
    print("\nPASS criterion 3: S1xS2 ranks 2 and 4, adjacent degrees at genus 1")


def test_criterion_4_self_gluing_equivalence(self_gluing_stats):
    _, slide_route = self_gluing_stats
    direct = cancel(cfd_self_gluing(Z1))
    assert modules_isomorphic(direct, slide_route)
    print("\nPASS criterion 4: self-gluing module equals the eight-slide route")


def test_criterion_5_aa_identity():
    caa = DualIdentityBimodule(Z1)
    assert len(caa.basis) == 30
    model = MinimalModel(caa)
    assert len(model.generators) == 2
    rev = reverse_pmc(Z1)
    rho3 = StrandsGenerator(Z1, [(3, 4)], ())
    rho23 = StrandsGenerator(Z1, [(2, 4)], ())
    lam12 = StrandsGenerator(rev, [(1, 3)], ())
    # the closing reversed-side chord, named lambda_2 in the published
    # figure's labelling; in this package's reversed-circle coordinates it
    # is the interval mirroring rho_3
    lam_close = StrandsGenerator(rev, [(1, 2)], ())
    x0, y0 = model.generators
    assert model.operation(x0, lambdas=[lam_close], rhos=[rho3]) == frozenset({y0})
    assert model.operation(
        x0, lambdas=[lam12, lam_close], rhos=[rho3, rho23]
    ) == frozenset({y0})
    print("\nPASS criterion 5: 30 generators, homology rank 2, both quoted "
          "operations hit Y0 (closing chord named in package coordinates)")


def test_criterion_6_property_suites():
    lam = lambda_power((7,))
    for pmc in (Z2, A2):
        weight0 = alg.basis(pmc, 0)
        for a in full_basis(pmc):
            assert not alg.differential(alg.differential_basic(a))
            ga = gr_generator(a)
            for t in alg.differential_basic(a):
                assert gr_generator(t) * lam == ga
        for a, b in product(weight0, repeat=2):
            ab = alg.multiply_basic(a, b)
            lhs = alg.differential(frozenset([ab]) if ab else frozenset())
            rhs = multiply(alg.differential_basic(a), frozenset([b]))
            rhs ^= multiply(frozenset([a]), alg.differential_basic(b))
            assert lhs == rhs
            if ab is not None:
                assert gr_generator(a) * gr_generator(b) == gr_generator(ab)
        by_left = {}
        for g in weight0:
            by_left.setdefault(g.left_pairs, []).append(g)
        for a in weight0:
            for b in by_left.get(a.right_pairs, ()):
                for c in by_left.get(b.right_pairs, ()):
                    ab, bc = alg.multiply_basic(a, b), alg.multiply_basic(b, c)
                    lhs = alg.multiply_basic(ab, c) if ab else None
                    rhs = alg.multiply_basic(a, bc) if bc else None
                    assert lhs == rhs

    def runs(supp):
        count, prev = 0, 0
        for m in supp:
            if m and not prev:
                count += 1
            prev = m
        return count

    for pmc in (Z1, Z2, A2):
        for a in full_basis(pmc):
            if not a.is_idempotent:
                assert a.iota2 <= -runs(a.supp)

    for pmc in (Z2, A2):
        assert dd_identity(pmc).verify_d_squared()
        for slide in all_arcslides(pmc):
            enum = {(c.left, c.right) for c in enumerate_near_chords(slide)}
            assert enum == set(grading_minus_one_scan(slide))
            dd = arcslide_dd(slide)
            assert dd.verify_d_squared()
            assert not dd.gradings.has_pure_lambda_relation()
            bad = set(dischords(slide))
            for x in dd.generators:
                for coefs in dd.delta[x].values():
                    for coef in coefs:
                        assert coef in enum and coef not in bad
                        assert near_diagonal_grading(slide, *coef) == -1

    # over-slide basic-choice gauge independence
    slide = ArcSlide(Z2, 5, 4)
    h2 = cfd_zero_framed_handlebody(2)
    target_side = partial(over_slide_terms_all_pairs, basic_choice_side="target")
    gauge_ranks = set()
    for dd in (arcslide_dd(slide), slide_bimodule(slide, target_side)):
        module = cancel(mor_against_bimodule(dd, h2, seam=0).relabel())
        gauge_ranks.add(homology_rank(mor_complex(module, module)))
    assert len(gauge_ranks) == 1

    # word invariance under slide . slide^{-1} insertion
    rng = random.Random(17)
    base = MappingWord(genus=1)
    base.steps = [("slide", 2, 1), ("slide", 3, 2)]
    reference = hf_hat_closed(base).total_rank
    slides = base.expand()
    for _ in range(5):
        spot = rng.randint(0, len(slides))
        cur = Z1 if spot == 0 else slides[spot - 1].target
        choice = rng.choice(sorted({(s.b1, s.c1) for s in all_arcslides(cur)}))
        ins = ArcSlide(cur, *choice)
        padded = slides[:spot] + [ins, ins.inverse()] + slides[spot:]
        module = apply_slides(cfd_zero_framed_handlebody(1), padded)
        assert homology_rank(mor_complex(cfd_zero_framed_handlebody(1), module)) == reference

    # cancellation-order independence on a pipeline step
    raw = mor_against_bimodule(arcslide_dd(ArcSlide(Z2, 5, 4)), h2, seam=0)
    shapes = {
        tuple(sorted(repr(red.idem[g]) for g in red.generators))
        for red in (cancel(rotated(raw, s)) for s in (0, 7, 23))
    }
    assert len(shapes) == 1

    # functoriality of the word's action on H_1 on 100 random words
    rng = random.Random(5)
    for _ in range(100):
        cur, slides2 = Z2, []
        for _i in range(rng.randint(2, 5)):
            s = rng.choice(list(all_arcslides(cur)))
            slides2.append(s)
            cur = s.target
        cut = rng.randint(1, len(slides2) - 1)
        n, whole = Z2.n_pairs, xi_word(slides2, Z2.n_pairs)
        assert matrix_product(xi_word(slides2[cut:], n), xi_word(slides2[:cut], n)) == whole
    print("\nPASS criterion 6: property suites exact on the genus <= 2 catalog")


def test_criterion_7_cross_path_ranks():
    from module_checks import box_closed_dg
    from hfhat.manifolds import cfd_zero_framed_handlebody_reversed

    rng = random.Random(41)
    caa = DualIdentityBimodule(Z1)
    left = cfd_zero_framed_handlebody_reversed(1)
    checked = []
    for _ in range(3):
        word = MappingWord(genus=1)
        for _i in range(rng.randint(1, 6)):
            word.steps.append(("slide", *rng.choice(
                [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])))
        mor_rank = hf_hat_closed(word).total_rank
        right = apply_slides(cfd_zero_framed_handlebody(1), word.expand())
        box = box_closed_dg(caa, left, right)
        assert box.verify_d_squared()
        assert homology_rank(box) == mor_rank, (
            f"box rank {homology_rank(box)} != mor rank {mor_rank} on {word.steps}")
        checked.append((word.steps, mor_rank))
    print(f"\nPASS criterion 7: box tensor matches Mor ranks on {checked}")
