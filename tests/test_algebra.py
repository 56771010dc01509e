import random
from itertools import combinations, product

import pytest

import hfhat.algebra as alg
from hfhat.algebra import StrandsGenerator, chordset_element, idempotent
from hfhat.pmc import Chord, all_chords, antipodal_pmc, reverse_pmc, split_pmc
from hfhat.slides import dd_identity

from algebra_sums import all_idempotents, full_basis, multiply
from shared_values import assert_one_object_per_value
from summand_maps import quotient_map, truncate_element

Z1 = split_pmc(1)
Z2 = split_pmc(2)
A2 = antipodal_pmc(2)


def rho(*moving):
    return StrandsGenerator(Z1, list(moving), ())


def test_basis_counts_genus_one():
    assert len(alg.basis(Z1, 0)) == 8
    assert len(alg.basis(Z1, -1)) == 1  # the empty diagram
    assert len([g for g in alg.basis(Z1, 0) if g.is_idempotent]) == 2


def test_basis_out_of_range_weight_is_empty():
    assert alg.basis(Z1, 2) == []


def test_idempotent_counts_genus_two():
    weight0 = [g for g in alg.basis(Z2, 0) if g.is_idempotent]
    assert len(weight0) == 6


def test_idempotents_are_orthogonal():
    ids = [idempotent(Z2, s) for s in [(0, 1), (0, 2), (1, 3)]]
    for a in ids:
        assert alg.multiply_basic(a, a) == a
        for b in ids:
            if a != b:
                assert alg.multiply_basic(a, b) is None


def test_idempotent_unit_on_summand():
    for g in alg.basis(Z2, 0):
        left = idempotent(Z2, sorted(g.left_pairs))
        right = idempotent(Z2, sorted(g.right_pairs))
        assert alg.multiply_basic(left, g) == g
        assert alg.multiply_basic(g, right) == g


def test_chords_concatenate():
    assert alg.multiply_basic(rho((1, 2)), rho((2, 3))) == rho((1, 3))


def test_non_chaining_product_vanishes():
    assert alg.multiply_basic(rho((2, 3)), rho((1, 2))) is None


def test_invalid_generator_rejected():
    with pytest.raises(ValueError):
        StrandsGenerator(Z1, [(1, 2)], [0])  # horizontal collides with start
    with pytest.raises(ValueError):
        StrandsGenerator(Z1, [(2, 1)], [])


def test_pmc_mismatch_raises():
    with pytest.raises(ValueError):
        alg.multiply_basic(rho((1, 2)), StrandsGenerator(Z2, [(1, 2)], ()))


def test_idempotents_have_zero_differential():
    for g in all_idempotents(Z2):
        assert alg.differential_basic(g) == frozenset()


def test_genus_one_differential_vanishes_in_weight_zero():
    for g in alg.basis(Z1, 0):
        assert alg.differential_basic(g) == frozenset()


def test_crossing_resolution_example():
    crossing = StrandsGenerator(Z2, [(1, 4), (2, 3)], ())
    interleaved = StrandsGenerator(Z2, [(1, 3), (2, 4)], ())
    assert crossing.inv == 1 and interleaved.inv == 0
    assert alg.differential_basic(crossing) == frozenset({interleaved})
    assert alg.differential_basic(interleaved) == frozenset()


def test_d_squared_zero_exhaustive_genus_two():
    for pmc in (Z2, A2):
        for g in full_basis(pmc):
            assert not alg.differential(alg.differential_basic(g))


def test_leibniz_exhaustive_weight_zero():
    for pmc in (Z2, A2):
        basis = alg.basis(pmc, 0)
        for a, b in product(basis, repeat=2):
            ab = alg.multiply_basic(a, b)
            lhs = alg.differential(frozenset([ab]) if ab else frozenset())
            rhs = multiply(alg.differential_basic(a), frozenset([b]))
            rhs ^= multiply(frozenset([a]), alg.differential_basic(b))
            assert lhs == rhs, (a, b)


def test_associativity_weight_zero_exhaustive_split():
    basis = alg.basis(Z2, 0)
    by_left = {}
    for g in basis:
        by_left.setdefault(g.left_pairs, []).append(g)
    for a in basis:
        for b in by_left.get(a.right_pairs, ()):
            for c in by_left.get(b.right_pairs, ()):
                ab = alg.multiply_basic(a, b)
                bc = alg.multiply_basic(b, c)
                lhs = alg.multiply_basic(ab, c) if ab else None
                rhs = alg.multiply_basic(a, bc) if bc else None
                assert lhs == rhs, (a, b, c)


def test_unit_sum_of_idempotents():
    units = [g for g in alg.basis(Z2, 0) if g.is_idempotent]
    for a in alg.basis(Z2, 0):
        left = [alg.multiply_basic(u, a) for u in units]
        assert [x for x in left if x] == [a]
        right = [alg.multiply_basic(a, u) for u in units]
        assert [x for x in right if x] == [a]


def test_multiplication_preserves_weight():
    for a, b in product(alg.basis(Z2, 0), repeat=2):
        ab = alg.multiply_basic(a, b)
        if ab is not None:
            assert ab.weight == 0
    for g in alg.basis(Z2, 1):
        for t in alg.differential_basic(g):
            assert t.weight == 1


def test_chord_element_genus_one():
    elt = alg.chordset_element(Z1, [Chord(1, 2)], weight=0)
    assert elt == frozenset({rho((1, 2))})
    assert len(alg.chordset_element(Z1, [Chord(1, 2)])) == 1


def test_chord_element_minimal_weight_is_bare():
    elt = alg.chordset_element(Z2, [Chord(1, 2)], weight=-1)
    assert elt == frozenset({StrandsGenerator(Z2, [(1, 2)], ())})


def test_chordset_singleton_matches_chord_element():
    for chord in (Chord(1, 2), Chord(2, 4)):
        completions = {a for a in full_basis(Z2) if a.moving == ((chord.start, chord.end),)}
        assert alg.chordset_element(Z2, [chord]) == completions


def test_chordset_empty_gives_idempotent_sum():
    elt = alg.chordset_element(Z2, [])
    assert elt == frozenset(all_idempotents(Z2))


def test_chord_element_respects_differential():
    for chord in (Chord(1, 4), Chord(2, 6)):
        elt = alg.chordset_element(Z2, [chord])
        total = frozenset()
        for term in elt:
            total ^= alg.differential_basic(term)
        assert total == alg.differential(elt)


def test_supports():
    assert idempotent(Z1, [0]).supp == (0, 0, 0)
    assert rho((1, 3)).supp == (1, 1, 0)


def test_support_additivity_under_products():
    for a, b in product(alg.basis(Z2, 0), repeat=2):
        ab = alg.multiply_basic(a, b)
        if ab is not None:
            assert ab.supp == tuple(x + y for x, y in zip(a.supp, b.supp))


def test_opposite_is_involution_and_antihomomorphism():
    for g in alg.basis(Z2, 0):
        assert alg.opposite_basic(alg.opposite_basic(g)) == g
    for a, b in product(alg.basis(Z2, 0)[:30], repeat=2):
        ab = alg.multiply_basic(a, b)
        opp = alg.multiply_basic(alg.opposite_basic(b), alg.opposite_basic(a))
        assert opp == (alg.opposite_basic(ab) if ab else None)


def test_opposite_fixes_idempotent_count():
    ids = all_idempotents(Z2)
    assert {alg.opposite_basic(i) for i in ids} == set(all_idempotents(reverse_pmc(Z2)))


def test_truncation_drops_high_multiplicity():
    keep = StrandsGenerator(Z2, [(1, 3)], ())
    double = StrandsGenerator(Z2, [(1, 4), (2, 5)], ())
    assert any(m > 1 for m in double.supp)
    out = truncate_element(frozenset({keep, double}))
    assert out == frozenset({keep})


def test_truncation_commutes_with_differential_genus_two():
    for g in full_basis(Z2):
        lhs = truncate_element(alg.differential_basic(g))
        rhs = alg.differential(truncate_element(frozenset({g})))
        assert lhs == rhs  # the support is preserved by resolutions


def test_quotient_map_on_summand():
    total = split_pmc(2)
    part = split_pmc(1)
    base = frozenset({total.pair_of(5)})
    inside = StrandsGenerator(total, [(1, 2)], [total.pair_of(5)])
    kept = quotient_map(frozenset({inside}), 4, total, part, base)
    assert kept == frozenset({StrandsGenerator(part, [(1, 2)], ())})
    crossing = StrandsGenerator(total, [(2, 6)], ())
    assert quotient_map(frozenset({crossing}), 4, total, part, base) == frozenset()
    wrong_idem = StrandsGenerator(total, [(1, 2)], [total.pair_of(6)])
    assert quotient_map(frozenset({wrong_idem}), 4, total, part, base) == frozenset()


def test_quotient_map_is_algebra_map_on_samples():
    import random

    random.seed(3)
    total = split_pmc(2)
    part = split_pmc(1)
    base = frozenset({total.pair_of(5)})
    basis = full_basis(total)
    for _ in range(300):
        a, b = random.choice(basis), random.choice(basis)
        ab = alg.multiply_basic(a, b)
        lhs = quotient_map(frozenset([ab]) if ab else frozenset(), 4, total, part, base)
        qa = quotient_map(frozenset({a}), 4, total, part, base)
        qb = quotient_map(frozenset({b}), 4, total, part, base)
        assert lhs == multiply(qa, qb)


# ---------------------------------------------------------------------------
# The interned strands table

SPLIT_AND_ANTIPODAL = (Z1, antipodal_pmc(1), Z2, A2)


def _count_builds(monkeypatch) -> list:
    built = []
    build = StrandsGenerator._build
    monkeypatch.setattr(StrandsGenerator, "_build",
                        lambda self, *args: (built.append(args), build(self, *args)))
    return built


def test_naming_a_diagram_twice_gives_the_same_object(monkeypatch):
    monkeypatch.setattr(alg, "_tables", {})  # whatever other tests have named
    built = _count_builds(monkeypatch)
    z3 = split_pmc(3)
    normal = (((1, 4), (9, 12)), (2, 3))
    assert normal not in alg._strands(z3).diagrams
    a = StrandsGenerator(z3, [(9, 12), (1, 4)], [3, 2])
    assert (a.moving, a.horizontals) == normal
    assert StrandsGenerator(z3, *normal) is a
    assert StrandsGenerator(z3, [(1, 4), (9, 12)], (3, 2)) is a
    assert StrandsGenerator(z3, [[1, 4], [9, 12]], [2, 3]) is a  # list spelling
    # an equal circle built separately shares the table
    assert StrandsGenerator(split_pmc(3), [(9, 12), (1, 4)], [3, 2]) is a
    assert len(built) == 1
    for b in full_basis(Z2):
        assert StrandsGenerator(Z2, list(b.moving), list(b.horizontals)) is b


def test_invalid_diagrams_raise_and_are_not_stored(monkeypatch):
    diagrams = alg._strands(Z1).diagrams
    built = _count_builds(monkeypatch)
    for moving, horizontals in [([(2, 1)], ()), ([(1, 2)], [0]), ([(1, 2), (3, 4)], ()),
                                ([(1, 2), (1, 3)], ())]:
        for _ in range(2):
            with pytest.raises(ValueError):
                StrandsGenerator(Z1, moving, horizontals)
        assert (tuple(moving), tuple(horizontals)) not in diagrams
    assert len(built) == 8  # every attempt validates again, none is kept
    built.clear()
    fresh = ((1, 3),), (1,)
    misses = 0 if fresh in diagrams else 1
    for _ in range(3):
        StrandsGenerator(Z1, *fresh)
    assert len(built) == misses  # a valid diagram is validated once


def test_products_are_interned_unvalidated_as_the_validated_build(monkeypatch):
    """A product made afresh is filled in without validation; it is the
    diagram a validated build of its strands gives, field by field."""
    fields = ("moving", "horizontals", "left_pairs", "right_pairs", "supp", "inv", "iota2",
              "weight", "kept")
    for pmc in (Z2, A2):
        monkeypatch.setattr(alg, "_tables", {})
        monkeypatch.setattr(alg, "_mul_cache", {})
        built = _count_builds(monkeypatch)
        factors = [a for chord in all_chords(pmc) for a in chordset_element(pmc, [chord])]
        validated, known = len(built), set(alg.diagrams(pmc).values())
        products = {alg.multiply_basic(a, b) for a in factors for b in factors} - {None}
        fresh = products - known
        assert len(fresh) > 100 and len(built) == validated  # none validated
        made = {(p.moving, p.horizontals): [getattr(p, f) for f in fields] for p in fresh}
        monkeypatch.setattr(alg, "_tables", {})
        for key, values in made.items():
            again = StrandsGenerator(pmc, *key)
            assert [getattr(again, f) for f in fields] == values
            assert hash(again) == hash((pmc, *key))
        assert len(built) == validated + len(made)  # each validated now


def test_ids_name_diagrams_across_circles():
    basis = {a for pmc in SPLIT_AND_ANTIPODAL for a in full_basis(pmc)}
    assert len({a.id for a in basis}) == len(basis)


def test_cross_circle_products_raise_every_time_and_are_not_cached():
    a, b = rho((1, 2)), StrandsGenerator(Z2, [(2, 3)], ())
    size = len(alg._mul_cache)
    for _ in range(2):
        with pytest.raises(ValueError, match="different circles"):
            alg.multiply_basic(a, b)
    assert len(alg._mul_cache) == size


def test_equal_circles_built_separately_share_products():
    first, second = antipodal_pmc(2), antipodal_pmc(2)
    assert first is not second and first == second
    a = StrandsGenerator(first, [(1, 3)], ())
    b = StrandsGenerator(first, [(3, 6)], ())
    product = alg.multiply_basic(a, b)
    assert product is not None and product.pmc == first
    size = len(alg._mul_cache)
    again = alg.multiply_basic(StrandsGenerator(second, [(1, 3)], ()),
                               StrandsGenerator(second, [(3, 6)], ()))
    assert again is product
    assert len(alg._mul_cache) == size


def test_hash_is_the_value_hash():
    for pmc in SPLIT_AND_ANTIPODAL:
        for a in full_basis(pmc):
            assert hash(a) == hash((pmc, a.moving, a.horizontals))


def test_kept_flag_is_multiplicity_at_most_one():
    for pmc in SPLIT_AND_ANTIPODAL:
        basis = full_basis(pmc)
        assert any(a.kept for a in basis) and not all(a.kept for a in basis)
        for a in basis:
            assert a.kept == all(m <= 1 for m in a.supp)


def test_opposite_is_an_interned_involution(monkeypatch):
    for pmc in SPLIT_AND_ANTIPODAL:
        alg.reversal(pmc)

    def no_circle(_pmc):
        raise AssertionError("opposite_basic built a circle")

    monkeypatch.setattr(alg, "reverse_pmc", no_circle)
    monkeypatch.setattr(alg, "reversed_pair_map", no_circle)
    for pmc in SPLIT_AND_ANTIPODAL:
        for a in full_basis(pmc):
            b = alg.opposite_basic(a)
            assert b.pmc == reverse_pmc(pmc)
            assert alg.opposite_basic(b) is a


# ---------------------------------------------------------------------------
# The one-pass product against the strand-list product it replaced


def _strand_list_reference(g):
    strands = list(g.moving)
    for h in g.horizontals:
        for p in g.pmc.pairs[h]:
            strands.append((p, p))
    return strands


def _multiply_reference(a, b):
    """Concatenate both strand lists, count dropped halves per pair."""
    pmc = a.pmc
    b_by_start = {s: (s, e) for s, e in _strand_list_reference(b)}
    consumed = set()
    composite = []
    dropped_a: dict[int, int] = {}
    for s, e in _strand_list_reference(a):
        nxt = b_by_start.get(e)
        if nxt is None:
            if s != e:
                return None
            dropped_a[pmc.pair_of(s)] = dropped_a.get(pmc.pair_of(s), 0) + 1
            continue
        consumed.add(e)
        composite.append((s, e, nxt[1]))
    if any(count == 2 for count in dropped_a.values()):
        return None
    dropped_b: dict[int, int] = {}
    for s, e in _strand_list_reference(b):
        if s in consumed:
            continue
        if s != e:
            return None
        dropped_b[pmc.pair_of(s)] = dropped_b.get(pmc.pair_of(s), 0) + 1
    if any(count == 2 for count in dropped_b.values()):
        return None

    for (s1, m1, e1), (s2, m2, e2) in combinations(composite, 2):
        cross_lower = (s1 < s2) != (m1 < m2)
        cross_upper = (m1 < m2) != (e1 < e2)
        if cross_lower and cross_upper:
            return None

    moving = [(s, e) for s, _, e in composite if s != e]
    flat = sorted(s for s, _, e in composite if s == e)
    horizontals = []
    for p in flat:
        h = pmc.pair_of(p)
        if h not in horizontals:
            horizontals.append(h)
    return StrandsGenerator(pmc, moving, horizontals)


def _composable_pairs(pmc):
    basis = full_basis(pmc)
    by_left: dict = {}
    for b in basis:
        by_left.setdefault(b.left_pairs, []).append(b)
    return [(a, b) for a in basis for b in by_left.get(a.right_pairs, ())]


def test_one_pass_product_matches_the_strand_list_product():
    rng = random.Random(5)
    pairs = _composable_pairs(Z1) + _composable_pairs(Z2)
    pairs += rng.sample(_composable_pairs(A2), 20000)
    for pmc in (Z2, A2):  # mostly idempotent mismatches
        basis = full_basis(pmc)
        pairs += [(rng.choice(basis), rng.choice(basis)) for _ in range(5000)]
    vanished = 0
    for a, b in pairs:
        want = _multiply_reference(a, b)
        assert alg._multiply_basic_uncached(a, b) is want, (a, b)
        vanished += want is None
    assert 0 < vanished < len(pairs)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_a_split_basis_keeps_one_object_per_pair_set_and_support(genus):
    pmc = split_pmc(genus)
    basis = full_basis(pmc)
    assert_one_object_per_value(basis, [(pmc, a.left_pairs) for a in basis])
    assert len({id(a.left_pairs) for a in basis}) == 4 ** genus


def test_the_product_cache_holds_one_packed_key_per_distinct_pair(monkeypatch):
    monkeypatch.setattr(alg, "_mul_cache", {})
    rng = random.Random(7)
    pairs = rng.sample(_composable_pairs(Z2), 2000)
    basis = full_basis(A2)
    pairs += [(rng.choice(basis), rng.choice(basis)) for _ in range(2000)]
    for a, b in pairs + pairs[::3]:  # a third of the pairs twice
        alg.multiply_basic(a, b)
    assert len(alg._mul_cache) == len(set(pairs))
    assert set(alg._mul_cache) == {a.id << 32 | b.id for a, b in pairs}


def test_vanishing_differentials_are_one_object():
    empty = [d for a in full_basis(A2) if not (d := alg.differential_basic(a))]
    assert empty and all(d is empty[0] for d in empty)


@pytest.mark.parametrize("pmc", [Z1, Z2, A2, split_pmc(3)],
                         ids=["split-1", "split-2", "antipodal-2", "split-3"])
def test_idempotents_come_by_size_then_in_combinations_order(pmc):
    """``idempotents`` lists ``all_idempotents``' pair sets in their order,
    each the circle's one object, and the identity bimodule's generators
    follow that order."""
    ids = alg.idempotents(pmc)
    assert ids == [i.left_pairs for i in all_idempotents(pmc)]
    assert all(alg.pair_set(pmc, i) is i for i in ids)
    assert dd_identity(pmc).generators == [tuple(sorted(i)) for i in ids]


@pytest.mark.parametrize("pmc", [Z1, Z2, A2], ids=["split-1", "split-2", "antipodal-2"])
def test_blocks_enumerate_the_full_basis_filter_in_order(pmc):
    """Every idempotent pair's block, plain and truncated, holds exactly
    the full basis's elements between them, in basis order, numbered by
    ``position``."""
    ids = [i.left_pairs for i in all_idempotents(pmc)]
    for truncated in (False, True):
        total = 0
        for left in ids:
            for right in ids:
                block = alg.block(pmc, left, right, truncated)
                scan = [a for a in full_basis(pmc)
                        if a.left_pairs == left and a.right_pairs == right
                        and (a.kept or not truncated)]
                assert block.basics == scan
                assert block.position == {a: i for i, a in enumerate(scan)}
                assert alg.block(pmc, left, right, truncated) is block
                total += len(scan)
        assert total == sum(a.kept or not truncated for a in full_basis(pmc))
