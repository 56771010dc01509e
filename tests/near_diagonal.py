"""The near-diagonal scan and grading of an arc-slide, as test oracles.

A near-chord of a slide is a near-diagonal basic pair of grading -1; the
pipeline enumerates near-chords syntactically
(``hfhat.slides.enumerate_near_chords``), and these functions find them
instead by scanning every near-diagonal pair and grading it.
"""

from __future__ import annotations

from hfhat import algebra as alg
from hfhat.algebra import StrandsGenerator
from hfhat.pmc import ArcSlide
from hfhat.slides import SlideContext, _complete

from algebra_sums import full_basis


def idem_type(ctx: SlideContext, left: frozenset, right_rev: frozenset) -> str | None:
    """'CX', 'XC', or 'Y'; None when not near-complementary."""
    found = ctx.partners(left)
    if right_rev == found[0]:
        return "CX" if ctx.slide.c_pair in left else "XC"
    return "Y" if right_rev in found[1:] else None


def dischords(slide: ArcSlide) -> list[tuple[StrandsGenerator, StrandsGenerator]]:
    """Elements with the C-span on both sides and one strand per side."""
    ctx = SlideContext(slide)
    return list(_complete(ctx, [ctx.c_span], [ctx.sides[1].span]))


def near_diagonal_pairs(slide: ArcSlide):
    """All basic pairs with equal restricted supports and near-complementary
    idempotents at both ends."""
    ctx = SlideContext(slide)
    by_supp: dict = {}
    for aR in full_basis(ctx.rev_tgt):
        by_supp.setdefault(ctx.restricted_right(aR), []).append(aR)
    for aL in full_basis(ctx.src):
        for aR in by_supp.get(ctx.restricted_left(aL), ()):  # matching supports
            if idem_type(ctx, aL.left_pairs, aR.left_pairs) is None:
                continue
            if idem_type(ctx, aL.right_pairs, aR.right_pairs) is None:
                continue
            yield aL, aR


def near_diagonal_grading(slide: ArcSlide, aL: StrandsGenerator, aR: StrandsGenerator):
    """The integer grading of a near-diagonal basic pair.

    Computed as the Maslov components plus idempotent-dependent correction
    terms in the six regions around the sliding interval; the c1-below-c2
    configurations are handled by reflecting everything first.
    """
    if slide.c1 < slide.c2:
        # aR lives over -Z'; the reflected slide's right algebra is -(-Z') = Z'.
        return near_diagonal_grading(slide.reflected(), alg.opposite_basic(aL),
                                     alg.opposite_basic(aR))

    ctx = SlideContext(slide)
    supp_l = aL.supp
    supp_r = tuple(reversed(aR.supp))  # target-circle coordinates

    def mult(supp, idx):
        return supp[idx - 1] if 1 <= idx <= len(supp) else 0

    b1, c1 = slide.b1, slide.c1
    b1p, c2p = slide.b1_new, ctx.sides[1].c_foot
    if slide.kind == "under":  # b1 = c1 - 1, b1' = c2' + 1
        n_sp, n_s, n_sm = mult(supp_l, c1), mult(supp_l, b1), mult(supp_l, b1 - 1)
        n_tp, n_t, n_tm = mult(supp_r, b1p), mult(supp_r, c2p), mult(supp_r, c2p - 1)
    else:  # over: b1 = c1 + 1, b1' = c2' - 1
        n_sp, n_s, n_sm = mult(supp_l, b1), mult(supp_l, c1), mult(supp_l, c1 - 1)
        n_tp, n_t, n_tm = mult(supp_r, c2p), mult(supp_r, b1p), mult(supp_r, b1p - 1)

    def correction4(ty: str) -> int:
        if slide.kind == "under":
            table = {
                "CX": n_tp - n_t,
                "XC": -n_s + n_sm,
                "Y": n_sp - n_s - n_t + n_tm,
            }
        else:
            table = {
                "CX": -n_t + n_tm,
                "XC": n_sp - n_s,
                "Y": -n_s + n_sm + n_tp - n_t,
            }
        return table[ty]

    ty_i = idem_type(ctx, aL.left_pairs, aR.left_pairs)
    ty_j = idem_type(ctx, aL.right_pairs, aR.right_pairs)
    if ty_i is None or ty_j is None:
        raise ValueError("not a near-diagonal pair")
    total4 = 2 * (aL.iota2 + aR.iota2) + correction4(ty_i) + correction4(ty_j)
    if total4 % 4:
        raise ValueError(f"grading not an integer: {total4}/4")
    return total4 // 4


def grading_minus_one_scan(slide: ArcSlide):
    """All near-diagonal basic pairs of grading -1 (the near-chord oracle)."""
    out = []
    for aL, aR in near_diagonal_pairs(slide):
        if aL.is_idempotent and aR.is_idempotent:
            continue
        if near_diagonal_grading(slide, aL, aR) == -1:
            out.append((aL, aR))
    return out
