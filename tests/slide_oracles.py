"""Test-side builds of arc-slide bimodules under choices the library fixes.

``slides.arcslide_dd`` solves the slide equation over the full algebras
only, with the source-side basic choice; a truncated slide bimodule is its
projection, ``homalg.truncate``.  These helpers rebuild a slide bimodule
through an all-pairs oracle of the over-slide equation, with either basic
choice and over the full or the truncated algebras, so the tests can
compare each with the library's bimodule or its projection.
"""

from __future__ import annotations

from hfhat.homalg import TypeDStructure
from hfhat.slides import SlideContext, enumerate_near_chords, slide_generators


def slide_bimodule(slide, terms, truncated=False):
    """The bimodule of ``slide`` with its over-slide terms chosen by
    ``terms(ctx, truncated, chords)``.  If ``truncated``, only the
    near-chords whose two entries are kept enter, and the equation is
    solved over the truncated algebras; d^2 = 0 is checked and the
    gradings are propagated over the result."""
    ctx = SlideContext(slide)
    out = TypeDStructure((slide.source, ctx.rev_tgt), f"DD(slide {slide.b1} over {slide.c1})",
                         truncated)
    for left, right in slide_generators(ctx):
        out.add_generator((tuple(sorted(left)), tuple(sorted(right))), (left, right))
    chords = enumerate_near_chords(slide)
    if truncated:
        chords = [nc for nc in chords if nc.left.kept and nc.right.kept]
    if slide.kind == "over":
        chords = terms(ctx, truncated, chords)
    key_of = {idem: key for key, idem in out.idem.items()}
    for nc in chords:
        out.add_arrow(key_of[nc.left.left_pairs, nc.right.left_pairs],
                      key_of[nc.left.right_pairs, nc.right.right_pairs], (nc.left, nc.right))
    out.require_d_squared()
    out.propagate_gradings()
    return out


def over_slide_terms_all_pairs(ctx, truncated, chords, basic_choice_side):
    """The over-slide equation with every product tried, composable or not,
    and every solution enumerated; there must be exactly one.  The basic
    choice takes the sigma-extended indeterminates that cover the sliding
    interval on ``basic_choice_side``, "source" or "target"."""
    # imported here so that a test patching homalg reaches this oracle too
    from hfhat.homalg import StructureError, coef_differential, coef_multiply

    determinate = [nc for nc in chords if not nc.indeterminate]
    indet = [nc for nc in chords if nc.indeterminate]
    base = [(nc.left, nc.right) for nc in determinate]
    chosen3 = []
    for nc in indet:
        if nc.kind == "3":
            covers_sigma = nc.left.supp[ctx.sigma.start - 1] > 0
            if covers_sigma == (basic_choice_side == "source"):
                base.append((nc.left, nc.right))
                chosen3.append(nc)
    unknowns = [nc for nc in indet if nc.kind != "3"]

    def mul(c1, c2):
        if c1[0].right_pairs != c2[0].left_pairs or c1[1].right_pairs != c2[1].left_pairs:
            return None
        return coef_multiply(truncated, c1, c2)

    def toggle(acc, term):
        acc[term] = acc.get(term, 0) ^ 1

    const: dict = {}
    for c in base:
        for term in coef_differential(truncated, c):
            toggle(const, term)
    for c1 in base:
        for c2 in base:
            p = mul(c1, c2)
            if p is not None:
                toggle(const, p)
    lin = []
    for nc in unknowns:
        x = (nc.left, nc.right)
        row: dict = {}
        for term in coef_differential(truncated, x):
            toggle(row, term)
        for c in base:
            for p in (mul(c, x), mul(x, c)):
                if p is not None:
                    toggle(row, p)
        p = mul(x, x)
        if p is not None:
            toggle(row, p)
        lin.append({k: v for k, v in row.items() if v})
    quad: dict = {}
    for i in range(len(unknowns)):
        for j in range(i + 1, len(unknowns)):
            xi = (unknowns[i].left, unknowns[i].right)
            xj = (unknowns[j].left, unknowns[j].right)
            row = {}
            for p in (mul(xi, xj), mul(xj, xi)):
                if p is not None:
                    toggle(row, p)
            row = {k: v for k, v in row.items() if v}
            if row:
                quad[(i, j)] = row

    coupled = sorted({i for pair in quad for i in pair})
    if len(coupled) > 20:
        raise StructureError("over-slide equation has too many coupled unknowns")
    solutions = []
    for mask in range(1 << len(coupled)):
        forced = {idx: bool(mask >> k & 1) for k, idx in enumerate(coupled)}
        rhs = dict(const)
        rows, cols = [], []
        for i in range(len(unknowns)):
            if i in forced:
                if forced[i]:
                    for term in lin[i]:
                        toggle(rhs, term)
            else:
                rows.append(lin[i])
                cols.append(i)
        for (i, j), row in quad.items():
            if forced[i] and forced[j]:
                for term in row:
                    toggle(rhs, term)
        for values in _solve_f2_all(rows, {k for k, v in rhs.items() if v}):
            solution = dict(forced)
            solution.update({cols[k]: values[k] for k in range(len(cols))})
            solutions.append(solution)
    assert len(solutions) == 1, f"{len(solutions)} solutions for {ctx.slide!r}"
    return determinate + chosen3 + [nc for i, nc in enumerate(unknowns) if solutions[0][i]]


def _solve_f2_all(rows, target):
    """All solutions of sum_i c_i * rows[i] = target over F2, sparse rows:
    a particular solution shifted by every kernel combination."""
    rows = [set(k for k, v in r.items() if v) for r in rows]
    target = set(target)
    n = len(rows)
    combos = [{i} for i in range(n)]
    pivots = []
    for i in range(n):
        if not rows[i]:
            continue
        piv = min(rows[i], key=repr)
        for j in range(n):
            if j != i and piv in rows[j]:
                rows[j] ^= rows[i]
                combos[j] ^= combos[i]
        pivots.append((piv, i))
    particular = [0] * n
    for piv, i in pivots:
        if piv in target:
            target ^= rows[i]
            for k in combos[i]:
                particular[k] ^= 1
    if target:
        return
    kernel = [combos[i] for i in range(n) if not rows[i]]
    assert len(kernel) <= 6, f"{len(kernel)}-dimensional kernel"
    for mask in range(1 << len(kernel)):
        out = list(particular)
        for k, combo in enumerate(kernel):
            if mask >> k & 1:
                for idx in combo:
                    out[idx] ^= 1
        yield out
