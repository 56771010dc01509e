"""Layer spans for a traced perfbench sample.

The wrappers are installed from outside the package, at the names the
callers look up at call time: ``hfhat.manifolds`` binds ``cancel``,
``mor_against_bimodule``, ``mor_complex``, ``tensor``, ``arcslide_dd``,
``dd_identity`` and ``spinc_maslov`` by name, ``hfhat.homalg`` looks up
``_mor_gradings`` and ``hfhat.slides`` looks up ``enumerate_near_chords``
as module globals, and the grading and d^2 entry points are methods of
``TypeDStructure``.  Hot algebra calls (``multiply_basic`` runs about half a
million times while the slide catalogue is built) are not wrapped; the
algebra layer is read from its cache sizes instead.

Spans are kept in memory as ``[name, start, end, parent, child_time]`` and
turned into per-layer metrics once the sample has finished.
"""

from __future__ import annotations

import time

# Span name -> the per-layer metric its self time adds to.
SELF_TIME_METRIC = {
    "mor_gradings": "grading.mor_s",
    "propagate_gradings": "grading.propagate_s",
    "cancel": "homalg.cancel_s",
    "mor_against_bimodule": "homalg.mor_build_s",
    "mor_complex": "homalg.mor_build_s",
    "relabel": "homalg.mor_build_s",
    "tensor": "homalg.tensor_s",
    "d_squared": "homalg.d_squared_s",
    "near_chords": "slides.near_chords_s",
    "arcslide_dd": "slides.solve_s",
    "dd_identity": "slides.identity_s",
    "spinc_maslov": "manifolds.spinc_s",
}

# Every metric a traced sample reports, with its unit.
LAYER_METRICS = {
    "grading.mor_s": "s",
    "grading.propagate_s": "s",
    "grading.relations_max": "count",
    "grading.blocks_max": "count",
    "homalg.cancel_s": "s",
    "homalg.cancel_calls": "count",
    "homalg.cancel_max_generators": "count",
    "homalg.mor_build_s": "s",
    "homalg.mor_generators": "count",
    "homalg.mor_arrows": "count",
    "homalg.tensor_s": "s",
    "homalg.d_squared_s": "s",
    "slides.near_chords_s": "s",
    "slides.solve_s": "s",
    "slides.identity_s": "s",
    "slides.bimodules_built": "count",
    "slides.cache_hit_ratio": "ratio",
    "algebra.products_cached": "count",
    "algebra.differentials_cached": "count",
    "manifolds.spinc_s": "s",
    "manifolds.stages": "count",
    "pmc.circles": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class Tracer:
    """Records nested spans of wrapped calls and counts at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {
            "cancel_calls": 0,
            "cancel_max_generators": 0,
            "mor_generators": 0,
            "mor_arrows": 0,
            "relations_max": 0,
            "blocks_max": 0,
            "slide_calls": 0,
            "slides_built": 0,
            "stages": 0,
        }
        self.circles: set = set()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` and ``after(args, result, state)`` count."""

        def traced(*args, **kwargs):
            state = before(args) if before else None
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += span[2] - span[1]
            if after:
                after(args, result, state)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by its traced wrapper; note names that are gone."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        wrapped = self.wrap(name, fn, before, after)
        setattr(owner, attr, wrapped)
        return wrapped

    # -- counts taken at the wrapped boundaries --------------------------

    def _count_cancel(self, args, result, state) -> None:
        self.counts["cancel_calls"] += 1
        size = len(args[0].generators)
        self.counts["cancel_max_generators"] = max(self.counts["cancel_max_generators"], size)

    def _count_mor(self, args, result, state) -> None:
        self.counts["mor_generators"] += len(result.generators)
        self.counts["mor_arrows"] += result.arrow_count()
        if result.gradings is not None:
            self.counts["relations_max"] = max(self.counts["relations_max"],
                                               len(result.gradings.relations))
            self.counts["blocks_max"] = max(self.counts["blocks_max"],
                                            len(result.gradings.sizes))

    def _count_stage(self, args, result, state) -> None:
        self.counts["stages"] += 1
        self._count_mor(args, result, state)

    def install(self, hfhat_modules) -> None:
        """Wrap the layer entry points of an imported ``hfhat``."""
        algebra, homalg, slides, manifolds = hfhat_modules
        cache = getattr(slides, "_slide_dd_cache", {})

        def slide_before(args):
            self.circles.add(args[0].source)
            return len(cache)

        def slide_after(args, result, size_before):
            self.counts["slide_calls"] += 1
            self.counts["slides_built"] += len(cache) > size_before

        slide = self.patch(slides, "arcslide_dd", "arcslide_dd", slide_before, slide_after)
        if slide is not None and hasattr(manifolds, "arcslide_dd"):
            manifolds.arcslide_dd = slide
        self.patch(slides, "enumerate_near_chords", "near_chords")
        self.patch(homalg, "_mor_gradings", "mor_gradings")
        cls = homalg.TypeDStructure
        self.patch(cls, "propagate_gradings", "propagate_gradings")
        self.patch(cls, "require_d_squared", "d_squared")
        self.patch(cls, "verify_d_squared", "d_squared")
        self.patch(cls, "relabel", "relabel")
        self.patch(manifolds, "cancel", "cancel", after=self._count_cancel)
        self.patch(manifolds, "mor_against_bimodule", "mor_against_bimodule",
                   after=self._count_stage)
        self.patch(manifolds, "mor_complex", "mor_complex", after=self._count_mor)
        self.patch(manifolds, "tensor", "tensor")
        self.patch(manifolds, "dd_identity", "dd_identity")
        self.patch(manifolds, "spinc_maslov", "spinc_maslov")
        self._algebra = algebra

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of one traced call that took ``wall`` seconds."""
        out = {name: 0.0 for name, unit in LAYER_METRICS.items() if unit == "s"}
        top = 0.0
        for name, start, end, parent, child in self.spans:
            out[SELF_TIME_METRIC[name]] += (end - start) - child
            if parent < 0:
                top += end - start
        covered = sum(out[m] for m in set(SELF_TIME_METRIC.values()))
        counts = self.counts
        calls = counts["slide_calls"]
        out.update({
            "grading.relations_max": counts["relations_max"],
            "grading.blocks_max": counts["blocks_max"],
            "homalg.cancel_calls": counts["cancel_calls"],
            "homalg.cancel_max_generators": counts["cancel_max_generators"],
            "homalg.mor_generators": counts["mor_generators"],
            "homalg.mor_arrows": counts["mor_arrows"],
            "slides.bimodules_built": counts["slides_built"],
            "slides.cache_hit_ratio": (calls - counts["slides_built"]) / calls if calls else 0.0,
            "algebra.products_cached": len(getattr(self._algebra, "_mul_cache", ())),
            "algebra.differentials_cached": len(getattr(self._algebra, "_diff_cache", ())),
            "manifolds.stages": counts["stages"],
            "pmc.circles": len(self.circles),
            "cli.self_s": wall - top,
            "trace.wall_s": wall,
            "trace.coverage": covered / wall if wall > 0 else 0.0,
        })
        return out
