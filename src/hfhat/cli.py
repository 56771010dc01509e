"""Command-line interface: algebra dumps, bimodule dumps, and HF-hat runs."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra as alg
from .ainfty import DualIdentityBimodule, MinimalModel
from .homalg import StructureError, truncate
from .manifolds import (
    MappingWord,
    WordError,
    hf_hat_closed,
    poincare_sphere,
    self_gluing_word,
)
from .pmc import ArcSlide, InvalidCircleError, InvalidSlideError, PointedMatchedCircle
from .slides import SlideContext, arcslide_dd_on, dd_identity, enumerate_near_chords

EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_pmc(path: str) -> PointedMatchedCircle:
    with open(path) as handle:
        return PointedMatchedCircle.from_json(json.load(handle))


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_algebra(args) -> int:
    pmc = _load_pmc(args.pmc)
    gens = alg.basis(pmc, args.weight)
    if args.truncated:
        gens = [g for g in gens if g.kept]
    leibniz_ok = not any(alg.differential(alg.differential_basic(a)) for a in gens)
    # a times each block out of its right idempotent; -1 where the product
    # dies or truncation drops it
    rights = [i for i in alg.idempotents(pmc) if len(i) == pmc.genus + args.weight]
    products = sum(p >= 0 for a in gens for right in rights
                   for p in alg.block(pmc, a.right_pairs, right, args.truncated).left_by(a))
    payload = {
        "basis": [g.to_json() for g in gens],
        "dimension": len(gens),
        "nonzero_products": products,
        "d_squared_zero": leibniz_ok,
    }
    lines = [f"weight {args.weight} basis: {len(gens)} generators",
             f"nonzero basic products: {products}",
             f"d^2 = 0: {leibniz_ok}"]
    if args.verbose:
        lines += [g.ascii() + "\n" for g in gens]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_hfhat(args) -> int:
    if args.preset and args.word:
        raise WordError("give either a word file or --preset, not both")
    if args.preset == "poincare":
        if args.final != "hom":
            raise WordError("the poincare preset takes no --final")
        result = poincare_sphere(truncated=args.truncated, check=args.check)
    else:
        if args.preset == "self-gluing-g1":
            word = self_gluing_word()
        elif args.preset in ("s1xs2-g1", "s1xs2-g2"):
            word = MappingWord(genus=int(args.preset[-1]))
        elif args.preset:
            raise WordError(f"unknown preset {args.preset!r}")
        elif not args.word:
            raise WordError("either a word file or --preset is required")
        else:
            with open(args.word) as handle:
                word = MappingWord.from_json(json.load(handle))
        result = hf_hat_closed(word, truncated=args.truncated, final=args.final,
                               check=args.check)
    _emit(args, result.to_json(), result.text())
    return 0


def _dump_structure(args, module) -> int:
    if args.truncated:
        module = truncate(module)
    payload = {
        "generators": [repr(g) for g in module.sorted_generators()],
        "arrows": [
            {
                "from": repr(x),
                "to": repr(y),
                "coefficients": [[a.to_json() for a in c] for c in sorted(coefs, key=repr)],
            }
            for x in module.sorted_generators()
            for y, coefs in sorted(module.delta[x].items(), key=lambda kv: repr(kv[0]))
        ],
    }
    text = [f"{len(module.generators)} generators, {module.arrow_count()} arrows"]
    for entry in payload["arrows"]:
        text.append(f"  {entry['from']} -> {entry['to']}  {entry['coefficients']}")
    _emit(args, payload, "\n".join(text))
    return 0


def cmd_ddslide(args) -> int:
    slide = ArcSlide(_load_pmc(args.pmc), args.b1, args.c1)
    ctx = SlideContext(slide)
    near = enumerate_near_chords(ctx)
    module = arcslide_dd_on(ctx, near)
    if args.output == "text":
        print(f"{slide.kind}-slide of {args.b1} over {args.c1}; {len(near)} near-chords "
              f"({sum(1 for n in near if n.indeterminate)} indeterminate)")
    return _dump_structure(args, module)


def cmd_ddid(args) -> int:
    pmc = _load_pmc(args.pmc)
    return _dump_structure(args, dd_identity(pmc))


def cmd_aaid(args) -> int:
    pmc = _load_pmc(args.pmc)
    module = DualIdentityBimodule(pmc, truncated=args.truncated)
    model = MinimalModel(module)
    payload = {
        "dg_generators": len(module.basis),
        "homology_generators": [repr(g) for g in model.generators],
        "differential_pairs": (len(module.basis) - len(model.generators)) // 2,
    }
    text = (f"dualized identity bimodule: {len(module.basis)} generators, "
            f"homology rank {len(model.generators)}")
    _emit(args, payload, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfhat",
        description="Combinatorial Heegaard Floer homology of closed 3-manifolds",
    )
    parser.add_argument("--truncated", action="store_true",
                        help="work in the local-multiplicity-one quotient algebra")
    parser.add_argument("--output", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="dump a weight summand of the strands algebra")
    p.add_argument("pmc", help="pointed matched circle JSON file")
    p.add_argument("--weight", type=int, default=0)
    p.add_argument("--verbose", action="store_true", help="also draw every basis diagram")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("hf-hat", help="HF-hat of a closed manifold from a gluing word")
    p.add_argument("word", nargs="?", help="word JSON file")
    p.add_argument("--preset", choices=["poincare", "self-gluing-g1", "s1xs2-g1", "s1xs2-g2"])
    p.add_argument("--final", choices=["hom", "identity"], default="hom")
    p.add_argument("--check", action="store_true",
                   help="require d^2 = 0 and arrow-compatible gradings at every stage, "
                        "and for a word |H_1| orbits when H_1 is finite (exit 3 otherwise)")
    p.set_defaults(func=cmd_hfhat)

    p = sub.add_parser("dd-slide", help="dump the bimodule of one arc-slide")
    p.add_argument("pmc")
    p.add_argument("b1", type=int)
    p.add_argument("c1", type=int)
    p.set_defaults(func=cmd_ddslide)

    p = sub.add_parser("dd-id", help="dump the identity bimodule")
    p.add_argument("pmc")
    p.set_defaults(func=cmd_ddid)

    p = sub.add_parser("aa-id", help="dualized identity bimodule and its homology")
    p.add_argument("pmc")
    p.set_defaults(func=cmd_aaid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the exit flush
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidCircleError, InvalidSlideError, WordError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (StructureError, ValueError) as err:
        print(f"internal invariant failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
