"""One cold sample of a perfbench workload, in a fresh interpreter.

``hfhat`` keeps process-wide caches (strands products, differentials, bases,
Mor basics and slide bimodules), so a second call in one process measures a
warmed program.  Every sample is therefore its own interpreter, started by
``run.py``; it prints one JSON line and exits.

Roles:
  setup   import ``hfhat`` and build the workload's inputs, then stop;
  sample  set up, make the timed call, and report times and outputs;
  check   compute, untimed, the reference values the workload's check needs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "work"

# identity-close: a fixed genus-2 word whose slides all fix the split circle,
# four on the first torus block (points 1-4) and two on the second.  Its
# final complex has 888 generators and its stages stay small, so the final
# cancel dominates.  The word does not depend on the seed: the time of seeded
# random words varies several-fold with the word, and even reordering the
# commuting slides of the two blocks changes the stage sizes and the time.
IDENTITY_WORD = [(2, 3), (7, 8), (7, 6), (3, 4), (4, 3), (4, 3)]

# slide-catalog: every arc-slide of every genus-2 circle reachable from the
# split circle.
CATALOG_SIZES = {"circles": 21, "bimodules": 294, "generators": 5880, "arrows": 35502}


def _write_word(name: str, genus: int, steps) -> str:
    WORK.mkdir(exist_ok=True)
    path = WORK / name
    word = {"genus": genus, "steps": [{"slide": {"b1": b1, "c1": c1}} for b1, c1 in steps]}
    path.write_text(json.dumps(word))
    return str(path)


def _cli_json(argv: list[str]) -> dict:
    """Run the ``hfhat`` command in-process and parse its JSON output."""
    from hfhat import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["--output", "json", *argv])
    if code != 0:
        raise RuntimeError(f"hfhat exited with code {code}")
    return json.loads(buffer.getvalue())


def _closed_fingerprint(out: dict) -> dict:
    return {"orbits": out["orbits"],
            "stages": [[s["before"], s["after"]] for s in out["stages"]],
            "mor_generators": out["mor_generators"]}


def _total_rank(out: dict) -> int:
    return sum(orbit["rank"] for orbit in out["orbits"])


class Poincare:
    """The paper's headline run: HF-hat of the Poincare sphere."""

    def __init__(self, seed: int) -> None:
        self.argv = ["hf-hat", "--preset", "poincare"]

    def call(self):
        return _cli_json(self.argv)

    def fingerprint(self, out: dict) -> dict:
        return _closed_fingerprint(out)

    def errors(self, out: dict, reference: dict | None) -> list[str]:
        found = (_total_rank(out), len(out["orbits"]), out["mor_generators"])
        if found != (1, 1, 405):
            return [f"rank, orbits, final generators = {found}, expected (1, 1, 405)"]
        return []


class IdentityClose:
    """A genus-2 word closed with the identity-bimodule pairing."""

    def __init__(self, seed: int) -> None:
        self.word = IDENTITY_WORD
        self.path = _write_word("identity-close.json", 2, self.word)
        self.argv = ["hf-hat", self.path, "--final", "identity"]

    def call(self):
        return _cli_json(self.argv)

    def fingerprint(self, out: dict) -> dict:
        return _closed_fingerprint(out)

    def errors(self, out: dict, reference: dict | None) -> list[str]:
        if reference is None:
            return ["no reference ranks"]
        rank = _total_rank(out)
        if rank != reference["hom_rank"]:
            return [f"rank {rank} != --final hom rank {reference['hom_rank']}"]
        return []

    def reference(self) -> dict:
        """Ranks the word must have: the hom pairing and the Kunneth product."""
        hom = _total_rank(_cli_json(["hf-hat", self.path]))
        halves = [
            [(b1, c1) for b1, c1 in self.word if b1 <= 4],
            [(b1 - 4, c1 - 4) for b1, c1 in self.word if b1 > 4],
        ]
        ranks = [_total_rank(_cli_json(["hf-hat", _write_word(f"identity-close-half{i}.json", 1, h)]))
                 for i, h in enumerate(halves)]
        return {"hom_rank": hom, "half_ranks": ranks}

    def reference_errors(self, reference: dict) -> list[str]:
        a, b = reference["half_ranks"]
        if a * b != reference["hom_rank"]:
            return [f"Kunneth: hom rank {reference['hom_rank']} != {a} x {b}"]
        return []


class SlideCatalog:
    """Every genus-2 slide bimodule reachable from the split circle, built cold."""

    def __init__(self, seed: int) -> None:
        from hfhat.pmc import all_arcslides, split_pmc

        start = split_pmc(2)
        circles, todo = {start}, [start]
        while todo:
            for slide in all_arcslides(todo.pop()):
                if slide.target not in circles:
                    circles.add(slide.target)
                    todo.append(slide.target)
        self.circles = len(circles)
        self.slides = [s for c in sorted(circles, key=repr) for s in all_arcslides(c)]
        random.Random(seed).shuffle(self.slides)

    def call(self):
        from hfhat import slides

        sizes = []
        for slide in self.slides:
            module = slides.arcslide_dd(slide)
            sizes.append((repr(slide.source), slide.b1, slide.c1,
                          len(module.generators), module.arrow_count()))
        return sizes

    def fingerprint(self, sizes) -> dict:
        digest = hashlib.sha256(json.dumps(sorted(sizes)).encode()).hexdigest()[:16]
        return {"circles": self.circles, "bimodules": len(sizes),
                "generators": sum(s[3] for s in sizes),
                "arrows": sum(s[4] for s in sizes), "sizes_sha256": digest}

    def errors(self, sizes, reference: dict | None) -> list[str]:
        found = self.fingerprint(sizes)
        found.pop("sizes_sha256")
        if found != CATALOG_SIZES:
            return [f"catalog {found} != {CATALOG_SIZES}"]
        return []


WORKLOADS = {"poincare": Poincare, "identity-close": IdentityClose, "slide-catalog": SlideCatalog}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=["setup", "sample", "check"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", default=None, help="JSON from the check role")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hfhat  # noqa: F401  (the import is part of set-up)
    except ImportError as err:
        print(f"cannot import hfhat from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    report: dict = {"ready": ready}
    if args.role == "check":
        report["reference"] = workload.reference()
        report["errors"] = workload.reference_errors(report["reference"])
    elif args.role == "sample":
        tracer = None
        if args.trace:
            from hfhat import algebra, homalg, manifolds, slides

            from spans import Tracer

            tracer = Tracer()
            tracer.install((algebra, homalg, slides, manifolds))
        reference = json.loads(args.reference) if args.reference else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out = workload.call()
        except Exception:  # a failed sample is counted, not fatal
            import traceback

            out, errors = None, [traceback.format_exc(limit=-4)]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if out is not None:
            errors = workload.errors(out, reference)
            report["fingerprint"] = workload.fingerprint(out)
        report.update({
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "errors": errors,
        })
        if tracer is not None:
            report["layers"] = tracer.layer_metrics(wall)
            report["unwrapped"] = tracer.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
