"""Cold-process benchmark of hfhat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One sample is one fresh interpreter
(``sample.py``) that imports ``hfhat`` from ``src/``, builds the workload's
inputs from the seed, makes one timed call through a public entry point and
checks the answer.  Samples run one at a time, as a closed loop with one
client, and a new one starts until ``--seconds`` have passed and at least
two have run; every sample's ``PYTHONHASHSEED`` is its index, so two commits
see the same hash orders.

With ``--trace 0`` the last line reports the end-to-end metrics: medians of
the samples' wall and CPU seconds of the timed call, their peak RSS, and the
set-up time (interpreter start to ready) of several set-up-only starts plus
every sample.  With ``--trace 1`` samples alternate untraced and traced, and
the last line reports per-layer metrics from the traced ones (see
``spans.py``).  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exits with code 2 and prints no result if ``hfhat`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from sample import WORK, WORKLOADS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SETUP_STARTS = 9
MIN_SAMPLES = 2  # with --trace 1, one untraced and one traced
RUN_LIMIT_S = 170  # a run must end within 180 s, children included


class ChildError(RuntimeError):
    """A child interpreter exited without a report."""


def child(role: str, workload: str, seed: int, hash_seed: int, timeout: float,
          trace: int = 0, reference=None) -> dict:
    """Run sample.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--role", role, "--trace", str(trace)]
    if reference is not None:
        cmd += ["--reference", json.dumps(reference)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{role} child timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    ended = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{role} child exited with code {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["duration_s"] = ended - spawned
    return report


def load_reference_fingerprints() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def fingerprint_note(workload: str, found: dict, recorded: dict) -> str:
    """Exact diff of a sample's outputs against the recorded fingerprint."""
    want = recorded.get(workload)
    if want is None:
        return f"fingerprint: none recorded for {workload}"
    if want == found:
        return "fingerprint: same as recorded"
    diff = {k: {"recorded": want.get(k), "now": found.get(k)}
            for k in sorted(set(want) | set(found)) if want.get(k) != found.get(k)}
    return f"fingerprint: DIFFERS from recorded: {json.dumps(diff)}"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    started = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    setups = [child("setup", args.workload, args.seed, i, remaining())["setup_s"]
              for i in range(SETUP_STARTS)]
    reference = None
    failures = []
    if hasattr(WORKLOADS[args.workload], "reference"):
        check = child("check", args.workload, args.seed, 0, remaining())
        reference = check["reference"]
        failures += check["errors"]
        print(f"check: {json.dumps(reference)} {check['errors'] or 'ok'}")

    recorded = load_reference_fingerprints()
    notes: set = set()
    samples: list[dict] = []
    loop_start = time.monotonic()
    while True:
        index = len(samples)
        traced = args.trace == 1 and index % 2 == 1
        try:
            report = child("sample", args.workload, args.seed, index, remaining(),
                           trace=int(traced), reference=reference)
        except ChildError as err:
            report = {"errors": [str(err)], "duration_s": 0.0}
        report["traced"] = traced
        samples.append(report)
        ok = not report["errors"] and not failures
        print(f"sample {index}: " + (
            f"wall {report['wall_s']:.3f} s, cpu {report['cpu_s']:.3f} s, "
            f"setup {report['setup_s']:.3f} s, rss {report['peak_rss_mb']:.1f} MiB, "
            f"{'traced' if traced else 'untraced'}, "
            if "wall_s" in report else "") + ("ok" if ok else f"FAILED {report['errors']}"))
        if "fingerprint" in report:
            note = fingerprint_note(args.workload, report["fingerprint"], recorded)
            if note not in notes:
                notes.add(note)
                print(note)
        if report.get("unwrapped"):
            print(f"trace: not found, left unwrapped: {report['unwrapped']}")
        if "wall_s" not in report:
            break
        if len(samples) >= MIN_SAMPLES and time.monotonic() - loop_start >= args.seconds:
            break
        if remaining() < 2 * statistics.median(s["duration_s"] for s in samples):
            break

    failed = sum(1 for s in samples if s["errors"] or failures)
    plain = [s for s in samples if "wall_s" in s and not s["traced"]]
    traced = [s for s in samples if "wall_s" in s and s["traced"]]
    if not plain or (args.trace == 1 and not traced):
        raise ChildError(f"no sample finished: {samples[-1]['errors']}")
    if args.trace == 0:
        metrics = {
            "wall_s": metric(statistics.median(s["wall_s"] for s in plain), "s"),
            "cpu_s": metric(statistics.median(s["cpu_s"] for s in plain), "s"),
            "setup_s": metric(statistics.median(setups + [s["setup_s"] for s in samples
                                                          if "setup_s" in s]), "s"),
            "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in plain), "MiB"),
        }
    else:
        layers = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in LAYER_METRICS}
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - statistics.median(s["wall_s"] for s in plain))
        metrics = {name: metric(layers[name], unit) for name, unit in LAYER_METRICS.items()}
        for name, unit in LAYER_METRICS.items():
            print(f"  {name:32s} {layers[name]:14.4f} {unit}")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of hfhat.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "hfhat" / "__init__.py").is_file():
        print(f"no hfhat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except ChildError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
