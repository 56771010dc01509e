"""Record the output fingerprints that ``run.py`` diffs every run against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each workload, the orbits, stage
table and final generator count, or the slide catalogue's sizes.  ``run.py``
reports a difference but does not fail on it, since a change to the grading
code may change gradings on purpose; re-record after such a change is
accepted.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK, child
from sample import WORKLOADS

SAMPLE_LIMIT_S = 600
SEED = 1


def main() -> int:
    recorded: dict = {}
    try:
        for workload, cls in WORKLOADS.items():
            reference = None
            if hasattr(cls, "reference"):
                reference = child("check", workload, SEED, 0, SAMPLE_LIMIT_S)["reference"]
            report = child("sample", workload, SEED, 0, SAMPLE_LIMIT_S, reference=reference)
            if report["errors"]:
                print(f"{workload}: {report['errors']}", file=sys.stderr)
                return 1
            recorded[workload] = report["fingerprint"]
            print(f"{workload}: {report['fingerprint']}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
