#!/usr/bin/env python3
"""Record each workload's CSV digest for a range of seeds in digests.json.

    python3 perfbench/record_digests.py --seeds 0-31

A run of the benchmark compares every batch's digest with the one recorded
for its workload and seed.  Record again only when a change to the
benchmark's workloads is meant to change the CSVs; a change to the program
must reproduce the recorded bytes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    run._import_irislab()
    import workloads
    from batch import run_batch
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            for seed in range(lo, hi + 1):
                b = run_batch(workloads.build(name, seed), run.OUT_DIR)
                if b.problems:
                    print("\n".join(b.problems), file=sys.stderr)
                    return 1
                recorded.setdefault(name, {})[str(seed)] = b.digest
                print(f"{name} seed {seed}: {b.digest}", flush=True)
    finally:
        shutil.rmtree(run.OUT_DIR, ignore_errors=True)
        run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
