#!/usr/bin/env python3
"""Run every bundled figure preset and drop the CSVs under results/.

Full-scale runs use the presets' own trial counts (1e6 for the Monte Carlo
families); pass --smoke for a fast sanity pass.  Each summary line ends with
the CSV's SHA-256, so two checkouts can be compared byte for byte.
"""

import argparse
import hashlib
from dataclasses import replace
from pathlib import Path

from irislab import cli, harness


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--only", default=None,
                        help="comma-separated subset of preset names")
    parser.add_argument("--series", default=None,
                        help="comma-separated subset of series, for every preset run")
    args = parser.parse_args()

    names = cli._preset_names()
    if args.only:
        wanted = {s.strip() for s in args.only.split(",") if s.strip()}
        unknown = sorted(wanted - set(names))
        if unknown:
            parser.error(f"unknown preset(s) {', '.join(unknown)}; presets: {', '.join(names)}")
        names = [n for n in names if n in wanted]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        spec = cli._load(name)
        if args.series:
            spec = replace(spec, outputs=[s.strip() for s in args.series.split(",") if s.strip()])
        if args.smoke:
            spec = cli._smoke(spec)
        result = harness.run_experiment(spec, n_workers=args.workers)
        csv = out / f"{name}.csv"
        harness.emit_csv(result, csv)
        harness.emit_json(result, out / f"{name}.json")
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        print(f"{name}: {len(result.rows)} rows in {result.metadata['wall_time_s']}s, "
              f"{len(result.failures)} per-point failures, sha256 {digest}")


if __name__ == "__main__":
    main()
