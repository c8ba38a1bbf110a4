"""Command-line entry point: run figure presets or custom experiment configs."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import harness


def _preset_names():
    root = resources.files("irislab").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _load(target: str) -> harness.ExperimentSpec:
    path = Path(target)
    if path.exists():
        return harness.load_spec(path)
    root = resources.files("irislab").joinpath("presets")
    candidate = root.joinpath(f"{target}.json")
    if candidate.is_file():
        return harness.spec_from_dict(json.loads(candidate.read_text(encoding="utf-8")))
    raise FileNotFoundError(
        f"no config file or preset named {target!r}; presets: {', '.join(_preset_names())}"
    )


def _smoke(spec: harness.ExperimentSpec) -> harness.ExperimentSpec:
    """Reduced preset: 1000 trials, at most 3 points per axis."""
    sweep = []
    for name, values in spec.sweep:
        vals = list(values)
        if len(vals) > 3:
            vals = [vals[0], vals[len(vals) // 2], vals[-1]]
        sweep.append((name, vals))
    spec.sweep = sweep
    spec.plan = replace(spec.plan, trials=min(spec.plan.trials, 1000))
    return spec


def numpy_dispatch() -> dict:
    """The SIMD target numpy's float64 ``log2`` and ``power`` run on here, such
    as ``X86_V4`` or ``baseline(X86_V2)``: the model-level rates sum ``log2``
    values of powered path losses, so their CSV bytes rest on these kernels."""
    from numpy.lib.introspect import opt_func_info
    info = opt_func_info(func_name="^(log2|power)$", signature="float64")
    return {name: info.get(name, {}).get(sig, {}).get("current", "none")
            for name, sig in (("log2", "dd"), ("power", "ddd"))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irislab",
                                     description="IRS-assisted MIMO downlink experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run presets or JSON experiment configs; each "
                                     "writes <experiment>.csv and <experiment>.json")
    run.add_argument("targets", nargs="+", metavar="target",
                     help="preset name or path to a config file")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--series", default=None, help="comma-separated series subset")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--smoke", action="store_true",
                     help="reduced run: 1000 trials, 3 sweep points per axis")

    sub.add_parser("presets", help="list bundled presets")
    return parser


def _specs(args) -> list:
    """Every target's spec with the overrides applied, one output name each."""
    specs, owner = [], {}
    for target in args.targets:
        spec = _load(target)
        if args.trials is not None:
            spec.plan = replace(spec.plan, trials=args.trials)
        if args.seed is not None:
            spec.plan = replace(spec.plan, master_seed=args.seed)
        if args.series is not None:
            outputs = [s.strip() for s in args.series.split(",") if s.strip()]
            if not outputs:
                raise ValueError(f"--series {args.series!r} names no series")
            spec = replace(spec, outputs=outputs)
        if args.smoke:
            spec = _smoke(spec)
        if spec.experiment in owner:
            raise ValueError(f"targets {owner[spec.experiment]!r} and {target!r} would both "
                             f"write {spec.experiment}.csv")
        owner[spec.experiment] = target
        specs.append(spec)
    return specs


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name in _preset_names():
                print(name)
            return 0
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        specs = _specs(args)                        # every target loads before any run
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dispatch = numpy_dispatch()
        for spec in specs:
            result = harness.run_experiment(spec, n_workers=args.workers)
            result.metadata["numpy_dispatch"] = dispatch
            csv_path = out_dir / f"{spec.experiment}.csv"
            harness.emit_csv(result, csv_path)
            harness.emit_json(result, csv_path.with_suffix(".json"))
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            print(f"wrote {csv_path} and .json: {len(result.rows)} rows in "
                  f"{result.metadata['wall_time_s']}s, {len(result.failures)} per-point "
                  f"failures, sha256 {digest}")
            for axes, series, msg in result.failures:
                print(f"note: {series} failed at {axes}: {msg}")
        return 0
    except Exception as exc:                        # noqa: BLE001 - CLI boundary
        json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
