"""Experiment orchestration: config files, sweeps, CSV/JSON emission.

Units policy: config files accept powers as suffixed strings ("30dBm",
"9dBW", "1.5W") or plain watts; everything is converted to linear watts at
the parsing boundary and all internal math is linear.  Noise can be given as
"auto" to use the thermal floor -174 + 10 log10(bandwidth) dBm.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace

from . import analysis as an
from . import montecarlo as mc
from .geometry import NetworkConfig

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "ExperimentResult",
    "parse_power",
    "noise_power_watts",
    "config_to_dict",
    "config_from_dict",
    "spec_from_dict",
    "spec_to_dict",
    "load_spec",
    "run_experiment",
    "emit_csv",
    "emit_json",
    "load_result",
]

EXPERIMENTS = (
    "op_vs_snr",
    "op_fading_sweep",
    "ergodic_vs_snr",
    "relay_compare",
    "throughput_surface",
    "ee_sweep",
)

_DEFAULT_OUTPUTS = {
    "op_vs_snr": ["analytical", "asymptotic", "montecarlo_model"],
    "op_fading_sweep": ["analytical", "montecarlo_model"],
    "ergodic_vs_snr": ["analytical", "montecarlo_model"],
    "relay_compare": ["irs_model", "af_optimal", "df_optimal", "df_min_of_means"],
    "throughput_surface": ["analytical"],
    "ee_sweep": ["se_analytical", "power_w", "ee"],
}

# sweep axis name -> NetworkConfig field (pb_dbm converts dBm -> W)
_AXIS_FIELDS = {
    "pb_dbm": "p_b",
    "n_elements": "N",
    "m_antennas": "M",
    "k_antennas": "K",
    "t1": "t1",
    "t2": "t2",
}


def parse_power(value) -> float:
    """Power in watts from a number (already watts) or a suffixed string."""
    if isinstance(value, (int, float)):
        return float(value)
    s = str(value).strip().lower().replace(" ", "")
    if s.endswith("dbm"):
        return 1e-3 * 10.0 ** (float(s[:-3]) / 10.0)
    if s.endswith("dbw"):
        return 10.0 ** (float(s[:-3]) / 10.0)
    if s.endswith("w"):
        return float(s[:-1])
    raise ValueError(f"cannot parse power {value!r} (use W, dBm or dBW)")


def noise_power_watts(bandwidth_hz: float) -> float:
    """Thermal noise power: -174 + 10 log10(D) dBm."""
    return 1e-3 * 10.0 ** ((-174.0 + 10.0 * math.log10(bandwidth_hz)) / 10.0)


def config_from_dict(d: dict) -> NetworkConfig:
    d = dict(d)
    if "p_b" in d:
        d["p_b"] = parse_power(d["p_b"])
    bw = float(d.get("bandwidth_hz", 1e8))
    sigma2 = d.get("sigma2", "auto")
    d["sigma2"] = noise_power_watts(bw) if sigma2 == "auto" else parse_power(sigma2)
    return NetworkConfig(**d)


def config_to_dict(cfg: NetworkConfig) -> dict:
    return dataclasses.asdict(cfg)


@dataclass
class ExperimentSpec:
    experiment: str
    sweep: list                      # ordered [(axis_name, [values]), ...]
    base: NetworkConfig
    plan: mc.TrialPlan
    outputs: list = field(default_factory=list)
    relay: "mc.RelayConfig | None" = None
    power_model: "an.PowerModel | None" = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.outputs:
            self.outputs = list(_DEFAULT_OUTPUTS[self.experiment])
        for name, values in self.sweep:
            if name not in _AXIS_FIELDS and not (
                    name == "ptot_dbm" and self.experiment == "relay_compare"):
                raise ValueError(f"unknown sweep axis {name!r}")
            vals = list(values)
            if not vals or any(not math.isfinite(float(v)) for v in vals):
                raise ValueError(f"axis {name!r} needs finite values")
            if sorted(vals) != vals:
                raise ValueError(f"axis {name!r} values must be sorted")
        if self.experiment == "relay_compare" and self.relay is None:
            raise ValueError("relay_compare needs a relay section")
        if self.experiment == "ee_sweep" and self.power_model is None:
            raise ValueError("ee_sweep needs a power_model section")


def spec_from_dict(d: dict) -> ExperimentSpec:
    base = config_from_dict(d["base"])
    plan_d = dict(d.get("plan", {}))
    if "master_seed" not in plan_d:
        raise ValueError("plan.master_seed is required: runs must be reproducible")
    plan = mc.TrialPlan(
        trials=int(plan_d.get("trials", 100000)),
        master_seed=int(plan_d["master_seed"]),
        fidelity=plan_d.get("fidelity", "model_level"),
        metric=plan_d.get("metric", "outage"),
    )
    sweep = [(name, list(values)) for name, values in d["sweep"].items()]
    relay = None
    if "relay" in d:
        rd = dict(d["relay"])
        rd.setdefault("d1", base.d1)
        for key in ("p_tot", "sigma2"):
            if key in rd:
                rd[key] = parse_power(rd[key])
        rd.setdefault("sigma2", base.sigma2)
        rd.setdefault("R", base.R)
        rd.setdefault("r0", base.r0)
        rd.setdefault("alpha", base.alpha)
        rd.setdefault("t1", base.t1)
        rd.setdefault("t2", base.t2)
        rd.setdefault("ref_atten_db", base.ref_atten_db)
        relay = mc.RelayConfig(**rd)
    pm = None
    if "power_model" in d:
        pd = dict(d["power_model"])
        pm = an.PowerModel(
            P_Bs=parse_power(pd["P_Bs"]),
            eps_b=float(pd["eps_b"]),
            P_U=parse_power(pd["P_U"]),
            P_L=parse_power(pd["P_L"]),
        )
    return ExperimentSpec(
        experiment=d["experiment"],
        sweep=sweep,
        base=base,
        plan=plan,
        outputs=list(d.get("outputs", [])),
        relay=relay,
        power_model=pm,
    )


def spec_to_dict(spec: ExperimentSpec) -> dict:
    d = {
        "experiment": spec.experiment,
        "sweep": {name: list(values) for name, values in spec.sweep},
        "base": config_to_dict(spec.base),
        "plan": dataclasses.asdict(spec.plan),
        "outputs": list(spec.outputs),
    }
    if spec.relay is not None:
        d["relay"] = dataclasses.asdict(spec.relay)
    if spec.power_model is not None:
        d["power_model"] = dataclasses.asdict(spec.power_model)
    return d


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


@dataclass
class ExperimentResult:
    axis_names: list
    rows: list                       # (axis_values, series, value, std_error, trials)
    metadata: dict
    failures: list = field(default_factory=list)

    def series(self, name: str):
        return [(axes, v, se) for axes, s, v, se, _ in self.rows if s == name]


def _apply_axes(base: NetworkConfig, names, values):
    """New config with the axis values applied; throughput ties K to M."""
    kw = {}
    for name, value in zip(names, values):
        if name == "ptot_dbm":
            continue
        fld = _AXIS_FIELDS[name]
        if fld == "p_b":
            kw["p_b"] = 1e-3 * 10.0 ** (float(value) / 10.0)
        elif fld in ("M", "K", "N"):
            kw[fld] = int(value)
        else:
            kw[fld] = float(value)
    if "M" in kw and "K" not in kw:
        kw["K"] = max(kw["M"], base.K)
    return replace(base, **kw)


def run_experiment(spec: ExperimentSpec, n_workers: int = 1) -> ExperimentResult:
    """Evaluate every requested series at every sweep point.

    Points that differ only in ``pb_dbm`` are evaluated together, so a Monte
    Carlo engine draws once for the whole power axis.  Per-point failures
    (for example the asymptotic series outside its convergence region) are
    collected, not fatal.
    """
    t0 = time.monotonic()
    names = [name for name, _ in spec.sweep]
    points = [tuple(float(v) for v in point)
              for point in itertools.product(*(values for _, values in spec.sweep))]
    runner = _RUNNERS[spec.experiment]
    relay_cache = {}                 # (series, RelayConfig) -> payload, for this run only
    outputs = [None] * len(points)
    for group in _power_groups(names, points):
        pts = [points[i] for i in group]
        cfgs = [_apply_axes(spec.base, names, p) for p in pts]
        for i, out in zip(group, runner(spec, names, pts, cfgs, n_workers, relay_cache)):
            outputs[i] = out
    rows, failures = [], []
    for point, out in zip(points, outputs):
        for series, payload in out:
            if isinstance(payload, Exception):
                failures.append((point, series, f"{type(payload).__name__}: {payload}"))
            else:
                value, se, trials = payload
                rows.append((point, series, float(value), float(se), int(trials)))
    rows.sort(key=lambda r: (r[0], r[1]))
    meta = {
        "experiment": spec.experiment,
        "seed": spec.plan.master_seed,
        "trials": spec.plan.trials,
        "version": _version_string(),
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    return ExperimentResult(axis_names=names, rows=rows, metadata=meta, failures=failures)


def _power_groups(names, points):
    """Indices of the points that differ only in pb_dbm, one list per group."""
    k = names.index("pb_dbm") if "pb_dbm" in names else len(names)
    groups = {}
    for i, point in enumerate(points):
        groups.setdefault(point[:k] + point[k + 1:], []).append(i)
    return groups.values()


def _version_string() -> str:
    from . import __version__
    return f"irislab {__version__}"


def _want(spec, series):
    return series in spec.outputs


# A runner gets one power group (its points and their configs, which differ
# only in p_b) and returns, per point, the list of (series, payload) pairs; a
# payload is (value, std_error, trials) or the exception of a failed point.

def _by_point(series, n):
    return [[(name, payloads[k]) for name, payloads in series] for k in range(n)]


def _each(cfgs, fn):
    """Per-point payloads; an exception becomes that point's failure."""
    out = []
    for cfg in cfgs:
        try:
            out.append(fn(cfg))
        except Exception as e:                      # noqa: BLE001 - per-point report
            out.append(e)
    return out


def _payload(est):
    return est.mean, est.std_error, est.trials_used


def _power_axis(engine, plan, cfgs, n_workers, **kw):
    """Payloads of a model-level engine, one call for the whole power group."""
    ests = engine(replace(plan, fidelity="model_level"), cfgs[0], [c.p_b for c in cfgs],
                  n_workers=n_workers, **kw)
    return [_payload(e) for e in ests]


def _run_op_vs_snr(spec, names, points, cfgs, n_workers, cache):
    series = []
    if _want(spec, "analytical"):
        series.append(("analytical", _each(cfgs, lambda c: (an.op_closed_form(
            an.ClosedFormContext.from_config(c), c.R, c.r0, c.alpha), 0.0, 0))))
    if _want(spec, "asymptotic"):
        series.append(("asymptotic", _each(cfgs, lambda c: (an.op_asymptotic(
            an.ClosedFormContext.from_config(c), c.R, c.r0, c.alpha), 0.0, 0))))
    if _want(spec, "montecarlo_model"):
        series.append(("montecarlo_model",
                       _power_axis(mc.simulate_op_axis, spec.plan, cfgs, n_workers)))
    if _want(spec, "montecarlo_link"):
        plan = replace(spec.plan, fidelity="link_level")
        series.append(("montecarlo_link", _each(cfgs, lambda c: _payload(
            mc.simulate_op(plan, c, n_workers=n_workers)))))
    return _by_point(series, len(cfgs))


def _run_op_fading(spec, names, points, cfgs, n_workers, cache):
    series = []
    if _want(spec, "analytical"):
        series.append(("analytical", _each(cfgs, lambda c: (an.op_gamma_approx(c), 0.0, 0))))
    if _want(spec, "montecarlo_model"):
        # squared combining gain, the variable the Gamma model describes
        series.append(("montecarlo_model", _power_axis(mc.simulate_op_axis, spec.plan, cfgs,
                                                       n_workers, gain="squared")))
    return _by_point(series, len(cfgs))


def _run_ergodic(spec, names, points, cfgs, n_workers, cache):
    series = []
    if _want(spec, "analytical"):
        series.append(("analytical", _each(cfgs, lambda c: (
            an.ergodic_rate_meijer(an.gamma_approx(c), c), 0.0, 0))))
    if _want(spec, "quadrature"):
        series.append(("quadrature", [(an.ergodic_rate_quadrature(an.gamma_approx(c), c), 0.0, 0)
                                      for c in cfgs]))
    plan = replace(spec.plan, metric="ergodic_rate")
    if _want(spec, "montecarlo_model"):
        series.append(("montecarlo_model",
                       _power_axis(mc.simulate_ergodic_rate_axis, plan, cfgs, n_workers)))
    if _want(spec, "montecarlo_link"):
        plan = replace(plan, fidelity="link_level")
        series.append(("montecarlo_link", _each(cfgs, lambda c: _payload(
            mc.simulate_ergodic_rate(plan, c, n_workers=n_workers)))))
    return _by_point(series, len(cfgs))


def _run_relay_compare(spec, names, points, cfgs, n_workers, cache):
    rc = spec.relay
    if "ptot_dbm" in names:
        p_tot = 1e-3 * 10.0 ** (points[0][names.index("ptot_dbm")] / 10.0)
        rc = replace(rc, p_tot=p_tot)
    plan = replace(spec.plan, metric="ergodic_rate")
    series = []
    if _want(spec, "irs_model"):
        # p_b is replaced by the relay budget, so the group shares one value
        cfg = cfgs[0]
        est = mc.simulate_ergodic_rate(plan, replace(cfg, p_b=rc.p_tot, d1=rc.d1),
                                       n_workers=n_workers)
        series.append(("irs_model", [(cfg.M * est.mean, cfg.M * est.std_error,
                                      est.trials_used)] * len(cfgs)))
    for name, rate_fn, rate_kw in (("af_optimal", mc.af_relay_rate, {}),
                                   ("df_optimal", mc.df_relay_rate, {}),
                                   ("df_min_of_means", mc.df_relay_rate,
                                    {"combine": "min_of_means"})):
        if _want(spec, name):
            # the relay baselines do not depend on the surface: once per RelayConfig
            if (name, rc) not in cache:
                _, est = mc.optimal_power_split(rate_fn, plan, rc, n_workers=n_workers,
                                                **rate_kw)
                cache[name, rc] = _payload(est)
            series.append((name, [cache[name, rc]] * len(cfgs)))
    return _by_point(series, len(cfgs))


def _analytic_se(cfg: NetworkConfig) -> float:
    if not cfg.solvable:
        return 0.0
    ap = an.gamma_approx(cfg)
    return cfg.M * an.ergodic_rate_meijer(ap, cfg)


def _run_throughput(spec, names, points, cfgs, n_workers, cache):
    return _by_point([("analytical", _each(cfgs, lambda c: (_analytic_se(c), 0.0, 0)))],
                     len(cfgs))


def _run_ee(spec, names, points, cfgs, n_workers, cache):
    return [_ee_point(spec, cfg) for cfg in cfgs]


def _ee_point(spec, cfg):
    out = []
    try:
        se = _analytic_se(cfg)
        pe = an.power_consumption(spec.power_model, cfg)
        if _want(spec, "se_analytical"):
            out.append(("se_analytical", (se, 0.0, 0)))
        if _want(spec, "power_w"):
            out.append(("power_w", (pe, 0.0, 0)))
        if _want(spec, "ee"):
            out.append(("ee", (an.energy_efficiency(se, pe), 0.0, 0)))
    except Exception as e:                          # noqa: BLE001
        out.append(("ee", e))
    return out


_RUNNERS = {
    "op_vs_snr": _run_op_vs_snr,
    "op_fading_sweep": _run_op_fading,
    "ergodic_vs_snr": _run_ergodic,
    "relay_compare": _run_relay_compare,
    "throughput_surface": _run_throughput,
    "ee_sweep": _run_ee,
}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit_csv(result: ExperimentResult, path) -> None:
    """Deterministic CSV: sorted rows, shortest round-trip float format."""
    lines = [",".join([f"axis_{n}" for n in result.axis_names]
                      + ["series", "value", "std_error", "trials"])]
    for axes, series, value, se, trials in sorted(result.rows, key=lambda r: (r[0], r[1])):
        cells = [repr(float(a)) for a in axes] + [series, repr(float(value)),
                                                  repr(float(se)), str(int(trials))]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(result: ExperimentResult, path) -> None:
    payload = {
        "metadata": result.metadata,
        "axis_names": list(result.axis_names),
        "rows": [[list(axes), series, value, se, trials]
                 for axes, series, value, se, trials in result.rows],
        "failures": [[list(axes), series, msg] for axes, series, msg in result.failures],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_result(path) -> ExperimentResult:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = [(tuple(axes), series, value, se, trials)
            for axes, series, value, se, trials in payload["rows"]]
    failures = [(tuple(axes), series, msg) for axes, series, msg in payload["failures"]]
    return ExperimentResult(axis_names=list(payload["axis_names"]), rows=rows,
                            metadata=payload["metadata"], failures=failures)
