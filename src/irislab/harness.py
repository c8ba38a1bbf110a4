"""Experiment orchestration: config files, sweeps, CSV/JSON emission.

Units policy: config files accept powers as suffixed strings ("30dBm",
"9dBW", "1.5W") or plain watts; everything is converted to linear watts at
the parsing boundary and all internal math is linear.  Noise can be given as
"auto" to use the thermal floor -174 + 10 log10(bandwidth) dBm.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace

from . import analysis as an
from . import montecarlo as mc
from .geometry import NetworkConfig

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "parse_power",
    "noise_power_watts",
    "config_from_dict",
    "spec_from_dict",
    "load_spec",
    "run_experiment",
    "emit_csv",
    "emit_json",
]

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
    bw = float(d.pop("bandwidth_hz", 1e8))
    sigma2 = d.get("sigma2", "auto")
    d["sigma2"] = noise_power_watts(bw) if sigma2 == "auto" else parse_power(sigma2)
    return NetworkConfig(**d)


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
        if self.experiment not in _SERIES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.outputs:
            self.outputs = list(_DEFAULT_OUTPUTS[self.experiment])
        unknown = [s for s in self.outputs if s not in _SERIES[self.experiment]]
        if unknown:
            raise ValueError(f"unknown series {unknown} for {self.experiment}; "
                             f"known: {', '.join(_SERIES[self.experiment])}")
        for name, values in self.sweep:
            if name not in _AXIS_FIELDS and not (
                    name == "ptot_dbm" and self.experiment == "relay_compare"):
                raise ValueError(f"unknown sweep axis {name!r}")
            vals = list(values)
            if not vals or any(not math.isfinite(float(v)) for v in vals):
                raise ValueError(f"axis {name!r} needs finite values")
            if sorted(vals) != vals:
                raise ValueError(f"axis {name!r} values must be sorted")
            if _AXIS_FIELDS.get(name) in ("M", "K", "N") and any(
                    not float(v).is_integer() for v in vals):
                raise ValueError(f"axis {name!r} needs integer values")
        if self.experiment == "relay_compare" and self.relay is None:
            raise ValueError("relay_compare needs a relay section")
        if self.experiment == "ee_sweep" and self.power_model is None:
            raise ValueError("ee_sweep needs a power_model section")


def _reject_unknown(section: str, d: dict, known) -> None:
    unknown = [k for k in d if k not in known]
    if unknown:
        raise ValueError(f"unknown {section} key(s) {unknown}; known: {', '.join(known)}")


def spec_from_dict(d: dict) -> ExperimentSpec:
    _reject_unknown("top-level", d, ("experiment", "sweep", "base", "plan", "outputs",
                                     "relay", "power_model"))
    base = config_from_dict(d["base"])
    plan_d = dict(d.get("plan", {}))
    _reject_unknown("plan", plan_d, ("trials", "master_seed"))
    if "master_seed" not in plan_d:
        raise ValueError("plan.master_seed is required: runs must be reproducible")
    plan = mc.TrialPlan(
        trials=int(plan_d.get("trials", 100000)),
        master_seed=int(plan_d["master_seed"]),
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
        _reject_unknown("power_model", pd, ("P_Bs", "eps_b", "P_U", "P_L"))
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


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


@dataclass
class ExperimentResult:
    axis_names: list
    rows: list                       # (axis_values, series, value, std_error, trials)
    metadata: dict
    failures: list = field(default_factory=list)


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
    run = _Run(spec, names, n_workers)
    table = _SERIES[spec.experiment]
    rows, failures = [], []
    for group in _power_groups(names, points):
        pts = [points[i] for i in group]
        cfgs = [_apply_axes(spec.base, names, p) for p in pts]
        for series in dict.fromkeys(spec.outputs):
            for point, payload in zip(pts, table[series](run, pts, cfgs)):
                if isinstance(payload, Exception):
                    failures.append((point, series, f"{type(payload).__name__}: {payload}"))
                else:
                    value, se, trials = payload
                    rows.append((point, series, float(value), float(se), int(trials)))
    rows.sort(key=lambda r: (r[0], r[1]))
    failures.sort(key=lambda f: (f[0], f[1]))
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


# ---------------------------------------------------------------------------
# Series table: experiment -> {series name -> evaluator}
# ---------------------------------------------------------------------------
# An evaluator takes one power group (points that differ only in pb_dbm, and
# their configs) and returns one payload per point: (value, std_error, trials)
# or the point's exception.  Engines are looked up by name at call time, never
# bound at import: a rebound module attribute (a tracer, a test double) is the
# one called, and optimal_power_split's identity test sees montecarlo's binding.

@dataclass
class _Run:
    """What the evaluators of one run_experiment call share."""

    spec: ExperimentSpec
    names: list
    n_workers: int
    memo: dict = field(default_factory=dict)     # values computed once per run


def _payload(est):
    return est.mean, est.std_error, est.trials_used


def _closed(value):
    """A closed form ``value(run, cfg)`` at each point, without standard error;
    an exception becomes that point's failure."""
    def evaluate(run, points, cfgs):
        out = []
        for cfg in cfgs:
            try:
                out.append((value(run, cfg), 0.0, 0))
            except Exception as e:                  # noqa: BLE001 - per-point report
                out.append(e)
        return out
    return evaluate


def _axis(engine, fidelity="model_level", **kw):
    """A ``mc.<engine>`` called once for the whole power group.

    The draws do not depend on the power, so the whole axis shares them; an
    engine failure (a link-level geometry without passive weights) fails
    every point of the group.
    """
    def evaluate(run, points, cfgs):
        plan = replace(run.spec.plan, fidelity=fidelity)
        try:
            ests = getattr(mc, engine)(plan, cfgs[0], [c.p_b for c in cfgs],
                                       n_workers=run.n_workers, **kw)
        except Exception as e:                      # noqa: BLE001 - per-point report
            return [e] * len(cfgs)
        return [_payload(e) for e in ests]
    return evaluate


def _relay_config(run, point) -> mc.RelayConfig:
    """The spec's relay scenario, with the point's budget if ``ptot_dbm`` is swept."""
    if "ptot_dbm" not in run.names:
        return run.spec.relay
    p_tot = 1e-3 * 10.0 ** (point[run.names.index("ptot_dbm")] / 10.0)
    return replace(run.spec.relay, p_tot=p_tot)


def _relay(rate_fn, **rate_kw):
    """The relay rate at its best split; it ignores the surface, so once per RelayConfig."""
    def evaluate(run, points, cfgs):
        rc = _relay_config(run, points[0])
        key = (rate_fn, tuple(rate_kw.items()), rc)
        if key not in run.memo:
            _, est = mc.optimal_power_split(getattr(mc, rate_fn), run.spec.plan, rc,
                                            n_workers=run.n_workers, **rate_kw)
            run.memo[key] = _payload(est)
        return [run.memo[key]] * len(cfgs)
    return evaluate


def _irs_model(run, points, cfgs):
    """Model-level surface sum rate at the relay's budget and d1; p_b is replaced,
    so one per group."""
    rc = _relay_config(run, points[0])
    cfg = cfgs[0]
    plan = replace(run.spec.plan, fidelity="model_level")
    est = mc.simulate_ergodic_rate(plan, replace(cfg, p_b=rc.p_tot, d1=rc.d1),
                                   n_workers=run.n_workers)
    return [(cfg.M * est.mean, cfg.M * est.std_error, est.trials_used)] * len(cfgs)


def _sum_se(run, cfg) -> float:
    """M times the Gamma-model rate (0 where no passive weights exist).  The
    rate is computed once per run for each set of the inputs it reads, so the
    series built on it share its value and its failure, and points that differ
    only in M and K at equal Q share one rate."""
    if not cfg.solvable:
        return 0.0
    approx = an.gamma_approx(cfg)
    key = ("se", approx.shape, an.rate_snr_scale(approx, cfg), cfg.R, cfg.r0, cfg.alpha)
    if key not in run.memo:
        try:
            run.memo[key] = an.ergodic_rate_meijer(approx, cfg)
        except Exception as e:                      # noqa: BLE001 - per-point report
            run.memo[key] = e
    if isinstance(run.memo[key], Exception):
        raise run.memo[key]
    return cfg.M * run.memo[key]


def _outage(run, cfg) -> float:
    """The closed-form outage; its tail model can leave [0, 1], which fails the point."""
    p = an.op_closed_form(cfg)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"closed-form outage {p!r} is outside [0, 1]")
    return p


def _power(run, cfg) -> float:
    return an.power_consumption(run.spec.power_model, cfg)


_SERIES = {
    "op_vs_snr": {
        "analytical": _closed(_outage),
        "asymptotic": _closed(lambda run, c: an.op_asymptotic(c)),
        "montecarlo_model": _axis("simulate_op_axis"),
        "montecarlo_link": _axis("simulate_op_axis", fidelity="link_level"),
    },
    "op_fading_sweep": {
        "analytical": _closed(lambda run, c: an.op_gamma_approx(c)),
        # squared combining gain, the variable the Gamma model describes
        "montecarlo_model": _axis("simulate_op_axis", gain="squared"),
    },
    "ergodic_vs_snr": {
        "analytical": _closed(lambda run, c: an.ergodic_rate_meijer(an.gamma_approx(c), c)),
        "quadrature": _closed(lambda run, c: an.ergodic_rate_quadrature(an.gamma_approx(c), c)),
        "montecarlo_model": _axis("simulate_ergodic_rate_axis"),
        "montecarlo_link": _axis("simulate_ergodic_rate_axis", fidelity="link_level"),
    },
    "relay_compare": {
        "irs_model": _irs_model,
        "af_optimal": _relay("af_relay_rate"),
        "df_optimal": _relay("df_relay_rate"),
        "df_min_of_means": _relay("df_relay_rate", combine="min_of_means"),
    },
    "throughput_surface": {
        "analytical": _closed(_sum_se),
    },
    "ee_sweep": {
        "se_analytical": _closed(_sum_se),
        "power_w": _closed(_power),
        "ee": _closed(lambda run, c: an.energy_efficiency(_sum_se(run, c), _power(run, c))),
    },
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
