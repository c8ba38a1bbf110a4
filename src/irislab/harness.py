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
from dataclasses import dataclass, field, fields, replace

from . import analysis as an
from . import montecarlo as mc
from .geometry import NetworkConfig, as_float, as_int

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


def _dbm_watts(dbm: float) -> float:
    """dBm -> W; a power too large for a float raises ``OverflowError``."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


def parse_power(value) -> float:
    """Power in watts from a number (already watts) or a suffixed string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return as_float("power", value)
    s = str(value).strip().lower().replace(" ", "")
    try:
        if s.endswith("dbm"):
            return _dbm_watts(float(s[:-3]))
        if s.endswith("dbw"):
            return 10.0 ** (float(s[:-3]) / 10.0)
    except OverflowError:
        raise ValueError(f"power {value!r} does not fit in a float") from None
    if s.endswith("w"):
        return float(s[:-1])
    raise ValueError(f"cannot parse power {value!r} (use W, dBm or dBW)")


def noise_power_watts(bandwidth_hz: float) -> float:
    """Thermal noise power: -174 + 10 log10(D) dBm."""
    if not as_float("bandwidth_hz", bandwidth_hz) > 0.0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz!r}")
    return _dbm_watts(-174.0 + 10.0 * math.log10(bandwidth_hz))


def _watts(key: str, value) -> float:
    """``parse_power`` of one config entry; a bad value names its key."""
    try:
        return parse_power(value)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None


def _section(name: str, d, known, required=()) -> dict:
    """A copy of config section ``name``, a mapping of known keys holding the required ones."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} section must map keys to values, got {d!r}")
    unknown = [k for k in d if k not in known]
    if unknown:
        raise ValueError(f"unknown {name} key(s) {unknown}; known: {', '.join(known)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"missing {name} key(s) {missing}")
    return dict(d)


def config_from_dict(d: dict) -> NetworkConfig:
    """The base scenario; an integral float M, K or N (4.0) becomes an int."""
    d = _section("base", d, (*(f.name for f in fields(NetworkConfig)), "bandwidth_hz"))
    if "p_b" in d:
        d["p_b"] = _watts("p_b", d["p_b"])
    noise = noise_power_watts(d.pop("bandwidth_hz", 1e8))
    sigma2 = d.get("sigma2", "auto")
    d["sigma2"] = noise if sigma2 == "auto" else _watts("sigma2", sigma2)
    for key in ("M", "K", "N"):
        if key in d:
            d[key] = as_int(key, d[key])
    return NetworkConfig(**d)


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen, so the configs its checks build stay valid; ``dataclasses.replace``
    checks and builds anew."""

    experiment: str
    sweep: tuple                     # ((axis_name, (values, ...)), ...), crossed in order
    base: NetworkConfig
    plan: mc.TrialPlan
    outputs: tuple = ()
    power_model: "an.PowerModel | None" = None
    # per power group (the points that differ only in pb_dbm): (float points, configs)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, str) or self.experiment not in _SERIES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.outputs, (list, tuple)):
            raise ValueError(f"outputs must be a list of series names, got {self.outputs!r}")
        outputs = tuple(self.outputs or _DEFAULT_OUTPUTS[self.experiment])
        unknown = [s for s in outputs if s not in _SERIES[self.experiment]]
        if unknown:
            raise ValueError(f"unknown series {unknown} for {self.experiment}; "
                             f"known: {', '.join(_SERIES[self.experiment])}")
        repeated = sorted({s for s in outputs if outputs.count(s) > 1})
        if repeated:
            raise ValueError(f"outputs name series {repeated} more than once")
        if not isinstance(self.sweep, (list, tuple)) or not all(
                isinstance(axis, (list, tuple)) and len(axis) == 2 and isinstance(axis[0], str)
                for axis in self.sweep):
            raise ValueError(f"sweep must be a list of (axis name, values) pairs, got {self.sweep!r}")
        for name, values in self.sweep:
            if name not in _AXIS_FIELDS:
                raise ValueError(f"unknown sweep axis {name!r}")
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"axis {name!r} needs a list of values, got {values!r}")
            number = as_int if _AXIS_FIELDS[name] in ("M", "K", "N") else as_float
            vals = [number(f"axis {name!r}", v) for v in values]
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ValueError(f"axis {name!r} values must be strictly increasing, "
                                 f"got {list(values)!r}")
        sweep = tuple((name, tuple(values)) for name, values in self.sweep)
        names = [name for name, _ in sweep]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"sweep names axes {repeated} more than once")
        k = names.index("pb_dbm") if "pb_dbm" in names else len(names)
        groups = {}
        for point in itertools.product(*(values for _, values in sweep)):
            try:
                cfg = _apply_axes(self.base, names, point)
            except (ValueError, OverflowError) as e:
                detail = "p_b does not fit in a float" if isinstance(e, OverflowError) else e
                where = ", ".join(f"{n}={v!r}" for n, v in zip(names, point))
                raise ValueError(f"sweep point ({where}): {detail}") from None
            fpoint = tuple(float(v) for v in point)
            groups.setdefault(fpoint[:k] + fpoint[k + 1:], []).append((fpoint, cfg))
        if self.experiment == "ee_sweep" and self.power_model is None:
            raise ValueError("ee_sweep needs a power_model section")
        object.__setattr__(self, "sweep", sweep)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "groups", tuple(tuple(zip(*g)) for g in groups.values()))


def spec_from_dict(d: dict) -> ExperimentSpec:
    d = _section("top-level", d, ("experiment", "sweep", "base", "plan", "outputs",
                                  "power_model"), required=("experiment", "sweep", "base"))
    if not isinstance(d["sweep"], dict):
        raise ValueError(f"sweep must map axis names to value lists, got {d['sweep']!r}")
    base = config_from_dict(d["base"])
    plan_d = _section("plan", d.get("plan", {}), ("trials", "master_seed"))
    if "master_seed" not in plan_d:
        raise ValueError("plan.master_seed is required: runs must be reproducible")
    plan = mc.TrialPlan(
        trials=as_int("plan.trials", plan_d.get("trials", 100000)),
        master_seed=as_int("plan.master_seed", plan_d["master_seed"]),
    )
    pm = None
    if "power_model" in d:
        keys = ("P_Bs", "eps_b", "P_U", "P_L")
        pd = _section("power_model", d["power_model"], keys, required=keys)
        pm = an.PowerModel(
            P_Bs=_watts("P_Bs", pd["P_Bs"]),
            eps_b=pd["eps_b"],
            P_U=_watts("P_U", pd["P_U"]),
            P_L=_watts("P_L", pd["P_L"]),
        )
    return ExperimentSpec(
        experiment=d["experiment"],
        sweep=tuple(d["sweep"].items()),
        base=base,
        plan=plan,
        outputs=d.get("outputs", ()),
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
        fld = _AXIS_FIELDS[name]
        if fld == "p_b":
            kw["p_b"] = _dbm_watts(float(value))
        elif fld in ("M", "K", "N"):
            kw[fld] = int(value)
        else:
            kw[fld] = float(value)
    if "M" in kw and "K" not in kw:
        kw["K"] = max(kw["M"], base.K)
    return replace(base, **kw)


def run_experiment(spec: ExperimentSpec, n_workers: int = 1) -> ExperimentResult:
    """Evaluate every requested series at every sweep point.

    The spec's power groups are evaluated one at a time, so a Monte Carlo
    engine draws once for the whole power axis.  Per-point failures
    (for example the asymptotic series outside its convergence region) are
    collected, not fatal.  ``metadata["series_wall_s"]`` holds each series'
    evaluation time in seconds; a value that series share within a run is
    timed under the series that computes it first.
    """
    t0 = time.monotonic()
    run = _Run(spec, n_workers)
    table = _SERIES[spec.experiment]
    rows, failures = [], []
    series_wall = dict.fromkeys(spec.outputs, 0.0)
    for points, cfgs in spec.groups:
        for series in series_wall:
            t = time.monotonic()
            payloads = table[series](run, cfgs)
            series_wall[series] += time.monotonic() - t
            for point, payload in zip(points, payloads):
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
        "series_wall_s": {series: round(t, 6) for series, t in series_wall.items()},
    }
    return ExperimentResult([name for name, _ in spec.sweep], rows, meta, failures)


def _version_string() -> str:
    from . import __version__
    return f"irislab {__version__}"


# ---------------------------------------------------------------------------
# Series table: experiment -> {series name -> evaluator}
# ---------------------------------------------------------------------------
# An evaluator takes the configs of one power group (points that differ only in
# pb_dbm) and returns one payload per point: (value, std_error, trials) or the
# point's exception.  Engines are looked up by name at call time, never
# bound at import: a rebound module attribute (a tracer, a test double) is the
# one called.

@dataclass
class _Run:
    """What the evaluators of one run_experiment call share."""

    spec: ExperimentSpec
    n_workers: int
    memo: dict = field(default_factory=dict)     # values computed once per run

    def once(self, key, fn, *args):
        """``fn(*args)``, computed once per run for ``key``; an exception is kept like a value."""
        if key not in self.memo:
            try:
                self.memo[key] = fn(*args)
            except Exception as e:                  # noqa: BLE001 - per-point report
                self.memo[key] = e
        return self.memo[key]


def _payload(est):
    return est.mean, est.std_error, est.trials_used


def _closed(value):
    """A closed form ``value(run, cfg)`` at each point, without standard error;
    an exception becomes that point's failure."""
    def evaluate(run, cfgs):
        out = []
        for cfg in cfgs:
            try:
                out.append((value(run, cfg), 0.0, 0))
            except Exception as e:                  # noqa: BLE001 - per-point report
                out.append(e)
        return out
    return evaluate


def _axis(engine, **kw):
    """A ``mc.<engine>`` called once for the whole power group.

    The draws do not depend on the power, so the whole axis shares them; an
    engine failure (a link-level geometry without passive weights) fails
    every point of the group.
    """
    def evaluate(run, cfgs):
        try:
            ests = getattr(mc, engine)(run.spec.plan, cfgs[0], [c.p_b for c in cfgs],
                                       n_workers=run.n_workers, **kw)
        except Exception as e:                      # noqa: BLE001 - per-point report
            return [e] * len(cfgs)
        return [_payload(e) for e in ests]
    return evaluate


# what the relay baselines read of a NetworkConfig (not M, K, N or R_m)
_RELAY_FIELDS = ("t1", "t2", "d1", "R", "r0", "alpha", "p_b", "sigma2", "ref_atten_db")


def _relay(scheme):
    """The relay ``scheme``'s rate at its best split of ``p_b``; it ignores the
    surface, so it is computed once per run for each set of the fields it reads,
    and every point with that set shares its value or its failure."""
    def split(run, cfg):
        _, est = mc.optimal_power_split(scheme, run.spec.plan, cfg, n_workers=run.n_workers)
        return _payload(est)

    def evaluate(run, cfgs):
        return [run.once((scheme, *(getattr(cfg, f) for f in _RELAY_FIELDS)), split, run, cfg)
                for cfg in cfgs]
    return evaluate


def _irs_model(run, cfgs):
    """Model-level surface sum rate: M times the one-user ergodic rate."""
    rates = _axis("simulate_ergodic_rate_axis")(run, cfgs)
    return [rate if isinstance(rate, Exception) else (cfg.M * rate[0], cfg.M * rate[1], rate[2])
            for cfg, rate in zip(cfgs, rates)]


def _sum_se(run, cfg) -> float:
    """M times the Gamma-model rate (0 where no passive weights exist).  The
    rate is computed once per run for each set of the inputs it reads, so the
    series built on it share its value and its failure, and points that differ
    only in M and K at equal Q share one rate."""
    if not cfg.solvable:
        return 0.0
    approx = an.gamma_approx(cfg)
    key = ("se", approx.shape, an.rate_snr_scale(approx, cfg), cfg.R, cfg.r0, cfg.alpha)
    rate = run.once(key, an.ergodic_rate_meijer, approx, cfg)
    if isinstance(rate, Exception):
        raise rate
    return cfg.M * rate


def _tail_outage(route, engine):
    """The outage ``an.<engine>(cfg)`` at each point; its tail model can leave
    [0, 1], which fails the point with a message naming ``route``."""
    def value(run, cfg):
        p = getattr(an, engine)(cfg)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{route} outage {p!r} is outside [0, 1]")
        return p
    return _closed(value)


def _power(run, cfg) -> float:
    return an.power_consumption(run.spec.power_model, cfg)


_SERIES = {
    "op_vs_snr": {
        "analytical": _tail_outage("closed-form", "op_closed_form"),
        "asymptotic": _tail_outage("asymptotic", "op_asymptotic"),
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
        "af_optimal": _relay("af"),
        "df_optimal": _relay("df"),
        "df_min_of_means": _relay("df_min_of_means"),
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
