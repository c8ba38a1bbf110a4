import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from irislab import analysis as an
from irislab import cli, harness
from irislab import montecarlo as mc
from irislab.geometry import NetworkConfig
from irislab.montecarlo import TrialPlan


def test_parse_power():
    assert harness.parse_power("30dBm") == pytest.approx(1.0, rel=1e-12)
    assert harness.parse_power("9dBW") == pytest.approx(10 ** 0.9, rel=1e-12)
    assert harness.parse_power("1.5W") == pytest.approx(1.5)
    assert harness.parse_power("-94 dBm") == pytest.approx(1e-3 * 10 ** -9.4, rel=1e-12, abs=0.0)
    assert harness.parse_power(0.25) == 0.25
    with pytest.raises(ValueError):
        harness.parse_power("ten watts")


def test_noise_default_matches_thermal_floor():
    # D = 100 MHz -> -174 + 80 = -94 dBm
    watts = harness.noise_power_watts(1e8)
    assert 10 * __import__("math").log10(watts / 1e-3) == pytest.approx(-94.0, abs=1e-9)
    # the bandwidth only sets the "auto" floor; it is not a NetworkConfig field
    assert harness.config_from_dict({}).sigma2 == watts
    assert harness.config_from_dict({"bandwidth_hz": 1e6}).sigma2 == harness.noise_power_watts(1e6)


def test_config_round_trip():
    cfg = NetworkConfig(M=2, K=3, N=8, p_b=0.125, t1=2.5)
    assert harness.config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_spec_validation():
    base = {"M": 1, "K": 1, "N": 2}
    with pytest.raises(ValueError):
        harness.spec_from_dict({"experiment": "nope", "sweep": {"pb_dbm": [1]},
                                "base": base, "plan": {"master_seed": 1}})
    with pytest.raises(ValueError):
        harness.spec_from_dict({"experiment": "op_vs_snr", "sweep": {"bogus": [1]},
                                "base": base, "plan": {"master_seed": 1}})
    with pytest.raises(ValueError):
        harness.spec_from_dict({"experiment": "op_vs_snr", "sweep": {"pb_dbm": [2, 1]},
                                "base": base, "plan": {"master_seed": 1}})
    with pytest.raises(ValueError, match="analytcal"):
        harness.spec_from_dict({"experiment": "op_vs_snr", "sweep": {"pb_dbm": [1]},
                                "base": base, "plan": {"master_seed": 1},
                                "outputs": ["analytcal"]})
    with pytest.raises(ValueError):      # a real series, but of another experiment
        harness.spec_from_dict({"experiment": "op_vs_snr", "sweep": {"pb_dbm": [1]},
                                "base": base, "plan": {"master_seed": 1},
                                "outputs": ["irs_model"]})


def _ee_dict():
    return {
        "experiment": "ee_sweep",
        "sweep": {"n_elements": [10, 20]},
        "base": {"M": 1, "K": 1, "N": 10, "t1": 5.0, "t2": 1.0,
                 "p_b": "1W", "sigma2": "auto"},
        "plan": {"trials": 100, "master_seed": 3},
        "power_model": {"P_Bs": "9dBW", "P_U": "10dBm", "P_L": "10dBm", "eps_b": 1.2},
    }


@pytest.mark.parametrize("section,key,value", [
    (None, "ouputs", "ee"), ("plan", "trails", 300), ("plan", "fidelity", "link_level"),
    ("power_model", "P_X", "1W"), ("base", "bandwith_hz", 1e6)])
def test_spec_rejects_unknown_keys(section, key, value, tmp_path):
    d = _ee_dict()
    (d[section] if section else d)[key] = value
    with pytest.raises(ValueError, match=key):
        harness.spec_from_dict(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2


def _relay_dict():
    return json.loads(resources.files("irislab").joinpath("presets", "relay_compare.json")
                      .read_text(encoding="utf-8"))


@pytest.mark.parametrize("key,value", [
    ("t1", 0.4), ("t2", 0.2), ("r0", 0.0), ("R", 0.5), ("d1", 0.0), ("alpha", 0.0),
    ("p_b", 0.0), ("sigma2", -1e-13), ("t1", math.nan)])
def test_spec_rejects_bad_relay_values(key, value, tmp_path):
    # the relays run on the base scenario
    d = _relay_dict()
    d["base"][key] = value
    with pytest.raises(ValueError, match=key):
        harness.spec_from_dict(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key,value,detail", [
    ("relay", {"d1": 25.0, "p_tot": "30dBm"}, "unknown top-level key(s) ['relay']"),
    ("sweep", {"ptot_dbm": [20, 30]}, "unknown sweep axis 'ptot_dbm'")])
def test_relay_section_and_budget_axis_are_rejected(key, value, detail, tmp_path, capsys):
    d = _relay_dict()
    d[key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["detail"].startswith(detail)


def test_integer_axes_reject_fractions(tmp_path):
    for axis in ("n_elements", "m_antennas", "k_antennas"):
        d = {**_ee_dict(), "experiment": "throughput_surface", "sweep": {axis: [4.0, 4.7]}}
        with pytest.raises(ValueError, match=axis):
            harness.spec_from_dict(d)
        d["sweep"] = {axis: [4.0, 5]}
        harness.spec_from_dict(d)
    # a JSON true is not 1 and a numeric string is not a number
    for axis, values in (("n_elements", [True, 4]), ("n_elements", ["4", "5"]),
                         ("n_elements", ["9", "10"]), ("n_elements", [4, None]),
                         ("pb_dbm", [False, 10]), ("t1", ["1.5"])):
        d = {**_ee_dict(), "experiment": "op_vs_snr", "sweep": {axis: values}}
        with pytest.raises(ValueError, match=f"axis '{axis}' must be a number"):
            harness.spec_from_dict(d)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    for key, value in (("trials", 1000.7), ("master_seed", 1.5), ("trials", True),
                       ("master_seed", "7"), ("trials", math.inf)):
        d = _ee_dict()
        d["plan"][key] = value
        with pytest.raises(ValueError, match=f"plan.{key}"):
            harness.spec_from_dict(d)
    d = _ee_dict()
    d["plan"].update(trials=1e6, master_seed=7.0)
    assert harness.spec_from_dict(d).plan == TrialPlan(trials=1000000, master_seed=7)


def test_sweep_rejects_an_axis_named_twice():
    # every config once took the last axis's value, under rows that carried both
    spec = cli._load("op_vs_snr")
    with pytest.raises(ValueError, match=r"^sweep names axes \['pb_dbm'\] more than once$"):
        replace(spec, sweep=[("pb_dbm", [0, 10]), ("pb_dbm", [20])])
    with pytest.raises(ValueError, match=r"\['n_elements', 'pb_dbm'\]"):
        replace(spec, sweep=[("pb_dbm", [0]), ("n_elements", [2]), ("pb_dbm", [20]),
                             ("n_elements", [4])])


@pytest.mark.parametrize("sweep", [
    "pb_dbm",                     # once: not enough values to unpack
    [(["x"], [1])],               # once: unhashable type: 'list'
    [("pb_dbm",)],
], ids=["a-string", "a-list-as-name", "a-name-without-values"])
def test_sweep_of_the_wrong_shape_names_the_sweep(sweep):
    # only the Python API reaches these; a config file's sweep is always an object
    spec = cli._load("op_vs_snr")
    with pytest.raises(ValueError, match=r"^sweep must be a list of \(axis name, values\) pairs"):
        replace(spec, sweep=sweep)


_MISSING = object()


@pytest.mark.parametrize("section,key,value,detail", [
    *(pytest.param(None, key, _MISSING, f"missing top-level key(s) ['{key}']", id=f"no-{key}")
      for key in ("experiment", "sweep", "base")),
    # a section of the wrong type once escaped as a TypeError naming no key
    *(pytest.param(None, key, 5, f"{key} section must map keys to values, got 5",
                   id=f"{key}-not-a-mapping") for key in ("base", "plan", "power_model")),
    pytest.param(None, "experiment", ["x"], "unknown experiment ['x']", id="experiment-a-list"),
    pytest.param("power_model", "eps_b", _MISSING, "missing power_model key(s) ['eps_b']",
                 id="no-power_model-eps_b"),
    pytest.param("sweep", "pb_dbm", 5, "axis 'pb_dbm' needs a list of values, got 5",
                 id="sweep-pb_dbm-not-a-list"),
    pytest.param("sweep", "pb_dbm", [0, 0], "axis 'pb_dbm' values must be strictly increasing, "
                 "got [0, 0]", id="sweep-pb_dbm-repeated"),
    pytest.param(None, "outputs", "ee", "outputs must be a list of series names, got 'ee'",
                 id="outputs-a-string"),
    pytest.param(None, "outputs", ["ee", "power_w", "ee"],
                 "outputs name series ['ee'] more than once", id="outputs-repeated"),
    ("base", "N", 2.5, "N must be an integer, got 2.5"),
    ("base", "K", 1.5, "K must be an integer, got 1.5"),
    ("base", "N", True, "N must be a number, got True"),
    ("base", "t1", "2", "t1 must be a number, got '2'"),
    ("base", "p_b", True, "p_b: cannot parse power True"),
    ("base", "sigma2", True, "sigma2: cannot parse power True"),
    ("base", "p_b", "xdBm", "p_b: could not convert"),
    ("base", "bandwidth_hz", True, "bandwidth_hz must be a number, got True"),
    ("base", "bandwidth_hz", 0, "bandwidth_hz must be positive, got 0"),
    ("base", "bandwidth_hz", -1, "bandwidth_hz must be positive, got -1"),
    ("base", "bandwidth_hz", "1e8", "bandwidth_hz must be a number, got '1e8'"),
    ("power_model", "eps_b", True, "eps_b must be a number, got True"),
    ("power_model", "eps_b", "1.2", "eps_b must be a number, got '1.2'"),
    ("power_model", "P_L", False, "P_L: cannot parse power False"),
    # an int too large for a float once escaped as a bare OverflowError
    pytest.param("base", "N", 10 ** 400, "N must fit in a float, got an int of 1329 bits",
                 id="base-N-int-too-large-for-a-float"),
    pytest.param("base", "R", 10 ** 400, "R must fit in a float, got an int of 1329 bits",
                 id="base-R-int-too-large-for-a-float"),
    pytest.param("sweep", "pb_dbm", [10 ** 400],
                 "axis 'pb_dbm' must fit in a float, got an int of 1329 bits",
                 id="sweep-pb_dbm-int-too-large-for-a-float"),
    pytest.param("plan", "trials", 10 ** 400,
                 "plan.trials must fit in a float, got an int of 1329 bits",
                 id="plan-trials-int-too-large-for-a-float"),
    *(pytest.param(section, key, 10 ** 400, f"{key}: power must fit in a float, got an int "
                   "of 1329 bits", id=f"{section}-{key}-int-too-large-for-a-float")
      for section, key in (("base", "p_b"), ("base", "sigma2"), ("power_model", "P_Bs"),
                           ("power_model", "P_U"), ("power_model", "P_L"))),
    pytest.param("base", "p_b", "4000dBm", "p_b: power '4000dBm' does not fit in a float",
                 id="base-p_b-dbm-too-large-for-a-float"),
    pytest.param("base", "bandwidth_hz", 10 ** 400,
                 "bandwidth_hz must fit in a float, got an int of 1329 bits",
                 id="base-bandwidth_hz-int-too-large-for-a-float"),
    # accepted once, after which every power_w and ee point failed
    pytest.param("power_model", "eps_b", 10 ** 400,
                 "eps_b must fit in a float, got an int of 1329 bits",
                 id="power_model-eps_b-int-too-large-for-a-float"),
    # every sweep point is checked when the spec is read, not mid-run
    pytest.param("sweep", "t1", [0.3], "sweep point (n_elements=10, t1=0.3): fading "
                 "parameters must be >= 0.5", id="sweep-t1-below-one-half"),
    pytest.param("sweep", "n_elements", [0], "sweep point (n_elements=0): need N >= K >= M",
                 id="sweep-n_elements-zero"),
    pytest.param("sweep", "m_antennas", [1, 11], "sweep point (n_elements=10, m_antennas=11): "
                 "need N >= K >= M >= 1, got N=10 K=11 M=11", id="sweep-m_antennas-above-N"),
    pytest.param("sweep", "pb_dbm", [4000], "sweep point (n_elements=10, pb_dbm=4000): p_b "
                 "does not fit in a float", id="sweep-pb_dbm-power-too-large-for-a-float"),
    # accepted once, after which every closed-form point failed with a bare
    # OverflowError, or with a Gamma shape of 7e29 that named no config value
    pytest.param("base", "alpha", 1e300, "alpha must keep R ** alpha finite, got alpha=1e+300 "
                 "and R=100.0", id="base-alpha-overflows-R-to-the-alpha"),
    pytest.param("sweep", "n_elements", [1e30], "sweep point (n_elements=1e+30): N must be at "
                 "most 2**53, got 1000000000000000019884624838656",
                 id="sweep-n_elements-above-2-to-the-53")])
def test_bad_config_values_name_their_key(section, key, value, detail, tmp_path, capsys):
    d = _ee_dict()
    if value is _MISSING:
        del (d[section] if section else d)[key]
    else:
        (d[section] if section else d)[key] = value
    with pytest.raises(ValueError, match=key):
        harness.spec_from_dict(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    # every target loads before any runs, so the preset before the bad config writes nothing
    assert cli.main(["run", "throughput_surface", str(path), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["detail"].startswith(detail)
    assert not (tmp_path / "throughput_surface.csv").exists()


# (config section, key, the name its number check reports); a power entry
# parses a string or a bool as a power string, so only its number reaches the
# check, under the name "power" after the key
_NUMBER_ENTRIES = (
    *(("base", f.name, f.name) for f in dataclasses.fields(NetworkConfig)
      if f.name not in ("p_b", "sigma2")),
    ("base", "bandwidth_hz", "bandwidth_hz"),
    ("power_model", "eps_b", "eps_b"),
    *(("sweep", axis, f"axis '{axis}'") for axis in harness._AXIS_FIELDS),
    *(("plan", key, f"plan.{key}") for key in ("trials", "master_seed")),
)
_POWER_ENTRIES = (*(("base", key) for key in ("p_b", "sigma2")),
                  *(("power_model", key) for key in ("P_Bs", "P_U", "P_L")))
_NOT_NUMBERS = (
    ("true", True, "must be a number, got True"), ("string", "1", "must be a number, got '1'"),
    ("nan", math.nan, "must be finite, got nan"), ("inf", math.inf, "must be finite, got inf"),
    ("int-past-float", 10 ** 400, "must fit in a float, got an int of 1329 bits"))


@pytest.mark.parametrize("section,key,name,value,detail", [
    *(pytest.param(section, key, name, value, detail, id=f"{section}-{key}-{label}")
      for section, key, name in _NUMBER_ENTRIES for label, value, detail in _NOT_NUMBERS),
    *(pytest.param(section, key, f"{key}: power", value, detail, id=f"{section}-{key}-{label}")
      for section, key in _POWER_ENTRIES for label, value, detail in _NOT_NUMBERS[2:])])
def test_every_config_number_is_checked_by_as_float(section, key, name, value, detail):
    # one check for every number a config file holds; each of its holes was
    # once closed at only one of six copies of the check
    d = _ee_dict()
    if section == "sweep":
        d["sweep"] = {key: [value]}
    else:
        d[section][key] = value
    with pytest.raises(ValueError) as caught:
        harness.spec_from_dict(json.loads(json.dumps(d)))
    assert str(caught.value) == f"{name} {detail}"


def test_integral_float_counts_run_like_integers():
    # "N": 4.0 once made every Monte Carlo point fail with a TypeError
    def run(base):
        d = {"experiment": "op_vs_snr", "sweep": {"pb_dbm": [0, 10]},
             "base": {"t1": 2.0, "t2": 1.0, **base}, "plan": {"trials": 500, "master_seed": 5},
             "outputs": ["analytical", "montecarlo_model"]}
        spec = harness.spec_from_dict(d)
        return spec.base, harness.run_experiment(spec)
    cfg, floats = run({"M": 1.0, "K": 1.0, "N": 4.0})
    assert (type(cfg.M), type(cfg.K), type(cfg.N)) == (int, int, int)
    _, ints = run({"M": 1, "K": 1, "N": 4})
    assert floats.failures == ints.failures == []
    assert floats.rows == ints.rows and len(ints.rows) == 4


def test_negative_seed_is_rejected_when_the_spec_is_read():
    d = _ee_dict()
    d["plan"]["master_seed"] = -1
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        harness.spec_from_dict(d)

def _mini_spec(trials=2000, seed=11):
    return harness.spec_from_dict({
        "experiment": "op_vs_snr",
        "sweep": {"pb_dbm": [-6, 4, 14]},
        "base": {"M": 1, "K": 1, "N": 2, "t1": 2.0, "t2": 1.0,
                 "p_b": "0dBm", "sigma2": "auto"},
        "plan": {"trials": trials, "master_seed": seed},
        "outputs": ["analytical", "asymptotic", "montecarlo_model"],
    })


def test_link_series_one_engine_call_per_power_group(monkeypatch):
    calls = []
    real = mc.simulate_op_axis

    def counting(plan, cfg, powers, **kw):
        calls.append((kw.get("fidelity"), cfg.N, len(powers)))
        return real(plan, cfg, powers, **kw)

    monkeypatch.setattr(mc, "simulate_op_axis", counting)
    spec = cli._load("op_vs_snr")
    spec = replace(spec, outputs=["montecarlo_link"], base=replace(spec.base, M=2, K=3, N=6),
                   plan=replace(spec.plan, trials=50),
                   sweep=[("n_elements", [5, 6]), ("pb_dbm", [0, 10, 20])])
    result = harness.run_experiment(spec)
    assert calls == [("link_level", 5, 3), ("link_level", 6, 3)]
    # N = 5 < MK = 6 has no passive weights: every point of its group fails
    assert [axes for axes, *_ in result.rows] == [(6.0, p) for p in (0.0, 10.0, 20.0)]
    assert [axes for axes, _, _ in result.failures] == [(5.0, p) for p in (0.0, 10.0, 20.0)]
    assert all(msg.startswith("ValueError: link level needs N >= M*K")
               for _, _, msg in result.failures)


def _counting_config_builds(monkeypatch):
    built = []
    real = NetworkConfig.__post_init__
    monkeypatch.setattr(NetworkConfig, "__post_init__",
                        lambda self: built.append(self) or real(self))
    return built


def test_spec_builds_each_point_once():
    d = {**_ee_dict(), "experiment": "throughput_surface", "outputs": ["analytical"],
         "sweep": {"m_antennas": [1, 2], "n_elements": [10, 20], "pb_dbm": [0, 10, 20]}}
    with pytest.MonkeyPatch.context() as mp:
        built = _counting_config_builds(mp)
        spec = harness.spec_from_dict(d)
    points = [tuple(map(float, p)) for p in itertools.product([1, 2], [10, 20], [0, 10, 20])]
    assert len(built) == 1 + len(points)         # the base, then each point once
    assert [p for pts, _ in spec.groups for p in pts] == points
    # one group per (m_antennas, n_elements), its points in power order
    assert [pts for pts, _ in spec.groups] == [tuple(points[i:i + 3]) for i in range(0, 12, 3)]
    for pts, cfgs in spec.groups:
        assert [(c.M, c.K, c.N, c.p_b) for c in cfgs] == [
            (int(m), int(m), int(n), 1e-3 * 10.0 ** (pb / 10.0)) for m, n, pb in pts]


@pytest.mark.parametrize("make", [
    _mini_spec, lambda: cli._load("throughput_surface"),
    lambda: cli._smoke(cli._load("relay_compare"), plan=TrialPlan(trials=500, master_seed=3))],
    ids=["op_vs_snr", "throughput_surface", "relay_compare"])
def test_run_experiment_builds_no_config(make, monkeypatch):
    def no_build(*args):
        raise AssertionError("a config was built during the run")

    spec = make()
    monkeypatch.setattr(harness, "_apply_axes", no_build)
    built = _counting_config_builds(monkeypatch)
    result = harness.run_experiment(spec)
    assert built == []
    assert len(result.rows) + len(result.failures) == (
        math.prod(len(v) for _, v in spec.sweep) * len(spec.outputs))


def test_spec_is_frozen_and_smoke_leaves_it_unchanged():
    spec = cli._load("op_vs_snr")
    for name, value in (("sweep", [("pb_dbm", [0, 10])]), ("plan", TrialPlan(10, 1)),
                        ("base", NetworkConfig()), ("outputs", ["analytical"]),
                        ("groups", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
    before = (spec.sweep, spec.plan, spec.outputs, spec.groups)
    smoke = cli._smoke(spec)
    assert (spec.sweep, spec.plan, spec.outputs, spec.groups) == before
    assert smoke.sweep == (("n_elements", (1, 2, 3)), ("pb_dbm", (-10, 6, 20)))
    assert smoke.plan == replace(spec.plan, trials=1000)
    assert sum(len(pts) for pts, _ in smoke.groups) == 9


def test_run_experiment_rows_and_failures():
    result = harness.run_experiment(_mini_spec())
    series = {s for _, s, *_ in result.rows}
    assert series == {"analytical", "asymptotic", "montecarlo_model"}
    # the asymptotic series diverges at the lowest power and is reported
    assert any(s == "asymptotic" for _, s, _ in result.failures)
    assert all(se == 0.0 for _, s, _, se, _ in result.rows if s == "analytical")
    assert all(se > 0.0 for _, s, v, se, _ in result.rows
               if s == "montecarlo_model" and 0.0 < v < 1.0)


def test_emit_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.emit_csv(harness.run_experiment(_mini_spec()), p1)
    harness.emit_csv(harness.run_experiment(_mini_spec()), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_count_invariance():
    r1 = harness.run_experiment(_mini_spec())
    r3 = harness.run_experiment(_mini_spec(), n_workers=3)
    assert r1.rows == r3.rows


def test_emit_csv_empty_result(tmp_path):
    empty = harness.ExperimentResult(axis_names=["pb_dbm"], rows=[], metadata={})
    path = tmp_path / "empty.csv"
    harness.emit_csv(empty, path)
    assert path.read_text() == "axis_pb_dbm,series,value,std_error,trials\n"


def test_emit_json_round_trip(tmp_path):
    result = harness.run_experiment(_mini_spec())
    path = tmp_path / "r.json"
    harness.emit_json(result, path)
    again = json.loads(path.read_text())
    assert [(tuple(axes), *rest) for axes, *rest in again["rows"]] == result.rows
    assert again["metadata"] == result.metadata
    assert again["failures"] == [[list(axes), *rest] for axes, *rest in result.failures]


def test_op_family_curves_steepen_with_elements():
    # more elements: lower outage at high power and faster decay
    spec = harness.spec_from_dict({
        "experiment": "op_vs_snr",
        "sweep": {"n_elements": [1, 2, 3], "pb_dbm": [6, 16]},
        "base": {"M": 1, "K": 1, "N": 2, "t1": 2.0, "t2": 1.0,
                 "p_b": "0dBm", "sigma2": "auto"},
        "plan": {"trials": 1000, "master_seed": 5},
        "outputs": ["analytical"],
    })
    result = harness.run_experiment(spec)
    vals = {axes: v for axes, s, v, _, _ in result.rows if s == "analytical"}
    for pb in (6.0, 16.0):
        assert vals[(1.0, pb)] > vals[(2.0, pb)] > vals[(3.0, pb)]
    drop = [vals[(n, 6.0)] / vals[(n, 16.0)] for n in (1.0, 2.0, 3.0)]
    assert drop[0] < drop[1] < drop[2]


def test_all_presets_parse_and_smoke_quickly(tmp_path):
    for name in cli._preset_names():
        spec = cli._smoke(cli._load(name))
        t0 = time.monotonic()
        result = harness.run_experiment(spec)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"{name} smoke run took {elapsed:.1f}s"
        assert result.rows, name


@pytest.mark.parametrize("name", cli._preset_names())
def test_preset_csv_bytes_do_not_depend_on_workers(name, tmp_path):
    # two full blocks plus one trial, so two workers really split the work
    csv = {}
    for n_workers in (1, 2):
        spec = cli._smoke(cli._load(name))
        spec = replace(spec, plan=replace(spec.plan, trials=2 * mc.BLOCK + 1))
        csv[n_workers] = tmp_path / f"{n_workers}.csv"
        harness.emit_csv(harness.run_experiment(spec, n_workers=n_workers), csv[n_workers])
    assert csv[1].read_bytes() == csv[2].read_bytes()


def test_relay_series_computed_once_per_relay_config(monkeypatch):
    calls = []
    real = mc.optimal_power_split

    def counting(*args, **kwargs):
        calls.append(args[2].p_b)
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "optimal_power_split", counting)
    spec = cli._load("relay_compare")
    spec = replace(spec, plan=replace(spec.plan, trials=1000),
                   sweep=[("pb_dbm", [20, 30]), ("n_elements", [1, 2, 5])])
    result = harness.run_experiment(spec)
    assert len(calls) == 2 * 3          # per budget: af, df, df min-of-means
    assert len(set(calls)) == 2
    for series in ("af_optimal", "df_optimal", "df_min_of_means"):
        vals = {axes: v for axes, s, v, *_ in result.rows if s == series}
        assert vals[(20.0, 1.0)] == vals[(20.0, 5.0)] != vals[(30.0, 5.0)]
    irs = {axes: v for axes, s, v, *_ in result.rows if s == "irs_model"}
    assert all(irs[(20.0, n)] < irs[(30.0, n)] for n in (1.0, 2.0, 5.0))


def test_irs_model_engine_error_fails_its_points(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(mc, "simulate_ergodic_rate_axis", broken)
    spec = replace(cli._load("relay_compare"), outputs=["irs_model"],
                   sweep=[("n_elements", [2]), ("pb_dbm", [20, 30])])
    result = harness.run_experiment(spec)
    assert result.rows == []
    assert result.failures == [((2.0, p), "irs_model", "RuntimeError: forced")
                               for p in (20.0, 30.0)]


def test_relay_engine_error_fails_its_points(monkeypatch):
    calls = []

    def broken(*args, **kwargs):
        calls.append(args[0])
        raise ValueError("forced")

    monkeypatch.setattr(mc, "optimal_power_split", broken)
    spec = cli._load("relay_compare")
    spec = replace(spec, plan=replace(spec.plan, trials=1000),
                   sweep=[("n_elements", [1, 2]), ("pb_dbm", [20, 30])])
    result = harness.run_experiment(spec)
    relays = ("af_optimal", "df_min_of_means", "df_optimal")
    points = [(n, p) for n in (1.0, 2.0) for p in (20.0, 30.0)]
    assert result.failures == [(pt, s, "ValueError: forced") for pt in points for s in relays]
    assert sorted((axes, s) for axes, s, *_ in result.rows) == [(pt, "irs_model") for pt in points]
    # the failure is shared like a value: one call per scheme and budget
    assert sorted(calls) == sorted(["af", "df", "df_min_of_means"] * 2)


def test_cli_run_and_errors(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(_ee_dict()))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    out = (tmp_path / "ee_sweep.csv").read_text().splitlines()
    assert out[0] == "axis_n_elements,series,value,std_error,trials"
    assert len(out) == 7   # 2 points x 3 series
    assert cli.main(["run", "does_not_exist", "--out", str(tmp_path)]) == 2
    assert cli.main(["presets"]) == 0
    names = capsys.readouterr().out.split()
    assert "op_vs_snr" in names


def test_cli_runs_several_targets_with_one_digest_each(tmp_path, capsys):
    out = tmp_path / "results"
    assert cli.main(["run", "throughput_surface", "ee_sweep", "--smoke", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for name, line in zip(("throughput_surface", "ee_sweep"), lines):
        digest = hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
        assert line.startswith(f"wrote {out / name}.csv and .json: ")
        assert line.endswith(f" 0 per-point failures, sha256 {digest}")
        meta = json.loads((out / f"{name}.json").read_text())["metadata"]
        assert meta["experiment"] == name
        # the kernels the rate digests rest on go to the JSON, never to the CSV
        assert meta["numpy_dispatch"] == cli.numpy_dispatch()
        assert set(meta["numpy_dispatch"]) == {"log2", "power"}
        assert b"dispatch" not in (out / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("targets,error,detail", [
    (["ee_sweep", "op_vs_snrr"], "FileNotFoundError",
     "no config file or preset named 'op_vs_snrr'; presets: ee_sweep, "),
    (["ee_sweep", "exp.json"], "ValueError",
     "targets 'ee_sweep' and 'exp.json' would both write ee_sweep.csv"),
    (["ee_sweep", "--workers", "0"], "ValueError", "--workers must be >= 1, got 0"),
    (["ee_sweep", "--series", ","], "ValueError", "--series ',' names no series"),
    (["ee_sweep", "--series", " "], "ValueError", "--series ' ' names no series"),
    (["ee_sweep", "--series", ""], "ValueError", "--series '' names no series"),
    (["ee_sweep", "--series", "ee,power_w,ee"], "ValueError",
     "outputs name series ['ee'] more than once"),
], ids=["unknown_target", "same_output_file", "no_workers", "series_comma", "series_blank",
        "series_empty", "series_repeated"])
def test_cli_checks_every_target_before_any_run(targets, error, detail, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(json.dumps(_ee_dict()))
    assert cli.main(["run", *targets, "--smoke", "--out", "results"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reported = json.loads(captured.err)
    assert reported["error"] == error and reported["detail"].startswith(detail)
    assert not (tmp_path / "results").exists()


def test_op_closed_form_outside_the_unit_interval_fails_its_point():
    # near-equal fading parameters blow the tail constant up: the raw value passes 1
    spec = harness.spec_from_dict({
        "experiment": "op_vs_snr",
        "sweep": {"pb_dbm": [-40]},
        "base": {"N": 3, "t1": 1.02, "t2": 1.0},
        "plan": {"trials": 1000, "master_seed": 1},
        "outputs": ["analytical"],
    })
    raw = an.op_closed_form(replace(spec.base, p_b=1e-3 * 10.0 ** (-40 / 10.0)))
    assert raw > 1.0
    result = harness.run_experiment(spec)
    assert result.rows == []
    assert result.failures == [
        ((-40.0,), "analytical", f"ValueError: closed-form outage {raw!r} is outside [0, 1]")]


def test_asymptotic_outside_the_unit_interval_fails_its_point():
    # near-equal fading parameters: the series once wrote 5.2e9 and 1.0e8 to the CSV
    spec = harness.spec_from_dict({
        "experiment": "op_vs_snr",
        "sweep": {"pb_dbm": [-8.6, -7.6]},
        "base": {"N": 13, "t1": 0.684, "t2": 0.687, "alpha": 2.555},
        "plan": {"master_seed": 1},
        "outputs": ["analytical", "asymptotic"],
    })
    points, cfgs = spec.groups[0]
    assert all(an.op_asymptotic(cfg) > 1.0 for cfg in cfgs)
    result = harness.run_experiment(spec)
    assert result.rows == []
    assert result.failures == [
        failure for point, cfg in zip(points, cfgs) for failure in (
            (point, "analytical",
             f"ValueError: closed-form outage {an.op_closed_form(cfg)!r} is outside [0, 1]"),
            (point, "asymptotic",
             f"ValueError: asymptotic outage {an.op_asymptotic(cfg)!r} is outside [0, 1]"))]


def test_cli_series_subset(tmp_path):
    cfg = {
        "experiment": "op_vs_snr",
        "sweep": {"pb_dbm": [6]},
        "base": {"M": 1, "K": 1, "N": 2, "p_b": "0dBm", "sigma2": "auto"},
        "plan": {"trials": 1000, "master_seed": 4},
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["run", str(p), "--series", "analytical",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "op_vs_snr.csv").read_text().splitlines()
    assert len(lines) == 2 and ",analytical," in lines[1]
    assert cli.main(["run", str(p), "--series", "bogus", "--out", str(tmp_path)]) == 2


def test_cli_overrides_build_the_points_once(monkeypatch):
    def points(spec):
        return math.prod(len(v) for _, v in spec.sweep)

    full = cli._load("throughput_surface")
    calls = []
    real = harness._apply_axes
    monkeypatch.setattr(harness, "_apply_axes", lambda *a: calls.append(a[2]) or real(*a))
    args = cli.build_parser().parse_args(["run", "throughput_surface", "--smoke", "--trials",
                                          "5", "--seed", "2", "--series", "analytical"])
    [spec] = cli._specs(args)
    # the preset's points when it is read, then the smoke points in one replace
    assert len(calls) == points(full) + points(spec) and points(spec) < points(full)
    assert (spec.plan, spec.outputs) == (TrialPlan(trials=5, master_seed=2), ("analytical",))


def test_cli_seed_and_trials_override(tmp_path):
    cfg = {
        "experiment": "op_vs_snr",
        "sweep": {"pb_dbm": [4]},
        "base": {"M": 1, "K": 1, "N": 2, "p_b": "0dBm", "sigma2": "auto"},
        "plan": {"trials": 50000, "master_seed": 1},
        "outputs": ["montecarlo_model"],
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["run", str(p), "--trials", "2000", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
    first = (tmp_path / "op_vs_snr.csv").read_text()
    assert ",2000" in first.splitlines()[1]
    assert cli.main(["run", str(p), "--trials", "2000", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "op_vs_snr.csv").read_text() == first


def _ee_spec(outputs):
    return harness.spec_from_dict({
        "experiment": "ee_sweep",
        "sweep": {"n_elements": [100, 250]},
        "base": {"M": 1, "K": 1, "N": 10, "t1": 5.0, "t2": 1.0,
                 "p_b": "1W", "sigma2": "auto"},
        "plan": {"trials": 100, "master_seed": 3},
        "outputs": outputs,
        "power_model": {"P_Bs": "9dBW", "P_U": "10dBm", "P_L": "10dBm", "eps_b": 1.2},
    })


def test_ee_sweep_failures_are_per_series(monkeypatch):
    # the Meijer-G rate overflows at N=250, t1=5: only the series built on it fail
    result = harness.run_experiment(_ee_spec(["power_w"]))
    assert [(axes, s) for axes, s, *_ in result.rows] == [((100.0,), "power_w"),
                                                          ((250.0,), "power_w")]
    assert result.failures == []

    calls = []
    real = an.ergodic_rate_meijer
    monkeypatch.setattr(an, "ergodic_rate_meijer",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    result = harness.run_experiment(_ee_spec(["se_analytical", "power_w", "ee"]))
    assert len(calls) == 2                  # the SE once per point, not once per series
    assert {(axes, s) for axes, s, *_ in result.rows} == {
        ((100.0,), "se_analytical"), ((100.0,), "power_w"), ((100.0,), "ee"),
        ((250.0,), "power_w")}
    assert [(axes, s) for axes, s, _ in result.failures] == [
        ((250.0,), "ee"), ((250.0,), "se_analytical")]
    assert result.failures[0][2] == result.failures[1][2]


def test_sum_se_computed_once_per_rate_input(monkeypatch):
    # K follows M, so Q = 1 and the rate depends on N only: 16 solvable points, 5 rates
    calls = []
    real = an.ergodic_rate_meijer
    monkeypatch.setattr(an, "ergodic_rate_meijer",
                        lambda *a, **k: calls.append(a[1].N) or real(*a, **k))
    result = harness.run_experiment(cli._load("throughput_surface"))
    assert len(result.rows) == 20 and not result.failures
    assert sorted(calls) == [4, 8, 16, 32, 64]


def test_ergodic_analytical_fails_per_point(monkeypatch):
    spec = replace(cli._smoke(cli._load("ergodic_vs_snr")), outputs=["analytical"])
    bad_pb = 1e-3 * 10.0 ** (spec.sweep[-1][1][1] / 10.0)
    real = an.ergodic_rate_meijer

    def rate(approx, cfg):
        if cfg.t1 == 1.0 and cfg.N == 4 and cfg.p_b == bad_pb:
            raise RuntimeError("forced")
        return real(approx, cfg)

    monkeypatch.setattr(an, "ergodic_rate_meijer", rate)
    result = harness.run_experiment(spec)
    assert [(axes, msg) for axes, _, msg in result.failures] == [
        ((1.0, 4.0, spec.sweep[-1][1][1]), "RuntimeError: forced")]
    assert len(result.rows) == 2 * 2 * 3 - 1


def test_ergodic_analytical_overflow_fails_only_its_point():
    # Gamma shape N/scale = 169: the contour overflows at 20 dBm; the rows at 0 and
    # 10 dBm are the values recorded before the overflow had its own error
    spec = replace(cli._load("ergodic_vs_snr"), outputs=["analytical"],
                   sweep=[("t1", [2.0]), ("n_elements", [338]), ("pb_dbm", [0.0, 10.0, 20.0])])
    result = harness.run_experiment(spec)
    assert result.rows == [((2.0, 338.0, 0.0), "analytical", 11.888110902135509, 0.0, 0),
                           ((2.0, 338.0, 10.0), "analytical", 15.209423816335866, 0.0, 0)]
    [(axes, series, msg)] = result.failures
    assert (axes, series) == ((2.0, 338.0, 20.0), "analytical")
    assert msg.startswith("ConvergenceError: contour integral overflows (-inf): "
                          "a1=0.0, b3=169.0, z=")


def test_ergodic_analytical_near_the_cap_fails_with_its_error_bound():
    # Gamma shape 169 and 169.5: a bracket whose bound is infinite or which is
    # itself infinite fails its point, as does an overflowing contour term
    spec = replace(cli._load("ergodic_vs_snr"), outputs=["analytical"],
                   sweep=[("t1", [2.0]), ("n_elements", [338, 339]), ("pb_dbm", [-10.0, 15.0])])
    result = harness.run_experiment(spec)
    assert result.rows == [((2.0, 338.0, -10.0), "analytical", 8.572312073789849, 0.0, 0)]
    assert [(axes, msg.split(" (")[0]) for axes, _, msg in result.failures] == [
        ((2.0, 338.0, 15.0), "ConvergenceError: Meijer-G rate bracket 6.724296603426535e+306 "
                             "has error bound inf"),
        ((2.0, 339.0, -10.0), "ConvergenceError: Meijer-G rate bracket inf "
                              "has error bound 2.18938925795996e+307"),
        ((2.0, 339.0, 15.0), "ConvergenceError: contour integral overflows")]


# SHA-256 of each preset's closed-form series at its shipped grid, recorded
# before the contour's node table existed: the table must not move a byte.
# The rate oracle's entry was recorded with its radial average in closed form
# and its outer integral in one QUADPACK call without break points.
_SHIPPED_SHA256 = {
    ("ergodic_vs_snr", ("analytical",)):
        "7c169fac4b9e8c156ea8f261905329c22d1ef9095b3da4c6ce56e17a1732a39d",
    ("ergodic_vs_snr", ("quadrature",)):
        "5bb88e0147a3df537ee8fec77304d4579681edef298add89c2cf1718f6f12301",
    ("throughput_surface", ("analytical",)):
        "006a018bac00215891f64a0edbbbe3ce77e93fb784ab97bdb1e3bdc406457723",
    ("ee_sweep", ("se_analytical", "power_w", "ee")):
        "70bf6a479fd518b263b2f412a880566d5bc4582cf4d0d267ca0a6101914616b9",
    ("op_vs_snr", ("analytical",)):
        "cd2c54ce43e0c176fa166c78164713e9bf74b797d9e4c901f85d2b48b383dcc6",
    ("op_vs_snr", ("asymptotic",)):
        "12d996b35116dd77ccd6d4155f8a68b416d6d0cb83f6469eae1671d83a968547",
    ("op_fading_sweep", ("analytical",)):
        "c538a359ba066d12ac629732355fffbfacba827e11c68c77e08da4a3f8d17d9b",
}


@pytest.mark.parametrize("name,outputs", list(_SHIPPED_SHA256))
def test_closed_forms_at_shipped_scale_keep_their_bytes(name, outputs, tmp_path):
    result = harness.run_experiment(replace(cli._load(name), outputs=list(outputs)))
    harness.emit_csv(result, tmp_path / "out.csv")
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == \
        _SHIPPED_SHA256[name, outputs]


_ENTRIES = [(experiment, series) for experiment, table in harness._SERIES.items()
            for series in table]

# SHA-256 of each entry's CSV in the test below, so any byte drift in a series fails it
_CSV_SHA256 = {
    ("op_vs_snr", "analytical"):
        "75ee3d8bde7ef36db781105199f17833d9c5ff592322b4e831a0c2e05e427a2c",
    ("op_vs_snr", "asymptotic"):
        "aae641eb2287862d24ccb8fd65c280e35e23b900441a84bac61eebfc4d1da478",
    ("op_vs_snr", "montecarlo_model"):
        "782d9e894c97dd49955ec397296bbfb5a16eba7c41ad85a38ec79e5dc00f81d3",
    ("op_vs_snr", "montecarlo_link"):
        "1d437ef8271cb9990cbac2e8eaeb34eb5c502bc45e7a3afde2ab75ff2ce4f8e6",
    ("op_fading_sweep", "analytical"):
        "8fd06052d105e051dbaed69545adc018f445e5a02c4210d24b85b94a4c20b03d",
    ("op_fading_sweep", "montecarlo_model"):
        "65318112fcc64fdce97c7d4288473fd01e82a0d4fe540a16adc0e11fb8f964a6",
    ("ergodic_vs_snr", "analytical"):
        "f825ccf34765edad3daea74736cceb03fd7f5c8d5ee7fd0c89b551d53a6777dd",
    ("ergodic_vs_snr", "quadrature"):
        "a1a4191178f394afcc0e986ae36e078a7096d77094383914d2439f7491b30312",
    ("ergodic_vs_snr", "montecarlo_model"):
        "c8eb709e3cbcc20db4ea76679908ae91f1ad1c6b69a83185c8f3a9cd0e378760",
    ("ergodic_vs_snr", "montecarlo_link"):
        "614604c75bd5bfa9b6243261c0922d95ddd9291ad925f36e9cb25a785ce029b3",
    ("relay_compare", "irs_model"):
        "1a2fb298aff4110784fa3fcbad3ee111f79beabc15b64f68dcae8bd642933fcd",
    ("relay_compare", "af_optimal"):
        "79639a91322e832bf436124c8332b85190c105d46ecff1b55345b26868aa77d1",
    ("relay_compare", "df_optimal"):
        "c67ea90c7bb7663020ce94cc2e618818ddb591b30a0df4a6b10d46805d310a31",
    ("relay_compare", "df_min_of_means"):
        "506dc48c87d761b2021367591af41e77c35c246b6de9fd06ac17f49cb129c28a",
    ("throughput_surface", "analytical"):
        "7bbfb7246d61995e6c44206edb74b811a33a63d315e1ab7f876f72b3d97cc244",
    ("ee_sweep", "se_analytical"):
        "2698478f968e4e8f53dc169ca1a2c8b298c90a7073d19746c48766b8c4c6c90f",
    ("ee_sweep", "power_w"):
        "da67f8b2763b4f9de7e1df0a7d9736b7b8613964c85d9ea012a5d83af7b496ad",
    ("ee_sweep", "ee"): "57bbb57e4942c3f41e3350e39c6111ef041645cb98d8ebf3a0bb0bb45cd6fb8a",
}

# The model-level rate sums np.log2 of numpy-powered path losses, so its bytes
# rest on the SIMD target numpy runs float64 log2 and power on.  The table
# above holds on X86_V4 (AVX-512) kernels; "baseline" was recorded under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", the kernels numpy
# picks on an x86-64 host without AVX-512.
_CSV_SHA256_BY_TARGET = {
    "X86_V4": _CSV_SHA256,
    "baseline": {**_CSV_SHA256, ("relay_compare", "irs_model"):
                 "71e85646cf9d6d7bddcd5abd82e9601471646db28d57ebe5e38114aa2bd92746"},
}
# `irislab run relay_compare --smoke`, every series, by the same targets
_RELAY_SMOKE_SHA256 = {
    "X86_V4": "f90c7761936594ad4d81c9390b0ffa4bf8c45a0bc28005c573a44c2050af98d4",
    "baseline": "40c7928f0ab9267468fb6c35bc94f5133824f03aa4e601313a4bae92ea2721fd",
}


def _dispatch_target():
    """``X86_V4`` or ``baseline``: the target of numpy's log2 and power kernels."""
    target = "/".join(sorted({t.partition("(")[0] for t in cli.numpy_dispatch().values()}))
    if target not in _CSV_SHA256_BY_TARGET:
        pytest.fail(f"no pinned digests for numpy's {target} log2/power kernels")
    return target


def _pinned_sha256(experiment, series):
    return _CSV_SHA256_BY_TARGET[_dispatch_target()][experiment, series]


@pytest.mark.parametrize("experiment,series", _ENTRIES)
def test_every_series_entry_reports_every_point(experiment, series, tmp_path):
    # every preset is named after its experiment
    spec = replace(cli._smoke(cli._load(experiment)), outputs=[series])
    spec = replace(spec, plan=replace(spec.plan, trials=2 * mc.BLOCK + 1))
    if series == "montecarlo_link":         # about 4k trials/s: two points, one block
        spec = replace(spec, sweep=[(n, v[:2] if n == "pb_dbm" else v[:1]) for n, v in spec.sweep],
                       plan=replace(spec.plan, trials=300))
    points = list(itertools.product(*(map(float, v) for _, v in spec.sweep)))
    csv = {}
    for n_workers in (1, 2):
        result = harness.run_experiment(spec, n_workers=n_workers)
        reported = [(axes, s) for axes, s, *_ in result.rows]
        reported += [(axes, s) for axes, s, _ in result.failures]
        assert sorted(reported) == [(p, series) for p in points]
        csv[n_workers] = tmp_path / f"{n_workers}.csv"
        harness.emit_csv(result, csv[n_workers])
    assert csv[1].read_bytes() == csv[2].read_bytes()
    assert hashlib.sha256(csv[1].read_bytes()).hexdigest() == _pinned_sha256(experiment, series)


def test_series_wall_times_go_to_the_json_only(tmp_path):
    spec = replace(cli._smoke(cli._load("ergodic_vs_snr")), outputs=["montecarlo_model"])
    spec = replace(spec, plan=replace(spec.plan, trials=2 * mc.BLOCK + 1))
    result = harness.run_experiment(spec)
    harness.emit_csv(result, tmp_path / "r.csv")
    harness.emit_json(result, tmp_path / "r.json")
    assert hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest() == \
        _pinned_sha256("ergodic_vs_snr", "montecarlo_model")
    payload = json.loads((tmp_path / "r.json").read_text())
    assert set(payload) == {"metadata", "axis_names", "rows", "failures"}
    assert set(payload["metadata"]) == {"experiment", "seed", "trials", "version",
                                        "wall_time_s", "series_wall_s"}
    # a series asked for twice is rejected: its rows would collapse into one per point
    with pytest.raises(ValueError, match=r"outputs name series \['analytical'\] more than once"):
        replace(spec, outputs=["analytical", "montecarlo_model", "analytical"])
    spec = replace(spec, outputs=["analytical", "montecarlo_model"])
    times = harness.run_experiment(spec).metadata["series_wall_s"]
    assert list(times) == ["analytical", "montecarlo_model"]
    assert all(type(t) is float and t >= 0.0 for t in times.values())


_PINNED_DIGEST_TESTS = ["test_closed_forms_at_shipped_scale_keep_their_bytes",
                        "test_every_series_entry_reports_every_point",
                        "test_series_wall_times_go_to_the_json_only",
                        "test_scipy_loads_only_for_the_closed_forms"]


def test_pinned_digests_hold_on_baseline_kernels():
    # the pinned-digest tests again, with numpy's AVX-512 kernels switched off
    dispatch = cli.numpy_dispatch()
    if set(dispatch.values()) != {"X86_V4"}:
        pytest.skip(f"no X86_V4 kernels to switch off: numpy runs {dispatch}")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", " or ".join(_PINNED_DIGEST_TESTS)],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout


# Runs in a fresh interpreter: imports the command line, runs each named series
# of a smoke preset as the digest table above pins it (or, with no series, the
# whole smoke preset through `irislab run`), and prints the CSV digests and
# every scipy module it loaded.
_FOOTPRINT = """
import hashlib, json, sys, tempfile
from dataclasses import replace
from pathlib import Path
import irislab.cli as cli
from irislab import harness, montecarlo as mc
experiment, *outputs = sys.argv[1:]
digests = {}
with tempfile.TemporaryDirectory() as out:
    for series in outputs:
        spec = replace(cli._smoke(cli._load(experiment)), outputs=[series])
        spec = replace(spec, plan=replace(spec.plan, trials=2 * mc.BLOCK + 1))
        harness.emit_csv(harness.run_experiment(spec), Path(out) / "s.csv")
        digests[series] = hashlib.sha256((Path(out) / "s.csv").read_bytes()).hexdigest()
    if not outputs:
        assert cli.main(["run", experiment, "--smoke", "--out", out]) == 0
        digests["*"] = hashlib.sha256((Path(out) / f"{experiment}.csv").read_bytes()).hexdigest()
loaded = sorted(n for n in sys.modules if n.partition(".")[0] == "scipy")
print(json.dumps({"digests": digests, "loaded": loaded}))
"""


# a closed form runs no module of scipy's subpackages, only the two compiled
# extensions that specfun loads alone
_UFUNCS = "scipy.special._special_ufuncs"
_QUADPACK = "scipy.integrate._quadpack"


@functools.cache
def _scipy_alone():
    """The scipy modules a fresh interpreter loads on ``import scipy`` alone."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, scipy\n"
         "print(json.dumps([n for n in sys.modules if n.partition('.')[0] == 'scipy']))"],
        capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("experiment,outputs,loaded", [
    ("relay_compare", ["irs_model", "af_optimal", "df_optimal", "df_min_of_means"], []),
    ("relay_compare", [], []),
    ("op_vs_snr", ["montecarlo_model"], []),
    ("op_vs_snr", ["analytical"], [_UFUNCS]),
    ("ergodic_vs_snr", ["analytical"], [_QUADPACK, _UFUNCS]),
    ("op_fading_sweep", ["analytical"], [_QUADPACK, _UFUNCS]),
], ids=["relay_series", "relay_cli", "op_montecarlo", "op_analytical", "ergodic_analytical",
        "fading_analytical"])
def test_scipy_loads_only_for_the_closed_forms(experiment, outputs, loaded):
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, experiment, *outputs], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    # the QUADPACK extension imports scipy._lib._ccallback, which runs scipy's
    # __init__: beyond the extensions, what `import scipy` alone loads
    package = _scipy_alone() if _QUADPACK in loaded else set()
    assert sorted(set(record["loaded"]) - package) == loaded
    assert package <= set(record["loaded"])
    pins = ({s: _pinned_sha256(experiment, s) for s in outputs} if outputs
            else {"*": _RELAY_SMOKE_SHA256[_dispatch_target()]})
    assert record["digests"] == pins


# closed forms first, without the package; a later import of it hands out the
# very ufunc objects they called, and its functions give their values
_SHARED_UFUNCS = """
import sys
from irislab import analysis as an, geometry, specfun as sf
SU = "scipy.special._special_ufuncs"
NAMES = ("loggamma", "gamma", "gammainc", "gammaincc", "hyp2f1", "psi", "kv")
cfg = geometry.NetworkConfig(N=4, t1=2.0, t2=1.0)
stats = an.high_snr_stats(2.0, 1.0, 4)
values = (an.op_gamma_approx(cfg), an.high_snr_cdf(3.0, stats),
          an.product_nakagami_pdf(0.7, 2.0, 1.0), sf.meijer_g_3123(0.0, 2.5, 0.3).value)
called = {n: getattr(sf.special_ufuncs(), n) for n in NAMES}
assert [n for n in sys.modules if n.startswith("scipy.special")] == [SU]
import scipy.special
assert sys.modules[SU] is sf.special_ufuncs()
assert all(getattr(scipy.special, n) is called[n] for n in NAMES)
assert scipy.special.digamma is called["psi"]
assert (an.op_gamma_approx(cfg), an.high_snr_cdf(3.0, stats)) == values[:2]
"""


def test_scipy_special_shares_the_ufuncs():
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SHARED_UFUNCS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", [
    # scipy.integrate imported first: the entry point calls its extension
    "import scipy.integrate\nfrom irislab import specfun as sf\n"
    "assert sf.quadpack(math.exp, 0.0, 1.0, 0.0, 1e-12, 50)[0] == scipy.integrate.quad("
    "math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]\n"
    "assert sf._scipy_extension('integrate', '_quadpack') is scipy.integrate._quadpack\n"
    "assert scipy.integrate._quadpack is sys.modules[QP]",
    # the entry point first, without the package or scipy.optimize; then the
    # package loads around the same extension and its quad works
    "from irislab import specfun as sf\n"
    "val = sf.quadpack(math.exp, 0.0, 1.0, 0.0, 1e-12, 50)[0]\n"
    "assert [n for n in sys.modules if n.startswith(('scipy.integrate', 'scipy.optimize'))]"
    " == [QP]\n"
    "import scipy.integrate\n"
    "assert scipy.integrate.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0] == val\n"
    "assert 'scipy.optimize' in sys.modules\n"
    "assert sf._scipy_extension('integrate', '_quadpack') is sys.modules[QP]\n"
    "assert scipy.integrate._quadpack_py._quadpack is sys.modules[QP]",
], ids=["integrate_first", "quadpack_first"])
def test_quadpack_shares_the_extension_with_scipy_integrate(code):
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    head = "import math, sys\nQP = 'scipy.integrate._quadpack'\n"
    proc = subprocess.run([sys.executable, "-c", head + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
