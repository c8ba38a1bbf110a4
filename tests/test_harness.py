import dataclasses
import hashlib
import itertools
import json
import math
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
    assert harness.parse_power("-94 dBm") == pytest.approx(1e-3 * 10 ** -9.4, rel=1e-12)
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
    with pytest.raises(ValueError):
        harness.spec_from_dict({"experiment": "relay_compare", "sweep": {"pb_dbm": [1]},
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
    ("power_model", "P_X", "1W")])
def test_spec_rejects_unknown_keys(section, key, value, tmp_path):
    d = _ee_dict()
    (d[section] if section else d)[key] = value
    with pytest.raises(ValueError, match=key):
        harness.spec_from_dict(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key,value", [
    ("t1", 0.4), ("t2", 0.2), ("r0", 0.0), ("R", 0.5), ("d1", 0.0), ("alpha", 0.0),
    ("p_tot", 0.0), ("sigma2", -1e-13), ("t1", math.nan)])
def test_spec_rejects_bad_relay_values(key, value, tmp_path):
    d = json.loads(resources.files("irislab").joinpath("presets", "relay_compare.json")
                   .read_text(encoding="utf-8"))
    d["relay"][key] = value
    with pytest.raises(ValueError, match=key):
        harness.spec_from_dict(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2


def test_integer_axes_reject_fractions():
    for axis in ("n_elements", "m_antennas", "k_antennas"):
        d = {**_ee_dict(), "experiment": "throughput_surface", "sweep": {axis: [4.0, 4.7]}}
        with pytest.raises(ValueError, match=axis):
            harness.spec_from_dict(d)
        d["sweep"] = {axis: [4.0, 5]}
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
        calls.append((plan.fidelity, cfg.N, len(powers)))
        return real(plan, cfg, powers, **kw)

    monkeypatch.setattr(mc, "simulate_op_axis", counting)
    spec = replace(cli._load("op_vs_snr"), outputs=["montecarlo_link"])
    spec.base = replace(spec.base, M=2, K=3, N=6)
    spec.plan = replace(spec.plan, trials=50)
    spec.sweep = [("n_elements", [5, 6]), ("pb_dbm", [0, 10, 20])]
    result = harness.run_experiment(spec)
    assert calls == [("link_level", 5, 3), ("link_level", 6, 3)]
    # N = 5 < MK = 6 has no passive weights: every point of its group fails
    assert [axes for axes, *_ in result.rows] == [(6.0, p) for p in (0.0, 10.0, 20.0)]
    assert [axes for axes, _, _ in result.failures] == [(5.0, p) for p in (0.0, 10.0, 20.0)]
    assert all(msg.startswith("ValueError: link level needs N >= M*K")
               for _, _, msg in result.failures)


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
        spec.plan = replace(spec.plan, trials=2 * mc.BLOCK + 1)
        csv[n_workers] = tmp_path / f"{n_workers}.csv"
        harness.emit_csv(harness.run_experiment(spec, n_workers=n_workers), csv[n_workers])
    assert csv[1].read_bytes() == csv[2].read_bytes()


def test_relay_series_computed_once_per_relay_config(monkeypatch):
    calls = []
    real = mc.optimal_power_split

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "optimal_power_split", counting)
    spec = cli._load("relay_compare")
    spec.plan = replace(spec.plan, trials=1000)
    spec.sweep = [("ptot_dbm", [20, 30]), ("n_elements", [1, 2, 5])]
    result = harness.run_experiment(spec)
    assert len(calls) == 2 * 3          # per budget: af, df, df min-of-means
    assert len(set(calls)) == 2
    for series in ("af_optimal", "df_optimal", "df_min_of_means"):
        vals = {axes: v for axes, s, v, *_ in result.rows if s == series}
        assert vals[(20.0, 1.0)] == vals[(20.0, 5.0)] != vals[(30.0, 5.0)]


def test_irs_model_runs_at_model_level():
    spec = replace(cli._load("relay_compare"), outputs=["irs_model"])
    spec.sweep = [("n_elements", [2])]
    spec.plan = replace(spec.plan, trials=300)
    model = harness.run_experiment(spec).rows
    spec.plan = replace(spec.plan, fidelity="link_level")
    assert harness.run_experiment(spec).rows == model


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
        assert json.loads((out / f"{name}.json").read_text())["metadata"]["experiment"] == name


@pytest.mark.parametrize("targets,error,detail", [
    (["ee_sweep", "op_vs_snrr"], "FileNotFoundError",
     "no config file or preset named 'op_vs_snrr'; presets: ee_sweep, "),
    (["ee_sweep", "exp.json"], "ValueError",
     "targets 'ee_sweep' and 'exp.json' would both write ee_sweep.csv"),
], ids=["unknown_target", "same_output_file"])
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
                          "bs=(0.0, 0.0, 169.0), a1=0.0, a2=1.0, z=")


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
# before the contour's node table existed: the table must not move a byte
_SHIPPED_SHA256 = {
    ("ergodic_vs_snr", ("analytical",)):
        "7c169fac4b9e8c156ea8f261905329c22d1ef9095b3da4c6ce56e17a1732a39d",
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
        "9a3ecf95f5da00b062694a7681682ae841c9a0ceca2343110a9fee01fe61e409",
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


@pytest.mark.parametrize("experiment,series", _ENTRIES)
def test_every_series_entry_reports_every_point(experiment, series, tmp_path):
    # every preset is named after its experiment
    spec = replace(cli._smoke(cli._load(experiment)), outputs=[series])
    spec.plan = replace(spec.plan, trials=2 * mc.BLOCK + 1)
    if series == "montecarlo_link":         # about 4k trials/s: two points, one block
        spec.sweep = [(n, v[:2] if n == "pb_dbm" else v[:1]) for n, v in spec.sweep]
        spec.plan = replace(spec.plan, trials=300)
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
    assert hashlib.sha256(csv[1].read_bytes()).hexdigest() == _CSV_SHA256[experiment, series]
