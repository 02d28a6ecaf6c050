"""Exercises the four subcommands end to end through cli.main."""
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from genhjb import cli
from genhjb.evaluation import run_pipeline
from genhjb.generator import load_model, min_eig_estimate
from genhjb.hjb import load_solution


def _config(out_dir, **overrides):
    doc = {
        "system": {"name": "linear-1d", "epsilon": 0.01},
        "cost": {"params": {"q_weight": 1.5, "r_weight": 0.5}},
        "grid": {"bounds": [[-2.0, 2.0]], "counts": [30]},
        "kernel": {"family": "squared-exponential", "sigma": 1.0},
        "gamma": 1e-8,
        "dt": 0.01,
        "horizon_steps": 300,
        "out_dir": str(out_dir),
        "eval": {
            "rmse": {"n_points": 100},
            "rollout": {"x0": [1.0], "duration": 0.5, "control_hz": 20},
            "cost-bench": {"init_lo": [-1.0], "init_hi": [1.0],
                           "duration": 3.0, "control_hz": 20, "n_rollouts": 2},
            "sweep": {"variable": "lengthscale", "values": [0.7, 1.0],
                      "n_points": 50},
        },
    }
    doc.update(overrides)
    return doc


def _write(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Config plus artifacts from gen-data, fit, and solve, run once."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write(root / "config.yaml", _config(root / "out"))
    for cmd in ("gen-data", "fit", "solve"):
        assert cli.main([cmd, "--config", cfg]) == 0
    return {"root": root, "cfg": cfg, "out": root / "out"}


def test_gen_data_writes_dataset(pipeline, capsys):
    assert (pipeline["out"] / "dataset.csv").is_file()
    assert cli.main(["gen-data", "--config", pipeline["cfg"]]) == 0
    assert "N=30" in capsys.readouterr().out


def test_gen_data_is_reproducible(pipeline, tmp_path):
    cfg2 = _write(tmp_path / "c.yaml", _config(tmp_path / "other"))
    assert cli.main(["gen-data", "--config", cfg2]) == 0
    a = (pipeline["out"] / "dataset.csv").read_bytes()
    b = (tmp_path / "other" / "dataset.csv").read_bytes()
    assert a == b


def test_fit_and_solve_artifacts(pipeline):
    assert (pipeline["out"] / "model.npz").is_file()
    assert (pipeline["out"] / "solution.npz").is_file()
    vp = (pipeline["out"] / "value_policy.csv").read_text().splitlines()
    assert vp[1] == "x_1,v,u_1"
    assert len(vp) == 32


def test_model_archive_holds_the_datasets_stage_cost_bit_for_bit(pipeline):
    # read with numpy alone, so no reader of the library vouches for itself
    with np.load(pipeline["out"] / "model.npz") as archive:
        q = archive["q"]
    path = pipeline["out"] / "dataset.csv"
    header = path.read_text().splitlines()[1].split(",")   # after the hash line
    table = np.genfromtxt(path, delimiter=",", skip_header=2)
    assert q.dtype == np.float64 and q.shape == (30,)
    assert np.array_equal(q, table[:, header.index("q")])


def test_fit_reports_the_reloaded_models_min_eig(pipeline, tmp_path, capsys):
    # fit hands back no Cholesky factor, so the estimate it prints and the
    # reloaded model's both come from a factor that _factor_kgamma rebuilds
    out = tmp_path / "m.npz"
    assert cli.main(["fit", "--config", pipeline["cfg"], "--model", str(out)]) == 0
    printed = re.search(r"min_eig\(K_gamma\)~(\S+)", capsys.readouterr().out)[1]
    assert printed == f"{min_eig_estimate(load_model(out)[0]):.3e}"


def test_fit_prints_the_pinned_min_eig(pipeline, tmp_path, capsys):
    # the solves behind the estimate check only their right-hand side, and
    # the factor is built in the Gram matrix's own buffer; neither moves the
    # estimate, recorded here from the code that scanned the factor and
    # factored a copy of a stored Gram matrix
    out = tmp_path / "m.npz"
    assert cli.main(["fit", "--config", pipeline["cfg"], "--model", str(out)]) == 0
    assert "min_eig(K_gamma)~3.002e-07" in capsys.readouterr().out
    assert min_eig_estimate(load_model(out)[0]) == 3.002391517243327e-07


def test_eval_rmse(pipeline, capsys):
    assert cli.main(["eval", "--mode", "rmse", "--config", pipeline["cfg"]]) == 0
    assert "rmse=" in capsys.readouterr().out
    doc = json.loads((pipeline["out"] / "summary.json").read_text())
    assert doc["mode"] == "rmse"
    assert 0.0 < doc["rmse"] < 0.5


def test_eval_rollout(pipeline, capsys):
    assert cli.main(["eval", "--mode", "rollout", "--config", pipeline["cfg"]]) == 0
    assert "rollout cost=" in capsys.readouterr().out
    lines = (pipeline["out"] / "rollout.csv").read_text().splitlines()
    assert lines[1] == "t,x_1,u_1"
    assert len(lines) == 502


def test_eval_cost_bench(pipeline, capsys):
    assert cli.main(["eval", "--mode", "cost-bench", "--config",
                     pipeline["cfg"]]) == 0
    assert "cost mean=" in capsys.readouterr().out
    doc = json.loads((pipeline["out"] / "summary.json").read_text())
    assert doc["mode"] == "cost-bench"
    assert doc["n_excluded"] == 0
    # the zero-policy baseline always runs; stabilizing feedback beats doing
    # nothing on the unstable plant
    assert doc["baseline_std"] > 0.0
    assert doc["mean"] < doc["baseline_mean"]
    costs = (pipeline["out"] / "costs.csv").read_text().splitlines()
    assert costs[1] == "rollout,cost"
    assert len(costs) == 4


@pytest.fixture(scope="module")
def pipeline_2d(tmp_path_factory):
    """A linear-2d experiment through gen-data, fit and solve: the one CLI
    rollout whose stage cost takes more than one coordinate."""
    root = tmp_path_factory.mktemp("cli2d")
    doc = _config(root / "out", system={"name": "linear-2d", "epsilon": 0.01},
                  cost={"params": {"q_weight": 1.0, "r_weight": 0.5}},
                  grid={"bounds": [[-2.0, 2.0], [-2.0, 2.0]], "counts": [10, 10]},
                  kernel={"family": "squared-exponential", "sigma": 3.0})
    doc["eval"]["rollout"]["x0"] = [1.0, -0.5]
    doc["eval"]["cost-bench"].update(init_lo=[-1.0, -1.0], init_hi=[1.0, 1.0])
    cfg = _write(root / "config.yaml", doc)
    for cmd in ("gen-data", "fit", "solve"):
        assert cli.main([cmd, "--config", cfg]) == 0
    return {"root": root, "cfg": cfg, "out": root / "out"}


def test_eval_rollout_linear_2d(pipeline_2d, capsys):
    assert cli.main(["eval", "--mode", "rollout", "--config", pipeline_2d["cfg"]]) == 0
    printed = float(re.search(r"rollout cost=(\S+)", capsys.readouterr().out)[1])
    rows = np.loadtxt(pipeline_2d["out"] / "rollout.csv", delimiter=",", skiprows=2)
    lines = (pipeline_2d["out"] / "rollout.csv").read_text().splitlines()
    assert lines[1] == "t,x_1,x_2,u_1"
    assert rows.shape == (500, 4) and rows[0, 1:3].tolist() == [1.0, -0.5]
    # x'x + u^2 / 2 at the left end of each of the 500 steps of 1 ms; the CSV
    # drops the last state, which the sum never reads
    x, u = rows[:, 1:3], rows[:, 3]
    assert printed == pytest.approx(1e-3 * np.sum((x * x).sum(axis=1) + 0.5 * u**2),
                                    rel=1e-5)


def test_eval_cost_bench_linear_2d(pipeline_2d, capsys):
    assert cli.main(["eval", "--mode", "cost-bench", "--config", pipeline_2d["cfg"]]) == 0
    assert "cost mean=" in capsys.readouterr().out
    doc = json.loads((pipeline_2d["out"] / "summary.json").read_text())
    assert doc["mode"] == "cost-bench" and doc["n_excluded"] == 0
    # the double integrator drifts off under zero input; the feedback does not
    assert 0.0 < doc["mean"] < doc["baseline_mean"]
    assert len((pipeline_2d["out"] / "costs.csv").read_text().splitlines()) == 4


def test_eval_sweep(pipeline, capsys):
    assert cli.main(["eval", "--mode", "sweep", "--config", pipeline["cfg"],
                     "--jobs", "2"]) == 0
    assert "sweep best:" in capsys.readouterr().out
    lines = (pipeline["out"] / "sweep.csv").read_text().splitlines()
    assert lines[1] == "value,n_points,rmse"
    assert len(lines) == 4


def test_stages_match_run_pipeline(pipeline):
    # gen-data, fit and solve read the one spec that run_pipeline runs
    model, _ = load_model(pipeline["out"] / "model.npz")
    sol, _ = load_solution(pipeline["out"] / "solution.npz", model)
    want = run_pipeline(cli.load_config(pipeline["cfg"]).pipeline)
    assert sol.v0.tobytes() == want.v0.tobytes()
    assert sol.bv0.tobytes() == want.bv0.tobytes()


def test_reference_uses_penalty_block_weights(tmp_path):
    # scalar Riccati 2P - P^2 / R + q = 0 with a = b = 1, q = 1.5, R = 2:
    # P = 2 + sqrt(7), u(1) = -P / R
    doc = _config(tmp_path, cost={"params": {"q_weight": 1.5, "r_weight": 2.0}})
    reference = cli.ExperimentConfig(doc).pipeline.bench.reference_policy()
    assert reference([1.0]) == pytest.approx([-(2.0 + 7.0**0.5) / 2.0], rel=1e-12)


def test_reference_needs_a_linear_system(tmp_path, capsys):
    doc = _config(tmp_path, system={"name": "pendulum"}, cost={"params": {}},
                  grid=None)
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", "sweep", "--config", cfg]) == 2
    assert "closed-form reference" in capsys.readouterr().err


def test_dataset_header_hash_matches_config(pipeline):
    from genhjb.cli import load_config
    cfg = load_config(pipeline["cfg"])
    first = (pipeline["out"] / "dataset.csv").read_text().splitlines()[0]
    assert first == f"# config_hash={cfg.config_hash}"


def test_hash_ignores_out_dir_seed_and_eval(pipeline, tmp_path):
    from genhjb.cli import load_config
    base = load_config(pipeline["cfg"])
    varied = _config(tmp_path, seed=9)
    varied["eval"] = {}
    other = load_config(_write(tmp_path / "v.yaml", varied))
    assert other.config_hash == base.config_hash
    changed = load_config(_write(tmp_path / "g.yaml",
                                 _config(tmp_path, gamma=1e-6)))
    assert changed.config_hash != base.config_hash


def test_unknown_top_level_key_is_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", _config(tmp_path, typo=1))
    assert cli.main(["gen-data", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_required_key_is_rejected(tmp_path, capsys):
    doc = _config(tmp_path)
    del doc["gamma"]
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["fit", "--config", cfg]) == 2
    assert "gamma is required" in capsys.readouterr().err


def test_unknown_eval_option_is_rejected(tmp_path, capsys):
    doc = _config(tmp_path)
    doc["eval"] = {"rmse": {"bogus": 1}}
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["gen-data", "--config", cfg]) == 2
    assert "eval.rmse" in capsys.readouterr().err


def _set(doc, dotted, value):
    *parents, leaf = dotted.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value


def _exit_code_with(pipeline, tmp_path, key, value, also=None):
    """Run the stage that reads the dotted ``key`` with it set to ``value``;
    ``also`` maps further dotted keys to values."""
    path = key.split(".")
    in_eval = path[0] == "eval"
    doc = _config(pipeline["out"] if in_eval else tmp_path / "o")
    for dotted, v in {**(also or {}), key: value}.items():
        _set(doc, dotted, v)
    cfg = _write(tmp_path / "c.yaml", doc)
    argv = ["eval", "--mode", path[1]] if in_eval else ["gen-data"]
    return cli.main(argv + ["--config", cfg])


@pytest.mark.parametrize("key, value, also", [
    pytest.param("horizon_steps", 2.9, None, id="horizon_steps-2.9"),
    pytest.param("grid.counts", [30.7], None, id="grid.counts-value1"),
    pytest.param("eval.rmse.n_points", 10.5, None, id="eval.rmse.n_points-10.5"),
    pytest.param("eval.sweep.n_points", 10.5, None, id="eval.sweep.n_points-10.5"),
    pytest.param("eval.cost-bench.n_rollouts", 2.5, None,
                 id="eval.cost-bench.n_rollouts-2.5"),
    pytest.param("eval.sweep.values", [400.7], {"eval.sweep.variable": "dataset_size"},
                 id="eval.sweep.values-dataset_size-400.7"),
    # YAML true and false are booleans, not 1 and 0
    pytest.param("horizon_steps", True, None, id="horizon_steps-true"),
    pytest.param("grid.counts", [True], None, id="grid.counts-true"),
    pytest.param("seed", False, None, id="seed-false"),
    pytest.param("eval.rmse.n_points", True, None, id="eval.rmse.n_points-true"),
])
def test_fractional_integer_is_rejected(pipeline, tmp_path, capsys, key, value, also):
    assert _exit_code_with(pipeline, tmp_path, key, value, also) == 2
    assert f"{key.split('.')[-1]} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key", [
    "kernel.sigma", "gamma", "dt", "eval.rollout.duration",
    "eval.cost-bench.duration", "eval.cost-bench.control_hz", "system.epsilon",
    "system.u_max", "system.params.a", "cost.params.q_weight",
])
@pytest.mark.parametrize("value", [True, None, "fast", "1e-8"])
def test_non_number_for_a_float_is_rejected(pipeline, tmp_path, capsys, key, value):
    # YAML true is a boolean, not 1.0; null and words are no numbers either,
    # nor is 1e-8, which YAML 1.1 reads as a string
    assert _exit_code_with(pipeline, tmp_path, key, value) == 2
    assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err


def _no_work(monkeypatch):
    """Calls of load_model and run_pipeline, which a config error must precede."""
    calls = []
    monkeypatch.setattr(cli.evaluation, "run_pipeline", lambda spec: calls.append(spec))
    monkeypatch.setattr(cli, "load_model", lambda path: calls.append(path))
    return calls


@pytest.mark.parametrize("key, value", [
    ("grid.bounds", [[-2.0, True]]),
    ("eval.rollout.x0", [True]),
    ("eval.cost-bench.init_lo", [True]),
    ("eval.rmse.region_lo", [True]),
    ("eval.sweep.values", [True, 2.0]),
])
def test_boolean_list_entry_is_rejected(pipeline, tmp_path, capsys, monkeypatch, key,
                                        value):
    calls = _no_work(monkeypatch)
    assert _exit_code_with(pipeline, tmp_path, key, value) == 2
    assert f"{key} must be a number, got True" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key, value, bound", [
    ("dt", 0, "positive"),
    ("gamma", 0, "positive"),
    ("horizon_steps", 0, ">= 1"),
    ("kernel.sigma", -1.0, "positive"),
    ("seed", -1, ">= 0"),
    # ranges the plant or its penalty would check too, but without the key
    ("system.u_max", -1.0, "nonnegative"),
    ("system.epsilon", -1.0, "nonnegative"),
    ("cost.params.r_weight", -1.0, "positive"),
])
@pytest.mark.parametrize("command", ["gen-data", "solve"])
def test_out_of_range_setting_is_rejected_at_load(tmp_path, capsys, monkeypatch, key,
                                                  value, bound, command):
    calls = _no_work(monkeypatch)
    doc = _config(tmp_path / "o")
    _set(doc, key, value)
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main([command, "--config", cfg]) == 2
    assert f"{key} must be {bound}, got {value!r}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    ("values", [1.0, "x"], "eval.sweep.values must be a number, got 'x'"),
    ("values", [1.0, -2.0], "eval.sweep.values must be positive, got -2.0"),
    ("n_points", 0, "eval.sweep.n_points must be >= 1, got 0"),
    ("variable", "bandwidth", "eval.sweep.variable must be one of"),
])
def test_bad_sweep_is_rejected_before_any_pipeline(tmp_path, capsys, monkeypatch, key,
                                                   value, message):
    calls = _no_work(monkeypatch)
    doc = _config(tmp_path / "o")
    doc["eval"]["sweep"][key] = value
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", "sweep", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key, value, message", [
    ("penalty", {"weights": [2.0], "u_max": 5.0}, "unknown keys in config: ['penalty']"),
    ("grid.angle_dims", [], "unknown keys in grid: ['angle_dims']"),
    ("label_mode", "finite-difference", "unknown keys in config: ['label_mode']"),
    ("fd_step", 1e-4, "unknown keys in config: ['fd_step']"),
    pytest.param("eval.rollout.sim_dt", 1e-3, "unknown keys in eval.rollout: ['sim_dt']",
                 id="eval.rollout.sim_dt"),
    pytest.param("eval.rollout.smooth", True, "unknown keys in eval.rollout: ['smooth']",
                 id="eval.rollout.smooth"),
    pytest.param("eval.rollout.noise", False, "unknown keys in eval.rollout: ['noise']",
                 id="eval.rollout.noise"),
    pytest.param("eval.cost-bench.sim_dt", 1e-3, "unknown keys in eval.cost-bench: ['sim_dt']",
                 id="eval.cost-bench.sim_dt"),
    pytest.param("eval.cost-bench.smooth", True, "unknown keys in eval.cost-bench: ['smooth']",
                 id="eval.cost-bench.smooth"),
    pytest.param("eval.cost-bench.noise", False, "unknown keys in eval.cost-bench: ['noise']",
                 id="eval.cost-bench.noise"),
    pytest.param("eval.cost-bench.baseline", True, "unknown keys in eval.cost-bench: ['baseline']",
                 id="eval.cost-bench.baseline"),
])
def test_removed_key_is_unknown(tmp_path, capsys, monkeypatch, key, value, message):
    # the penalty is cost.params.r_weight on the box |u| <= system.u_max, the
    # grid's angle dims are the system's, drift labels are the model's drift,
    # and rollouts take the smoothed policy without noise at a sim_dt of 1e-3,
    # the learned bench beside the zero-policy baseline
    calls = _no_work(monkeypatch)
    doc = _config(tmp_path / "o")
    _set(doc, key, value)
    cfg = _write(tmp_path / "c.yaml", doc)
    path = key.split(".")
    argv = ["eval", "--mode", path[1]] if path[0] == "eval" else ["gen-data"]
    assert cli.main(argv + ["--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_absent_eval_block_is_needed_only_when_its_mode_runs(tmp_path, capsys):
    doc = _config(tmp_path / "o")
    del doc["eval"]
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["gen-data", "--config", cfg]) == 0
    assert cli.main(["eval", "--mode", "rollout", "--config", cfg]) == 2
    assert "eval.rollout.x0 is required" in capsys.readouterr().err


def test_grid_override_takes_the_systems_angle_dims(tmp_path):
    doc = _config(tmp_path, system={"name": "pendulum"}, cost={"params": {}},
                  grid={"bounds": [[-3.0, 3.0], [-8.0, 8.0]], "counts": [5, 4]})
    grid = cli.ExperimentConfig(doc).pipeline.bench.grid
    assert grid.angle_dims == (0,)
    assert (grid.n_x, grid.n_points) == (3, 20)


@pytest.mark.parametrize("key, value", [
    ("eval.sweep.values", 3.0),
    ("eval.cost-bench.init_lo", -1.0),
])
def test_scalar_for_a_list_is_rejected(pipeline, tmp_path, capsys, key, value):
    assert _exit_code_with(pipeline, tmp_path, key, value) == 2
    assert f"{key} must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("eval.rollout.control_hz", 0),
    ("eval.rollout.control_hz", -50),
])
def test_rollout_rejects_nonpositive_timing(pipeline, tmp_path, capsys, key, value):
    assert _exit_code_with(pipeline, tmp_path, key, value) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["rmse", "sweep"])
@pytest.mark.parametrize("key", ["region_lo", "region_hi"])
def test_scoring_box_of_the_wrong_length_is_rejected(pipeline, tmp_path, capsys, mode,
                                                     key):
    # checked before any archive is loaded or any pipeline is run
    doc = _config(tmp_path / "o")
    doc["eval"][mode][key] = [-1.0, 1.0]  # linear-1d has one state
    cfg = _write(tmp_path / "c.yaml", doc)
    argv = ["eval", "--mode", mode, "--config", cfg, "--model",
            str(pipeline["out"] / "model.npz"), "--solution",
            str(pipeline["out"] / "solution.npz")]
    assert cli.main(argv) == 2
    assert f"eval.{mode}.{key} must have 1 entries, got 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["rmse", "sweep"])
def test_empty_scoring_box_is_rejected_before_any_pipeline(pipeline, tmp_path, capsys,
                                                          monkeypatch, mode):
    calls = []
    monkeypatch.setattr(cli.evaluation, "run_pipeline",
                        lambda spec: calls.append(spec))
    monkeypatch.setattr(cli, "load_model", lambda path: calls.append(path))
    doc = _config(tmp_path / "o")
    doc["eval"][mode].update(region_lo=[1.0], region_hi=[-1.0])
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", mode, "--config", cfg]) == 2
    assert f"eval.{mode}.region_lo must not exceed eval.{mode}.region_hi" \
        in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_smoothing_key_in_kernel_is_rejected(tmp_path, capsys):
    doc = _config(tmp_path / "o")
    doc["kernel"]["smoothing_radius"] = 1e-8
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["gen-data", "--config", cfg]) == 2
    assert "unknown keys in kernel: ['smoothing_radius']" in capsys.readouterr().err


def test_readme_config_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```yaml\n(# experiment\.yaml\n.*?)```", readme, re.S)
    cli.ExperimentConfig(yaml.safe_load(block.group(1)))


def test_readme_walk_through_runs(tmp_path, capsys):
    # the YAML block and each `genhjb ...` line of the README's CLI section,
    # run in order with the output directory moved under tmp_path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = yaml.safe_load(re.search(r"```yaml\n(# experiment\.yaml\n.*?)```", readme,
                                   re.S).group(1))
    doc["out_dir"] = str(tmp_path / "out")
    cfg = _write(tmp_path / "experiment.yaml", doc)
    steps = re.findall(r"^genhjb (.+?)\s+# -> (.+)$", readme, re.M)
    assert len(steps) == 7
    for command, artefacts in steps:
        argv = command.replace("experiment.yaml", cfg).split()
        assert cli.main(argv) == 0, (command, capsys.readouterr().err)
        for name in artefacts.split(","):
            assert (tmp_path / "out" / Path(name.strip()).name).is_file(), (command, name)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `([\w.-]+)` \|", readme, re.M)
    assert listed == list(cli.SCHEMA)


def test_malformed_yaml_is_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("system: [unclosed\n")
    assert cli.main(["gen-data", "--config", str(path)]) == 2


def test_stage_refuses_mismatched_artifacts(pipeline, tmp_path, capsys):
    cfg2 = _write(tmp_path / "c.yaml", _config(tmp_path / "o", gamma=1e-6))
    code = cli.main(["fit", "--config", cfg2, "--dataset",
                     str(pipeline["out"] / "dataset.csv")])
    assert code == 2
    assert "refusing to mix artifacts" in capsys.readouterr().err


def test_solve_rejects_a_model_archive_without_the_drift_target(pipeline, tmp_path,
                                                               capsys):
    # a model archive from before the drift target was stored holds A_hat
    from genhjb.npzio import load_arrays, save_arrays
    arrays, meta = load_arrays(pipeline["out"] / "model.npz")
    old = {"X": arrays["X"], "A_hat": arrays["A_target"], "B_hat": arrays["KB_hat"],
           "q_coeff": arrays["q"]}
    save_arrays(tmp_path / "old_model.npz", old, meta=meta)
    code = cli.main(["solve", "--config", pipeline["cfg"], "--model",
                     str(tmp_path / "old_model.npz"), "--solution",
                     str(tmp_path / "s.npz")])
    assert code == 2
    assert "no array 'A_target'" in capsys.readouterr().err


def test_solve_rejects_a_model_archive_with_another_surrogate_ratio(pipeline, tmp_path,
                                                                   capsys):
    from genhjb.npzio import load_arrays, save_arrays
    arrays, meta = load_arrays(pipeline["out"] / "model.npz")
    meta["smoothing_ratio"] = 50.0
    save_arrays(tmp_path / "other_model.npz", arrays, meta=meta)
    code = cli.main(["solve", "--config", pipeline["cfg"], "--model",
                     str(tmp_path / "other_model.npz"), "--solution",
                     str(tmp_path / "s.npz")])
    assert code == 2
    assert "metadata 'smoothing_ratio' is 50.0" in capsys.readouterr().err
    assert not (tmp_path / "s.npz").exists()


def test_solve_rejects_a_model_archive_with_cost_coefficients(pipeline, tmp_path, capsys):
    # a model archive from before the stage cost was stored at the data
    # points holds its kernel coefficients, q_coeff, in place of q
    from genhjb.npzio import load_arrays, save_arrays
    arrays, meta = load_arrays(pipeline["out"] / "model.npz")
    arrays["q_coeff"] = arrays.pop("q")
    save_arrays(tmp_path / "old_model.npz", arrays, meta=meta)
    code = cli.main(["solve", "--config", pipeline["cfg"], "--model",
                     str(tmp_path / "old_model.npz"), "--solution",
                     str(tmp_path / "s.npz")])
    assert code == 2
    assert "no array 'q'" in capsys.readouterr().err
    assert not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("mode", ["solve", "eval"])
def test_a_model_archive_with_b_hat_in_place_of_g_is_rejected(pipeline, tmp_path, capsys,
                                                              mode):
    # a model archive from before the input-map samples G were stored holds
    # B-hat, an N x N block per channel, in their place
    from genhjb.npzio import load_arrays, save_arrays
    arrays, meta = load_arrays(pipeline["out"] / "model.npz")
    del arrays["G"]
    arrays["B_hat"] = np.zeros_like(arrays["KB_hat"])
    save_arrays(tmp_path / "old_model.npz", arrays, meta=meta)
    args = ["--config", pipeline["cfg"], "--model", str(tmp_path / "old_model.npz")]
    if mode == "solve":
        args = ["solve", *args, "--solution", str(tmp_path / "s.npz")]
    else:
        args = ["eval", "--mode", "rmse", *args, "--solution",
                str(pipeline["out"] / "solution.npz")]
    assert cli.main(args) == 2
    assert "no array 'G'" in capsys.readouterr().err
    assert not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("archive, key", [
    *(("model", k) for k in ("kernel_family", "sigma", "gamma", "epsilon")),
    *(("solution", k) for k in ("dt", "horizon_steps")),
])
def test_archive_without_a_metadata_key_is_rejected(pipeline, tmp_path, capsys, archive,
                                                     key):
    from genhjb.npzio import load_arrays, save_arrays
    arrays, meta = load_arrays(pipeline["out"] / f"{archive}.npz")
    del meta[key]
    bad = tmp_path / f"{archive}.npz"
    save_arrays(bad, arrays, meta=meta)
    if archive == "model":
        argv = ["solve", "--model", str(bad), "--solution", str(tmp_path / "s.npz")]
    else:
        argv = ["eval", "--mode", "rmse", "--solution", str(bad)]
    assert cli.main(argv + ["--config", pipeline["cfg"]]) == 2
    assert f"metadata has no '{key}'" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path):
    doc = _config(tmp_path / "o", gamma=1e-18,
                  grid={"bounds": [[0.0, 0.0]], "counts": [2]})
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["gen-data", "--config", cfg]) == 0
    assert cli.main(["fit", "--config", cfg]) == 3


def test_sweep_failure_exit_code(tmp_path, capsys):
    doc = _config(tmp_path / "o", gamma=1e-18,
                  grid={"bounds": [[0.0, 0.0]], "counts": [2]})
    doc["eval"]["sweep"] = {"variable": "lengthscale", "values": [1.0],
                            "n_points": 10}
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", "sweep", "--config", cfg]) == 3
    assert "all 1 runs failed" in capsys.readouterr().out


def test_cost_bench_failure_exit_code(tmp_path, capsys):
    # no input within |u| <= 5 holds the plant dx = 10 x dt + u dt from
    # |x| near 1, so every rollout blows up, the zero-policy ones as well
    doc = _config(tmp_path / "o", system={"name": "linear-1d", "epsilon": 0.01,
                                          "params": {"a": 10.0}}, horizon_steps=100)
    doc["eval"]["cost-bench"]["n_rollouts"] = 4
    cfg = _write(tmp_path / "c.yaml", doc)
    for cmd in ("gen-data", "fit", "solve"):
        assert cli.main([cmd, "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--mode", "cost-bench", "--config", cfg]) == 3
    assert "all 4 rollouts diverged" in capsys.readouterr().out
    costs = (tmp_path / "o" / "costs.csv").read_text().splitlines()
    assert costs[2:] == [f"{i},nan" for i in range(4)]
    doc = json.loads((tmp_path / "o" / "summary.json").read_text(),
                     parse_constant=pytest.fail)  # NaN and Infinity are not JSON
    assert doc["n_excluded"] == 4
    for key in ("mean", "std", "baseline_mean", "baseline_std"):
        assert doc[key] is None


def test_cost_bench_with_a_diverged_baseline(pipeline, tmp_path, capsys):
    # with no input the plant dx = x dt leaves |x| <= 1e6 within 15 s from
    # x0 >= 0.5; the learned feedback holds it
    doc = _config(tmp_path / "o")
    doc["eval"]["cost-bench"].update(init_lo=[0.5], init_hi=[1.0], duration=15.0)
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", "cost-bench", "--config", cfg, "--model",
                     str(pipeline["out"] / "model.npz"), "--solution",
                     str(pipeline["out"] / "solution.npz")]) == 0
    assert "excluded=0" in capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "summary.json").read_text(),
                     parse_constant=pytest.fail)
    assert doc["mean"] > 0.0
    assert doc["baseline_mean"] is None and doc["baseline_std"] is None


@pytest.mark.parametrize("row, column, word", [
    (3, "q", "nan"),
    (1, "x_1", "nan"),
    (30, "d0_1", "inf"),
])
def test_non_finite_dataset_entry_is_rejected_before_the_fit(pipeline, tmp_path, capsys,
                                                            monkeypatch, row, column,
                                                            word):
    fits = []
    monkeypatch.setattr(cli, "fit", lambda *a: fits.append(a))
    lines = (pipeline["out"] / "dataset.csv").read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[1].split(",").index(column)] = word
    lines[row + 1] = ",".join(cells)
    bad = tmp_path / "dataset.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["fit", "--config", pipeline["cfg"], "--dataset", str(bad),
                     "--model", str(tmp_path / "m.npz")]) == 2
    assert f"non-finite value {float(word)} in {bad} at data row {row}, column {column}" \
        in capsys.readouterr().err
    assert fits == []


def test_io_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", _config(tmp_path / "o"))
    code = cli.main(["gen-data", "--config", cfg, "--dataset",
                     "/nonexistent-dir/x.csv"])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_missing_config_file_is_io_failure(tmp_path):
    assert cli.main(["gen-data", "--config", str(tmp_path / "nope.yaml")]) == 4


def test_negative_seed_override_is_rejected(pipeline, capsys, monkeypatch):
    calls = _no_work(monkeypatch)
    assert cli.main(["eval", "--mode", "rmse", "--config", pipeline["cfg"],
                     "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert calls == []


def test_out_override_redirects_artifacts(pipeline, tmp_path):
    dest = tmp_path / "redirect"
    assert cli.main(["gen-data", "--config", pipeline["cfg"], "--out",
                     str(dest)]) == 0
    assert (dest / "dataset.csv").is_file()


def test_rollout_rejects_wrong_x0_dimension(pipeline, tmp_path, capsys, monkeypatch):
    # checked before the model archive is loaded
    loads = []
    monkeypatch.setattr(cli, "load_model", lambda path: loads.append(path))
    doc = _config(pipeline["out"])
    doc["eval"]["rollout"]["x0"] = [1.0, 2.0]
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", "rollout", "--config", cfg]) == 2
    assert "eval.rollout.x0 must have 1 entries" in capsys.readouterr().err
    assert loads == []


@pytest.mark.parametrize("mode", ["rollout", "cost-bench"])
def test_rollout_shorter_than_half_a_step_is_rejected(pipeline, tmp_path, capsys,
                                                     monkeypatch, mode):
    # it rounds to zero steps of the fixed 1e-3 sim_dt; said before the model
    # archive is loaded
    loads = []
    monkeypatch.setattr(cli, "load_model", lambda path: loads.append(path))
    doc = _config(pipeline["out"])
    doc["eval"][mode]["duration"] = 1e-4
    cfg = _write(tmp_path / "c.yaml", doc)
    assert cli.main(["eval", "--mode", mode, "--config", cfg]) == 2
    assert "duration must span at least one step of sim_dt, got duration 0.0001 " \
        "and sim_dt 0.001" in capsys.readouterr().err
    assert loads == []
