import hashlib
import json
import math
import multiprocessing
import re

import numpy as np
import pytest

import paim.harness
from paim.cli import main


def test_non_pd_target_covariance_exits_2(capsys):
    params = json.dumps({"mean": [0, 0], "cov": [[1, 2], [2, 1]]})
    assert main(["oracle", "--target", "gaussian", "--params", params, "--points", "11"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: bad parameters for target 'gaussian'")
    assert "pivot" in err[0]


def test_oracle_prints_expectation(capsys):
    params = json.dumps({"mean": [1.0, -2.0], "sigma": 1.0})
    assert main(["oracle", "--target", "gaussian", "--params", params, "--points", "201"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("E[X]: ")
    x1, x2 = (float(v) for v in line.split()[1:])
    assert abs(x1 - 1.0) < 1e-6 and abs(x2 + 2.0) < 1e-6


def small_config(**entries):
    """A small ``paim run`` config on a 2-D Gaussian; ``entries`` replace
    its top-level entries."""
    config = {
        "algorithm": "both",
        "target": {"name": "gaussian", "params": {"mean": [1.0, -1.0], "sigma": 1.0}},
        "sampler": {"n_chains": 4, "total_samples": 302, "t_train": 2},
        "init": {"box_lower": [-5.0, -5.0], "box_upper": [5.0, 5.0], "sigma": 3.0},
        "base_seed": 3,
        "truth": [1.0, -1.0],
    }
    config.update(entries)
    return config


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize("section, name", [("sampler", "epsilon"), ("init", "sigma")])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_with_non_finite_config_value_exits_2(tmp_path, capsys, section, name, value):
    config = small_config()
    config[section][name] = value
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {name} must be positive and finite, got {value}"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_with_non_finite_init_box_exits_2(tmp_path, capsys, value):
    config = small_config()
    config["init"]["box_upper"] = [5.0, value]
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: initialization box bounds must be finite"]


def test_run_with_grid_of_too_few_points_exits_2(tmp_path, capsys):
    grid = {"grid": {"lower": [0, 0], "upper": [1, 1], "points_per_axis": 0}}
    path = write_config(tmp_path, small_config(truth=grid))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: need at least two points per axis"]


def test_run_ipc_alone_writes_its_files_into_out(tmp_path, capsys):
    # 4 chains do not divide 302 samples: the last step runs 2 chains,
    # yet the baseline never suspends one, so all 4 end active
    path = write_config(tmp_path, small_config(algorithm="ipc"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    files = ("samples.csv", "activity.csv", "params.json", "summary.json", "ellipses.csv")
    assert capsys.readouterr().out.split() == [str(out / f) for f in files]

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["algorithm"] == "ipc" and summary["paim"] is None and summary["reduction_pct"] is None
    report = summary["ipc"]
    assert report["budgets"] == [[76, 76, 75, 75]]
    assert report["t_total"] == [76]
    assert report["final_active"] == [4]
    with open(out / "samples.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "t,chain,k_n,x_1,x_2,accepted"
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert rows.shape == (302, 6)
    np.testing.assert_allclose(report["estimates"][0], rows[:, 3:5].mean(axis=0), rtol=0, atol=1e-12)
    assert rows[rows[:, 0] == 75, 1].tolist() == [0, 1]
    with open(out / "activity.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "t,chain,active"
        activity = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    assert activity.shape == (76 * 4, 3) and activity[:, 2].all()
    params = json.loads((out / "params.json").read_text(encoding="utf-8"))
    assert [c["active"] for c in params["chains"]] == [True] * 4
    assert params["shared"] is None
    ellipses = (out / "ellipses.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[:2] for line in ellipses[1:]] == [[str(j), "local"] for j in range(4)]


def test_run_both_algorithms_writes_files_that_agree_with_the_summary(tmp_path, capsys):
    config = {
        "algorithm": "both",
        "target": {
            "name": "gaussian_mixture",
            "params": {
                "means": [[-4.0, -4.0], [4.0, 3.0]],
                "covs": [[[1.0, 0.3], [0.3, 1.0]], [[1.5, 0.0], [0.0, 0.5]]],
            },
        },
        "sampler": {"n_chains": 4, "total_samples": 300, "t_train": 2, "t_stop": 10},
        "init": {"box_lower": [-8.0, -8.0], "box_upper": [8.0, 8.0], "sigma": 5.0},
        "replications": 2,
        "base_seed": 7,
        "truth": [0.0, -0.5],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    listed = set(capsys.readouterr().out.split())
    files = ("samples.csv", "activity.csv", "params.json", "summary.json", "ellipses.csv")
    assert listed == {str(out / name / f) for name in ("paim", "ipc") for f in files}

    for name in ("paim", "ipc"):
        summary = json.loads((out / name / "summary.json").read_text(encoding="utf-8"))
        assert summary["replications"] == 2
        report = summary[name]
        with open(out / name / "samples.csv", encoding="utf-8") as fh:
            assert fh.readline().strip() == "t,chain,k_n,x_1,x_2,accepted"
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        with open(out / name / "activity.csv", encoding="utf-8") as fh:
            assert fh.readline().strip() == "t,chain,active"
            activity = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)

        # the files hold the first replication
        assert rows.shape == (300, 6)
        np.testing.assert_allclose(report["estimates"][0], rows[:, 3:5].mean(axis=0), rtol=0, atol=1e-12)
        budgets = np.bincount(rows[:, 1].astype(np.int64), minlength=4)
        assert budgets.tolist() == report["budgets"][0]
        assert sum(report["budgets"][0]) == 300
        steps = activity.shape[0] // 4
        assert activity.shape == (4 * steps, 3)
        assert steps == report["t_total"][0] == int(rows[:, 0].max()) + 1
        assert report["acceptance_rates"][0] == rows[:, 5].mean()
        active = activity[:, 2].reshape(steps, 4)
        assert report["final_active"][0] == int(active[-1].sum())
        # a chain's k_n column counts its own iterations
        for j in range(4):
            k_n = rows[rows[:, 1] == j, 2]
            assert k_n.tolist() == list(range(1, budgets[j] + 1))
        mse = np.mean([np.mean((np.array(e) - [0.0, -0.5]) ** 2) for e in report["estimates"]])
        assert report["mse"] == pytest.approx(mse, rel=1e-12)
    paim = json.loads((out / "paim" / "summary.json").read_text(encoding="utf-8"))
    ipc_mse, paim_mse = paim["ipc"]["mse"], paim["paim"]["mse"]
    assert paim["reduction_pct"] == pytest.approx(100.0 * (ipc_mse - paim_mse) / ipc_mse)


def test_benchmark_table1_prints_cells_and_table_and_writes_summaries(tmp_path, capsys):
    out = tmp_path / "bench"
    args = ["benchmark", "table1", "--n", "5", "--ttrain", "1", "--reps", "2", "--samples", "200", "--out", str(out)]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((out / "ttrain1_n5" / "summary.json").read_text(encoding="utf-8"))
    assert summary["replications"] == 2 and summary["target"] == "banana"
    assert [len(b) for b in summary["paim"]["budgets"]] == [5, 5]
    reduction = summary["reduction_pct"]
    assert lines[0] == f"cell t_train=1 n=5: reduction {reduction:.2f}%"
    assert lines[1] == ""
    assert lines[2] == "MSE reduction (%) of adaptive vs fixed proposals, banana target, L=200, R=2"
    assert lines[3].split() == ["t_train", "N=5"]
    assert lines[4].split() == ["1", f"{reduction:.2f}"]
    assert len(lines) == 5


def test_benchmark_table1_is_the_same_for_any_worker_count(tmp_path, capsys, two_cpus):
    def benchmark(workers):
        out = tmp_path / f"workers{workers}"
        args = ["benchmark", "table1", "--n", "5,10", "--ttrain", "1,10", "--reps", "3", "--samples", "200",
                "--out", str(out), "--workers", workers]
        assert main(args) == 0
        captured = capsys.readouterr()
        summaries = {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("summary.json"))}
        return captured, summaries

    (out1, summaries1), (out2, summaries2) = benchmark("1"), benchmark("2")
    assert len(summaries1) == 4 and summaries1 == summaries2
    assert out1.out == out2.out
    # one progress line per cell on stderr, with the cell's seconds and an ETA
    for captured in (out1, out2):
        progress = captured.err.splitlines()
        assert len(progress) == 4
        for done, (line, cell) in enumerate(zip(progress, ["t_train=1 n=5", "t_train=1 n=10", "t_train=10 n=5",
                                                           "t_train=10 n=10"]), 1):
            assert re.fullmatch(rf"cell {done}/4 {cell}: \d+\.\d s, ETA \d+ s", line), line


def test_benchmark_table1_without_replications_exits_2(capsys):
    args = ["benchmark", "table1", "--n", "5", "--ttrain", "1", "--reps", "0", "--samples", "200"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0] == "error: replications must be at least 1"


@pytest.mark.parametrize("option", ["--n", "--ttrain"])
@pytest.mark.parametrize("value", ["", ",", "5,x"])
def test_benchmark_table1_without_a_list_exits_2(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "table1", option, value, "--reps", "1", "--samples", "20"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse's usage text (wrapped to the terminal width), then one error line
    err = captured.err.splitlines()
    assert err[0].startswith("usage: paim benchmark")
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1] == f"paim benchmark: error: argument {option}: expected comma-separated integers, got {value!r}"


@pytest.mark.parametrize("bounds", [["-1e1", "10"], ["-10", "10"], ["-1E+1", "1e1"]], ids=" ".join)
def test_oracle_takes_negative_bounds(capsys, bounds):
    params = json.dumps({"mean": [0.0, 0.0], "sigma": 1.0})
    assert main(["oracle", "--target", "gaussian", "--params", params, "--points", "101", "--bounds", *bounds]) == 0
    line = capsys.readouterr().out.strip()
    assert all(abs(float(v)) < 1e-12 for v in line.split()[1:])


@pytest.mark.parametrize("bounds, message", [
    pytest.param(["x", "10"], "argument --bounds: invalid float value: 'x'", id="x 10"),
    pytest.param(["-1e1"], "argument --bounds: expected 2 arguments", id="-1e1"),
    pytest.param(["-1e1", "-1ex"], "argument --bounds: expected 2 arguments", id="-1e1 -1ex"),
])
def test_oracle_malformed_bounds_exit_2(capsys, bounds, message):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--target", "gaussian", "--params", '{"mean": [0, 0]}', "--bounds", *bounds])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0].startswith("usage: paim oracle")
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1] == f"paim oracle: error: {message}"


def run_argv(edit):
    """``paim run`` argv on ``small_config()`` after ``edit(config)``."""

    def argv(tmp_path):
        config = small_config()
        edit(config)
        return ["run", "--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "out")]

    return argv


def run_file_argv(text):
    """``paim run`` argv on a config file holding ``text``, or on a missing
    file when ``text`` is None."""

    def argv(tmp_path):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        return ["run", "--config", str(path), "--out", str(tmp_path / "out")]

    return argv


def banana(**params):
    return lambda c: c.update(target={"name": "banana", "params": params})


def mixture(**params):
    """A two-mode mixture target whose ``params`` replace its parameters."""
    params = {"means": [[-4, -4], [4, 3]], "covs": [np.eye(2).tolist()] * 2, **params}
    return lambda c: c.update(target={"name": "gaussian_mixture", "params": params})


# id -> (argv builder, the start of the message after "error: ")
BAD_INPUTS = {
    "unknown-target": (run_argv(lambda c: c["target"].update(name="donut")), "unknown target 'donut'"),
    "unknown-algorithm": (run_argv(lambda c: c.update(algorithm="mcmc")), "unknown algorithm 'mcmc'"),
    "missing-field": (run_argv(lambda c: c["sampler"].pop("n_chains")), "missing config field: n_chains"),
    "wrong-value-type": (run_argv(lambda c: c["sampler"].update(n_chains="four")), "bad config value:"),
    "unreadable-file": (run_file_argv(None), "cannot read config"),
    "invalid-json": (run_file_argv("{"), "config "),
    "not-an-object": (run_file_argv("[1]"), "config must be a JSON object"),
    "no-truth": (run_argv(lambda c: c.pop("truth")), "no ground truth"),
    "truth-shape": (run_argv(lambda c: c.update(truth=[1.0, 2.0, 3.0])), "truth vector must have shape (2,)"),
    "zero-replications": (run_argv(lambda c: c.update(replications=0)), "replications must be at least 1"),
    "target-dim-not-box-dim": (
        run_argv(lambda c: c["init"].update(box_lower=[-5.0] * 3, box_upper=[5.0] * 3)),
        "target dim 2 does not match config dim 3",
    ),
    "unknown-top-level-key": (
        run_argv(lambda c: c.update(discard_burn_in=True)),
        "unknown config field: discard_burn_in",
    ),
    "unknown-sampler-key": (
        run_argv(lambda c: c["sampler"].update(discard_burn_in=True, t_trian=5)),
        "unknown config field: sampler.discard_burn_in",
    ),
    "unknown-target-key": (run_argv(lambda c: c["target"].update(parms={})), "unknown config field: target.parms"),
    "unknown-init-key": (run_argv(lambda c: c["init"].update(sgima=1.0)), "unknown config field: init.sgima"),
    "section-not-an-object": (run_argv(lambda c: c.update(sampler=[4, 302, 2])), "config field sampler must be"),
    "banana-b-string": (run_argv(banana(b="x")), "bad parameters for target 'banana': b must be a finite real"),
    "banana-b-null": (run_argv(banana(b=None)), "bad parameters for target 'banana': b must be a finite real"),
    "banana-eta-nan": (run_argv(banana(eta2=math.nan)), "bad parameters for target 'banana': eta2 must be"),
    "banana-eta-zero": (run_argv(banana(eta3=0.0)), "bad parameters for target 'banana': eta1, eta2, eta3"),
    "gaussian-cov-shape": (
        run_argv(lambda c: c["target"]["params"].update(cov=np.eye(3).tolist())),
        "bad parameters for target 'gaussian': a mean of shape (2,) does not match a cov of shape (3, 3)",
    ),
    "target-params-list": (run_argv(lambda c: c["target"].update(params=[1])), "target params must be a JSON object"),
    "oracle-params-list": (lambda _: ["oracle", "--params", "[1]"], "target params must be a JSON object"),
    "oracle-params-number": (lambda _: ["oracle", "--params", "5"], "target params must be a JSON object"),
    "oracle-params-string": (lambda _: ["oracle", "--params", '"x"'], "target params must be a JSON object"),
    "oracle-gaussian-scalar-mean": (
        lambda _: ["oracle", "--target", "gaussian", "--params", '{"mean": 1}'],
        "bad parameters for target 'gaussian': a mean of shape () does not match a cov of shape (1, 1)",
    ),
    "oracle-gaussian-sigma-negative": (
        lambda _: ["oracle", "--target", "gaussian", "--params", '{"mean": [0, 0], "sigma": -2}'],
        "bad parameters for target 'gaussian': sigma must be positive and finite",
    ),
    "oracle-gaussian-sigma-zero": (
        lambda _: ["oracle", "--target", "gaussian", "--params", '{"mean": [0, 0], "sigma": 0}'],
        "bad parameters for target 'gaussian': sigma must be positive and finite",
    ),
    "oracle-gaussian-sigma-square-overflows": (
        lambda _: ["oracle", "--target", "gaussian", "--params", '{"mean": [0, 0], "sigma": 1e200}'],
        "bad parameters for target 'gaussian': sigma must be positive and finite, with a finite square",
    ),
    "gaussian-sigma-negative": (
        run_argv(lambda c: c.update(target={"name": "gaussian", "params": {"mean": [0.0, 0.0], "sigma": -1.0}})),
        "bad parameters for target 'gaussian': sigma must be positive and finite",
    ),
    "init-sigma-square-overflows": (
        run_argv(lambda c: c["init"].update(sigma=1e200)),
        "sigma must be positive and finite, with a finite square above 1e-300, got 1e+200",
    ),
    "init-sigma-square-below-pivot-floor": (
        run_argv(lambda c: c["init"].update(sigma=1e-160)),
        "sigma must be positive and finite, with a finite square above 1e-300, got 1e-160",
    ),
    "epsilon-below-pivot-floor": (
        run_argv(lambda c: c["sampler"].update(epsilon=1e-320)),
        "epsilon must be above 1e-300, got 1e-320",
    ),
    "gaussian-cov-asymmetric": (
        run_argv(lambda c: c["target"]["params"].update(cov=[[1, 5], [0, 1]])),
        "bad parameters for target 'gaussian': matrix is asymmetric by 5.000e+00",
    ),
    "oracle-gaussian-cov-asymmetric": (
        lambda _: ["oracle", "--target", "gaussian", "--params", '{"mean": [1, 2], "cov": [[1, 5], [0, 1]]}'],
        "bad parameters for target 'gaussian': matrix is asymmetric by 5.000e+00",
    ),
    "mixture-cov-asymmetric": (
        run_argv(mixture(covs=[[[1, 0], [0, 1]], [[1, 0.5], [0, 1]]])),
        "bad parameters for target 'gaussian_mixture': matrix is asymmetric by 5.000e-01",
    ),
    "oracle-banana-b-string": (lambda _: ["oracle", "--params", '{"b": "x"}'], "bad parameters for target 'banana'"),
    "n-chains-float": (
        run_argv(lambda c: c["sampler"].update(n_chains=2.7)),
        "bad config value: sampler.n_chains must be an integer, got 2.7",
    ),
    "total-samples-integral-float": (
        run_argv(lambda c: c["sampler"].update(total_samples=302.0)),
        "bad config value: sampler.total_samples must be an integer, got 302.0",
    ),
    "t-train-bool": (
        run_argv(lambda c: c["sampler"].update(t_train=True)),
        "bad config value: sampler.t_train must be an integer, got True",
    ),
    "replications-float": (
        run_argv(lambda c: c.update(replications=1.9)),
        "bad config value: replications must be an integer, got 1.9",
    ),
    "base-seed-string": (
        run_argv(lambda c: c.update(base_seed="3")),
        "bad config value: base_seed must be an integer, got '3'",
    ),
    "grid-points-float": (
        run_argv(lambda c: c.update(truth={"grid": {"lower": [0, 0], "upper": [1, 1], "points_per_axis": 101.5}})),
        "bad config value: truth.grid.points_per_axis must be an integer, got 101.5",
    ),
    "epsilon-bool": (
        run_argv(lambda c: c["sampler"].update(epsilon=True)),
        "bad config value: sampler.epsilon must be a number, got True",
    ),
    "t-stop-string": (
        run_argv(lambda c: c["sampler"].update(t_stop="30")),
        "bad config value: sampler.t_stop must be a number, got '30'",
    ),
    "sigma-string": (
        run_argv(lambda c: c["init"].update(sigma="2")),
        "bad config value: init.sigma must be a number, got '2'",
    ),
    # without --out, so the config's own output_dir is the one used
    "output-dir-number": (
        lambda tmp_path: run_argv(lambda c: c.update(output_dir=5))(tmp_path)[:-2],
        "bad config value: output_dir must be a string, got 5",
    ),
    "retired-activation-rule": (
        run_argv(lambda c: c["sampler"].update(activation_rule="floor")),
        "unknown config field: sampler.activation_rule",
    ),
    "box-lower-strings": (
        run_argv(lambda c: c["init"].update(box_lower=["-5", False])),
        "bad config value: init.box_lower must be a number or a list of numbers, got ['-5', False]",
    ),
    "box-upper-bool": (
        run_argv(lambda c: c["init"].update(box_upper=[5.0, True])),
        "bad config value: init.box_upper must be a number or a list of numbers, got [5.0, True]",
    ),
    "truth-strings": (
        run_argv(lambda c: c.update(truth=["0", False])),
        "bad config value: truth must be a number or a list of numbers, got ['0', False]",
    ),
    "grid-lower-strings": (
        run_argv(lambda c: c.update(truth={"grid": {"lower": ["-10", -10], "upper": [1, 1], "points_per_axis": 11}})),
        "bad config value: truth.grid.lower must be a number or a list of numbers, got ['-10', -10]",
    ),
    "grid-upper-bool": (
        run_argv(lambda c: c.update(truth={"grid": {"lower": [0, 0], "upper": [1, True], "points_per_axis": 11}})),
        "bad config value: truth.grid.upper must be",
    ),
    "gaussian-mean-strings": (
        run_argv(lambda c: c["target"]["params"].update(mean=["1", False])),
        "bad config value: target.params.mean must be a number or a list of numbers, got ['1', False]",
    ),
    "gaussian-cov-strings": (
        run_argv(lambda c: c["target"]["params"].update(cov=[["1", 0], [0, 1]])),
        "bad config value: target.params.cov must be",
    ),
    "gaussian-sigma-bool": (
        run_argv(lambda c: c["target"]["params"].update(sigma=True)),
        "bad config value: target.params.sigma must be a number, got True",
    ),
    "mixture-means-strings": (
        run_argv(mixture(means=[["-4", -4], [4, 3]])),
        "bad config value: target.params.means must be a number or a list of numbers, got [['-4', -4], [4, 3]]",
    ),
    "mixture-covs-bool": (
        run_argv(mixture(covs=[[[1, 0], [0, 1]], [[1, 0], [0, True]]])),
        "bad config value: target.params.covs must be",
    ),
    # a two-state cluster's rank-1 scatter rounds to a negative pivot that 1e-20 cannot lift
    "epsilon-too-small-for-the-scatter": (
        run_argv(lambda c: c.update(
            target={"name": "banana"},
            sampler={"n_chains": 5, "total_samples": 2000, "t_train": 1, "epsilon": 1e-20},
            init={"box_lower": [-15.0, -15.0], "box_upper": [15.0, 15.0], "sigma": 10.0},
            base_seed=0,
        )),
        "sampler.epsilon 1e-20 did not keep a refreshed proposal positive definite: pivot -4.441e-16 at column 1",
    ),
    "box-width-overflows": (
        run_argv(lambda c: c["init"].update(box_lower=[-1e308, -1e308], box_upper=[1e308, 1e308])),
        "initialization box is too wide: upper - lower overflows a double",
    ),
    # the scatter and the target's quadratic form overflow, and nothing may blame epsilon for the NaN
    "init-scale-overflows": (
        run_argv(lambda c: c.update(
            sampler={"n_chains": 5, "total_samples": 2000, "t_train": 1},
            init={"box_lower": [-1e160, -1e160], "box_upper": [1e160, 1e160], "sigma": 1e150},
        )),
        "initialization box width 2e+160 and init.sigma 1e+150 are too large for the target's scale: "
        "the run overflowed a double (overflow encountered in",
    ),
    "oracle-bounds-reversed": (lambda _: ["oracle", "--bounds", "10", "-1e1"], "grid is degenerate"),
    "grid-width-overflows": (
        run_argv(lambda c: c.update(truth={"grid": {"lower": [-1e308, 0], "upper": [1e308, 1], "points_per_axis": 11}})),
        "grid is too wide: upper - lower overflows a double",
    ),
    "mixture-weights-strings": (
        run_argv(mixture(weights=["0.5", "0.5"])),
        "bad config value: target.params.weights must be a number or a list of numbers, got ['0.5', '0.5']",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    argv, message = BAD_INPUTS[case]
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: " + message), err[0]
    assert "Traceback" not in captured.err


# Box and init.sigma 1e150 dwarf epsilon 0.4: the states' second moments
# round off by far more than epsilon can lift, and the line says so. With
# two workers this process makes the PAIM run that fails, while a forked
# worker makes the IPC run.
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_refresh_broken_by_the_init_scale_names_the_scale(tmp_path, capsys, two_cpus, forks, workers):
    config = small_config(
        sampler={"n_chains": 5, "total_samples": 2000, "t_train": 1},
        init={"box_lower": [-1e150, -1e150], "box_upper": [1e150, 1e150], "sigma": 1e150},
    )
    argv = ["run", "--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "out"), "--workers", workers]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: sampler.epsilon 0.4 did not keep a refreshed proposal positive definite: pivot 0.000e+00 at column 1 "
        "(floor 1e-300); at the initialization scale (box width 2e+150, init.sigma 1e+150) the states' second "
        "moments carry rounding errors of ~8.9e+284, more than epsilon"
    ]
    assert forks[0] == (0 if workers == "1" else 1)
    assert multiprocessing.active_children() == []


def test_a_config_error_in_a_worker_reaches_the_cli_as_the_same_line(tmp_path, capsys, monkeypatch, two_cpus, forks):
    # With two workers and one replication the forked worker makes the IPC
    # run, and only that run fails.
    def overflowing(*args):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(paim.harness, "run_ipc", overflowing)
    argv = ["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(tmp_path / "out")]
    errors = []
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err.splitlines())
    assert errors[0] == errors[1] == [
        "error: initialization box width 10 and init.sigma 3 are too large for the target's scale: "
        "the run overflowed a double (overflow encountered in multiply)"
    ]
    assert forks[0] == 1
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-1", "3"])
@pytest.mark.parametrize("command", [
    lambda config: ["run", "--config", str(config)],
    lambda _: ["benchmark", "table1", "--n", "5", "--ttrain", "1", "--reps", "1", "--samples", "20"],
], ids=["run", "benchmark"])
def test_bad_workers_exit_2_with_one_error_line_and_start_no_process(tmp_path, capsys, two_cpus, forks, command, workers):
    argv = command(write_config(tmp_path, small_config())) + ["--workers", workers]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: workers must be an integer from 1 to the 2 usable CPUs, got {workers}"]
    assert forks[0] == 0


OUTPUT_FILES = ("samples.csv", "activity.csv", "params.json", "summary.json", "ellipses.csv")


def banana_config():
    """A tiny ``algorithm: both`` study on the banana target whose adaptive
    run suspends chains."""
    return small_config(
        target={"name": "banana"},
        sampler={"n_chains": 6, "total_samples": 300, "t_train": 2},
        init={"box_lower": [-15.0, -15.0], "box_upper": [15.0, 15.0], "sigma": 10.0},
        replications=2,
        base_seed=5,
        truth=[-1.0949, 0.0],
    )


def frozen_mixture_config():
    """An ``algorithm: both`` run on a three-mode mixture whose adaptation
    stops at step 20, so most of its rows come from the frozen tail."""
    return small_config(
        target={"name": "gaussian_mixture", "params": {
            "means": [[-8.0, -8.0], [0.0, 8.0], [8.0, -4.0]],
            "covs": [[[1.0, 0.5], [0.5, 1.0]], [[2.0, 0.0], [0.0, 0.5]], [[1.0, -0.3], [-0.3, 1.0]]],
            "weights": [0.5, 0.3, 0.2],
        }},
        sampler={"n_chains": 10, "total_samples": 2000, "t_train": 10, "t_stop": 20},
        init={"box_lower": [-15.0, -15.0], "box_upper": [15.0, 15.0], "sigma": 10.0},
        base_seed=11,
        truth=[-2.4, -2.4],
    )


def run_files_digest(tmp_path, capsys, config) -> str:
    """SHA-256 over the names and bytes of the files ``paim run`` writes
    for ``config``, an ``algorithm: both`` study."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    capsys.readouterr()
    h = hashlib.sha256()
    for name in ("paim", "ipc"):
        for f in OUTPUT_FILES:
            h.update(f"{name}/{f}\n".encode("utf-8"))
            h.update((out / name / f).read_bytes())
    return h.hexdigest()


def test_run_output_files_match_golden_digest(tmp_path, capsys):
    assert run_files_digest(tmp_path, capsys, banana_config()) == GOLDEN_RUN_FILES


def test_frozen_run_output_files_match_golden_digest(tmp_path, capsys):
    assert run_files_digest(tmp_path, capsys, frozen_mixture_config()) == GOLDEN_FROZEN_RUN_FILES


# SHA-256 over the names and bytes of the ten files of each run above. The
# files must not depend on how the run record holds the final proposals,
# nor on how the writers group rows.
GOLDEN_RUN_FILES = "67c9b8ffd7b923edb7f7568dd6308dc0d02655deb1dc73f8a7fc4ea19d753503"
GOLDEN_FROZEN_RUN_FILES = "467ad52673fdd463cb42348cea838bbdd9da51374c1a3fdc474bbad8c97d240b"
