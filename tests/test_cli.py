import hashlib
import json
import math

import numpy as np
import pytest

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


def test_benchmark_table1_without_replications_exits_2(capsys):
    args = ["benchmark", "table1", "--n", "5", "--ttrain", "1", "--reps", "0", "--samples", "200"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0] == "error: replications must be at least 1"


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
    "oracle-banana-b-string": (lambda _: ["oracle", "--params", '{"b": "x"}'], "bad parameters for target 'banana'"),
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


def test_run_output_files_match_golden_digest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, banana_config())), "--out", str(out)]) == 0
    capsys.readouterr()
    h = hashlib.sha256()
    for name in ("paim", "ipc"):
        for f in OUTPUT_FILES:
            h.update(f"{name}/{f}\n".encode("utf-8"))
            h.update((out / name / f).read_bytes())
    assert h.hexdigest() == GOLDEN_RUN_FILES


# SHA-256 over the names and bytes of the ten files above. The files must
# not depend on how the run record holds the final proposals.
GOLDEN_RUN_FILES = "67c9b8ffd7b923edb7f7568dd6308dc0d02655deb1dc73f8a7fc4ea19d753503"
