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
