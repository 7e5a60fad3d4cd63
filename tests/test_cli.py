import json

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
