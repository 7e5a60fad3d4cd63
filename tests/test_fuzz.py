"""Hostile input never ends in a traceback.

Every key path of a config file, every numeric CLI flag and the oracle's
``--params`` are fed a fixed pool of hostile values, one key or flag at a
time, and then in seeded random pairs of keys. Each case runs ``paim``
in this process, with ``--workers 1`` and a study of 20 samples, and
must end with exit 0, or with exit 2 and exactly one ``error:`` line.

Huge ``replications`` values are left out: ``replicate`` lists every run
before the first one starts, so such a study exhausts memory instead of
failing fast.
"""

import copy
import json
import math
import random

import pytest

import paim.cli
from paim.cli import main
from paim.harness import CONFIG_KEYS
from paim.targets import grid_expectation

HUGE = 10**400

# Config values: integers beyond a double, NaN and Infinity literals, empty,
# nested and ragged lists, objects, strings, booleans and null.
HOSTILE_VALUES = [
    HUGE, -HUGE, 2**63, 2**1024,
    math.nan, math.inf, -math.inf,
    [], [[]], [[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0, 3.0]], [1.0, [2.0]], [HUGE], [math.nan],
    {}, {"grid": {}}, {"grid": {"lower": [0], "upper": [1], "points_per_axis": 2**63}}, {"a": 1},
    "", "x", "grid", "NaN",
    True, False,
    None,
]

# A 1-D study of 20 samples in which every key of CONFIG_KEYS is given.
BASE_CONFIG = {
    "algorithm": "both",
    "target": {"name": "gaussian", "params": {"mean": [0.5], "sigma": 1.0}},
    "sampler": {"n_chains": 2, "total_samples": 20, "t_train": 1, "t_stop": 10, "epsilon": 0.4},
    "init": {"box_lower": [-2.0], "box_upper": [2.0], "sigma": 1.0},
    "replications": 1,
    "base_seed": 0,
    "output_dir": "out",
    "truth": [0.5],
}

# Flag values, as typed on a command line.
HOSTILE_ARGS = ["0", "-1", "1", str(HUGE), str(-HUGE), str(2**63), "nan", "inf", "", " ", "x", "1.5", "1e3",
                "[]", "{}", "true", "1,x", ",", "2,,2"]

BENCHMARK = {"--n": "2", "--ttrain": "1", "--reps": "1", "--samples": "20", "--seed": "0", "--workers": "1"}

ORACLE_BOUNDS = [("nan", "nan"), ("inf", "inf"), ("-inf", "inf"), ("1", "1"), ("2", "1"), ("-1e308", "1e308"),
                 (str(HUGE), "1"), ("x", "1"), ("", "1"), ("-1e1", "10"), ("-1", "1")]
ORACLE_POINTS = ["0", "1", "2", "11", str(2**60 - 128), str(2**60), str(2**62), str(2**63 - 1), str(2**63),
                 str(10**30), str(HUGE), "-1", "x", "", "nan", "1.5"]
ORACLE_PARAMS = ["[]", "{", "null", "{}", '{"b": NaN}', '{"b": Infinity}', '{"b": 1e400}', json.dumps({"b": HUGE}),
                 '{"b": []}', '{"b": [[1], [2, 3]]}', '{"b": {}}', '{"b": "x"}', '{"b": true}', '{"eta1": 0}',
                 '{"x": 1}', '""', "1", "NaN"]


def huge_count(value) -> bool:
    """Whether ``value``, or the flag text ``value``, is a replication count left out."""
    if isinstance(value, str):
        return value.isdigit() and int(value) > 10**6
    return type(value) is int and value > 10**6


def tame(path, value) -> bool:
    return not (path == "replications" and huge_count(value))


def with_keys(changes) -> dict:
    config = copy.deepcopy(BASE_CONFIG)
    for path, value in changes:
        section, _, key = path.rpartition(".")
        (config[section] if section else config)[key] = value
    return config


def run_argv(tmp_path, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["run", "--config", str(path), "--workers", "1", *flags]


def problem(argv, capsys):
    """None if ``main(argv)`` ended with exit 0, or with exit 2 and exactly
    one ``error:`` line; otherwise what went wrong."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any escape is the failure sought
        capsys.readouterr()
        return f"{argv[:8]}: raised {exc!r}"
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    if code == 0 and not errors or code == 2 and len(errors) == 1 and "Traceback" not in err:
        return None
    return f"{argv[:8]}: exit {code}, stderr {err[-300:]!r}"


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    # Relative output directories land in tmp_path.
    monkeypatch.chdir(tmp_path)


def test_the_base_config_runs(tmp_path, capsys, in_tmp):
    assert main(run_argv(tmp_path, BASE_CONFIG)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("path", sorted(CONFIG_KEYS))
def test_a_hostile_config_value_ends_cleanly(tmp_path, capsys, in_tmp, path):
    problems = [problem(run_argv(tmp_path, with_keys([(path, value)])), capsys)
                for value in HOSTILE_VALUES if tame(path, value)]
    assert [p for p in problems if p] == []


def test_seeded_pairs_of_hostile_config_values_end_cleanly(tmp_path, capsys, in_tmp):
    rng = random.Random(20151)
    problems = []
    for _ in range(60):
        paths = rng.sample(sorted(CONFIG_KEYS), 2)
        changes = [(path, rng.choice([v for v in HOSTILE_VALUES if tame(path, v)])) for path in paths]
        problems.append(problem(run_argv(tmp_path, with_keys(changes)), capsys))
    assert [p for p in problems if p] == []


@pytest.mark.parametrize("flag", ["--seed", "--workers"])
def test_a_hostile_run_flag_ends_cleanly(tmp_path, capsys, in_tmp, flag):
    problems = [problem(run_argv(tmp_path, BASE_CONFIG, f"{flag}={value}"), capsys) for value in HOSTILE_ARGS]
    assert [p for p in problems if p] == []


@pytest.mark.parametrize("flag", sorted(BENCHMARK))
def test_a_hostile_benchmark_flag_ends_cleanly(capsys, monkeypatch, in_tmp, flag):
    # The banana oracle on its full grid takes 0.15 s a case; the flags are
    # checked before it runs.
    monkeypatch.setattr(paim.cli, "grid_expectation",
                        lambda target, lower, upper, points: grid_expectation(target, lower, upper, 11))
    problems = []
    for value in HOSTILE_ARGS:
        if flag == "--reps" and huge_count(value):
            continue
        flags = {**BENCHMARK, flag: value}
        problems.append(problem(["benchmark", "table1", *(f"{k}={v}" for k, v in flags.items())], capsys))
    assert [p for p in problems if p] == []


@pytest.mark.parametrize("flag, values", [
    ("--bounds", ORACLE_BOUNDS),
    ("--points", [(f"--points={v}",) for v in ORACLE_POINTS]),
    ("--params", [(f"--params={v}",) for v in ORACLE_PARAMS]),
])
def test_a_hostile_oracle_flag_ends_cleanly(capsys, in_tmp, flag, values):
    # The bounds take two arguments, so they follow the flag as arguments.
    problems = []
    for value in values:
        points = () if flag == "--points" else ("--points=11",)
        given = ("--bounds", *value) if flag == "--bounds" else value
        problems.append(problem(["oracle", "--target", "banana", *points, *given], capsys))
    assert [p for p in problems if p] == []
