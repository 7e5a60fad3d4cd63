import gc
import math
import multiprocessing
import os
import weakref

import numpy as np
import pytest

from paim import harness
from paim.harness import (
    CONFIG_FIELDS,
    ELLIPSE_MASS,
    ConfigError,
    ExperimentConfig,
    ellipse_radius,
    emit_outputs,
    make_target,
    replicate,
    resolve_truth,
)
from paim.sampler import PaimConfig, RunRecord, run_paim
from paim.targets import grid_expectation, make_gaussian_mixture_target, make_gaussian_target


def row_by_row_csvs(record) -> dict[str, str]:
    """samples.csv and activity.csv written one formatted row at a time."""
    coords = ",".join(f"x_{i + 1}" for i in range(record.dim))
    samples = [f"t,chain,k_n,{coords},accepted\n"]
    for i in range(record.samples.shape[0]):
        xs = ",".join(f"{v:.17g}" for v in record.samples[i])
        samples.append(
            f"{record.sample_step[i]},{record.sample_chain[i]},"
            f"{record.sample_iteration[i]},{xs},{int(record.sample_accepted[i])}\n"
        )
    activity = ["t,chain,active\n"]
    for t in range(record.t_total):
        for j in range(record.n_chains):
            activity.append(f"{t},{j},{int(record.activity[t, j])}\n")
    return {"samples.csv": "".join(samples), "activity.csv": "".join(activity)}


def assert_csvs_match_row_by_row(record, out_dir):
    emit_outputs(record, None, str(out_dir))
    for name, text in row_by_row_csvs(record).items():
        assert (out_dir / name).read_bytes() == text.encode("utf-8"), name


def test_csvs_match_row_by_row_formatting_for_a_run(tmp_path):
    rng = np.random.default_rng(3)
    n, d = 7, 3
    config = PaimConfig(
        n_chains=n,
        total_samples=2500,  # several formatting blocks
        t_train=2,
        init_means=rng.uniform(-5, 5, (n, 2, d)),
        init_states=rng.uniform(-5, 5, (n, d)),
        init_sigma=3.0,
        seed=8,
    )
    record = run_paim(config, make_gaussian_target([1.0, -2.0, 0.5], np.diag([1.0, 2.0, 0.5])))
    assert not record.activity.all()
    assert_csvs_match_row_by_row(record, tmp_path)


def record_of(samples, activity) -> RunRecord:
    """A hand-made record of ``samples`` (m, d) and ``activity`` (t, n),
    for the CSV writers only."""
    m = samples.shape[0]
    n = activity.shape[1]
    return RunRecord(
        samples=samples,
        sample_step=np.arange(m, dtype=np.int64),
        sample_chain=np.arange(m, dtype=np.int64) % n,
        sample_iteration=np.arange(1, m + 1, dtype=np.int64),
        sample_accepted=np.arange(m) % 3 == 0,
        activity=activity,
        budgets=np.full(n, m, dtype=np.int64),
        proposal_means=np.zeros((n, 2, samples.shape[1])),
        proposal_covs=np.ones((n, 2, samples.shape[1], samples.shape[1])),
        global_mean=None,
        global_cov=None,
    )


def test_csvs_match_row_by_row_formatting_for_edge_values(tmp_path):
    values = [0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308, math.inf, -math.inf, 0.1, 1 / 3, -2.5e-7]
    samples = np.array(values).reshape(-1, 1)
    assert_csvs_match_row_by_row(record_of(samples, np.ones((samples.shape[0], 1), dtype=bool)), tmp_path)


@pytest.mark.parametrize("rows_per_block", [harness.ROWS_PER_BLOCK, 12])
def test_csvs_match_row_by_row_formatting_for_a_frozen_tail(tmp_path, monkeypatch, rows_per_block):
    monkeypatch.setattr(harness, "ROWS_PER_BLOCK", rows_per_block)
    rng = np.random.default_rng(1)
    n, d, t_stop = 5, 2, 60
    config = PaimConfig(
        n_chains=n,
        total_samples=6000,
        t_train=2,
        t_stop=t_stop,
        init_means=rng.uniform(-8, 8, (n, 2, d)),
        init_states=rng.uniform(-8, 8, (n, d)),
        init_sigma=4.0,
        seed=1,
    )
    target = make_gaussian_mixture_target(np.array([[-4.0, -4.0], [4.0, 3.0]]), np.array([np.eye(2)] * 2), None)
    record = run_paim(config, target)
    # the frozen tail spans several blocks of samples.csv and activity.csv
    assert (record.sample_step >= t_stop).sum() > 4 * harness.ROWS_PER_BLOCK
    assert record.t_total - t_stop > 4 * harness.ROWS_PER_BLOCK // n
    # and the active set changes inside a block of activity.csv, not only at its edges
    act = record.activity
    changes = np.flatnonzero(np.any(act[1:] != act[:-1], axis=1)) + 1
    assert (changes % (harness.ROWS_PER_BLOCK // n)).any()
    assert_csvs_match_row_by_row(record, tmp_path)


def test_csvs_match_row_by_row_formatting_when_the_active_set_changes_every_step(tmp_path):
    rng = np.random.default_rng(4)
    n, t = 3, 2000  # several blocks of activity.csv
    activity = np.zeros((t, n), dtype=bool)
    activity[0] = True
    for s in range(1, t):
        # a random nonempty active set other than the last one
        row = activity[s - 1]
        while (row == activity[s - 1]).all() or not row.any():
            row = rng.random(n) < 0.5
        activity[s] = row
    assert np.any(activity[1:] != activity[:-1], axis=1).all()
    assert_csvs_match_row_by_row(record_of(rng.normal(size=(t, 2)), activity), tmp_path)


def test_csvs_match_row_by_row_formatting_for_repeated_and_special_coordinates(tmp_path):
    pool = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e-310, 1.7976931348623157e308, 0.1, -1 / 3, 7.0, 1e16, 123456789.125])
    rng = np.random.default_rng(5)
    m = harness.ROWS_PER_BLOCK // 2  # one block
    samples = pool[rng.integers(pool.size, size=(m, 3))]
    samples[1::2] = samples[::2]  # every other state repeated, as after a rejection
    assert_csvs_match_row_by_row(record_of(samples, np.ones((m // 4, 4), dtype=bool)), tmp_path)


def experiment_with_truth(truth, dim):
    return ExperimentConfig.from_dict({
        "target": {"name": "gaussian", "params": {"mean": [0.2] * dim, "sigma": 1.0}},
        "sampler": {"n_chains": 2, "total_samples": 10, "t_train": 1},
        "init": {"box_lower": [-1.0] * dim, "box_upper": [1.0] * dim, "sigma": 1.0},
        "truth": truth,
    })


def test_grid_truth_runs_the_oracle_on_the_default_box():
    config = experiment_with_truth("grid", 1)
    assert config.truth == "grid"
    target = make_target(config.target_name, config.target_params)
    truth = resolve_truth(config, target)
    np.testing.assert_array_equal(truth, grid_expectation(target, [-15.0], [15.0], 2001))
    assert abs(truth[0] - 0.2) < 1e-9


def test_explicit_grid_truth_runs_the_oracle_on_its_own_box():
    config = experiment_with_truth({"grid": {"lower": [0, 0], "upper": [1, 1], "points_per_axis": 101}}, 2)
    target = make_target(config.target_name, config.target_params)
    truth = resolve_truth(config, target)
    np.testing.assert_array_equal(truth, grid_expectation(target, [0.0, 0.0], [1.0, 1.0], 101))
    # the mean of N(0.2, 1) truncated to [0, 1], not the untruncated 0.2
    np.testing.assert_allclose(truth, [0.4754, 0.4754], atol=1e-4)


def base_config() -> dict:
    return {
        "target": {"name": "gaussian", "params": {"mean": [0.2, 0.2], "sigma": 1.0}},
        "sampler": {"n_chains": 2, "total_samples": 10, "t_train": 1},
        "init": {"box_lower": [-1.0, -1.0], "box_upper": [1.0, 1.0], "sigma": 1.0},
        "truth": [0.2, 0.2],
    }


# (section, key) -> a valid value that differs from base_config() or the default
CONFIG_VARIANTS = {
    ("", "algorithm"): "paim",
    ("", "target"): {"name": "banana"},
    ("", "sampler"): {"n_chains": 3, "total_samples": 10, "t_train": 1},
    ("", "init"): {"box_lower": [-2.0, -2.0], "box_upper": [1.0, 1.0], "sigma": 1.0},
    ("", "replications"): 2,
    ("", "base_seed"): 1,
    ("", "output_dir"): "elsewhere",
    ("", "truth"): "grid",
    ("target", "name"): "gaussian_mixture",
    ("target", "params"): {"mean": [0.0, 0.0]},
    ("sampler", "n_chains"): 3,
    ("sampler", "total_samples"): 11,
    ("sampler", "t_train"): 2,
    ("sampler", "t_stop"): 30,
    ("sampler", "epsilon"): 0.5,
    ("init", "box_lower"): [-2.0, -1.0],
    ("init", "box_upper"): [1.0, 2.0],
    ("init", "sigma"): 2.0,
}


def test_every_config_key_reaches_the_parsed_config():
    # A key the parser accepts but drops would be a config field that
    # nothing reads.
    keys = {(section, key) for section, fields in CONFIG_FIELDS.items() for key in fields}
    assert set(CONFIG_VARIANTS) == keys
    default = repr(ExperimentConfig.from_dict(base_config()))
    for (section, key), value in CONFIG_VARIANTS.items():
        raw = base_config()
        (raw[section] if section else raw)[key] = value
        assert repr(ExperimentConfig.from_dict(raw)) != default, (section, key)


def test_ellipse_radius_holds_the_chi_square_mass():
    import mpmath

    for dim in range(1, 7):
        r = mpmath.mpf(ellipse_radius(dim))
        with mpmath.workdps(40):
            mass = mpmath.gammainc(mpmath.mpf(dim) / 2, 0, r * r / 2, regularized=True)
        assert abs(float(mass) - ELLIPSE_MASS) < 1e-13, dim


def kept_records(monkeypatch):
    """Weak references to every RunRecord that this process makes or
    unpickles, and the number of them alive as each run here starts."""
    # RunRecord is an unhashable dataclass, so weak references sit in a list
    made = []
    live_at_start = []

    def kept(runner):
        def run(*args):
            gc.collect()
            live_at_start.append(sum(ref() is not None for ref in made))
            record = runner(*args)
            made.append(weakref.ref(record))
            return record

        return run

    def setstate(self, state):  # a record a worker sends back
        self.__dict__.update(state)
        made.append(weakref.ref(self))

    monkeypatch.setattr(harness, "run_paim", kept(harness.run_paim))
    monkeypatch.setattr(harness, "run_ipc", kept(harness.run_ipc))
    monkeypatch.setattr(RunRecord, "__setstate__", setstate, raising=False)
    return made, live_at_start


def test_replicate_keeps_only_the_first_replications_records(monkeypatch):
    made, live_at_start = kept_records(monkeypatch)
    config = experiment_with_truth([0.2, 0.2], 2)
    config.replications = 4
    report = replicate(config, workers=1)
    gc.collect()
    # while later replications run, only replication 0's two records live
    assert live_at_start == [0, 1, 2, 2, 2, 2, 2, 2]
    assert len(report.paim.estimates) == len(report.ipc.estimates) == 4
    alive = [ref() for ref in made if ref() is not None]
    assert len(alive) == 2
    assert alive[0] is report.records["paim"] and alive[1] is report.records["ipc"]


def test_replicate_in_workers_keeps_only_the_first_replications_records(monkeypatch, two_cpus):
    # This process makes replication 0's PAIM run and the runs that the
    # worker has not started; the worker's records reach it only pickled.
    made, live_at_start = kept_records(monkeypatch)
    config = experiment_with_truth([0.2, 0.2], 2)
    config.replications = 6
    report = replicate(config, workers=2)
    gc.collect()
    assert live_at_start[0] == 0 and max(live_at_start) <= 2
    alive = [ref() for ref in made if ref() is not None]
    assert len(alive) == 2
    assert {id(record) for record in alive} == {id(report.records["paim"]), id(report.records["ipc"])}
    assert report.to_dict() == replicate(config, workers=1).to_dict()


# This process is one of the workers, so a pool of k forks k - 1.
@pytest.mark.parametrize("cpus, workers, replications, algorithm, expected", [
    (2, 1, 3, "both", 0),     # one after another, in this process
    (2, 2, 1, "paim", 0),     # a single run needs no pool
    (2, 2, 1, "both", 1),     # PAIM here, IPC beside it
    (2, 2, 3, "both", 1),
    (2, None, 3, "ipc", 1),   # the default: every usable CPU
    (3, 3, 1, "both", 1),     # at most one worker per run
    (3, None, 2, "both", 2),
])
def test_pool_forks_one_process_fewer_than_workers_and_none_outlives_replicate(
    monkeypatch, forks, cpus, workers, replications, algorithm, expected
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    config = experiment_with_truth([0.2, 0.2], 2)
    config.replications = replications
    config.algorithm = algorithm
    report = replicate(config, workers=workers)
    assert forks[0] == expected
    assert multiprocessing.active_children() == []
    assert sorted(report.records) == sorted(["paim", "ipc"] if algorithm == "both" else [algorithm])
    assert report.to_dict() == replicate(config, workers=1).to_dict()


@pytest.mark.parametrize("workers", [0, -1, 3, 2.0, True])
def test_bad_worker_count_is_rejected_before_any_run(monkeypatch, two_cpus, forks, workers):
    def oracle(*args):
        raise OracleRan

    monkeypatch.setattr(harness, "grid_expectation", oracle)
    with pytest.raises(ConfigError, match=f"^workers must be an integer from 1 to the 2 usable CPUs, got {workers!r}$"):
        replicate(experiment_with_truth("grid", 2), workers=workers)
    assert forks[0] == 0


def test_without_fork_the_runs_go_in_this_process(monkeypatch, two_cpus):
    config = experiment_with_truth([0.2, 0.2], 2)
    config.replications = 2
    expected = replicate(config, workers=1).to_dict()
    monkeypatch.delattr(os, "fork")
    assert replicate(config, workers=2).to_dict() == expected
    assert replicate(config).to_dict() == expected


class OracleRan(Exception):
    pass


# (section, key, value, message): a sampler setting each check rejects
BAD_SETTINGS = {
    "no-chains": ("sampler", "n_chains", 0, "n_chains must be at least 1"),
    "fewer-samples-than-chains": ("sampler", "total_samples", 3, "total_samples must be at least n_chains"),
    "train-not-before-stop": ("sampler", "t_stop", 2, "t_train must be strictly below t_stop"),
    "epsilon-zero": ("sampler", "epsilon", 0.0, "epsilon must be positive and finite"),
    "epsilon-below-pivot-floor": ("sampler", "epsilon", 1e-320, "epsilon must be above 1e-300"),
    "sigma-negative": ("init", "sigma", -1.0, "sigma must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS) + ["good"])
def test_bad_sampler_setting_is_rejected_before_the_grid_oracle(monkeypatch, case):
    # A 3-D grid truth costs seconds; a setting that cannot run must not wait for it.
    def oracle(*args):
        raise OracleRan

    monkeypatch.setattr(harness, "grid_expectation", oracle)
    eye = np.eye(3).tolist()
    raw = {
        "target": {"name": "gaussian_mixture", "params": {"means": [[0, 0, 0], [3, 3, 3]], "covs": [eye, eye]}},
        "sampler": {"n_chains": 4, "total_samples": 100, "t_train": 2},
        "init": {"box_lower": [-5.0] * 3, "box_upper": [5.0] * 3, "sigma": 2.0},
        "truth": "grid",
    }
    if case == "good":
        with pytest.raises(OracleRan):
            replicate(ExperimentConfig.from_dict(raw))
        return
    section, key, value, message = BAD_SETTINGS[case]
    raw[section][key] = value
    with pytest.raises(ConfigError, match=f"^{message}"):
        replicate(ExperimentConfig.from_dict(raw))
