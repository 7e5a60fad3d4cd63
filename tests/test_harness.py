import math

import numpy as np

from paim.harness import ExperimentConfig, emit_outputs, make_target, resolve_truth
from paim.sampler import PaimConfig, RunRecord, run_paim
from paim.targets import grid_expectation, make_gaussian_target


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


def test_csvs_match_row_by_row_formatting_for_edge_values(tmp_path):
    values = [0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308, math.inf, -math.inf, 0.1, 1 / 3, -2.5e-7]
    samples = np.array(values).reshape(-1, 1)
    m = samples.shape[0]
    record = RunRecord(
        samples=samples,
        sample_step=np.arange(m, dtype=np.int64),
        sample_chain=np.zeros(m, dtype=np.int64),
        sample_iteration=np.arange(1, m + 1, dtype=np.int64),
        sample_accepted=np.arange(m) % 3 == 0,
        activity=np.ones((m, 1), dtype=bool),
        budgets=np.array([m], dtype=np.int64),
        proposal_means=np.zeros((1, 2, 1)),
        proposal_covs=np.ones((1, 2, 1, 1)),
        global_mean=None,
        global_cov=None,
    )
    assert_csvs_match_row_by_row(record, tmp_path)


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
