import math

import numpy as np

from paim.harness import emit_outputs
from paim.sampler import PaimConfig, RunRecord, run_paim
from paim.targets import make_gaussian_target


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
        proposals=[],
        global_mean=None,
        global_cov=None,
    )
    assert_csvs_match_row_by_row(record, tmp_path)
