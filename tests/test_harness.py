import dataclasses
import gc
import math
import multiprocessing
import os
import weakref

import numpy as np
import pytest

from paim import harness
from paim.harness import (
    CONFIG_KEYS,
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
        sigma=3.0,
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
        sample_accepted=np.arange(m) % 3 == 0,
        activity=activity,
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
        sigma=4.0,
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


def test_write_json_indents_sorts_keys_and_ends_the_file_with_a_newline(tmp_path):
    path = tmp_path / "payload.json"
    harness.write_json(str(path), {"b": [1, None], "a": 0.1})
    assert path.read_bytes() == b'{\n  "a": 0.1,\n  "b": [\n    1,\n    null\n  ]\n}\n'


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


def with_key(raw: dict, path: str, value) -> dict:
    """``raw`` with the key at ``path``, such as ``sampler.n_chains``, set to ``value``."""
    section, _, key = path.rpartition(".")
    (raw[section] if section else raw)[key] = value
    return raw


# key path -> a valid value that differs from base_config() or the default
CONFIG_VARIANTS = {
    "algorithm": "paim",
    "replications": 2,
    "base_seed": 1,
    "output_dir": "elsewhere",
    "truth": "grid",
    "target.name": "gaussian_mixture",
    "target.params": {"mean": [0.0, 0.0]},
    "sampler.n_chains": 3,
    "sampler.total_samples": 11,
    "sampler.t_train": 2,
    "sampler.t_stop": 30,
    "sampler.epsilon": 0.5,
    "init.box_lower": [-2.0, -1.0],
    "init.box_upper": [1.0, 2.0],
    "init.sigma": 2.0,
}


def test_every_config_key_reaches_the_parsed_config():
    # A key the parser accepts but drops would be a config field that
    # nothing reads.
    assert set(CONFIG_VARIANTS) == set(CONFIG_KEYS)
    default = repr(ExperimentConfig.from_dict(base_config()))
    for path, value in CONFIG_VARIANTS.items():
        assert repr(ExperimentConfig.from_dict(with_key(base_config(), path, value))) != default, path


def test_every_config_field_has_one_key():
    # A field without a key could not be set from a file, nor checked.
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(name for name, _ in CONFIG_KEYS.values()) == sorted(fields)


def test_ellipse_radius_holds_the_chi_square_mass():
    import mpmath

    # Up to dims where the series has thousands of terms and exp(-x / 2)
    # alone would underflow.
    for dim in [*range(1, 21), 2000, 5000]:
        r = mpmath.mpf(ellipse_radius(dim))
        with mpmath.workdps(40):
            mass = mpmath.gammainc(mpmath.mpf(dim) / 2, 0, r * r / 2, regularized=True)
        assert abs(float(mass) - ELLIPSE_MASS) < 1e-13, dim


@pytest.mark.parametrize("dim", range(1, 21))
def test_ellipse_radius_is_within_two_ulp_of_the_exact_quantile(dim):
    import mpmath

    r = ellipse_radius(dim)
    with mpmath.workdps(40):
        a = mpmath.mpf(dim) / 2
        y = mpmath.findroot(lambda y: mpmath.gammainc(a, 0, y, regularized=True) - ELLIPSE_MASS, r * r / 2)
        exact = mpmath.sqrt(2 * y)
        assert abs(r - exact) <= 2 * math.ulp(r)


def test_ellipse_radius_keeps_the_bits_of_the_golden_runs():
    # sqrt(2 * scipy.special.gammaincinv(dim / 2, 0.9)) with scipy 1.17.1,
    # which wrote the ellipses.csv files that the golden digests pin
    assert ellipse_radius(2) == 2.145966026289347
    assert ellipse_radius(4) == 2.789164810428896


def kept_records(monkeypatch, config):
    """Weak references to every RunRecord of ``config``'s study that this
    process makes or unpickles; as each run here starts, the replications
    of those alive; and the replication of each record a worker sends
    back. A record carries its replication as ``rep``, set before a worker
    pickles it."""
    # RunRecord is an unhashable dataclass, so weak references sit in a list
    made = []
    live_at_start = []
    sent_back = []

    rep_of_seed = {harness.replication_config(config, rep).seed: rep for rep in range(config.replications)}

    def kept(runner):
        def run(run_config, target):
            gc.collect()
            live_at_start.append([record.rep for ref in made if (record := ref()) is not None])
            record = runner(run_config, target)
            record.rep = rep_of_seed[run_config.seed]
            made.append(weakref.ref(record))
            return record

        return run

    def setstate(self, state):  # a record a worker sends back
        self.__dict__.update(state)
        made.append(weakref.ref(self))
        sent_back.append(self.rep)

    monkeypatch.setattr(harness, "run_paim", kept(harness.run_paim))
    monkeypatch.setattr(harness, "run_ipc", kept(harness.run_ipc))
    monkeypatch.setattr(RunRecord, "__setstate__", setstate, raising=False)
    return made, live_at_start, sent_back


def test_replicate_keeps_only_the_first_replications_records(monkeypatch):
    config = dataclasses.replace(experiment_with_truth([0.2, 0.2], 2), replications=4)
    made, live_at_start, _ = kept_records(monkeypatch, config)
    report = replicate(config, workers=1)
    gc.collect()
    # while later replications run, only replication 0's two records live
    assert live_at_start == [[], [0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]
    assert len(report.paim.estimates) == len(report.ipc.estimates) == 4
    alive = [ref() for ref in made if ref() is not None]
    assert len(alive) == 2
    assert alive[0] is report.records["paim"] and alive[1] is report.records["ipc"]


def test_replicate_in_workers_keeps_only_the_first_replications_records(monkeypatch, two_cpus):
    # This process makes replication 0's PAIM run and the runs that the
    # worker has not started; the worker's records reach it only pickled.
    config = dataclasses.replace(experiment_with_truth([0.2, 0.2], 2), replications=6)
    made, live_at_start, sent_back = kept_records(monkeypatch, config)
    report = replicate(config, workers=2)
    gc.collect()
    # The worker may send replication 0's IPC record back before or while
    # this process makes any run, so only which records live can be fixed.
    assert all(reps in ([], [0], [0, 0]) for reps in live_at_start), live_at_start
    assert set(sent_back) <= {0}, sent_back
    alive = [ref() for ref in made if ref() is not None]
    assert len(alive) == 2
    assert {id(record) for record in alive} == {id(report.records["paim"]), id(report.records["ipc"])}
    assert report.to_dict() == replicate(config, workers=1).to_dict()


def test_replicate_into_out_dirs_writes_each_run_where_it_ran_and_sends_back_no_record(
    monkeypatch, tmp_path, two_cpus
):
    # One replication: this process makes the PAIM run, a forked worker
    # the IPC run, and each writes its own files into a staging directory.
    config = dataclasses.replace(experiment_with_truth([0.2, 0.2], 2), total_samples=2000)
    expected = replicate(config, workers=2)
    assert sorted(expected.records) == ["ipc", "paim"]
    _, _, sent_back = kept_records(monkeypatch, config)
    writers = tmp_path / "writers"
    emit = harness.emit_outputs

    def emitting(record, report, out_dir):
        with open(writers, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {out_dir}\n")
        return emit(record, report, out_dir)

    monkeypatch.setattr(harness, "emit_outputs", emitting)
    out_dirs = {name: str(tmp_path / name) for name in ("paim", "ipc")}
    report = replicate(config, 2, out_dirs)
    assert report.records == {}
    assert sent_back == []
    assert report.to_dict() == expected.to_dict()
    written = dict(reversed(line.split()) for line in writers.read_text(encoding="utf-8").splitlines())
    staging = {name: os.path.join(out_dir, harness.STAGING_DIR) for name, out_dir in out_dirs.items()}
    assert sorted(written) == sorted(staging.values())
    assert written[staging["paim"]] == str(os.getpid()) != written[staging["ipc"]]
    for out_dir in staging.values():
        assert sorted(os.listdir(out_dir)) == sorted(f for f in harness.OUTPUT_FILES if f != "summary.json")
    assert multiprocessing.active_children() == []


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
    config = dataclasses.replace(experiment_with_truth([0.2, 0.2], 2), replications=replications, algorithm=algorithm)
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
    config = dataclasses.replace(experiment_with_truth([0.2, 0.2], 2), replications=2)
    expected = replicate(config, workers=1).to_dict()
    monkeypatch.delattr(os, "fork")
    assert replicate(config, workers=2).to_dict() == expected
    assert replicate(config).to_dict() == expected


# The keys of the fields without a default, and their sections.
@pytest.mark.parametrize("path", ["target", "sampler", "init", "target.name", "sampler.n_chains",
                                  "sampler.total_samples", "sampler.t_train", "init.box_lower",
                                  "init.box_upper", "init.sigma"])
def test_a_missing_key_is_named_by_its_path(path):
    section, _, key = path.rpartition(".")
    raw = base_config()
    del (raw[section] if section else raw)[key]
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value) == f"missing config field: {path}"


def direct_config(**changes) -> ExperimentConfig:
    """base_config(), built without a config file."""
    return ExperimentConfig(**{
        "algorithm": "both",
        "target_name": "gaussian",
        "target_params": {"mean": [0.2, 0.2], "sigma": 1.0},
        "n_chains": 2,
        "total_samples": 10,
        "t_train": 1,
        "box_lower": [-1.0, -1.0],
        "box_upper": [1.0, 1.0],
        "sigma": 1.0,
        "truth": [0.2, 0.2],
        **changes,
    })


# field -> (its path in a config file, what it must be, values that are not that)
SCALAR_FIELDS = {
    "n_chains": ("sampler.n_chains", "an integer", (True, 2.5, "3", None, np.float64(2.0), np.bool_(True))),
    "total_samples": ("sampler.total_samples", "an integer", (False, 10.0, "10")),
    "t_train": ("sampler.t_train", "an integer", (True, 1.0, [1])),
    "replications": ("replications", "an integer", (True, 1.5, "1")),
    "base_seed": ("base_seed", "an integer", (False, 0.0, "3", None)),
    "t_stop": ("sampler.t_stop", "a number", (True, "30", None, [30])),
    "epsilon": ("sampler.epsilon", "a number", (True, "0.4", np.bool_(True))),
    "sigma": ("init.sigma", "a number", (False, "2", None, [1.0])),
    "output_dir": ("output_dir", "a string", (5, None, b"out")),
}


@pytest.mark.parametrize("name, value", [(name, value) for name, (_, _, values) in SCALAR_FIELDS.items()
                                         for value in values])
def test_a_directly_built_config_checks_its_scalars(name, value):
    path, kind, _ = SCALAR_FIELDS[name]
    with pytest.raises(ConfigError) as info:
        direct_config(**{name: value})
    assert str(info.value) == f"bad config value: {path} must be {kind}, got {value!r}"


# (field, a value that it must not hold, the error that a config file holding it gets)
BAD_VALUES = [
    ("box_lower", ["-1", True], "bad config value: init.box_lower must be a number or a list of numbers, "
                                "got ['-1', True]"),
    ("box_lower", [[-1.0], [-1.0, 2.0]], "bad config value: init.box_lower must not be a ragged list, "
                                         "got [[-1.0], [-1.0, 2.0]]"),
    ("box_upper", [1.0, True], "bad config value: init.box_upper must be a number or a list of numbers, "
                               "got [1.0, True]"),
    ("truth", ["0.2", False], "bad config value: truth must be a number or a list of numbers, got ['0.2', False]"),
    ("truth", "gird", "bad config value: truth must be a number or a list of numbers, got 'gird'"),
    ("truth", {"grid": 5}, "bad config value: truth.grid must be a JSON object, got 5"),
    ("target_params", [1], "target params must be a JSON object"),
]


@pytest.mark.parametrize("name, value, message", BAD_VALUES)
def test_a_directly_built_config_fails_as_its_config_file_does(name, value, message):
    (path,) = [path for path, (field, _) in CONFIG_KEYS.items() if field == name]
    with pytest.raises(ConfigError) as from_file:
        ExperimentConfig.from_dict(with_key(base_config(), path, value))
    with pytest.raises(ConfigError) as direct:
        direct_config(**{name: value})
    assert str(from_file.value) == str(direct.value) == message


def test_checking_a_checked_config_changes_nothing():
    # As `paim benchmark` and the benchmark's workloads build theirs.
    config = direct_config(box_lower=np.array([-1.0, -1.0]), truth=harness.GridSpec(np.zeros(2), np.ones(2), 11))
    again = dataclasses.replace(config)
    assert again.box_lower is config.box_lower and again.truth.lower is config.truth.lower
    assert repr(again) == repr(config)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_a_built_config_cannot_be_changed(name):
    # Only dataclasses.replace derives a changed config, and it checks it again.
    config = direct_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))


@pytest.mark.parametrize("name, value, message", [
    ("replications", 0, "replications must be at least 1"),
    ("algorithm", "bogus", "unknown algorithm 'bogus' (expected paim, ipc, or both)"),
    ("total_samples", 10**30, "bad config value: sampler.total_samples must be at most 576460752303423487, "
                              "the most 2-D samples one array can hold, got 10" + "0" * 29),
])
def test_a_replaced_config_fails_as_its_config_file_does(name, value, message):
    (path,) = [path for path, (field, _) in CONFIG_KEYS.items() if field == name]
    with pytest.raises(ConfigError) as from_file:
        ExperimentConfig.from_dict(with_key(base_config(), path, value))
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(direct_config(), **{name: value})
    assert str(from_file.value) == str(replaced.value) == message


def test_a_directly_built_config_stores_numpy_scalars_as_python_numbers():
    # summary.json is written from these, and json cannot write a numpy scalar.
    config = direct_config(n_chains=np.int64(2), total_samples=np.uint16(10), t_train=np.int8(1),
                           replications=np.int32(2), base_seed=np.uint64(7), sigma=np.int64(2),
                           epsilon=np.float32(0.5), t_stop=np.float64(30.0))
    assert repr(config) == repr(direct_config(n_chains=2, total_samples=10, t_train=1, replications=2, base_seed=7,
                                              sigma=2.0, epsilon=0.5, t_stop=30.0))
    for name, (_, kind, _) in SCALAR_FIELDS.items():
        assert type(getattr(config, name)) is {"an integer": int, "a number": float, "a string": str}[kind], name


class OracleRan(Exception):
    pass


# (key path, value, message): a sampler setting each check rejects
BAD_SETTINGS = {
    "no-chains": ("sampler.n_chains", 0, "n_chains must be at least 1"),
    "fewer-samples-than-chains": ("sampler.total_samples", 3, "total_samples must be at least n_chains"),
    "train-not-before-stop": ("sampler.t_stop", 2, "t_train must be strictly below t_stop"),
    "epsilon-zero": ("sampler.epsilon", 0.0, "epsilon must be positive and finite"),
    "epsilon-below-pivot-floor": ("sampler.epsilon", 1e-320, "epsilon must be above 1e-300"),
    "sigma-negative": ("init.sigma", -1.0, "sigma must be positive and finite"),
    "box-not-target-dim": ("init", {"box_lower": [-5.0] * 2, "box_upper": [5.0] * 2, "sigma": 2.0},
                           "target dim 3 does not match config dim 2, the length of init.box_lower"),
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
    path, value, message = BAD_SETTINGS[case]
    with pytest.raises(ConfigError, match=f"^{message}"):
        replicate(ExperimentConfig.from_dict(with_key(raw, path, value)))


def test_adaptation_lowers_the_mse_on_a_table1_cell():
    # The headline result, on the Table-1 cell N=10, T_train=10 cut to
    # L=2000 and R=20, at a fixed seed: the paired difference of the
    # squared errors (IPC - PAIM) is above 0 by more than two of its
    # standard errors (here 71.5% lower MSE, z 3.69, PAIM better in 17 of 20).
    config = ExperimentConfig(target_name="banana", n_chains=10, total_samples=2000, t_train=10,
                              box_lower=[-15.0, -15.0], box_upper=[15.0, 15.0], sigma=10.0,
                              replications=20, base_seed=0, truth="grid")
    report = replicate(config, workers=1)
    assert report.reduction_pct > 0
    errors = {name: np.sum((np.array(getattr(report, name).estimates) - report.truth) ** 2, axis=1)
              for name in ("paim", "ipc")}
    diff = errors["ipc"] - errors["paim"]
    assert diff.mean() > 2 * diff.std(ddof=1) / math.sqrt(diff.size)
