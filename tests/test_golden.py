"""Fixed-seed record digests.

Each case runs ``run_paim`` and ``run_ipc`` on one fixed config and pins
a SHA-256 over ``samples``, ``sample_accepted``, ``activity``,
``budgets`` and the final proposal means and covariances; a second
test pins the adaptive run's final ``global_mean`` and ``global_cov``, and
a third the baseline's samples when the chain count does not divide the
sample budget. A change
that is meant to leave the records bit-identical (a speed-up, a
refactor) must keep every digest; a change that moves them must say so
and show that the Table-1 MSEs did not move statistically.
"""

import hashlib

import numpy as np
import pytest

from paim.sampler import PaimConfig, run_ipc, run_paim
from paim.targets import make_banana_target, make_gaussian_mixture_target


def record_digest(record) -> str:
    h = hashlib.sha256()
    for values, dtype in (
        (record.samples, np.float64),
        (record.sample_accepted, np.bool_),
        (record.activity, np.bool_),
        (record.budgets, np.int64),
    ):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    # per chain: global mean, global covariance, local mean, local covariance
    for means, covs in zip(record.proposal_means, record.proposal_covs):
        for c in (0, 1):
            h.update(np.ascontiguousarray(means[c], dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(covs[c], dtype=np.float64).tobytes())
    return h.hexdigest()


def global_moments_digest(record) -> str:
    h = hashlib.sha256()
    for values in (record.global_mean, record.global_cov):
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


def spread_config(n, total, t_train, init_seed, dim=2, **overrides):
    rng = np.random.default_rng(init_seed)
    return PaimConfig(
        n_chains=n,
        total_samples=total,
        t_train=t_train,
        init_means=rng.uniform(-15, 15, (n, 2, dim)),
        init_states=rng.uniform(-15, 15, (n, dim)),
        init_sigma=10.0,
        **overrides,
    )


def three_modes():
    return make_gaussian_mixture_target(
        [[-8.0, -8.0], [0.0, 6.0], [7.0, -3.0]], [np.eye(2), 2.0 * np.eye(2), [[1.5, 0.5], [0.5, 1.0]]]
    )


def correlated_pair_3d():
    return make_gaussian_mixture_target(
        [[-6.0, -5.0, 2.0], [5.0, 4.0, -3.0]],
        [
            [[2.0, 0.9, -0.5], [0.9, 1.5, 0.4], [-0.5, 0.4, 1.0]],
            [[1.0, -0.6, 0.3], [-0.6, 2.5, 0.8], [0.3, 0.8, 1.2]],
        ],
        [0.6, 0.4],
    )


CASES = {
    # 20 spread-out chains on the banana: the floor rule suspends most of them.
    "suspending": (lambda: spread_config(20, 400, 2, 74, seed=99), make_banana_target),
    # adaptation frozen at step 8 on a three-mode mixture
    "finite-t_stop": (lambda: spread_config(6, 600, 1, 76, t_stop=8, seed=3), three_modes),
    "single-chain": (lambda: spread_config(1, 150, 1, 77, seed=5), make_banana_target),
    # ceil rule: every chain with an assigned state stays active
    "ceil-rule": (lambda: spread_config(8, 800, 10, 78, activation_rule="ceil", seed=11), make_banana_target),
    # two correlated modes in R^3, adaptation frozen at step 30
    "3d-finite-t_stop": (lambda: spread_config(6, 900, 2, 79, dim=3, t_stop=30, seed=23), correlated_pair_3d),
    # 50 chains on the banana, adapting from step 2: many clusters, many refits per step
    "many-chains": (lambda: spread_config(50, 2500, 1, 80, seed=31), make_banana_target),
}

GOLDEN = {
    "suspending": (
        "62084b692d903c212b69837747f59f604bab46f78e241ddad91e04ab81db9464",
        "699691ea2a5dfacc29d68cc5da09024725833c8aed6921e49133b7ca22580f2f",
    ),
    "finite-t_stop": (
        "00a59d87c3bdaf7779f5ba8d530f0cc11bff2d846f0bebd1fd1958bfc442c891",
        "a326cd0b0183963891aa554c0e4cb3e56282cca81f0d2f763d25b4333344bf38",
    ),
    "single-chain": (
        "e8486a7eedc7aedd9ab11c652e6d922e03e2c4037af7a43728569606fbf72142",
        "09503fa91d38524c0cbb8cba4448153a4ee70bfff874653d140b72e2a35ef8e9",
    ),
    "ceil-rule": (
        "aeb9d5e1b6d96f5de66490644fc046a84255f8805d11f0a2df584d6f5f8ef4c5",
        "123cb1ae92083b668131e99c052191703f86f14e7ca3eeff1519bfd59470b102",
    ),
    "3d-finite-t_stop": (
        "aee897b9d022d7c993a21e4f71b84f24fe52dd5f84eac953b775b7adbbf9d7e6",
        "f9e4e2cba0f8cd8df2dc424b695a3fda342dca263c09d0c79c85bce8b7170367",
    ),
    "many-chains": (
        "d839e937e137efb47932131476a65d1df08ee6003cd9bab8fd6c6a64786b57d4",
        "e0d3f74fad5aab8b2dbff0743a3db632c12a77fccb2a3d17e404e26c57883f77",
    ),
}

# SHA-256 over the adaptive run's final ``global_mean`` and ``global_cov``,
# which ``record_digest`` does not cover.
GOLDEN_GLOBAL_MOMENTS = {
    "suspending": "6e1328008a2b7fad8f414ba088ea2d1ec00b4eabf896c29469ef99517f968a6b",
    "finite-t_stop": "77381a9f4b9e1b0c6aafc035bb8e1e67224a3f40bce0f4a3300be36257b6d3db",
    "single-chain": "7ff9404a90b5c57ee8e7dd1a54d7c9e7bb85ccb7f757e2e774e9dc406bc74ba4",
    "ceil-rule": "0b31feed9a9567e379bc9e0143becf271f2792f1ab8bc9ea655ad987cd6d94f2",
    "3d-finite-t_stop": "3d05396f2c3b4a75bc4bf6c9c19fa9dde99d51e2683699ed2776412dd0fabd7b",
    "many-chains": "fa5343f34a7c0f771d6e695ca32174b203aa220b02e80c80f8b9d0cde046277a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden_digests(name):
    make_config, make_target = CASES[name]
    config = make_config()
    paim = run_paim(config, make_target())
    ipc = run_ipc(config, make_target())
    assert (record_digest(paim), record_digest(ipc)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_global_moments_match_golden_digests(name):
    make_config, make_target = CASES[name]
    record = run_paim(make_config(), make_target())
    assert global_moments_digest(record) == GOLDEN_GLOBAL_MOMENTS[name]


def ipc_samples_digest(record) -> str:
    h = hashlib.sha256()
    for values, dtype in (
        (record.samples, np.float64),
        (record.sample_accepted, np.bool_),
        (record.sample_iteration, np.int64),
        (record.budgets, np.int64),
    ):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return h.hexdigest()


# (n_chains, total_samples, init seed, seed): N does not divide L, so the
# last step runs only the first L % N chains. The digests were pinned on
# a separate baseline loop that recorded only those chains in the last
# ``activity`` row, so they leave ``activity`` out.
UNEVEN_IPC = {
    (7, 1000, 81, 37): "fc7bc5065ff928789a97848cd221e0c7eeaf464b3563cfa76ab6e9f638f8971e",
    (50, 52, 82, 41): "3dc919dfa4baeec83fb0aeb462fc8fe0aab87afa7d7ff41063b078a415ed3dcf",
}


@pytest.mark.parametrize("case", sorted(UNEVEN_IPC))
def test_ipc_samples_with_uneven_budgets_match_golden_digests(case):
    n, total, init_seed, seed = case
    record = run_ipc(spread_config(n, total, 1, init_seed, seed=seed), make_banana_target())
    assert ipc_samples_digest(record) == UNEVEN_IPC[case]
