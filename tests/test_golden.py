"""Fixed-seed record digests.

Each case runs ``run_paim`` and ``run_ipc`` on one fixed config and pins
a SHA-256 over ``samples``, ``sample_accepted``, ``activity``,
``budgets`` and the final proposals' means and covariances. A change
that is meant to leave the records bit-identical (a speed-up, a
refactor) must keep every digest; a change that moves them must say so
and show that the Table-1 MSEs did not move statistically.
"""

import hashlib

import numpy as np
import pytest

from paim.baseline import IpcConfig, run_ipc
from paim.sampler import PaimConfig, run_paim
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
    for p in record.proposals:
        for comp in (p.global_component, p.local_component):
            h.update(np.ascontiguousarray(comp.mean, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(comp.cov, dtype=np.float64).tobytes())
    return h.hexdigest()


def spread_config(n, total, t_train, init_seed, **overrides):
    rng = np.random.default_rng(init_seed)
    return PaimConfig(
        n_chains=n,
        total_samples=total,
        t_train=t_train,
        init_means=rng.uniform(-15, 15, (n, 2, 2)),
        init_states=rng.uniform(-15, 15, (n, 2)),
        init_sigma=10.0,
        **overrides,
    )


def three_modes():
    return make_gaussian_mixture_target(
        [[-8.0, -8.0], [0.0, 6.0], [7.0, -3.0]], [np.eye(2), 2.0 * np.eye(2), [[1.5, 0.5], [0.5, 1.0]]]
    )


CASES = {
    # 20 spread-out chains on the banana: the floor rule suspends most of them.
    "suspending": (lambda: spread_config(20, 400, 2, 74, seed=99), make_banana_target),
    # adaptation frozen at step 8 on a three-mode mixture
    "finite-t_stop": (lambda: spread_config(6, 600, 1, 76, t_stop=8, seed=3), three_modes),
    "single-chain": (lambda: spread_config(1, 150, 1, 77, seed=5), make_banana_target),
    # ceil rule: every chain with an assigned state stays active
    "ceil-rule": (lambda: spread_config(8, 800, 10, 78, activation_rule="ceil", seed=11), make_banana_target),
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden_digests(name):
    make_config, make_target = CASES[name]
    config = make_config()
    paim = run_paim(config, make_target())
    ipc = run_ipc(IpcConfig.from_paim(config), make_target())
    assert (record_digest(paim), record_digest(ipc)) == GOLDEN[name]

