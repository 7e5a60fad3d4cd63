"""Exact invariance of the MH kernel (Geweke 2004, "Getting it right").

Chains started at exact draws from the target stay distributed as the
target after any number of MH iterations, however poor the proposal.
Each test starts many independent chains at exact draws, runs ``STEPS``
frozen iterations under a fixed two-component proposal that covers the
target badly, and checks the z-score of each coordinate's mean and
second central moment over the final states. A kernel that scored the
proposal or the target densities the wrong way round drives the chains
away from the target within a few iterations and fails by a wide
margin; the kernel as it is gives |z| of order 1. The seeds are fixed,
so the outcome is too.
"""

import numpy as np
import pytest

from paim.sampler import ChainEnsemble, PaimConfig, chain_streams, run_ipc
from paim.targets import make_gaussian_mixture_target

CHAINS = 3000
STEPS = 10
# Every z-score is a deterministic function of the seeds; 4 leaves room
# for 16 of them while a broken kernel reads in the tens or more.
Z_BOUND = 4.0

# name -> (weights, means, covariances) of the target. One component is a
# Gaussian target; two make a two-mode one, which the proposal below
# mostly misses.
TARGETS = {
    "gaussian": ([1.0], [[1.0, -2.0]], [[[2.0, 0.6], [0.6, 1.0]]]),
    "two-modes": (
        [0.7, 0.3],
        [[-3.0, -2.0], [4.0, 3.0]],
        [[[1.0, 0.3], [0.3, 0.5]], [[0.6, -0.2], [-0.2, 1.5]]],
    ),
}


def exact_draws(weights, means, covs, rng):
    """``CHAINS`` independent draws from the Gaussian mixture."""
    comp = rng.choice(len(weights), size=CHAINS, p=weights)
    lowers = np.linalg.cholesky(covs)
    z = rng.standard_normal((CHAINS, len(means[0])))
    return np.asarray(means)[comp] + (lowers[comp] @ z[..., None])[..., 0]


def z_scores(states, weights, means, covs):
    """z-scores of the per-coordinate mean and second central moment of
    ``states`` against the mixture's exact values, with the standard
    error estimated from the states themselves."""
    w, mu, cov = (np.asarray(a, dtype=float) for a in (weights, means, covs))
    mean = w @ mu
    second = w @ (np.diagonal(cov, axis1=1, axis2=2) + (mu - mean) ** 2)
    scores = []
    for values, expected in ((states, mean), ((states - mean) ** 2, second)):
        scores.extend((values.mean(axis=0) - expected) / (values.std(axis=0, ddof=1) / np.sqrt(len(values))))
    return np.array(scores)


def final_states_advance(target, init_states, proposal_means, proposal_covs):
    """The states after ``STEPS`` iterations made by one advance call."""
    chains = ChainEnsemble(init_states, proposal_means, proposal_covs, chain_streams(7, CHAINS), target)
    states, _ = chains.advance(np.arange(CHAINS), STEPS)
    return states[-1]


def final_states_ipc(target, init_states, proposal_means, proposal_covs):
    """The states after ``STEPS`` steps of the fixed-proposal baseline,
    whose two components share the covariance ``sigma**2 * I``."""
    config = PaimConfig(
        n_chains=CHAINS,
        total_samples=CHAINS * STEPS,
        t_train=-1,
        t_stop=0,
        init_means=np.broadcast_to(proposal_means, (CHAINS, 2, 2)),
        init_states=init_states,
        sigma=float(np.sqrt(proposal_covs[0, 0, 0])),
        seed=7,
    )
    record = run_ipc(config, target)
    assert (record.budgets == STEPS).all()
    return record.samples[-CHAINS:]


# Both components sit off the target's modes; the first is narrow. A
# fifth to nine tenths of the chains move within ``STEPS`` iterations.
POOR_MEANS = np.array([[1.5, -0.5], [-1.0, 0.0]])
POOR_COVS = {
    final_states_advance: np.array([0.5 * np.eye(2), [[8.0, 2.0], [2.0, 6.0]]]),
    final_states_ipc: np.array([2.0 * np.eye(2)] * 2),
}


@pytest.mark.parametrize("runner", [final_states_advance, final_states_ipc], ids=["advance", "run_ipc"])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_exact_draws_stay_exact_under_a_poor_proposal(name, runner):
    weights, means, covs = TARGETS[name]
    target = make_gaussian_mixture_target(means, covs, weights)
    init_states = exact_draws(weights, means, covs, np.random.default_rng(2004))
    # The starting draws pass the check themselves.
    assert np.abs(z_scores(init_states, weights, means, covs)).max() < Z_BOUND
    final = runner(target, init_states, POOR_MEANS, POOR_COVS[runner])
    assert (final != init_states).any(axis=1).mean() > 0.2
    z = z_scores(final, weights, means, covs)
    assert np.abs(z).max() < Z_BOUND, z.round(2).tolist()
