import numpy as np
import pytest

from paim.gaussian import cholesky
from paim.sampler import PaimConfig, run_ipc, run_paim
from paim.targets import make_banana_target, make_gaussian_target


def random_inits(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-15, 15, (n, 2, 2)), rng.uniform(-15, 15, (n, 2))


def ipc_config(n, total, means, states, sigma, seed=0, t_train=1):
    """A config for ``run_ipc``; it runs with adaptation off whatever ``t_train`` is."""
    return PaimConfig(n_chains=n, total_samples=total, t_train=t_train, init_means=means,
                      init_states=states, init_sigma=sigma, seed=seed)


def baseline_budgets(total, n):
    """Final per-chain iteration counts of a baseline run."""
    means, states = random_inits(n, 0)
    return run_ipc(ipc_config(n, total, means, states, 10.0), make_gaussian_target([0.0, 0.0], np.eye(2))).budgets


class TestBudgets:
    def test_even_split(self):
        assert baseline_budgets(5000, 10).tolist() == [500] * 10

    def test_truncated_last_chain(self):
        assert baseline_budgets(10, 4).tolist() == [3, 3, 2, 2]
        assert baseline_budgets(6, 5).tolist() == [2, 1, 1, 1, 1]
        assert (baseline_budgets(52, 50) >= 1).all()

    def test_sum_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            total = int(rng.integers(n, 500))
            b = baseline_budgets(total, n)
            assert b.sum() == total
            assert b.min() >= 1
            assert b.max() - b.min() <= 1


class TestRunIpc:
    def test_proposals_never_change(self):
        means, states = random_inits(4, 3)
        record = run_ipc(ipc_config(4, 200, means, states, 10.0, seed=5), make_banana_target())
        for j in range(4):
            np.testing.assert_array_equal(record.proposal_means[j, 0], means[j, 0])
            np.testing.assert_array_equal(record.proposal_means[j, 1], means[j, 1])
            np.testing.assert_array_equal(record.proposal_covs[j, 0], 100.0 * np.eye(2))
        assert record.global_mean is None

    def test_sample_count_and_budgets(self):
        means, states = random_inits(3, 7)
        record = run_ipc(ipc_config(3, 100, means, states, 10.0, seed=5), make_banana_target())
        assert record.samples.shape == (100, 2)
        assert record.budgets.tolist() == [34, 33, 33]

    def test_proposal_matching_target_accepts_everything(self):
        # single chain whose both components equal the Gaussian target
        means = np.zeros((1, 2, 2))
        states = np.zeros((1, 2))
        target = make_gaussian_target([0.0, 0.0], np.eye(2))
        record = run_ipc(ipc_config(1, 500, means, states, 1.0, seed=11), target)
        assert record.sample_accepted.all()

    def test_all_chains_active_with_even_budgets(self):
        means, states = random_inits(4, 9)
        record = run_ipc(ipc_config(4, 200, means, states, 10.0, seed=13), make_banana_target())
        assert record.activity.all()
        assert record.t_total == 50

    def test_activity_is_the_active_set_when_chains_do_not_divide_the_budget(self):
        # the baseline never suspends a chain, so the last step's row is
        # all True although only its first L % N chains run
        target = make_banana_target()
        for n, total in ((4, 10), (5, 6), (50, 52), (7, 1000)):
            means, states = random_inits(n, n)
            record = run_ipc(ipc_config(n, total, means, states, 10.0, seed=n + total), target)
            assert record.activity.all()
            assert record.activity.shape == (-(-total // n), n)
            assert record.final_active_count == n
            last = record.sample_step == record.t_total - 1
            assert record.sample_chain[last].tolist() == list(range(total % n))

    def test_seed_matched_equivalence_with_frozen_adaptive_run(self):
        # adaptation disabled entirely: the adaptive sampler must reduce
        # to the baseline field for field, whatever t_train and t_stop say
        target = make_banana_target()
        for n, total in ((4, 200), (4, 10), (5, 6), (50, 52), (3, 100)):
            means, states = random_inits(n, 15 + n)
            paim_cfg = PaimConfig(n_chains=n, total_samples=total, t_train=-1, t_stop=0.0,
                                  init_means=means, init_states=states, init_sigma=10.0, seed=17)
            a = run_paim(paim_cfg, target)
            b = run_ipc(ipc_config(n, total, means, states, 10.0, seed=17, t_train=5), target)
            for name in ("samples", "sample_step", "sample_chain", "sample_iteration", "sample_accepted",
                         "activity", "budgets"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
            assert a.proposal_means.shape == b.proposal_means.shape == (n, 2, 2)
            np.testing.assert_array_equal(a.proposal_means, b.proposal_means)
            np.testing.assert_array_equal(a.proposal_covs, b.proposal_covs)
            (lower_a, log_det_half_a), (lower_b, log_det_half_b) = cholesky(a.proposal_covs), cholesky(b.proposal_covs)
            np.testing.assert_array_equal(lower_a, lower_b)
            np.testing.assert_array_equal(log_det_half_a, log_det_half_b)
            assert a.global_mean is None and b.global_mean is None
            assert a.global_cov is None and b.global_cov is None

    def test_chain_permutation_leaves_pooled_samples_alone(self):
        # permuting chains permutes per-chain outputs; with per-chain
        # streams tied to the index, swapping identical initializations
        # leaves the pooled multiset unchanged
        means = np.zeros((3, 2, 2))
        states = np.zeros((3, 2))
        cfg = ipc_config(3, 90, means, states, 5.0, seed=19)
        target = make_banana_target()
        record = run_ipc(cfg, target)
        by_chain = {
            j: record.samples[record.sample_chain == j].tolist() for j in range(3)
        }
        # same run again: chains reproduce their own sequences exactly
        again = run_ipc(cfg, target)
        for j in range(3):
            assert again.samples[again.sample_chain == j].tolist() == by_chain[j]

    def test_validation(self):
        means, states = random_inits(4, 21)
        with pytest.raises(ValueError, match="total_samples"):
            run_ipc(ipc_config(4, 2, means, states, 10.0), make_banana_target())
