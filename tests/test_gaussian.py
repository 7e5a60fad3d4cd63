import math

import numpy as np
import pytest

from paim.gaussian import LOG_TWO_PI, NotPositiveDefinite, cholesky, log_gaussian_pdf_stacked, regularize
from paim.sampler import chain_streams
from reference import log_gaussian_pdf, proposal_draws


class TestRegularize:
    def test_zero_scatter(self):
        out = regularize(np.zeros((2, 2)), 0.4)
        assert np.array_equal(out, np.diag([0.4, 0.4]))

    def test_diagonal(self):
        out = regularize(np.diag([1.0, 2.0]), 0.4)
        assert np.array_equal(out, np.diag([1.4, 2.4]))

    def test_off_diagonal_untouched(self):
        out = regularize(np.array([[2.0, 1.0], [1.0, 2.0]]), 0.5)
        assert np.array_equal(out, np.array([[2.5, 1.0], [1.0, 2.5]]))

    def test_rejects_asymmetry(self):
        bad = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            regularize(bad, 0.1)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            regularize(np.eye(2), 0.0)


class TestCholesky:
    def test_identity(self):
        lower, log_det_half = cholesky(np.eye(2))
        assert np.array_equal(lower, np.eye(2))
        assert log_det_half == 0.0

    def test_diagonal(self):
        lower, log_det_half = cholesky(np.diag([4.0, 9.0]))
        assert np.array_equal(lower, np.diag([2.0, 3.0]))
        assert log_det_half == pytest.approx(math.log(6.0))

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = rng.integers(1, 5)
            a = rng.standard_normal((d, d))
            cov = a @ a.T + 0.3 * np.eye(d)
            lower, _ = cholesky(cov)
            err = np.linalg.norm(lower @ lower.T - cov) / np.linalg.norm(cov)
            assert err < 1e-10
            assert np.all(lower.diagonal() > 0.0)

    def test_regularized_psd_always_factors(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.integers(1, 4)
            a = rng.standard_normal((d, rng.integers(1, 4)))
            scatter = a @ a.T  # PSD, possibly singular
            scatter = 0.5 * (scatter + scatter.T)
            cholesky(regularize(scatter, 1e-8))


def one_matrix_cholesky(a):
    """Textbook column loop for one matrix, with 1-D and 2-D-by-1-D products."""
    d = a.shape[0]
    lower = np.zeros((d, d))
    for j in range(d):
        ljj = math.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        lower[j, j] = ljj
        if j + 1 < d:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / ljj
    return lower, float(np.log(lower.diagonal()).sum())


class TestStackedCholesky:
    def random_covs(self, rng, k, d):
        a = rng.standard_normal((k, d, d)) * rng.uniform(0.1, 10.0, (k, 1, 1))
        covs = a @ a.swapaxes(-1, -2) + 0.3 * np.eye(d)
        return 0.5 * (covs + covs.swapaxes(-1, -2))

    def test_rows_match_factoring_alone(self):
        rng = np.random.default_rng(13)
        for d in range(1, 7):
            covs = self.random_covs(rng, 300, d)
            lowers, log_det_halves = cholesky(covs)
            assert lowers.shape[-1] == d
            assert lowers.shape == (300, d, d) and log_det_halves.shape == (300,)
            for cov, lower, log_det_half in zip(covs, lowers, log_det_halves):
                alone_lower, alone_log_det_half = cholesky(cov)
                np.testing.assert_array_equal(lower, alone_lower)
                assert log_det_half == alone_log_det_half
                assert isinstance(alone_log_det_half, float)
                ref_lower, ref_log_det_half = one_matrix_cholesky(cov)
                np.testing.assert_array_equal(lower, ref_lower)
                assert log_det_half == ref_log_det_half

    def test_leading_axes_kept(self):
        covs = self.random_covs(np.random.default_rng(14), 12, 3).reshape(4, 3, 3, 3)
        lowers, log_det_halves = cholesky(covs)
        assert lowers.shape == (4, 3, 3, 3) and log_det_halves.shape == (4, 3)
        np.testing.assert_array_equal(lowers[2, 1], cholesky(covs[2, 1])[0])

    def test_non_pd_row_rejected(self):
        covs = self.random_covs(np.random.default_rng(15), 5, 2)
        covs[3] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(NotPositiveDefinite, match=r"pivot -3.000e\+00 at column 1 \(floor 1e-300\)"):
            cholesky(covs)
        covs[3] = [[np.nan, 0.0], [0.0, 1.0]]
        with pytest.raises(NotPositiveDefinite, match="pivot nan at column 0"):
            cholesky(covs)

    def test_regularize_stack(self):
        scatter = np.stack([np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 2.0]])])
        out = regularize(scatter, 0.5)
        np.testing.assert_array_equal(out, [np.diag([0.5, 0.5]), [[2.5, 1.0], [1.0, 2.5]]])
        scatter[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="asymmetric"):
            regularize(scatter, 0.5)


class TestSampleGaussian:
    def test_zero_noise_passthrough(self):
        class ZeroRng:
            def random(self):
                return 0.0

            def standard_normal(self, n):
                return np.zeros(n)

        out = proposal_draws(np.array([5.0, 5.0]), np.eye(2), [ZeroRng()])[0, 0]
        assert np.array_equal(out, np.array([5.0, 5.0]))

    def test_linear_map(self):
        class OnesRng:
            def random(self):
                return 0.0

            def standard_normal(self, n):
                return np.ones(n)

        out = proposal_draws(np.zeros(2), np.diag([4.0, 9.0]), [OnesRng()])[0, 0]
        assert np.array_equal(out, np.array([2.0, 3.0]))

    def test_consumes_exactly_d_normals(self):
        seed = 123
        ref = np.random.default_rng(seed)
        ref.random()  # the component choice
        ref.standard_normal(2)
        ref.random()  # the acceptance uniform
        expected = ref.standard_normal(3)
        rng = np.random.default_rng(seed)
        proposal_draws(np.zeros(2), np.eye(2), [rng])
        # the variates after one step's draws must still be next
        assert rng.standard_normal() == expected[0]

    def test_moments(self):
        mean = np.array([1.0, -1.0])
        cov = np.diag([4.0, 1.0])
        draws = proposal_draws(mean, cov, chain_streams(42, 100), steps=1000).reshape(-1, 2)
        assert np.abs(draws.mean(axis=0) - mean).max() < 0.05
        assert np.abs(draws.var(axis=0, ddof=1) / np.diag(cov) - 1.0).max() < 0.05

    def test_empirical_covariance_within_three_standard_errors(self):
        mean = np.array([0.5, -2.0])
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        draws = proposal_draws(mean, cov, chain_streams(5, 100), steps=1000).reshape(-1, 2)
        n = draws.shape[0]
        est = np.cov(draws, rowvar=False)
        # var(sample cov entry) ~ (C_ii*C_jj + C_ij^2)/n
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(est - cov) < 3.0 * se)


def logpdf(x, mean, cov) -> float:
    """The stacked kernel's log-density at one point: the one-row case."""
    return float(log_gaussian_pdf_stacked(np.asarray(x, dtype=float)[None] - mean, *cholesky(cov))[0])


class TestLogGaussianPdf:
    def test_at_mean_identity(self):
        val = logpdf(np.zeros(2), np.zeros(2), np.eye(2))
        assert val == pytest.approx(-LOG_TWO_PI, abs=1e-12)

    def test_unit_offset(self):
        val = logpdf(np.array([1.0, 0.0]), np.zeros(2), np.eye(2))
        assert val == pytest.approx(-LOG_TWO_PI - 0.5, abs=1e-12)

    def test_anisotropic(self):
        val = logpdf(np.array([2.0, 0.0]), np.zeros(2), np.diag([4.0, 1.0]))
        assert val == pytest.approx(-LOG_TWO_PI - 0.5 * math.log(4.0) - 0.5, abs=1e-12)

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 4):
            a = rng.standard_normal((d, d))
            mean = rng.standard_normal(d)
            lower, log_det_half = cholesky(a @ a.T + 0.3 * np.eye(d))
            xs = rng.standard_normal((200, d)) * 3
            batch = log_gaussian_pdf_stacked(xs - mean, lower, log_det_half)
            point = np.array([log_gaussian_pdf(x, mean, lower, log_det_half) for x in xs])
            np.testing.assert_array_equal(batch, point)

    def test_stacked_rows_match_their_own_factor(self):
        # every row solved against its own factor, as the sampler scores
        # candidates of many chains in one call
        rng = np.random.default_rng(4)
        d = 3
        factors = []
        for _ in range(5):
            a = rng.standard_normal((d, d))
            factors.append(cholesky(a @ a.T + 0.3 * np.eye(d)))
        means = rng.standard_normal((5, d))
        xs = rng.standard_normal((5, d)) * 3
        stacked = log_gaussian_pdf_stacked(
            xs - means, np.stack([f[0] for f in factors]), np.array([f[1] for f in factors])
        )
        point = [log_gaussian_pdf(x, m, *f) for x, m, f in zip(xs, means, factors)]
        np.testing.assert_array_equal(stacked, point)

    def test_integrates_to_one_on_grid(self):
        # quadrature of exp(logpdf) over [-10s, 10s]^2
        cov = np.array([[1.3, 0.5], [0.5, 2.0]])
        mean = np.array([0.2, -0.7])
        s = math.sqrt(np.diag(cov).max())
        axis = np.linspace(-10 * s, 10 * s, 1201)
        h = axis[1] - axis[0]
        xx, yy = np.meshgrid(mean[0] + axis, mean[1] + axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        mass = np.exp(log_gaussian_pdf_stacked(pts - mean, *cholesky(cov))).sum() * h * h
        assert mass == pytest.approx(1.0, abs=1e-6)
