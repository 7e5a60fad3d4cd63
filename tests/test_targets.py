import math

import numpy as np
import pytest

from paim.gaussian import cholesky
from paim.targets import (
    AllZeroMass,
    BananaParams,
    TargetDensity,
    grid_expectation,
    make_banana_target,
    make_gaussian_mixture_target,
    make_gaussian_target,
)
from reference import log_banana, log_gaussian_pdf


def at(target, x) -> float:
    """The target's log-density at one point: the one-row batch."""
    return float(target.log_density_batch([x])[0])


def banana_at(x) -> float:
    return at(make_banana_target(), x)


class TestLogBanana:
    def test_origin(self):
        assert banana_at([0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_one_one(self):
        assert banana_at([1.0, 1.0]) == pytest.approx(-49 / 32 - 1 / 50 - 1 / 50, abs=1e-15)

    def test_ridge_point(self):
        # 4 - 10*0.4 - 0 == 0, only the x1 envelope survives
        assert banana_at([0.4, 0.0]) == pytest.approx(-0.0032, abs=1e-15)

    def test_symmetric_in_x2(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x1, x2 = rng.uniform(-15, 15, 2)
            assert banana_at([x1, x2]) == banana_at([x1, -x2])

    def test_batch_matches_pointwise(self):
        tgt = make_banana_target()
        rng = np.random.default_rng(4)
        xs = rng.uniform(-15, 15, size=(100, 2))
        batch = tgt.log_density_batch(xs)
        point = np.array([log_banana(x) for x in xs])
        np.testing.assert_array_equal(batch, point)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            BananaParams(eta1=0.0)

    @pytest.mark.parametrize("name", ["b", "eta1", "eta2", "eta3"])
    @pytest.mark.parametrize("value", ["x", None, True, math.nan, math.inf])
    def test_rejects_values_that_are_not_finite_reals(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            BananaParams(**{name: value})

    def test_accepts_integers_and_numpy_floats(self):
        assert BananaParams(b=10, eta1=np.float64(4.0)) == BananaParams()


class TestGaussianTargets:
    def test_constant_cancels_in_differences(self):
        tgt = make_gaussian_target([0.0, 0.0], np.eye(2))
        diff = at(tgt, [0.0, 0.0]) - at(tgt, [1.0, 0.0])
        assert diff == pytest.approx(0.5, abs=1e-12)

    def test_argmax_at_mean(self):
        tgt = make_gaussian_target([2.0, 2.0], np.eye(2))
        at_mean = at(tgt, [2.0, 2.0])
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert at(tgt, rng.uniform(-5, 9, 2)) <= at_mean

    def test_non_pd_rejected(self):
        from paim.gaussian import NotPositiveDefinite

        with pytest.raises(NotPositiveDefinite):
            make_gaussian_target([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_mean_and_cov_shapes_must_match(self):
        with pytest.raises(ValueError, match=r"a mean of shape \(2,\) does not match a cov of shape \(3, 3\)"):
            make_gaussian_target([0.0, 0.0], np.eye(3))
        with pytest.raises(ValueError, match="does not match"):
            make_gaussian_target([[0.0, 0.0]], np.eye(2))

    def test_mixture_finite_everywhere(self):
        tgt = make_gaussian_mixture_target(
            means=[[-5.0, 0.0], [5.0, 0.0]], covs=[np.eye(2), np.eye(2)]
        )
        rng = np.random.default_rng(8)
        for _ in range(200):
            val = at(tgt, rng.uniform(-50, 50, 2))
            assert np.isfinite(val)

    def test_mixture_batch_matches_pointwise(self):
        means = [[-1.0, 0.0], [2.0, 1.0]]
        covs = [np.diag([1.0, 2.0]), np.diag([0.5, 0.5])]
        weights = [0.3, 0.7]
        tgt = make_gaussian_mixture_target(means=means, covs=covs, weights=weights)
        xs = np.random.default_rng(9).uniform(-4, 4, size=(50, 2))

        def point(x):
            terms = [math.log(w) + log_gaussian_pdf(x, m, *cholesky(c)) for w, m, c in zip(weights, means, covs)]
            return float(np.logaddexp.reduce(terms))

        np.testing.assert_array_equal(tgt.log_density_batch(xs), [point(x) for x in xs])

    def test_mixture_shapes_checked(self):
        with pytest.raises(ValueError, match=r"need covs of shape \(2, 2, 2\) and 2 weights"):
            make_gaussian_mixture_target(means=[[0.0, 0.0], [1.0, 1.0]], covs=[np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match="and 2 weights"):
            make_gaussian_mixture_target(means=[[0.0, 0.0], [1.0, 1.0]], covs=[np.eye(2)] * 2, weights=[1.0])


class TestGridExpectation:
    def test_standard_gaussian_centered(self):
        tgt = make_gaussian_target([0.0, 0.0], np.eye(2))
        out = grid_expectation(tgt, [-8.0, -8.0], [8.0, 8.0], 801)
        assert np.abs(out).max() < 1e-8

    def test_shifted_gaussian(self):
        tgt = make_gaussian_target([3.0, -1.0], np.eye(2))
        out = grid_expectation(tgt, [-8.0, -9.0], [14.0, 7.0], 801)
        np.testing.assert_allclose(out, [3.0, -1.0], atol=1e-6)

    def test_one_dimensional(self):
        tgt = make_gaussian_target([1.5], [[2.0]])
        out = grid_expectation(tgt, [-12.0], [15.0], 2001)
        assert out[0] == pytest.approx(1.5, abs=1e-6)

    def test_banana_verified_value(self):
        # Frozen from two independent integrators (this grid oracle and
        # scipy.integrate.dblquad agree to 6+ digits on this box).
        tgt = make_banana_target()
        out = grid_expectation(tgt, [-15.0, -15.0], [15.0, 15.0], 2001)
        assert out[0] == pytest.approx(-1.094900, abs=5e-5)
        assert abs(out[1]) < 1e-6

    def test_banana_second_coordinate_zero_by_symmetry(self):
        tgt = make_banana_target()
        out = grid_expectation(tgt, [-15.0, -15.0], [15.0, 15.0], 501)
        assert abs(out[1]) < 1e-9

    def test_doubling_resolution_is_stable(self):
        tgt = make_banana_target()
        coarse = grid_expectation(tgt, [-15.0, -15.0], [15.0, 15.0], 2001)
        fine = grid_expectation(tgt, [-15.0, -15.0], [15.0, 15.0], 4001)
        assert np.abs(coarse - fine).max() < 1e-4

    def test_all_mass_missed(self):
        # support entirely outside the box once exp() underflows
        tgt = TargetDensity(2, lambda xs: np.full(len(xs), -np.inf))
        with pytest.raises(AllZeroMass):
            grid_expectation(tgt, [-1.0, -1.0], [1.0, 1.0], 11)

    def test_bad_bounds_rejected(self):
        tgt = make_banana_target()
        with pytest.raises(ValueError):
            grid_expectation(tgt, [1.0, -1.0], [1.0, 1.0], 11)
        with pytest.raises(ValueError):
            grid_expectation(tgt, [-1.0, -1.0], [1.0, 1.0], 1)


def nan_right_half():
    """NaN wherever x1 > 0, a Gaussian bump elsewhere."""
    return TargetDensity(2, lambda xs: np.where(xs[:, 0] > 0, np.nan, -0.5 * np.vecdot(xs, xs)))


class TestTargetBoundary:
    def test_nan_point_rejected_with_location(self):
        with pytest.raises(ValueError, match=r"NaN at \[1\.5, -2\.0\]"):
            nan_right_half().log_density_batch([[1.5, -2.0]])

    def test_nan_in_batch_rejected_with_location(self):
        xs = np.array([[-1.0, 0.0], [2.5, 1.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match=r"NaN at \[2\.5, 1\.0\]"):
            nan_right_half().log_density_batch(xs)
        vectorized = TargetDensity(2, lambda xs: np.where(xs[:, 0] > 0, np.nan, 0.0))
        with pytest.raises(ValueError, match=r"NaN at \[2\.5, 1\.0\]"):
            vectorized.log_density_batch(xs)

    def test_infinities_pass_through(self):
        target = TargetDensity(1, lambda xs: np.where(xs[:, 0] > 0, np.inf, -np.inf))
        assert at(target, [1.0]) == np.inf
        assert at(target, [-1.0]) == -np.inf
        assert target.log_density_batch([[1.0], [-1.0]]).tolist() == [np.inf, -np.inf]

    def test_nan_target_stops_a_run(self):
        from paim.sampler import PaimConfig, run_paim

        rng = np.random.default_rng(8)
        cfg = PaimConfig(
            n_chains=4,
            total_samples=400,
            t_train=1,
            init_means=rng.uniform(-5, 5, (4, 2, 2)),
            init_states=-rng.uniform(1, 5, (4, 2)),
            init_sigma=5.0,
        )
        with pytest.raises(ValueError, match="NaN at"):
            run_paim(cfg, nan_right_half())
