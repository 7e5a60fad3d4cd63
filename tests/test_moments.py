import warnings

import numpy as np
import pytest

from paim.gaussian import regularize
from paim.moments import MomentStack, RunningMoments, mean_square_error, stacked_covariance
import reference


def block_moments(points):
    """Direct two-pass mean and deviation scatter, the reference formulas."""
    pts = np.asarray(points, dtype=float)
    mean = pts.sum(axis=0) / pts.shape[0]
    dev = pts - mean
    return mean, dev.T @ dev


def accumulated(points, dim):
    """A one-row stack after pushing ``points`` in order."""
    xs = np.asarray(points, dtype=float).reshape(-1, dim)
    stack = MomentStack(1, dim)
    stack.push([0] * len(xs), xs)
    return stack


def covariance(stack, epsilon):
    """The covariance of a one-row stack."""
    return stacked_covariance(stack.count, stack.scatter, epsilon)[0]


class TestPush:
    def test_scalar_sequence(self):
        acc = accumulated([1.0, 2.0, 3.0], 1)
        assert acc.count[0] == 3
        assert acc.mean[0, 0] == pytest.approx(2.0)
        assert acc.scatter[0, 0, 0] == pytest.approx(2.0)
        assert covariance(acc, 0.4)[0, 0] == pytest.approx(1.4)

    def test_two_points(self):
        acc = accumulated([[0.0, 0.0], [2.0, 0.0]], 2)
        np.testing.assert_allclose(acc.mean[0], [1.0, 0.0])
        np.testing.assert_allclose(acc.scatter[0], [[2.0, 0.0], [0.0, 0.0]])

    def test_matches_block_formulas(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((100, 2)) * 5 + 1
        acc = accumulated(pts, 2)
        mean, scatter = block_moments(pts)
        np.testing.assert_allclose(acc.mean[0], mean, rtol=1e-10)
        np.testing.assert_allclose(acc.scatter[0], scatter, rtol=1e-10, atol=1e-12)

    def test_block_equivalence_thousand_points(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((1000, 3)) * np.array([1.0, 10.0, 100.0]) + rng.uniform(-5, 5, 3)
        acc = accumulated(pts, 3)
        mean, scatter = block_moments(pts)
        np.testing.assert_allclose(acc.mean[0], mean, rtol=1e-10)
        np.testing.assert_allclose(acc.scatter[0], scatter, rtol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        pts = rng.standard_normal((64, 2))
        a = accumulated(pts, 2)
        b = accumulated(pts[rng.permutation(64)], 2)
        np.testing.assert_allclose(a.mean[0], b.mean[0], rtol=1e-10)
        np.testing.assert_allclose(a.scatter[0], b.scatter[0], rtol=1e-10, atol=1e-12)

    def test_scatter_exactly_symmetric(self):
        rng = np.random.default_rng(31)
        acc = accumulated(rng.standard_normal((500, 2)) * 1e8, 2)
        assert np.array_equal(acc.scatter[0], acc.scatter[0].T)

    def test_dimension_mismatch(self):
        for point in (np.zeros(3), np.zeros(1), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                MomentStack(1, 2).push([0], [point])


class TestCovariance:
    def test_empty_is_epsilon_eye(self):
        np.testing.assert_allclose(covariance(accumulated([], 2), 0.4), np.diag([0.4, 0.4]))

    def test_single_point_is_epsilon_eye(self):
        acc = accumulated([3.0, -1.0], 2)
        np.testing.assert_allclose(covariance(acc, 0.4), np.diag([0.4, 0.4]))

    def test_hand_computed_sample_covariance(self):
        acc = accumulated([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], 2)
        expected = np.array([[4 / 3 + 0.4, -2 / 3], [-2 / 3, 4 / 3 + 0.4]])
        np.testing.assert_allclose(covariance(acc, 0.4), expected, rtol=1e-12)

    def test_always_positive_definite(self):
        rng = np.random.default_rng(37)
        for n_points in (0, 1, 2, 5, 50):
            # degenerate cloud on a line: scatter is singular
            u = rng.standard_normal(n_points)
            acc = accumulated(np.stack([u, 2.0 * u], axis=1), 2)
            eigs = np.linalg.eigvalsh(covariance(acc, 0.4))
            assert eigs.min() > 0.0


def same_bits(a, b) -> bool:
    """Equal bit for bit: -0.0 differs from 0.0, and NaNs compare by payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def fp_errors(caught) -> list:
    """The kinds of the numpy floating-point warnings in ``caught``, e.g.
    'overflow' or 'invalid value', without the ufunc that raised them."""
    return sorted({str(w.message).split(" encountered")[0] for w in caught})


def pushed_alone(n, d, batches):
    """Rows (count, mean, scatter) after pushing every ``(rows, xs)`` batch
    one point at a time with the reference update, and the kinds of
    floating-point warnings of each batch."""
    alone = [(0, np.zeros(d), np.zeros((d, d))) for _ in range(n)]
    errors = []
    for rows, xs in batches:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for j, x in zip(rows, np.asarray(xs, dtype=float)):
                alone[j] = reference.welford_push(*alone[j], x)
        errors.append(fp_errors(caught))
    return alone, errors


def assert_rows_match(stack, alone):
    for j, (count, mean, scatter) in enumerate(alone):
        assert stack.count[j] == count
        assert same_bits(stack.mean[j], mean), (j, stack.mean[j], mean)
        assert same_bits(stack.scatter[j], scatter), (j, stack.scatter[j], scatter)


class TestMomentStack:
    def test_rows_match_sequential_single_pushes(self):
        rng = np.random.default_rng(41)
        for d in range(1, 7):
            # 0.0 makes signed-zero points; 1e-310 subnormal ones
            for scale in (0.0, 1e-310, 1e-8, 1.0, 1e8):
                stack = MomentStack(4, d)
                batches = []
                for size in (0, 1, 2, 7, 40, 300, 1, 0, 13):
                    # a step's states: most go to the global row (row 3), the
                    # rest to the clusters, often several to the same one
                    rows = np.where(rng.random(size) < 0.6, 3, rng.integers(0, 3, size)).tolist()
                    xs = (rng.standard_normal((size, d)) + rng.uniform(-3, 3, d)) * scale
                    stack.push(rows, xs)
                    batches.append((rows, xs))
                alone, errors = pushed_alone(4, d, batches)
                assert_rows_match(stack, alone)
                assert not any(errors)

    def test_overflow_raises_under_errstate_raise(self):
        stack = MomentStack(2, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            stack.push([0], [[-1e308, 0.0]])
        # x - mean overflows; the mean recurrence over Python floats alone
        # would signal nothing
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow encountered in subtract"):
            stack.push([1, 0], [[1.0, 2.0], [1e308, 0.0]])

    def test_overflow_warns_as_single_pushes(self):
        batches = [
            ([0, 1], [[-1e308, 1.0], [2.0, 3.0]]),  # row 0's scatter overflows
            ([1, 0], [[4.0, 5.0], [1e308, 2.0]]),  # x - mean overflows: row 0's mean goes to inf
            ([0, 1], [[3.0, 0.0], [5.0, 6.0]]),  # a point into that mean
        ]
        stack = MomentStack(2, 2)
        errors = []
        with np.errstate(all="warn"):
            alone, expected = pushed_alone(2, 2, batches)
            for rows, xs in batches:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    stack.push(rows, xs)
                errors.append(fp_errors(caught))
        assert_rows_match(stack, alone)
        assert errors[:2] == expected[:2] == [["invalid value", "overflow"], ["overflow"]]
        # The mean recurrence runs on Python floats, which signal nothing:
        # the NaN that a point makes of a mean already at inf comes without
        # numpy's second warning, after the overflow has warned once.
        assert np.isnan(stack.mean[0, 0])
        assert (errors[2], expected[2]) == ([], ["invalid value"])

    def test_rows_as_list_range_or_int_array(self):
        xs = np.random.default_rng(47).standard_normal((5, 3))

        def built(rows):
            stack = MomentStack(5, 3)
            stack.push(rows, xs)
            stack.push(rows, xs[::-1])
            return stack.count, stack.mean, stack.scatter

        for listed, more in (([4, 0, 4, 4, 1], ()), ([0, 1, 2, 3, 4], (range(5),))):
            for rows in (np.array(listed), np.array(listed, dtype=np.int32), *more):
                assert all(same_bits(a, b) for a, b in zip(built(rows), built(listed))), rows

    def test_empty_push_changes_nothing(self):
        stack = MomentStack(2, 3)
        stack.push([1, 1], np.arange(6.0).reshape(2, 3))
        before = [a.copy() for a in (stack.count, stack.mean, stack.scatter)]
        for rows, xs in (([], []), ([], np.empty((0, 3))), (np.empty(0, dtype=np.int64), np.empty((0, 3)))):
            stack.push(rows, xs)
            for held, now in zip(before, (stack.count, stack.mean, stack.scatter)):
                np.testing.assert_array_equal(now, held)

    def test_push_rejects_rows_of_another_length(self):
        stack = MomentStack(2, 2)
        for rows, m in (([0], 2), ([0, 1, 1], 2), ([], 1), ([1], 0)):
            with pytest.raises(ValueError, match=f"{len(rows)} rows given for {m} points"):
                stack.push(rows, np.ones((m, 2)))
        assert stack.count.tolist() == [0, 0]
        np.testing.assert_array_equal(stack.mean, np.zeros((2, 2)))

    def test_running_moments_is_a_row_view(self):
        stack = MomentStack(3, 2)
        stack.push([1, 1], [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        row = RunningMoments(stack, 1)
        assert row.count == 2 and RunningMoments(stack, 0).count == 0
        np.testing.assert_array_equal(row.mean, [2.0, 3.0])
        stack.push([1], [np.array([5.0, 6.0])])
        assert row.count == 3
        np.testing.assert_array_equal(row.mean, [3.0, 4.0])
        assert stack.count.tolist() == [0, 3, 0]
        assert [RunningMoments(stack, j).count for j in range(3)] == [0, 3, 0]

    def test_stacked_covariance_matches_rows(self):
        rng = np.random.default_rng(43)
        stack = MomentStack(5, 3)
        for j, n_points in enumerate((0, 1, 2, 7, 40)):
            stack.push([j] * n_points, rng.standard_normal((n_points, 3)))
        covs = stacked_covariance(stack.count, stack.scatter, 0.4)
        for j in range(5):
            count = int(stack.count[j])
            sample = stack.scatter[j] / (count - 1) if count >= 2 else np.zeros((3, 3))
            np.testing.assert_array_equal(covs[j], regularize(sample, 0.4))
            alone = stacked_covariance(stack.count[j : j + 1], stack.scatter[j : j + 1], 0.4)[0]
            np.testing.assert_array_equal(covs[j], alone)
        np.testing.assert_array_equal(
            stacked_covariance(stack.count[[4, 0]], stack.scatter[[4, 0]], 0.4), covs[[4, 0]]
        )


class TestMeanSquareError:
    def test_exact_estimate(self):
        assert mean_square_error([[1.0, 2.0]], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mean_square_error([[1.0, 1.0]], [0.0, 0.0]) == pytest.approx(1.0)

    def test_two_estimates(self):
        est = [[1.0, 0.0], [0.0, 1.0]]
        assert mean_square_error(est, [0.0, 0.0]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_square_error(np.empty((0, 2)), [0.0, 0.0])
