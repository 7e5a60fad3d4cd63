"""Single-pass running mean/covariance accumulators and MSE."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gaussian import regularize


def stacked_covariance(count: np.ndarray, scatter: np.ndarray, epsilon: float) -> np.ndarray:
    """Sample covariance plus ``epsilon * I`` of each row of a stack.

    ``count`` (k,) and ``scatter`` (k, d, d) are accumulator rows as kept
    by :class:`MomentStack`. With fewer than two points the sample
    covariance is undefined and a row's result is ``epsilon * I`` alone,
    so downstream proposals stay well defined from the very first step.
    """
    count = np.asarray(count)
    enough = (count >= 2)[:, None, None]
    sample = np.where(enough, scatter / np.maximum(count - 1, 1)[:, None, None], 0.0)
    return regularize(sample, epsilon)


class MomentStack:
    """Running means and scatters of n accumulators, as stacked arrays.

    Row j has ``count[j]`` points, mean ``mean[j]`` and scatter
    ``scatter[j]``: the sum of outer products of deviations from the
    mean, i.e. (count - 1) times the sample covariance. The single-pass
    update reproduces the direct two-pass formulas to ~1e-10 relative
    and keeps every scatter exactly symmetric. Callers read the three
    arrays directly; :func:`stacked_covariance` turns rows of them into
    covariances.
    """

    __slots__ = ("count", "mean", "scatter")

    def __init__(self, n: int, dim: int):
        self.count = np.zeros(n, dtype=np.int64)
        self.mean = np.zeros((n, dim))
        self.scatter = np.zeros((n, dim, dim))

    def push(self, rows: Sequence[int], xs: Sequence[np.ndarray]) -> None:
        """Push ``xs[i]`` into row ``rows[i]``, in order, in one batch.

        ``xs`` holds the points (m, d) and ``rows`` their m row indices;
        a length mismatch is a ValueError. Each point updates its row's
        count and mean on its own, in order. The scatter increments are
        then formed in one stacked product and added to their rows in the
        same order, so a row ends with the bits it gets from the same
        points pushed into it alone, one at a time.
        """
        xs = np.asarray(xs, dtype=float)
        if len(rows) != len(xs):
            raise ValueError(f"{len(rows)} rows given for {len(xs)} points")
        if not len(xs):
            return
        mean = self.mean
        if xs.shape[1:] != mean.shape[1:]:
            raise ValueError(f"points of shape {xs.shape[1:]} pushed into accumulators of dim {mean.shape[1]}")
        counts = self.count.tolist()
        deltas = np.empty(xs.shape)
        scale = []
        for k, j in enumerate(rows):
            m = mean[j]
            delta = np.subtract(xs[k], m, out=deltas[k])
            c = counts[j] + 1
            counts[j] = c
            m += delta / c
            scale.append((c - 1) / c)
        # (x - new mean) is delta * (c-1)/c, so each outer-product
        # increment stays symmetric to the last bit; np.add.at adds them
        # unbuffered, so a row's increments land one after another.
        np.add.at(self.scatter, rows, deltas[:, :, None] * deltas[:, None, :] * np.array(scale)[:, None, None])
        self.count[:] = counts


class RunningMoments:
    """A live view of one row of a :class:`MomentStack`: ``count``,
    ``mean`` and ``scatter`` read the row as it is now. The sampler hands
    observers one per cluster, as ``SchedulerState.clusters``."""

    __slots__ = ("stack", "row")

    def __init__(self, stack: MomentStack, row: int):
        self.stack = stack
        self.row = row

    @property
    def count(self) -> int:
        return int(self.stack.count[self.row])

    @property
    def mean(self) -> np.ndarray:
        return self.stack.mean[self.row]

    @property
    def scatter(self) -> np.ndarray:
        return self.stack.scatter[self.row]


def mean_square_error(estimates, truth) -> float:
    """Squared error averaged over coordinates, then over estimates."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    if est.shape[0] == 0:
        raise ValueError("need at least one estimate")
    truth = np.asarray(truth, dtype=float)
    return float(np.mean(np.sum((est - truth) ** 2, axis=1) / truth.shape[0]))
