"""Single-pass running mean/covariance accumulators and MSE."""

from __future__ import annotations

from typing import Iterable, Iterator

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
    and keeps every scatter exactly symmetric. Indexing or iterating
    yields :class:`RunningMoments` views of single rows.
    """

    __slots__ = ("count", "mean", "scatter")

    def __init__(self, n: int, dim: int):
        self.count = np.zeros(n, dtype=np.int64)
        self.mean = np.zeros((n, dim))
        self.scatter = np.zeros((n, dim, dim))

    def push(self, rows: Iterable[int], xs: Iterable[np.ndarray]) -> None:
        """Push ``xs[i]`` into row ``rows[i]``, one point after another.

        Points go in one at a time, in order, through row views, so a
        row ends with the bits it gets from the same points pushed into
        it alone.
        """
        count, mean, scatter = self.count, self.mean, self.scatter
        for j, x in zip(rows, xs):
            m = mean[j]
            delta = x - m
            c = int(count[j]) + 1
            count[j] = c
            m += delta / c
            # (x - new mean) is delta * (c-1)/c, so the outer-product
            # increment stays symmetric to the last bit.
            scatter[j] += delta[:, None] * delta * ((c - 1) / c)

    def __len__(self) -> int:
        return self.count.shape[0]

    def __getitem__(self, j: int) -> "RunningMoments":
        if not 0 <= j < len(self):
            raise IndexError(f"row {j} out of range for {len(self)} accumulators")
        return RunningMoments(self, j)

    def __iter__(self) -> Iterator["RunningMoments"]:
        return (self[j] for j in range(len(self)))


class RunningMoments:
    """A live view of one row of a :class:`MomentStack`: ``count``,
    ``mean`` and ``scatter`` read the row as it is now."""

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

    def covariance(self, epsilon: float) -> np.ndarray:
        """Sample covariance plus ``epsilon * I``; see :func:`stacked_covariance`."""
        return stacked_covariance(self.stack.count[self.row, None], self.scatter[None], epsilon)[0]


def mean_square_error(estimates, truth) -> float:
    """Squared error averaged over coordinates, then over estimates."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    if est.shape[0] == 0:
        raise ValueError("need at least one estimate")
    truth = np.asarray(truth, dtype=float)
    return float(np.mean(np.sum((est - truth) ** 2, axis=1) / truth.shape[0]))
