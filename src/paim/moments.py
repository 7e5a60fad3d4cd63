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
        count and mean on its own, in order: the mean recurrence
        ``mean + (x - mean) / count`` runs one coordinate at a time over
        Python floats, whose ``-``, ``/`` and ``+`` round exactly as
        numpy's do. The deltas from each point's pre-push mean are then
        one numpy subtract, so an overflow warns or raises under the
        caller's ``np.errstate``, and the scatter increments are formed
        in one stacked product and added to their rows in the same
        order. A row thus ends with the bits it gets from the same points
        pushed into it alone, one at a time. Python floats signal nothing,
        so a point pushed into a mean already at inf makes it NaN without
        a warning; the overflow that made the inf has warned or raised.
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
        after = []  # each point's row count once it is in
        for j in rows:
            c = counts[j] + 1
            counts[j] = c
            after.append(c)
        before = np.empty(xs.shape)  # each point's row mean before it
        for i in range(xs.shape[1]):
            mu = mean[:, i].tolist()
            pre = []
            for j, x, c in zip(rows, xs[:, i].tolist(), after):
                m = mu[j]
                pre.append(m)
                mu[j] = m + (x - m) / c
            mean[:, i] = mu
            before[:, i] = pre
        deltas = xs - before
        after = np.array(after, dtype=float)
        # (x - new mean) is delta * (c-1)/c, so each outer-product
        # increment stays symmetric to the last bit; np.add.at adds them
        # unbuffered, so a row's increments land one after another.
        np.add.at(self.scatter, rows, deltas[:, :, None] * deltas[:, None, :] * ((after - 1) / after)[:, None, None])
        self.count[:] = counts


class RunningMoments:
    """A live view of one row of a :class:`MomentStack`: ``count``,
    ``mean`` and ``scatter`` read the row as it is now. An observer of a
    run gets one per cluster from ``PaimRun.clusters``, which builds them
    when read."""

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
