"""Target densities and a deterministic grid oracle for their moments.

The benchmark target is the bi-dimensional banana-shaped density

    log pi(x1, x2) = -(4 - b*x1 - x2^2)^2 / (2*eta1^2)
                     - x1^2 / (2*eta2^2) - x2^2 / (2*eta3^2)

whose probability mass concentrates along the curved ridge
``b*x1 + x2^2 = 4``. Gaussian and Gaussian-mixture targets are provided
as analytically tractable checks, and :func:`grid_expectation` computes
E[X] for any low-dimensional target by exhaustive tensor-grid
summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussian import CholeskyFactor, cholesky, log_gaussian_pdf, log_gaussian_pdf_batch


class AllZeroMass(Exception):
    """Every grid point had zero density; the bounds miss the support."""


class TargetDensity:
    """Unnormalized log-density on R^dim.

    The point evaluator must return a finite float or ``-inf`` for any
    finite input. A NaN is rejected here, at the boundary, with a
    ``ValueError`` naming the point: the acceptance rule would otherwise
    treat it as an always-accepted move. ``+inf`` is passed through
    unchanged: a chain that reaches such a point never moves back to a
    point of finite density. A
    vectorized evaluator over (n, dim) arrays may be supplied; otherwise
    batch calls fall back to a point loop.
    """

    def __init__(
        self,
        dim: int,
        log_density: Callable[[np.ndarray], float],
        log_density_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.dim = dim
        self._point = log_density
        self._batch = log_density_batch

    def log_density(self, x) -> float:
        x = np.asarray(x, dtype=float)
        value = float(self._point(x))
        if math.isnan(value):
            raise ValueError(f"target log-density is NaN at {x.tolist()}")
        return value

    def log_density_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self._batch is not None:
            values = np.asarray(self._batch(xs), dtype=float)
        else:
            values = np.array([float(self._point(row)) for row in xs])
        nan = np.isnan(values)
        if nan.any():
            raise ValueError(f"target log-density is NaN at {xs[np.argmax(nan)].tolist()}")
        return values


@dataclass(frozen=True)
class BananaParams:
    """Shape parameters of the banana target.

    ``b`` bends the ridge; the etas set the width of the ridge and the
    two quadratic envelopes. Defaults match the benchmark study setting.
    """

    b: float = 10.0
    eta1: float = 4.0
    eta2: float = 5.0
    eta3: float = 5.0

    def __post_init__(self):
        if min(self.eta1, self.eta2, self.eta3) <= 0.0:
            raise ValueError("eta1, eta2, eta3 must all be positive")


def log_banana(x, params: BananaParams = BananaParams()) -> float:
    """Banana log-density at a single 2-D point."""
    x1, x2 = float(x[0]), float(x[1])
    ridge = 4.0 - params.b * x1 - x2 * x2
    return (
        -ridge * ridge / (2.0 * params.eta1**2)
        - x1 * x1 / (2.0 * params.eta2**2)
        - x2 * x2 / (2.0 * params.eta3**2)
    )


def _log_banana_batch(xs: np.ndarray, params: BananaParams) -> np.ndarray:
    x1, x2 = xs[:, 0], xs[:, 1]
    ridge = 4.0 - params.b * x1 - x2 * x2
    return (
        -(ridge**2) / (2.0 * params.eta1**2)
        - x1**2 / (2.0 * params.eta2**2)
        - x2**2 / (2.0 * params.eta3**2)
    )


def make_banana_target(params: BananaParams = BananaParams()) -> TargetDensity:
    return TargetDensity(
        dim=2,
        log_density=lambda x: log_banana(x, params),
        log_density_batch=lambda xs: _log_banana_batch(xs, params),
    )


def make_gaussian_target(mean, cov) -> TargetDensity:
    """Gaussian target; rejects non-PD covariance at construction."""
    mean = np.asarray(mean, dtype=float)
    factor = cholesky(np.asarray(cov, dtype=float))
    return TargetDensity(
        dim=mean.shape[0],
        log_density=lambda x: log_gaussian_pdf(x, mean, factor),
        log_density_batch=lambda xs: log_gaussian_pdf_batch(xs, mean, factor),
    )


def make_gaussian_mixture_target(means, covs, weights=None) -> TargetDensity:
    """Finite Gaussian mixture target, evaluated in log space."""
    means = [np.asarray(m, dtype=float) for m in means]
    factors: list[CholeskyFactor] = [cholesky(np.asarray(c, dtype=float)) for c in covs]
    k = len(means)
    if weights is None:
        weights = np.full(k, 1.0 / k)
    log_w = np.log(np.asarray(weights, dtype=float))

    def point(x: np.ndarray) -> float:
        terms = np.array([lw + log_gaussian_pdf(x, m, f) for lw, m, f in zip(log_w, means, factors)])
        return float(np.logaddexp.reduce(terms))

    def batch(xs: np.ndarray) -> np.ndarray:
        terms = np.stack([lw + log_gaussian_pdf_batch(xs, m, f) for lw, m, f in zip(log_w, means, factors)])
        return np.logaddexp.reduce(terms, axis=0)

    return TargetDensity(dim=means[0].shape[0], log_density=point, log_density_batch=batch)


def grid_expectation(target: TargetDensity, lower, upper, points_per_axis: int) -> np.ndarray:
    """E[X] over a uniform tensor grid, normalized against the grid mass.

    Weights are shifted by the maximum log-density before
    exponentiation, so only the all-underflow case (raised as
    :class:`AllZeroMass`) is lost to finite precision. Two passes over
    the grid keep memory at one slab of the first axis.
    """
    d = target.dim
    if d > 3:
        raise ValueError("tensor grids are limited to dim <= 3")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (d,) or upper.shape != (d,):
        raise ValueError(f"bounds must have shape ({d},)")
    if not np.all(lower < upper):
        raise ValueError("lower bounds must be strictly below upper bounds")
    if points_per_axis < 2:
        raise ValueError("need at least two points per axis")

    axes = [np.linspace(lower[i], upper[i], points_per_axis) for i in range(d)]
    if d == 1:
        rest = np.empty((1, 0))
    else:
        mesh = np.meshgrid(*axes[1:], indexing="ij")
        rest = np.stack([m.ravel() for m in mesh], axis=1)

    def slab(x0: float) -> np.ndarray:
        pts = np.empty((rest.shape[0], d))
        pts[:, 0] = x0
        pts[:, 1:] = rest
        return pts

    shift = -np.inf
    for x0 in axes[0]:
        shift = max(shift, float(target.log_density_batch(slab(x0)).max()))
    if shift == -np.inf:
        raise AllZeroMass("target density is zero on the whole grid")

    total = 0.0
    weighted = np.zeros(d)
    for x0 in axes[0]:
        pts = slab(x0)
        w = np.exp(target.log_density_batch(pts) - shift)
        total += float(w.sum())
        weighted += w @ pts
    return weighted / total
