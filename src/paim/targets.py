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
from numbers import Real
from typing import Callable

import numpy as np

from .gaussian import cholesky, log_gaussian_pdf_stacked


class AllZeroMass(Exception):
    """Every grid point had zero density; the bounds miss the support."""


class TargetDensity:
    """Unnormalized log-density on R^dim, evaluated over rows of points.

    ``log_density_batch`` maps an (n, dim) array of points to their n
    log-densities; a single point is the one-row case. Each value must
    be a finite float or ``-inf`` for finite input. A NaN is rejected
    here, at the boundary, with a ``ValueError`` naming the first point
    that produced one: the acceptance rule would otherwise treat it as
    an always-accepted move. ``+inf`` is passed through unchanged: a
    chain that reaches such a point never moves back to a point of
    finite density.
    """

    def __init__(self, dim: int, log_density_batch: Callable[[np.ndarray], np.ndarray]):
        self.dim = dim
        self._batch = log_density_batch

    def log_density_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(self._batch(xs), dtype=float)
        nan = np.isnan(values)
        if nan.any():
            raise ValueError(f"target log-density is NaN at {xs[np.argmax(nan)].tolist()}")
        return values


@dataclass(frozen=True)
class BananaParams:
    """Shape parameters of the banana target.

    ``b`` bends the ridge; the etas set the width of the ridge and the
    two quadratic envelopes. Defaults match the benchmark study setting.
    All four must be finite real numbers and the etas positive.
    """

    b: float = 10.0
    eta1: float = 4.0
    eta2: float = 5.0
    eta3: float = 5.0

    def __post_init__(self):
        for name in ("b", "eta1", "eta2", "eta3"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if min(self.eta1, self.eta2, self.eta3) <= 0.0:
            raise ValueError("eta1, eta2, eta3 must all be positive")


def make_banana_target(params: BananaParams = BananaParams()) -> TargetDensity:
    def log_density(xs: np.ndarray) -> np.ndarray:
        x1, x2 = xs[:, 0], xs[:, 1]
        ridge = 4.0 - params.b * x1 - x2 * x2
        return (
            -(ridge**2) / (2.0 * params.eta1**2)
            - x1**2 / (2.0 * params.eta2**2)
            - x2**2 / (2.0 * params.eta3**2)
        )

    return TargetDensity(2, log_density)


def make_gaussian_target(mean, cov) -> TargetDensity:
    """Gaussian target; rejects non-PD covariance at construction."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ValueError(f"a mean of shape {mean.shape} does not match a cov of shape {cov.shape}")
    lower, log_det_half = cholesky(cov)
    return TargetDensity(mean.shape[0], lambda xs: log_gaussian_pdf_stacked(xs - mean, lower, log_det_half))


def make_gaussian_mixture_target(means, covs, weights=None) -> TargetDensity:
    """Finite Gaussian mixture target, evaluated in log space."""
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    k, d = means.shape
    weights = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    if covs.shape != (k, d, d) or weights.shape != (k,):
        raise ValueError(f"{k} means of dimension {d} need covs of shape ({k}, {d}, {d}) and {k} weights")
    lowers, log_det_halves = cholesky(covs)
    log_w = np.log(weights)

    def log_density(xs: np.ndarray) -> np.ndarray:
        terms = log_w + log_gaussian_pdf_stacked(xs[:, None, :] - means, lowers, log_det_halves)
        return np.logaddexp.reduce(terms, axis=1)

    return TargetDensity(d, log_density)


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
