"""Minimal one-point reference implementations, written apart from the
stacked kernels in ``paim`` so that tests can check those kernels
against them: a textbook forward substitution for the Gaussian
log-density, the two-component mixture density built from it, one
mixture draw, and the banana log-density at one point. Also a driver
that reads the sampler's own proposal draws."""

import math

import numpy as np

from paim.gaussian import LOG_TWO_PI
from paim.sampler import ChainEnsemble
from paim.targets import TargetDensity


def log_gaussian_pdf(x, mean, lower, log_det_half) -> float:
    """Normalized Gaussian log-density at one point, given the covariance's
    Cholesky factor ``lower`` and half its log-determinant."""
    diff = np.asarray(x, dtype=float) - mean
    d = diff.shape[0]
    w = np.empty(d)
    for i in range(d):
        w[i] = (diff[i] - w[:i] @ lower[i, :i]) / lower[i, i]
    return float(-0.5 * d * LOG_TWO_PI - log_det_half - 0.5 * (w @ w))


def mixture_log_pdf(means, lowers, log_det_halves, x) -> float:
    """log(0.5*q1(x) + 0.5*q2(x)) at one point; row 0 of each argument is
    the global component, row 1 the local one."""
    la, lb = (log_gaussian_pdf(x, means[c], lowers[c], log_det_halves[c]) for c in (0, 1))
    return math.log(0.5) + float(np.logaddexp(la, lb))


def sample_mixture(means, lowers, rng) -> np.ndarray:
    """Fair-coin component choice, then ``mean + L @ z`` with z standard
    normal: one uniform plus ``d`` normal variates from ``rng``."""
    c = 0 if rng.random() < 0.5 else 1
    return means[c] + lowers[c] @ rng.standard_normal(means.shape[1])


def log_banana(x, b=10.0, eta1=4.0, eta2=5.0, eta3=5.0) -> float:
    """Banana log-density at a single 2-D point."""
    x1, x2 = float(x[0]), float(x[1])
    ridge = 4.0 - b * x1 - x2 * x2
    return -ridge * ridge / (2.0 * eta1**2) - x1 * x1 / (2.0 * eta2**2) - x2 * x2 / (2.0 * eta3**2)


# A target of zero density everywhere: the MH step accepts every
# candidate, so a chain's state after a step is its proposal draw.
NOWHERE = TargetDensity(2, lambda xs: np.full(len(xs), -math.inf))


def proposal_draws(means, covs, rngs, steps=1) -> np.ndarray:
    """``steps`` candidates of each chain in ``rngs`` as drawn by
    ``ChainEnsemble.advance``, shape (steps, n, 2), when every chain's
    proposal has the component means ``means`` and covariances ``covs``
    (broadcast as in ``ChainEnsemble``)."""
    n = len(rngs)
    chains = ChainEnsemble(np.zeros((n, 2)), means, covs, rngs)
    draws = []
    for _ in range(steps):
        assert chains.advance(np.arange(n), NOWHERE).all()
        draws.append(chains.current.copy())
    return np.array(draws)
