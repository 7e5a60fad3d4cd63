"""Independent parallel MH chains: the non-adaptive reference sampler.

Same chains, same initial mixture proposals, same random streams as the
adaptive sampler, but the proposals are never updated and every chain
keeps a fixed share of the sample budget. Any accuracy gap against
:func:`paim.sampler.run_paim` on a matched seed is therefore
attributable to the adaptation alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import RunRecord, initial_ensemble
from .targets import TargetDensity


@dataclass
class IpcConfig:
    """Run settings for the fixed-proposal baseline.

    Mirrors :class:`paim.sampler.PaimConfig` minus the adaptation knobs.
    The budget splits as evenly as possible: each chain receives
    ``total // n`` iterations and the first ``total % n`` chains one
    more, so every chain runs at least once.
    """

    n_chains: int
    total_samples: int
    init_means: np.ndarray
    init_states: np.ndarray
    init_sigma: float
    seed: int = 0

    def __post_init__(self):
        self.init_means = np.asarray(self.init_means, dtype=float)
        self.init_states = np.asarray(self.init_states, dtype=float)

    @property
    def dim(self) -> int:
        return self.init_states.shape[1]

    @classmethod
    def from_paim(cls, config) -> "IpcConfig":
        return cls(
            n_chains=config.n_chains,
            total_samples=config.total_samples,
            init_means=config.init_means,
            init_states=config.init_states,
            init_sigma=config.init_sigma,
            seed=config.seed,
        )

    def validate(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.total_samples < self.n_chains:
            raise ValueError("total_samples must be at least n_chains")
        if self.init_sigma <= 0.0:
            raise ValueError("init_sigma must be positive")
        if self.init_means.shape != (self.n_chains, 2, self.dim):
            raise ValueError(
                f"init_means must have shape ({self.n_chains}, 2, {self.dim}), got {self.init_means.shape}"
            )
        if self.init_states.shape != (self.n_chains, self.dim):
            raise ValueError(
                f"init_states must have shape ({self.n_chains}, {self.dim}), got {self.init_states.shape}"
            )


def ipc_budgets(total_samples: int, n_chains: int) -> np.ndarray:
    """Per-chain iteration counts summing to ``total_samples``: an even
    split, plus one for each of the first ``total % n`` chains."""
    budgets = np.full(n_chains, total_samples // n_chains, dtype=np.int64)
    budgets[: total_samples % n_chains] += 1
    return budgets


def run_ipc(config: IpcConfig, target: TargetDensity) -> RunRecord:
    """Run the fixed-proposal chains round-robin until the budget is spent.

    Chains advance in ascending index order within a step, exactly like
    the adaptive run, so a seed-matched comparison lines up sample by
    sample.
    """
    config.validate()
    if target.dim != config.dim:
        raise ValueError(f"target dim {target.dim} does not match config dim {config.dim}")

    n = config.n_chains
    total = config.total_samples
    budgets = ipc_budgets(total, n)

    chains = initial_ensemble(config)

    samples = np.empty((total, config.dim))
    sample_step = np.empty(total, dtype=np.int64)
    sample_chain = np.empty(total, dtype=np.int64)
    sample_iteration = np.empty(total, dtype=np.int64)
    sample_accepted = np.empty(total, dtype=bool)
    activity_rows: list[np.ndarray] = []

    drawn = 0
    t = -1
    while drawn < total:
        t += 1
        remaining = chains.iterations < budgets
        activity_rows.append(remaining)
        run = np.flatnonzero(remaining)
        accepted = chains.advance(run, target)
        end = drawn + run.size
        samples[drawn:end] = chains.current[run]
        sample_step[drawn:end] = t
        sample_chain[drawn:end] = run
        sample_iteration[drawn:end] = chains.iterations[run]
        sample_accepted[drawn:end] = accepted
        drawn = end

    return RunRecord(
        samples=samples,
        sample_step=sample_step,
        sample_chain=sample_chain,
        sample_iteration=sample_iteration,
        sample_accepted=sample_accepted,
        activity=np.stack(activity_rows),
        budgets=chains.iterations.copy(),
        proposals=chains.proposals(),
        global_mean=None,
        global_cov=None,
    )
