"""Interacting parallel independence-Metropolis chains.

Each of N chains proposes from an equal-weight mixture of two
Gaussians. The *global* component is refitted to every state generated
so far by any chain, so after an update it is identical across chains.
The *local* component is refitted only to the states that landed
nearest to that chain's local mean, which pulls different proposals
toward different regions of the target instead of letting them pile up
on one mode.

The run advances on two clocks: a step counter shared by all chains and
a per-chain iteration counter. At every step each active chain performs
one independence-MH iteration; the new states are then assigned to
their nearest local mean, and (after a short training phase) the
proposal parameters and the active set are refreshed. A chain whose
cluster holds a small share of the assigned states is suspended, which
reallocates its iterations to better-placed chains; its local mean
keeps competing for new states, so it is revived as soon as its share
grows back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussian import CholeskyFactor, cholesky, log_gaussian_pdf, sample_gaussian
from .moments import RunningMoments
from .targets import TargetDensity

LOG_HALF = math.log(0.5)


# ----------------------------- proposals -----------------------------

@dataclass(frozen=True)
class GaussianComponent:
    mean: np.ndarray
    cov: np.ndarray
    factor: CholeskyFactor


def make_component(mean, cov) -> GaussianComponent:
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return GaussianComponent(mean=mean, cov=cov, factor=cholesky(cov))


@dataclass(frozen=True)
class MixtureProposal:
    """Equal-weight two-component Gaussian mixture (weights are fixed)."""

    global_component: GaussianComponent
    local_component: GaussianComponent

    @property
    def dim(self) -> int:
        return self.global_component.factor.dim


def mixture_log_pdf(proposal: MixtureProposal, x: np.ndarray) -> float:
    """log(0.5*q1(x) + 0.5*q2(x)), evaluated without leaving log space."""
    a = proposal.global_component
    b = proposal.local_component
    la = log_gaussian_pdf(x, a.mean, a.factor)
    lb = log_gaussian_pdf(x, b.mean, b.factor)
    return LOG_HALF + float(np.logaddexp(la, lb))


def sample_mixture(proposal: MixtureProposal, rng: np.random.Generator) -> np.ndarray:
    """Fair-coin component choice, then one Gaussian draw.

    Consumes one uniform plus ``dim`` normal variates from ``rng``.
    """
    comp = proposal.global_component if rng.random() < 0.5 else proposal.local_component
    return sample_gaussian(comp.mean, comp.factor, rng)


# ----------------------------- MH kernel -----------------------------

def log_accept_ratio(
    log_target_new: float,
    log_target_cur: float,
    log_prop_new: float,
    log_prop_cur: float,
) -> float:
    """Log acceptance probability of an independence-sampler move.

    The proposal densities enter reversed: a candidate the proposal
    over-covers is discounted, one it under-covers is boosted. When both
    states have zero target density the move is accepted, so chains
    started outside the support can walk out of it.
    """
    if log_target_new == -math.inf and log_target_cur == -math.inf:
        return 0.0
    return min(0.0, (log_target_new - log_target_cur) + (log_prop_cur - log_prop_new))


@dataclass
class ChainState:
    index: int
    current: np.ndarray
    iterations: int = 0


def mh_step(
    chain: ChainState,
    proposal: MixtureProposal,
    target: TargetDensity,
    rng: np.random.Generator,
    log_target_current: Optional[float] = None,
    log_proposal_current: Optional[float] = None,
) -> tuple[bool, float, float]:
    """One independence-MH iteration; mutates ``chain`` in place.

    ``log_target_current`` / ``log_proposal_current`` are optional
    cached densities at ``chain.current``; pass them back in across
    calls to skip re-evaluating an unchanged state. Returns
    ``(accepted, log_target, log_proposal)`` for the post-move state.
    The candidate and acceptance draws always consume the same number of
    variates, so a chain's random stream does not depend on the
    accept/reject outcomes.
    """
    if log_target_current is None:
        log_target_current = target.log_density(chain.current)
    if log_proposal_current is None:
        log_proposal_current = mixture_log_pdf(proposal, chain.current)

    candidate = sample_mixture(proposal, rng)
    log_target_new = target.log_density(candidate)
    log_prop_new = mixture_log_pdf(proposal, candidate)
    log_alpha = log_accept_ratio(log_target_new, log_target_current, log_prop_new, log_proposal_current)

    u = rng.random()
    accepted = (math.log(u) if u > 0.0 else -math.inf) < log_alpha
    if accepted:
        chain.current = candidate
        log_target_current = log_target_new
        log_proposal_current = log_prop_new
    chain.iterations += 1
    return accepted, log_target_current, log_proposal_current


# ----------------------- assignment and adaptation -----------------------

def assign(fresh: Sequence[np.ndarray], local_means: np.ndarray, clusters: list[RunningMoments]) -> np.ndarray:
    """Push each new state into the cluster with the nearest local mean.

    Euclidean distance, ties to the lowest chain index. Means of
    suspended chains take part as well; that is what lets a suspended
    chain accumulate states and come back. Returns the chosen cluster
    index per state.
    """
    means = np.asarray(local_means, dtype=float)
    chosen = np.empty(len(fresh), dtype=np.int64)
    for r, z in enumerate(fresh):
        diff = means - z
        n_star = int(np.argmin(np.einsum("nd,nd->n", diff, diff)))
        clusters[n_star].push(z)
        chosen[r] = n_star
    return chosen


def refreshed_proposals(
    global_moments: RunningMoments,
    clusters: Sequence[RunningMoments],
    epsilon: float,
    previous: Optional[Sequence[MixtureProposal]] = None,
    built_counts: Optional[Sequence[int]] = None,
) -> list[MixtureProposal]:
    """Refit every chain's proposal to the current accumulators.

    All chains receive the same, newly built global component object.
    Chain j's local component is rebuilt from its own cluster, unless
    ``previous`` is given and the cluster's count still equals
    ``built_counts[j]``, the count ``previous[j]``'s local component was
    fitted to; then that component object is reused. The reuse is exact:
    :meth:`RunningMoments.push` is the only way a cluster changes and it
    always increments the count, so an unchanged count means an
    unchanged mean and scatter, and a rebuild would reproduce the same
    bits. Without ``previous`` every local component is rebuilt. Factors
    are computed here, once per rebuilt component, never per draw.
    """
    shared = make_component(global_moments.mean.copy(), global_moments.covariance(epsilon))
    refreshed = []
    for j, acc in enumerate(clusters):
        if previous is not None and acc.count == built_counts[j]:
            local = previous[j].local_component
        else:
            local = make_component(acc.mean.copy(), acc.covariance(epsilon))
        refreshed.append(MixtureProposal(global_component=shared, local_component=local))
    return refreshed


def activation(counts, rule: str = "floor") -> np.ndarray:
    """Active flags from cluster counts.

    Chain n's share of the per-step budget is ``n_chains * counts[n] /
    sum(counts)`` rounded down (default) or up; it stays active iff the
    share is nonzero. Rounding up keeps every chain with at least one
    assigned state active, so only the floor rule can actually suspend
    chains. Counts are integers, so the arithmetic here is exact.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total <= 0:
        raise ValueError("cluster counts must sum to a positive value")
    scaled = len(counts) * counts
    if rule == "floor":
        shares = scaled // total
    elif rule == "ceil":
        shares = -((-scaled) // total)
    else:
        raise ValueError(f"unknown activation rule {rule!r} (expected 'floor' or 'ceil')")
    return shares > 0


# ----------------------------- run driver -----------------------------

@dataclass
class PaimConfig:
    """Run settings for the adaptive parallel sampler.

    ``init_means`` has shape (n_chains, 2, dim): per chain, the initial
    global and local component means. Initial covariances are
    ``init_sigma**2 * I`` for every component. ``t_stop`` may be
    ``math.inf`` to never stop adapting; ``t_train`` counts the leading
    steps that only collect assignments (use ``t_train=-1`` with
    ``t_stop=0`` to disable adaptation entirely).
    """

    n_chains: int
    total_samples: int
    t_train: int
    init_means: np.ndarray
    init_states: np.ndarray
    init_sigma: float
    t_stop: float = math.inf
    epsilon: float = 0.4
    activation_rule: str = "floor"
    seed: int = 0
    discard_burn_in: bool = False

    def __post_init__(self):
        self.init_means = np.asarray(self.init_means, dtype=float)
        self.init_states = np.asarray(self.init_states, dtype=float)

    @property
    def dim(self) -> int:
        return self.init_states.shape[1]

    def validate(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.total_samples < self.n_chains:
            raise ValueError("total_samples must be at least n_chains")
        if not self.t_train < self.t_stop:
            raise ValueError("t_train must be strictly below t_stop")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.init_sigma <= 0.0:
            raise ValueError("init_sigma must be positive")
        if self.activation_rule not in ("floor", "ceil"):
            raise ValueError(f"unknown activation rule {self.activation_rule!r}")
        if self.init_means.shape != (self.n_chains, 2, self.dim):
            raise ValueError(
                f"init_means must have shape ({self.n_chains}, 2, {self.dim}), got {self.init_means.shape}"
            )
        if self.init_states.shape != (self.n_chains, self.dim):
            raise ValueError(
                f"init_states must have shape ({self.n_chains}, {self.dim}), got {self.init_states.shape}"
            )


@dataclass
class SchedulerState:
    """Mutable view of one run, handed to the ``on_step`` callback.

    ``samples`` is the preallocated output array; rows up to
    ``total_drawn`` are valid. ``active`` holds the set that the *next*
    step will use (adaptation updates it in place at the end of a step).
    """

    step: int
    total_drawn: int
    samples: np.ndarray
    global_moments: RunningMoments
    clusters: list[RunningMoments]
    active: np.ndarray
    chains: list[ChainState]
    proposals: list[MixtureProposal]
    fresh: list[np.ndarray] = field(default_factory=list)


@dataclass
class RunRecord:
    """Everything one run produced, in generation order."""

    samples: np.ndarray            # (L, dim)
    sample_step: np.ndarray        # (L,) step index of each sample
    sample_chain: np.ndarray       # (L,) chain index of each sample
    sample_iteration: np.ndarray   # (L,) per-chain iteration number, 1-based
    sample_accepted: np.ndarray    # (L,) whether the candidate was accepted
    activity: np.ndarray           # (t_total, n_chains) active flags per executed step
    budgets: np.ndarray            # (n_chains,) final per-chain iteration counts
    proposals: list[MixtureProposal]
    global_mean: Optional[np.ndarray]
    global_cov: Optional[np.ndarray]

    @property
    def t_total(self) -> int:
        return self.activity.shape[0]

    @property
    def n_chains(self) -> int:
        return self.activity.shape[1]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def acceptance_rate(self) -> float:
        return float(self.sample_accepted.mean())

    @property
    def final_active_count(self) -> int:
        return int(self.activity[-1].sum())


def chain_streams(seed: int, n_chains: int) -> list[np.random.Generator]:
    """One independent generator per chain index, derived from ``seed``.

    A chain's stream depends only on its index, so its sample sequence
    is unchanged by how many other chains happen to be active. One spare
    child is reserved for scheduler-level draws (none are used today).
    """
    children = np.random.SeedSequence(seed).spawn(n_chains + 1)
    return [np.random.default_rng(child) for child in children[:n_chains]]


def initial_proposals(config) -> list[MixtureProposal]:
    cov = config.init_sigma**2 * np.eye(config.dim)
    return [
        MixtureProposal(
            global_component=make_component(config.init_means[n, 0], cov),
            local_component=make_component(config.init_means[n, 1], cov),
        )
        for n in range(config.n_chains)
    ]


def run_paim(
    config: PaimConfig,
    target: TargetDensity,
    on_step: Optional[Callable[[SchedulerState], None]] = None,
) -> RunRecord:
    """Run the adaptive parallel sampler until ``total_samples`` states exist.

    Within a step, chains run in ascending index order, which fixes the
    output ordering and the stop point. The stop check runs after every
    single chain iteration, so exactly ``total_samples`` samples are
    produced and recorded. ``on_step`` (if given) is invoked after each
    completed step, once assignment and any adaptation are done.
    """
    config.validate()
    if target.dim != config.dim:
        raise ValueError(f"target dim {target.dim} does not match config dim {config.dim}")

    n = config.n_chains
    total = config.total_samples
    dim = config.dim

    rngs = chain_streams(config.seed, n)
    proposals = initial_proposals(config)
    chains = [ChainState(index=j, current=config.init_states[j].copy()) for j in range(n)]
    global_moments = RunningMoments(dim)
    clusters = [RunningMoments(dim) for _ in range(n)]
    for j in range(n):
        # The initial state seeds chain j's cluster, so every local mean
        # is defined before the first assignment.
        clusters[j].push(config.init_states[j])
    active = np.ones(n, dtype=bool)
    # Cluster count each local component in ``proposals`` was fitted to.
    # The initial local components come from ``init_means``, not from
    # the clusters, so start from a count no cluster can have: the first
    # refresh then rebuilds every one of them.
    built_counts = np.full(n, -1, dtype=np.int64)

    samples = np.empty((total, dim))
    sample_step = np.empty(total, dtype=np.int64)
    sample_chain = np.empty(total, dtype=np.int64)
    sample_iteration = np.empty(total, dtype=np.int64)
    sample_accepted = np.empty(total, dtype=bool)
    activity_rows: list[np.ndarray] = []

    log_target_cache: list[Optional[float]] = [None] * n
    log_prop_cache: list[Optional[float]] = [None] * n

    state = SchedulerState(
        step=-1,
        total_drawn=0,
        samples=samples,
        global_moments=global_moments,
        clusters=clusters,
        active=active,
        chains=chains,
        proposals=proposals,
        fresh=[],
    )

    drawn = 0
    t = -1
    while True:
        t += 1
        activity_rows.append(active.copy())
        fresh: list[np.ndarray] = []
        filled = False
        for j in range(n):
            if not active[j]:
                continue
            accepted, lt, lp = mh_step(
                chains[j], proposals[j], target, rngs[j], log_target_cache[j], log_prop_cache[j]
            )
            log_target_cache[j] = lt
            log_prop_cache[j] = lp
            x = chains[j].current
            samples[drawn] = x
            sample_step[drawn] = t
            sample_chain[drawn] = j
            sample_iteration[drawn] = chains[j].iterations
            sample_accepted[drawn] = accepted
            drawn += 1
            if t < config.t_stop:
                global_moments.push(x)
                fresh.append(x)
            if drawn == total:
                filled = True
                break
        if filled:
            break

        if t < config.t_stop and fresh:
            local_means = np.stack([p.local_component.mean for p in proposals])
            assign(fresh, local_means, clusters)

        if config.t_train < t < config.t_stop:
            counts = np.array([c.count for c in clusters], dtype=np.int64)
            proposals = refreshed_proposals(global_moments, clusters, config.epsilon, proposals, built_counts)
            built_counts = counts
            # The global component changed, so every chain's cached
            # mixture density at its current state is stale.
            log_prop_cache = [None] * n
            active = activation(counts, config.activation_rule)
            if not active.any():
                # Cannot happen with the rules above (the largest count
                # always rounds to a nonzero share); kept as insurance.
                active[int(np.argmax(counts))] = True

        if on_step is not None:
            state.step = t
            state.total_drawn = drawn
            state.active = active
            state.proposals = proposals
            state.fresh = fresh
            on_step(state)

    return RunRecord(
        samples=samples,
        sample_step=sample_step,
        sample_chain=sample_chain,
        sample_iteration=sample_iteration,
        sample_accepted=sample_accepted,
        activity=np.stack(activity_rows),
        budgets=np.array([c.iterations for c in chains], dtype=np.int64),
        proposals=proposals,
        global_mean=global_moments.mean.copy() if global_moments.count > 0 else None,
        global_cov=global_moments.covariance(config.epsilon) if global_moments.count > 0 else None,
    )
