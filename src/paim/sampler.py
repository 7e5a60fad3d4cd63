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

The fixed-proposal baseline, :func:`run_ipc`, is this same sampler with
adaptation off. A step's chains advance together through
:meth:`ChainEnsemble.advance`: each chain draws from its own random
stream, then one batched call scores all candidates under the target
and one under the chains' stacked mixture proposals. A chain's records
are bit-identical to advancing it alone, so they do not depend on how
many other chains are active.

The proposals are arrays, not objects. :class:`ChainEnsemble` holds
every chain's mixture as stacked means (n, 2, d), covariances
(n, 2, d, d) and their Cholesky factors, column 0 the global component
and column 1 the local one; the run record and the ``on_step`` view
read those arrays. The adaptation state is stacked the same way. The N
clusters are one :class:`~paim.moments.MomentStack`; :func:`assign`
finds every new state's nearest local mean with one distance matrix,
then pushes the states into their clusters in generation order. A
refresh computes the covariances of the global fit and of every
cluster that changed in one stacked step and factors them with one
stacked :func:`cholesky` call, writing the results straight into the
ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussian import cholesky, log_gaussian_pdf_stacked
from .moments import MomentStack, RunningMoments, stacked_covariance
from .targets import TargetDensity

LOG_HALF = math.log(0.5)


# ----------------------------- MH kernel -----------------------------

def stacked_mixture_log_pdf(xs, means, lowers, log_det_halves) -> np.ndarray:
    """Mixture log-density of each row of ``xs`` (m, d) under its own proposal.

    Row r's proposal is ``means[r]`` (2, d), ``lowers[r]`` (2, d, d) and
    ``log_det_halves[r]`` (2,), as laid out in :class:`ChainEnsemble`.
    Each value is log(0.5*q1(x) + 0.5*q2(x)), evaluated without leaving
    log space, and is bit-identical to the value its row gets alone.
    """
    comp = log_gaussian_pdf_stacked(xs[:, None, :] - means, lowers, log_det_halves)
    return LOG_HALF + np.logaddexp(comp[:, 0], comp[:, 1])


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


class ChainEnsemble:
    """The N chains of one run: states, streams, cached densities, proposals.

    Row j of every array belongs to chain j: ``current`` (n, d) is its
    state and ``iterations`` its iteration count. ``log_target[j]`` and
    ``log_proposal[j]`` cache the target and mixture log-densities at its
    state, or are None when not yet computed. ``rngs[j]`` is its random
    stream.

    The ensemble is the only holder of the proposal parameters: means
    ``means`` (n, 2, d), covariances ``covs`` (n, 2, d, d), their
    Cholesky factors ``lowers`` (n, 2, d, d) and half log-determinants
    ``log_det_halves`` (n, 2), with column 0 the global component and
    column 1 the local one. :meth:`refit` replaces them.
    """

    def __init__(self, init_states, means, covs, rngs: Sequence[np.random.Generator]):
        """``means`` and ``covs`` broadcast to (n, 2, d) and (n, 2, d, d)."""
        self.current = np.array(init_states, dtype=float)
        n, d = self.current.shape
        self.rngs = list(rngs)
        self.iterations = np.zeros(n, dtype=np.int64)
        self.log_target: list[Optional[float]] = [None] * n
        self.log_proposal: list[Optional[float]] = [None] * n
        self.means = np.array(np.broadcast_to(means, (n, 2, d)), dtype=float)
        self.covs = np.array(np.broadcast_to(covs, (n, 2, d, d)), dtype=float)
        self.lowers, self.log_det_halves = cholesky(self.covs)

    def refit(self, means: np.ndarray, covs: np.ndarray, rows: np.ndarray) -> None:
        """Install a new global component and new local components.

        Row 0 of ``means`` (k+1, d) and ``covs`` (k+1, d, d) is the global
        component, which every chain receives; row i+1 is the local
        component of chain ``rows[i]``. The other chains keep their local
        component. All k+1 covariances are factored by one stacked
        :func:`cholesky` call. Every cached mixture density goes stale,
        since the global component changed.
        """
        lowers, log_det_halves = cholesky(covs)
        for held, values in (
            (self.means, means),
            (self.covs, covs),
            (self.lowers, lowers),
            (self.log_det_halves, log_det_halves),
        ):
            held[:, 0] = values[0]
            held[rows, 1] = values[1:]
        self.log_proposal = [None] * len(self.log_proposal)

    def advance(self, run: np.ndarray, target: TargetDensity) -> np.ndarray:
        """One independence-MH iteration for each chain in ``run``, together.

        ``run`` holds chain indices. Chain j draws from ``rngs[j]``, in
        this order: a uniform that picks the component (global below
        0.5), ``d`` standard normals for the candidate ``mean + L @ z``,
        and the acceptance uniform. The draws do not depend on
        accept/reject outcomes or on which other chains run, so a chain's
        results are bit-identical whether it is advanced alone or with
        others. One ``target.log_density_batch`` call scores every
        candidate plus the current states without a cached value; one
        :func:`stacked_mixture_log_pdf` call does the same for the
        proposal. The accept test is :func:`log_accept_ratio` against
        ``math.log(u)``, one chain at a time. Returns the acceptance flag
        of each chain in ``run``.
        """
        chains = run.tolist()
        d = self.current.shape[1]
        comp = []
        z = np.empty((len(chains), d))
        uniforms = []
        for r, j in enumerate(chains):
            rng = self.rngs[j]
            comp.append(0 if rng.random() < 0.5 else 1)
            z[r] = rng.standard_normal(d)
            uniforms.append(rng.random())
        # A stacked matmul gives each row the bits of ``L @ z`` alone;
        # np.vecdot over the rows of L would not.
        candidates = self.means[run, comp] + (self.lowers[run, comp] @ z[..., None])[..., 0]

        def target_values(rows, xs):
            return target.log_density_batch(xs)

        def proposal_values(rows, xs):
            return stacked_mixture_log_pdf(xs, self.means[rows], self.lowers[rows], self.log_det_halves[rows])

        log_target_new = self._score(self.log_target, chains, candidates, target_values)
        log_prop_new = self._score(self.log_proposal, chains, candidates, proposal_values)

        log_target, log_proposal = self.log_target, self.log_proposal
        accepted = []
        moved = []
        for r, (j, u, lt_new, lp_new) in enumerate(zip(chains, uniforms, log_target_new, log_prop_new)):
            log_alpha = log_accept_ratio(lt_new, log_target[j], lp_new, log_proposal[j])
            # math.log, not np.log: the two differ in the last bit for some u.
            ok = (math.log(u) if u > 0.0 else -math.inf) < log_alpha
            if ok:
                log_target[j] = lt_new
                log_proposal[j] = lp_new
                moved.append(r)
            accepted.append(ok)
        if moved:
            self.current[run[moved]] = candidates[moved]
        self.iterations[run] += 1
        return np.array(accepted, dtype=bool)

    def _score(self, cache: list, chains: list[int], candidates: np.ndarray, score) -> list[float]:
        """Values of ``score(rows, points)`` at the candidates of ``chains``.

        The same call also scores the current state of every chain whose
        ``cache`` entry is None and fills that entry; ``rows`` names the
        chain each point belongs to.
        """
        stale = [j for j in chains if cache[j] is None]
        points = np.concatenate((self.current[stale], candidates)) if stale else candidates
        values = score(stale + chains, points).tolist()
        for j, value in zip(stale, values):
            cache[j] = value
        return values[len(stale) :]


# ----------------------- assignment and adaptation -----------------------

def assign(fresh, local_means: np.ndarray, clusters: MomentStack) -> np.ndarray:
    """Push each new state into the cluster with the nearest local mean.

    ``fresh`` holds the new states (m, d) in generation order and
    ``local_means`` (n, d) the chains' local means. One (m, n) matrix of
    squared Euclidean distances picks every state's cluster, ties to the
    lowest chain index; then the states are pushed into their clusters
    in generation order. Means of suspended chains take part as well;
    that is what lets a suspended chain accumulate states and come back.
    Returns the chosen cluster index per state.
    """
    fresh = np.asarray(fresh, dtype=float)
    diff = np.asarray(local_means, dtype=float) - fresh[:, None, :]
    chosen = np.argmin(np.einsum("mnd,mnd->mn", diff, diff), axis=1)
    clusters.push(chosen.tolist(), fresh)
    return chosen


def refreshed_proposals(
    global_moments: RunningMoments,
    clusters: MomentStack,
    epsilon: float,
    chains: ChainEnsemble,
    dirty: np.ndarray,
) -> None:
    """Refit the chains' proposals to the current accumulators, in place.

    Every chain receives the global fit as its global component. Chain
    j's local component is refitted to its cluster where ``dirty[j]`` is
    set; the others keep theirs. Passing
    ``dirty = clusters.count != built_counts``, the counts the local
    components were fitted to, is exact: a push is the only way a
    cluster changes and it always increments the count, so an unchanged
    count means an unchanged mean and scatter, and a refit would
    reproduce the same bits. The global fit and the refitted clusters go
    through one stacked covariance step and, in :meth:`ChainEnsemble.refit`,
    one stacked Cholesky factorization.
    """
    rows = np.flatnonzero(dirty)
    count = np.concatenate(([global_moments.count], clusters.count[rows]))
    means = np.concatenate((global_moments.mean[None], clusters.mean[rows]))
    scatter = np.concatenate((global_moments.scatter[None], clusters.scatter[rows]))
    chains.refit(means, stacked_covariance(count, scatter, epsilon), rows)


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
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.init_sigma < math.inf:
            raise ValueError(f"init_sigma must be positive and finite, got {self.init_sigma}")
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
    ``global_moments`` and the rows of ``clusters`` read the live
    accumulators, and ``chains.means`` and ``chains.covs`` the live
    proposal parameters; copy what must outlive the callback.
    """

    step: int
    total_drawn: int
    samples: np.ndarray
    global_moments: RunningMoments
    clusters: MomentStack
    active: np.ndarray
    chains: ChainEnsemble
    fresh: list[np.ndarray] = field(default_factory=list)


@dataclass
class RunRecord:
    """Everything one run produced, in generation order."""

    samples: np.ndarray            # (L, dim)
    sample_step: np.ndarray        # (L,) step index of each sample
    sample_chain: np.ndarray       # (L,) chain index of each sample
    sample_iteration: np.ndarray   # (L,) per-chain iteration number, 1-based
    sample_accepted: np.ndarray    # (L,) whether the candidate was accepted
    activity: np.ndarray           # (t_total, n_chains) active set per step; the last step
                                   # runs only its first L - drawn active chains
    budgets: np.ndarray            # (n_chains,) final per-chain iteration counts
    proposal_means: np.ndarray     # (n_chains, 2, dim) final global and local means
    proposal_covs: np.ndarray      # (n_chains, 2, dim, dim) final global and local covariances
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


def run_paim(
    config: PaimConfig,
    target: TargetDensity,
    on_step: Optional[Callable[[SchedulerState], None]] = None,
) -> RunRecord:
    """Run the adaptive parallel sampler until ``total_samples`` states exist.

    Within a step, samples are recorded in ascending chain index, which
    fixes the output ordering and the stop point: the last
    step runs only the first ``total_samples - drawn`` active chains, so
    exactly ``total_samples`` samples are produced and recorded.
    ``on_step`` (if given) is invoked after each completed step, once
    assignment and any adaptation are done.
    """
    config.validate()
    if target.dim != config.dim:
        raise ValueError(f"target dim {target.dim} does not match config dim {config.dim}")

    n = config.n_chains
    total = config.total_samples
    dim = config.dim

    cov = config.init_sigma**2 * np.eye(dim)
    chains = ChainEnsemble(config.init_states, config.init_means, cov, chain_streams(config.seed, n))
    global_moments = RunningMoments(dim)
    clusters = MomentStack(n, dim)
    # The initial state seeds chain j's cluster, so every local mean
    # is defined before the first assignment.
    clusters.push(range(n), config.init_states)
    active = np.ones(n, dtype=bool)
    # Cluster count each chain's local component was fitted to. The
    # initial local components come from ``init_means``, not from the
    # clusters, so start from a count no cluster can have: the first
    # refresh then refits every one of them.
    built_counts = np.full(n, -1, dtype=np.int64)

    samples = np.empty((total, dim))
    sample_step = np.empty(total, dtype=np.int64)
    sample_chain = np.empty(total, dtype=np.int64)
    sample_iteration = np.empty(total, dtype=np.int64)
    sample_accepted = np.empty(total, dtype=bool)
    activity_rows: list[np.ndarray] = []

    state = SchedulerState(
        step=-1,
        total_drawn=0,
        samples=samples,
        global_moments=global_moments,
        clusters=clusters,
        active=active,
        chains=chains,
        fresh=[],
    )

    drawn = 0
    t = -1
    while True:
        t += 1
        activity_rows.append(active.copy())
        # The last step runs only as many chains as samples are missing.
        run = np.flatnonzero(active)[: total - drawn]
        accepted = chains.advance(run, target)
        new = chains.current[run]
        end = drawn + run.size
        samples[drawn:end] = new
        sample_step[drawn:end] = t
        sample_chain[drawn:end] = run
        sample_iteration[drawn:end] = chains.iterations[run]
        sample_accepted[drawn:end] = accepted
        drawn = end
        adapting = t < config.t_stop
        if adapting:
            global_moments.stack.push(repeat(global_moments.row), new)
        if drawn == total:
            break

        if adapting:
            assign(new, chains.means[:, 1], clusters)

        if config.t_train < t < config.t_stop:
            counts = clusters.count.copy()
            refreshed_proposals(global_moments, clusters, config.epsilon, chains, counts != built_counts)
            built_counts = counts
            active = activation(counts, config.activation_rule)
            if not active.any():
                # Cannot happen with the rules above (the largest count
                # always rounds to a nonzero share); kept as insurance.
                active[int(np.argmax(counts))] = True

        if on_step is not None:
            state.step = t
            state.total_drawn = drawn
            state.active = active
            state.fresh = list(new) if adapting else []
            on_step(state)

    return RunRecord(
        samples=samples,
        sample_step=sample_step,
        sample_chain=sample_chain,
        sample_iteration=sample_iteration,
        sample_accepted=sample_accepted,
        activity=np.stack(activity_rows),
        budgets=chains.iterations.copy(),
        proposal_means=chains.means,
        proposal_covs=chains.covs,
        global_mean=global_moments.mean.copy() if global_moments.count > 0 else None,
        global_cov=global_moments.covariance(config.epsilon) if global_moments.count > 0 else None,
    )


def run_ipc(config: PaimConfig, target: TargetDensity) -> RunRecord:
    """Run the fixed-proposal baseline: :func:`run_paim` with adaptation off.

    Same chains, same initial mixture proposals, same random streams as
    the adaptive run of ``config``, but the proposals are never updated
    and no chain is ever suspended, so the chains share the budget
    round-robin. Any accuracy gap against :func:`run_paim` on the same
    config is therefore attributable to the adaptation alone.
    """
    return run_paim(replace(config, t_train=-1, t_stop=0), target)
