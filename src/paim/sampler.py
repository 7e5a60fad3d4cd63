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
stream, then one batched call scores the candidates under the target,
and one scores the chains' states and the candidates under the stacked
mixture proposals. Only the target, costly and fixed, is cached at each
state; every adaptive step refits the mixtures, so they are rescored. A
chain's records are bit-identical to advancing it alone, so they do not
depend on how many other chains are active.

Once adaptation has stopped (from step ``t_stop`` on, and from the start
in :func:`run_ipc`), each chain is a plain independence sampler whose
candidates do not depend on its state. The run then advances in blocks
of many steps, up to :data:`BLOCK` chain-iterations per
:meth:`ChainEnsemble.advance` call, with the same records as step by
step. An ``on_step`` observer sees each block once, so attaching one
does not change which calls the run makes.

Without a finite ``t_stop`` the proposals adapt for the whole run, and
nothing guarantees that the chains are ergodic for the target: the
adaptation does not provably diminish, which is the condition of
Roberts & Rosenthal (2007). The default ``t_stop=inf``, Table 1's
setting, is therefore an empirical choice; a finite ``t_stop`` leaves a
plain independence sampler after the freeze.

The proposals are arrays, not objects. :class:`ChainEnsemble` holds
every chain's mixture as stacked means (n, 2, d), covariances
(n, 2, d, d) and their Cholesky factors, column 0 the global component
and column 1 the local one; the run record and the ``on_step`` view
read those arrays. The adaptation state is stacked the same way. The N
clusters and the global fit are the rows of one
:class:`~paim.moments.MomentStack`; :func:`assign` finds every new
state's nearest local mean with one distance matrix, and the step then
makes one batched push: every new state into the global row and into
its cluster, each row in generation order. A refresh computes the
covariances of every row in one stacked step and factors them with one
stacked :func:`cholesky` call, writing the results straight into the
ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussian import PIVOT_FLOOR, check_sigma, cholesky, log_gaussian_pdf_stacked
from .moments import MomentStack, RunningMoments, stacked_covariance
from .targets import TargetDensity

LOG_HALF = math.log(0.5)

# Chain-iterations per frozen block in :func:`run_paim`: bounds the block's
# temporaries, so a run's peak memory does not grow with its length.
BLOCK = 1024


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
    """The N chains of one run: states, streams, target values, proposals.

    Row j of every array belongs to chain j: ``current`` (n, d) is its
    state, ``iterations`` its iteration count and ``rngs[j]`` its random
    stream. The ensemble owns the run's ``target``, and ``log_target[j]``
    is the target log-density at chain j's state. That is the one cached
    density: the target never changes and is the costly one, so every
    state is scored under it once, the initial states here and each
    candidate when it is drawn. The mixture density at a state is not
    cached, because an adaptive step refits every proposal;
    :meth:`advance` rescores the states it runs.

    The ensemble is the only holder of the proposal parameters: means
    ``means`` (n, 2, d), covariances ``covs`` (n, 2, d, d), their
    Cholesky factors ``lowers`` (n, 2, d, d) and half log-determinants
    ``log_det_halves`` (n, 2), with column 0 the global component and
    column 1 the local one. :meth:`refit` replaces them.
    """

    def __init__(self, init_states, means, covs, rngs: Sequence[np.random.Generator], target: TargetDensity):
        """``means`` and ``covs`` broadcast to (n, 2, d) and (n, 2, d, d)."""
        self.current = np.array(init_states, dtype=float)
        n, d = self.current.shape
        self.rngs = list(rngs)
        self.target = target
        self.iterations = np.zeros(n, dtype=np.int64)
        self.log_target: list[float] = target.log_density_batch(self.current).tolist()
        self.means = np.array(np.broadcast_to(means, (n, 2, d)), dtype=float)
        self.covs = np.array(np.broadcast_to(covs, (n, 2, d, d)), dtype=float)
        self.lowers, self.log_det_halves = cholesky(self.covs)

    def refit(self, means: np.ndarray, covs: np.ndarray) -> None:
        """Install new proposals for every chain.

        Row j of ``means`` (n+1, d) and ``covs`` (n+1, d, d) is chain j's
        local component; the last row is the global component, which
        every chain receives. All n+1 covariances are factored by one
        stacked :func:`cholesky` call.
        """
        lowers, log_det_halves = cholesky(covs)
        for held, values in (
            (self.means, means),
            (self.covs, covs),
            (self.lowers, lowers),
            (self.log_det_halves, log_det_halves),
        ):
            held[:, 0] = values[-1]
            held[:, 1] = values[:-1]

    def advance(self, run: np.ndarray, steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """``steps`` independence-MH iterations for each chain in ``run``, together.

        ``run`` holds chain indices. Per iteration, chain j draws from
        ``rngs[j]``, in this order: a uniform that picks the component
        (global below 0.5), ``d`` standard normals for the candidate
        ``mean + L @ z``, and the acceptance uniform. The proposals stay
        fixed within the call, so the draws do not depend on
        accept/reject outcomes or on which other chains run: all
        ``steps`` iterations of a chain are drawn up front, and its
        results are bit-identical to ``steps`` one-step calls, whether
        it is advanced alone or with others. One
        ``target.log_density_batch`` call scores the candidates and
        nothing else, the states' values being in ``log_target``. One
        :func:`stacked_mixture_log_pdf` call scores the states of
        ``run`` and the candidates under the chains' current proposals,
        which may have been refitted since a state was reached. Then
        each chain's iterations are decided in order by
        :func:`log_accept_ratio` against ``math.log(u)``.

        Returns the states after each iteration (steps, len(run), d) and
        the acceptance flags (steps, len(run)), row i for iteration i.
        """
        chains = run.tolist()
        m, d = len(chains), self.current.shape[1]
        # The chain of each candidate, chain-major: chain r's iteration i is row r * steps + i.
        rows = np.repeat(run, steps)
        comp = []
        z = np.empty((m * steps, d))
        uniforms = []
        for k, j in enumerate(rows.tolist()):
            rng = self.rngs[j]
            comp.append(0 if rng.random() < 0.5 else 1)
            z[k] = rng.standard_normal(d)
            uniforms.append(rng.random())
        # A stacked matmul gives each row the bits of ``L @ z`` alone;
        # np.vecdot over the rows of L would not.
        candidates = self.means[rows, comp] + (self.lowers[rows, comp] @ z[..., None])[..., 0]
        log_target_new = self.target.log_density_batch(candidates).tolist()
        # Row r < m of ``pool`` is chain run[r]'s state before the call and
        # row m + k is candidate k; ``log_mixture`` holds their mixture values.
        pool = np.concatenate((self.current[run], candidates))
        owners = np.concatenate((run, rows))
        log_mixture = stacked_mixture_log_pdf(
            pool, self.means[owners], self.lowers[owners], self.log_det_halves[owners]
        ).tolist()

        log_target = self.log_target
        accepted = []
        held = []  # the row of ``pool`` holding the chain's state after each iteration
        for r, j in enumerate(chains):
            row = r
            for k in range(r * steps, (r + 1) * steps):
                log_alpha = log_accept_ratio(log_target_new[k], log_target[j], log_mixture[m + k], log_mixture[row])
                u = uniforms[k]
                # math.log, not np.log: the two differ in the last bit for some u.
                ok = (math.log(u) if u > 0.0 else -math.inf) < log_alpha
                if ok:
                    log_target[j] = log_target_new[k]
                    row = m + k
                accepted.append(ok)
                held.append(row)
        states = pool[held].reshape(m, steps, d).swapaxes(0, 1)
        self.current[run] = states[-1]
        self.iterations[run] += steps
        return states, np.array(accepted, dtype=bool).reshape(m, steps).T


# ----------------------- assignment and adaptation -----------------------

def assign(fresh, local_means: np.ndarray) -> np.ndarray:
    """The cluster with the nearest local mean, for each new state.

    ``fresh`` holds the new states (m, d) in generation order and
    ``local_means`` (n, d) the chains' local means. One (m, n) matrix of
    squared Euclidean distances picks every state's cluster, ties to the
    lowest chain index. Means of suspended chains take part as well;
    that is what lets a suspended chain accumulate states and come back.
    Returns the chosen cluster index per state; the caller pushes the
    states into those clusters.
    """
    fresh = np.asarray(fresh, dtype=float)
    diff = np.asarray(local_means, dtype=float) - fresh[:, None, :]
    return np.argmin(np.einsum("mnd,mnd->mn", diff, diff), axis=1)


def refreshed_proposals(moments: MomentStack, epsilon: float, chains: ChainEnsemble) -> None:
    """Refit every chain's proposal to the accumulators, in place.

    Row j of ``moments`` is chain j's cluster and its last row the
    global fit, the layout :meth:`ChainEnsemble.refit` takes. Every row
    goes through one stacked covariance step and one stacked Cholesky
    factorization; a row whose accumulator has not changed gets the same
    bits again.
    """
    chains.refit(moments.mean, stacked_covariance(moments.count, moments.scatter, epsilon))


def activation(counts) -> np.ndarray:
    """Active flags from cluster counts.

    Chain n's share of the per-step budget is ``n_chains * counts[n] /
    sum(counts)`` rounded down; it stays active iff the share is
    nonzero, so a chain whose cluster holds less than 1/n_chains of the
    assigned states is suspended. Counts are integers, so the
    arithmetic here is exact.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total <= 0:
        raise ValueError("cluster counts must sum to a positive value")
    return len(counts) * counts // total > 0


# ----------------------------- run driver -----------------------------

def check_settings(n_chains: int, total_samples: int, t_train: int, t_stop: float, epsilon: float,
                   init_sigma: float, sigma_name: str = "init_sigma") -> None:
    """Raise ValueError unless the scalar settings of a run are usable.

    At least one chain and one sample per chain, training strictly
    before the stop, an ``epsilon`` that lifts a pivot above
    ``PIVOT_FLOOR``, and an initial covariance scale that passes
    :func:`~paim.gaussian.check_sigma` (reported as ``sigma_name``).
    None of these needs the target, so a study checks them before any
    oracle runs.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if total_samples < n_chains:
        raise ValueError("total_samples must be at least n_chains")
    if not t_train < t_stop:
        raise ValueError("t_train must be strictly below t_stop")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not epsilon > PIVOT_FLOOR:
        raise ValueError(f"epsilon must be above {PIVOT_FLOOR:.0e}, got {epsilon}")
    check_sigma(sigma_name, init_sigma)


@dataclass
class PaimConfig:
    """Run settings for the adaptive parallel sampler.

    ``init_means`` has shape (n_chains, 2, dim): per chain, the initial
    global and local component means. Initial covariances are
    ``init_sigma**2 * I`` for every component. ``t_stop`` may be
    ``math.inf`` to never stop adapting; ``t_train`` counts the leading
    steps that only collect assignments (use ``t_train=-1`` with
    ``t_stop=0`` to disable adaptation entirely).

    The default ``t_stop=math.inf`` is Table 1's setting, but it carries
    no ergodicity guarantee: adaptation that never stops need not
    diminish (Roberts & Rosenthal 2007). A finite ``t_stop`` makes every
    chain a valid independence sampler from that step on.
    """

    n_chains: int
    total_samples: int
    t_train: int
    init_means: np.ndarray
    init_states: np.ndarray
    init_sigma: float
    t_stop: float = math.inf
    epsilon: float = 0.4
    seed: int = 0

    def __post_init__(self):
        self.init_means = np.asarray(self.init_means, dtype=float)
        self.init_states = np.asarray(self.init_states, dtype=float)

    @property
    def dim(self) -> int:
        return self.init_states.shape[1]

    def validate(self) -> None:
        check_settings(self.n_chains, self.total_samples, self.t_train, self.t_stop, self.epsilon, self.init_sigma)
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

    The callback runs once per block: ``steps`` is the block's length
    and ``step`` its last step. While adapting, a block is one step;
    once frozen, it is as many steps as one :meth:`ChainEnsemble.advance`
    call ran. ``active`` holds the set that the *next* block will use
    (adaptation replaces it at the end of a step). ``global_moments`` and
    the n ``clusters`` are row views of the live accumulators, and
    ``chains.means`` and ``chains.covs`` the live proposal parameters;
    copy what must outlive the callback.
    """

    step: int
    steps: int
    total_drawn: int
    global_moments: RunningMoments
    clusters: list[RunningMoments]
    active: np.ndarray
    chains: ChainEnsemble


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
    is unchanged by how many other chains happen to be active.
    """
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_chains)]


def sample_indices(activity: np.ndarray, last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step, chain and 1-based per-chain iteration of each sample of a run.

    Step t ran the chains of ``activity[t]`` in ascending index, except
    the last step, which ran only the first ``last`` of them; the samples
    are in that order. The rows are read about :data:`BLOCK` cells at a
    time, so the temporaries do not grow with the run.
    """
    t_total, n = activity.shape
    total = int(activity[:-1].sum()) + last
    steps, chains, iterations = (np.empty(total, dtype=np.int64) for _ in range(3))
    before = np.zeros(n, dtype=np.int64)  # each chain's iterations before the chunk
    chunk = max(1, BLOCK // n)
    k = 0
    for first in range(0, t_total, chunk):
        ran = activity[first : first + chunk]
        if first + chunk >= t_total:
            ran = ran.copy()
            ran[-1, np.flatnonzero(ran[-1])[last:]] = False
        rows, cols = np.nonzero(ran)
        counts = np.cumsum(ran, axis=0, dtype=np.int64) + before
        end = k + rows.size
        steps[k:end] = rows + first
        chains[k:end] = cols
        iterations[k:end] = counts[rows, cols]
        before = counts[-1]
        k = end
    return steps, chains, iterations


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

    There is one step loop, which advances the chains one block of
    steps at a time. While adapting, a block is one step. From step
    ``t_stop`` on, the active set no longer changes, so a block is as
    many full steps as fit in :data:`BLOCK` chain-iterations (at least
    one); the last, partial step is a block of its own. The records are
    bit-identical to advancing step by step. ``on_step`` (if given) is
    invoked after each block but the last, once assignment and any
    adaptation are done; it does not change the blocks.
    """
    config.validate()
    if target.dim != config.dim:
        raise ValueError(f"target dim {target.dim} does not match config dim {config.dim}")

    n = config.n_chains
    total = config.total_samples
    dim = config.dim

    cov = config.init_sigma**2 * np.eye(dim)
    chains = ChainEnsemble(config.init_states, config.init_means, cov, chain_streams(config.seed, n), target)
    # Row j accumulates chain j's cluster and row n every new state, the
    # global fit. The initial state seeds chain j's cluster, so every
    # local mean is defined before the first assignment.
    moments = MomentStack(n + 1, dim)
    moments.push(range(n), config.init_states)
    global_moments = moments[n]
    active = np.ones(n, dtype=bool)

    samples = np.empty((total, dim))
    sample_accepted = np.empty(total, dtype=bool)
    # Row i of ``activity_rows`` is the active set of the next ``activity_steps[i]`` steps.
    activity_rows: list[np.ndarray] = []
    activity_steps: list[int] = []

    state = SchedulerState(
        step=-1,
        steps=0,
        total_drawn=0,
        global_moments=global_moments,
        clusters=[moments[j] for j in range(n)],
        active=active,
        chains=chains,
    )

    drawn = 0
    t = -1
    while True:
        # The last step runs only as many chains as samples are missing.
        run = np.flatnonzero(active)[: total - drawn]
        steps = 1
        if t + 1 >= config.t_stop:
            # Frozen: take as many full steps as fit in a block.
            steps = max(1, min(BLOCK, total - drawn) // run.size)
        activity_rows.append(active.copy())
        activity_steps.append(steps)
        states, accepted = chains.advance(run, steps)
        t += steps
        new = states[-1]
        end = drawn + run.size * steps
        samples[drawn:end] = states.reshape(-1, dim)
        sample_accepted[drawn:end] = accepted.ravel()
        drawn = end
        if t < config.t_stop:
            # One push per step: every new state into the global row and,
            # unless the run is complete, into the cluster of its nearest local mean.
            if drawn == total:
                moments.push(repeat(n), new)
            else:
                chosen = assign(new, chains.means[:, 1]).tolist()
                moments.push([n] * run.size + chosen, np.concatenate((new, new)))
        if drawn == total:
            break

        if config.t_train < t < config.t_stop:
            refreshed_proposals(moments, config.epsilon, chains)
            active = activation(moments.count[:n])

        if on_step is not None:
            state.step = t
            state.steps = steps
            state.total_drawn = drawn
            state.active = active
            on_step(state)

    activity = np.repeat(np.stack(activity_rows), activity_steps, axis=0)
    # Which step, chain and iteration made each sample follows from the active
    # sets, so the loop records only what the chains produced.
    sample_step, sample_chain, sample_iteration = sample_indices(activity, run.size)
    return RunRecord(
        samples=samples,
        sample_step=sample_step,
        sample_chain=sample_chain,
        sample_iteration=sample_iteration,
        sample_accepted=sample_accepted,
        activity=activity,
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
