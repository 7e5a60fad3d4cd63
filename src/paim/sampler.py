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
grows back. The run record keeps only what the chains produced: the
samples, their acceptance flags, each step's active set and the final
proposals. Both clocks of each sample, and each chain's budget, are read
from the active sets (:class:`RunRecord`).

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
step. A block draws chain by chain, two Generator calls per candidate:
its normals, then two uniforms in one call, its acceptance uniform and
the next candidate's component uniform. Those are the values, in the
order, that three scalar calls per candidate would give. An
``on_step`` observer sees each block once, so attaching one does not
change which calls the run makes.

Without a finite ``t_stop`` the proposals adapt for the whole run, and
nothing guarantees that the chains are ergodic for the target: the
adaptation does not provably diminish, which is the condition of
Roberts & Rosenthal (2007). The default ``t_stop=inf``, Table 1's
setting, is therefore an empirical choice; a finite ``t_stop`` leaves a
plain independence sampler after the freeze.

The proposals are arrays, not objects, and each fitted component is
held once. The adaptation state stacks the N clusters and the global
fit as rows 0..N-1 and N of the arrays of one
:class:`~paim.moments.MomentStack`, which ``on_step`` observers get too.
:class:`ChainEnsemble` holds the proposal components in that row
layout: stacked means, covariances and their Cholesky factors, one row
per component, with a fixed table from chain j to its global and local
rows. A refresh installs the refitted rows as they are, and a step
gathers each candidate's mixture through the table; the run record
reads every chain's two components through it as well.
Every adaptive step, the last one included, finds each new state's
nearest local mean with one distance matrix (:func:`assign`) and makes
one batched push: every new state into the global row and into its
cluster, each row in generation order. The push runs the Welford mean
recurrence over Python floats, one coordinate at a time, and forms the
scatter increments in one stacked product. A refresh computes the
covariances of every row in one stacked step and factors them with one
stacked :func:`cholesky` call, and the ensemble takes the rows as its
components: no row is copied out per chain.

The run settings are declared and checked once, on :class:`RunSettings`,
which :class:`PaimConfig` and :class:`~paim.harness.ExperimentConfig`
extend. Configs are immutable: ``dataclasses.replace`` derives a changed
one and checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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
    ``log_det_halves[r]`` (2,), global component first: the stacks of
    :class:`ChainEnsemble` gathered through a row of its ``rows`` table.
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
    state and ``rngs[j]`` its random stream. The ensemble owns the run's
    ``target``, and ``log_target[j]`` is the target log-density at chain
    j's state. That is the one cached density: the target never changes
    and is the costly one, so every state is scored under it once, the
    initial states here and each candidate when it is drawn. The mixture
    density at a state is not cached, because an adaptive step refits
    every proposal; :meth:`advance` rescores the states it runs.

    The ensemble is the only holder of the proposal parameters, each
    fitted component held once. ``means`` (k, d), ``covs`` (k, d, d),
    their Cholesky factors ``lowers`` (k, d, d) and half log-determinants
    ``log_det_halves`` (k,) stack the components, and row j of the int
    table ``rows`` (n, 2) names chain j's global and local component
    rows, in that order. Row j < n is always chain j's local component.
    Until the first :meth:`refit`, k = 2n and row n + j holds chain j's
    initial global component; from it on, the stacks take the layout of
    the :class:`~paim.moments.MomentStack`, k = n + 1 with the one
    global component at row n. ``means[rows]`` gives every chain's
    mixture as (n, 2, d), global first.
    """

    def __init__(self, init_states, means, covs, rngs: Sequence[np.random.Generator], target: TargetDensity):
        """``means`` and ``covs`` broadcast to (n, 2, d) and (n, 2, d, d):
        per chain, the initial global and local component."""
        self.current = np.array(init_states, dtype=float)
        n, d = self.current.shape
        self.rngs = list(rngs)
        self.target = target
        self.log_target: list[float] = target.log_density_batch(self.current).tolist()
        means = np.broadcast_to(means, (n, 2, d))
        covs = np.broadcast_to(covs, (n, 2, d, d))
        self.means = np.concatenate((means[:, 1], means[:, 0]), dtype=float)
        self.covs = np.concatenate((covs[:, 1], covs[:, 0]), dtype=float)
        self.lowers, self.log_det_halves = cholesky(self.covs)
        local = np.arange(n)
        self.rows = np.stack((n + local, local), axis=1)
        # Every chain's global row is row n once refitted; built here,
        # not per refit, because a refit runs at every adaptive step.
        self._refitted_rows = np.stack((np.full(n, n), local), axis=1)

    def refit(self, means: np.ndarray, covs: np.ndarray) -> None:
        """Install new proposals for every chain, in the layout of the
        :class:`~paim.moments.MomentStack`.

        Row j of ``means`` (n+1, d) and ``covs`` (n+1, d, d) is chain j's
        local component; the last row is the global component, which
        every chain shares. ``means`` is copied, since the accumulator's
        means change in place; ``covs`` is held as given. All n+1
        covariances are factored by one stacked :func:`cholesky` call.
        """
        self.means = np.array(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        self.lowers, self.log_det_halves = cholesky(self.covs)
        self.rows = self._refitted_rows

    def advance(self, run: np.ndarray, steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """``steps`` independence-MH iterations for each chain in ``run``, together.

        ``run`` holds chain indices. Per iteration, chain j draws from
        ``rngs[j]``, in this order: a uniform that picks the component
        (global below 0.5), ``d`` standard normals for the candidate
        ``mean + L @ z`` from that component's row of the stacks, and
        the acceptance uniform. The proposals stay fixed within the
        call, so the draws do not depend on accept/reject outcomes or on
        which other chains run: all ``steps`` iterations of a chain are
        drawn up front, chain by chain, and its results are
        bit-identical to ``steps`` one-step calls, whether it is advanced
        alone or with others.

        The draws are grouped into two Generator calls per iteration,
        with the values and their order unchanged. The chain's first
        component uniform is drawn alone. Each iteration then writes its
        normals in place, into its row of the normals array, and one
        ``random`` call fills a two-value buffer with adjacent uniforms
        of the stream, as ``random(2)`` would: this iteration's
        acceptance uniform and the next one's component uniform. The
        last iteration draws its acceptance uniform alone, so each
        stream ends where the scalar calls would leave it: no value is
        drawn ahead or carried to the next call.

        One ``target.log_density_batch`` call scores the candidates and
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
        owner = np.repeat(run, steps)
        comp = []
        z = np.empty((m * steps, d))
        pair = np.empty(2)
        uniforms = []  # the acceptance uniforms
        for r, j in enumerate(chains):
            rng = self.rngs[j]
            last = (r + 1) * steps - 1
            c = rng.random()
            for k in range(r * steps, last):
                comp.append(0 if c < 0.5 else 1)
                rng.standard_normal(out=z[k])
                # This iteration's acceptance uniform and the next one's component uniform.
                rng.random(out=pair)
                u, c = pair.tolist()
                uniforms.append(u)
            comp.append(0 if c < 0.5 else 1)
            rng.standard_normal(out=z[last])
            uniforms.append(rng.random())
        # A stacked matmul gives each row the bits of ``L @ z`` alone;
        # np.vecdot over the rows of L would not.
        picked = self.rows[owner, comp]
        candidates = self.means[picked] + (self.lowers[picked] @ z[..., None])[..., 0]
        log_target_new = self.target.log_density_batch(candidates).tolist()
        # Row r < m of ``pool`` is chain run[r]'s state before the call and
        # row m + k is candidate k; ``log_mixture`` holds their mixture values.
        pool = np.concatenate((self.current[run], candidates))
        # The global and local component rows of each row of ``pool``.
        owners = self.rows[np.concatenate((run, owner))]
        log_mixture = stacked_mixture_log_pdf(
            pool, self.means[owners], self.lowers[owners], self.log_det_halves[owners]
        ).tolist()

        log_target = self.log_target
        # math.log, not np.log: the two differ in the last bit for some u.
        log = math.log
        accepted = []
        held = []  # the row of ``pool`` holding the chain's state after each iteration
        for r, j in enumerate(chains):
            # The chain's row of ``pool``, target and mixture values as it moves.
            row, target_cur, mixture_cur = r, log_target[j], log_mixture[r]
            for k in range(r * steps, (r + 1) * steps):
                target_new, mixture_new = log_target_new[k], log_mixture[m + k]
                log_alpha = log_accept_ratio(target_new, target_cur, mixture_new, mixture_cur)
                u = uniforms[k]
                ok = (log(u) if u > 0.0 else -math.inf) < log_alpha
                if ok:
                    row, target_cur, mixture_cur = m + k, target_new, mixture_new
                accepted.append(ok)
                held.append(row)
            log_target[j] = target_cur
        states = pool[held].reshape(m, steps, d).swapaxes(0, 1)
        self.current[run] = states[-1]
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
    global fit. :meth:`ChainEnsemble.refit` holds the fitted components
    in that same row layout, so chain j's local component is row j of
    ``chains.means`` and the one global component, shared by every
    chain, row n. Every row goes through one stacked covariance step and
    one stacked Cholesky factorization; a row whose accumulator has not
    changed gets the same bits again.
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

@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """The scalar settings of a run, checked when built.

    A run has at least one chain and one sample per chain, trains
    strictly before it stops adapting, and has an ``epsilon`` that lifts
    a pivot above ``PIVOT_FLOOR`` and an initial covariance scale
    ``sigma`` that passes :func:`~paim.gaussian.check_sigma`. None of
    these needs the target, so a study checks them before any oracle runs.

    ``t_stop`` may be ``math.inf`` to never stop adapting; ``t_train``
    counts the leading steps that only collect assignments (use
    ``t_train=-1`` with ``t_stop=0`` to disable adaptation entirely). The
    default ``t_stop=math.inf`` is Table 1's setting, but it carries no
    ergodicity guarantee: adaptation that never stops need not diminish
    (Roberts & Rosenthal 2007). A finite ``t_stop`` makes every chain a
    valid independence sampler from that step on.
    """

    n_chains: int
    total_samples: int
    t_train: int
    sigma: float
    t_stop: float = math.inf
    epsilon: float = 0.4

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.total_samples < self.n_chains:
            raise ValueError("total_samples must be at least n_chains")
        if not self.t_train < self.t_stop:
            raise ValueError("t_train must be strictly below t_stop")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not self.epsilon > PIVOT_FLOOR:
            raise ValueError(f"epsilon must be above {PIVOT_FLOOR:.0e}, got {self.epsilon}")
        check_sigma("sigma", self.sigma)


@dataclass(frozen=True, kw_only=True)
class PaimConfig(RunSettings):
    """Run settings for the adaptive parallel sampler.

    ``init_means`` has shape (n_chains, 2, dim): per chain, the initial
    global and local component means; ``init_states`` (n_chains, dim)
    holds the first states. Initial covariances are ``sigma**2 * I``.
    """

    init_means: np.ndarray
    init_states: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "init_means", np.asarray(self.init_means, dtype=float))
        object.__setattr__(self, "init_states", np.asarray(self.init_states, dtype=float))
        super().__post_init__()
        if self.init_means.shape != (self.n_chains, 2, self.dim):
            raise ValueError(
                f"init_means must have shape ({self.n_chains}, 2, {self.dim}), got {self.init_means.shape}"
            )
        if self.init_states.shape != (self.n_chains, self.dim):
            raise ValueError(
                f"init_states must have shape ({self.n_chains}, {self.dim}), got {self.init_states.shape}"
            )

    @property
    def dim(self) -> int:
        return self.init_states.shape[1]


@dataclass
class SchedulerState:
    """Mutable view of one run, handed to the ``on_step`` callback.

    The callback runs once per block: ``steps`` is the block's length
    and ``step`` its last step. While adapting, a block is one step;
    once frozen, it is as many steps as one :meth:`ChainEnsemble.advance`
    call ran. ``active`` holds the set that the *next* block will use
    (adaptation replaces it at the end of a step). ``moments`` is the
    live :class:`~paim.moments.MomentStack`: row j < n is chain j's
    cluster and row n the global fit. ``clusters`` holds row views of its
    first n rows. ``chains.means`` and ``chains.covs`` stack the live
    proposal components: row j < n is chain j's local component, and
    ``chains.rows[j]`` names its global and local rows. Once refitted,
    they have the rows of ``moments``, the one global component at row
    n; before, row n + j is chain j's initial global component. Copy
    what must outlive the callback.
    """

    step: int
    steps: int
    total_drawn: int
    moments: MomentStack
    clusters: list[RunningMoments]
    active: np.ndarray
    chains: ChainEnsemble


@dataclass
class RunRecord:
    """Everything one run produced, in generation order.

    Step t ran the chains of ``activity[t]`` in ascending index until L
    samples were drawn, so the samples are the first L cells of
    ``activity`` in row-major order. Which step, chain and per-chain
    iteration made each sample, and each chain's budget, follow from
    that: they are read from ``activity`` once, on first use, and are not
    stored.
    """

    samples: np.ndarray            # (L, dim)
    sample_accepted: np.ndarray    # (L,) whether the candidate was accepted
    activity: np.ndarray           # (t_total, n_chains) active set per step; the last step
                                   # runs only its first L - drawn active chains
    proposal_means: np.ndarray     # (n_chains, 2, dim) final global and local means
    proposal_covs: np.ndarray      # (n_chains, 2, dim, dim) final global and local covariances
    global_mean: Optional[np.ndarray]
    global_cov: Optional[np.ndarray]

    def __post_init__(self):
        # Every index property reads one active cell per sample.
        m = len(self.samples)
        if len(self.sample_accepted) != m:
            raise ValueError(f"a record of {m} samples needs {m} accept flags, got {len(self.sample_accepted)}")
        cells = int(np.count_nonzero(self.activity))
        if cells < m:
            raise ValueError(f"a record of {m} samples needs at least {m} active cells in its activity, got {cells}")

    @cached_property
    def _indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        steps, chains = (cells[: len(self.samples)] for cells in np.nonzero(self.activity))
        budgets = np.bincount(chains, minlength=self.n_chains)
        # A stable sort lists each chain's samples in generation order, and
        # the i-th sample of a chain is its iteration i.
        order = np.argsort(chains, kind="stable")
        rank = np.arange(1, chains.size + 1)
        rank -= np.repeat(np.cumsum(budgets) - budgets, budgets)
        iterations = np.empty_like(rank)
        iterations[order] = rank
        return steps, chains, iterations, budgets

    sample_step = property(lambda self: self._indices[0], doc="(L,) step index of each sample")
    sample_chain = property(lambda self: self._indices[1], doc="(L,) chain index of each sample")
    sample_iteration = property(lambda self: self._indices[2], doc="(L,) 1-based per-chain iteration of each sample")
    budgets = property(lambda self: self._indices[3], doc="(n_chains,) iterations each chain ran")

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
    if target.dim != config.dim:
        raise ValueError(f"target dim {target.dim} does not match config dim {config.dim}")

    n = config.n_chains
    total = config.total_samples
    dim = config.dim

    cov = config.sigma**2 * np.eye(dim)
    chains = ChainEnsemble(config.init_states, config.init_means, cov, chain_streams(config.seed, n), target)
    # Row j accumulates chain j's cluster and row n every new state, the
    # global fit. The initial state seeds chain j's cluster, so every
    # local mean is defined before the first assignment.
    moments = MomentStack(n + 1, dim)
    moments.push(range(n), config.init_states)
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
        moments=moments,
        clusters=[RunningMoments(moments, j) for j in range(n)],
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
            # One push per step: every new state into the global row and
            # into the cluster of its nearest local mean.
            chosen = assign(new, chains.means[:n]).tolist()
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

    fitted = moments.count[n] > 0  # the global row; a run that never adapts leaves it empty
    return RunRecord(
        samples=samples,
        sample_accepted=sample_accepted,
        activity=np.repeat(np.stack(activity_rows), activity_steps, axis=0),
        proposal_means=chains.means[chains.rows],
        proposal_covs=chains.covs[chains.rows],
        global_mean=moments.mean[n].copy() if fitted else None,
        global_cov=stacked_covariance(moments.count[n:], moments.scatter[n:], config.epsilon)[0] if fitted else None,
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
