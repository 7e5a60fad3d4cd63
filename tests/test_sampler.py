import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import paim.sampler
from paim.gaussian import cholesky
from paim.moments import MomentStack, stacked_covariance
from paim.sampler import (
    BLOCK,
    ChainEnsemble,
    PaimConfig,
    RunRecord,
    activation,
    assign,
    chain_streams,
    log_accept_ratio,
    refreshed_proposals,
    run_ipc,
    run_paim,
    stacked_mixture_log_pdf,
)
from paim.targets import TargetDensity, make_banana_target, make_gaussian_mixture_target, make_gaussian_target
import reference
from test_golden import spread_config


class ScriptedRng:
    """Duck-typed generator returning pre-scripted draws, with numpy's call
    signatures. ``calls`` logs the draws, not the calls: one "random" per
    uniform, so a call for two uniforms logs two, and one
    "standard_normal(n)" per scripted vector of n normals."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)
        self.calls = []

    def random(self, size=None, out=None):
        n = out.size if out is not None else 1 if size is None else size
        values = [self.uniforms.pop(0) for _ in range(n)]
        self.calls += ["random"] * n
        if out is not None:
            out[...] = values
            return out
        return values[0] if size is None else np.array(values)

    def standard_normal(self, size=None, out=None):
        values = np.asarray(self.normals.pop(0), dtype=float)
        self.calls.append(f"standard_normal({values.size})")
        if out is None:
            return values
        out[...] = values
        return out


class Proposal:
    """One chain's mixture proposal as arrays: ``means`` (2, d) and
    ``covs`` (2, d, d), row 0 the global component, row 1 the local one,
    with their Cholesky factors."""

    def __init__(self, means, covs):
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        self.lowers, self.log_det_halves = cholesky(self.covs)

    def log_pdf(self, x) -> float:
        """The reference mixture log-density at one point."""
        return reference.mixture_log_pdf(self.means, self.lowers, self.log_det_halves, x)

    def component_log_pdf(self, c: int, x) -> float:
        return reference.log_gaussian_pdf(x, self.means[c], self.lowers[c], self.log_det_halves[c])


def proposal_from(mean1, cov1, mean2, cov2) -> Proposal:
    return Proposal([mean1, mean2], [cov1, cov2])


def mixture_log_pdf(psi: Proposal, x) -> float:
    """The sampler's stacked mixture log-density at one point: the one-row case."""
    x = np.asarray(x, dtype=float)
    return float(stacked_mixture_log_pdf(x[None], psi.means[None], psi.lowers[None], psi.log_det_halves[None])[0])


class TestMixtureLogPdf:
    def test_identical_components(self):
        psi = proposal_from([1.0, -1.0], np.eye(2), [1.0, -1.0], np.eye(2))
        x = np.array([0.3, 0.3])
        single = psi.component_log_pdf(0, x)
        assert mixture_log_pdf(psi, x) == pytest.approx(single, abs=1e-14)

    def test_far_component_drops_out(self):
        psi = proposal_from([0.0, 0.0], np.eye(2), [1e8, 1e8], np.eye(2))
        x = np.zeros(2)
        expected = math.log(0.5) + psi.component_log_pdf(0, x)
        assert mixture_log_pdf(psi, x) == pytest.approx(expected, abs=1e-12)

    def test_matches_extended_precision_sum(self):
        import mpmath

        psi = proposal_from([0.5, -0.2], np.array([[2.0, 0.3], [0.3, 1.0]]),
                            [-1.0, 2.0], np.array([[0.7, 0.0], [0.0, 3.0]]))
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.uniform(-6, 6, 2)
            la = psi.component_log_pdf(0, x)
            lb = psi.component_log_pdf(1, x)
            with mpmath.workdps(50):
                exact = mpmath.log(mpmath.mpf(0.5) * mpmath.e**la + mpmath.mpf(0.5) * mpmath.e**lb)
            assert mixture_log_pdf(psi, x) == pytest.approx(float(exact), rel=1e-13)

    def test_finite_far_away(self):
        psi = proposal_from([0.0, 0.0], np.eye(2), [1.0, 1.0], np.eye(2))
        assert np.isfinite(mixture_log_pdf(psi, np.array([1e4, -1e4])))


class TestSampleMixture:
    def test_forced_first_component(self):
        psi = proposal_from([3.0, 4.0], np.eye(2), [-3.0, -4.0], np.eye(2))
        rng = ScriptedRng(uniforms=[0.2, 0.0], normals=[(0.0, 0.0)])
        out = reference.proposal_draws(psi.means, psi.covs, [rng])[0, 0]
        assert np.array_equal(out, [3.0, 4.0])
        assert rng.calls == ["random", "standard_normal(2)", "random"]

    def test_forced_second_component(self):
        psi = proposal_from([3.0, 4.0], np.eye(2), [-3.0, -4.0], np.eye(2))
        rng = ScriptedRng(uniforms=[0.9, 0.0], normals=[(0.0, 0.0)])
        out = reference.proposal_draws(psi.means, psi.covs, [rng])[0, 0]
        assert np.array_equal(out, [-3.0, -4.0])

    def test_equal_weight_split(self):
        psi = proposal_from([-5.0, 0.0], np.eye(2), [5.0, 0.0], np.eye(2))
        draws = reference.proposal_draws(psi.means, psi.covs, chain_streams(21, 100), steps=1000).reshape(-1, 2)
        assert abs((draws[:, 0] > 0).mean() - 0.5) < 0.01

    def test_mixture_mean(self):
        psi = proposal_from([-5.0, 1.0], np.eye(2), [5.0, -1.0], np.eye(2))
        draws = reference.proposal_draws(psi.means, psi.covs, chain_streams(22, 100), steps=1000).reshape(-1, 2)
        np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=0.05)


class TestLogAcceptRatio:
    def test_better_candidate_always_accepted(self):
        # target ratio 2, proposal symmetric
        assert log_accept_ratio(math.log(2.0), 0.0, -1.0, -1.0) == 0.0

    def test_worse_candidate_halved(self):
        assert log_accept_ratio(math.log(0.5), 0.0, -1.0, -1.0) == pytest.approx(math.log(0.5))

    def test_independence_correction(self):
        # equal target, proposal twice as likely at the candidate
        val = log_accept_ratio(0.0, 0.0, math.log(2.0), math.log(1.0))
        assert val == pytest.approx(math.log(0.5))

    def test_both_outside_support(self):
        assert log_accept_ratio(-math.inf, -math.inf, -1.0, -2.0) == 0.0

    def test_leaving_support_always_accepted(self):
        assert log_accept_ratio(-1.0, -math.inf, -1.0, -1.0) == 0.0

    def test_entering_zero_density_never_accepted(self):
        assert log_accept_ratio(-math.inf, -1.0, -1.0, -1.0) == -math.inf

    def test_randomized_range(self):
        rng = np.random.default_rng(33)
        vals = rng.standard_normal((5000, 4)) * 50
        for lt_new, lt_cur, lp_new, lp_cur in vals:
            log_alpha = log_accept_ratio(lt_new, lt_cur, lp_new, lp_cur)
            assert -math.inf <= log_alpha <= 0.0


def ensemble(starts, proposals, rngs, target) -> ChainEnsemble:
    """Chains at ``starts`` on ``target`` holding the parameters of ``proposals``."""
    return ChainEnsemble(starts, [p.means for p in proposals], [p.covs for p in proposals], rngs, target)


def one_chain(proposal, start, rng, target) -> ChainEnsemble:
    return ensemble(np.array([start], dtype=float), [proposal], [rng], target)


ONLY = np.array([0])


class TestMhStep:
    def target(self):
        return make_gaussian_target([0.0, 0.0], np.eye(2))

    def test_proposing_current_state_accepts(self):
        psi = proposal_from([1.0, 1.0], np.eye(2), [1.0, 1.0], np.eye(2))
        # candidate exactly equals the current state; acceptance draw 0.999
        rng = ScriptedRng(uniforms=[0.2, 0.999], normals=[(0.0, 0.0)])
        chain = one_chain(psi, [1.0, 1.0], rng, self.target())
        states, [[accepted]] = chain.advance(ONLY)
        assert accepted
        np.testing.assert_array_equal(states, [[[1.0, 1.0]]])
        assert rng.calls == ["random", "standard_normal(2)", "random"]

    def test_rejection_keeps_state(self):
        # proposal much wider than the target: a candidate 20 sigma out
        # has log target ratio -200 against a +50 proposal correction
        psi = proposal_from([0.0, 0.0], 4.0 * np.eye(2), [0.0, 0.0], 4.0 * np.eye(2))
        start = np.array([0.0, 0.0])
        chain = one_chain(psi, start, ScriptedRng(uniforms=[0.2, 0.5], normals=[(10.0, 0.0)]), self.target())
        states, [[accepted]] = chain.advance(ONLY)
        assert not accepted
        np.testing.assert_array_equal(chain.current[0], start)
        np.testing.assert_array_equal(states, [[start]])

    def test_cached_values_do_not_change_outcome(self):
        # a chain rebuilt at the current state before every step scores its
        # state afresh, and must still move exactly like the long-lived one
        psi = proposal_from([0.5, 0.0], np.eye(2), [-0.5, 0.0], 2.0 * np.eye(2))
        target = self.target()
        rng = np.random.default_rng(55)
        a = one_chain(psi, [2.0, -1.0], np.random.default_rng(55), target)
        for _ in range(200):
            b = one_chain(psi, a.current[0], rng, target)
            states_a, accepted_a = a.advance(ONLY)
            states_b, accepted_b = b.advance(ONLY)
            np.testing.assert_array_equal(accepted_a, accepted_b)
            np.testing.assert_array_equal(states_a, states_b)
            np.testing.assert_array_equal(a.current, b.current)
            np.testing.assert_array_equal(a.log_target, b.log_target)

    def test_acceptance_rate_reasonable(self):
        # proposal equals the target: every candidate accepted
        psi = proposal_from([0.0, 0.0], np.eye(2), [0.0, 0.0], np.eye(2))
        chain = one_chain(psi, np.zeros(2), np.random.default_rng(60), self.target())
        accepts = [chain.advance(ONLY)[1][0, 0] for _ in range(2000)]
        assert all(accepts)


def random_proposals(rng, n, d):
    def comp():
        a = rng.standard_normal((d, d))
        return rng.uniform(-5, 5, d), a @ a.T + 0.5 * np.eye(d)

    return [Proposal(*zip(comp(), comp())) for _ in range(n)]


class TestAdvanceTogether:
    """Advancing chains together is bit-identical to advancing each alone,
    and each chain keeps the one-chain stream and acceptance contract."""

    def test_together_matches_alone_across_refreshes(self):
        cov3 = [[2.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 1.5]]
        for d, target in (
            (1, make_gaussian_target([0.5], [[2.0]])),
            (2, make_banana_target()),
            (3, make_gaussian_target([1.0, -1.0, 0.0], cov3)),
        ):
            rng = np.random.default_rng(80 + d)
            n = 7
            proposals = random_proposals(rng, n, d)
            starts = rng.uniform(-6, 6, (n, d))
            together = ensemble(starts, proposals, chain_streams(9, n), target)
            alone = ensemble(starts, proposals, chain_streams(9, n), target)
            for step in range(60):
                run = np.flatnonzero(rng.random(n) < 0.7)
                if run.size == 0:
                    continue
                (states,), (accepted,) = together.advance(run)
                np.testing.assert_array_equal(states, together.current[run])
                for r, j in enumerate(run):
                    (state_alone,), ((accepted_alone,),) = alone.advance(np.array([j]))
                    assert accepted_alone == accepted[r]
                    np.testing.assert_array_equal(state_alone, [states[r]])
                if step % 10 == 9:
                    # a new shared global component, new local components for some chains
                    fresh = random_proposals(rng, n, d)
                    shared = fresh[0]
                    rebuilt = rng.random(n) < 0.5
                    kept = [f if rebuilt[j] else p for j, (f, p) in enumerate(zip(fresh, proposals))]
                    proposals = [Proposal([shared.means[0], q.means[1]], [shared.covs[0], q.covs[1]]) for q in kept]
                    means = np.array([q.means[1] for q in kept] + [shared.means[0]])
                    covs = np.array([q.covs[1] for q in kept] + [shared.covs[0]])
                    together.refit(means, covs)
                    alone.refit(means, covs)
                    # The stacks hold each component once, the shared one last,
                    # and chain j's rows are (n, j).
                    assert together.rows.tolist() == [[n, j] for j in range(n)]
                    for name in ("means", "covs", "lowers", "log_det_halves"):
                        stack = [getattr(q, name)[1] for q in kept] + [getattr(shared, name)[0]]
                        held = getattr(together, name)
                        np.testing.assert_array_equal(held, stack)
                        np.testing.assert_array_equal(held[together.rows], [getattr(p, name) for p in proposals])
                np.testing.assert_array_equal(together.current, alone.current)
                assert together.log_target == alone.log_target

    def test_cached_densities_are_the_one_point_values(self):
        rng = np.random.default_rng(85)
        target = make_banana_target()
        proposals = random_proposals(rng, 5, 2)
        chains = ensemble(rng.uniform(-6, 6, (5, 2)), proposals, chain_streams(4, 5), target)
        for _ in range(30):
            chains.advance(np.arange(5))
            for j in range(5):
                assert chains.log_target[j] == reference.log_banana(chains.current[j])

    def test_each_chain_draws_in_order_from_its_own_stream(self):
        psi = proposal_from([0.0, 0.0], np.eye(2), [3.0, 3.0], np.eye(2))
        rngs = [ScriptedRng(uniforms=[0.1 * (j + 1), 0.5], normals=[(j, -j)]) for j in range(4)]
        chains = ensemble(np.zeros((4, 2)), [psi] * 4, rngs, make_gaussian_target([0.0, 0.0], np.eye(2)))
        chains.advance(np.array([0, 2, 3]))
        for j in (0, 2, 3):
            assert rngs[j].calls == ["random", "standard_normal(2)", "random"]
        assert rngs[1].calls == []

    def test_candidate_is_the_one_proposal_draw(self):
        # zero target density everywhere accepts every candidate, so the
        # state after each step is the candidate itself
        rng = np.random.default_rng(86)
        proposals = random_proposals(rng, 3, 2)
        chains = ensemble(np.zeros((3, 2)), proposals, chain_streams(12, 3), reference.NOWHERE)
        streams = chain_streams(12, 3)
        for _ in range(50):
            assert chains.advance(np.arange(3))[1].all()
            for j, p in enumerate(proposals):
                draw = reference.sample_mixture(p.means, p.lowers, streams[j])
                np.testing.assert_array_equal(chains.current[j], draw)
                streams[j].random()  # the acceptance uniform

    def scalar_rule(self, u, lt_new, lt_cur, lp_new, lp_cur):
        return (math.log(u) if u > 0.0 else -math.inf) < log_accept_ratio(lt_new, lt_cur, lp_new, lp_cur)

    def test_zero_uniform_follows_the_scalar_rule(self):
        # chain 0: candidate has zero target density, so even u == 0 rejects;
        # chain 1: candidate has positive density, so u == 0 accepts
        target = TargetDensity(2, lambda xs: np.where(xs[:, 0] > 1.0, -math.inf, -np.vecdot(xs, xs)))
        psi = proposal_from([5.0, 0.0], np.eye(2), [0.0, 0.0], np.eye(2))
        rngs = [ScriptedRng(uniforms=[0.2, 0.0], normals=[(0.0, 0.0)]),
                ScriptedRng(uniforms=[0.9, 0.0], normals=[(0.5, 0.0)])]
        chains = ensemble(np.zeros((2, 2)), [psi, psi], rngs, target)
        _, (accepted,) = chains.advance(np.arange(2))
        assert accepted.tolist() == [False, True]
        cur, lp_cur = target.log_density_batch([[0.0, 0.0]])[0], psi.log_pdf(np.zeros(2))
        for j, cand in enumerate(([5.0, 0.0], [0.5, 0.0])):
            cand = np.array(cand)
            assert accepted[j] == self.scalar_rule(0.0, target.log_density_batch([cand])[0], cur,
                                                   psi.log_pdf(cand), lp_cur)

    @pytest.mark.parametrize("value", [-math.inf, math.inf])
    def test_infinite_density_at_both_states_follows_the_scalar_rule(self, value):
        target = TargetDensity(2, lambda xs: np.full(len(xs), value))
        psi = proposal_from([1.0, 0.0], np.eye(2), [-1.0, 0.0], np.eye(2))
        uniforms = [0.999, 0.5, 1e-300]
        rngs = [ScriptedRng(uniforms=[0.2, u], normals=[(0.3, -0.3)]) for u in uniforms]
        chains = ensemble(np.zeros((3, 2)), [psi] * 3, rngs, target)
        _, (accepted,) = chains.advance(np.arange(3))
        cand = np.array([1.3, -0.3])
        lp_new, lp_cur = psi.log_pdf(cand), psi.log_pdf(np.zeros(2))
        expected = [self.scalar_rule(u, value, value, lp_new, lp_cur) for u in uniforms]
        assert accepted.tolist() == expected
        assert all(expected)
        assert chains.log_target == [value] * 3


class ZeroEvery:
    """A generator whose every third acceptance uniform reads 0.0.

    A chain's uniforms alternate component, acceptance, so every sixth
    uniform drawn is an acceptance uniform. It counts uniforms, not calls,
    so that one reads 0.0 whether drawn alone or with another; it still
    consumes the underlying draw. The signatures are numpy's."""

    def __init__(self, rng):
        self.rng = rng
        self.uniforms = 0

    def random(self, size=None, out=None):
        scalar = size is None and out is None
        values = self.rng.random(1 if scalar else size, out=out)
        for i in range(values.size):
            self.uniforms += 1
            if self.uniforms % 6 == 0:
                values[i] = 0.0
        return float(values[0]) if scalar else values

    def standard_normal(self, size=None, out=None):
        return self.rng.standard_normal(size, out=out)

    def stream_state(self):
        return self.uniforms, self.rng.bit_generator.state


def half_space_target(d):
    """A standard Gaussian cut to zero density where x0 > 1, so some
    candidates and some start states score -inf."""
    gaussian = make_gaussian_target(np.zeros(d), np.eye(d))
    return TargetDensity(d, lambda xs: np.where(xs[:, 0] > 1.0, -math.inf, gaussian.log_density_batch(xs)))


class TestAdvanceBlock:
    """``advance(run, steps=k)`` is bit-identical to k one-step calls."""

    def streams(self, seed, n):
        return [ZeroEvery(rng) for rng in chain_streams(seed, n)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("value", [None, -math.inf, math.inf])
    def test_block_matches_single_steps(self, d, value):
        rng = np.random.default_rng(90 + d)
        if value is None:
            target = half_space_target(d)
        else:
            target = TargetDensity(d, lambda xs: np.full(len(xs), value))
        n = 6
        proposals = random_proposals(rng, n, d)
        starts = rng.uniform(-6, 6, (n, d))
        block = ensemble(starts, proposals, self.streams(11, n), target)
        single = ensemble(starts, proposals, self.streams(11, n), target)
        for round_ in range(8):
            run = np.flatnonzero(rng.random(n) < 0.7)
            if run.size == 0:
                run = np.array([round_ % n])
            steps = int(rng.integers(1, 9))
            states, accepted = block.advance(run, steps=steps)
            assert states.shape == (steps, run.size, d) and accepted.shape == (steps, run.size)
            for i in range(steps):
                (one_states,), (one_accepted,) = single.advance(run)
                np.testing.assert_array_equal(states[i], one_states)
                np.testing.assert_array_equal(accepted[i], one_accepted)
            np.testing.assert_array_equal(block.current, single.current)
            assert block.log_target == single.log_target
            assert [r.stream_state() for r in block.rngs] == [r.stream_state() for r in single.rngs]
            if round_ % 3 == 1:
                # new proposals for every chain
                fresh = random_proposals(rng, n + 1, d)
                means = np.array([p.means[1] for p in fresh])
                covs = np.array([p.covs[1] for p in fresh])
                block.refit(means, covs)
                single.refit(means, covs)
        assert sum(r.uniforms // 6 for r in block.rngs) > 0  # some acceptance uniforms were 0.0
        if value is not None:
            assert block.log_target == [value] * n

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 7, 102])
    def test_a_block_draws_what_the_scalar_calls_draw(self, steps, d):
        # A block groups each chain's draws into fewer Generator calls. Its
        # streams must end where `steps` rounds of the scalar calls leave
        # them, with nothing drawn ahead, and its results must use the
        # values in the scalar order: those of one-step calls.
        n = 8
        rng = np.random.default_rng(97 + d)
        proposals = random_proposals(rng, n, d)
        starts = rng.uniform(-6, 6, (n, d))
        run = np.array([0, 1, 2, 4, 5, 7])
        block = ensemble(starts, proposals, chain_streams(15, n), half_space_target(d))
        single = ensemble(starts, proposals, chain_streams(15, n), half_space_target(d))
        states, accepted = block.advance(run, steps)
        for i in range(steps):
            (one_states,), (one_accepted,) = single.advance(run)
            np.testing.assert_array_equal(states[i], one_states)
            np.testing.assert_array_equal(accepted[i], one_accepted)
        scalar = chain_streams(15, n)
        for j in run.tolist():
            for _ in range(steps):
                scalar[j].random()
                scalar[j].standard_normal(d)
                scalar[j].random()
        assert [r.bit_generator.state for r in block.rngs] == [r.bit_generator.state for r in scalar]

    def test_nan_target_raises(self):
        d = 2
        nan_target = TargetDensity(d, lambda xs: np.where(xs[:, 0] > 0.0, math.nan, 0.0))
        rng = np.random.default_rng(95)
        chains = ensemble(np.full((4, d), -1.0), random_proposals(rng, 4, d), chain_streams(13, 4), nan_target)
        with pytest.raises(ValueError, match="NaN"):
            chains.advance(np.arange(4), steps=5)


def per_state_assignment(fresh, means):
    """Nearest local mean of each state on its own, one distance vector each."""
    chosen = []
    for z in fresh:
        diff = means - z
        chosen.append(int(np.argmin(np.einsum("nd,nd->n", diff, diff))))
    return chosen


class TestAssign:
    def test_nearest(self):
        chosen = assign([np.array([1.0, 1.0])], np.array([[0.0, 0.0], [5.0, 5.0]]))
        assert chosen.tolist() == [0]
        assert np.bincount(chosen, minlength=2).tolist() == [1, 0]

    def test_tie_breaks_to_lowest_index(self):
        chosen = assign([np.array([1.0, 0.0])], np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert chosen.tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            means = rng.uniform(-10, 10, size=(10, 2))
            fresh = list(rng.uniform(-10, 10, size=(100, 2)))
            chosen = assign(fresh, means)
            for z, got in zip(fresh, chosen):
                dists = [float(np.hypot(*(m - z))) for m in means]
                assert got == int(np.argmin(dists))
            assert np.bincount(chosen, minlength=10).sum() == 100

    def test_one_distance_matrix_matches_per_state_assignment(self):
        rng = np.random.default_rng(45)
        for d in (1, 2, 3, 4):
            for _ in range(30):
                n = int(rng.integers(1, 30))
                means = rng.uniform(-10, 10, size=(n, d))
                # repeated means and points on a small integer grid make exact ties
                means[rng.integers(0, n, n // 3)] = means[0]
                if rng.random() < 0.5:
                    means = np.round(means)
                fresh = rng.uniform(-10, 10, size=(int(rng.integers(1, 40)), d))
                fresh[::2] = np.round(fresh[::2])
                chosen = assign(fresh, means)
                assert chosen.tolist() == per_state_assignment(fresh, means)
            for _ in range(100):
                # means mirrored around a state are equally far from it in
                # exact arithmetic, so rounding decides between them
                z = rng.uniform(-10, 10, d)
                v = rng.uniform(-5, 5, (6, d))
                means = rng.permutation(np.concatenate([z + v, z + v[:, ::-1], z - v]))
                fresh = np.concatenate([z[None], z + rng.normal(0.0, 1e-13, (5, d))])
                chosen = assign(fresh, means)
                assert chosen.tolist() == per_state_assignment(fresh, means)

    def test_pushes_states_in_generation_order(self):
        # Each adaptive step of a run makes one push: the global row gets
        # every new state and each cluster the states nearest its local
        # mean, both in generation order. Replay every step's states one
        # at a time through the one-point Welford update and compare bits.
        rng = np.random.default_rng(46)
        n = 6
        cfg = small_config(
            n_chains=n,
            total_samples=400,
            t_train=1,
            init_means=rng.uniform(-15, 15, (n, 2, 2)),
            init_states=rng.uniform(-15, 15, (n, 2)),
        )
        empty = (0, np.zeros(2), np.zeros((2, 2)))
        rows = [reference.welford_push(*empty, x) for x in cfg.init_states] + [empty]
        held = {"active": np.ones(n, dtype=bool), "means": cfg.init_means[:, 1].copy()}
        steps = []

        def watch(state):
            new = state.chains.current[np.flatnonzero(held["active"])]
            for x in new:
                rows[n] = reference.welford_push(*rows[n], x)
            for x, j in zip(new, per_state_assignment(new, held["means"])):
                rows[j] = reference.welford_push(*rows[j], x)
            stack = state.moments
            for j, (count, mean, scatter) in enumerate(rows):
                assert stack.count[j] == count
                np.testing.assert_array_equal(stack.mean[j], mean)
                np.testing.assert_array_equal(stack.scatter[j], scatter)
            held["active"] = state.active.copy()
            held["means"] = state.chains.means[:n].copy()
            steps.append(len(new))

        run_paim(cfg, make_banana_target(), on_step=watch)
        # some steps ran a suspended set, so clusters got uneven traffic
        assert len(steps) > 10 and min(steps) < n == max(steps)


def refit_ensemble(moments, epsilon, chains=None) -> ChainEnsemble:
    """Apply ``refreshed_proposals`` to ``chains`` (default: fresh chains
    with unit-covariance proposals at the origin) and return them.
    ``moments`` holds one cluster per chain and the global fit last."""
    n, d = moments.mean.shape[0] - 1, moments.mean.shape[1]
    if chains is None:
        target = make_gaussian_target(np.zeros(d), np.eye(d))
        chains = ChainEnsemble(np.zeros((n, d)), np.zeros((n, 2, d)), np.eye(d), chain_streams(0, n), target)
    refreshed_proposals(moments, epsilon, chains)
    return chains


class TestRefreshedProposals:
    def test_global_component_shared_exactly(self):
        rng = np.random.default_rng(50)
        n, d = 4, 2
        init_means = rng.uniform(-5, 5, (n, 2, d))
        init_covs = np.array([[(j + 1.0) * np.eye(d), (j + 0.5) * np.eye(d)] for j in range(n)])
        target = make_gaussian_target(np.zeros(d), np.eye(d))
        chains = ChainEnsemble(np.zeros((n, d)), init_means, init_covs, chain_streams(0, n), target)
        # Before a refit, each chain has a global row of its own: row n + j.
        assert chains.rows.tolist() == [[n + j, j] for j in range(n)]
        for held, init in ((chains.means, init_means), (chains.covs, init_covs)):
            assert len(held) == 2 * n
            for j in range(n):
                np.testing.assert_array_equal(held[n + j], init[j, 0])
                np.testing.assert_array_equal(held[j], init[j, 1])
        moments = MomentStack(n + 1, d)
        moments.push([n] * 40, rng.standard_normal((40, d)))
        for i in range(n):
            moments.push([i] * (i + 1), rng.standard_normal((i + 1, d)))
        refit_ensemble(moments, 0.4, chains)
        # After one, every chain shares the global row n.
        for held in (chains.means, chains.covs, chains.lowers, chains.log_det_halves):
            assert len(held) == n + 1
        assert chains.rows[:, 0].tolist() == [n] * n
        assert chains.rows[:, 1].tolist() == list(range(n))

    def test_single_point_cluster(self):
        moments = MomentStack(2, 2)
        moments.push([1, 1], [np.array([1.0, 2.0]), np.array([3.0, 0.0])])
        s = np.array([7.0, -7.0])
        moments.push([0], [s])
        chains = refit_ensemble(moments, 0.4)
        np.testing.assert_array_equal(chains.means[0], s)
        np.testing.assert_allclose(chains.covs[0], 0.4 * np.eye(2))

    def test_matches_block_recomputation(self):
        rng = np.random.default_rng(51)
        states = rng.uniform(-5, 5, size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        moments = MomentStack(4, 2)
        for x, lab in zip(states, labels):
            moments.push([3, lab], [x, x])
        eps = 0.4
        chains = refit_ensemble(moments, eps)

        g_mean = states.mean(axis=0)
        g_dev = states - g_mean
        g_cov = g_dev.T @ g_dev / (len(states) - 1) + eps * np.eye(2)
        for j in range(3):
            g = chains.rows[j, 0]
            np.testing.assert_allclose(chains.means[g], g_mean, rtol=1e-10)
            np.testing.assert_allclose(chains.covs[g], g_cov, rtol=1e-10)
        for lab in range(3):
            sub = states[labels == lab]
            local = chains.rows[lab, 1]
            np.testing.assert_allclose(chains.means[local], sub.mean(axis=0), rtol=1e-10)
            dev = sub - sub.mean(axis=0)
            np.testing.assert_allclose(
                chains.covs[local], dev.T @ dev / (len(sub) - 1) + eps * np.eye(2), rtol=1e-10
            )

    def test_refit_without_pushes_leaves_every_row_bit_equal(self):
        # The refresh refits every row at every step; this property makes
        # that exact, since a row nothing was pushed into keeps its bits.
        rng = np.random.default_rng(52)
        names = ("means", "covs", "lowers", "log_det_halves")
        for d in (1, 2, 3):
            moments = MomentStack(6, d)
            for j, n_points in enumerate((0, 1, 2, 5, 30, 40)):
                moments.push([j] * n_points, rng.standard_normal((n_points, d)) * 3.0)
            chains = refit_ensemble(moments, 0.4)
            first = [getattr(chains, name).copy() for name in names]
            refit_ensemble(moments, 0.4, chains)
            for name, before in zip(names, first):
                np.testing.assert_array_equal(getattr(chains, name), before)
            # A push into some rows leaves the components of the others as
            # they were: the global row 5 and the local rows 0, 2 and 4.
            moments.push([1, 3, 3], rng.standard_normal((3, d)))
            refit_ensemble(moments, 0.4, chains)
            for name, before in zip(names, first):
                held = getattr(chains, name)
                np.testing.assert_array_equal(held[[0, 2, 4, 5]], before[[0, 2, 4, 5]])
                assert not np.array_equal(held[[1, 3]], before[[1, 3]])

    def test_refit_components_match_make_component(self):
        rng = np.random.default_rng(53)
        for d in (1, 2, 3, 5):
            moments = MomentStack(7, d)
            for _ in range(60):
                x = rng.standard_normal(d) * rng.uniform(0.5, 4.0, d)
                moments.push([6, int(rng.integers(0, 5))], [x, x])  # row 5 stays empty
            chains = refit_ensemble(moments, 0.3)

            def fit(j):
                """Row j's mean and covariance, computed from that row alone."""
                cov = stacked_covariance(moments.count[j : j + 1], moments.scatter[j : j + 1], 0.3)[0]
                return moments.mean[j].copy(), cov

            shared = fit(6)
            for j in range(6):
                fresh = fit(j)
                for c, (mean, cov) in enumerate((shared, fresh)):
                    lower, log_det_half = cholesky(cov)
                    row = chains.rows[j, c]
                    np.testing.assert_array_equal(chains.means[row], mean)
                    np.testing.assert_array_equal(chains.covs[row], cov)
                    np.testing.assert_array_equal(chains.lowers[row], lower)
                    assert chains.log_det_halves[row] == log_det_half

    def test_accumulator_mutation_does_not_leak(self):
        moments = MomentStack(2, 2)
        moments.push([1, 1, 0, 0], [np.zeros(2), np.ones(2), np.zeros(2), np.ones(2)])
        chains = refit_ensemble(moments, 0.1)
        names = ("means", "covs", "lowers", "log_det_halves")
        before = [getattr(chains, name).copy() for name in names]
        # The global and the local row were fitted to the same points.
        for held in before:
            np.testing.assert_array_equal(held[0], held[1])
        moments.push([1, 0], [np.array([100.0, 100.0])] * 2)
        for name, held in zip(names, before):
            np.testing.assert_array_equal(getattr(chains, name), held)


class TestActivation:
    def test_floor_concentrates(self):
        active = activation([10, 1, 1, 1])
        assert active.tolist() == [True, False, False, False]

    def test_equal_counts_all_active(self):
        assert activation([7, 7, 7]).all()

    def test_floor_always_keeps_at_least_one(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            counts = rng.integers(1, 10_000, size=n)
            assert activation(counts).any()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            activation([0, 0])


def small_config(**overrides):
    defaults = dict(
        n_chains=4,
        total_samples=200,
        t_train=1,
        init_means=np.zeros((4, 2, 2)),
        init_states=np.zeros((4, 2)),
        sigma=10.0,
        epsilon=0.4,
        seed=99,
    )
    defaults.update(overrides)
    n = defaults["n_chains"]
    if defaults["init_means"].shape[0] != n:
        defaults["init_means"] = np.zeros((n, 2, 2))
        defaults["init_states"] = np.zeros((n, 2))
    return PaimConfig(**defaults)


# The test ids name sigma by its former name, init_sigma.
SIGMA = pytest.param("sigma", id="init_sigma")


class TestPaimConfig:
    def test_train_must_precede_stop(self):
        with pytest.raises(ValueError, match="t_train"):
            small_config(t_train=5, t_stop=5)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            small_config(epsilon=0.0)

    @pytest.mark.parametrize("field", ["epsilon", SIGMA])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epsilon", 1e-320),
        pytest.param("sigma", 1e-160, id="init_sigma-1e-160"),
        pytest.param("sigma", 1e200, id="init_sigma-1e+200"),
    ])
    def test_covariance_scale_passes_the_pivot_floor(self, field, value):
        # each would end in NotPositiveDefinite or OverflowError mid-run
        with pytest.raises(ValueError, match=f"^{field} must be .*above 1e-300"):
            small_config(**{field: value})

    def test_budget_at_least_one_per_chain(self):
        with pytest.raises(ValueError, match="total_samples"):
            small_config(total_samples=3)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="init_means"):
            small_config(init_means=np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match=r"^init_states must have shape \(4, 2\), got \(3, 2\)$"):
            small_config(init_states=np.zeros((3, 2)))

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PaimConfig)])
    def test_a_built_config_cannot_be_changed(self, field):
        config = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, getattr(config, field))


class InvariantProbe:
    """Per-step checks: cluster-count accounting, PD covariances, shared
    global components."""

    def __init__(self, config):
        self.config = config
        self.expected_assigned = config.n_chains
        self.prev_drawn = 0
        self.steps_seen = 0

    def __call__(self, state):
        self.steps_seen += 1
        if state.step < self.config.t_stop:
            self.expected_assigned += state.total_drawn - self.prev_drawn
        self.prev_drawn = state.total_drawn
        counts = state.moments.count
        assert counts[:-1].sum() == self.expected_assigned
        assert counts[-1] == self.expected_assigned - self.config.n_chains
        # ``clusters`` are live views of the first n rows
        assert [c.count for c in state.clusters] == counts[:-1].tolist()
        if self.config.t_train < state.step < self.config.t_stop:
            # Every chain shares the one global row, n, after a refresh.
            n = self.config.n_chains
            chains = state.chains
            assert len(chains.means) == len(chains.covs) == n + 1
            assert chains.rows[:, 0].tolist() == [n] * n
            assert all(np.linalg.eigvalsh(cov).min() > 0.0 for cov in chains.covs)


class TestRunPaim:
    def banana(self):
        return make_banana_target()

    def test_exact_sample_count_and_budget_sum(self):
        rng = np.random.default_rng(70)
        cfg = small_config(
            n_chains=5,
            total_samples=237,
            init_means=rng.uniform(-15, 15, (5, 2, 2)),
            init_states=rng.uniform(-15, 15, (5, 2)),
        )
        record = run_paim(cfg, self.banana())
        assert record.samples.shape == (237, 2)
        assert record.budgets.sum() == 237
        assert record.activity.shape[0] == record.t_total
        assert record.t_total <= 237

    def test_single_chain_gets_full_budget(self):
        cfg = small_config(
            n_chains=1,
            total_samples=150,
            init_means=np.zeros((1, 2, 2)),
            init_states=np.zeros((1, 2)),
        )
        record = run_paim(cfg, self.banana())
        assert record.budgets.tolist() == [150]
        assert record.t_total == 150

    def test_deterministic_records(self):
        rng = np.random.default_rng(71)
        init_means = rng.uniform(-15, 15, (4, 2, 2))
        init_states = rng.uniform(-15, 15, (4, 2))

        def once():
            cfg = small_config(init_means=init_means.copy(), init_states=init_states.copy(), seed=7)
            return run_paim(cfg, self.banana())

        a, b = once(), once()
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.sample_accepted, b.sample_accepted)
        np.testing.assert_array_equal(a.activity, b.activity)
        np.testing.assert_array_equal(a.budgets, b.budgets)
        np.testing.assert_array_equal(a.proposal_covs[:, 1], b.proposal_covs[:, 1])

    def test_step_invariants_hold_throughout(self):
        rng = np.random.default_rng(72)
        cfg = small_config(
            n_chains=6,
            total_samples=400,
            t_train=2,
            init_means=rng.uniform(-15, 15, (6, 2, 2)),
            init_states=rng.uniform(-15, 15, (6, 2)),
        )
        probe = InvariantProbe(cfg)
        run_paim(cfg, self.banana(), on_step=probe)
        assert probe.steps_seen > 0

    def test_adaptation_window_respected(self):
        rng = np.random.default_rng(73)
        # Long enough that frozen blocks, not only the last one, follow t_stop.
        cfg = small_config(
            n_chains=4,
            total_samples=3 * BLOCK,
            t_train=1,
            t_stop=5,
            init_means=rng.uniform(-15, 15, (4, 2, 2)),
            init_states=rng.uniform(-15, 15, (4, 2)),
        )
        seen = []

        def watch(state):
            seen.append((state.step, int(state.moments.count[:-1].sum())))

        record = run_paim(cfg, self.banana(), on_step=watch)
        counts = dict(seen)
        # cluster growth stops once the step counter reaches t_stop
        frozen = [v for s, v in counts.items() if s >= 5]
        assert len(frozen) >= 2 and len(set(frozen)) == 1
        assert record.samples.shape[0] == 3 * BLOCK

    def test_suspension_happens_on_spread_out_chains(self):
        rng = np.random.default_rng(74)
        cfg = small_config(
            n_chains=20,
            total_samples=400,
            t_train=2,
            init_means=rng.uniform(-15, 15, (20, 2, 2)),
            init_states=rng.uniform(-15, 15, (20, 2)),
        )
        record = run_paim(cfg, self.banana())
        assert record.final_active_count < 20
        assert record.t_total < 400

    def test_inactive_chains_frozen(self):
        rng = np.random.default_rng(75)
        cfg = small_config(
            n_chains=10,
            total_samples=300,
            t_train=1,
            init_means=rng.uniform(-15, 15, (10, 2, 2)),
            init_states=rng.uniform(-15, 15, (10, 2)),
        )
        record = run_paim(cfg, self.banana())
        # a chain's iteration count equals the number of steps it was active in
        for j in range(10):
            ran = record.activity[:, j].sum()
            # the final partial step may schedule a chain that never runs
            assert record.budgets[j] in (ran, ran - 1)

    def test_first_refresh_replaces_initial_local_components(self):
        rng = np.random.default_rng(74)
        cfg = small_config(
            n_chains=20,
            total_samples=400,
            t_train=2,
            init_means=rng.uniform(-15, 15, (20, 2, 2)),
            init_states=rng.uniform(-15, 15, (20, 2)),
        )
        first = {}

        def watch(state):
            if state.step == cfg.t_train + 1:
                first["counts"] = state.moments.count[:-1].tolist()
                first["means"] = state.chains.means.copy()
                first["covs"] = state.chains.covs.copy()

        run_paim(cfg, self.banana(), on_step=watch)
        untouched = [j for j, count in enumerate(first["counts"]) if count == 1]
        assert untouched, "some cluster should still hold only its initial state"
        for j in untouched:
            # Row j is chain j's local component.
            np.testing.assert_array_equal(first["means"][j], cfg.init_states[j])
            assert not np.array_equal(first["means"][j], cfg.init_means[j, 1])
            np.testing.assert_array_equal(first["covs"][j], cfg.epsilon * np.eye(2))

    def test_mismatched_target_dim(self):
        with pytest.raises(ValueError, match="dim"):
            run_paim(small_config(), make_gaussian_target([0.0], [[1.0]]))

    @pytest.mark.parametrize("runner", [run_paim, run_ipc])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_chains=5, total_samples=3000, t_train=10),
            dict(n_chains=50, total_samples=2000, t_train=1),
            dict(n_chains=10, total_samples=5000, t_train=10, t_stop=20),
        ],
        ids=["adaptive", "many-chains", "finite-t_stop"],
    )
    def test_target_scores_every_state_once(self, runner, overrides):
        # The target is the costly density: each initial state and each
        # candidate is scored once, and no state is ever rescored.
        banana = self.banana()
        scored = []

        def log_density(xs):
            scored.append(len(xs))
            return banana.log_density_batch(xs)

        n = overrides["n_chains"]
        rng = np.random.default_rng(76)
        cfg = small_config(init_means=rng.uniform(-15, 15, (n, 2, 2)), init_states=rng.uniform(-15, 15, (n, 2)),
                           **overrides)
        runner(cfg, TargetDensity(2, log_density))
        assert sum(scored) == cfg.n_chains + cfg.total_samples


@pytest.mark.parametrize("n, t_total", [(1, 5), (3, 2 * BLOCK + 5), (40, 300), (BLOCK + 2, 3)])
def test_sample_indices_match_a_step_by_step_walk(n, t_total):
    rng = np.random.default_rng(n)
    activity = rng.random((t_total, n)) < 0.4
    activity[:, n // 2] = True  # no step runs without a chain
    last = int(rng.integers(1, activity[-1].sum() + 1))
    expected = ([], [], [])
    done = np.zeros(n, dtype=np.int64)
    for t, row in enumerate(activity):
        for j in np.flatnonzero(row)[: last if t == t_total - 1 else n]:
            done[j] += 1
            for values, value in zip(expected, (t, j, done[j])):
                values.append(value)
    total = int(activity[:-1].sum()) + last
    record = record_of(activity, total)
    got = (record.sample_step, record.sample_chain, record.sample_iteration, record.budgets)
    for values, want in zip(got, (*expected, done)):
        assert values.dtype == np.int64
        np.testing.assert_array_equal(values, want)


def record_of(activity, total, dim=2):
    """A record of ``total`` samples whose steps ran the chains of ``activity``."""
    n = activity.shape[1]
    return RunRecord(
        samples=np.zeros((total, dim)),
        sample_accepted=np.ones(total, dtype=bool),
        activity=activity,
        proposal_means=np.zeros((n, 2, dim)),
        proposal_covs=np.ones((n, 2, dim, dim)),
        global_mean=None,
        global_cov=None,
    )


def test_a_record_whose_parts_disagree_is_refused():
    # Four steps of two chains hold 8 samples, not 10: the index arrays
    # would be shorter than the samples.
    message = "^a record of 10 samples needs at least 10 active cells in its activity, got 8$"
    with pytest.raises(ValueError, match=message):
        record_of(np.ones((4, 2), dtype=bool), 10)
    # The last step may run only some of its active chains.
    record = record_of(np.ones((5, 2), dtype=bool), 9)
    assert record.budgets.tolist() == [5, 4]
    with pytest.raises(ValueError, match="^a record of 9 samples needs 9 accept flags, got 10$"):
        dataclasses.replace(record, sample_accepted=np.ones(10, dtype=bool))


def test_record_indices_of_a_long_sparse_run_take_little_memory():
    # 100,000 steps of 100 chains, 3 of them active: a running count over the
    # whole activity array would take 80 MB, one entry per sample 2.4 MB.
    activity = np.zeros((100_000, 100), dtype=bool)
    activity[:, [3, 50, 97]] = True
    record = record_of(activity, activity.sum(), dim=1)
    tracemalloc.start()
    try:
        budgets = record.budgets
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert budgets[[3, 50, 97]].tolist() == [100_000] * 3 and budgets.sum() == 300_000
    assert record.sample_iteration[-3:].tolist() == [100_000] * 3


def two_modes(d):
    return make_gaussian_mixture_target([np.full(d, -6.0), np.full(d, 5.0)], [np.eye(d), 2.0 * np.eye(d)], [0.6, 0.4])


class TestFrozenBlocks:
    """The frozen tail runs in blocks of iterations, whether or not an
    observer is attached. With ``BLOCK`` at 1 it runs step by step, and
    the records must not tell the two apart."""

    CASES = {
        # 20 chains frozen at step 10, most of them suspended by then
        "finite-t_stop-suspended": (lambda: spread_config(20, 4 * BLOCK + 7, 2, 60, dim=2, t_stop=10), make_banana_target),
        "ipc-uneven": (lambda: spread_config(7, 3 * BLOCK + 5, -1, 61, dim=2, t_stop=0), make_banana_target),
        "1d-finite-t_stop": (lambda: spread_config(6, 2 * BLOCK + 333, 1, 62, dim=1, t_stop=15), lambda: two_modes(1)),
        "3d-finite-t_stop": (lambda: spread_config(9, 2 * BLOCK + 101, 2, 63, dim=3, t_stop=12), lambda: two_modes(3)),
        "3d-ipc": (lambda: spread_config(11, BLOCK + 13, -1, 64, dim=3, t_stop=0), lambda: two_modes(3)),
        # more chains than a block holds: every frozen block is one step
        "wide-ipc": (lambda: spread_config(BLOCK + 3, 3 * BLOCK + 1, -1, 65, dim=2, t_stop=0), make_banana_target),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_observed_run_matches_blocked_run(self, name, monkeypatch):
        make_config, make_target = self.CASES[name]
        config = make_config()
        assert config.total_samples % BLOCK and config.total_samples % config.n_chains
        blocked = run_paim(make_config(), make_target())
        seen = []
        monkeypatch.setattr(paim.sampler, "BLOCK", 1)
        stepwise = run_paim(config, make_target(), on_step=lambda state: seen.append((state.step, state.steps)))
        assert seen == [(t, 1) for t in range(stepwise.t_total - 1)]
        for field in dataclasses.fields(blocked):
            np.testing.assert_array_equal(getattr(blocked, field.name), getattr(stepwise, field.name), err_msg=field.name)
        if name.endswith("suspended"):
            assert not stepwise.activity[int(config.t_stop)].all()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_observed_run_makes_the_same_advance_calls(self, name, monkeypatch):
        make_config, make_target = self.CASES[name]
        calls = []
        advance = ChainEnsemble.advance

        def spy(self, run, steps=1):
            calls.append((run.tolist(), steps))
            return advance(self, run, steps)

        monkeypatch.setattr(ChainEnsemble, "advance", spy)
        run_paim(make_config(), make_target())
        unobserved = calls.copy()
        calls.clear()
        seen = []
        record = run_paim(make_config(), make_target(), on_step=lambda state: seen.append((state.step, state.steps)))
        assert calls == unobserved
        # One callback per block but the last; ``step`` is the block's last step.
        blocks = [steps for _, steps in calls]
        assert [steps for _, steps in seen] == blocks[:-1]
        assert [step for step, _ in seen] == (np.cumsum(blocks[:-1]) - 1).tolist()
        assert sum(blocks) == record.t_total
