import math

import numpy as np
import pytest

from paim.gaussian import cholesky
from paim.moments import MomentStack, RunningMoments
from paim.sampler import (
    ChainEnsemble,
    PaimConfig,
    activation,
    assign,
    chain_streams,
    log_accept_ratio,
    refreshed_proposals,
    run_paim,
    stacked_mixture_log_pdf,
)
from paim.targets import TargetDensity, make_banana_target, make_gaussian_target
import reference


class ScriptedRng:
    """Duck-typed generator returning pre-scripted draws."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)
        self.calls = []

    def random(self):
        self.calls.append("random")
        return self.uniforms.pop(0)

    def standard_normal(self, n):
        self.calls.append(f"standard_normal({n})")
        return np.asarray(self.normals.pop(0), dtype=float)


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

        mpmath.mp.dps = 50
        psi = proposal_from([0.5, -0.2], np.array([[2.0, 0.3], [0.3, 1.0]]),
                            [-1.0, 2.0], np.array([[0.7, 0.0], [0.0, 3.0]]))
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.uniform(-6, 6, 2)
            la = psi.component_log_pdf(0, x)
            lb = psi.component_log_pdf(1, x)
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


def ensemble(starts, proposals, rngs) -> ChainEnsemble:
    """Chains at ``starts`` holding the parameters of ``proposals``."""
    return ChainEnsemble(starts, [p.means for p in proposals], [p.covs for p in proposals], rngs)


def one_chain(proposal, start, rng) -> ChainEnsemble:
    return ensemble(np.array([start], dtype=float), [proposal], [rng])


ONLY = np.array([0])


class TestMhStep:
    def target(self):
        return make_gaussian_target([0.0, 0.0], np.eye(2))

    def test_proposing_current_state_accepts(self):
        psi = proposal_from([1.0, 1.0], np.eye(2), [1.0, 1.0], np.eye(2))
        # candidate exactly equals the current state; acceptance draw 0.999
        rng = ScriptedRng(uniforms=[0.2, 0.999], normals=[(0.0, 0.0)])
        chain = one_chain(psi, [1.0, 1.0], rng)
        (accepted,) = chain.advance(ONLY, self.target())
        assert accepted
        assert chain.iterations.tolist() == [1]
        assert rng.calls == ["random", "standard_normal(2)", "random"]

    def test_rejection_keeps_state(self):
        # proposal much wider than the target: a candidate 20 sigma out
        # has log target ratio -200 against a +50 proposal correction
        psi = proposal_from([0.0, 0.0], 4.0 * np.eye(2), [0.0, 0.0], 4.0 * np.eye(2))
        start = np.array([0.0, 0.0])
        chain = one_chain(psi, start, ScriptedRng(uniforms=[0.2, 0.5], normals=[(10.0, 0.0)]))
        (accepted,) = chain.advance(ONLY, self.target())
        assert not accepted
        np.testing.assert_array_equal(chain.current[0], start)
        assert chain.iterations.tolist() == [1]

    def test_cached_values_do_not_change_outcome(self):
        psi = proposal_from([0.5, 0.0], np.eye(2), [-0.5, 0.0], 2.0 * np.eye(2))
        target = self.target()
        a = one_chain(psi, [2.0, -1.0], np.random.default_rng(55))
        b = one_chain(psi, [2.0, -1.0], np.random.default_rng(55))
        for _ in range(200):
            b.log_target = [None]
            b.log_proposal = [None]
            assert a.advance(ONLY, target) == b.advance(ONLY, target)
            np.testing.assert_array_equal(a.current, b.current)
            np.testing.assert_array_equal(a.log_target, b.log_target)
            np.testing.assert_array_equal(a.log_proposal, b.log_proposal)

    def test_acceptance_rate_reasonable(self):
        # proposal equals the target: every candidate accepted
        psi = proposal_from([0.0, 0.0], np.eye(2), [0.0, 0.0], np.eye(2))
        chain = one_chain(psi, np.zeros(2), np.random.default_rng(60))
        accepts = [chain.advance(ONLY, self.target())[0] for _ in range(2000)]
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
            together = ensemble(starts, proposals, chain_streams(9, n))
            alone = ensemble(starts, proposals, chain_streams(9, n))
            for step in range(60):
                run = np.flatnonzero(rng.random(n) < 0.7)
                if run.size == 0:
                    continue
                accepted = together.advance(run, target)
                for r, j in enumerate(run):
                    assert alone.advance(np.array([j]), target)[0] == accepted[r]
                if step % 10 == 9:
                    # a new shared global component, new local components for some chains
                    fresh = random_proposals(rng, n, d)
                    shared = fresh[0]
                    rebuilt = rng.random(n) < 0.5
                    kept = [f if rebuilt[j] else p for j, (f, p) in enumerate(zip(fresh, proposals))]
                    proposals = [Proposal([shared.means[0], q.means[1]], [shared.covs[0], q.covs[1]]) for q in kept]
                    rows = np.flatnonzero(rebuilt)
                    means = np.array([shared.means[0]] + [fresh[j].means[1] for j in rows])
                    covs = np.array([shared.covs[0]] + [fresh[j].covs[1] for j in rows])
                    together.refit(means, covs, rows)
                    alone.refit(means, covs, rows)
                    np.testing.assert_array_equal(together.means, [p.means for p in proposals])
                    np.testing.assert_array_equal(together.lowers, [p.lowers for p in proposals])
                    np.testing.assert_array_equal(together.log_det_halves, [p.log_det_halves for p in proposals])
                    np.testing.assert_array_equal(together.covs, [p.covs for p in proposals])
                    assert together.log_proposal == [None] * n
                np.testing.assert_array_equal(together.current, alone.current)
                np.testing.assert_array_equal(together.iterations, alone.iterations)
                assert together.log_target == alone.log_target
                assert together.log_proposal == alone.log_proposal
            assert together.iterations.sum() > 0

    def test_cached_densities_are_the_one_point_values(self):
        rng = np.random.default_rng(85)
        target = make_banana_target()
        proposals = random_proposals(rng, 5, 2)
        chains = ensemble(rng.uniform(-6, 6, (5, 2)), proposals, chain_streams(4, 5))
        for _ in range(30):
            chains.advance(np.arange(5), target)
            for j in range(5):
                assert chains.log_target[j] == reference.log_banana(chains.current[j])
                assert chains.log_proposal[j] == proposals[j].log_pdf(chains.current[j])

    def test_each_chain_draws_in_order_from_its_own_stream(self):
        psi = proposal_from([0.0, 0.0], np.eye(2), [3.0, 3.0], np.eye(2))
        rngs = [ScriptedRng(uniforms=[0.1 * (j + 1), 0.5], normals=[(j, -j)]) for j in range(4)]
        chains = ensemble(np.zeros((4, 2)), [psi] * 4, rngs)
        chains.advance(np.array([0, 2, 3]), make_gaussian_target([0.0, 0.0], np.eye(2)))
        for j in (0, 2, 3):
            assert rngs[j].calls == ["random", "standard_normal(2)", "random"]
        assert rngs[1].calls == []
        assert chains.iterations.tolist() == [1, 0, 1, 1]

    def test_candidate_is_the_one_proposal_draw(self):
        # zero target density everywhere accepts every candidate, so the
        # state after each step is the candidate itself
        rng = np.random.default_rng(86)
        proposals = random_proposals(rng, 3, 2)
        chains = ensemble(np.zeros((3, 2)), proposals, chain_streams(12, 3))
        streams = chain_streams(12, 3)
        for _ in range(50):
            assert chains.advance(np.arange(3), reference.NOWHERE).all()
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
        chains = ensemble(np.zeros((2, 2)), [psi, psi], rngs)
        accepted = chains.advance(np.arange(2), target)
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
        chains = ensemble(np.zeros((3, 2)), [psi] * 3, rngs)
        accepted = chains.advance(np.arange(3), target)
        cand = np.array([1.3, -0.3])
        lp_new, lp_cur = psi.log_pdf(cand), psi.log_pdf(np.zeros(2))
        expected = [self.scalar_rule(u, value, value, lp_new, lp_cur) for u in uniforms]
        assert accepted.tolist() == expected
        assert all(expected)
        assert chains.log_target == [value] * 3


def per_state_assignment(fresh, means):
    """Nearest local mean of each state on its own, one distance vector each."""
    chosen = []
    for z in fresh:
        diff = means - z
        chosen.append(int(np.argmin(np.einsum("nd,nd->n", diff, diff))))
    return chosen


class TestAssign:
    def test_nearest(self):
        clusters = MomentStack(2, 2)
        chosen = assign([np.array([1.0, 1.0])], np.array([[0.0, 0.0], [5.0, 5.0]]), clusters)
        assert chosen.tolist() == [0]
        assert clusters[0].count == 1 and clusters[1].count == 0

    def test_tie_breaks_to_lowest_index(self):
        clusters = MomentStack(2, 2)
        chosen = assign([np.array([1.0, 0.0])], np.array([[0.0, 0.0], [2.0, 0.0]]), clusters)
        assert chosen.tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            means = rng.uniform(-10, 10, size=(10, 2))
            fresh = list(rng.uniform(-10, 10, size=(100, 2)))
            clusters = MomentStack(10, 2)
            chosen = assign(fresh, means, clusters)
            for z, got in zip(fresh, chosen):
                dists = [float(np.hypot(*(m - z))) for m in means]
                assert got == int(np.argmin(dists))
            assert sum(c.count for c in clusters) == 100

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
                chosen = assign(fresh, means, MomentStack(n, d))
                assert chosen.tolist() == per_state_assignment(fresh, means)
            for _ in range(100):
                # means mirrored around a state are equally far from it in
                # exact arithmetic, so rounding decides between them
                z = rng.uniform(-10, 10, d)
                v = rng.uniform(-5, 5, (6, d))
                means = rng.permutation(np.concatenate([z + v, z + v[:, ::-1], z - v]))
                fresh = np.concatenate([z[None], z + rng.normal(0.0, 1e-13, (5, d))])
                chosen = assign(fresh, means, MomentStack(len(means), d))
                assert chosen.tolist() == per_state_assignment(fresh, means)

    def test_pushes_states_in_generation_order(self):
        rng = np.random.default_rng(46)
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        fresh = rng.normal(0.0, 3.0, size=(40, 2)) + means[rng.integers(0, 3, 40)]
        clusters = MomentStack(3, 2)
        chosen = assign(fresh, means, clusters)
        alone = [RunningMoments(2) for _ in range(3)]
        for z, j in zip(fresh, chosen):
            alone[j].push(z)
        for j in range(3):
            assert clusters[j].count == alone[j].count
            np.testing.assert_array_equal(clusters[j].mean, alone[j].mean)
            np.testing.assert_array_equal(clusters[j].scatter, alone[j].scatter)


def refit_ensemble(global_moments, clusters, epsilon, dirty=None, chains=None) -> ChainEnsemble:
    """Apply ``refreshed_proposals`` to ``chains`` (default: fresh chains
    with unit-covariance proposals at the origin) and return them;
    ``dirty`` defaults to every chain."""
    n, d = clusters.mean.shape
    if chains is None:
        chains = ChainEnsemble(np.zeros((n, d)), np.zeros((n, 2, d)), np.eye(d), chain_streams(0, n))
    refreshed_proposals(global_moments, clusters, epsilon, chains, np.ones(n, dtype=bool) if dirty is None else dirty)
    return chains


class TestRefreshedProposals:
    def test_global_component_shared_exactly(self):
        rng = np.random.default_rng(50)
        g = RunningMoments(2)
        for _ in range(40):
            g.push(rng.standard_normal(2))
        clusters = MomentStack(4, 2)
        for i in range(4):
            for _ in range(i + 1):
                clusters[i].push(rng.standard_normal(2))
        chains = refit_ensemble(g, clusters, 0.4)
        for j in range(1, 4):
            assert all(np.array_equal(held[j, 0], held[0, 0]) for held in (chains.means, chains.covs))
        for held in (chains.means, chains.covs, chains.lowers, chains.log_det_halves):
            assert (held[:, 0] == held[0, 0]).all()

    def test_single_point_cluster(self):
        g = RunningMoments(2)
        g.push(np.array([1.0, 2.0]))
        g.push(np.array([3.0, 0.0]))
        cluster = MomentStack(1, 2)
        s = np.array([7.0, -7.0])
        cluster[0].push(s)
        chains = refit_ensemble(g, cluster, 0.4)
        np.testing.assert_array_equal(chains.means[0, 1], s)
        np.testing.assert_allclose(chains.covs[0, 1], 0.4 * np.eye(2))

    def test_matches_block_recomputation(self):
        rng = np.random.default_rng(51)
        states = rng.uniform(-5, 5, size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        g = RunningMoments(2)
        clusters = MomentStack(3, 2)
        for x, lab in zip(states, labels):
            g.push(x)
            clusters[lab].push(x)
        eps = 0.4
        chains = refit_ensemble(g, clusters, eps)

        g_mean = states.mean(axis=0)
        g_dev = states - g_mean
        g_cov = g_dev.T @ g_dev / (len(states) - 1) + eps * np.eye(2)
        for j in range(3):
            np.testing.assert_allclose(chains.means[j, 0], g_mean, rtol=1e-10)
            np.testing.assert_allclose(chains.covs[j, 0], g_cov, rtol=1e-10)
        for lab in range(3):
            sub = states[labels == lab]
            np.testing.assert_allclose(chains.means[lab, 1], sub.mean(axis=0), rtol=1e-10)
            dev = sub - sub.mean(axis=0)
            np.testing.assert_allclose(
                chains.covs[lab, 1], dev.T @ dev / (len(sub) - 1) + eps * np.eye(2), rtol=1e-10
            )

    def test_unchanged_clusters_reuse_their_component(self):
        rng = np.random.default_rng(52)
        g = RunningMoments(2)
        clusters = MomentStack(4, 2)
        for i in range(4):
            for _ in range(i + 2):
                x = rng.standard_normal(2)
                clusters[i].push(x)
                g.push(x)
        chains = refit_ensemble(g, clusters, 0.4)
        first_means = chains.means.copy()
        built = clusters.count.copy()
        for j in (1, 3):
            x = rng.standard_normal(2)
            clusters[j].push(x)
            g.push(x)
        # Mark the local parameters of the unchanged chains: a refit of
        # them would overwrite the marks.
        for held in (chains.means, chains.covs, chains.lowers, chains.log_det_halves):
            held[[0, 2], 1] = 123.0
        refit_ensemble(g, clusters, 0.4, clusters.count != built, chains)
        for j in (0, 2):
            assert (chains.means[j, 1] == 123.0).all() and (chains.covs[j, 1] == 123.0).all()
            assert (chains.lowers[j, 1] == 123.0).all() and chains.log_det_halves[j, 1] == 123.0
        for j in (1, 3):
            cov = clusters[j].covariance(0.4)
            lower, log_det_half = cholesky(cov)
            assert not np.array_equal(chains.means[j, 1], first_means[j, 1])
            np.testing.assert_array_equal(chains.means[j, 1], clusters[j].mean)
            np.testing.assert_array_equal(chains.covs[j, 1], cov)
            np.testing.assert_array_equal(chains.lowers[j, 1], lower)
            assert chains.log_det_halves[j, 1] == log_det_half
        assert not np.array_equal(chains.means[0, 0], first_means[0, 0])
        for j in range(1, 4):
            assert all(np.array_equal(held[j, 0], held[0, 0]) for held in (chains.means, chains.covs))

    def test_refit_components_match_make_component(self):
        rng = np.random.default_rng(53)
        for d in (1, 2, 3, 5):
            g = RunningMoments(d)
            clusters = MomentStack(6, d)
            for _ in range(60):
                x = rng.standard_normal(d) * rng.uniform(0.5, 4.0, d)
                g.push(x)
                clusters[int(rng.integers(0, 5))].push(x)  # row 5 stays empty
            chains = refit_ensemble(g, clusters, 0.3)
            shared = (g.mean.copy(), g.covariance(0.3))
            for j in range(6):
                fresh = (clusters[j].mean.copy(), clusters[j].covariance(0.3))
                for c, (mean, cov) in enumerate((shared, fresh)):
                    lower, log_det_half = cholesky(cov)
                    np.testing.assert_array_equal(chains.means[j, c], mean)
                    np.testing.assert_array_equal(chains.covs[j, c], cov)
                    np.testing.assert_array_equal(chains.lowers[j, c], lower)
                    assert chains.log_det_halves[j, c] == log_det_half

    def test_accumulator_mutation_does_not_leak(self):
        g = RunningMoments(2)
        g.push(np.zeros(2))
        g.push(np.ones(2))
        clusters = MomentStack(1, 2)
        clusters.push([0, 0], [np.zeros(2), np.ones(2)])
        chains = refit_ensemble(g, clusters, 0.1)
        before = chains.means[0, 0].copy()
        cov_before = chains.covs[0, 0].copy()
        g.push(np.array([100.0, 100.0]))
        clusters.push([0], [np.array([100.0, 100.0])])
        np.testing.assert_array_equal(chains.covs[0], [cov_before, cov_before])
        np.testing.assert_array_equal(chains.means[0, 0], before)
        np.testing.assert_array_equal(chains.means[0, 1], before)


class TestActivation:
    def test_floor_concentrates(self):
        active = activation([10, 1, 1, 1], rule="floor")
        assert active.tolist() == [True, False, False, False]

    def test_ceil_keeps_everyone(self):
        active = activation([10, 1, 1, 1], rule="ceil")
        assert active.tolist() == [True, True, True, True]

    def test_equal_counts_all_active(self):
        for rule in ("floor", "ceil"):
            assert activation([7, 7, 7], rule=rule).all()

    def test_ceil_never_deactivates_randomized(self):
        rng = np.random.default_rng(66)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            counts = rng.integers(1, 10_000, size=n)
            assert activation(counts, rule="ceil").all()

    def test_floor_always_keeps_at_least_one(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            counts = rng.integers(1, 10_000, size=n)
            assert activation(counts, rule="floor").any()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            activation([0, 0], rule="floor")
        with pytest.raises(ValueError):
            activation([1, 1], rule="round")


def small_config(**overrides):
    defaults = dict(
        n_chains=4,
        total_samples=200,
        t_train=1,
        init_means=np.zeros((4, 2, 2)),
        init_states=np.zeros((4, 2)),
        init_sigma=10.0,
        epsilon=0.4,
        seed=99,
    )
    defaults.update(overrides)
    n = defaults["n_chains"]
    if defaults["init_means"].shape[0] != n:
        defaults["init_means"] = np.zeros((n, 2, 2))
        defaults["init_states"] = np.zeros((n, 2))
    return PaimConfig(**defaults)


class TestPaimConfig:
    def test_train_must_precede_stop(self):
        with pytest.raises(ValueError, match="t_train"):
            small_config(t_train=5, t_stop=5).validate()

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            small_config(epsilon=0.0).validate()

    @pytest.mark.parametrize("field", ["epsilon", "init_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            small_config(**{field: value}).validate()

    def test_budget_at_least_one_per_chain(self):
        with pytest.raises(ValueError, match="total_samples"):
            small_config(total_samples=3).validate()

    def test_shape_checks(self):
        cfg = small_config()
        cfg.init_means = np.zeros((4, 2, 3))
        with pytest.raises(ValueError, match="init_means"):
            cfg.validate()

    def test_bad_rule(self):
        with pytest.raises(ValueError, match="activation rule"):
            small_config(activation_rule="up").validate()


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
        assert sum(c.count for c in state.clusters) == self.expected_assigned
        assert state.global_moments.count == self.expected_assigned - self.config.n_chains
        if self.config.t_train < state.step < self.config.t_stop:
            means, covs = state.chains.means, state.chains.covs
            for j in range(self.config.n_chains):
                assert np.array_equal(means[j, 0], means[0, 0]) and np.array_equal(covs[j, 0], covs[0, 0])
                for c in (0, 1):
                    assert np.linalg.eigvalsh(covs[j, c]).min() > 0.0


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
        cfg = small_config(
            n_chains=4,
            total_samples=120,
            t_train=1,
            t_stop=5,
            init_means=rng.uniform(-15, 15, (4, 2, 2)),
            init_states=rng.uniform(-15, 15, (4, 2)),
        )
        seen = []

        def watch(state):
            seen.append((state.step, sum(c.count for c in state.clusters)))

        record = run_paim(cfg, self.banana(), on_step=watch)
        counts = dict(seen)
        # cluster growth stops once the step counter reaches t_stop
        frozen = [v for s, v in counts.items() if s >= 5]
        assert len(set(frozen)) == 1
        assert record.samples.shape[0] == 120

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
                first["counts"] = [c.count for c in state.clusters]
                first["means"] = state.chains.means.copy()
                first["covs"] = state.chains.covs.copy()

        run_paim(cfg, self.banana(), on_step=watch)
        untouched = [j for j, count in enumerate(first["counts"]) if count == 1]
        assert untouched, "some cluster should still hold only its initial state"
        for j in untouched:
            np.testing.assert_array_equal(first["means"][j, 1], cfg.init_states[j])
            assert not np.array_equal(first["means"][j, 1], cfg.init_means[j, 1])
            np.testing.assert_array_equal(first["covs"][j, 1], cfg.epsilon * np.eye(2))

    def test_mismatched_target_dim(self):
        with pytest.raises(ValueError, match="dim"):
            run_paim(small_config(), make_gaussian_target([0.0], [[1.0]]))
