import math

import numpy as np
import pytest

from paim.gaussian import log_gaussian_pdf
from paim.moments import RunningMoments
from paim.sampler import (
    ChainState,
    MixtureProposal,
    PaimConfig,
    activation,
    assign,
    log_accept_ratio,
    make_component,
    mh_step,
    mixture_log_pdf,
    refreshed_proposals,
    run_paim,
    sample_mixture,
)
from paim.targets import make_banana_target, make_gaussian_target


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


def proposal_from(mean1, cov1, mean2, cov2) -> MixtureProposal:
    return MixtureProposal(
        global_component=make_component(mean1, cov1),
        local_component=make_component(mean2, cov2),
    )


class TestMixtureLogPdf:
    def test_identical_components(self):
        psi = proposal_from([1.0, -1.0], np.eye(2), [1.0, -1.0], np.eye(2))
        x = np.array([0.3, 0.3])
        single = log_gaussian_pdf(x, psi.global_component.mean, psi.global_component.factor)
        assert mixture_log_pdf(psi, x) == pytest.approx(single, abs=1e-14)

    def test_far_component_drops_out(self):
        psi = proposal_from([0.0, 0.0], np.eye(2), [1e8, 1e8], np.eye(2))
        x = np.zeros(2)
        expected = math.log(0.5) + log_gaussian_pdf(x, psi.global_component.mean, psi.global_component.factor)
        assert mixture_log_pdf(psi, x) == pytest.approx(expected, abs=1e-12)

    def test_matches_extended_precision_sum(self):
        import mpmath

        mpmath.mp.dps = 50
        psi = proposal_from([0.5, -0.2], np.array([[2.0, 0.3], [0.3, 1.0]]),
                            [-1.0, 2.0], np.array([[0.7, 0.0], [0.0, 3.0]]))
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.uniform(-6, 6, 2)
            la = log_gaussian_pdf(x, psi.global_component.mean, psi.global_component.factor)
            lb = log_gaussian_pdf(x, psi.local_component.mean, psi.local_component.factor)
            exact = mpmath.log(mpmath.mpf(0.5) * mpmath.e**la + mpmath.mpf(0.5) * mpmath.e**lb)
            assert mixture_log_pdf(psi, x) == pytest.approx(float(exact), rel=1e-13)

    def test_finite_far_away(self):
        psi = proposal_from([0.0, 0.0], np.eye(2), [1.0, 1.0], np.eye(2))
        assert np.isfinite(mixture_log_pdf(psi, np.array([1e4, -1e4])))


class TestSampleMixture:
    def test_forced_first_component(self):
        psi = proposal_from([3.0, 4.0], np.eye(2), [-3.0, -4.0], np.eye(2))
        rng = ScriptedRng(uniforms=[0.2], normals=[(0.0, 0.0)])
        out = sample_mixture(psi, rng)
        assert np.array_equal(out, [3.0, 4.0])
        assert rng.calls == ["random", "standard_normal(2)"]

    def test_forced_second_component(self):
        psi = proposal_from([3.0, 4.0], np.eye(2), [-3.0, -4.0], np.eye(2))
        out = sample_mixture(psi, ScriptedRng(uniforms=[0.9], normals=[(0.0, 0.0)]))
        assert np.array_equal(out, [-3.0, -4.0])

    def test_equal_weight_split(self):
        psi = proposal_from([-5.0, 0.0], np.eye(2), [5.0, 0.0], np.eye(2))
        rng = np.random.default_rng(21)
        draws = np.array([sample_mixture(psi, rng) for _ in range(100_000)])
        assert abs((draws[:, 0] > 0).mean() - 0.5) < 0.01

    def test_mixture_mean(self):
        psi = proposal_from([-5.0, 1.0], np.eye(2), [5.0, -1.0], np.eye(2))
        rng = np.random.default_rng(22)
        draws = np.array([sample_mixture(psi, rng) for _ in range(100_000)])
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


class TestMhStep:
    def target(self):
        return make_gaussian_target([0.0, 0.0], np.eye(2))

    def test_proposing_current_state_accepts(self):
        psi = proposal_from([1.0, 1.0], np.eye(2), [1.0, 1.0], np.eye(2))
        chain = ChainState(index=0, current=np.array([1.0, 1.0]))
        # candidate exactly equals the current state; acceptance draw 0.999
        rng = ScriptedRng(uniforms=[0.2, 0.999], normals=[(0.0, 0.0)])
        accepted, _, _ = mh_step(chain, psi, self.target(), rng)
        assert accepted
        assert chain.iterations == 1
        assert rng.calls == ["random", "standard_normal(2)", "random"]

    def test_rejection_keeps_state(self):
        # proposal much wider than the target: a candidate 20 sigma out
        # has log target ratio -200 against a +50 proposal correction
        psi = proposal_from([0.0, 0.0], 4.0 * np.eye(2), [0.0, 0.0], 4.0 * np.eye(2))
        start = np.array([0.0, 0.0])
        chain = ChainState(index=0, current=start.copy())
        rng = ScriptedRng(uniforms=[0.2, 0.5], normals=[(10.0, 0.0)])
        accepted, _, _ = mh_step(chain, psi, self.target(), rng)
        assert not accepted
        assert np.array_equal(chain.current, start)
        assert chain.iterations == 1

    def test_cached_values_do_not_change_outcome(self):
        psi = proposal_from([0.5, 0.0], np.eye(2), [-0.5, 0.0], 2.0 * np.eye(2))
        target = self.target()
        a = ChainState(index=0, current=np.array([2.0, -1.0]))
        b = ChainState(index=0, current=np.array([2.0, -1.0]))
        rng_a, rng_b = np.random.default_rng(55), np.random.default_rng(55)
        lt = lp = None
        for _ in range(200):
            acc_a, lt, lp = mh_step(a, psi, target, rng_a, lt, lp)
            acc_b, _, _ = mh_step(b, psi, target, rng_b)
            assert acc_a == acc_b
            np.testing.assert_array_equal(a.current, b.current)

    def test_acceptance_rate_reasonable(self):
        # proposal equals the target: every candidate accepted
        psi = proposal_from([0.0, 0.0], np.eye(2), [0.0, 0.0], np.eye(2))
        chain = ChainState(index=0, current=np.zeros(2))
        rng = np.random.default_rng(60)
        accepts = [mh_step(chain, psi, self.target(), rng)[0] for _ in range(2000)]
        assert all(accepts)


class TestAssign:
    def test_nearest(self):
        clusters = [RunningMoments(2), RunningMoments(2)]
        chosen = assign([np.array([1.0, 1.0])], np.array([[0.0, 0.0], [5.0, 5.0]]), clusters)
        assert chosen.tolist() == [0]
        assert clusters[0].count == 1 and clusters[1].count == 0

    def test_tie_breaks_to_lowest_index(self):
        clusters = [RunningMoments(2), RunningMoments(2)]
        chosen = assign([np.array([1.0, 0.0])], np.array([[0.0, 0.0], [2.0, 0.0]]), clusters)
        assert chosen.tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            means = rng.uniform(-10, 10, size=(10, 2))
            fresh = list(rng.uniform(-10, 10, size=(100, 2)))
            clusters = [RunningMoments(2) for _ in range(10)]
            chosen = assign(fresh, means, clusters)
            for z, got in zip(fresh, chosen):
                dists = [float(np.hypot(*(m - z))) for m in means]
                assert got == int(np.argmin(dists))
            assert sum(c.count for c in clusters) == 100


class TestRefreshedProposals:
    def test_global_component_shared_exactly(self):
        rng = np.random.default_rng(50)
        g = RunningMoments(2)
        for _ in range(40):
            g.push(rng.standard_normal(2))
        clusters = [RunningMoments(2) for _ in range(4)]
        for i, c in enumerate(clusters):
            for _ in range(i + 1):
                c.push(rng.standard_normal(2))
        props = refreshed_proposals(g, clusters, 0.4)
        first = props[0].global_component
        for p in props[1:]:
            assert p.global_component is first

    def test_single_point_cluster(self):
        g = RunningMoments(2)
        g.push(np.array([1.0, 2.0]))
        g.push(np.array([3.0, 0.0]))
        cluster = RunningMoments(2)
        s = np.array([7.0, -7.0])
        cluster.push(s)
        (p,) = refreshed_proposals(g, [cluster], 0.4)
        np.testing.assert_array_equal(p.local_component.mean, s)
        np.testing.assert_allclose(p.local_component.cov, 0.4 * np.eye(2))

    def test_matches_block_recomputation(self):
        rng = np.random.default_rng(51)
        states = rng.uniform(-5, 5, size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        g = RunningMoments(2)
        clusters = [RunningMoments(2) for _ in range(3)]
        for x, lab in zip(states, labels):
            g.push(x)
            clusters[lab].push(x)
        eps = 0.4
        props = refreshed_proposals(g, clusters, eps)

        g_mean = states.mean(axis=0)
        g_dev = states - g_mean
        g_cov = g_dev.T @ g_dev / (len(states) - 1) + eps * np.eye(2)
        for p in props:
            np.testing.assert_allclose(p.global_component.mean, g_mean, rtol=1e-10)
            np.testing.assert_allclose(p.global_component.cov, g_cov, rtol=1e-10)
        for lab, p in enumerate(props):
            sub = states[labels == lab]
            np.testing.assert_allclose(p.local_component.mean, sub.mean(axis=0), rtol=1e-10)
            dev = sub - sub.mean(axis=0)
            np.testing.assert_allclose(
                p.local_component.cov, dev.T @ dev / (len(sub) - 1) + eps * np.eye(2), rtol=1e-10
            )

    def test_unchanged_clusters_reuse_their_component(self):
        rng = np.random.default_rng(52)
        g = RunningMoments(2)
        clusters = [RunningMoments(2) for _ in range(4)]
        for i, c in enumerate(clusters):
            for _ in range(i + 2):
                x = rng.standard_normal(2)
                c.push(x)
                g.push(x)
        first = refreshed_proposals(g, clusters, 0.4)
        built = [c.count for c in clusters]
        for j in (1, 3):
            x = rng.standard_normal(2)
            clusters[j].push(x)
            g.push(x)
        second = refreshed_proposals(g, clusters, 0.4, first, built)
        for j in (0, 2):
            assert second[j].local_component is first[j].local_component
        for j in (1, 3):
            fresh = make_component(clusters[j].mean.copy(), clusters[j].covariance(0.4))
            local = second[j].local_component
            assert local is not first[j].local_component
            for field in ("mean", "cov"):
                np.testing.assert_array_equal(getattr(local, field), getattr(fresh, field))
            np.testing.assert_array_equal(local.factor.lower, fresh.factor.lower)
            assert local.factor.log_det_half == fresh.factor.log_det_half
        assert second[0].global_component is not first[0].global_component
        for p in second[1:]:
            assert p.global_component is second[0].global_component

    def test_accumulator_mutation_does_not_leak(self):
        g = RunningMoments(2)
        g.push(np.zeros(2))
        g.push(np.ones(2))
        (p,) = refreshed_proposals(g, [g.copy()], 0.1)
        before = p.global_component.mean.copy()
        g.push(np.array([100.0, 100.0]))
        np.testing.assert_array_equal(p.global_component.mean, before)


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
            shared = state.proposals[0].global_component
            for p in state.proposals:
                assert p.global_component is shared
                for comp in (p.global_component, p.local_component):
                    assert np.linalg.eigvalsh(comp.cov).min() > 0.0


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
        for pa, pb in zip(a.proposals, b.proposals):
            np.testing.assert_array_equal(pa.local_component.cov, pb.local_component.cov)

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
                first["proposals"] = state.proposals

        run_paim(cfg, self.banana(), on_step=watch)
        untouched = [j for j, count in enumerate(first["counts"]) if count == 1]
        assert untouched, "some cluster should still hold only its initial state"
        for j in untouched:
            local = first["proposals"][j].local_component
            np.testing.assert_array_equal(local.mean, cfg.init_states[j])
            assert not np.array_equal(local.mean, cfg.init_means[j, 1])
            np.testing.assert_array_equal(local.cov, cfg.epsilon * np.eye(2))

    def test_mismatched_target_dim(self):
        with pytest.raises(ValueError, match="dim"):
            run_paim(small_config(), make_gaussian_target([0.0], [[1.0]]))
