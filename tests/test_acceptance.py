"""Acceptance suite: end-to-end statistical and equivalence guarantees.

Each test here checks one of the package's headline guarantees at full stated
tolerances: combinatorial/LP verdict equivalences, the tuning and robust
estimation experiments, the concentration bound, rank optimality, utility
reconstruction and empirical-gap consistency.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from pareto_forge.core import ConstraintFunction, EmpiricalStrategy, RPDataset
from pareto_forge.dro import PsiVector, h_value
from pareto_forge.experiments import monte_carlo, river_spsa_replication, run_dro_replication
from pareto_forge.rp import (
    PreferenceProfile,
    garp_f_threshold,
    hoeffding_confidence,
    mm_garp,
    pareto_gap,
    rank_optimality_check,
    reconstruct_utility,
)
from pareto_forge.synthetic import consistent_dataset, dro_instance, violating_dataset


def _random_dims(rng, t_max=6, m_max=3, k_max=3):
    return (
        int(rng.integers(2, t_max + 1)),
        int(rng.integers(1, m_max + 1)),
        int(rng.integers(2, k_max + 1)),
    )


class TestCombinatorialLpEquivalence:
    """The combinatorial consistency verdict coincides with a zero gap."""

    def test_verdicts_match_on_200_datasets(self):
        rng = np.random.default_rng(20240817)
        mismatches = []
        for j in range(200):
            T, M, k = _random_dims(rng)
            maker = consistent_dataset if j < 100 else violating_dataset
            d = maker(T=T, M=M, k=k, seed=j)
            garp_ok = mm_garp(d)
            gap = pareto_gap(d).gap
            if garp_ok != (gap <= 1e-5):
                mismatches.append((j, T, M, k, garp_ok, gap))
        assert mismatches == []

    def test_additive_threshold_matches_gap_on_100_datasets(self):
        rng = np.random.default_rng(20240818)
        worst = 0.0
        for j in range(100):
            T, M, k = _random_dims(rng, t_max=5)
            maker = consistent_dataset if j % 2 == 0 else violating_dataset
            d = maker(T=T, M=M, k=k, seed=1000 + j)
            thr = garp_f_threshold(d)
            gap = pareto_gap(d).gap
            worst = max(worst, abs(thr - gap))
        assert worst <= 2e-4


class TestMechanismTuningExperiment:
    """River-game tuning: most replications reach a socially optimal design."""

    def test_ninety_percent_success_within_30_iterations(self):
        results = monte_carlo(river_spsa_replication, 50, base_seed=0)
        successes = sum(
            1 for r in results if r["final_loss"] <= 1e-5 and r["iterations"] <= 30
        )
        assert successes >= 45, f"only {successes}/50 replications succeeded"


# violation tolerance δ of the exchange loop (run_dro_replication's default)
DRO_DELTA = 0.1


@pytest.fixture(scope="module")
def dro_replications():
    """50 exchange-loop replications per Wasserstein radius (shared, expensive).

    The replication seeds are the same for every radius.
    """
    runs = {}
    for eps in (0.001, 1.0, 10.0):
        results = monte_carlo(
            lambda seed, eps=eps: run_dro_replication(seed, eps=eps, delta=DRO_DELTA),
            50,
            base_seed=0,
        )
        assert all(r["certified"] for r in results)
        runs[eps] = results
    return runs


@pytest.fixture(scope="module")
def dro_iteration_counts(dro_replications):
    return {
        eps: np.array([r["iterations"] for r in results], dtype=float)
        for eps, results in dro_replications.items()
    }


@pytest.fixture(scope="module")
def dro_master_objectives(dro_replications):
    """Final master objective of each replication, per radius."""
    return {
        eps: np.array([r["trace"][-1]["master_objective"] for r in results])
        for eps, results in dro_replications.items()
    }


class TestRobustEstimationExperiment:
    def test_mean_iterations_within_budget(self, dro_iteration_counts):
        for eps, iters in dro_iteration_counts.items():
            assert iters.mean() <= 15.0, f"eps={eps}: mean {iters.mean():.2f}"

    def test_larger_radius_converges_no_faster(self, dro_iteration_counts, dro_master_objectives):
        """The certified DRO value, not the iteration count, is monotone in ε.

        The worst case over a Wasserstein ball cannot decrease as the ball
        grows, and a certified ψ̂ has worst-case value at most its master
        objective + δ.  So, when the master reaches its minimum,
        objective(ε_small) <= objective(ε_large) + δ on every replication.
        Iteration counts promise nothing: once the ball covers the scenario
        support the loop is the support-wide min-max and certifies at the
        second iteration, faster than at ε = 1.
        """
        means = ", ".join(
            f"eps={eps}: {iters.mean():.2f}" for eps, iters in dro_iteration_counts.items()
        )
        for small, large in ((0.001, 1.0), (1.0, 10.0)):
            lo, hi = dro_master_objectives[small], dro_master_objectives[large]
            bad = np.flatnonzero(lo > hi + DRO_DELTA)
            assert bad.size == 0, (
                f"certified value falls from eps={small} to eps={large} on "
                f"replications {bad.tolist()} ({lo[bad]} vs {hi[bad]}); "
                f"mean iterations {means}"
            )


class TestClosedFormGapOracle:
    """h equals the bisection solution of the fixed-psi relaxed system."""

    @staticmethod
    def _bisection_gap(u, lam, G, tol=1e-7):
        def feasible(r):
            resid = u[None, :, :] - u[:, None, :] - lam[:, None, :] * (G + r)
            return resid.max() <= 0.0

        if feasible(0.0):
            return 0.0
        hi = float(((u[None, :, :] - u[:, None, :]) / lam[:, None, :] - G).max()) + 1.0
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def test_matches_bisection_on_100_draws(self):
        rng = np.random.default_rng(5)
        for j in range(100):
            T, M = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            d = dro_instance(T=T, M=M, N=2, seed=j)
            u = rng.uniform(-1.0, 1.0, size=(T, M))
            lam = rng.uniform(0.1, 2.0, size=(T, M))
            phi = rng.uniform(0.0, 1.0, size=(T, M, 2))
            psi = PsiVector(u, lam)
            h = h_value(psi, phi, d)
            G = np.empty((T, T, M))
            from pareto_forge.core import eval_constraint_many

            for t in range(T):
                for i in range(M):
                    G[t, :, i] = eval_constraint_many(d.constraints[t][i], phi[:, i, :])
            assert h == pytest.approx(self._bisection_gap(u, lam, G), abs=1e-5)


class TestConcentrationBound:
    def test_bound_properties(self):
        T, M, G = 4, 2, 1.0
        # range and the eps = 0 degenerate case
        assert hoeffding_confidence(0.0, 100, T, M, G) == 0.0
        for eps in (0.05, 0.1, 0.5):
            for N in (1, 10, 1000):
                assert 0.0 <= hoeffding_confidence(eps, N, T, M, G) <= 1.0
        # nondecreasing in N
        vals = [hoeffding_confidence(0.1, N, T, M, G) for N in (10, 100, 1000, 10_000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # approaches certainty for large N
        assert hoeffding_confidence(0.1, 10**8, T, M, G) >= 1.0 - 1e-6


class TestRankOptimality:
    """The expected-rank test against social optimality of point masses.

    For weakly decreasing levels l_1 >= ... >= l_D, every outcome o has
    social(o) = sum_{k<D} (l_k - l_{k+1}) * rnk_k(o) + M * l_D, a nonnegative
    combination of its k-rank counts.  So a point mass that passes the rank
    test is socially optimal under every level vector; the converse holds only
    for optimality under all of them, since the top-k indicator levels
    (1,...,1,0,...,0) isolate each rnk_k.  Optimality under one level vector
    does not imply passing: rankings (0,1,2) vs (2,1,0) at levels
    (5.69, 5.01, 4.34) make outcome 0 optimal (10.03 vs 10.02) while its
    top-2 count is 1 against outcome 1's 2.

    Profiles are enumerated with the first agent's ranking fixed to the
    identity: social utilities and the rank test are both equivariant under a
    common relabeling of outcomes, so this loses no generality.
    """

    COUNTEREXAMPLE = (((0, 1, 2), (2, 1, 0)), (5.69, 5.01, 4.34), 0)

    def test_social_optima_pass_rank_test(self):
        rng = np.random.default_rng(99)
        passed_not_optimal, not_iff_top_k, optimal_failed = [], [], []
        for D in (2, 3, 4):
            perms = list(itertools.permutations(range(D)))
            levels_draws = [
                tuple(np.sort(rng.uniform(0.0, 10.0, size=D))[::-1]) for _ in range(100)
            ]
            top_k_levels = [(1.0,) * k + (0.0,) * (D - k) for k in range(1, D + 1)]
            for M in (1, 2, 3):
                for others in itertools.product(perms, repeat=M - 1):
                    rankings = (tuple(range(D)),) + others
                    top_k_optimal = np.ones(D, dtype=bool)
                    for ind in top_k_levels:
                        s = PreferenceProfile(rankings=rankings, levels=ind).social_utilities()
                        top_k_optimal &= s == s.max()
                    for levels in levels_draws:
                        profile = PreferenceProfile(rankings=rankings, levels=levels)
                        social = profile.social_utilities()
                        for o in range(D):
                            point_mass = np.zeros(D)
                            point_mass[o] = 1.0
                            passes = rank_optimality_check(profile, point_mass)
                            optimal = social[o] >= social.max() - 1e-12
                            case = (rankings, levels, o)
                            if passes and not optimal:
                                passed_not_optimal.append(case)
                            if passes != top_k_optimal[o]:
                                not_iff_top_k.append(case)
                            if optimal and not passes:
                                optimal_failed.append(case)
        assert passed_not_optimal == [], f"passes but not optimal: {passed_not_optimal[0]}"
        assert not_iff_top_k == [], f"passing != top-k optimality: {not_iff_top_k[0]}"

        # the first optimum that fails is the documented counterexample
        rankings, levels, o = self.COUNTEREXAMPLE
        assert optimal_failed, "no socially optimal point mass fails the rank test"
        first = optimal_failed[0]
        assert (first[0], first[2]) == (rankings, o)
        assert np.round(first[1], 2) == pytest.approx(levels)
        profile = PreferenceProfile(rankings=rankings, levels=levels)
        social = profile.social_utilities()
        assert social[o] == pytest.approx(social.max())
        assert social[1] < social[o]
        assert not rank_optimality_check(profile, np.eye(3)[o])


class TestUtilityReconstruction:
    """Reconstructed utilities are maximized at the observed strategies."""

    def test_grid_maximum_attained_on_50_datasets(self):
        from pareto_forge.core import eval_constraint_many

        for seed in range(50):
            d = consistent_dataset(T=3, M=2, k=2, seed=3000 + seed)
            res = pareto_gap(d)
            assert res.gap <= 1e-5
            for i in range(d.M):
                util = reconstruct_utility(res.certificate, d, i, tol=1e-5)
                u_i = res.certificate.u[:, i]
                lam_i = res.certificate.lam[:, i]
                for t in range(d.T):
                    f = d.constraints[t][i]
                    alpha = np.asarray(f.alpha)
                    axes = [np.arange(0.0, f.b / a + 0.01, 0.01) for a in alpha]
                    mesh = np.stack(
                        np.meshgrid(*axes, indexing="ij"), axis=-1
                    ).reshape(-1, 2)
                    feas = mesh[mesh @ alpha <= f.b + 1e-12]
                    vals = np.full(len(feas), np.inf)
                    for s in range(d.T):
                        g_s = eval_constraint_many(d.constraints[s][i], feas)
                        vals = np.minimum(vals, u_i[s] + lam_i[s] * g_s)
                    grid_max = float(vals.max())
                    observed = util(d.strategies[t][i].mean)
                    assert observed >= grid_max - 1e-4


def _mixed_strategy_dataset(N: int, seed: int) -> RPDataset:
    """Two budget-exhausting mixed strategies with exact mean budget values.

    Samples live on their own budget lines, so every sample is feasible and
    the expected cross-budget values are -0.35 exactly; the exact relaxation
    needed is 0.35.
    """
    rng = np.random.default_rng(seed)
    s1 = rng.uniform(-0.05, 0.05, size=N)
    s2 = rng.uniform(-0.05, 0.05, size=N)
    x1 = np.stack([0.45 - s1, 0.1 + 2 * s1], axis=1)
    x2 = np.stack([0.1 + 2 * s2, 0.45 - s2], axis=1)
    cons = (
        (ConstraintFunction((2.0, 1.0), 1.0),),
        (ConstraintFunction((1.0, 2.0), 1.0),),
    )
    return RPDataset(cons, ((EmpiricalStrategy(x1),), (EmpiricalStrategy(x2),)))


class TestEmpiricalGapConsistency:
    """The sample-based gap estimate converges to the exact gap as N grows."""

    EXACT_GAP = 0.35

    def test_mean_error_decreases_in_sample_size(self):
        errors = {}
        for N in (10, 100, 1000):
            errs = []
            for seed in range(100):
                d = _mixed_strategy_dataset(N, seed)
                est = pareto_gap(d).gap
                errs.append(abs(est - self.EXACT_GAP))
            errors[N] = float(np.mean(errs))
        assert errors[100] <= errors[10] + 1e-6
        assert errors[1000] <= errors[100] + 1e-6
