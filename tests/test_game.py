"""Unit tests for games, exact best responses, Nash computation and dataset collection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge.core import ConstraintFunction, Family
from pareto_forge.game import (
    AgentFeasibleSet,
    GameInterface,
    RiverPollutionGame,
    best_deviation,
    collect_dataset,
    nikaido_isoda,
    payoff,
    probe_feasible_set,
    relaxation_nash,
    river_probes,
)


class QuadraticGame(GameInterface):
    """Two-agent scalar game with a closed-form interior Nash equilibrium.

    f^i(x) = -(x_i - b_i * x_{-i} - t_i)^2: the best response is the target
    b_i * x_{-i} + t_i clipped to the box, and the interior equilibrium solves
    the 2x2 linear system x_i = b_i * x_{-i} + t_i.
    """

    M = 2
    k = 1

    def __init__(self, b=(0.3, 0.2), t=(0.5, 0.4)):
        self.b = np.asarray(b, dtype=float)
        self.t = np.asarray(t, dtype=float)

    def payoff(self, x, i):
        x = np.asarray(x, dtype=float).reshape(self.M)
        target = self.b[i] * x[1 - i] + self.t[i]
        return float(-((x[i] - target) ** 2))

    def best_response(self, x, i, fs):
        x = np.asarray(x, dtype=float).reshape(self.M)
        return np.clip(self.b[i] * x[1 - i] + self.t[i], fs.lower, fs.upper)

    def nash(self):
        A = np.array([[1.0, -self.b[0]], [-self.b[1], 1.0]])
        return np.linalg.solve(A, self.t)


class TestAgentFeasibleSet:
    def test_contains_box_and_halfspace(self):
        fs = AgentFeasibleSet(
            np.zeros(2), np.ones(2), A=np.array([[1.0, 1.0]]), b=np.array([1.5])
        )
        assert fs.contains([0.5, 0.5])
        assert not fs.contains([1.0, 1.0])  # violates the halfspace
        assert not fs.contains([-0.1, 0.0])

    def test_project_onto_halfspace(self):
        fs = AgentFeasibleSet(
            np.zeros(2), np.full(2, 10.0), A=np.array([[1.0, 1.0]]), b=np.array([2.0])
        )
        y = fs.project([3.0, 3.0])
        assert fs.contains(y, tol=1e-8)
        # orthogonal projection of (3,3) onto x+y=2 is (1,1)
        assert np.allclose(y, [1.0, 1.0], atol=1e-8)

    def test_project_is_identity_on_feasible_points(self):
        fs = AgentFeasibleSet(np.zeros(1), np.array([5.0]))
        assert np.allclose(fs.project([2.0]), [2.0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AgentFeasibleSet(np.ones(2), np.zeros(2))


class TestProbeFeasibleSet:
    def test_interval_for_scalar_probe(self):
        f = ConstraintFunction(Family.AFFINE, 1, alpha=(2.0,), b=10.0)
        fs = probe_feasible_set(f)
        assert fs.lower[0] == 0.0
        assert fs.upper[0] == pytest.approx(5.0)
        assert fs.A is None

    def test_shift_moves_interval(self):
        f = ConstraintFunction(Family.AFFINE, 1, alpha=(2.0,), b=10.0)
        fs = probe_feasible_set(f.shifted(1.0, (1.0,)))
        assert fs.upper[0] == pytest.approx(6.0)

    def test_multivariate_probe_keeps_halfspace(self):
        f = ConstraintFunction(Family.AFFINE, 2, alpha=(1.0, 2.0), b=4.0)
        fs = probe_feasible_set(f)
        assert fs.contains([1.0, 1.0])
        assert not fs.contains([4.0, 1.0])

    def test_non_affine_probe_rejected(self):
        with pytest.raises(ValueError):
            probe_feasible_set(ConstraintFunction(Family.LOG_SIGMOID, 1))


class TestRiverPollutionGame:
    def test_payoff_hand_value(self):
        theta = np.array([0.5, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3])
        g = RiverPollutionGame(theta)
        x = np.array([4.0, 1.0, 4.0])
        # agent 0: 3*4 - 0.5*sqrt(9) - 0.2*sqrt(4) - 0.1*4
        assert g.payoff(x, 0) == pytest.approx(12.0 - 1.5 - 0.4 - 0.4)
        # agent 2: 3*4 - 0.5*3 - 0.4*2 - 0.3*4
        assert g.payoff(x, 2) == pytest.approx(12.0 - 1.5 - 0.8 - 1.2)

    def test_module_level_payoff_delegates(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        x = np.array([1.0, 2.0, 3.0])
        assert payoff(g, x, 1) == g.payoff(x, 1)

    def test_negative_action_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        with pytest.raises(ValueError):
            g.payoff(np.array([-1.0, 0.0, 0.0]), 0)

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            RiverPollutionGame(np.zeros(6))
        with pytest.raises(ValueError):
            RiverPollutionGame(np.array([np.nan] + [0.0] * 6))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"d1": float("nan")}, "d1"),
            ({"d1": float("inf")}, "d1"),
            ({"cap": float("inf")}, "cap"),
            ({"cap": 0.0}, "cap"),
            ({"cap": -5.0}, "cap"),
            ({"delta": np.array([[0.9, 0.1, 0.6, 0.4, 0.2, 0.8]])}, "delta"),
            ({"delta": np.array([0.9, 0.1, 0.6, 0.4, 0.2, 0.8])}, "delta"),
            ({"delta": np.array([[0.9, 0.1], [-0.6, -0.4], [0.2, 0.8]])}, "delta"),
            ({"delta": np.array([[0.9, 0.1], [0.0, 0.0], [0.2, 0.8]])}, "delta"),
            ({"delta": np.array([[0.9, 0.1], [np.nan, 0.4], [0.2, 0.8]])}, "delta"),
            ({"delta": np.zeros((3, 0))}, "delta"),
        ],
    )
    def test_bad_inputs_rejected_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RiverPollutionGame(np.full(7, 0.5), **kwargs)


def _river_grid_max(g, x, i, lo, hi, n=20_001):
    """Agent i's best payoff over n evenly spaced own actions in [lo, hi]."""
    grid = np.linspace(lo, hi, n)
    s = x.sum() - x[i]
    d2, c1, c2 = g.theta[0], g.theta[1 + i], g.theta[4 + i]
    return float((g.d1 * grid - d2 * np.sqrt(grid + s) - c1 * np.sqrt(grid) - c2 * grid).max())


class TestBestResponse:
    def test_quadratic_game_closed_form(self):
        g = QuadraticGame()
        fs = AgentFeasibleSet(np.zeros(1), np.full(1, 2.0))
        assert g.best_response(np.array([[0.0], [1.0]]), 0, fs) == pytest.approx([0.8])
        # the target 0.5 + 0.3 * 10 lies above the box and is clipped
        assert g.best_response(np.array([[0.0], [10.0]]), 0, fs) == pytest.approx([2.0])

    def test_best_deviation_stacks_best_responses(self):
        g = RiverPollutionGame(np.array([0.0, -1.0, 0.3, 0.3, 1.0, 0.2, 0.2]), d1=0.5)
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.full(1, 4.0)) for _ in range(3))
        x = np.array([[2.0], [1.0], [3.0]])
        z = best_deviation(g, x, sets)
        for i in range(3):
            assert np.array_equal(z[i], g.best_response(x, i, sets[i]))

    def test_river_interior_hand_value(self):
        # d2 = 0, c1 = -1, c2 = 1, d1 = 0.5: agent 0 maximises sqrt(x) - x / 2,
        # whose stationary point x = 1 is inside the budget [0, 4]
        g = RiverPollutionGame(np.array([0.0, -1.0, 0.3, 0.3, 1.0, 0.2, 0.2]), d1=0.5)
        fs = AgentFeasibleSet(np.zeros(1), np.full(1, 4.0))
        assert g.best_response(np.zeros(3), 0, fs)[0] == 1.0

    def test_river_convex_payoff_picks_an_endpoint(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        fs = AgentFeasibleSet(np.array([0.5]), np.array([7.0]))
        assert g.best_response(np.array([1.0, 2.0, 3.0]), 1, fs)[0] in (0.5, 7.0)

    def test_river_unbounded_budget_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        fs = AgentFeasibleSet(np.zeros(1), np.array([np.inf]))
        with pytest.raises(ValueError, match="unbounded"):
            g.best_response(np.zeros(3), 0, fs)

    def test_river_halfspace_set_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        fs = AgentFeasibleSet(np.zeros(1), np.full(1, 4.0), A=np.array([[1.0]]), b=np.array([2.0]))
        with pytest.raises(ValueError, match="interval"):
            g.best_response(np.zeros(3), 0, fs)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_river_best_response_beats_dense_grid(self, seed):
        # about 2% of draws have an interior maximiser, so each example checks 40
        rng = np.random.default_rng(seed)
        for _ in range(40):
            g = RiverPollutionGame(rng.uniform(-0.5, 1.5, 7), d1=rng.uniform(0.0, 3.0))
            i = int(rng.integers(3))
            lo = rng.uniform(0.0, 5.0) * (rng.random() < 0.5)
            hi = lo + rng.uniform(0.0, 20.0) * (rng.random() < 0.9)
            x = rng.uniform(0.0, 10.0, 3) * (rng.random(3) < 0.8)
            fs = AgentFeasibleSet(np.array([lo]), np.array([hi]))
            xi = g.best_response(x, i, fs)
            assert fs.contains(xi, tol=0.0)
            joint = x.copy()
            joint[i] = xi[0]
            assert g.payoff(joint, i) >= _river_grid_max(g, x, i, lo, hi) - 1e-12


class TestNikaidoIsoda:
    def test_zero_on_diagonal(self):
        g = QuadraticGame()
        x = np.array([[0.2], [0.7]])
        assert nikaido_isoda(g, x, x) == 0.0

    def test_hand_value(self):
        g = QuadraticGame(b=(0.0, 0.0), t=(1.0, 2.0))
        x = np.zeros((2, 1))
        y = np.array([[1.0], [2.0]])
        # deviating to each target gains t_i^2 per agent
        assert nikaido_isoda(g, x, y) == pytest.approx(1.0 + 4.0)

    def test_nonnegative_at_best_deviation(self):
        g = QuadraticGame()
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.full(1, 2.0)) for _ in range(2))
        x = np.array([[0.1], [0.9]])
        z = best_deviation(g, x, sets)
        assert nikaido_isoda(g, x, z) >= -1e-12


class TestRelaxationNash:
    def test_quadratic_game_reaches_closed_form(self):
        g = QuadraticGame()
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.full(1, 2.0)) for _ in range(2))
        res = relaxation_nash(
            g, sets, np.zeros((2, 1)), schedule=lambda k: 1.0, tol_ne=1e-9
        )
        assert res.converged
        assert np.allclose(res.x_star.ravel(), g.nash(), atol=1e-4)

    def test_infeasible_start_rejected(self):
        g = QuadraticGame()
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.full(1, 2.0)) for _ in range(2))
        with pytest.raises(ValueError):
            relaxation_nash(g, sets, np.full((2, 1), 5.0))

    def test_monotone_payoff_equilibrium_on_boundary(self):
        # with d1 = 3 and small costs every payoff increases in own action
        g = RiverPollutionGame(np.full(7, 0.2))
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.full(1, 4.0)) for _ in range(3))
        res = relaxation_nash(g, sets, np.zeros((3, 1)), tol_ne=1e-6)
        assert res.converged
        assert np.allclose(res.x_star.ravel(), 4.0, atol=1e-5)

    def test_decoupled_game_matches_grid_search(self):
        # d2 = 0 removes the interaction term: agents optimize independently
        theta = np.array([0.0, 0.9, 0.8, 0.7, 0.9, 0.8, 0.7])
        g = RiverPollutionGame(theta, d1=0.5)
        caps = [3.0, 2.0, 4.0]
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.array([c])) for c in caps)
        res = relaxation_nash(g, sets, np.zeros((3, 1)), tol_ne=1e-8)
        assert res.converged
        for i in range(3):
            grid = np.linspace(0.0, caps[i], 4001)
            vals = [
                g.payoff(np.array([grid[j] if m == i else 0.0 for m in range(3)]), i)
                for j in range(grid.size)
            ]
            best = grid[int(np.argmax(vals))]
            assert res.x_star[i, 0] == pytest.approx(best, abs=2e-3)


class TestRiverProbes:
    def test_shapes_and_coefficients(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = river_probes(g, T=6, seed=0)
        worst = g.delta.max(axis=1)
        assert len(probes) == 6
        for row in probes:
            assert len(row) == 3
            for i, f in enumerate(row):
                assert f.dim == 1
                assert f.b == g.cap
                assert 0.0 <= f.alpha[0] <= worst[i]

    def test_seeded_determinism(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        a = river_probes(g, T=4, seed=9)
        b = river_probes(g, T=4, seed=9)
        assert a == b


class TestCollectDataset:
    def test_deterministic_per_seed(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = river_probes(g, T=3, seed=1)
        d1 = collect_dataset(g, probes, N=2, jitter=0.1, seed=5)
        d2 = collect_dataset(g, probes, N=2, jitter=0.1, seed=5)
        assert np.allclose(d1.gbar, d2.gbar)

    def test_zero_jitter_gives_pure_strategies(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = river_probes(g, T=2, seed=2)
        d = collect_dataset(g, probes, N=3, jitter=0.0, seed=0)
        for row in d.strategies:
            for s in row:
                assert s.n == 3
                assert np.allclose(s.samples, s.samples[0])

    def test_monotone_payoffs_exhaust_budgets(self):
        # increasing payoffs put every equilibrium on its budget boundary
        g = RiverPollutionGame(np.full(7, 0.3))
        probes = river_probes(g, T=3, seed=3)
        d = collect_dataset(g, probes, N=1, seed=0)
        for t in range(d.T):
            for i in range(d.M):
                assert abs(d.gbar[t, t, i]) <= 1e-5

    def test_invalid_sample_count_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = river_probes(g, T=1, seed=0)
        with pytest.raises(ValueError):
            collect_dataset(g, probes, N=0)

    def test_incomplete_probe_row_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = (river_probes(g, T=1, seed=0)[0][:2],)
        with pytest.raises(ValueError):
            collect_dataset(g, probes)
