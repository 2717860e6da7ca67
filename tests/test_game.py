"""Unit tests for games, exact best responses, Nash computation and dataset collection."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import game
from pareto_forge.core import ConstraintFunction, Family
from pareto_forge.game import (
    MAX_OUTER,
    TOL_NE,
    AgentFeasibleSet,
    GameInterface,
    NashConvergenceError,
    RiverPollutionGame,
    best_deviation,
    collect_dataset,
    nikaido_isoda,
    probe_bounds,
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

    def _targets(self, X):
        # agent i's target from the other agent's action, per play
        return self.b * np.asarray(X, dtype=float)[:, ::-1] + self.t

    def deviation_payoffs(self, X, Y):
        Y = np.asarray(Y, dtype=float)
        target = self._targets(X)
        return -((Y - (target[..., None] if Y.ndim == 3 else target)) ** 2)

    def best_responses(self, X, lo, hi):
        return np.clip(self._targets(X), lo, hi)

    def nash(self):
        A = np.array([[1.0, -self.b[0]], [-self.b[1], 1.0]])
        return np.linalg.solve(A, self.t)


class TestAgentFeasibleSet:
    def test_project_clips_to_interval(self):
        fs = AgentFeasibleSet(np.array([1.0]), np.array([2.0]))
        assert np.array_equal(fs.project([3.0]), [2.0])
        assert np.array_equal(fs.project([-1.0]), [1.0])

    def test_project_is_identity_on_feasible_points(self):
        fs = AgentFeasibleSet(np.zeros(1), np.array([5.0]))
        assert np.allclose(fs.project([2.0]), [2.0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AgentFeasibleSet(np.ones(2), np.zeros(2))


# --- serial reference for budget intervals: one probe at a time ---------------


def _budget_rhs(probe):
    """rhs of an affine probe's budget <alpha, x> <= rhs, i.e. g(x) <= 0."""
    if probe.family is not Family.AFFINE:
        raise ValueError("only affine probes define a polyhedral feasible set")
    # g(x) = <alpha, x - a_t*beta> - b <= 0
    rhs = probe.b
    if probe.a_t:
        alpha = np.asarray(probe.alpha, dtype=float)
        rhs += float(alpha @ (probe.a_t * np.asarray(probe.beta, dtype=float)))
    return rhs


def _budget_upper(alpha, rhs):
    """Largest x_j >= 0 with alpha_j * x_j <= rhs: +inf where alpha_j <= 0."""
    hi = np.where(alpha > 0, rhs / np.where(alpha > 0, alpha, 1.0), np.inf)
    return np.maximum(hi, 0.0)


def _serial_feasible_set(probe):
    """Budget interval {x >= 0 : g(x) <= 0} of one scalar affine probe."""
    upper = _budget_upper(np.asarray(probe.alpha, dtype=float), _budget_rhs(probe))
    return AgentFeasibleSet(np.zeros(1), upper)


# signed zeros, subnormal and huge magnitudes, and ordinary values of both signs
_coef = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]) | st.floats(-10.0, 10.0)


@st.composite
def _scalar_probe(draw):
    f = ConstraintFunction(Family.AFFINE, 1, alpha=(draw(_coef),), b=draw(_coef))
    if draw(st.booleans()):
        f = f.shifted(draw(_coef), (draw(_coef),))
    return f


class TestProbeFeasibleSet:
    def test_interval_for_scalar_probe(self):
        f = ConstraintFunction(Family.AFFINE, 1, alpha=(2.0,), b=10.0)
        lo, hi = probe_bounds(((f,),), 1)
        assert lo[0, 0] == 0.0
        assert hi[0, 0] == pytest.approx(5.0)

    def test_shift_moves_interval(self):
        f = ConstraintFunction(Family.AFFINE, 1, alpha=(2.0,), b=10.0)
        _lo, hi = probe_bounds(((f.shifted(1.0, (1.0,)),),), 1)
        assert hi[0, 0] == pytest.approx(6.0)

    def test_multivariate_probe_rejected(self):
        f = ConstraintFunction(Family.AFFINE, 2, alpha=(1.0, 2.0), b=4.0)
        with pytest.raises(ValueError, match="play needs interval budgets"):
            probe_bounds(((f,),), 1)

    def test_non_affine_probe_rejected(self):
        with pytest.raises(ValueError, match=r"block \(s=0, i=0\): only affine"):
            probe_bounds(((ConstraintFunction(Family.LOG_SIGMOID, 1),),), 1)

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would fail the test
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "fields",
        [
            lambda x: {"alpha": (x,)},
            lambda x: {"b": x},
            lambda x: {"a_t": x, "beta": (1.0,)},
            lambda x: {"a_t": 1.0, "beta": (x,)},
        ],
        ids=["alpha", "b", "a_t", "beta"],
    )
    def test_non_finite_coefficient_rejected_where_it_enters(self, fields, bad):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = [list(row) for row in river_probes(g, T=2, seed=0)]
        probes[1][2] = replace(probes[1][2], **fields(bad))
        probes = tuple(map(tuple, probes))
        match = r"^constraint \(1,2\) has a non-finite coefficient$"
        with pytest.raises(ValueError, match=match):
            probe_bounds(probes, 3)
        with pytest.raises(ValueError, match=match):
            collect_dataset(g, probes)

    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(1, 4), M=st.integers(1, 3), data=st.data())
    def test_matches_the_serial_reference(self, T, M, data):
        probes = tuple(tuple(data.draw(_scalar_probe()) for _ in range(M)) for _ in range(T))
        # huge coefficients overflow to inf on both paths alike
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = probe_bounds(probes, M)
            ref = [[_serial_feasible_set(p).upper for p in row] for row in probes]
        assert lo.tobytes() == np.zeros((T, M)).tobytes()
        assert hi.tobytes() == np.concatenate([np.concatenate(row) for row in ref]).tobytes()


class TestRiverPollutionGame:
    def test_payoff_hand_value(self):
        theta = np.array([0.5, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3])
        g = RiverPollutionGame(theta)
        x = np.array([4.0, 1.0, 4.0])
        # agent 0: 3*4 - 0.5*sqrt(9) - 0.2*sqrt(4) - 0.1*4
        assert g.payoff(x, 0) == pytest.approx(12.0 - 1.5 - 0.4 - 0.4)
        # agent 2: 3*4 - 0.5*3 - 0.4*2 - 0.3*4
        assert g.payoff(x, 2) == pytest.approx(12.0 - 1.5 - 0.8 - 1.2)

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


# --- serial reference: one play, one agent and one np.roots call at a time -----


def _serial_payoff(g, x, i):
    x = np.asarray(x, dtype=float).reshape(g.M)
    if np.any(x < 0):
        raise ValueError("actions must be non-negative")
    d2, c1, c2 = g.theta[0], g.theta[1 + i], g.theta[4 + i]
    return float(g.d1 * x[i] - d2 * np.sqrt(x.sum()) - c1 * np.sqrt(x[i]) - c2 * x[i])


def _serial_best_response(g, x, i, fs):
    lo, hi = float(fs.lower[0]), float(fs.upper[0])
    if not np.isfinite(hi):
        raise ValueError(f"agent {i} has an unbounded budget: upper bound {hi}")
    x = np.asarray(x, dtype=float).reshape(g.M)
    s = x.sum() - x[i]
    d2, c1 = g.theta[0], g.theta[1 + i]
    a = g.d1 - g.theta[4 + i]
    quartic = np.array([4 * a * a, -4 * a * c1, c1 * c1 + 4 * a * a * s - d2 * d2, -4 * a * c1 * s, c1 * c1 * s])
    # the stacked path's guard: strip a leading coefficient whose companion row overflows
    quartic = np.trim_zeros(quartic, "f")
    with np.errstate(over="ignore"):
        while quartic.size > 1 and not np.isfinite(quartic[1:] / quartic[0]).all():
            quartic = np.trim_zeros(quartic[1:], "f")
        squares = np.roots(quartic).real ** 2
    cands = np.concatenate([[lo, hi], np.clip(squares, lo, hi)])

    def value(c):
        joint = x.copy()
        joint[i] = c
        return _serial_payoff(g, joint, i)

    return np.array([max(cands, key=value)])


def _serial_deviation(g, x, sets):
    z = x.copy()
    for i in range(g.M):
        z[i] = _serial_best_response(g, x, i, sets[i])
    return z


def _serial_ni(g, x, y):
    total = 0.0
    for i in range(g.M):
        xi = x.copy()
        xi[i] = y[i]
        total += _serial_payoff(g, xi, i) - _serial_payoff(g, x, i)
    return float(total)


def _serial_nash(g, sets, x):
    """One period's relaxation loop: (x, residual, iterations, converged)."""
    for k in range(MAX_OUTER):
        z = _serial_deviation(g, x, sets)
        residual = _serial_ni(g, x, z)
        if residual <= TOL_NE:
            return x, residual, k, True
        x = (1.0 - 1.0 / (k + 1)) * x + 1.0 / (k + 1) * z
    residual = _serial_ni(g, x, _serial_deviation(g, x, sets))
    return x, residual, MAX_OUTER, residual <= TOL_NE


def _serial_collect(g, probes, N, jitter, seed):
    """Samples of every (period, agent), solving the periods one after another."""
    period_seeds = np.random.SeedSequence(seed).spawn(len(probes))
    rows = []
    for t, row in enumerate(probes):
        sets = tuple(_serial_feasible_set(p) for p in row)
        x0 = np.stack(
            [
                fs.project(0.5 * (fs.lower + np.where(np.isfinite(fs.upper), fs.upper, fs.lower + 1.0)))
                for fs in sets
            ]
        )
        x, residual, n, ok = _serial_nash(g, sets, x0)
        if not ok:
            raise NashConvergenceError(
                f"Nash computation failed at period {t}: residual {residual:.3e} after {n} iterations"
            )
        rng = np.random.default_rng(period_seeds[t])
        samples = []
        for i in range(g.M):
            if jitter > 0:
                pts = x[i][None, :] + rng.uniform(-jitter, jitter, size=(N, 1))
                samples.append(np.stack([sets[i].project(p) for p in pts]))
            else:
                samples.append(np.repeat(x[i][None, :], N, axis=0))
        rows.append(samples)
    return rows


def _interval_stack(lo, hi, shape):
    return np.full(shape, float(lo)), np.full(shape, float(hi))


class TestBestResponse:
    def test_quadratic_game_closed_form(self):
        g = QuadraticGame()
        lo, hi = _interval_stack(0.0, 2.0, (1, 2))
        assert g.best_responses(np.array([[0.0, 1.0]]), lo, hi)[0, 0] == pytest.approx(0.8)
        # the target 0.5 + 0.3 * 10 lies above the box and is clipped
        assert g.best_responses(np.array([[0.0, 10.0]]), lo, hi)[0, 0] == pytest.approx(2.0)

    def test_best_deviation_stacks_best_responses(self):
        g = RiverPollutionGame(np.array([0.0, -1.0, 0.3, 0.3, 1.0, 0.2, 0.2]), d1=0.5)
        lo, hi = _interval_stack(0.0, 4.0, (2, 3))
        x = np.array([[2.0, 1.0, 3.0], [0.0, 0.5, 0.0]])
        z = best_deviation(g, x, lo, hi)
        assert np.array_equal(z, g.best_responses(x, lo, hi))
        sets = tuple(AgentFeasibleSet(np.zeros(1), np.full(1, 4.0)) for _ in range(3))
        for p in range(2):
            for i in range(3):
                assert np.array_equal(z[p, i : i + 1], _serial_best_response(g, x[p], i, sets[i]))

    def test_river_interior_hand_value(self):
        # d2 = 0, c1 = -1, c2 = 1, d1 = 0.5: agent 0 maximises sqrt(x) - x / 2,
        # whose stationary point x = 1 is inside the budget [0, 4]
        g = RiverPollutionGame(np.array([0.0, -1.0, 0.3, 0.3, 1.0, 0.2, 0.2]), d1=0.5)
        lo, hi = _interval_stack(0.0, 4.0, (1, 3))
        assert g.best_responses(np.zeros((1, 3)), lo, hi)[0, 0] == 1.0

    def test_river_convex_payoff_picks_an_endpoint(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        lo, hi = _interval_stack(0.5, 7.0, (1, 3))
        assert g.best_responses(np.array([[1.0, 2.0, 3.0]]), lo, hi)[0, 1] in (0.5, 7.0)

    def test_river_unbounded_budget_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        lo, hi = _interval_stack(0.0, 4.0, (2, 3))
        hi[1, 2] = np.inf
        with pytest.raises(ValueError, match="agent 2 has an unbounded"):
            g.best_responses(np.zeros((2, 3)), lo, hi)

    def test_river_halfspace_set_rejected(self):
        # a two-dimensional probe gives a halfspace, not an interval budget
        g = RiverPollutionGame(np.full(7, 0.5))
        row = river_probes(g, T=1, seed=0)[0]
        wide = ConstraintFunction(Family.AFFINE, 2, alpha=(1.0, 2.0), b=4.0)
        with pytest.raises(ValueError, match="interval"):
            collect_dataset(g, ((row[0], wide, row[2]),))

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
            xi = g.best_responses(x[None, :], *_interval_stack(lo, hi, (1, 3)))[0, i : i + 1]
            assert lo <= xi[0] <= hi
            joint = x.copy()
            joint[i] = xi[0]
            assert g.payoff(joint, i) >= _river_grid_max(g, x, i, lo, hi) - 1e-12


    def test_river_subnormal_leading_coefficient(self):
        # agent 1 has a = d1 - c2 = -5e-324: 4a² underflows to 0 and the companion
        # row of the subnormal -4a·c1 overflows, which once made eigvals raise
        g = RiverPollutionGame(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 5e-324, 0.0]), d1=0.0, cap=1.0)
        probes = river_probes(g, T=1, seed=0)
        d = collect_dataset(g, probes)
        X = np.array([[d.strategies[0][i].samples[0, 0] for i in range(g.M)]])
        lo, hi = probe_bounds(probes, g.M)
        Z = g.best_responses(X, lo, hi)
        assert np.all((lo <= Z) & (Z <= hi))
        grid = np.linspace(lo, hi, 20_001, axis=-1)  # (1, M, 20001)
        best = g.deviation_payoffs(X, Z)
        assert np.all(best >= g.deviation_payoffs(X, grid).max(axis=-1) - 1e-12)


class TestStackedPlayMatchesSerialReference:
    """The stacked path gives the serial per-agent, per-period results bit for bit."""

    @staticmethod
    def _assert_matches_serial(g, X, lo, hi):
        Z = g.best_responses(X, lo, hi)
        for p in range(len(X)):
            for i in range(g.M):
                fs = AgentFeasibleSet(lo[p, i : i + 1], hi[p, i : i + 1])
                assert Z[p, i] == _serial_best_response(g, X[p], i, fs)[0]

    @pytest.mark.parametrize(
        "theta, d1, case",
        [
            # d1 == c2 of agent 0: a = 0 zeroes the two leading coefficients
            ([0.5, 0.3, 0.4, 0.5, 0.7, 0.3, 0.4], 0.7, "leading zeros"),
            # c1 of agent 1 is 0 (SPSA clips θ to the box edge): two trailing zeros
            ([0.5, 0.3, 0.0, 0.5, 0.2, 0.3, 0.4], 3.0, "trailing zeros"),
            # d2 == c1 of agent 2 with s = 0: three trailing zeros, degree 1
            ([0.5, 0.3, 0.4, 0.5, 0.2, 0.3, 0.4], 3.0, "degree one"),
            # d2 = 0, c1 = 0 and d1 == c2 for agent 0: an all-zero quartic
            ([0.0, 0.0, 0.4, 0.5, 1.5, 0.3, 0.4], 1.5, "all zero"),
            # a = -5e-324 for agent 1: the leading coefficient is subnormal
            ([0.0, 0.0, 1.0, 0.0, 0.0, 5e-324, 0.0], 0.0, "subnormal leading"),
        ],
    )
    def test_degenerate_quartics(self, theta, d1, case):
        g = RiverPollutionGame(np.array(theta), d1=d1)
        # rows with s = 0 for every agent (the others idle) and generic rows, so
        # one stack mixes companion sizes
        X = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.5], [1.0, 2.5, 0.25], [0.0, 3.0, 0.0]])
        lo = np.array([[0.0] * 3, [0.5] * 3, [0.0] * 3, [0.2, 0.0, 1.0], [0.0] * 3])
        hi = np.array([[4.0] * 3, [4.0] * 3, [0.75] * 3, [9.0, 3.0, 2.0], [100.0] * 3])
        self._assert_matches_serial(g, X, lo, hi)

    def test_all_zero_quartic_keeps_the_lower_end(self):
        g = RiverPollutionGame(np.array([0.0, 0.0, 0.4, 0.5, 1.5, 0.3, 0.4]), d1=1.5)
        # agent 0's payoff is 0 on the whole interval: the first candidate wins
        assert g.best_responses(np.array([[2.0, 1.0, 1.0]]), *_interval_stack(0.5, 3.0, (1, 3)))[0, 0] == 0.5

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_best_responses_match_on_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-2.0, 3.0, 7) * (rng.random(7) < 0.8)
        g = RiverPollutionGame(theta, d1=float(rng.choice([rng.uniform(0.0, 3.5), theta[4]])))
        X = rng.uniform(0.0, 10.0, (12, 3)) * (rng.random((12, 3)) < 0.7)
        lo = rng.uniform(0.0, 2.0, (12, 3)) * (rng.random((12, 3)) < 0.5)
        hi = lo + rng.uniform(0.0, 20.0, (12, 3)) * (rng.random((12, 3)) < 0.9)
        self._assert_matches_serial(g, X, lo, hi)

    @settings(max_examples=25, deadline=None)
    @given(
        theta=st.lists(st.floats(-0.5, 1.5), min_size=7, max_size=7),
        d1=st.floats(0.0, 3.5),
        cap=st.sampled_from([1.0, 10.0, 100.0]),
        T=st.integers(1, 6),
        N=st.integers(1, 3),
        jitter=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 1_000),
    )
    def test_collect_dataset_matches(self, theta, d1, cap, T, N, jitter, seed):
        # periods converge at different steps here, and some never do
        g = RiverPollutionGame(np.array(theta), d1=d1, cap=cap)
        probes = river_probes(g, T, seed=seed)
        try:
            expected = _serial_collect(g, probes, N, jitter, seed)
        except (NashConvergenceError, np.linalg.LinAlgError, RuntimeWarning) as err:
            with pytest.raises(type(err)) as got:
                collect_dataset(g, probes, N=N, jitter=jitter, seed=seed)
            assert str(got.value) == str(err)
            return
        d = collect_dataset(g, probes, N=N, jitter=jitter, seed=seed)
        for t in range(T):
            for i in range(g.M):
                assert np.array_equal(d.strategies[t][i].samples, expected[t][i])


class TestNikaidoIsoda:
    def test_zero_on_diagonal(self):
        g = QuadraticGame()
        x = np.array([[0.2, 0.7]])
        assert nikaido_isoda(g, x, x)[0] == 0.0

    def test_hand_value(self):
        g = QuadraticGame(b=(0.0, 0.0), t=(1.0, 2.0))
        x = np.zeros((1, 2))
        y = np.array([[1.0, 2.0]])
        # deviating to each target gains t_i^2 per agent
        assert nikaido_isoda(g, x, y)[0] == pytest.approx(1.0 + 4.0)

    def test_nonnegative_at_best_deviation(self):
        g = QuadraticGame()
        lo, hi = _interval_stack(0.0, 2.0, (1, 2))
        x = np.array([[0.1, 0.9]])
        z = best_deviation(g, x, lo, hi)
        assert nikaido_isoda(g, x, z)[0] >= -1e-12


class TestRelaxationNash:
    def test_quadratic_game_reaches_closed_form(self):
        g = QuadraticGame()
        res = relaxation_nash(
            g, np.zeros(2), np.full(2, 2.0), np.zeros(2), schedule=lambda k: 1.0, tol_ne=1e-9
        )
        assert res.converged
        assert np.allclose(res.x_star.ravel(), g.nash(), atol=1e-4)

    def test_infeasible_start_rejected(self):
        g = QuadraticGame()
        with pytest.raises(ValueError, match="x0 infeasible for agent 0"):
            relaxation_nash(g, np.zeros(2), np.full(2, 2.0), np.full(2, 5.0))

    def test_monotone_payoff_equilibrium_on_boundary(self):
        # with d1 = 3 and small costs every payoff increases in own action
        g = RiverPollutionGame(np.full(7, 0.2))
        res = relaxation_nash(g, np.zeros(3), np.full(3, 4.0), np.zeros(3), tol_ne=1e-6)
        assert res.converged
        assert np.allclose(res.x_star.ravel(), 4.0, atol=1e-5)

    def test_decoupled_game_matches_grid_search(self):
        # d2 = 0 removes the interaction term: agents optimize independently
        theta = np.array([0.0, 0.9, 0.8, 0.7, 0.9, 0.8, 0.7])
        g = RiverPollutionGame(theta, d1=0.5)
        caps = [3.0, 2.0, 4.0]
        res = relaxation_nash(g, np.zeros(3), np.array(caps), np.zeros(3), tol_ne=1e-8)
        assert res.converged
        for i in range(3):
            grid = np.linspace(0.0, caps[i], 4001)
            vals = [
                g.payoff(np.array([grid[j] if m == i else 0.0 for m in range(3)]), i)
                for j in range(grid.size)
            ]
            best = grid[int(np.argmax(vals))]
            assert res.x_star[0, i, 0] == pytest.approx(best, abs=2e-3)

    def test_lanes_equal_plays_solved_alone(self):
        # periods 1 and 2 never converge, periods 0 and 3 converge after one step
        g = RiverPollutionGame(np.array([1.4, 0.7, 0.7, 1.4, 1.1, 1.1, -0.4]), d1=1.3, cap=1.0)
        lo, hi = probe_bounds(river_probes(g, 4, seed=0), g.M)
        x0 = 0.5 * (lo + hi)
        res = relaxation_nash(g, lo, hi, x0)
        assert res.steps.tolist() == [1, MAX_OUTER, MAX_OUTER, 1]
        assert res.play_converged.tolist() == [True, False, False, True]
        assert not res.converged
        assert res.iterations == 2 + 2 * MAX_OUTER
        assert res.ni_residual == res.residuals.max()
        for p in range(4):
            alone = relaxation_nash(g, lo[p], hi[p], x0[p])
            assert np.array_equal(alone.x_star[0], res.x_star[p])
            assert (alone.residuals[0], alone.steps[0]) == (res.residuals[p], res.steps[p])


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

    def test_empty_probe_table_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        with pytest.raises(ValueError, match="empty"):
            collect_dataset(g, ())

    def test_incomplete_probe_row_rejected(self):
        g = RiverPollutionGame(np.full(7, 0.5))
        probes = (river_probes(g, T=1, seed=0)[0][:2],)
        with pytest.raises(ValueError):
            collect_dataset(g, probes)

    def test_nonconvergence_names_the_first_failing_period(self):
        # period 2 never converges; periods 0, 1 and 3 converge after one step
        g = RiverPollutionGame(np.array([1.2, 1.4, 0.8, 1.4, 0.5, 0.5, -0.4]), d1=1.3, cap=1.0)
        probes = river_probes(g, T=4, seed=0)
        with pytest.raises(
            NashConvergenceError,
            match=r"^Nash computation failed at period 2: residual 1\.685e-01 after 500 iterations$",
        ):
            collect_dataset(g, probes)

    def test_one_best_deviation_per_relaxation_step(self, monkeypatch):
        # every period is a lane of one stacked solve, not a solve of its own
        g = RiverPollutionGame(np.array([0.5, 0.3, 0.4, 0.5, 0.2, 0.3, 0.4]))
        probes = river_probes(g, T=10, seed=0)
        deviate, solve = game.best_deviation, game.relaxation_nash
        stacks, results = [], []

        def counted_deviation(g, x, lo, hi):
            stacks.append(len(x))
            return deviate(g, x, lo, hi)

        def recorded_solve(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(game, "best_deviation", counted_deviation)
        monkeypatch.setattr(game, "relaxation_nash", recorded_solve)
        collect_dataset(g, probes)
        assert len(results) == 1
        assert len(stacks) == results[0].steps.max() + 1
        assert stacks[0] == 10
