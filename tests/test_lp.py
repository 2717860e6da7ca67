"""Unit tests for the LP backend (HiGHS dual simplex behind a verification
check) and its cross-check against brute-force vertex enumeration."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_forge
from pareto_forge.lp import (
    LinearProgram,
    LPResult,
    SimplexSolver,
    Status,
    feasible,
    solve,
)


def _lp(c, A, b, lower=None, upper=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return LinearProgram(c, np.asarray(A, dtype=float), np.asarray(b, dtype=float), lower, upper)


class TestSimplexBasics:
    def test_lower_bound_active(self):
        # min x subject to x >= 3
        res = solve(_lp([1.0], np.zeros((0, 1)), [], lower=[3.0]))
        assert res.status is Status.OPTIMAL
        assert res.x[0] == pytest.approx(3.0)
        assert res.objective == pytest.approx(3.0)

    def test_infeasible_pair(self):
        # x <= 1 and -x <= -2 cannot both hold
        res = solve(_lp([0.0], [[1.0], [-1.0]], [1.0, -2.0]))
        assert res.status is Status.INFEASIBLE

    def test_unbounded(self):
        res = solve(_lp([1.0], np.zeros((0, 1)), []))
        assert res.status is Status.UNBOUNDED

    def test_two_variable_vertex(self):
        # min -x - y s.t. x + y <= 1, x, y >= 0: optimum on the facet, value -1
        res = solve(_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0], lower=[0.0, 0.0]))
        assert res.status is Status.OPTIMAL
        assert res.objective == pytest.approx(-1.0)
        assert res.x.sum() == pytest.approx(1.0)

    def test_box_constrained_vertex(self):
        # min -2x - y over the unit box: optimum at the (1, 1) corner
        res = solve(
            _lp([-2.0, -1.0], np.zeros((0, 2)), [], lower=[0.0, 0.0], upper=[1.0, 1.0])
        )
        assert res.status is Status.OPTIMAL
        assert np.allclose(res.x, [1.0, 1.0])
        assert res.objective == pytest.approx(-3.0)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            _lp([1.0], np.zeros((0, 1)), [], lower=[2.0], upper=[1.0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            LinearProgram(
                np.array([1.0, 2.0]),
                np.zeros((1, 2)),
                np.zeros(2),
                np.zeros(2),
                np.ones(2),
            )


class TestDuality:
    def test_weak_duality_spot_check(self):
        # min c'x s.t. Ax <= b, x >= 0; dual: max -b'y s.t. -A'y <= c, y >= 0.
        c = np.array([2.0, 3.0])
        A = np.array([[-1.0, -2.0], [-3.0, -1.0]])
        b = np.array([-4.0, -6.0])
        res = solve(_lp(c, A, b, lower=[0.0, 0.0]))
        assert res.status is Status.OPTIMAL
        dual = solve(_lp(b, -A.T, c, lower=[0.0, 0.0]))
        assert dual.status is Status.OPTIMAL
        assert res.objective == pytest.approx(-dual.objective, abs=1e-7)


def _vertex_optimum(lp, tol=1e-9):
    """min c'x by enumerating every vertex of a bounded LP (slow reference).

    Stacks rows and finite bounds into G x <= h and solves each n-subset of
    them as equalities; the best feasible solution is the optimum.
    """
    n = lp.c.size
    eye = np.eye(n)
    lo, hi = np.isfinite(lp.lower), np.isfinite(lp.upper)
    G = np.vstack([lp.A, -eye[lo], eye[hi]])
    h = np.concatenate([lp.b, -lp.lower[lo], lp.upper[hi]])
    best = np.inf
    for rows in itertools.combinations(range(G.shape[0]), n):
        sub = G[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, h[list(rows)])
        if np.all(G @ x <= h + tol):
            best = min(best, float(lp.c @ x))
    return best


class TestBackendAgreement:
    def _random_lp(self, rng, n=4, m=6):
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)  # keep x0 feasible => LP feasible
        b = A @ x0 + rng.uniform(0.0, 1.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        return _lp(c, A, b, lower=np.zeros(n), upper=np.full(n, 5.0))

    def test_matches_vertex_enumeration_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            lp = self._random_lp(rng)
            res = solve(lp)
            assert res.status is Status.OPTIMAL
            assert res.objective == pytest.approx(_vertex_optimum(lp), abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
    def test_row_scaling_leaves_optimum_unchanged(self, seed, scale):
        rng = np.random.default_rng(seed)
        lp = self._random_lp(rng)
        A = lp.A.copy()
        b = lp.b.copy()
        A[0] *= scale
        b[0] *= scale
        scaled = _lp(lp.c, A, b, lower=lp.lower, upper=lp.upper)
        r1 = solve(lp)
        r2 = solve(scaled)
        assert r1.status is r2.status is Status.OPTIMAL
        assert r1.objective == pytest.approx(r2.objective, abs=1e-6)


class TestFeasibleHelper:
    def test_witness_satisfies_system(self):
        A = np.array([[1.0, 1.0], [-1.0, 0.0]])
        b = np.array([2.0, -0.5])
        ok, x = feasible(A, b, lower=np.zeros(2), upper=np.full(2, np.inf))
        assert ok
        assert np.all(A @ x <= b + 1e-6)
        assert np.all(x >= -1e-6)

    def test_infeasible_reports_no_witness(self):
        ok, x = feasible(
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -2.0]),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
        )
        assert not ok
        assert x is None

    def test_optimal_is_always_verified(self):
        # any Optimal verdict must come with a feasible point, by contract
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            res = solve(_lp(rng.normal(size=n), A, b, lower=np.zeros(n), upper=np.ones(n)))
            if res.status is Status.OPTIMAL:
                assert np.all(A @ res.x <= b + 1e-6)
                assert np.all(res.x >= -1e-6) and np.all(res.x <= 1.0 + 1e-6)


class TestFailuresSurface:
    def test_numerical_verdict_raises_from_feasible(self, monkeypatch):
        # no second backend may turn a NUMERICAL verdict into an answer
        monkeypatch.setattr(SimplexSolver, "solve", lambda self, lp: LPResult(Status.NUMERICAL))
        with pytest.raises(RuntimeError, match="numerical"):
            feasible(np.array([[1.0]]), np.array([1.0]), lower=[0.0], upper=[np.inf])

    def test_unverified_optimum_is_numerical(self, monkeypatch):
        # HiGHS reports success with a point that breaks the row x <= 1
        def fake_linprog(c, **kwargs):
            return SimpleNamespace(status=0, x=np.array([2.0]))

        monkeypatch.setattr(scipy.optimize, "linprog", fake_linprog)
        res = solve(_lp([1.0], [[1.0]], [1.0], lower=[0.0]))
        assert res.status is Status.NUMERICAL
        assert res.x is None


def test_package_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: this one has scipy.optimize loaded already
    src = str(Path(pareto_forge.__file__).parents[1])
    code = "import sys, pareto_forge; print('scipy.optimize' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
