"""Unit tests for the simultaneous-perturbation tuner."""

from __future__ import annotations

import csv
import itertools
from dataclasses import replace

import numpy as np
import pytest

from pareto_forge import game, rp
from pareto_forge.experiments import river_spsa_config, run_river_spsa
from pareto_forge.game import NashConvergenceError
from pareto_forge.spsa import SPSAConfig, gains, run_mechanism_design, spsa_step


def _cfg(**overrides):
    params = dict(
        a=1.0,
        c=0.1,
        q=1e-6,
        eta=0.25,
        theta_box=np.tile([-2.0, 2.0], (2, 1)),
        max_iters=50,
        stop_tol=1e-12,
        seed=0,
    )
    params.update(overrides)
    return SPSAConfig(**params)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(a=0.0)
        with pytest.raises(ValueError):
            _cfg(c=-1.0)
        with pytest.raises(ValueError):
            _cfg(q=-1e-9)
        with pytest.raises(ValueError):
            _cfg(eta=0.1)
        with pytest.raises(ValueError):
            _cfg(theta_box=np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="max_iters must be >= 0, got -3"):
            _cfg(max_iters=-3)

    def test_projection_clamps_to_box(self):
        cfg = _cfg(theta_box=np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(cfg.project(np.array([-3.0, 0.5])), [0.0, 0.5])
        assert np.allclose(cfg.project(np.array([5.0, 5.0])), [1.0, 1.0])

    def test_round_trip_through_dict(self):
        cfg = _cfg()
        rebuilt = SPSAConfig(**{**cfg.to_dict(), "theta_box": np.asarray(cfg.to_dict()["theta_box"])})
        assert rebuilt.to_dict() == cfg.to_dict()


class TestGains:
    def test_hand_values(self):
        cfg = _cfg(a=0.5, c=0.4, q=0.01, eta=0.25)
        a1, c1, q1 = gains(1, cfg)
        assert a1 == pytest.approx(0.5)
        assert c1 == pytest.approx(0.4)
        assert q1 == pytest.approx(np.sqrt(0.01 / (4.0 * np.log(np.log(4.0)))))
        a16, c16, _ = gains(16, cfg)
        assert a16 == pytest.approx(0.5 / 16.0)
        assert c16 == pytest.approx(0.4 / 2.0)  # 16^(1/4) = 2

    def test_monotone_decay(self):
        cfg = _cfg(a=1.0, c=0.5, q=0.1, eta=0.3)
        seq = [gains(n, cfg) for n in range(1, 40)]
        for (a0, c0, q0), (a1, c1, q1) in zip(seq, seq[1:]):
            assert a1 < a0
            assert c1 < c0
            assert q1 < q0

    def test_zero_based_iteration_rejected(self):
        with pytest.raises(ValueError):
            gains(0, _cfg())


class TestStep:
    def test_iterate_stays_in_box(self):
        cfg = _cfg(theta_box=np.array([[0.0, 1.0], [0.0, 1.0]]), a=5.0, q=0.5)
        loss = lambda th: float(np.sum(th**2))  # noqa: E731
        theta = np.array([0.5, 0.5])
        for seed in range(30):
            nxt, _rec = spsa_step(theta, loss, 1, cfg, seed)
            assert np.all(nxt >= 0.0) and np.all(nxt <= 1.0)

    def test_perturbed_points_not_projected(self):
        cfg = _cfg(theta_box=np.array([[0.0, 1.0]]), c=0.5)
        seen = []
        loss = lambda th: seen.append(th.copy()) or 0.0  # noqa: E731
        spsa_step(np.array([0.0]), loss, 1, cfg, seed=0)
        # one of the two evaluations must leave the box (theta -+ c)
        assert any(p[0] < 0.0 or p[0] > 1.0 for p in seen)

    def test_scalar_affine_gradient_is_exact(self):
        # p = 1: the two-point estimate of d/dθ (3θ) is 3 for either delta sign
        cfg = _cfg(theta_box=np.array([[-5.0, 5.0]]))
        loss = lambda th: float(3.0 * th[0])  # noqa: E731
        for seed in range(10):
            _nxt, rec = spsa_step(np.array([1.0]), loss, 1, cfg, seed)
            assert rec["gradient_estimate"][0] == pytest.approx(3.0)

    def test_affine_estimator_unbiased_over_all_patterns(self):
        # averaging the estimate over all 2^p Rademacher patterns recovers the
        # exact gradient of an affine loss (per-pattern estimates are biased)
        b = np.array([1.5, -2.0, 0.5])
        c_n = 0.2
        grads = []
        for pattern in itertools.product([-1.0, 1.0], repeat=3):
            delta = np.array(pattern)
            r1 = float(b @ (c_n * delta))
            r2 = float(b @ (-c_n * delta))
            grads.append((r1 - r2) / (2.0 * c_n * delta))
        assert np.allclose(np.mean(grads, axis=0), b, atol=1e-12)

    def test_record_contents(self):
        cfg = _cfg()
        loss = lambda th: float(np.sum(th**2))  # noqa: E731
        _nxt, rec = spsa_step(np.array([1.0, 1.0]), loss, 3, cfg, seed=1)
        assert rec["n"] == 3
        assert set(np.unique(rec["delta"])) <= {-1.0, 1.0}
        a_n, c_n, q_n = gains(3, cfg)
        assert rec["a_n"] == a_n and rec["c_n"] == c_n and rec["q_n"] == q_n


class TestRun:
    @staticmethod
    def _quadratic_loss(target):
        def loss(theta, seed):
            del seed
            return float(np.sum((np.asarray(theta) - target) ** 2))

        return loss

    def test_quadratic_convergence(self):
        target = np.array([0.7, -0.3])
        cfg = _cfg(max_iters=500)
        trace = run_mechanism_design(self._quadratic_loss(target), cfg, theta0=np.array([1.8, 1.8]))
        final = trace.records[-1].theta
        assert np.linalg.norm(final - target) < 0.05

    def test_noise_free_runs_reduce_loss_on_average(self):
        # q = 0 disables the annealing noise; on a convex loss the final loss
        # should beat the initial one for most seeds
        target = np.zeros(2)
        deltas = []
        for seed in range(50):
            cfg = _cfg(q=0.0, max_iters=40, seed=seed)
            trace = run_mechanism_design(self._quadratic_loss(target), cfg)
            deltas.append(trace.records[-1].loss - trace.records[0].loss)
        assert np.mean(deltas) < 0.0

    def test_stop_tol_terminates_early(self):
        cfg = _cfg(stop_tol=1e-3, max_iters=500)
        trace = run_mechanism_design(
            self._quadratic_loss(np.zeros(2)), cfg, theta0=np.array([0.5, 0.5])
        )
        assert len(trace.records) < 500
        assert trace.records[-1].loss <= 1e-3
        assert trace.records[-1].gradient_estimate is None

    @pytest.mark.parametrize("theta0", [[0.2], [0.2, 0.2, 0.2], [[0.2, 0.2]]])
    def test_theta0_of_another_shape_is_rejected(self, theta0):
        # a short theta0 would otherwise broadcast to every coordinate
        calls = []
        with pytest.raises(ValueError, match=r"theta0 must have shape \(2,\)"):
            run_mechanism_design(lambda th, s: calls.append(th) or 1.0, _cfg(), theta0=theta0)
        assert not calls

    def test_bit_reproducible(self):
        cfg = _cfg(max_iters=20, seed=7)
        loss = self._quadratic_loss(np.array([0.2, 0.2]))
        t1 = run_mechanism_design(loss, cfg)
        t2 = run_mechanism_design(loss, cfg)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(t1.thetas, t2.thetas)

    def test_retries_on_equilibrium_failures(self):
        calls = {"n": 0}

        def flaky(theta, seed):
            calls["n"] += 1
            if calls["n"] % 3 != 0:
                raise NashConvergenceError("equilibrium failure")
            return float(np.sum(np.asarray(theta) ** 2))

        cfg = _cfg(max_iters=3)
        trace = run_mechanism_design(flaky, cfg, theta0=np.array([1.0, 1.0]))
        assert len(trace.records) == 3

    def test_persistent_failure_raises(self):
        def broken(theta, seed):
            raise NashConvergenceError("always fails")

        cfg = _cfg(max_iters=2)
        with pytest.raises(RuntimeError, match="after 3 attempts"):
            run_mechanism_design(broken, cfg)

    def test_other_failures_are_not_retried(self):
        calls = []

        def broken(theta, seed):
            calls.append(seed)
            raise RuntimeError("certificate failed validation at r = 0.0")

        with pytest.raises(RuntimeError, match="^certificate failed validation"):
            run_mechanism_design(broken, _cfg(max_iters=2))
        assert len(calls) == 1

    def test_river_certificate_failure_is_raised(self, monkeypatch):
        # a gap certificate that does not validate must not be replaced by another probe set's loss
        def bad_point(gbar_i, r):
            T = gbar_i.shape[0]
            return np.arange(T) * 100.0, np.ones(T)

        monkeypatch.setattr(rp, "_agent_certificate", bad_point)
        with pytest.raises(RuntimeError, match="^certificate failed validation"):
            run_river_spsa(river_spsa_config(seed=1, max_iters=1, T=3))

    def test_river_nash_failure_is_retried(self, monkeypatch):
        solve = game.relaxation_nash
        calls = []

        def first_fails(g, lo, hi, *args, **kwargs):
            res = solve(g, lo, hi, *args, **kwargs)
            calls.append((hi, res))
            if len(calls) == 1:
                return replace(res, play_converged=np.zeros_like(res.play_converged))
            return res

        monkeypatch.setattr(game, "relaxation_nash", first_fails)
        trace = run_river_spsa(river_spsa_config(seed=1, max_iters=1, T=3))
        assert len(trace.records) == 1
        # one stacked solve of all T = 3 periods fails, then one retry on fresh probes
        assert len(calls) == 2
        assert [len(res.steps) for _, res in calls] == [3, 3]
        assert not np.array_equal(calls[0][0], calls[1][0])


class TestTraceOutput:
    def test_csv_layout(self, tmp_path):
        cfg = _cfg(max_iters=5)
        trace = run_mechanism_design(
            TestRun._quadratic_loss(np.zeros(2)), cfg, theta0=np.array([1.0, -1.0])
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "loss", "theta_1", "theta_2", "a_n", "c_n", "q_n"]
        assert len(rows) == 1 + len(trace.records)
        assert float(rows[1][1]) == pytest.approx(trace.records[0].loss)
        assert float(rows[1][2]) == pytest.approx(1.0)

    def test_manifest_hash_is_stable(self, tmp_path):
        cfg = _cfg(max_iters=5, seed=3)
        loss = TestRun._quadratic_loss(np.zeros(2))
        m1 = run_mechanism_design(loss, cfg).manifest(cfg)
        m2 = run_mechanism_design(loss, cfg).manifest(cfg)
        assert m1["content_hash"] == m2["content_hash"]
        assert m1["iterations"] == 5
        other = run_mechanism_design(loss, _cfg(max_iters=5, seed=4)).manifest(
            _cfg(max_iters=5, seed=4)
        )
        assert other["content_hash"] != m1["content_hash"]
