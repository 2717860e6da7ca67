"""Unit tests for the distributionally-robust gap estimation loop."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pareto_forge.core import (
    ConstraintFunction,
    EmpiricalStrategy,
    Family,
    RPDataset,
    affine_budgets,
    budget_values,
    eval_constraint_many,
)
from pareto_forge.dro import (
    DROConfig,
    DROState,
    PsiVector,
    ScenarioSet,
    exchange_loop,
    h_value,
    master_solve,
    robust_gap,
    wasserstein_ball_check,
)
from pareto_forge import dro
from pareto_forge.rp import pareto_gap
from pareto_forge.synthetic import dro_instance


def _affine(alpha, b):
    alpha = tuple(float(a) for a in np.atleast_1d(alpha))
    return ConstraintFunction(Family.AFFINE, len(alpha), alpha=alpha, b=float(b))


def _small_dataset(N=2):
    """T=2, M=1, k=1 dataset with unit budgets and interior samples."""
    cons = (
        (_affine([1.0], 1.0),),
        (_affine([0.5], 1.0),),
    )
    s1 = EmpiricalStrategy(np.linspace(0.3, 0.5, N)[:, None])
    s2 = EmpiricalStrategy(np.linspace(1.0, 1.2, N)[:, None])
    return RPDataset(cons, ((s1,), (s2,)))


def _samples_tensor(d):
    return np.stack(
        [np.stack([np.asarray(s.samples) for s in row]) for row in d.strategies]
    )


# --- serial reference master (one descent per (v_{N+1}, start) pair) ---------


def _two_v(cfg, d):
    """2V, the v_k clip: V = 2·U_BOUND/λ̂ + G, G the dataset's range bound."""
    return 2.0 * (2.0 * dro.U_BOUND / cfg.lambda_hat + dro._dataset_g_bound(d))


def _serial_objective(u, lam, v_n1, cut_data, eps, N, two_v):
    Gs, dists, kidx = cut_data
    term = (u[None, None, :, :] - u[None, :, None, :]) / lam[None, :, None, :] - Gs
    flat = term.reshape(len(dists), -1)
    arg = flat.argmax(axis=1)
    scores = np.maximum(flat[np.arange(len(dists)), arg], 0.0) - v_n1 * dists
    v = np.zeros(N)
    np.maximum.at(v, kidx, scores)
    return eps * v_n1 + np.clip(v, 0.0, two_v).sum() / N, np.clip(v, 0.0, two_v), scores, arg


def _psi_descent(u0, lam0, v_n1, cut_data, eps, N, two_v, u_lo, u_hi, l_lo, l_hi):
    """Projected subgradient descent over ψ for fixed v_{N+1}, one start."""
    Gs, _dists, kidx = cut_data
    shape = Gs.shape[1:]
    u, lam = u0.copy(), lam0.copy()
    best_obj = _serial_objective(u, lam, v_n1, cut_data, eps, N, two_v)[0]
    best = (u.copy(), lam.copy())
    step0 = 0.2 * max(u_hi - u_lo, l_hi - l_lo)
    for it in range(dro.SUBGRAD_ITERS):
        _, _, scores, arg = _serial_objective(u, lam, v_n1, cut_data, eps, N, two_v)
        gu = np.zeros_like(u)
        gl = np.zeros_like(lam)
        any_grad = False
        for k in range(N):
            idx = np.flatnonzero(kidx == k)
            if idx.size == 0:
                continue
            j = idx[int(scores[idx].argmax())]
            if scores[j] <= 0.0 or scores[j] >= two_v:
                continue  # clipped regions contribute zero subgradient
            t, s, i = np.unravel_index(arg[j], shape)
            gu[s, i] += 1.0 / (lam[t, i] * N)
            gu[t, i] -= 1.0 / (lam[t, i] * N)
            gl[t, i] -= (u[s, i] - u[t, i]) / (lam[t, i] ** 2 * N)
            any_grad = True
        if not any_grad:
            break
        step = step0 / np.sqrt(it + 1.0)
        u = np.clip(u - step * gu, u_lo, u_hi)
        lam = np.clip(lam - step * gl, l_lo, l_hi)
        obj = _serial_objective(u, lam, v_n1, cut_data, eps, N, two_v)[0]
        if obj < best_obj:
            best_obj = obj
            best = (u.copy(), lam.copy())
    return best[0], best[1], best_obj


def _serial_master(scen, d, eps, cfg):
    """master_solve as one serial descent per v-grid point and start."""
    rng = np.random.default_rng(cfg.seed)
    T, M, N = d.T, d.M, scen.N
    two_v = _two_v(cfg, d)
    u_lo, u_hi, l_lo, l_hi = -dro.U_BOUND, dro.U_BOUND, cfg.lambda_hat, cfg.lam_max
    center = (np.zeros((T, M)), np.full((T, M), 0.5 * (l_lo + l_hi)))
    cut_data = dro._cut_data(d, dro._samples(d), scen)
    vmax = two_v / 2.0 / eps
    lo, hi = 0.0, vmax
    best = None
    for _round in range(2):
        results = []
        for v_n1 in np.linspace(lo, hi, dro.V_GRID):
            starts = [center] + [
                (rng.uniform(u_lo, u_hi, size=(T, M)), rng.uniform(l_lo, l_hi, size=(T, M)))
                for _ in range(dro.MULTISTARTS - 1)
            ]
            inner = None
            for u0, lam0 in starts:
                r = _psi_descent(
                    u0, lam0, v_n1, cut_data, eps, N, two_v, u_lo, u_hi, l_lo, l_hi
                )
                if inner is None or r[2] < inner[2]:
                    inner = r
            results.append((v_n1, inner))
        v_star, inner = min(results, key=lambda r: r[1][2])
        if best is None or inner[2] < best[1][2]:
            best = (v_star, inner)
        width = (hi - lo) / (dro.V_GRID - 1)
        lo = max(0.0, best[0] - width)
        hi = min(vmax, best[0] + width)
    v_n1, (u, lam, obj) = best
    v = _serial_objective(u, lam, v_n1, cut_data, eps, N, two_v)[1]
    return u, lam, np.concatenate([v, [v_n1]]), obj


def _assert_matches_serial(scen, d, eps, cfg):
    psi, v, obj = master_solve(scen, d, eps=eps, cfg=cfg)
    u_ref, lam_ref, v_ref, obj_ref = _serial_master(scen, d, eps, cfg)
    assert obj == obj_ref
    assert np.array_equal(psi.u, u_ref)
    assert np.array_equal(psi.lam, lam_ref)
    assert np.array_equal(v, v_ref)


def _random_cuts(d, scen, rng, max_per_k=3):
    samples = _samples_tensor(d)
    for k in range(scen.N):
        for _ in range(int(rng.integers(0, max_per_k + 1))):
            phi = samples[:, :, k, :] + rng.uniform(0.0, 0.3, size=samples[:, :, k, :].shape)
            scen.cuts[k].append(phi)


# --- dense-grid references for the exact oracle -------------------------------

GRID = 301  # points per axis of the reference grids


def _budget_grid(f):
    """GRID x GRID points of the 2-D budget set {γ ≥ 0 : f(γ) ≤ 0}, vertices included."""
    hi = -float(eval_constraint_many(f, np.zeros((1, 2)))[0]) / np.asarray(f.alpha)
    axes = [np.linspace(0.0, h, GRID) for h in hi]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[eval_constraint_many(f, pts) <= 1e-12]


def _term(d, psi, s, i, pts):
    """max_t [(u_s^i − u_t^i)/λ_t^i − g_t^i(γ)] at each row of pts."""
    return np.max(
        [
            (psi.u[s, i] - psi.u[t, i]) / psi.lam[t, i]
            - eval_constraint_many(d.constraints[t][i], pts)
            for t in range(d.T)
        ],
        axis=0,
    )


def _oracle_case(seed):
    """A small dro_instance with random ψ, distance weight v_{N+1} and v_k."""
    rng = np.random.default_rng(seed)
    T, M, N = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 4))
    d = dro_instance(T=T, M=M, N=N, seed=seed)
    psi = PsiVector(rng.uniform(-1.0, 1.0, size=(T, M)), rng.uniform(0.3, 3.0, size=(T, M)))
    v_n1 = [0.0, rng.uniform(0.0, 0.5), rng.uniform(0.0, 5.0)][int(rng.integers(0, 3))]
    v_hat = np.concatenate([rng.uniform(0.0, 0.5, size=N), [v_n1]])
    return d, psi, v_hat


class TestPsiVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            PsiVector(np.zeros((2, 1)), np.zeros((2, 1)))  # lam must be positive
        with pytest.raises(ValueError):
            PsiVector(np.zeros((2, 1)), np.ones((1, 1)))

    def test_scenario_set_bookkeeping(self):
        scen = ScenarioSet(3)
        assert scen.total == 0
        scen.cuts[1].append(np.zeros((2, 1, 1)))
        assert scen.total == 1


class TestDROConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"lambda_hat": 0.0}, "lambda_hat"),
            ({"lambda_hat": -1.0}, "lambda_hat"),
            ({"lambda_hat": 5.0, "lam_max": 1.0}, "lam_max"),
            ({"lam_max": float("nan")}, "lam_max"),
        ],
    )
    def test_bad_boxes_and_budgets_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            DROConfig(**kwargs)

    def test_degenerate_lambda_box_is_allowed(self):
        assert DROConfig(lambda_hat=1.0, lam_max=1.0).lam_max == 1.0


class TestHValue:
    def test_hand_value(self):
        d = _small_dataset()
        psi = PsiVector(np.array([[0.0], [1.0]]), np.array([[2.0], [1.0]]))
        phi = np.array([[[0.4]], [[1.1]]])  # (T, M, k)
        # g_1(phi) = (0.4-1, 1.1-1); g_2(phi) = (0.2-1, 0.55-1)
        terms = [
            (0.0 - 0.0) / 2.0 - (-0.6),
            (1.0 - 0.0) / 2.0 - 0.1,
            (0.0 - 1.0) / 1.0 - (-0.8),
            (1.0 - 1.0) / 1.0 - (-0.45),
        ]
        assert h_value(psi, phi, d) == pytest.approx(max(0.0, max(terms)))

    def test_clamped_at_zero(self):
        d = _small_dataset()
        # huge lam and equal u make every term the negative of g, capped at 0;
        # gamma = 2 makes g_t(gamma) >= 0 under both budgets
        psi = PsiVector(np.zeros((2, 1)), np.full((2, 1), 1e6))
        phi = np.array([[[2.0]], [[2.0]]])
        assert h_value(psi, phi, d) == pytest.approx(0.0, abs=1e-6)

    def test_bounded_by_box_constants(self):
        cfg = DROConfig(lambda_hat=0.5, lam_max=2.0)
        d = dro_instance(T=3, M=2, N=2, seed=0)
        G = 5.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = PsiVector(
                rng.uniform(-1.0, 1.0, size=(3, 2)),
                rng.uniform(0.5, 2.0, size=(3, 2)),
            )
            phi = rng.uniform(0.0, 1.0, size=(3, 2, 2))
            assert h_value(psi, phi, d) <= 2.0 * dro.U_BOUND / cfg.lambda_hat + G


class TestWassersteinBall:
    def test_samples_are_inside_every_ball(self):
        d = _small_dataset()
        phi = _samples_tensor(d)[:, :, 0, :]
        assert wasserstein_ball_check(phi, d, eps=0.0)

    def test_displacement_budget_is_total(self):
        # distances are to the nearest sample of each block and sum across blocks
        d = _small_dataset()
        samples = _samples_tensor(d)
        phi = samples[:, :, 0, :].copy()
        phi[0, 0, 0] = samples[0, 0, :, 0].max() + 0.4
        phi[1, 0, 0] = samples[1, 0, :, 0].max() + 0.4
        assert not wasserstein_ball_check(phi, d, eps=0.5)
        assert wasserstein_ball_check(phi, d, eps=0.9)


class TestMasterSolve:
    def test_no_cuts_is_trivial(self):
        d = _small_dataset()
        psi, v, obj = master_solve(ScenarioSet(2), d, eps=1.0, cfg=DROConfig())
        assert obj == 0.0
        assert np.allclose(v, 0.0)
        assert psi.u.shape == (2, 1)

    def test_objective_decreases_when_cut_removed(self):
        d = dro_instance(T=3, M=2, N=2, seed=2)
        cfg = DROConfig(seed=0)
        samples = _samples_tensor(d)
        rng = np.random.default_rng(3)
        scen = ScenarioSet(2)
        for k in range(2):
            for _ in range(2):
                phi = samples[:, :, k, :] + rng.uniform(0.0, 0.3, size=samples[:, :, k, :].shape)
                scen.cuts[k].append(phi)
        _, _, obj_full = master_solve(scen, d, eps=0.5, cfg=cfg)
        reduced = ScenarioSet(2)
        reduced.cuts[0] = scen.cuts[0][:1]
        reduced.cuts[1] = scen.cuts[1][:1]
        _, _, obj_reduced = master_solve(reduced, d, eps=0.5, cfg=cfg)
        assert obj_reduced <= obj_full + 1e-6

    @pytest.mark.parametrize("eps", [0.001, 1.0, 10.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_descents_match_the_serial_reference(self, eps, seed):
        d = dro_instance(T=4, M=2, N=4, seed=seed)
        cfg = DROConfig(lambda_hat=1.0, lam_max=10.0, seed=seed)
        rng = np.random.default_rng(50 + seed)
        scen = ScenarioSet(4)
        _random_cuts(d, scen, rng)
        if scen.total == 0:
            scen.cuts[0].append(_samples_tensor(d)[:, :, 0, :] + 0.1)
        for _grow in range(2):  # the second pass solves again after drawing more cuts
            _assert_matches_serial(scen, d, eps, cfg)
            _random_cuts(d, scen, rng, max_per_k=1)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        T=st.integers(2, 4),
        M=st.integers(1, 3),
        N=st.integers(1, 4),
        eps=st.sampled_from([0.001, 1.0, 10.0]),
        freeze=st.sampled_from(["none", "fixed_lambda", "far_cuts"]),
    )
    def test_matches_the_serial_reference_on_random_instances(self, seed, T, M, N, eps, freeze):
        # a fixed λ box and cuts far outside the budget sets stop or freeze lanes early
        d = dro_instance(T=T, M=M, N=N, seed=seed)
        rng = np.random.default_rng(seed)
        scen = ScenarioSet(N)
        _random_cuts(d, scen, rng)
        scen.cuts[0].append(_samples_tensor(d)[:, :, 0, :] + 0.1)
        if freeze == "far_cuts":
            scen.cuts[::2] = [[phi + 100.0 for phi in cuts] for cuts in scen.cuts[::2]]
        lambda_hat, lam_max = (2.0, 2.0) if freeze == "fixed_lambda" else (1.0, 10.0)
        cfg = DROConfig(lambda_hat=lambda_hat, lam_max=lam_max, seed=seed)
        _assert_matches_serial(scen, d, eps, cfg)

    def test_descent_ends_once_every_lane_is_frozen(self, monkeypatch):
        # the cut's largest term, (u_0 − u_1)/λ − g_1(0) = u_0 − u_1 + 10 under the
        # fixed λ = 1, pushes every live lane to the corner u = (−1, 1) within a few
        # steps; the clip then returns each later step to the same point
        cons = ((_affine([1.0], 1.0),), (_affine([1.0], 10.0),))
        d = RPDataset(
            cons,
            (
                (EmpiricalStrategy(np.linspace(0.3, 0.5, 2)[:, None]),),
                (EmpiricalStrategy(np.linspace(3.0, 3.2, 2)[:, None]),),
            ),
        )
        scen = ScenarioSet(2, cuts=[[np.array([[[0.0]], [[3.1]]])] for _ in range(2)])
        cfg = DROConfig(lambda_hat=1.0, lam_max=1.0)
        passes = 0
        score = dro._lane_scores

        def counting(*args):
            nonlocal passes
            passes += 1
            return score(*args)

        monkeypatch.setattr(dro, "_lane_scores", counting)
        psi, _, _ = master_solve(scen, d, eps=1.0, cfg=cfg)
        assert psi.u.ravel().tolist() == [-1.0, 1.0]
        assert passes < 2 * dro.SUBGRAD_ITERS
        _assert_matches_serial(scen, d, 1.0, cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        seg_max=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
        v_n1=st.floats(0.0, 1e6) | st.sampled_from([5e-324, 1e300]),
        eps=st.sampled_from([0.001, 0.1, 1.0, 10.0, 1e-300]),
        N=st.integers(1, 6),
        two_v=st.floats(1e-3, 1e3),
    )
    def test_every_objective_is_at_least_its_floor(self, seg_max, v_n1, eps, N, two_v):
        # the objective is fl(ε·v_{N+1}) + fl(Σ v_k / N) with every v_k >= 0
        segs = dro._Segments(np.arange(min(len(seg_max), N)))
        seg = np.array([seg_max[: len(segs.ks)]])
        obj, v = dro._lane_objective(seg, np.array([v_n1]), segs, eps, N, two_v)
        assert (v >= 0.0).all()
        assert obj[0] >= eps * v_n1

    def test_lanes_whose_floor_cannot_win_are_dropped(self, monkeypatch):
        # round 1 drops the lanes whose floor ε·v_{N+1} is above the best objective
        # any lane has reached; round 2 also those whose floor reaches round 1's best
        d = dro_instance(T=4, M=2, N=4, seed=0)
        cfg = DROConfig(lambda_hat=1.0, lam_max=10.0, seed=0)
        scen = ScenarioSet(4)
        _random_cuts(d, scen, np.random.default_rng(50))
        eps, two_v = 1.0, _two_v(cfg, d)
        _assert_matches_serial(scen, d, eps, cfg)
        incumbents, scored = [], []  # per round: the incumbent, and (v_{N+1}, objective) per pass
        descent, score = dro._lane_descent, dro._lane_scores

        def recorded_descent(*args):
            incumbents.append(args[-1])
            scored.append([])
            return descent(*args)

        def recorded_scores(u, lam, v_n1, cut_data, segs):
            seg_max, entry = score(u, lam, v_n1, cut_data, segs)
            obj, _ = dro._lane_objective(seg_max, v_n1, segs, eps, scen.N, two_v)
            scored[-1].append((eps * v_n1, obj))
            return seg_max, entry

        monkeypatch.setattr(dro, "_lane_descent", recorded_descent)
        monkeypatch.setattr(dro, "_lane_scores", recorded_scores)
        master_solve(scen, d, eps=eps, cfg=cfg)
        scored[-1].pop()  # master_solve's last pass rescores the winner
        assert incumbents[0] == np.inf and incumbents[1] < np.inf
        for incumbent, passes in zip(incumbents, scored):
            best = np.minimum.accumulate([obj.min() for _floor, obj in passes])
            for (floor, _obj), reached in zip(passes[1:], best):
                assert (floor <= reached).all() and (floor < incumbent).all()
        # the first pass scores every lane; each rule alone drops some of them
        floor, obj = scored[0][0]
        assert (floor > obj.min()).sum() == 24
        floor, obj = scored[1][0]
        assert ((floor >= incumbents[1]) & (floor <= obj.min())).sum() == 6

    def test_replaced_cut_lists_are_read_afresh(self):
        d = dro_instance(T=3, M=2, N=2, seed=2)
        scen = ScenarioSet(2)
        _random_cuts(d, scen, np.random.default_rng(0))
        scen.cuts[0].append(_samples_tensor(d)[:, :, 0, :] + 0.2)
        samples = _samples_tensor(d)
        dro._cut_data(d, samples, scen)
        scen.cuts[0] = scen.cuts[0][::-1]
        fresh = ScenarioSet(2, cuts=[list(c) for c in scen.cuts])
        for a, b in zip(dro._cut_data(d, samples, scen), dro._cut_data(d, samples, fresh)):
            np.testing.assert_array_equal(a, b)


def _violation(k, state, d):
    """The oracle's violation and scenario for sample index k."""
    vals, phis = dro._cv_all(state, d, _samples_tensor(d))
    return float(vals[k]), phis[k]


class TestConstraintViolation:
    def _state(self, d, v_hat):
        T, M = d.T, d.M
        psi = PsiVector(np.zeros((T, M)), np.ones((T, M)))
        return DROState(psi, np.asarray(v_hat, dtype=float), np.zeros(2), 1)

    def test_huge_distance_weight_pins_scenario_to_samples(self):
        d = _small_dataset()
        state = self._state(d, v_hat=[0.0, 0.0, 1e9])
        cv, phi = _violation(0, state, d)
        samples = _samples_tensor(d)
        assert np.allclose(phi, samples[:, :, 0, :])
        assert cv == pytest.approx(h_value(state.psi_hat, phi, d))

    def test_zero_distance_weight_frees_the_search(self):
        d = _small_dataset()
        state = self._state(d, v_hat=[0.0, 0.0, 0.0])
        cv, phi = _violation(0, state, d)
        # with no distance penalty the oracle maximizes h over the budget set:
        # the worst block pushes g as negative as possible (gamma = 0)
        base = h_value(state.psi_hat, _samples_tensor(d)[:, :, 0, :], d)
        assert cv >= base - 1e-9
        assert h_value(state.psi_hat, phi, d) == pytest.approx(cv, abs=1e-6)

    def test_violation_discounts_current_v(self):
        d = _small_dataset()
        s0 = self._state(d, v_hat=[0.0, 0.0, 1e9])
        s1 = self._state(d, v_hat=[0.5, 0.0, 1e9])
        cv0, _ = _violation(0, s0, d)
        cv1, _ = _violation(0, s1, d)
        assert cv1 == pytest.approx(cv0 - 0.5)


class TestExactOracle:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_dominates_a_dense_grid_and_attains_its_value(self, seed):
        d, psi, v_hat = _oracle_case(seed)
        samples = _samples_tensor(d)
        T, M, N, _k = samples.shape
        v_n1 = v_hat[-1]
        state = DROState(psi, v_hat, np.zeros(N), 1)
        vals, phis = dro._cv_all(state, d, samples)
        at_samples = np.array(
            [[_term(d, psi, s, i, samples[s, i]) for i in range(M)] for s in range(T)]
        )  # (T, M, N)
        for k in range(N):
            dist = np.linalg.norm(phis[k] - samples[:, :, k, :], axis=-1).sum()
            attained = h_value(psi, phis[k], d) - v_n1 * dist - v_hat[k]
            assert attained == pytest.approx(vals[k], abs=1e-9)
            grid_best = max(0.0, at_samples[:, :, k].max()) - v_hat[k]
            for s in range(T):
                for i in range(M):
                    pts = _budget_grid(d.constraints[s][i])
                    others = np.delete(at_samples[:, :, k].ravel(), s * M + i)
                    rest = max(0.0, others.max()) if others.size else 0.0
                    gap = np.linalg.norm(pts - samples[s, i, k], axis=1)
                    score = np.maximum(_term(d, psi, s, i, pts), rest) - v_n1 * gap - v_hat[k]
                    grid_best = max(grid_best, score.max())
            assert vals[k] >= grid_best - 1e-12

    def _edge_case(self):
        """One block, F = {γ ≥ 0 : γ1 + 0.2·γ2 ≤ 1}, one sample a = (0.3, 2)."""
        cons = ((_affine([1.0, 0.2], 1.0),),)
        d = RPDataset(cons, ((EmpiricalStrategy(np.array([[0.3, 2.0]])),),))
        psi = PsiVector(np.zeros((1, 1)), np.ones((1, 1)))  # h = max(0, 1 − α·γ)
        return d, psi

    def test_interior_of_an_edge_hand_value(self):
        # ‖α‖ > v = 0.5 pushes the optimum to the boundary; on the edge γ1 = 0
        # the stationary point lies y = 0.3·0.2/√(0.5² − 0.2²) below the foot (0, 2)
        d, psi = self._edge_case()
        state = DROState(psi, np.array([0.0, 0.5]), np.zeros(1), 1)
        cv, phi = _violation(0, state, d)
        y = 0.3 * 0.2 / np.sqrt(0.5**2 - 0.2**2)
        np.testing.assert_allclose(phi[0, 0], [0.0, 2.0 - y], atol=1e-12)
        assert cv == pytest.approx(1.0 - 0.2 * (2.0 - y) - 0.5 * np.hypot(0.3, y), abs=1e-12)

    def test_robust_gap_on_the_sphere_hand_value(self):
        # the ball of radius 0.5 meets the edge γ1 = 0 down to (0, 2 − 0.4)
        d, psi = self._edge_case()
        assert robust_gap(psi, d, eps=0.5) == pytest.approx(1.0 - 0.2 * 1.6, abs=1e-12)

    def test_unbounded_budget_set_is_rejected(self):
        cons = ((_affine([1.0, 0.0], 1.0),), (_affine([0.5, 1.0], 1.0),))
        strat = EmpiricalStrategy(np.full((2, 2), 0.2))
        d = RPDataset(cons, ((strat,), (strat,)))
        state = DROState(PsiVector(np.zeros((2, 1)), np.ones((2, 1))), np.zeros(3), np.zeros(2), 1)
        with pytest.raises(ValueError, match=r"block \(s=0, i=0\).*unbounded"):
            _violation(0, state, d)
        with pytest.raises(ValueError, match=r"block \(s=0, i=0\)"):
            robust_gap(state.psi_hat, d, eps=0.5)


# --- reference oracle: every candidate scored with the other blocks' terms ---


def _rest_tensor(bt):
    """rest[s, i, n] = max over blocks other than (s, i) of bt[·, ·, n]."""
    T, M, N = bt.shape
    flat = bt.reshape(T * M, N)
    order = np.argsort(flat, axis=0)
    top_idx = order[-1]
    top = flat[top_idx, np.arange(N)]
    second = flat[order[-2], np.arange(N)] if T * M > 1 else np.full(N, -np.inf)
    rest = np.broadcast_to(top, (T * M, N)).copy()
    rest[top_idx, np.arange(N)] = second
    return rest.reshape(T, M, N)


def _reference_cv_all(state, d, samples):
    """The oracle scoring each candidate as max(term, rest_k, 0) − (v_{N+1}·dist + v_k)."""
    psi, v_hat = state.psi_hat, state.v_hat
    T, M, N, kdim = samples.shape
    v_n1 = float(v_hat[-1])
    budgets = affine_budgets(d.constraints, bounded=True)
    bt = dro._block_terms(budgets, psi, samples)
    rest = _rest_tensor(bt)
    base_h = np.maximum(bt.reshape(T * M, N).max(axis=0), 0.0)
    best_val = base_h - v_hat[:N]
    feet, dist, q = dro._face_points(budgets, samples)
    qq = (q * q).sum(axis=-1)
    room = v_n1 * v_n1 - qq
    root = np.sqrt(np.where(room > 0.0, room, 1.0))
    reach = np.where(qq[:, :, None] > 0.0, dist[:, :, :, None] / root[:, :, None], 0.0)
    cands = feet[:, :, :, None] + reach[..., None] * q[:, :, None]
    cands, ok = dro._in_budget(budgets, cands.reshape(T, M, N, -1, kdim))
    ok &= ((qq == 0.0) | (room > 0.0)).reshape(T, M, 1, -1)
    terms = dro._block_terms(budgets, psi, cands.reshape(T, M, -1, kdim)).reshape(ok.shape)
    gap = cands - samples[..., None, :]
    score = np.maximum(np.maximum(terms, rest[..., None]), 0.0)
    score -= v_n1 * np.sqrt((gap * gap).sum(axis=-1)) + v_hat[:N, None]
    score[~ok] = -np.inf
    flat = score.transpose(2, 0, 1, 3).reshape(N, -1)
    j = flat.argmax(axis=1)
    best_phi = [samples[:, :, k, :].copy() for k in range(N)]
    for k in np.flatnonzero(flat[np.arange(N), j] > best_val):
        s, i, c = np.unravel_index(j[k], (T, M, ok.shape[-1]))
        best_val[k] = flat[k, j[k]]
        best_phi[k][s, i] = cands[s, i, k, c]
    return best_val, best_phi


def _scoring_case(seed, T, M, N, psi_scale, v_n1, zero_vk):
    """A dro_instance state with ψ scaled by psi_scale and the given v_{N+1}."""
    rng = np.random.default_rng(seed)
    d = dro_instance(T=T, M=M, N=N, seed=seed)
    u = psi_scale * rng.uniform(-1.0, 1.0, size=(T, M))
    lam = psi_scale * rng.uniform(0.3, 3.0, size=(T, M))
    v_k = np.zeros(N) if zero_vk else rng.uniform(0.0, 0.5, size=N)
    state = DROState(PsiVector(u, lam), np.append(v_k, v_n1), np.zeros(N), 1)
    return d, state


class TestOracleScoring:
    """Scoring a candidate by its own term alone picks what the rest-tensor scoring picks."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        T=st.integers(1, 3),
        M=st.integers(1, 2),
        N=st.integers(1, 3),
        psi_scale=st.floats(0.1, 10.0),
        v_n1=st.sampled_from([0.0, 1e-9, 1e-3, 1e3]) | st.floats(0.0, 5.0),
        zero_vk=st.booleans(),
    )
    @example(seed=0, T=1, M=1, N=2, psi_scale=1.0, v_n1=0.0, zero_vk=True)
    @example(seed=1, T=1, M=1, N=3, psi_scale=10.0, v_n1=1e-3, zero_vk=False)
    @example(seed=2, T=3, M=2, N=3, psi_scale=0.1, v_n1=1e3, zero_vk=True)
    def test_matches_the_rest_tensor_reference(self, seed, T, M, N, psi_scale, v_n1, zero_vk):
        d, state = _scoring_case(seed, T, M, N, psi_scale, v_n1, zero_vk)
        samples = _samples_tensor(d)
        vals, phis = dro._cv_all(state, d, samples)
        ref_vals, ref_phis = _reference_cv_all(state, d, samples)
        assert np.array_equal(vals, ref_vals)
        for phi, ref in zip(phis, ref_phis):
            assert np.array_equal(phi, ref)

    def test_reference_moves_scenarios_on_seeded_states(self):
        # the comparison is not vacuous: on these states the reference moves scenarios
        moved = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            T, M, N = (int(v) for v in rng.integers(1, 4, size=3))
            v_n1 = [0.0, 1e-3, 0.5, 1e3][seed % 4]
            d, state = _scoring_case(seed, T, M, N, 10.0 ** rng.uniform(-1, 1), v_n1, seed % 3 == 0)
            samples = _samples_tensor(d)
            vals, phis = dro._cv_all(state, d, samples)
            ref_vals, ref_phis = _reference_cv_all(state, d, samples)
            assert np.array_equal(vals, ref_vals)
            for k, (phi, ref) in enumerate(zip(phis, ref_phis)):
                assert np.array_equal(phi, ref)
                moved += not np.array_equal(ref, samples[:, :, k, :])
        assert moved > 0


class TestExchangeLoop:
    def test_huge_delta_terminates_immediately(self):
        d = dro_instance(T=3, M=2, N=2, seed=1)
        _psi, state, trace = exchange_loop(d, eps=1.0, delta=1e3, cfg=DROConfig(seed=0))
        assert state.certified
        assert state.iteration == 1
        assert len(trace) == 1

    def test_certified_run_has_small_final_violation(self):
        d = dro_instance(T=3, M=2, N=2, seed=4)
        delta = 0.1
        cfg = DROConfig(lambda_hat=1.0, lam_max=10.0, seed=0)
        _psi, state, trace = exchange_loop(d, eps=1.0, delta=delta, cfg=cfg)
        assert state.certified
        assert state.cv.max() < delta
        assert trace[-1]["max_cv"] < delta
        assert trace[-1]["n_cuts_total"] >= len(trace) - 1

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            exchange_loop(_small_dataset(), eps=1.0, delta=0.0)

    def test_family_given_as_a_string_reads_as_the_member(self):
        d = dro_instance(T=3, M=2, N=2, seed=4)
        cons = tuple(tuple(replace(f, family=f.family.value) for f in row) for row in d.constraints)
        s = RPDataset(cons, d.strategies)
        assert all(f.family is Family.AFFINE for row in s.constraints for f in row)
        assert pareto_gap(s).gap == pareto_gap(d).gap
        cfg = DROConfig(seed=0)
        psi_s, state_s, _ = exchange_loop(s, eps=1.0, delta=0.1, cfg=cfg)
        psi_d, state_d, _ = exchange_loop(d, eps=1.0, delta=0.1, cfg=cfg)
        assert state_s.certified and np.array_equal(state_s.v_hat, state_d.v_hat)
        assert np.array_equal(psi_s.u, psi_d.u) and np.array_equal(psi_s.lam, psi_d.lam)


class TestRobustGap:
    def test_zero_radius_equals_sample_h(self):
        d = dro_instance(T=3, M=2, N=3, seed=5)
        psi = PsiVector(
            np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 2)),
            np.random.default_rng(1).uniform(1.0, 2.0, size=(3, 2)),
        )
        samples = _samples_tensor(d)
        expected = max(
            h_value(psi, samples[:, :, k, :], d) for k in range(samples.shape[2])
        )
        assert robust_gap(psi, d, eps=0.0) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_radius(self):
        d = dro_instance(T=2, M=2, N=2, seed=6)
        psi = PsiVector(np.zeros((2, 2)), np.ones((2, 2)))
        g0 = robust_gap(psi, d, eps=0.0)
        g1 = robust_gap(psi, d, eps=0.5)
        g2 = robust_gap(psi, d, eps=2.0)
        assert g0 <= g1 + 1e-9
        assert g1 <= g2 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), radii=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=3))
    def test_dominates_a_dense_grid_in_the_ball_and_is_monotone(self, seed, radii):
        d, psi, _v = _oracle_case(seed)
        samples = _samples_tensor(d)
        T, M, N, _k = samples.shape
        radii = sorted(radii)
        gaps = [robust_gap(psi, d, eps=eps) for eps in radii]
        for lo, hi in zip(gaps, gaps[1:]):
            assert lo <= hi + 1e-12
        eps = radii[-1]
        grid_best = 0.0
        for s in range(T):
            for i in range(M):
                pts = _budget_grid(d.constraints[s][i])
                terms = _term(d, psi, s, i, pts)
                for k in range(N):
                    anchor = samples[s, i, k]
                    inside = np.linalg.norm(pts - anchor, axis=1) <= eps
                    grid_best = max(grid_best, _term(d, psi, s, i, anchor[None])[0])
                    if inside.any():
                        grid_best = max(grid_best, terms[inside].max())
        assert gaps[-1] >= grid_best - 1e-12


# --- one affine evaluator ----------------------------------------------------


def _random_probe(rng, k, shifted):
    alpha = tuple(float(a) for a in rng.uniform(-1.0, 3.0, size=k))
    f = ConstraintFunction(Family.AFFINE, k, alpha=alpha, b=float(rng.uniform(-1.0, 5.0)))
    if shifted:
        f = f.shifted(float(rng.uniform(-2.0, 2.0)), rng.uniform(-1.0, 1.0, size=k))
    return f


class TestAffineEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 6),
        M=st.integers(1, 3),
        k=st.integers(1, 3),
        n=st.integers(1, 200),
        shift=st.sampled_from(["none", "all", "mixed"]),
    )
    @example(seed=0, T=1, M=1, k=3, n=1, shift="all")
    @example(seed=1, T=4, M=2, k=3, n=1, shift="mixed")
    def test_matches_per_probe_evaluation_bit_for_bit(self, seed, T, M, k, n, shift):
        # each probe is compared on the same stack of points that it is evaluated on
        rng = np.random.default_rng(seed)
        cons = [
            [_random_probe(rng, k, shift == "all" or (shift == "mixed" and rng.random() < 0.5)) for _ in range(M)]
            for _ in range(T)
        ]
        budgets = affine_budgets(cons)
        pts = rng.uniform(0.0, 3.0, size=(T, M, n, k))
        pts[rng.random(pts.shape) < 0.2] = 0.0
        own = budget_values(budgets, pts)  # probe (t, i) at the n points of block (t, i)
        shared = budget_values(budgets, pts[0, 0])  # every probe at the points of block (0, 0)
        cross = dro._cross_values(budgets, pts)  # probe (t, i) at the T·n points of agent i
        for t in range(T):
            for i in range(M):
                f = cons[t][i]
                assert np.array_equal(own[t, i], eval_constraint_many(f, pts[t, i]))
                assert np.array_equal(shared[t, i], eval_constraint_many(f, pts[0, 0]))
                stacked = eval_constraint_many(f, pts[:, i].reshape(-1, k)).reshape(T, n)
                assert np.array_equal(cross[t, :, i], stacked)

    def test_cut_changed_in_place_is_read_by_the_next_solve(self):
        d = dro_instance(T=3, M=2, N=2, seed=2)
        samples = _samples_tensor(d)
        scen = ScenarioSet(2)
        _random_cuts(d, scen, np.random.default_rng(0))
        scen.cuts[0].append(samples[:, :, 0, :] + 0.2)
        master_solve(scen, d, eps=1.0, cfg=DROConfig(seed=0))
        scen.cuts[0][-1][0, 1] += 0.1
        fresh = ScenarioSet(2, cuts=[[phi.copy() for phi in c] for c in scen.cuts])
        for a, b in zip(dro._cut_data(d, samples, scen), dro._cut_data(d, samples, fresh)):
            np.testing.assert_array_equal(a, b)

    def test_non_affine_probe_is_rejected_naming_the_block(self):
        log_sigmoid = ConstraintFunction(Family.LOG_SIGMOID, 1)
        cons = ((_affine([1.0], 1.0),), (log_sigmoid,))
        strats = ((EmpiricalStrategy(np.array([[0.3]])),), (EmpiricalStrategy(np.array([[0.0]])),))
        d = RPDataset(cons, strats)
        psi = PsiVector(np.zeros((2, 1)), np.ones((2, 1)))
        scen = ScenarioSet(1)
        scen.cuts[0].append(_samples_tensor(d)[:, :, 0, :])
        with pytest.raises(ValueError, match=r"block \(s=1, i=0\): only affine"):
            h_value(psi, _samples_tensor(d)[:, :, 0, :], d)
        with pytest.raises(ValueError, match=r"block \(s=1, i=0\): only affine"):
            master_solve(scen, d, eps=1.0, cfg=DROConfig())
        with pytest.raises(ValueError, match=r"block \(s=1, i=0\): only affine"):
            exchange_loop(d, eps=1.0, delta=0.1)
