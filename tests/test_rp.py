"""Unit tests for the revealed-preference engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pareto_forge import lp, rp
from pareto_forge.core import ConstraintFunction, DimensionError, EmpiricalStrategy, RPDataset, eval_constraint
from pareto_forge.lp import TOL_LP
from pareto_forge.rp import (
    TOL_R,
    _closure,
    _critical_levels,
    _garp,
    _normalize_agent_cert,
    PreferenceProfile,
    afriat_feasible,
    ccei_all,
    ccei_scalar,
    garp_f,
    garp_f_threshold,
    hoeffding_confidence,
    mm_garp,
    pareto_gap,
    rank_optimality_check,
    reconstruct_utility,
)
from pareto_forge.spsa import SPSAConfig
from pareto_forge.synthetic import consistent_dataset, violating_dataset


def _affine(alpha, b):
    alpha = tuple(float(a) for a in np.atleast_1d(alpha))
    return ConstraintFunction(alpha, float(b))


def _reversal_dataset():
    """Two-period, one-agent budget reversal with hand-computable quantities.

    gbar = [[0, -0.5], [-0.5, 0]]; the relaxed system needs r = 0.5 exactly.
    """
    cons = (
        (_affine([2.0, 1.0], 1.0),),
        (_affine([1.0, 2.0], 1.0),),
    )
    strats = (
        (EmpiricalStrategy(np.array([[0.5, 0.0]])),),
        (EmpiricalStrategy(np.array([[0.0, 0.5]])),),
    )
    return RPDataset(cons, strats)


def _asymmetric_reversal_dataset():
    """Budgets 2x+y <= 1 and x+2y <= 1 with plays (0.5, 0) and (0.2, 0.4).

    gbar = [[0, -0.2], [-0.5, 0]]: the cycle's bottleneck is 0.2 and its other
    edge is heavier, so the relaxed system is infeasible at r = 0.2 itself and
    the gap 0.2 is an unattained infimum.
    """
    cons = (
        (_affine([2.0, 1.0], 1.0),),
        (_affine([1.0, 2.0], 1.0),),
    )
    strats = (
        (EmpiricalStrategy(np.array([[0.5, 0.0]])),),
        (EmpiricalStrategy(np.array([[0.2, 0.4]])),),
    )
    return RPDataset(cons, strats)


def _random_dataset(seed):
    """A consistent (even seed) or violating (odd seed) dataset with T <= 6."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 7))
    M = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    maker = consistent_dataset if seed % 2 == 0 else violating_dataset
    return maker(T=T, M=M, k=k, seed=seed)


def _lp_feasible(d, r):
    """LP verdict of the relaxed system at level r (the slow reference).

    Per agent: u_s - u_t - lam_t*(gbar[t,s] + r) <= 0 over all (t, s), with
    u free and lam >= 1 (the system is homogeneous, so lam > 0 rescales to it).
    """
    T = d.T
    t, s = np.divmod(np.arange(T * T), T)
    rows = np.arange(T * T)
    lower = np.concatenate([np.full(T, -np.inf), np.ones(T)])
    upper = np.full(2 * T, np.inf)
    for i in range(d.M):
        A = np.zeros((T * T, 2 * T))
        A[rows, s] += 1.0
        A[rows, t] -= 1.0
        A[rows, T + t] = -(d.gbar[t, s, i] + r)
        if not lp.feasible(A, np.zeros(T * T), lower, upper)[0]:
            return False
    return True


def _reference_gap(d):
    """Bisection over r on the LP verdicts (the slow reference)."""
    if _lp_feasible(d, 0.0):
        return 0.0
    lo, hi = 0.0, max(0.0, float(-d.gbar.min()))  # u = 0 is feasible at hi
    while hi - lo > TOL_R:
        mid = 0.5 * (lo + hi)
        if _lp_feasible(d, mid):
            hi = mid
        else:
            lo = mid
    return hi


# --- serial reference: one boolean closure per GARP test and per agent certificate ---


def _serial_garp(W, level):
    """GARP on the relation W >= level of one (T, T) slice, from its own boolean closure."""
    return not (_closure(W >= level).T & (W > level)).any()


def _serial_certificate(gbar_i, r):
    """Varian's component loop in numpy, closing the agent's relation gbar_i + r <= 0."""
    c = gbar_i + r
    T = c.shape[0]
    reach = _closure(c <= 0) | np.eye(T, dtype=bool)
    u = np.zeros(T)
    lam = np.ones(T)
    done = np.zeros(T, dtype=bool)
    for m in np.argsort(reach.sum(axis=0), kind="stable"):
        if done[m]:
            continue
        comp = np.flatnonzero(reach[m] & reach[:, m])
        prev = np.flatnonzero(done)
        if prev.size:
            u[comp] = (u[prev, None] + lam[prev, None] * c[prev[:, None], comp]).min()
            lam[comp] = np.maximum(1.0, ((u[prev] - u[m]) / c[comp[:, None], prev]).max(axis=1))
        done[comp] = True
    return u, lam


def _serial_points(d, levels, alpha):
    """The agents' normalised certificates at their levels, as (u, lam) stacks."""
    points = [
        _normalize_agent_cert(*_serial_certificate(d.gbar[:, :, i], r), alpha) for i, r in enumerate(levels)
    ]
    return tuple(np.column_stack(p) for p in zip(*points))


def _serial_gap(d, alpha=rp.ALPHA_DEFAULT):
    """(gap, per-agent gaps, certificate level, u, lam), one agent and one closure at a time."""
    gaps, levels = [], []
    for i in range(d.M):
        W = -d.gbar[:, :, i]
        gap = max(0.0, float(np.diagonal(_closure(W)).max()))
        gaps.append(gap)
        levels.append(gap if _serial_garp(W, gap) else gap + TOL_R)
    return (max(gaps), tuple(gaps), float(max(levels)), *_serial_points(d, levels, alpha))


def _serial_afriat(d, r, alpha=rp.ALPHA_DEFAULT):
    if not all(_serial_garp(-d.gbar[:, :, i], r) for i in range(d.M)):
        return False, None
    return True, _serial_points(d, [r] * d.M, alpha)


class TestMmGarp:
    def test_consistent_play_passes(self):
        d = consistent_dataset(T=4, M=2, k=2, seed=0)
        assert mm_garp(d)

    def test_reversal_detected(self):
        d = _reversal_dataset()
        assert not mm_garp(d)

    def test_single_period_trivially_consistent(self):
        cons = ((_affine([1.0], 1.0),),)
        strats = ((EmpiricalStrategy(np.array([[1.0]])),),)
        assert mm_garp(RPDataset(cons, strats))

    def test_three_cycle_detected_through_closure(self):
        # pairwise order is acyclic only through the transitive closure
        cons = (
            (_affine([4.0, 1.0, 1.0], 2.0),),
            (_affine([1.0, 4.0, 1.0], 2.0),),
            (_affine([1.0, 1.0, 4.0], 2.0),),
        )
        x = 2.0 / 4.8  # each strategy spends most of its budget on its own good
        strats = tuple(
            (EmpiricalStrategy(np.eye(3)[t][None, :] * x),) for t in range(3)
        )
        d = RPDataset(cons, strats)
        assert not mm_garp(d)


class TestParetoGap:
    def test_consistent_dataset_zero_gap(self):
        d = consistent_dataset(T=4, M=2, k=2, seed=1)
        res = pareto_gap(d)
        assert res.gap <= 1e-5
        assert res.certificate.validates(d, tol=1e-5)

    def test_reversal_gap_hand_value(self):
        res = pareto_gap(_reversal_dataset())
        assert res.gap == pytest.approx(0.5, abs=2e-5)
        assert res.per_agent_gaps == (res.gap,)

    def test_asymmetric_reversal_gap_is_exact(self):
        d = _asymmetric_reversal_dataset()
        res = pareto_gap(d)
        assert res.gap == pytest.approx(0.2, abs=1e-12)
        # the infimum is not attained, so the certificate holds one step above it
        assert res.certificate.r == pytest.approx(0.2 + TOL_R, abs=1e-12)
        assert res.certificate.validates(d)
        assert res.bisection_iters == 1
        assert not afriat_feasible(d, res.gap)[0]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_reference_lp_bisection(self, seed):
        d = _random_dataset(seed)
        res = pareto_gap(d)
        ref = _reference_gap(d)
        # The LP accepts residuals up to 10 * TOL_LP; with lam >= 1 that relaxes
        # r by at most as much, so the reference may sit that far below the gap.
        assert res.gap - 10 * TOL_LP <= ref <= res.gap + TOL_R + 1e-9
        assert res.certificate.validates(d)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 1.0))
    def test_afriat_feasible_matches_lp_verdict(self, seed, frac):
        d = _random_dataset(seed)
        gaps = pareto_gap(d).per_agent_gaps
        r = frac * (2.0 * max(gaps) + 0.1)
        # the LP's verdict is only sharp away from each agent's critical level
        assume(all(abs(r - g) >= 10 * TOL_LP for g in gaps))
        ok, cert = afriat_feasible(d, r)
        assert ok == _lp_feasible(d, r)
        if ok:
            assert cert.validates(d, tol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_t40_certificates_match_lp_verdicts(self, seed):
        # long revealed-preference chains give the largest lam ratios
        d = violating_dataset(40, 3, 3, seed=seed)
        res = pareto_gap(d)
        assert res.certificate.validates(d, tol=1e-9)
        for r in (res.gap - 100 * TOL_LP, res.certificate.r + 100 * TOL_LP):
            ok, cert = afriat_feasible(d, r)
            assert ok == _lp_feasible(d, r) == (r > res.gap)
            if ok:
                assert cert.validates(d, tol=1e-9)

    def test_no_lp_is_solved(self, monkeypatch):
        def no_lp(*args):
            raise RuntimeError("lp.feasible called")

        monkeypatch.setattr(lp, "feasible", no_lp)
        d = violating_dataset(T=5, M=2, k=2, seed=4)
        res = pareto_gap(d)
        assert res.gap > 0
        assert res.certificate.validates(d)
        assert afriat_feasible(d, res.certificate.r)[0]
        assert not afriat_feasible(d, 0.5 * res.gap)[0]

    def test_certificate_validates_at_gap(self):
        d = violating_dataset(T=3, M=2, k=2, seed=5)
        res = pareto_gap(d)
        assert res.gap > 1e-4
        assert res.certificate.max_violation(d) <= res.gap * 1e-3 + 1e-6
        assert np.all(res.certificate.lam >= res.certificate.alpha - 1e-12)

    def test_alpha_halving_leaves_gap_unchanged(self):
        d = violating_dataset(T=3, M=1, k=2, seed=7)
        g1 = pareto_gap(d, alpha=1e-3).gap
        g2 = pareto_gap(d, alpha=5e-4).gap
        assert g1 == pytest.approx(g2, abs=2e-5)

    def test_budget_scaling_scales_gap(self):
        d = _reversal_dataset()
        c = 3.0
        cons = tuple(
            tuple(_affine(np.array(f.alpha) * c, f.b * c) for f in row)
            for row in d.constraints
        )
        scaled = RPDataset(cons, d.strategies)
        assert pareto_gap(scaled).gap == pytest.approx(c * pareto_gap(d).gap, abs=5e-5)

    def test_afriat_feasible_monotone_in_r(self):
        d = _reversal_dataset()
        ok_low, _ = afriat_feasible(d, 0.25)
        ok_high, cert = afriat_feasible(d, 0.75)
        assert not ok_low
        assert ok_high
        assert cert.validates(d, tol=1e-6)
        # normalised like pareto_gap's certificates: max lam = 1, lam >= alpha
        assert cert.lam.max() == pytest.approx(1.0)
        assert cert.lam.min() >= cert.alpha

    def test_invalid_arguments_raise(self):
        d = _reversal_dataset()
        with pytest.raises(ValueError):
            afriat_feasible(d, -0.1)
        with pytest.raises(ValueError):
            pareto_gap(d, alpha=0.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_verdicts_agree_with_combinatorial_test(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 5))
        M = int(rng.integers(1, 3))
        maker = consistent_dataset if seed % 2 == 0 else violating_dataset
        d = maker(T=T, M=M, k=2, seed=seed)
        assert mm_garp(d) == (pareto_gap(d).gap <= 1e-5)


@pytest.fixture
def closures(monkeypatch):
    """The shape of every stack rp._closure closes."""
    calls = []
    close = rp._closure

    def counted(W):
        calls.append(W.shape)
        return close(W)

    monkeypatch.setattr(rp, "_closure", counted)
    return calls


class TestOneClosurePerGap:
    """pareto_gap and afriat_feasible read everything from one closure of -gbar."""

    def test_pareto_gap_closes_once(self, closures):
        d = violating_dataset(T=8, M=3, k=3, seed=2)
        pareto_gap(d)
        assert closures == [(3, 8, 8)]

    @pytest.mark.parametrize("frac", [0.5, 2.0])
    def test_afriat_feasible_closes_once(self, closures, frac):
        d = violating_dataset(T=8, M=3, k=3, seed=2)
        gap = pareto_gap(d).gap
        closures.clear()
        assert afriat_feasible(d, frac * gap)[0] == (frac > 1)
        assert closures == [(3, 8, 8)]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        T=st.integers(2, 14),
        M=st.integers(1, 3),
        k=st.integers(2, 3),
        violating=st.booleans(),
    )
    def test_matches_serial_reference(self, seed, T, M, k, violating):
        d = (violating_dataset if violating else consistent_dataset)(T=T, M=M, k=k, seed=seed)
        res = pareto_gap(d)
        gap, per_agent, level, u, lam = _serial_gap(d)
        assert repr(res.gap) == repr(gap)
        assert repr(res.per_agent_gaps) == repr(per_agent)
        assert repr(res.certificate.r) == repr(level)
        assert res.certificate.u.tobytes() == u.tobytes()
        assert res.certificate.lam.tobytes() == lam.tobytes()
        for r in (0.0, 0.5 * gap, gap, level, level + 0.01, 2.0 * level + 0.1):
            ok, cert = afriat_feasible(d, r)
            ref_ok, ref = _serial_afriat(d, r)
            assert ok == ref_ok
            if ok:
                assert cert.u.tobytes() == ref[0].tobytes()
                assert cert.lam.tobytes() == ref[1].tobytes()


class TestStackedClosure:
    """One closure over an (M, T, T) stack is the M per-slice closures, bit for bit."""

    @staticmethod
    def _stack(seed, M, T):
        rng = np.random.default_rng(seed)
        # few distinct values, signed zeros among them, so ties are common
        W = rng.choice(np.array([-1.5, -0.5, -0.0, 0.0, 0.25, 1.0]), size=(M, T, T))
        return np.where(rng.random((M, T, T)) < 0.5, W, rng.standard_normal((M, T, T)))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 3), T=st.integers(1, 8))
    def test_matches_per_slice_closure(self, seed, M, T):
        W = self._stack(seed, M, T)
        H = _closure(W)
        for i in range(M):
            assert H[i].tobytes() == _closure(W[i]).tobytes()  # signed zeros included
            assert np.array_equal(_closure(W >= 0)[i], _closure(W[i] >= 0))
        levels = _critical_levels(W)
        assert levels.tobytes() == np.array([_critical_levels(W[i]) for i in range(M)]).tobytes()
        for level in (0.0, float(levels.max())):
            assert _garp(W, level).tolist() == [bool(_garp(W[i], level)) for i in range(M)]
        assert _garp(W, levels[:, None, None]).tolist() == [
            bool(_garp(W[i], levels[i])) for i in range(M)
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        M=st.integers(1, 3),
        T=st.integers(1, 8),
        eta=st.sampled_from([0.0, 1e-12, 0.25, 1.0, 3.0]),
    )
    def test_critical_levels_are_lipschitz(self, seed, M, T, eta):
        W = self._stack(seed, M, T)
        rng = np.random.default_rng(seed + 1)
        # each entry keeps its value, flips a zero's sign, or moves by at most eta
        step = np.where(
            rng.random((M, T, T)) < 0.5,
            rng.choice(np.array([-eta, -0.0, 0.0, eta]), size=(M, T, T)),
            rng.uniform(-eta, eta, (M, T, T)),
        )
        V = np.where((W == 0) & (rng.random((M, T, T)) < 0.5), -W, W + step)
        # the largest move as the floats give it: the rounded sum may pass eta
        moved = np.abs(V - W).max()
        assert moved <= eta + np.spacing(np.abs(W).max() + eta)
        # each level is an entry of its slice (the closure only takes max and
        # min), so it moves by at most the largest exact entry move; rounding
        # is monotone, so the float difference keeps that bound, with no tolerance
        assert np.all(np.abs(_critical_levels(V) - _critical_levels(W)) <= moved)


class TestGarpF:
    def test_threshold_equals_gap_on_reversal(self):
        d = _reversal_dataset()
        assert garp_f_threshold(d) == pytest.approx(0.5, abs=2e-4)

    def test_zero_threshold_on_consistent_data(self):
        d = consistent_dataset(T=4, M=2, k=2, seed=2)
        assert garp_f_threshold(d) == 0.0

    def test_monotone_in_f(self):
        d = _reversal_dataset()
        thr = garp_f_threshold(d)
        assert not garp_f(d, max(thr - 0.05, 0.0))
        assert garp_f(d, thr + 0.05)
        assert garp_f(d, 10.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_threshold_is_the_critical_slack(self, seed):
        d = _random_dataset(seed)
        thr = garp_f_threshold(d)
        assert garp_f(d, thr + 1e-9)
        if thr > 1e-9:
            assert not garp_f(d, thr - 1e-9)

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            garp_f(_reversal_dataset(), -0.1)


class TestCcei:
    def test_consistent_agent_has_full_efficiency(self):
        d = consistent_dataset(T=4, M=2, k=2, seed=4)
        for i in range(d.M):
            assert ccei_scalar(d, i) == 1.0

    def test_reversal_efficiency_hand_value(self):
        # satiated budgets: diag 1.0, cross 0.5, so the cycle needs e > 0.5
        assert ccei_scalar(_reversal_dataset(), 0) == pytest.approx(0.5, abs=2e-4)

    def test_only_violating_agent_penalized(self):
        d = violating_dataset(T=3, M=2, k=2, seed=6)
        assert ccei_scalar(d, 0) < 1.0
        assert ccei_scalar(d, 1) == 1.0

    def test_non_positive_satiated_budget_rejected(self):
        # play 1.5 inside its own budget: g = gbar + 1 = -0.5 has no deflation
        d = RPDataset(((_affine([1.0], 2.0),),), ((EmpiricalStrategy(np.array([[0.5]])),),))
        with pytest.raises(ValueError, match="must be positive"):
            ccei_scalar(d, 0)

    @pytest.mark.parametrize("agent", [-1, 2])
    def test_agent_index_checked(self, agent):
        with pytest.raises(IndexError):
            ccei_scalar(violating_dataset(T=3, M=2, k=2, seed=6), agent)

    def test_asymmetric_reversal_efficiency_is_exact(self):
        # rho = [[1, 0.8], [0.5, 1]]: GARP_e fails for every e >= 0.8
        assert ccei_scalar(_asymmetric_reversal_dataset(), 0) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_agents_match_one_at_a_time(self, seed):
        d = _random_dataset(seed)
        assert ccei_all(d) == [ccei_scalar(d, i) for i in range(d.M)]

    def test_all_agents_mark_undefined_ones(self):
        # agent 0 plays 1.5 inside its own budget, agent 1 is a budget reversal
        d = _reversal_dataset()
        cons = tuple((_affine([1.0, 1.0], 2.0), row[0]) for row in d.constraints)
        strats = tuple((EmpiricalStrategy(np.array([[0.5, 0.0]])), row[0]) for row in d.strategies)
        mixed = RPDataset(cons, strats)
        assert ccei_all(mixed) == [None, ccei_scalar(mixed, 1)]
        assert ccei_all(mixed)[1] == ccei_scalar(d, 0)


def _ccei_dataset(seed, T, M, k, undefined):
    """Random probes and plays on agents whose CCEI is defined, or undefined where
    ``undefined[i]``: agent i then plays 0 in period 0, so g[0, 0] = 1 - b <= -0.5."""
    rng = np.random.default_rng(seed)
    cons, strats = [], []
    for t in range(T):
        alpha = rng.uniform(0.5, 2.0, (M, k))
        b = np.where(undefined & (t == 0), rng.uniform(1.5, 3.0, M), rng.uniform(0.5, 2.0, M))
        n = int(rng.integers(1, 4))  # sample counts differ between periods
        # samples on or inside each budget, near enough to its line to make cycles
        x = rng.uniform(0.6, 1.0, (M, n, 1)) * rng.dirichlet(np.ones(k), (M, n)) * (b / alpha.T).T[:, None, :]
        x[undefined & (t == 0)] = 0.0
        cons.append([ConstraintFunction(tuple(a), bi) for a, bi in zip(alpha.tolist(), b.tolist())])
        strats.append([EmpiricalStrategy(xi) for xi in x])
    return RPDataset(cons, strats)


class TestSharedSlackClosure:
    """mm_garp, garp_f, garp_f_threshold and ccei_all share one closure that the dataset keeps."""

    def test_second_calls_close_nothing(self, closures):
        d = violating_dataset(T=8, M=3, k=3, seed=2)
        first = (mm_garp(d), garp_f_threshold(d), ccei_all(d))
        assert closures == [(6, 8, 8)]  # three slack and three ratio matrices
        assert (mm_garp(d), garp_f_threshold(d), ccei_all(d)) == first
        assert garp_f(d, 0.0) == first[0] and ccei_scalar(d, 1) == first[2][1]
        assert closures == [(6, 8, 8)]
        # a fresh dataset of the same data closes once again
        assert garp_f_threshold(violating_dataset(T=8, M=3, k=3, seed=2)) == first[1]
        assert closures == [(6, 8, 8)] * 2

    def test_undefined_agents_leave_the_ratio_stack(self, closures):
        d = _ccei_dataset(0, T=5, M=3, k=2, undefined=np.array([True, False, True]))
        assert ccei_all(d)[0] is None and ccei_all(d)[2] is None
        assert closures == [(4, 5, 5)]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 14),
        k=st.integers(1, 3),
        undefined=st.lists(st.booleans(), min_size=1, max_size=3),
    )
    def test_matches_fresh_closures(self, seed, T, k, undefined):
        d = _ccei_dataset(seed, T, len(undefined), k, np.array(undefined))
        # the answers as each function gave them when it closed its own stack
        S = rp._slack(rp._agents(d))
        threshold = max(map(float, _critical_levels(S)))
        g = rp._agents(d) + 1.0
        defined = (np.diagonal(g, axis1=-2, axis2=-1) > 0).all(axis=-1)
        rho = g[defined] / np.diagonal(g[defined], axis1=-2, axis2=-1)[..., :, None]
        values = iter(np.clip(-_critical_levels(-rho), 0.0, 1.0).tolist())
        ccei = [next(values) if ok else None for ok in defined.tolist()]
        assert defined.tolist() == [not u for u in undefined]
        assert mm_garp(d) == bool(_garp(S, 0.0).all())
        assert repr(garp_f_threshold(d)) == repr(threshold)
        assert repr(ccei_all(d)) == repr(ccei)
        for F in (0.0, 0.5 * threshold, threshold, threshold + 1e-9):
            assert garp_f(d, F) == bool(_garp(S, F).all())


class TestHoeffdingConfidence:
    def test_bounds_and_zero_at_eps_zero(self):
        assert hoeffding_confidence(0.0, 10, 3, 2, 1.0) == 0.0
        v = hoeffding_confidence(0.3, 50, 3, 2, 1.0)
        assert 0.0 <= v <= 1.0

    def test_nondecreasing_in_n(self):
        vals = [hoeffding_confidence(0.2, n, 4, 2, 1.0) for n in (10, 100, 1000, 10_000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_eps(self):
        vals = [hoeffding_confidence(e, 200, 4, 2, 1.0) for e in (0.05, 0.1, 0.2, 0.5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            hoeffding_confidence(-0.1, 10, 2, 1, 1.0)
        with pytest.raises(ValueError):
            hoeffding_confidence(0.1, 0, 2, 1, 1.0)
        with pytest.raises(ValueError):
            hoeffding_confidence(0.1, 10, 2, 1, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: garp_f(d, np.nan),  # returned True on a violating dataset
        lambda d: pareto_gap(d, alpha=np.nan),  # returned a certificate with alpha nan
        lambda d: afriat_feasible(d, np.nan),  # raised RuntimeError after the work was done
        lambda d: afriat_feasible(d, 0.1, alpha=np.nan),
        lambda d: hoeffding_confidence(np.nan, 10, 2, 1, 1.0),  # returned nan
        lambda d: hoeffding_confidence(0.1, 10, 2, 1, np.nan),
        lambda d: SPSAConfig(a=np.nan, c=0.1, q=0.0, eta=0.3, theta_box=[[0.0, 1.0]]),
        lambda d: SPSAConfig(a=0.1, c=np.nan, q=0.0, eta=0.3, theta_box=[[0.0, 1.0]]),
        lambda d: SPSAConfig(a=0.1, c=0.1, q=np.nan, eta=0.3, theta_box=[[0.0, 1.0]]),
        lambda d: SPSAConfig(a=0.1, c=0.1, q=0.0, eta=0.3, theta_box=[[0.0, 1.0], [np.nan, 1.0]]),
    ],
    ids=[
        "garp_f-F",
        "pareto_gap-alpha",
        "afriat-r",
        "afriat-alpha",
        "hoeffding-eps",
        "hoeffding-G",
        "spsa-a",
        "spsa-c",
        "spsa-q",
        "spsa-theta_box",
    ],
)
def test_nan_parameter_rejected(call):
    # a NaN fails every comparison, so an "x <= 0" guard let it through
    with pytest.raises(ValueError):
        call(violating_dataset(3, 2, 2, seed=1))


class TestReconstructUtility:
    def test_observed_strategy_maximizes_on_own_budget(self):
        d = consistent_dataset(T=3, M=1, k=2, seed=8)
        res = pareto_gap(d)
        util = reconstruct_utility(res.certificate, d, agent=0, tol=1e-5)
        rng = np.random.default_rng(0)
        for t in range(d.T):
            f = d.constraints[t][0]
            x_obs = d.strategies[t][0].mean
            u_obs = util(x_obs)
            for _ in range(50):
                cand = rng.uniform(0.0, 2.0, size=2)
                if f(cand) <= 0:
                    assert util(cand) <= u_obs + 1e-6

    def test_utility_beats_origin_at_observed_points(self):
        d = consistent_dataset(T=3, M=2, k=2, seed=9)
        res = pareto_gap(d)
        for i in range(d.M):
            util = reconstruct_utility(res.certificate, d, i, tol=1e-5)
            for t in range(d.T):
                assert util(d.strategies[t][i].mean) >= util(np.zeros(2)) - 1e-9

    def test_invalid_certificate_rejected(self):
        d = consistent_dataset(T=3, M=1, k=2, seed=10)
        from pareto_forge.core import ParetoCertificate

        bad = ParetoCertificate(
            np.arange(3.0).reshape(3, 1) * 100.0, np.ones((3, 1)), 0.0, 1e-3
        )
        with pytest.raises(ValueError):
            reconstruct_utility(bad, d, 0)

    def test_agent_index_checked(self):
        d = consistent_dataset(T=2, M=1, k=2, seed=11)
        res = pareto_gap(d)
        with pytest.raises(IndexError):
            reconstruct_utility(res.certificate, d, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        T=st.integers(1, 5),
        M=st.integers(1, 3),
        k=st.integers(1, 3),
        violating=st.booleans(),
        shift=st.booleans(),
    )
    def test_equals_the_per_period_minimum_bit_for_bit(self, seed, T, M, k, violating, shift):
        d = violating_dataset(max(T, 2), M, max(k, 2), seed=seed) if violating else consistent_dataset(T, M, k, seed=seed)
        rng = np.random.default_rng(seed)
        if shift:  # a shift a_t·β >= 0 of some probes loosens their budgets, so every sample stays inside
            cons = [
                [f.shifted(float(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 1.0, size=d.k)) if rng.random() < 0.5 else f for f in row]
                for row in d.constraints
            ]
            d = RPDataset(cons, d.strategies)
        cert = pareto_gap(d).certificate
        for i in range(M):
            util = reconstruct_utility(cert, d, i, tol=1e-5)
            points = rng.uniform(0.0, 2.0, size=(10, d.k))
            points[rng.random(points.shape) < 0.2] = 0.0
            for x in points:
                ref = min(cert.u[s, i] + cert.lam[s, i] * eval_constraint(d.constraints[s][i], x) for s in range(d.T))
                assert util(x).hex() == float(ref).hex()

    def test_point_checks_are_kept(self):
        d = consistent_dataset(T=2, M=1, k=2, seed=11)
        util = reconstruct_utility(pareto_gap(d).certificate, d, 0, tol=1e-5)
        with pytest.raises(DimensionError, match=r"expected \(2,\)"):
            util(np.ones(3))
        with pytest.raises(ValueError, match="non-negative orthant"):
            util(np.array([0.5, -1e-9]))


class TestRankOptimality:
    def test_unanimous_top_choice_passes(self):
        p = PreferenceProfile(rankings=((0, 1), (0, 1)), levels=(1.0, 0.0))
        assert rank_optimality_check(p, [1.0, 0.0])

    def test_unanimous_bottom_choice_fails(self):
        p = PreferenceProfile(rankings=((0, 1), (0, 1)), levels=(1.0, 0.0))
        assert not rank_optimality_check(p, [0.0, 1.0])

    def test_rnk_hand_values(self):
        p = PreferenceProfile(rankings=((0, 1, 2), (1, 0, 2)), levels=(2.0, 1.0, 0.0))
        rnk = p.rnk()
        # top-1 counts: outcome 0 is first for one agent, outcome 1 for the other
        assert list(rnk[0]) == [1, 1, 0]
        # top-2 counts: both agents hold outcomes 0 and 1 in their top two
        assert list(rnk[1]) == [2, 2, 0]
        assert list(rnk[2]) == [2, 2, 2]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda D: st.lists(st.permutations(range(D)), max_size=4)))
    def test_positions_match_the_loop_reference(self, rankings):
        D = len(rankings[0]) if rankings else 3
        p = PreferenceProfile(rankings=tuple(map(tuple, rankings)), levels=tuple(range(D, 0, -1)))
        ref = np.empty((len(rankings), D), dtype=int)
        for j, rk in enumerate(rankings):
            for pos, o in enumerate(rk):
                ref[j, o] = pos + 1
        assert np.array_equal(p.positions(), ref)
        ks = np.arange(1, D + 1)
        assert np.array_equal(p.rnk(), (ref[None, :, :] <= ks[:, None, None]).sum(axis=1))
        assert p.rnk() is p.rnk() and not p.rnk().flags.writeable

    def test_social_utilities_hand_value(self):
        p = PreferenceProfile(rankings=((0, 1), (1, 0)), levels=(3.0, 1.0))
        assert np.allclose(p.social_utilities(), [4.0, 4.0])

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            PreferenceProfile(rankings=((0, 0),), levels=(1.0, 0.0))
        with pytest.raises(ValueError):
            PreferenceProfile(rankings=((0, 1),), levels=(0.0, 1.0))

    def test_invalid_strategy_rejected(self):
        p = PreferenceProfile(rankings=((0, 1),), levels=(1.0, 0.0))
        with pytest.raises(ValueError):
            rank_optimality_check(p, [0.7, 0.7])
        with pytest.raises(ValueError):
            rank_optimality_check(p, [1.5, -0.5])
