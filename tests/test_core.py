"""Unit tests for the shared domain types: constraints, strategies, datasets."""

from __future__ import annotations

import numpy as np
import pytest

from pareto_forge.core import (
    ConstraintFunction,
    DimensionError,
    EmpiricalStrategy,
    Family,
    Kind,
    ParetoCertificate,
    ProbeSpec,
    RPDataset,
    check_shift_invariance,
    eval_constraint,
    eval_constraint_many,
    expected_constraint,
    generate_probes,
    is_concave,
    is_elementwise_increasing,
    load_dataset,
    save_dataset,
)


def _affine(alpha, b):
    alpha = tuple(float(a) for a in np.atleast_1d(alpha))
    return ConstraintFunction(Family.AFFINE, len(alpha), alpha=alpha, b=float(b))


class TestConstraintFunction:
    def test_affine_hand_value(self):
        f = _affine([2.0, 1.0], 1.5)
        assert eval_constraint(f, [0.5, 0.25]) == pytest.approx(2 * 0.5 + 0.25 - 1.5)

    def test_log_sigmoid_zero_at_origin(self):
        f = ConstraintFunction(Family.LOG_SIGMOID, 3)
        assert eval_constraint(f, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_log_sigmoid_hand_value(self):
        f = ConstraintFunction(Family.LOG_SIGMOID, 2)
        x = np.array([0.3, 0.7])
        expected = np.log(2.0 / (1.0 + np.exp(-1.0)))
        assert eval_constraint(f, x) == pytest.approx(expected)

    def test_shift_moves_evaluation_point(self):
        f = _affine([1.0, 2.0], 0.5)
        g = f.shifted(0.3, (1.0, 0.0))
        x = np.array([1.0, 1.0])
        assert g(x) == pytest.approx(f(x - 0.3 * np.array([1.0, 0.0])))

    def test_kind_property(self):
        f = _affine([1.0], 0.0)
        assert f.kind is Kind.AFFINE
        assert f.shifted(0.5, (1.0,)).kind is Kind.SHIFTED_BASE
        assert ConstraintFunction(Family.LOG_SIGMOID, 1).kind is Kind.LOG_SIGMOID

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ConstraintFunction(Family.AFFINE, 2, alpha=(1.0,))
        f = _affine([1.0, 1.0], 0.0)
        with pytest.raises(DimensionError):
            eval_constraint(f, [1.0])

    def test_negative_point_rejected(self):
        f = _affine([1.0], 0.0)
        with pytest.raises(ValueError):
            eval_constraint(f, [-0.1])

    def test_vectorized_matches_scalar(self):
        f = _affine([0.5, 1.5], 0.2)
        X = np.array([[0.1, 0.2], [1.0, 0.0], [0.0, 0.0]])
        many = eval_constraint_many(f, X)
        for row, v in zip(X, many):
            assert v == pytest.approx(eval_constraint(f, row))


class TestEmpiricalStrategy:
    def test_mean_and_shape(self):
        s = EmpiricalStrategy(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert s.n == 2
        assert s.dim == 2
        assert np.allclose(s.mean, [1.0, 2.0])

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            EmpiricalStrategy(np.zeros(3))
        with pytest.raises(ValueError):
            EmpiricalStrategy(np.zeros((0, 2)))

    def test_samples_are_read_only(self):
        s = EmpiricalStrategy(np.ones((2, 2)))
        with pytest.raises(ValueError):
            s.samples[0, 0] = 5.0

    def test_expected_constraint_is_sample_mean(self):
        f = _affine([1.0, 1.0], 1.0)
        s = EmpiricalStrategy(np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert expected_constraint(f, s) == pytest.approx(0.5 * (-1.0 + 0.0))


class TestRPDataset:
    def _tiny(self):
        cons = (
            (_affine([2.0, 1.0], 1.0),),
            (_affine([1.0, 2.0], 1.0),),
        )
        strats = (
            (EmpiricalStrategy(np.array([[0.5, 0.0]])),),
            (EmpiricalStrategy(np.array([[0.0, 0.5]])),),
        )
        return RPDataset(cons, strats)

    def test_gbar_hand_values(self):
        d = self._tiny()
        assert d.T == 2 and d.M == 1 and d.k == 2
        assert d.gbar[0, 0, 0] == pytest.approx(0.0)
        assert d.gbar[0, 1, 0] == pytest.approx(-0.5)
        assert d.gbar[1, 0, 0] == pytest.approx(-0.5)
        assert d.gbar[1, 1, 0] == pytest.approx(0.0)

    def test_own_budget_violation_rejected(self):
        cons = ((_affine([1.0], 1.0),),)
        strats = ((EmpiricalStrategy(np.array([[2.0]])),),)
        with pytest.raises(ValueError, match="budget"):
            RPDataset(cons, strats)

    def test_stray_sample_rejected(self):
        # mean is inside the budget but one sample is far outside
        cons = ((_affine([1.0], 1.0),),)
        strats = ((EmpiricalStrategy(np.array([[0.0], [1.9]])),),)
        with pytest.raises(ValueError, match="sample"):
            RPDataset(cons, strats)

    def test_ragged_grid_rejected(self):
        f = _affine([1.0], 1.0)
        s = EmpiricalStrategy(np.array([[0.0]]))
        with pytest.raises(ValueError):
            RPDataset(((f,), (f, f)), ((s,), (s, s)))

    def test_non_finite_sample_rejected(self):
        # a NaN sample yields NaN budget values, which pass every "> tol" check
        cons = ((_affine([1.0], 1.0),), (_affine([1.0], 1.0),))
        strats = (
            (EmpiricalStrategy(np.array([[0.5]])),),
            (EmpiricalStrategy(np.array([[np.nan]])),),
        )
        with pytest.raises(ValueError, match=r"strategy \(1,0\) has a non-finite sample"):
            RPDataset(cons, strats)

    def test_non_finite_coefficient_rejected(self):
        cons = ((_affine([1.0, np.inf], 1.0),),)
        strats = ((EmpiricalStrategy(np.array([[0.5, 0.0]])),),)
        with pytest.raises(ValueError, match=r"constraint \(0,0\) has a non-finite coefficient"):
            RPDataset(cons, strats)

    def test_non_finite_gbar_rejected(self):
        # finite inputs, but log(2*sigma(-1000)) underflows to -inf
        f = ConstraintFunction(Family.LOG_SIGMOID, 1, a_t=1000.0, beta=(1.0,))
        strats = ((EmpiricalStrategy(np.array([[0.0]])),),)
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ValueError, match=r"constraint \(0,0\) is not finite on strategy \(0,0\)"):
                RPDataset(((f,),), strats)


class TestParetoCertificate:
    def test_max_violation_hand_value(self):
        cons = (
            (_affine([2.0, 1.0], 1.0),),
            (_affine([1.0, 2.0], 1.0),),
        )
        strats = (
            (EmpiricalStrategy(np.array([[0.5, 0.0]])),),
            (EmpiricalStrategy(np.array([[0.0, 0.5]])),),
        )
        d = RPDataset(cons, strats)
        u = np.array([[0.0], [1.0]])
        lam = np.ones((2, 1))
        cert = ParetoCertificate(u, lam, r=0.0, alpha=1e-3)
        # worst residual: u_1 - u_0 - lam_0 * gbar[0,1] = 1 - (-0.5) = 1.5
        assert cert.max_violation(d) == pytest.approx(1.5)
        assert not cert.validates(d)

    def test_validates_checks_alpha_floor(self):
        # budget exhausted, so (u, lam) = (0, 1) satisfies the diagonal rows
        cons = ((_affine([1.0], 1.0),),)
        strats = ((EmpiricalStrategy(np.array([[1.0]])),),)
        d = RPDataset(cons, strats)
        good = ParetoCertificate(np.zeros((1, 1)), np.ones((1, 1)), 0.0, 1e-3)
        assert good.validates(d)
        low_lam = ParetoCertificate(np.zeros((1, 1)), np.full((1, 1), 1e-6), 0.0, 1e-3)
        assert not low_lam.validates(d)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ParetoCertificate(np.zeros((2, 1)), np.ones((1, 1)), 0.0, 1e-3)


class TestProbeGeneration:
    def test_probe_count_and_shift_range(self):
        base = _affine([1.0, 1.0], 1.0)
        spec = ProbeSpec(base, beta=(1.0, 0.0), chi=(0.2, 0.8), seed=3)
        probes = generate_probes(spec, 12)
        assert len(probes) == 12
        for p in probes:
            assert 0.2 <= p.a_t <= 0.8
            assert p.beta == (1.0, 0.0)

    def test_seeded_determinism(self):
        base = _affine([1.0], 1.0)
        spec = ProbeSpec(base, beta=(1.0,), chi=(0.0, 1.0), seed=11)
        a = [p.a_t for p in generate_probes(spec, 5)]
        b = [p.a_t for p in generate_probes(spec, 5)]
        assert a == b

    def test_invalid_spec_rejected(self):
        base = _affine([1.0], 1.0)
        with pytest.raises(ValueError):
            ProbeSpec(base, beta=(1.0,), chi=(1.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            ProbeSpec(base, beta=(0.0,), chi=(0.0, 1.0), seed=0)


class TestStructuralChecks:
    def test_affine_is_shift_invariant(self):
        f = _affine([1.0, 2.0], 1.0)
        assert check_shift_invariance(f, 2, beta=(1.0, 0.5))

    def test_log_sigmoid_is_shift_invariant(self):
        f = ConstraintFunction(Family.LOG_SIGMOID, 2)
        assert check_shift_invariance(f, 2, beta=(1.0, 1.0))

    def test_shift_invariance_detects_counterexample(self):
        # level sets of x1^2 + x2^2 - 1 shifted along e1 do not map to level sets
        g = lambda z: float(z[0] ** 2 + z[1] ** 2 - 1.0)  # noqa: E731
        assert not check_shift_invariance(g, 2, beta=(1.0, 0.0), shift_range=(0.3, 0.9))

    def test_monotonicity_checks(self):
        assert is_elementwise_increasing(_affine([1.0, 1.0], 0.0), 2)
        assert is_elementwise_increasing(ConstraintFunction(Family.LOG_SIGMOID, 2), 2)
        assert not is_elementwise_increasing(lambda z: float(-z.sum()), 2)

    def test_concavity_checks(self):
        assert is_concave(_affine([1.0, 1.0], 0.0), 2)
        assert is_concave(ConstraintFunction(Family.LOG_SIGMOID, 2), 2)
        assert not is_concave(lambda z: float((z**2).sum()), 2)


class TestDatasetFiles:
    def _dataset(self):
        base = _affine([2.0, 1.0], 1.0)
        cons = (
            (base, base.shifted(0.25, (1.0, 0.0))),
            (_affine([1.0, 2.0], 1.0), _affine([1.0, 1.0], 2.0)),
        )
        strats = (
            (
                EmpiricalStrategy(np.array([[0.5, 0.0], [0.25, 0.5]])),
                EmpiricalStrategy(np.array([[0.5, 0.0], [0.25, 0.5]])),
            ),
            (
                EmpiricalStrategy(np.array([[0.0, 0.5], [0.5, 0.25]])),
                EmpiricalStrategy(np.array([[1.0, 1.0], [0.0, 0.0]])),
            ),
        )
        return RPDataset(cons, strats)

    def test_round_trip_preserves_gbar(self, tmp_path):
        d = self._dataset()
        path = tmp_path / "d.json"
        save_dataset(d, path)
        d2 = load_dataset(path)
        assert d2.T == d.T and d2.M == d.M and d2.k == d.k
        assert np.allclose(d2.gbar, d.gbar)

    def test_resave_is_byte_identical(self, tmp_path):
        d = self._dataset()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(d, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_mismatch_rejected(self, tmp_path):
        import json

        d = self._dataset()
        path = tmp_path / "d.json"
        save_dataset(d, path)
        doc = json.loads(path.read_text())
        doc["T"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)
