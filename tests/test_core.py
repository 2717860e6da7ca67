"""Unit tests for the shared domain types: constraints, strategies, datasets."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import core
from pareto_forge.core import (
    TOL_FEAS,
    ConstraintFunction,
    DimensionError,
    EmpiricalStrategy,
    Family,
    ParetoCertificate,
    RPDataset,
    affine_budgets,
    eval_constraint,
    eval_constraint_many,
    expected_constraint,
    load_dataset,
    save_dataset,
)
from pareto_forge.synthetic import dro_instance, violating_dataset


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

    def test_family_string_means_the_member(self):
        f = ConstraintFunction("affine", 1, alpha=(1.0,), b=1.0)
        assert f.family is Family.AFFINE
        assert f == _affine([1.0], 1.0)
        assert ConstraintFunction("log_sigmoid", 2).family is Family.LOG_SIGMOID
        with pytest.raises(ValueError, match="not a valid Family"):
            ConstraintFunction("quadratic", 1)

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

    @pytest.mark.parametrize(
        "fields",
        [
            {"alpha": ("x",)},
            {"alpha": (True,)},
            {"b": "1.5"},
            {"b": np.True_},
            {"a_t": True, "beta": (1.0,)},
            {"a_t": 1.0, "beta": ("1",)},
        ],
        ids=["alpha-str", "alpha-bool", "b-str", "b-numpy-bool", "a_t-bool", "beta-str"],
    )
    def test_non_numeric_coefficient_rejected(self, fields):
        # numpy would raise TypeError on a string, and read a bool as 1.0
        f = _affine([1.0], 1.0)
        cons = ((f,), (replace(f, **fields),))
        strats = ((EmpiricalStrategy(np.array([[0.5]])),),) * 2
        match = r"^constraint \(1,0\) has a non-numeric coefficient$"
        with pytest.raises(ValueError, match=match):
            RPDataset(cons, strats)
        with pytest.raises(ValueError, match=match):
            affine_budgets(cons)

    def test_non_finite_gbar_rejected(self):
        # finite inputs, but log(2*sigma(-1000)) underflows to -inf
        f = ConstraintFunction(Family.LOG_SIGMOID, 1, a_t=1000.0, beta=(1.0,))
        strats = ((EmpiricalStrategy(np.array([[0.0]])),),)
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ValueError, match=r"constraint \(0,0\) is not finite on strategy \(0,0\)"):
                RPDataset(((f,),), strats)


def _reference_gbar(cons, strats):
    """The per-entry construction: gbar and validation, one expected_constraint call per entry."""
    T, M = len(cons), len(cons[0])
    for t in range(T):
        for i in range(M):
            f = cons[t][i]
            if not np.isfinite([*f.alpha, f.b, f.a_t, *f.beta]).all():
                raise ValueError(f"constraint ({t},{i}) has a non-finite coefficient")
            if not np.isfinite(strats[t][i].samples).all():
                raise ValueError(f"strategy ({t},{i}) has a non-finite sample")
    gbar = np.empty((T, T, M))
    for i in range(M):
        for t in range(T):
            for s in range(T):
                gbar[t, s, i] = expected_constraint(cons[t][i], strats[s][i])
    if not np.isfinite(gbar).all():
        t, s, i = np.argwhere(~np.isfinite(gbar))[0]
        raise ValueError(
            f"constraint ({t},{i}) is not finite on strategy ({s},{i}): g = {gbar[t, s, i]}"
        )
    for t in range(T):
        for i in range(M):
            if gbar[t, t, i] > TOL_FEAS:
                raise ValueError(
                    f"strategy ({t},{i}) violates its own budget: g = {gbar[t, t, i]:.3e}"
                )
            sample_vals = eval_constraint_many(cons[t][i], strats[t][i].samples)
            if sample_vals.max() > TOL_FEAS:
                raise ValueError(
                    f"a sample of strategy ({t},{i}) leaves the feasible set "
                    f"(max g = {sample_vals.max():.3e})"
                )
    return gbar


def _term_scale(f, s):
    """Mean over the samples of |b| + sum_j |alpha_j * y_j|, y = x - a_t*beta: the size
    of the terms an affine evaluation sums (0 for log-sigmoid, which sums none)."""
    if f.family != Family.LOG_SIGMOID:
        y = s.samples - f.a_t * np.asarray(f.beta or np.zeros(f.dim))
        return float((np.abs(y) @ np.abs(np.asarray(f.alpha))).mean()) + abs(f.b)
    return 0.0


KINDS = ("affine", "shifted", "log_sigmoid", "mixed")


def _valid_grid(seed, T, M, k, kinds, counts):
    """A T x M grid whose every sample lies inside its own budget.

    ``kinds[i]`` picks agent i's probes ("mixed" draws a kind per period);
    ``counts[t][i]`` is the sample count of strategy (t, i).
    """
    rng = np.random.default_rng(seed)
    cons = [[None] * M for _ in range(T)]
    strats = [[None] * M for _ in range(T)]
    for t in range(T):
        for i in range(M):
            kind = kinds[i] if kinds[i] != "mixed" else KINDS[rng.integers(3)]
            beta = tuple(rng.uniform(0.0, 1.0, size=k) + 0.1)
            if kind == "log_sigmoid":
                x = rng.uniform(-2.0, 1.0, size=(counts[t][i], k))
                # g(x - a*beta) <= 0 exactly when sum(x) <= a*sum(beta)
                a = max(0.0, float(x.sum(axis=1).max())) / sum(beta) + rng.uniform(0.0, 0.5)
                f = ConstraintFunction(Family.LOG_SIGMOID, k, a_t=float(a), beta=beta)
            else:
                x = rng.uniform(0.0, 2.0, size=(counts[t][i], k))
                f = _affine(rng.uniform(0.1, 2.0, size=k), 0.0)
                if kind == "shifted":
                    f = f.shifted(float(rng.uniform(0.1, 1.0)), beta)
                # budget level at or above the largest sample value
                f = replace(f, b=float(eval_constraint_many(f, x).max()) + rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            cons[t][i] = f
            strats[t][i] = EmpiricalStrategy(x)
    return cons, strats


@st.composite
def _grid_shapes(draw):
    T = draw(st.integers(1, 8))
    M = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=M, max_size=M))
    if draw(st.booleans()):
        n = draw(st.sampled_from([1, 1, 2, 3, 5, 12]))
        counts = [[n] * M for _ in range(T)]
    else:
        counts = draw(st.lists(st.lists(st.integers(1, 12), min_size=M, max_size=M), min_size=T, max_size=T))
    return draw(st.integers(0, 2**32 - 1)), T, M, k, kinds, counts


class TestBudgetMatrix:
    """gbar is built per agent from stacked samples; expected_constraint is its reference."""

    @settings(max_examples=150, deadline=None)
    @given(_grid_shapes())
    def test_matches_the_per_entry_reference(self, shape):
        seed, T, M, k, kinds, counts = shape
        cons, strats = _valid_grid(seed, T, M, k, kinds, counts)
        ref = _reference_gbar(cons, strats)
        gbar = RPDataset(cons, strats).gbar
        for i in range(M):
            n = [counts[t][i] for t in range(T)]
            equal = len(set(n)) == 1
            # a single-sample play inside a stacked matrix-vector product (instead
            # of numpy's one-row dot) may round differently when k >= 2
            single_in_gemv = k >= 2 and 1 in n and not (
                equal and all(f.family is Family.AFFINE and f.a_t == 0.0 for f in (row[i] for row in cons))
            )
            if equal and not single_in_gemv:
                assert np.array_equal(gbar[:, :, i], ref[:, :, i])
                continue
            scale = np.array([[_term_scale(cons[t][i], strats[s][i]) for s in range(T)] for t in range(T)])
            assert (np.abs(gbar[:, :, i] - ref[:, :, i]) <= 4 * np.spacing(scale)).all()

    @settings(max_examples=150, deadline=None)
    @given(
        _grid_shapes(),
        st.lists(
            st.tuples(
                st.sampled_from(["dim_strategy", "dim_constraint", "nan_sample", "inf_coefficient", "own", "sample"]),
                st.integers(0, 7),
                st.integers(0, 2),
                st.floats(0.05, 5.0),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_invalid_grids_fail_as_the_reference(self, shape, faults):
        seed, T, M, k, kinds, counts = shape
        cons, strats = _valid_grid(seed, T, M, k, kinds, counts)
        for fault, t, i, size in faults:
            t, i = t % T, i % M
            f, x = cons[t][i], strats[t][i].samples.copy()
            if fault == "dim_strategy":
                x = np.hstack([x, np.zeros((x.shape[0], 1))])
            elif fault == "dim_constraint":
                cons[t][i] = ConstraintFunction(Family.LOG_SIGMOID, f.dim + 1)
            elif fault == "nan_sample":
                x[-1, 0] = np.nan if size < 2.5 else -np.inf
            elif fault == "inf_coefficient":
                cons[t][i] = replace(f, b=np.inf, a_t=f.a_t or np.nan)
            elif fault == "own":
                x += size  # every sample moves out: g rises along each coordinate
            else:
                x[0] += size  # one sample moves out, the mean may stay inside
            strats[t][i] = EmpiricalStrategy(x)
        with np.errstate(all="ignore"):
            try:
                _reference_gbar(cons, strats)
            except Exception as err:  # noqa: BLE001 - the reference decides what is expected
                expected = err
            else:
                expected = None
            if expected is None:
                RPDataset(cons, strats)
                return
            with pytest.raises(type(expected)) as got:
                RPDataset(cons, strats)
        assert type(got.value) is type(expected)
        assert str(got.value) == str(expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_generator_datasets_match_the_reference_exactly(self, seed):
        for d in (
            violating_dataset(14, 3, 3, seed=seed),
            dro_instance(T=8, M=3, N=1, seed=seed),
            dro_instance(T=8, M=3, N=10, seed=seed),
        ):
            assert np.array_equal(d.gbar, _reference_gbar(d.constraints, d.strategies))

    @pytest.mark.parametrize(
        "make, limit",
        [
            (lambda: violating_dataset(14, 3, 3, seed=0), 0),  # one GEMM per agent
            (lambda: dro_instance(T=14, M=3, N=5, seed=0), 3 * 14),  # one evaluation per probe
        ],
    )
    def test_build_makes_no_per_entry_call(self, monkeypatch, make, limit):
        # the T^2 * M loop of expected_constraint calls must not come back
        d = make()
        calls = {"expected_constraint": 0, "eval_constraint_many": 0}
        for name in calls:
            fn = getattr(core, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(core, name, counted)
        rebuilt = RPDataset(d.constraints, d.strategies)
        assert calls["expected_constraint"] == 0
        assert calls["eval_constraint_many"] <= limit
        assert np.array_equal(rebuilt.gbar, d.gbar)


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

    @pytest.mark.parametrize(
        "field, value", [("alpha", "ab"), ("alpha", [True, 1.0]), ("b", True), ("a_t", "0")]
    )
    def test_non_numeric_coefficient_in_a_file_rejected(self, tmp_path, field, value):
        # "ab" has length k = 2, so it passes the length check
        path = tmp_path / "d.json"
        save_dataset(self._dataset(), path)
        doc = json.loads(path.read_text())
        doc["constraints"][1][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^constraint \(1,0\) has a non-numeric coefficient$"):
            load_dataset(path)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        T=st.integers(1, 4),
        M=st.integers(1, 3),
        k=st.integers(1, 3),
        N=st.integers(1, 3),
        shift=st.booleans(),
    )
    def test_round_trip_property(self, tmp_path_factory, seed, T, M, k, N, shift):
        rng = np.random.default_rng(seed)
        cons, strats = [], []
        for _t in range(T):
            crow, srow = [], []
            for _i in range(M):
                samples = rng.uniform(0.0, 2.0, size=(N, k))
                alpha = rng.uniform(0.1, 3.0, size=k)
                a_t = float(rng.uniform(-1.0, 1.0)) if shift else 0.0
                beta = rng.uniform(0.0, 1.0, size=k) if shift else np.zeros(k)
                # the samples sit inside their own (shifted) budget
                b = float((samples @ alpha).max() - a_t * alpha @ beta + rng.uniform(0.0, 1.0))
                f = _affine(alpha, b)
                crow.append(f.shifted(a_t, beta) if shift else f)
                srow.append(EmpiricalStrategy(samples))
            cons.append(tuple(crow))
            strats.append(tuple(srow))
        d = RPDataset(tuple(cons), tuple(strats))
        path = tmp_path_factory.mktemp("rt") / "d.json"
        save_dataset(d, path)
        d2 = load_dataset(path)
        assert d2.constraints == d.constraints
        for row, row2 in zip(d.strategies, d2.strategies):
            for s1, s2 in zip(row, row2):
                assert np.array_equal(s1.samples, s2.samples)
        assert np.array_equal(d2.gbar, d.gbar)
        again = path.with_name("again.json")
        save_dataset(d2, again)
        assert again.read_bytes() == path.read_bytes()

    def test_header_mismatch_rejected(self, tmp_path):
        d = self._dataset()
        path = tmp_path / "d.json"
        save_dataset(d, path)
        doc = json.loads(path.read_text())
        doc["T"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)
