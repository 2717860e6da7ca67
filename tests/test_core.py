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
    return ConstraintFunction(alpha, float(b))


class TestConstraintFunction:
    def test_affine_hand_value(self):
        f = _affine([2.0, 1.0], 1.5)
        assert eval_constraint(f, [0.5, 0.25]) == pytest.approx(2 * 0.5 + 0.25 - 1.5)

    def test_shift_moves_evaluation_point(self):
        f = _affine([1.0, 2.0], 0.5)
        g = f.shifted(0.3, (1.0, 0.0))
        x = np.array([1.0, 1.0])
        assert g(x) == pytest.approx(f(x - 0.3 * np.array([1.0, 0.0])))

    def test_dimension_is_the_coefficient_count(self):
        f = ConstraintFunction((2.0, 1.0, 0.5), 1.0)
        assert f.dim == 3
        with pytest.raises(AttributeError):
            f.dim = 2
        with pytest.raises(ValueError, match=r"^the affine coefficient vector is empty$"):
            ConstraintFunction(())

    @pytest.mark.parametrize(
        "scalar, vector",
        [
            (np.int64, lambda v: tuple(map(np.int64, v))),
            (np.float32, lambda v: tuple(map(np.float32, v))),
            (float, np.array),
            (float, list),
            (int, tuple),
        ],
        ids=["int64", "float32", "ndarray", "list", "int"],
    )
    def test_coefficients_are_stored_as_floats(self, tmp_path, scalar, vector):
        # numpy scalars did not save to JSON, and an ndarray alpha could not compare or hash
        f = ConstraintFunction(vector([2, 1]), b=scalar(3), a_t=scalar(1), beta=vector([1, 0]))
        assert all(type(v) is float for v in (*f.alpha, f.b, f.a_t, *f.beta))
        assert f == _affine([2.0, 1.0], 3.0).shifted(1.0, (1.0, 0.0))
        path = tmp_path / "d.json"
        save_dataset(RPDataset(((f,),), ((EmpiricalStrategy([[0.5, 0.5]]),),)), path)
        loaded = load_dataset(path).constraints[0][0]
        assert loaded == f
        assert hash(loaded) == hash(f)

    @pytest.mark.parametrize(
        "alpha, b, beta",
        [
            ((np.float64(2.0), np.float64(-0.0)), 3.0, (1.0, -0.0)),  # np.float64 subclasses float
            ((2.0, -0.0), np.float64(3.0), (1.0, -0.0)),
            ((2.0, -0.0), 3, (1.0, -0.0)),
            ([2.0, -0.0], 3.0, (1.0, -0.0)),
            ((2.0, -0.0), 3.0, [1.0, -0.0]),
        ],
        ids=["float64-alpha", "float64-b", "int-b", "list-alpha", "list-beta"],
    )
    def test_other_coefficients_become_float_tuples(self, alpha, b, beta):
        f = ConstraintFunction(alpha, b, 0.5, beta)
        assert type(f.alpha) is tuple and type(f.beta) is tuple
        assert all(type(v) is float for v in (*f.alpha, f.b, f.a_t, *f.beta))
        # repr tells -0.0 from 0.0
        assert list(map(repr, (*f.alpha, f.b, *f.beta))) == ["2.0", "-0.0", "3.0", "1.0", "-0.0"]

    def test_float_coefficients_are_kept_as_given(self):
        # a decoded probe holds plain floats already
        alpha, beta = (2.0, -0.0), (-0.0, 1.5)
        f = ConstraintFunction(alpha, -0.0, -0.0, beta)
        assert f.alpha is alpha and f.beta is beta
        assert list(map(repr, (*f.alpha, f.b, f.a_t, *f.beta))) == ["2.0", "-0.0", "-0.0", "-0.0", "-0.0", "1.5"]

    @pytest.mark.parametrize(
        "args",
        [(2.0, 1.0), (None, 1.0), ((1.0,), 1.0, 0.0, 5.0)],
        ids=["scalar-alpha", "none-alpha", "scalar-beta"],
    )
    def test_coefficient_vector_that_is_no_sequence_rejected(self, args):
        # len() of a number or None raised TypeError, unlike every other bad coefficient
        with pytest.raises(ValueError, match=r"^constraint has a non-numeric coefficient$"):
            ConstraintFunction(*args)

    def test_dimension_mismatch_raises(self):
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

    @pytest.mark.parametrize(
        "samples", [[[]], [[], []], np.zeros((2, 0))], ids=["list", "two-lists", "ndarray"]
    )
    def test_dimension_zero_rejected(self, samples):
        # a probe of dimension 0 is rejected, and so is a strategy of dimension 0
        with pytest.raises(ValueError, match=r"^strategy has samples of dimension 0$"):
            EmpiricalStrategy(samples)

    def test_samples_are_read_only(self):
        s = EmpiricalStrategy(np.ones((2, 2)))
        with pytest.raises(ValueError):
            s.samples[0, 0] = 5.0

    def test_compares_and_hashes_by_identity(self):
        # a dataclass __eq__ over the samples array raised "The truth value of an array ...
        # is ambiguous", and its __hash__ "unhashable type"
        s = EmpiricalStrategy(np.ones((2, 2)))
        twin = EmpiricalStrategy(s.samples)
        assert s == s and s != twin
        assert s in [twin, s] and twin not in [s]
        assert hash(s) != hash(twin) and len({s, twin, s}) == 2

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

    def test_compares_and_hashes_by_identity(self):
        # as for EmpiricalStrategy: the dataclass __eq__ compared gbar and raised, and its
        # __hash__ raised "unhashable type"
        d = self._tiny()
        twin = RPDataset(d.constraints, d.strategies)
        assert d == d and d != twin
        assert d in [twin, d] and twin not in [d]
        assert len({d, twin, d}) == 2 and {d: 1}[d] == 1

    def test_arrays_are_the_state_and_read_only(self):
        d = self._tiny()
        assert (d.A.shape, d.b.shape, d.X.shape, d.n.tolist()) == ((2, 1, 2), (2, 1), (2, 1, 1, 2), [[1], [1]])
        assert d.budgets[0] is d.A and d.budgets[2] is d.b and not d.S.any()
        for a in (d.A, d.b, d.a_t, d.beta, d.has_beta, d.X, d.n, d.S, d.gbar):
            assert not a.flags.writeable
        with pytest.raises(AttributeError):
            d.gbar = np.zeros((2, 2, 1))

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

    def test_agents_of_different_dimensions_rejected(self):
        # the grid built, and then save_dataset wrote a file that load_dataset rejects
        # and the exchange loop died on numpy's inhomogeneous-shape error
        cons = ((_affine([1.0, 1.0], 1.0), _affine([1.0, 1.0, 1.0], 1.0)),) * 2
        strats = ((EmpiricalStrategy([[0.5, 0.5]]), EmpiricalStrategy([[0.25, 0.25, 0.25]])),) * 2
        with pytest.raises(DimensionError, match=r"^constraint \(0,1\) has dimension 3, constraint \(0,0\) 2$"):
            RPDataset(cons, strats)

    def test_grid_without_agents_rejected(self):
        # M = 0 raised IndexError: tuple index out of range
        with pytest.raises(ValueError, match=r"^constraints and strategies must be non-empty with equal T$"):
            RPDataset(((),), ((),))

    def test_ragged_grid_rejected(self):
        f = _affine([1.0], 1.0)
        s = EmpiricalStrategy(np.array([[0.0]]))
        with pytest.raises(ValueError):
            RPDataset(((f,), (f, f)), ((s,), (s, s)))

    def test_non_finite_sample_rejected(self, tmp_path):
        # a NaN sample yields NaN budget values, which pass every "> tol" check; the
        # strategy rejects it, and a file names its block
        with pytest.raises(ValueError, match=r"^strategy has a non-finite sample$"):
            EmpiricalStrategy(np.array([[np.nan]]))
        cons = ((_affine([1.0], 1.0),), (_affine([1.0], 1.0),))
        strats = ((EmpiricalStrategy(np.array([[0.5]])),),) * 2
        path = tmp_path / "d.json"
        save_dataset(RPDataset(cons, strats), path)
        doc = json.loads(path.read_text())
        doc["strategies"][1][0]["samples"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^strategy \(1,0\) has a non-finite sample$"):
            load_dataset(path)

    def test_non_finite_coefficient_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^constraint has a non-finite coefficient$"):
            _affine([1.0, np.inf], 1.0)
        cons = ((_affine([1.0, 1.0], 1.0),),)
        strats = ((EmpiricalStrategy(np.array([[0.5, 0.0]])),),)
        path = tmp_path / "d.json"
        save_dataset(RPDataset(cons, strats), path)
        doc = json.loads(path.read_text())
        doc["constraints"][0][0]["alpha"][1] = float("inf")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^constraint \(0,0\) has a non-finite coefficient$"):
            load_dataset(path)

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
        # numpy would raise TypeError on a string, and read a bool as 1.0; no dataset
        # or budget grid can hold such a probe, as none can be built
        f = _affine([1.0], 1.0)
        match = r"^constraint has a non-numeric coefficient$"
        with pytest.raises(ValueError, match=match):
            replace(f, **fields)
        with pytest.raises(ValueError, match=match):
            ConstraintFunction(**{**vars(f), **fields})

    def test_non_finite_gbar_rejected(self):
        # finite inputs, but 1e308 * 10 overflows to inf
        f = _affine([1e308], 0.0)
        strats = ((EmpiricalStrategy(np.array([[10.0]])),),)
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ValueError, match=r"constraint \(0,0\) is not finite on strategy \(0,0\)"):
                RPDataset(((f,),), strats)


def _reference_gbar(cons, strats):
    """The per-entry construction: gbar and validation, one expected_constraint call per entry."""
    T, M = len(cons), len(cons[0])
    gbar = np.empty((T, T, M))
    for i in range(M):
        for t in range(T):
            for s in range(T):
                gbar[t, s, i] = expected_constraint(cons[t][i], strats[s][i])
    for t in range(T):
        for i in range(M):
            if cons[t][i].dim != cons[0][0].dim:
                raise DimensionError(
                    f"constraint ({t},{i}) has dimension {cons[t][i].dim}, constraint (0,0) {cons[0][0].dim}"
                )
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


KINDS = ("affine", "shifted", "mixed")


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
            kind = kinds[i] if kinds[i] != "mixed" else KINDS[rng.integers(2)]
            beta = tuple(rng.uniform(0.0, 1.0, size=k) + 0.1)
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
    """gbar is built from one evaluation over all blocks' samples; expected_constraint is its reference."""

    @settings(max_examples=150, deadline=None)
    @given(_grid_shapes())
    def test_matches_the_per_entry_reference(self, shape):
        # exactly, for every agent: single-sample plays, ragged counts and shifts included
        seed, T, M, k, kinds, counts = shape
        cons, strats = _valid_grid(seed, T, M, k, kinds, counts)
        assert np.array_equal(RPDataset(cons, strats).gbar, _reference_gbar(cons, strats))

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
                cons[t][i] = _affine(np.ones(f.dim + 1), size)
            elif fault == "nan_sample":
                # rejected where it enters, so the block keeps its valid strategy
                x[-1, 0] = np.nan if size < 2.5 else -np.inf
                with pytest.raises(ValueError, match=r"^strategy has a non-finite sample$"):
                    EmpiricalStrategy(x)
                continue
            elif fault == "inf_coefficient":
                with pytest.raises(ValueError, match=r"^constraint has a non-finite coefficient$"):
                    replace(f, b=np.inf, a_t=f.a_t or np.nan)
                continue
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
        "make",
        [lambda: violating_dataset(14, 3, 3, seed=0), lambda: dro_instance(T=14, M=3, N=5, seed=0)],
        ids=["single-sample", "five-samples"],
    )
    def test_build_makes_no_per_entry_call(self, monkeypatch, make):
        # the T^2 * M loop of expected_constraint calls must not come back, nor a call per probe
        d = make()
        calls = {"expected_constraint": 0, "eval_constraint_many": 0, "budget_values": 0}
        for name in calls:
            fn = getattr(core, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(core, name, counted)
        rebuilt = RPDataset(d.constraints, d.strategies)
        assert calls == {"expected_constraint": 0, "eval_constraint_many": 0, "budget_values": 1}
        assert np.array_equal(rebuilt.gbar, d.gbar)


class TestAffineBudgets:
    """affine_budgets checks a probe grid before it decodes it."""

    def test_a_probe_of_another_dimension_is_named(self):
        # the second probe's b was read as a coordinate: A [[1, 2], [7, 9], [4, 6]], b [5, 0, 8]
        grid = ((_affine([1.0, 2.0], 5.0), _affine([7.0], 9.0), _affine([3.0, 4.0, 6.0], 8.0)),)
        with pytest.raises(DimensionError, match=r"^constraint \(0,1\) has dimension 1, constraint \(0,0\) 2$"):
            affine_budgets(grid)

    def test_the_first_other_dimension_in_row_order_is_named(self):
        f, g = _affine([1.0, 1.0], 1.0), _affine([1.0, 1.0, 1.0], 1.0)
        with pytest.raises(DimensionError, match=r"^constraint \(1,0\) has dimension 3, constraint \(0,0\) 2$"):
            affine_budgets(((f, f), (g, g)))

    def test_a_ragged_grid_is_rejected(self):
        f = _affine([1.0], 1.0)
        for grid in (((f, f), (f,)), ((f,), (f, f))):
            with pytest.raises(ValueError, match=r"^ragged T x M grids$"):
                affine_budgets(grid)

    def test_an_empty_grid_is_rejected(self):
        for grid in ((), ((),)):
            with pytest.raises(ValueError, match=r"^the probe grid is empty$"):
                affine_budgets(grid)

    def test_a_dataset_built_from_blocks_does_not_check_its_grid_twice(self, monkeypatch):
        # RPDataset checks its grid itself, so it decodes without affine_budgets' checks
        calls = []
        monkeypatch.setattr(core, "affine_budgets", lambda *a: calls.append(a))
        monkeypatch.setattr(core, "_check_dims", lambda *a: calls.append(a))
        d = violating_dataset(4, 2, 3, seed=0)
        RPDataset(d.constraints, d.strategies)
        assert calls == []


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

    def _edited_file(self, tmp_path, keys, *value):
        """The saved dataset with the entry at the path ``keys`` set to ``value``, or deleted."""
        path = tmp_path / "d.json"
        save_dataset(self._dataset(), path)
        doc = json.loads(path.read_text())
        *parents, last = keys
        node = doc
        for key in parents:
            node = node[key]
        if value:
            node[last] = value[0]
        else:
            del node[last]
        path.write_text(json.dumps(doc))
        return path

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

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("constraints", 1, 0, "b"), 10**400, r"constraint \(1,0\) has a non-finite coefficient"),
            (("constraints", 1, 0, "alpha"), 2.0, r"constraint \(1,0\) has a non-numeric coefficient"),
            (("strategies", 1, 0, "samples", 0, 1), 10**400, r"strategy \(1,0\) has a non-finite sample"),
            (("strategies", 1, 0, "samples", 0, 1), True, r"strategy \(1,0\) has a non-numeric sample"),
            (("strategies", 0, 1, "samples", 1, 0), False, r"strategy \(0,1\) has a non-numeric sample"),
            (("strategies", 0, 1, "samples", 1, 0), "0.5", r"strategy \(0,1\) has a non-numeric sample"),
            (("strategies", 1, 1, "samples"), [0.5, 0.5], r"strategy \(1,1\) samples are not a list of points"),
        ],
        ids=[
            "huge-int-b",
            "scalar-alpha",
            "huge-int-sample",
            "true-sample",
            "false-sample",
            "string-sample",
            "flat-samples",
        ],
    )
    def test_malformed_value_in_a_file_raises_naming_its_block(self, tmp_path, keys, value, message):
        # 10**400 is read as an int too large to be a float (OverflowError before), a
        # scalar alpha raised TypeError, a bool sample was read as 1.0 or 0.0 and a
        # numeric string as its number
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_dataset(self._edited_file(tmp_path, keys, value))

    @pytest.mark.parametrize(
        "keys, value, error, message",
        [
            (("strategies", 1, 0, "samples"), [[0.5, 0.0], [0.25]], ValueError, r"strategy \(1,0\): setting an array element with a sequence"),
            (("strategies", 1, 0, "samples"), [], ValueError, r"strategy \(1,0\): samples must be a \(N, k\) array with N >= 1$"),
            (("constraints", 1, 0, "alpha"), [1.0], DimensionError, r"constraint \(1,0\): affine coefficient vector has length 1, expected 2$"),
            (("strategies", 1, 0, "samples"), [[0.5], [0.25]], DimensionError, r"strategy \(1,0\) dim 1 != constraint dim 2$"),
        ],
        ids=["ragged-samples", "empty-samples", "short-alpha", "one-dim-samples"],
    )
    def test_malformed_block_shape_raises_naming_its_block(self, tmp_path, keys, value, error, message):
        # each message named no block: numpy's own words, the constructors' and
        # RPDataset's "strategy dim 1 != constraint dim 2"
        with pytest.raises(error, match=f"^{message}"):
            load_dataset(self._edited_file(tmp_path, keys, value))

    @pytest.mark.parametrize(
        "kind", ["log_sigmoid", "quadratic", None, 1, ["affine"]], ids=["log_sigmoid", "quadratic", "null", "1", "list"]
    )
    def test_kind_other_than_affine_raises_naming_its_block(self, tmp_path, kind):
        # a log-sigmoid block was read as such, and any other kind raised "... is not a
        # valid Family"
        with pytest.raises(ValueError, match=r"^constraint \(1,0\) has the kind .+; only 'affine' is read$"):
            load_dataset(self._edited_file(tmp_path, ("constraints", 1, 0, "kind"), kind))

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("k",), r"dataset file lacks the key 'k'"),
            (("constraints", 1, 0, "kind"), r"constraint \(1,0\) lacks the key 'kind'"),
            (("strategies", 0, 1, "samples"), r"strategy \(0,1\) lacks the key 'samples'"),
        ],
    )
    def test_missing_key_raises_naming_it(self, tmp_path, keys, message):
        # a KeyError before
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_dataset(self._edited_file(tmp_path, keys))

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("T",), "2", "'T' is not an integer"),
            (("M",), 2.0, "'M' is not an integer"),
            (("k",), 2.5, "'k' is not an integer"),
            (("k",), True, "'k' is not an integer"),
            (("T",), None, "'T' is not an integer"),
            (("M",), [2], "'M' is not an integer"),
            (("constraints",), 5, "'constraints' is not a list of rows"),
            (("strategies",), None, "'strategies' is not a list of rows"),
            (("constraints", 1), "ab", "'constraints' is not a list of rows"),
            (("strategies", 0), 0.5, "'strategies' is not a list of rows"),
        ],
    )
    def test_malformed_header_or_grid_raises_naming_its_key(self, tmp_path, keys, value, message):
        # int() read "2" as 2 and 2.0 or 2.5 as 2, so those loaded silently, and
        # enumerate() raised TypeError on a number or null
        with pytest.raises(ValueError, match=f"^dataset file key {message}$"):
            load_dataset(self._edited_file(tmp_path, keys, value))

    def test_header_mismatch_rejected(self, tmp_path):
        d = self._dataset()
        path = tmp_path / "d.json"
        save_dataset(d, path)
        doc = json.loads(path.read_text())
        doc["T"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)
