"""Domain types shared across the workbench.

Constraint "probes" are the designer-chosen budget functions g_t^i used to
excite the system; empirical strategies are finite sample clouds standing in
for mixed strategies.  A dataset holds both over T periods and M agents as
arrays, the decoded probe grid and the padded sample stack, and caches the
matrix of expected budget values that every downstream test consumes; it
builds block objects only when they are read; every grid is (T, M, ·).
:func:`affine_budgets` decodes a grid of probe objects into its budget sets,
:func:`budget_values` is the one evaluator of g, in a fixed summation order,
and :func:`cross_values` of every probe at every play.  :func:`load_dataset`
reads a file as arrays, with every check in bulk, and walks the blocks one by
one only to name the first bad one; :func:`save_dataset` writes the arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from numbers import Integral, Real
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

TOL_FEAS = 1e-6


class DimensionError(ValueError):
    """A point, strategy or probe has another dimension than the one it must match."""


@dataclass(frozen=True)
class ConstraintFunction:
    """The affine budget function g(x) = <alpha, x> - b on the non-negative orthant.

    Its dimension ``dim`` is the length of ``alpha``, which must be at least 1.
    A nonzero shift ``a_t`` along the direction ``beta`` turns it into the
    shifted probe ``g(x - a_t * beta)``.  Coefficients may be any real numbers
    (numpy scalars, and arrays for ``alpha`` and ``beta``); they are stored as
    plain floats and float tuples, so that a probe compares, hashes and saves
    to JSON alike whatever it was built from.  Float tuples and floats are
    kept as given.
    """

    alpha: tuple[float, ...]
    b: float = 0.0
    a_t: float = 0.0
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        try:
            n_alpha, n_beta = len(self.alpha), len(self.beta)
        except TypeError:  # a coefficient vector that is a number or None
            raise ValueError("constraint has a non-numeric coefficient") from None
        if n_alpha < 1:
            raise ValueError("the affine coefficient vector is empty")
        if n_beta not in (0, n_alpha):
            raise DimensionError(f"shift direction has length {n_beta}, expected {n_alpha}")
        coefs = (*self.alpha, self.b, self.a_t, *self.beta)
        _check_reals(coefs, "constraint has a non-{} coefficient")
        if type(self.alpha) is tuple and type(self.beta) is tuple and _FLOAT.issuperset(map(type, coefs)):
            return  # stored as given: a decoded probe is plain floats already
        object.__setattr__(self, "alpha", tuple(map(float, self.alpha)))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "a_t", float(self.a_t))
        object.__setattr__(self, "beta", tuple(map(float, self.beta)))

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def shifted(self, a_t: float, beta: Sequence[float]) -> "ConstraintFunction":
        """Return g(. - a_t*beta) built on the same base.

        Level sets of a shifted probe are level sets of its base, exactly:
        g(x - a*beta) = g(x) - a*alpha.beta.  So no numerical check of this
        structure is kept.
        """
        return replace(self, a_t=a_t, beta=beta)

    def __call__(self, x) -> float:
        return eval_constraint(self, x)


_PLAIN = frozenset((float, int))  # the types a JSON number is read as
_FLOAT = frozenset((float,))
_LIST = frozenset((list,))  # the type a JSON array is read as


def _check_reals(values, message: str) -> None:
    """Raise ValueError(message.format(kind)) unless every value is a finite real number: kind is
    "numeric" for a str or bool (numpy's too), "finite" for NaN, ±inf or an int too large to be
    a float.  Plain floats and ints take one type scan."""
    if not _PLAIN.issuperset(map(type, values)) and not all(
        isinstance(v, Real) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(message.format("numeric"))
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an int too large to be a float
        finite = False
    if not finite:
        raise ValueError(message.format("finite"))


def _check_ints(obj, fields) -> None:
    """Raise ValueError unless each (name, least) field of the frozen dataclass obj is an int,
    bools excluded, and >= least; store it as a plain int, so numpy ints serialise to JSON."""
    for name, least in fields:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
        object.__setattr__(obj, name, int(value))


def _orthant_point(x, dim: int) -> NDArray[np.float64]:
    """x as a (dim,) point of the non-negative orthant, where every probe is defined."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (dim,):
        raise DimensionError(f"point has shape {x.shape}, expected ({dim},)")
    if np.any(x < 0):
        raise ValueError("constraint functions are defined on the non-negative orthant")
    return x


def eval_constraint(f: ConstraintFunction, x) -> float:
    """Evaluate g at a single point of the non-negative orthant."""
    return float(eval_constraint_many(f, _orthant_point(x, f.dim)[None, :])[0])


def eval_constraint_many(f: ConstraintFunction, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vectorized evaluation at rows of X (no sign check): :func:`budget_values` of f alone."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != f.dim:
        raise DimensionError(f"expected (n, {f.dim}) array, got {X.shape}")
    return budget_values(affine_budgets(((f,),)), X)[0, 0]


def affine_budgets(constraints):
    """A T×M probe grid as (A, S, b), each (T, M, ·): g_t^i(γ) = A_t^i·(γ − S_t^i) − b_t^i.

    This is the one reading of a probe's budget set {γ ≥ 0 : g(γ) ≤ 0}: S is
    the shift a_t·β, and 0 for an unshifted probe.  Raises on an empty or
    ragged grid and on a probe of another dimension than probe (0,0).  Every
    coefficient is a finite real number, as :class:`ConstraintFunction` checks
    at construction.  A dataset holds its grid decoded, as ``RPDataset.budgets``;
    :func:`check_bounded` checks that each set is bounded.
    """
    if not constraints or not constraints[0]:
        raise ValueError("the probe grid is empty")
    if any(len(row) != len(constraints[0]) for row in constraints):
        raise ValueError("ragged T x M grids")
    _check_dims(constraints)
    p = _probe_arrays(constraints)
    return p["A"], _shift(p["a_t"], p["beta"]), p["b"]


def _check_dims(constraints) -> None:
    """Raise DimensionError on the first probe, in row order, of another dimension than probe (0,0)."""
    k = constraints[0][0].dim
    for t, row in enumerate(constraints):
        for i, f in enumerate(row):
            if f.dim != k:
                raise DimensionError(f"constraint ({t},{i}) has dimension {f.dim}, constraint (0,0) {k}")


def check_bounded(budgets):
    """The budgets (A, S, b), after raising on the first block, in row order, whose budget
    set is not a bounded polytope: one whose row A_s^i has an entry <= 0."""
    A = budgets[0]
    unbounded = A.min(axis=-1) <= 0
    if unbounded.any():
        s, i = np.argwhere(unbounded)[0]
        raise ValueError(
            f"block (s={s}, i={i}): budget row {A[s, i].tolist()} has a non-positive "
            "entry, so its budget set is unbounded"
        )
    return budgets


def _probe_table(P, has_beta, T: int, M: int, k: int) -> dict:
    """The probe arrays of :class:`RPDataset` from the T·M rows (*alpha, b, a_t, *beta) of P,
    beta zero-padded where ``has_beta`` is False: views of P, but a contiguous A for einsum."""
    P = P.reshape(T, M, 2 * k + 2)
    return {
        "A": np.ascontiguousarray(P[..., :k]),
        "b": P[..., k],
        "a_t": P[..., k + 1],
        "beta": P[..., k + 2 :],
        "has_beta": np.array(has_beta, dtype=bool).reshape(T, M),
    }


def _probe_arrays(constraints) -> dict:
    """:func:`_probe_table` of a T×M grid of probes of one dimension."""
    probes = [f for row in constraints for f in row]
    k = probes[0].dim
    zero = (0.0,) * k
    P = np.fromiter(chain.from_iterable([(*f.alpha, f.b, f.a_t, *(f.beta or zero)) for f in probes]), float)
    return _probe_table(P, [bool(f.beta) for f in probes], len(constraints), len(constraints[0]), k)


def _shift(a_t, beta) -> NDArray[np.float64]:
    """S = a_t·β, +0 where a_t or β is 0, so budget_values may skip an all-zero S."""
    if not a_t.any():
        return np.zeros(beta.shape)
    with np.errstate(over="ignore"):  # inf, as the product of two floats is
        S = a_t[..., None] * beta
    return np.where(((a_t != 0.0) & beta.any(axis=-1))[..., None], S, 0.0)


def budget_values(budgets, X) -> NDArray[np.float64]:
    """g_t^i at points X (…, n, k) broadcast against the (T, M) probes of
    :func:`affine_budgets`: (T, M, n).

    g = Σ_j (x_j − S_j)·A_j − b takes one elementwise term per coordinate, added
    left to right, and no BLAS product: a point gets the same bits alone, at
    any place in any stack, and on any CPU.  A grid without a shift skips the
    subtraction, which changes no bit: x − (+0) is x.
    """
    A, S, b = budgets
    X = np.asarray(X, dtype=float)
    if S.any():
        X = X - S[..., None, :]
    g = X[..., 0] * A[..., 0, None]
    for j in range(1, A.shape[-1]):
        g += X[..., j] * A[..., j, None]
    g -= b[..., None]
    return g


def cross_values(budgets, pts) -> NDArray[np.float64]:
    """g[t, s, i, j] = g_t^i(pts[s, i, j]) for points pts (T, M, n, k): (T, T, M, n).  One
    :func:`budget_values` call takes agent i's probes at the T·n points of all its plays."""
    T, M, n, k = pts.shape
    g = budget_values(budgets, pts.transpose(1, 0, 2, 3).reshape(1, M, T * n, k))
    return g.reshape(T, M, T, n).transpose(0, 2, 1, 3)


@dataclass(frozen=True, eq=False)
class EmpiricalStrategy:
    """N uniformly weighted sample points approximating one mixed strategy: an (N, k)
    int or float array, or a list of points, of finite real numbers.  A strategy compares
    and hashes by identity, as its samples are an array."""

    samples: NDArray[np.float64]

    def __post_init__(self):
        x = self.samples
        if not isinstance(x, np.ndarray):
            try:
                coords = list(chain.from_iterable(x))
            except TypeError:  # the samples, or a point, are not a list
                raise ValueError("strategy samples are not a list of points") from None
            # numpy would read true as 1.0 and "0.5" as 0.5
            _check_reals(coords, "strategy has a non-{} sample")
        elif x.dtype.kind not in "fiu":
            raise ValueError("strategy has a non-numeric sample")
        elif np.count_nonzero(np.isfinite(x)) < x.size:  # half the time of .all() on a small array
            raise ValueError("strategy has a non-finite sample")
        arr = np.array(x, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("samples must be a (N, k) array with N >= 1")
        if arr.shape[1] < 1:
            raise ValueError("strategy has samples of dimension 0")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def mean(self) -> NDArray[np.float64]:
        return self.samples.mean(axis=0)


def expected_constraint(f: ConstraintFunction, s: EmpiricalStrategy) -> float:
    """Sample-mean of g over the strategy's support."""
    if s.dim != f.dim:
        raise DimensionError(f"strategy dim {s.dim} != constraint dim {f.dim}")
    return float(eval_constraint_many(f, s.samples).mean())


@dataclass(frozen=True, eq=False, init=False)
class RPDataset:
    """Observed probes and strategies over T periods and M agents, held as arrays.

    The state is the decoded probe grid, each (T, M, ·): ``A``, ``b``, ``a_t``
    and ``beta``, zero where ``has_beta`` says that a probe has no direction,
    so that every block round-trips exactly; and the plays' samples ``X``
    (T, M, c, k), play (s, i) at ``X[s, i, :n[s, i]]`` zero-padded with +0.0
    to the largest count c, with the counts ``n`` (T, M).  ``T``, ``M`` and
    ``k`` read their shapes.  ``RPDataset(constraints, strategies)`` converts
    the block objects once and keeps them; one built by :meth:`_from_arrays`,
    as every producer here is, builds them only when first read.

    :meth:`__post_init__`, run once on every construction path, evaluates
    ``gbar[t, s, i]``, the expected value of period-t's budget for agent i on
    the strategy played in period s, and rejects a non-finite entry and a
    play or sample outside its own budget.  One :func:`cross_values` call
    evaluates every probe of each agent at the samples of all its plays; the
    plays of each sample count are then averaged together, so every entry
    rounds as its per-entry reference :func:`expected_constraint` does.  All
    arrays are read-only, and a dataset compares and hashes by identity.
    """

    A: NDArray[np.float64]  # (T, M, k)
    b: NDArray[np.float64]  # (T, M)
    a_t: NDArray[np.float64]  # (T, M)
    beta: NDArray[np.float64]  # (T, M, k)
    has_beta: NDArray[np.bool_]  # (T, M)
    X: NDArray[np.float64]  # (T, M, c, k)
    n: NDArray[np.int_]  # (T, M)
    S: NDArray[np.float64]  # (T, M, k): the shift a_t·β of affine_budgets
    gbar: NDArray[np.float64]  # (T, T, M)

    def __init__(self, constraints, strategies):
        cons = tuple(tuple(row) for row in constraints)
        strats = tuple(tuple(row) for row in strategies)
        T = len(cons)
        if T < 1 or len(strats) != T or not cons[0]:
            raise ValueError("constraints and strategies must be non-empty with equal T")
        M = len(cons[0])
        if any(len(row) != M for row in cons) or any(len(row) != M for row in strats):
            raise ValueError("ragged T x M grids")
        xs = [s.samples for row in strats for s in row]
        if len({len(f.alpha) for row in cons for f in row} | {x.shape[1] for x in xs}) > 1:
            # the first mismatch in (agent, probe, play) order; else every agent's probes and
            # samples share one dimension, and row 0 has a block of another than block (0,0)'s
            for i, t, s in np.ndindex(M, T, T):
                if strats[s][i].dim != cons[t][i].dim:
                    raise DimensionError(f"strategy dim {strats[s][i].dim} != constraint dim {cons[t][i].dim}")
            _check_dims(cons)
        n = np.fromiter(map(len, xs), int, T * M).reshape(T, M)
        X = _padded(np.concatenate(xs), n, xs[0].shape[1])
        vars(self).update(_probe_arrays(cons), X=X, n=n, constraints=cons, strategies=strats)
        self.__post_init__()

    @classmethod
    def _from_arrays(cls, arrays: dict) -> "RPDataset":
        """The dataset of the arrays A, b, a_t, beta, has_beta, X and n, with no block objects."""
        d = cls.__new__(cls)
        vars(d).update(arrays)
        d.__post_init__()
        return d

    def __post_init__(self):
        A, b, X, n = self.A, self.b, self.X, self.n
        T, M, c = X.shape[:3]
        S = _shift(self.a_t, self.beta)
        V = cross_values((A, S, b), X)  # V[t, s, i, j] = g_t^i(X[s, i, j])
        gbar = np.empty((T, T, M))
        for count in set(n.flat):
            # every play's first `count` values, one contiguous row per (probe, play), whose
            # sum rounds as .mean() does; kept for the plays with `count` samples
            mean = V[..., :count].reshape(-1, count).sum(axis=1) / count
            np.copyto(gbar, mean.reshape(T, T, M), where=n == count)
        held = np.arange(c) < n[..., None]  # (T, M, c): which of c slots play (s, i) fills
        at_own = V[np.arange(T), np.arange(T)]  # at_own[t] = V[t, t]
        own_max = np.where(held, at_own, -np.inf).max(axis=2)  # largest g_t^i over play (t, i)
        if not np.isfinite(gbar).all():
            t, s, i = np.argwhere(~np.isfinite(gbar))[0]
            raise ValueError(
                f"constraint ({t},{i}) is not finite on strategy ({s},{i}): "
                f"g = {gbar[t, s, i]}"
            )
        own = np.diagonal(gbar).T  # own[t, i] = gbar[t, t, i]
        outside = (own > TOL_FEAS) | (own_max > TOL_FEAS)
        if outside.any():
            t, i = np.argwhere(outside)[0]
            if own[t, i] > TOL_FEAS:
                raise ValueError(
                    f"strategy ({t},{i}) violates its own budget: g = {own[t, i]:.3e}"
                )
            raise ValueError(
                f"a sample of strategy ({t},{i}) leaves the feasible set "
                f"(max g = {own_max[t, i]:.3e})"
            )
        for a in (A, b, self.a_t, self.beta, self.has_beta, X, n, S, gbar):
            a.setflags(write=False)
        vars(self).update(S=S, gbar=gbar)

    @property
    def T(self) -> int:
        return self.A.shape[0]

    @property
    def M(self) -> int:
        return self.A.shape[1]

    @property
    def k(self) -> int:
        return self.A.shape[2]

    @property
    def budgets(self):
        """(A, S, b), as :func:`affine_budgets` decodes :attr:`constraints`."""
        return self.A, self.S, self.b

    @cached_property
    def constraints(self) -> tuple[tuple[ConstraintFunction, ...], ...]:  # T x M
        grids = (v.tolist() for v in (self.A, self.b, self.a_t, self.beta, self.has_beta))
        return tuple(
            tuple(ConstraintFunction(tuple(a), b, a_t, tuple(beta) if has else ()) for a, b, a_t, beta, has in zip(*row))
            for row in zip(*grids)
        )

    @cached_property
    def strategies(self) -> tuple[tuple[EmpiricalStrategy, ...], ...]:  # T x M
        X, n = self.X, self.n
        return tuple(tuple(EmpiricalStrategy(X[t, i, : n[t, i]]) for i in range(self.M)) for t in range(self.T))


def _padded(points, n, k: int) -> NDArray[np.float64]:
    """The points of one play after another, n[j] points for the play of cell j of the count
    grid n, as a stack (*n.shape, c, k), each play zero-padded to the largest count c."""
    c = n.max()
    if n.min() == c:
        return points.reshape(*n.shape, c, k)
    X = np.zeros((*n.shape, c, k))
    X[np.arange(c) < n[..., None]] = points
    return X


@dataclass(frozen=True)
class ParetoCertificate:
    """Feasible utility levels and multipliers witnessing a relaxation r."""

    u: NDArray[np.float64]  # (T, M)
    lam: NDArray[np.float64]  # (T, M)
    r: float
    alpha: float

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        lam = np.array(self.lam, dtype=float)
        if u.shape != lam.shape or u.ndim != 2:
            raise ValueError("u and lam must be matching (T, M) grids")
        u.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", lam)

    def max_violation(self, d: RPDataset) -> float:
        """Largest residual of u_s - u_t - lam_t*(gbar[t,s] + r) over (t,s,i)."""
        if self.u.shape != (d.T, d.M):
            raise ValueError("certificate shape does not match dataset")
        resid = (
            self.u[None, :, :]
            - self.u[:, None, :]
            - self.lam[:, None, :] * (d.gbar + self.r)
        )
        return float(resid.max())

    def validates(self, d: RPDataset, tol: float = 1e-7) -> bool:
        if np.any(self.lam < self.alpha - tol):
            return False
        return self.max_violation(d) <= tol


# --- dataset file format ----------------------------------------------------


def _at_block(err: ValueError, subject: str, t: int, i: int) -> ValueError:
    """A constructor's error with the block (t, i) named: after its subject when it starts
    with it ("strategy (t,i) has a non-finite sample"), else before it ("strategy (t,i):
    samples must be …"); a DimensionError stays one."""
    head, _, rest = str(err).partition(" ")
    cls = DimensionError if isinstance(err, DimensionError) else ValueError
    return cls(f"{subject} ({t},{i}) {rest}" if head == subject else f"{subject} ({t},{i}): {err}")


def _constraint_from_json(obj, dim: int, t: int, i: int) -> ConstraintFunction:
    try:
        kind, alpha, beta = obj["kind"], obj.get("alpha", []), obj.get("beta", [])
    except (KeyError, TypeError):  # obj is no dict with a "kind"
        raise ValueError(f"constraint ({t},{i}) lacks the key 'kind'") from None
    # a coefficient vector that is not a list (a str, a number) is not numeric
    if type(alpha) is not list or type(beta) is not list:
        raise ValueError(f"constraint ({t},{i}) has a non-numeric coefficient")
    if kind != "affine":
        raise ValueError(f"constraint ({t},{i}) has the kind {kind!r}; only 'affine' is read")
    if len(alpha) != dim:
        raise DimensionError(
            f"constraint ({t},{i}): affine coefficient vector has length {len(alpha)}, expected {dim}"
        )
    b, a_t = obj.get("b", 0.0), obj.get("a_t", 0.0)
    try:
        return ConstraintFunction(tuple(alpha), b, a_t, tuple(beta))
    except ValueError as err:
        raise _at_block(err, "constraint", t, i) from None


def _strategy_from_json(obj, dim: int, t: int, i: int) -> EmpiricalStrategy:
    try:
        rows = obj["samples"]
    except (KeyError, TypeError):  # obj is no dict with "samples"
        raise ValueError(f"strategy ({t},{i}) lacks the key 'samples'") from None
    try:
        s = EmpiricalStrategy(rows)
    except ValueError as err:
        raise _at_block(err, "strategy", t, i) from None
    if s.dim != dim:
        raise DimensionError(f"strategy ({t},{i}) dim {s.dim} != constraint dim {dim}")
    return s


def save_dataset(d: RPDataset, path) -> None:
    """Write d's arrays, play (s, i) as ``X[s, i, :n[s, i]]`` and ``beta`` [] where not ``has_beta``."""
    grids = (v.tolist() for v in (d.A, d.b, d.a_t, d.beta, d.has_beta))
    cons = [
        [{"kind": "affine", "alpha": a, "b": b, "a_t": a_t, "beta": beta if has else []} for a, b, a_t, beta, has in zip(*row)]
        for row in zip(*grids)
    ]
    plays = [[{"samples": x[:m]} for x, m in zip(*row)] for row in zip(d.X.tolist(), d.n.tolist())]
    doc = {"T": d.T, "M": d.M, "k": d.k, "constraints": cons, "strategies": plays}
    with open(path, "w") as fh:
        # json.dumps takes the C encoder, json.dump always the pure-Python one; same bytes
        fh.write(json.dumps(doc))


def load_dataset(path) -> RPDataset:
    """Read a :func:`save_dataset` file.

    A well-formed file is read as arrays (:func:`_file_arrays`), every check
    made in bulk, and its dataset builds no block object until one is read.
    Only when a bulk check fails are the blocks walked one by one
    (:func:`_walk`), to raise on the first bad one; a walk that finds none
    builds the dataset from blocks.  A malformed file raises ValueError
    naming the missing key, a header T, M or k that is not a JSON integer (a
    bool included), a grid that is not a list of rows, or a bad (t, i)
    block: a kind other than ``"affine"``, a coefficient or sample that is
    not a JSON number (a bool included), or one that is not finite or too
    large to be a float, a coefficient vector or a sample list of the wrong
    shape, or samples of another dimension than k.
    """
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("T", "M", "k", "constraints", "strategies"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"dataset file lacks the key {key!r}")
    for key in ("T", "M", "k"):
        if type(doc[key]) is not int:
            raise ValueError(f"dataset file key {key!r} is not an integer")
    for key in ("constraints", "strategies"):
        if type(doc[key]) is not list or any(type(row) is not list for row in doc[key]):
            raise ValueError(f"dataset file key {key!r} is not a list of rows")
    arrays = _file_arrays(doc)
    return _walk(doc) if arrays is None else RPDataset._from_arrays(arrays)


def _file_arrays(doc) -> dict | None:
    """The arrays of :class:`RPDataset` read from a file's lists by one ``np.array`` call, or
    None unless every bulk check passes: T × M grids that match the header, every probe an
    ``"affine"`` dict with an ``alpha`` list of k >= 1 values and a ``beta`` list, if any, of
    0 or k, every play a list of N >= 1 lists of k, and every value a finite int or float
    (no bool).  :func:`_walk` raises on any other file and builds these arrays from this one."""
    rows, plays, k = doc["constraints"], doc["strategies"], doc["k"]
    T, M = len(rows), len(rows[0]) if rows else 0
    if not (T == doc["T"] == len(plays) and M == doc["M"] >= 1 and k >= 1):
        return None
    if {*map(len, rows), *map(len, plays)} != {M}:
        return None
    probes, plays = [*chain.from_iterable(rows)], [*chain.from_iterable(plays)]
    try:
        if any(o["kind"] != "affine" for o in probes):
            return None
        alphas = [o["alpha"] for o in probes]
        betas = [o.get("beta", []) for o in probes]
        samples = [o["samples"] for o in plays]
        points = [*chain.from_iterable(samples)]
    except (KeyError, TypeError):  # a block that is no dict or lacks a key, samples no list
        return None
    if not _LIST.issuperset(map(type, chain(alphas, betas, samples, points))):
        return None
    counts = [*map(len, samples)]
    if 0 in counts or {*map(len, alphas), *map(len, points)} != {k} or not {*map(len, betas)} <= {0, k}:
        return None
    zero = [0.0] * k
    table = [[*a, o.get("b", 0.0), o.get("a_t", 0.0), *(be or zero)] for o, a, be in zip(probes, alphas, betas)]
    values = [*chain.from_iterable(table), *chain.from_iterable(points)]  # one array's worth
    if not _PLAIN.issuperset(map(type, values)):
        return None
    try:
        values = np.array(values, dtype=float)
    except OverflowError:  # an int too large to be a float
        return None
    if not np.isfinite(values).all():
        return None
    cut = len(table) * (2 * k + 2)
    P, pts = values[:cut], values[cut:]
    n = np.array(counts).reshape(T, M)
    arrays = _probe_table(P, [*map(bool, betas)], T, M, k)
    return {**arrays, "X": _padded(pts.reshape(-1, k), n, k), "n": n}


def _walk(doc) -> RPDataset:
    """The dataset of a file built from blocks: every probe, then every play, in row order,
    by its constructor, so that the first bad block raises with its (t, i) named."""
    k = doc["k"]
    cons = [
        [_constraint_from_json(o, k, t, i) for i, o in enumerate(row)]
        for t, row in enumerate(doc["constraints"])
    ]
    strats = [
        [_strategy_from_json(o, k, t, i) for i, o in enumerate(row)]
        for t, row in enumerate(doc["strategies"])
    ]
    d = RPDataset(cons, strats)
    if d.T != doc["T"] or d.M != doc["M"]:
        raise ValueError("dataset header (T, M) disagrees with grid shapes")
    return d
