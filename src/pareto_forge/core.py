"""Domain types shared across the workbench.

Constraint "probes" are the designer-chosen budget functions g_t^i used to
excite the system; empirical strategies are finite sample clouds standing in
for mixed strategies; a dataset bundles both over T periods and M agents and
caches the matrix of expected budget values that every downstream test
consumes.  :func:`affine_budgets` is the one decoder of an affine probe grid
into its budget sets, read by both the game and the robust estimator, and
:func:`budget_values` the one evaluator of g, in a fixed summation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
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


def affine_budgets(constraints, bounded: bool = False):
    """A T×M probe grid as (A, S, b), each (T, M, ·): g_t^i(γ) = A_t^i·(γ − S_t^i) − b_t^i.

    This is the one reading of a probe's budget set {γ ≥ 0 : g(γ) ≤ 0}: S is
    the shift a_t·β, and 0 for an unshifted probe.  Raises on an empty grid,
    and, when ``bounded``, on the first block, in row order, whose budget set
    is not a bounded polytope.  Every coefficient is a finite real number, as
    :class:`ConstraintFunction` checks at construction.
    """
    if not constraints or not constraints[0]:
        raise ValueError("the probe grid is empty")
    if bounded:
        for s, row in enumerate(constraints):
            for i, f in enumerate(row):
                if min(f.alpha) <= 0:
                    raise ValueError(
                        f"block (s={s}, i={i}): budget row {list(f.alpha)} has a non-positive "
                        "entry, so its budget set is unbounded"
                    )
    T, M, k = len(constraints), len(constraints[0]), constraints[0][0].dim
    probes = [f for row in constraints for f in row]
    A = np.array([f.alpha for f in probes], dtype=float).reshape(T, M, k)
    # the shift a_t·β, +0 where a_t or β is 0, so budget_values may skip an all-zero S
    S = np.zeros((T * M, k))
    for j, f in enumerate(probes):
        if f.a_t != 0.0 and any(f.beta):
            S[j] = [f.a_t * c for c in f.beta]
    b = np.array([f.b for f in probes], dtype=float).reshape(T, M)
    return A, S.reshape(T, M, k), b


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


@dataclass(frozen=True)
class EmpiricalStrategy:
    """N uniformly weighted sample points approximating one mixed strategy: an (N, k)
    int or float array, or a list of points, of finite real numbers."""

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


@dataclass(frozen=True)
class RPDataset:
    """Observed constraints and strategies over T periods and M agents.

    ``gbar[t, s, i]`` caches the expected value of period-t's budget for agent
    i evaluated on the strategy played in period s.  The grid is decoded once
    (:func:`affine_budgets`), and one :func:`budget_values` call evaluates
    every probe of each agent at the samples of all its plays, each play
    zero-padded to the largest sample count when the counts differ.  The
    plays of each sample count are then averaged together, so every entry
    rounds as its per-entry reference :func:`expected_constraint` does.
    """

    constraints: tuple[tuple[ConstraintFunction, ...], ...]  # T x M
    strategies: tuple[tuple[EmpiricalStrategy, ...], ...]  # T x M
    gbar: NDArray[np.float64] = field(init=False)

    def __post_init__(self):
        cons = tuple(tuple(row) for row in self.constraints)
        strats = tuple(tuple(row) for row in self.strategies)
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "strategies", strats)
        T = len(cons)
        if T < 1 or len(strats) != T or not cons[0]:
            raise ValueError("constraints and strategies must be non-empty with equal T")
        M = len(cons[0])
        if any(len(row) != M for row in cons) or any(len(row) != M for row in strats):
            raise ValueError("ragged T x M grids")
        xs = [row[i].samples for i in range(M) for row in strats]  # agent by agent, play by play
        if len({len(f.alpha) for row in cons for f in row} | {x.shape[1] for x in xs}) > 1:
            # the first mismatch in (agent, probe, play) order; else every agent's probes and
            # samples share one dimension, and row 0 has a block of another than block (0,0)'s
            for i, t, s in np.ndindex(M, T, T):
                if strats[s][i].dim != cons[t][i].dim:
                    raise DimensionError(f"strategy dim {strats[s][i].dim} != constraint dim {cons[t][i].dim}")
            i, k = next((i, f.dim) for i, f in enumerate(cons[0]) if f.dim != cons[0][0].dim)
            raise DimensionError(f"constraint (0,{i}) has dimension {k}, constraint (0,0) {cons[0][0].dim}")
        n = np.fromiter(map(len, xs), int, T * M).reshape(M, T)  # n[i, s]: samples of play (s, i)
        c, k = n.max(), xs[0].shape[1]
        held = np.arange(c) < n[..., None]  # (M, T, c): which of c slots play (s, i) fills
        if n.min() == c:  # X[i, s]: the samples of play (s, i)
            X = np.concatenate(xs).reshape(M, T, c, k)
        else:  # zero-padded to c
            X = np.zeros((M, T, c, k))
            X[held] = np.concatenate(xs)
        # V[t, i, s, j] = g_t^i(X[i, s, j])
        V = budget_values(affine_budgets(cons), X.reshape(1, M, T * c, k)).reshape(T, M, T, c)
        G = np.empty((T, M, T))  # G[t, i, s] = gbar[t, s, i]
        for count in {x.shape[0] for x in xs}:
            # every play's first `count` values, one contiguous row per (probe, play), whose
            # sum rounds as .mean() does; kept for the plays with `count` samples
            mean = V[..., :count].reshape(-1, count).sum(axis=1) / count
            np.copyto(G, mean.reshape(T, M, T), where=n == count)
        gbar = np.ascontiguousarray(G.transpose(0, 2, 1))
        at_own = np.diagonal(V, axis1=0, axis2=2).transpose(0, 2, 1)  # at_own[i, t] = V[t, i, t]
        own_max = np.where(held, at_own, -np.inf).max(axis=2).T  # largest g_t^i over play (t, i)
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
        gbar.setflags(write=False)
        object.__setattr__(self, "gbar", gbar)

    @property
    def T(self) -> int:
        return len(self.constraints)

    @property
    def M(self) -> int:
        return len(self.constraints[0])

    @property
    def k(self) -> int:
        return self.constraints[0][0].dim


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


def _constraint_to_json(f: ConstraintFunction) -> dict:
    return {
        "kind": "affine",
        "alpha": list(f.alpha),
        "b": f.b,
        "a_t": f.a_t,
        "beta": list(f.beta),
    }


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
    doc = {
        "T": d.T,
        "M": d.M,
        "k": d.k,
        "constraints": [[_constraint_to_json(f) for f in row] for row in d.constraints],
        "strategies": [
            [{"samples": s.samples.tolist()} for s in row] for row in d.strategies
        ],
    }
    with open(path, "w") as fh:
        # json.dumps takes the C encoder, json.dump always the pure-Python one; same bytes
        fh.write(json.dumps(doc))


def load_dataset(path) -> RPDataset:
    """Read a :func:`save_dataset` file.

    A malformed file raises ValueError naming the missing key, a header T, M
    or k that is not a JSON integer (a bool included), a grid that is not a
    list of rows, or a bad (t, i) block: a kind other than ``"affine"``, a
    coefficient or sample that is not a JSON number (a bool included), or one
    that is not finite or too large to be a float, a coefficient vector or a
    sample list of the wrong shape, or samples of another dimension than k.
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
    k = doc["k"]
    cons = [
        [_constraint_from_json(o, k, t, i) for i, o in enumerate(row)]
        for t, row in enumerate(doc["constraints"])
    ]
    strats = [
        [_strategy_from_json(o, k, t, i) for i, o in enumerate(row)]
        for t, row in enumerate(doc["strategies"])
    ]
    d = RPDataset(tuple(map(tuple, cons)), tuple(map(tuple, strats)))
    if d.T != doc["T"] or d.M != doc["M"]:
        raise ValueError("dataset header (T, M) disagrees with grid shapes")
    return d
