"""Domain types shared across the workbench.

Constraint "probes" are the designer-chosen budget functions g_t^i used to
excite the system; empirical strategies are finite sample clouds standing in
for mixed strategies; a dataset bundles both over T periods and M agents and
caches the matrix of expected budget values that every downstream test
consumes.  :func:`affine_budgets` is the one decoder of an affine probe grid
into its budget sets, read by both the game and the robust estimator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

TOL_FEAS = 1e-6


class DimensionError(ValueError):
    """Point dimensionality does not match the constraint's."""


class Family(str, Enum):
    AFFINE = "affine"
    LOG_SIGMOID = "log_sigmoid"


def _sigmoid(z: NDArray[np.float64] | float):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class ConstraintFunction:
    """A budget function g(x) on the non-negative orthant of dimension ``dim``.

    Two closed forms are supported: affine ``<alpha, x> - b`` and the
    log-sigmoid ``log(2*sigma(sum x_j))``.  A nonzero shift ``a_t`` along the
    direction ``beta`` turns either base into the shifted probe
    ``g(x - a_t * beta)``.  ``family`` may be given as its string value
    (``"affine"``); it is stored as the :class:`Family` member.
    """

    family: Family
    dim: int
    alpha: tuple[float, ...] = ()
    b: float = 0.0
    a_t: float = 0.0
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.family == Family.AFFINE and len(self.alpha) != self.dim:
            raise DimensionError(
                f"affine coefficient vector has length {len(self.alpha)}, expected {self.dim}"
            )
        if self.beta and len(self.beta) != self.dim:
            raise DimensionError(
                f"shift direction has length {len(self.beta)}, expected {self.dim}"
            )

    def shifted(self, a_t: float, beta: Sequence[float]) -> "ConstraintFunction":
        """Return g(. - a_t*beta) built on the same base.

        Level sets of a shifted probe are level sets of its base, exactly, for
        both closed-form families: an affine g(x - a*beta) = g(x) - a*alpha.beta,
        and a log-sigmoid g depends on sum(x) only.  So no numerical check of
        this structure is kept.
        """
        return replace(self, a_t=a_t, beta=tuple(float(v) for v in beta))

    def __call__(self, x) -> float:
        return eval_constraint(self, x)


def _plain_coefficients(grid) -> bool:
    """Whether every coefficient of a probe grid is a finite float or int: the fast check."""
    coefs = [v for row in grid for f in row for v in (*f.alpha, f.b, f.a_t, *f.beta)]
    return {float, int}.issuperset(map(type, coefs)) and all(map(math.isfinite, coefs))


def _check_coefficients(f: ConstraintFunction, t: int, i: int) -> None:
    """Raise unless every coefficient of probe (t, i) is a finite real number, not a str or bool."""
    coefs = (*f.alpha, f.b, f.a_t, *f.beta)
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in coefs):
        raise ValueError(f"constraint ({t},{i}) has a non-numeric coefficient")
    if not all(map(math.isfinite, coefs)):
        raise ValueError(f"constraint ({t},{i}) has a non-finite coefficient")


def eval_constraint(f: ConstraintFunction, x) -> float:
    """Evaluate g at a single point of the non-negative orthant."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (f.dim,):
        raise DimensionError(f"point has shape {x.shape}, expected ({f.dim},)")
    if np.any(x < 0):
        raise ValueError("constraint functions are defined on the non-negative orthant")
    return float(eval_constraint_many(f, x[None, :])[0])


def eval_constraint_many(f: ConstraintFunction, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vectorized evaluation at rows of X (no sign check; internal hot path)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != f.dim:
        raise DimensionError(f"expected (n, {f.dim}) array, got {X.shape}")
    if f.a_t != 0.0:
        beta = np.asarray(f.beta, dtype=float) if f.beta else np.zeros(f.dim)
        X = X - f.a_t * beta
    if f.family == Family.AFFINE:
        return X @ np.asarray(f.alpha, dtype=float) - f.b
    # log(2*sigma(sum x_j)); sigma(0) = 1/2 so the origin sits on the zero level set
    return np.log(2.0 * _sigmoid(X.sum(axis=1)))


def affine_budgets(constraints, bounded: bool = False):
    """A T×M probe grid as (A, S, b), each (T, M, ·): g_t^i(γ) = A_t^i·(γ − S_t^i) − b_t^i.

    This is the one reading of an affine probe's budget set {γ ≥ 0 : g(γ) ≤ 0}:
    S is the shift a_t·β, and 0 for an unshifted probe.  Raises on an empty
    grid, and on the first block, in row order, that has a non-numeric or
    non-finite coefficient, whose probe is not affine or, when ``bounded``,
    whose budget set is not a bounded polytope; so no arithmetic reads a bad
    coefficient.
    """
    if not constraints or not constraints[0]:
        raise ValueError("the probe grid is empty")
    plain = _plain_coefficients(constraints)
    for s, row in enumerate(constraints):
        for i, f in enumerate(row):
            if not plain:
                _check_coefficients(f, s, i)
            if f.family is not Family.AFFINE:
                raise ValueError(
                    f"block (s={s}, i={i}): only affine probes define a polyhedral budget set"
                )
            if bounded and min(f.alpha) <= 0:
                raise ValueError(
                    f"block (s={s}, i={i}): budget row {list(f.alpha)} has a non-positive "
                    "entry, so its budget set is unbounded"
                )
    T, M, k = len(constraints), len(constraints[0]), constraints[0][0].dim
    probes = [f for row in constraints for f in row]
    A = np.array([f.alpha for f in probes], dtype=float).reshape(T, M, k)
    # the shift a_t·β; an unshifted probe subtracts nothing, as in eval_constraint_many
    S = np.array(
        [f.a_t * np.asarray(f.beta or np.zeros(k)) if f.a_t != 0.0 else np.zeros(k) for f in probes]
    ).reshape(T, M, k)
    b = np.array([f.b for f in probes], dtype=float).reshape(T, M)
    return A, S, b


def budget_values(budgets, X) -> NDArray[np.float64]:
    """g_t^i at points X (…, n, k) broadcast against the (T, M) probes of
    :func:`affine_budgets`: (T, M, n).

    Rounds as :func:`eval_constraint_many` does, point for point.
    """
    A, S, b = budgets
    return np.matmul(X - S[..., None, :], A[..., :, None])[..., 0] - b[..., None]


@dataclass(frozen=True)
class EmpiricalStrategy:
    """N uniformly weighted sample points approximating one mixed strategy."""

    samples: NDArray[np.float64]

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("samples must be a (N, k) array with N >= 1")
        arr = arr.copy()
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
    if s.n == 0:
        raise ValueError("empty sample list")
    if s.dim != f.dim:
        raise DimensionError(f"strategy dim {s.dim} != constraint dim {f.dim}")
    return float(eval_constraint_many(f, s.samples).mean())


def _check_finite(cons, strats) -> None:
    """Raise on the first (t, i), in row order, with a bad coefficient or a non-finite sample."""
    samples = np.concatenate([s.samples.ravel() for row in strats for s in row])
    if _plain_coefficients(cons) and np.isfinite(samples).all():
        return
    for t, (row_c, row_s) in enumerate(zip(cons, strats)):
        for i, (f, s) in enumerate(zip(row_c, row_s)):
            _check_coefficients(f, t, i)
            if not np.isfinite(s.samples).all():
                raise ValueError(f"strategy ({t},{i}) has a non-finite sample")


def _agent_budget_values(fs, xs) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One agent's budget values (G, own_max) from its probes fs and sample arrays xs.

    G[t, s] is the mean of g_t over the samples of play s, own_max[t] the
    largest g_t over the samples of play t.  The samples of all T plays are
    stacked once.  Single-sample plays under unshifted affine probes take one
    GEMM, whose per-entry sums round as the one-row products of
    :func:`expected_constraint` do (a stacked matrix-vector product would
    not); every other agent takes one :func:`eval_constraint_many` call per
    probe and segment means.
    """
    if len({f.dim for f in fs} | {x.shape[1] for x in xs}) > 1:
        for f in fs:
            for x in xs:
                if x.shape[1] != f.dim:
                    raise DimensionError(f"strategy dim {x.shape[1]} != constraint dim {f.dim}")
    X = np.concatenate(xs)
    if X.shape[0] == len(xs) and all(f.family == Family.AFFINE and f.a_t == 0.0 for f in fs):
        A = np.array([f.alpha for f in fs], dtype=float)
        G = (X @ A.T).T - np.array([f.b for f in fs], dtype=float)[:, None]
        return G, np.diagonal(G)
    n = np.array([x.shape[0] for x in xs])
    starts = np.cumsum(n) - n
    V = np.stack([eval_constraint_many(f, X) for f in fs])
    G = np.empty((len(fs), len(xs)))
    own_max = np.empty(len(fs))
    for count in np.unique(n):
        # plays with equal sample counts; take() keeps each row contiguous, so its
        # sum rounds as that play's .mean() does
        cols = np.flatnonzero(n == count)
        idx = starts[cols, None] + np.arange(count)
        G[:, cols] = V.take(idx, axis=1).sum(axis=2) / count
        own_max[cols] = V[cols[:, None], idx].max(axis=1)
    return G, own_max


@dataclass(frozen=True)
class RPDataset:
    """Observed constraints and strategies over T periods and M agents.

    ``gbar[t, s, i]`` caches the expected value of period-t's budget for agent
    i evaluated on the strategy played in period s.  It is built per agent
    from the stacked samples of its T plays (one GEMM, or one vectorized
    evaluation per probe; see :func:`_agent_budget_values`), not per entry;
    :func:`expected_constraint` is the per-entry reference it matches.
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
        if T < 1 or len(strats) != T:
            raise ValueError("constraints and strategies must be non-empty with equal T")
        M = len(cons[0])
        if any(len(row) != M for row in cons) or any(len(row) != M for row in strats):
            raise ValueError("ragged T x M grids")
        _check_finite(cons, strats)
        gbar = np.empty((T, T, M))
        own_max = np.empty((T, M))
        for i in range(M):
            gbar[:, :, i], own_max[:, i] = _agent_budget_values(
                [row[i] for row in cons], [row[i].samples for row in strats]
            )
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
        "kind": f.family.value,
        "alpha": list(f.alpha),
        "b": f.b,
        "a_t": f.a_t,
        "beta": list(f.beta),
    }


def _constraint_from_json(obj: dict, dim: int) -> ConstraintFunction:
    return ConstraintFunction(
        family=Family(obj["kind"]),
        dim=dim,
        alpha=tuple(obj.get("alpha", ())),
        b=obj.get("b", 0.0),
        a_t=obj.get("a_t", 0.0),
        beta=tuple(obj.get("beta", ())),
    )


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
        json.dump(doc, fh)


def load_dataset(path) -> RPDataset:
    with open(path) as fh:
        doc = json.load(fh)
    k = int(doc["k"])
    cons = [[_constraint_from_json(o, k) for o in row] for row in doc["constraints"]]
    strats = [
        [EmpiricalStrategy(np.asarray(o["samples"], dtype=float)) for o in row]
        for row in doc["strategies"]
    ]
    d = RPDataset(tuple(map(tuple, cons)), tuple(map(tuple, strats)))
    if d.T != int(doc["T"]) or d.M != int(doc["M"]):
        raise ValueError("dataset header (T, M) disagrees with grid shapes")
    return d
