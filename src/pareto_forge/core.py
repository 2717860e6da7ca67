"""Domain types shared across the workbench.

Constraint "probes" are the designer-chosen budget functions g_t^i used to
excite the system; empirical strategies are finite sample clouds standing in
for mixed strategies; a dataset bundles both over T periods and M agents and
caches the matrix of expected budget values that every downstream test
consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

TOL_FEAS = 1e-6


class DimensionError(ValueError):
    """Point dimensionality does not match the constraint's."""


class Family(str, Enum):
    AFFINE = "affine"
    LOG_SIGMOID = "log_sigmoid"


class Kind(str, Enum):
    AFFINE = "affine"
    LOG_SIGMOID = "log_sigmoid"
    SHIFTED_BASE = "shifted_base"


def _sigmoid(z: NDArray[np.float64] | float):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class ConstraintFunction:
    """A budget function g(x) on the non-negative orthant of dimension ``dim``.

    Two closed forms are supported: affine ``<alpha, x> - b`` and the
    log-sigmoid ``log(2*sigma(sum x_j))``.  A nonzero shift ``a_t`` along the
    direction ``beta`` turns either base into the shifted probe
    ``g(x - a_t * beta)``.
    """

    family: Family
    dim: int
    alpha: tuple[float, ...] = ()
    b: float = 0.0
    a_t: float = 0.0
    beta: tuple[float, ...] = ()

    def __post_init__(self):
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

    @property
    def kind(self) -> Kind:
        if self.a_t != 0.0:
            return Kind.SHIFTED_BASE
        return Kind(self.family.value)

    def shifted(self, a_t: float, beta: Sequence[float]) -> "ConstraintFunction":
        """Return g(. - a_t*beta) built on the same base."""
        return replace(self, a_t=a_t, beta=tuple(float(v) for v in beta))

    def __call__(self, x) -> float:
        return eval_constraint(self, x)


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


@dataclass(frozen=True)
class RPDataset:
    """Observed constraints and strategies over T periods and M agents.

    ``gbar[t, s, i]`` caches the expected value of period-t's budget for agent
    i evaluated on the strategy played in period s.
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
                f"constraint ({t},{i}) is not finite on strategy ({s},{i}): "
                f"g = {gbar[t, s, i]}"
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


@dataclass(frozen=True)
class ProbeSpec:
    """Recipe for drawing T shifted copies of a base constraint."""

    base: ConstraintFunction
    beta: tuple[float, ...]
    chi: tuple[float, float]
    seed: int

    def __post_init__(self):
        lo, hi = self.chi
        if not hi > lo:
            raise ValueError(f"chi interval must have positive length, got {self.chi}")
        if not any(v != 0 for v in self.beta):
            raise ValueError("shift direction beta must be nonzero")


def generate_probes(spec: ProbeSpec, T: int) -> list[ConstraintFunction]:
    """Draw a_t ~ Uniform(chi) for t in [T] and return the shifted probes."""
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.chi
    shifts = rng.uniform(lo, hi, size=T)
    return [spec.base.shifted(float(a), spec.beta) for a in shifts]


def check_shift_invariance(
    base: ConstraintFunction | Callable[[NDArray[np.float64]], float],
    dim: int,
    beta: Sequence[float],
    trials: int = 32,
    seed: int = 0,
    tol: float = 1e-6,
    shift_range: tuple[float, float] = (0.0, 1.0),
) -> bool:
    """Check that zero level sets of the shifted function map to level sets of g.

    Samples shifts a and pairs of points x, y with g(x - a*beta) = 0 (found by
    bisection along random segments) and tests |g(x) - g(y)| <= tol.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g = base if callable(base) and not isinstance(base, ConstraintFunction) else (
        lambda z, f=base: _eval_unclamped(f, z)
    )
    beta = np.asarray(beta, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        a = rng.uniform(*shift_range)
        gs = lambda z: g(z - a * beta)
        pts = []
        attempts = 0
        while len(pts) < 2 and attempts < 50:
            attempts += 1
            d = rng.uniform(0.2, 1.0, size=dim)
            if gs(np.zeros(dim)) > 0:
                continue  # origin not below the shifted level set; try another shift/ray
            hi_scale = 1.0
            while gs(hi_scale * d) < 0 and hi_scale < 1e6:
                hi_scale *= 2.0
            if gs(hi_scale * d) < 0:
                continue
            lo_s, hi_s = 0.0, hi_scale
            for _ in range(80):
                mid = 0.5 * (lo_s + hi_s)
                if gs(mid * d) < 0:
                    lo_s = mid
                else:
                    hi_s = mid
            pts.append(hi_s * d)
        if len(pts) < 2:
            continue
        if abs(g(pts[0]) - g(pts[1])) > tol:
            return False
    return True


def _eval_unclamped(f: ConstraintFunction, x: NDArray[np.float64]) -> float:
    """Evaluate without the orthant guard (shifted arguments may go negative)."""
    return float(eval_constraint_many(f, np.asarray(x, dtype=float)[None, :])[0])


def is_elementwise_increasing(
    f: ConstraintFunction | Callable,
    dim: int,
    trials: int = 64,
    seed: int = 0,
    scale: float = 2.0,
) -> bool:
    """Numerical monotonicity check on random coordinate bumps."""
    g = f if callable(f) and not isinstance(f, ConstraintFunction) else (
        lambda z, fn=f: _eval_unclamped(fn, z)
    )
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.uniform(0, scale, size=dim)
        j = rng.integers(dim)
        step = rng.uniform(1e-3, 0.5)
        y = x.copy()
        y[j] += step
        if g(y) < g(x) - 1e-10:
            return False
    return True


def is_concave(
    f: ConstraintFunction | Callable,
    dim: int,
    trials: int = 64,
    seed: int = 0,
    scale: float = 2.0,
) -> bool:
    """Midpoint concavity check on random segments."""
    g = f if callable(f) and not isinstance(f, ConstraintFunction) else (
        lambda z, fn=f: _eval_unclamped(fn, z)
    )
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.uniform(0, scale, size=dim)
        y = rng.uniform(0, scale, size=dim)
        mid = 0.5 * (x + y)
        if g(mid) < 0.5 * (g(x) + g(y)) - 1e-9:
            return False
    return True


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
        b=float(obj.get("b", 0.0)),
        a_t=float(obj.get("a_t", 0.0)),
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
