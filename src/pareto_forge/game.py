"""Games with exact best responses, Nash equilibria and dataset collection.

The black-box multi-agent system behind the workbench: a game exposes
per-agent payoffs and an exact best response on each agent's convex feasible
set; Nash equilibria are computed by the relaxation method driven by the
Nikaido-Isoda function; ``collect_dataset`` plays the game under a sequence
of budget probes and records the observed strategies in the
revealed-preference dataset format.

The flagship instance is a three-agent river-pollution game with a
seven-dimensional mechanism parameter θ (demand slope plus per-agent cost
coefficients) and station-wise pollution caps.  For θ ≥ 0 its payoff is
convex in an agent's own action, so every best response sits at an end of
the budget interval; the best response is exact for any θ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .core import ConstraintFunction, EmpiricalStrategy, Family, RPDataset

TOL_NE = 1e-5
MAX_OUTER = 500
PROJECT_SWEEPS = 50


# --- feasible sets ------------------------------------------------------------


@dataclass(frozen=True)
class AgentFeasibleSet:
    """Convex feasible set for one agent: a box intersected with A x <= b."""

    lower: NDArray[np.float64]
    upper: NDArray[np.float64]
    A: NDArray[np.float64] | None = None
    b: NDArray[np.float64] | None = None

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid box bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.A is not None:
            A = np.asarray(self.A, dtype=float).reshape(-1, lo.size)
            b = np.asarray(self.b, dtype=float).reshape(-1)
            if A.shape[0] != b.size:
                raise ValueError("A and b disagree on row count")
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        if self.A is not None and np.any(self.A @ x > self.b + tol):
            return False
        return True

    def project(self, x) -> NDArray[np.float64]:
        """Project onto the set by alternating box clips and halfspace projections."""
        y = np.clip(np.asarray(x, dtype=float), self.lower, self.upper)
        if self.A is None:
            return y
        for _ in range(PROJECT_SWEEPS):
            moved = False
            for row, rhs in zip(self.A, self.b):
                excess = row @ y - rhs
                if excess > 1e-12:
                    y = y - excess * row / (row @ row)
                    moved = True
            y = np.clip(y, self.lower, self.upper)
            if not moved and self.contains(y):
                break
        return y


def probe_feasible_set(probe: ConstraintFunction) -> AgentFeasibleSet:
    """Feasible set {x >= 0 : g(x) <= 0} of an affine increasing probe."""
    if probe.family is not Family.AFFINE:
        raise ValueError("only affine probes define a polyhedral feasible set")
    alpha = np.asarray(probe.alpha, dtype=float)
    # g(x) = <alpha, x - a_t*beta> - b <= 0
    rhs = probe.b
    if probe.a_t:
        rhs += float(alpha @ (probe.a_t * np.asarray(probe.beta, dtype=float)))
    lo = np.zeros(probe.dim)
    hi = np.where(alpha > 0, rhs / np.where(alpha > 0, alpha, 1.0), np.inf)
    hi = np.maximum(hi, 0.0)
    if probe.dim == 1:
        return AgentFeasibleSet(lo, hi)
    return AgentFeasibleSet(lo, np.maximum(hi, 0.0), A=alpha[None, :], b=np.array([rhs]))


# --- game interface -----------------------------------------------------------


class GameInterface:
    """A game: M agents, k-dimensional actions, per-agent payoffs.

    Subclasses implement :meth:`payoff` and :meth:`best_response`, an exact
    maximiser of agent i's payoff over its feasible set with the other
    agents' actions held fixed.  Joint actions are (M, k) arrays.
    """

    M: int
    k: int

    def payoff(self, x: NDArray[np.float64], i: int) -> float:
        raise NotImplementedError

    def best_response(self, x: NDArray[np.float64], i: int, fs: AgentFeasibleSet) -> NDArray[np.float64]:
        raise NotImplementedError

    @property
    def theta(self) -> NDArray[np.float64]:
        raise NotImplementedError


@dataclass(frozen=True)
class RiverPollutionGame(GameInterface):
    """Three agents discharge into a river monitored at two stations.

    Agent i's profit is d1·x_i − d2·√(x1+x2+x3) − c_{1i}·√x_i − c_{2i}·x_i,
    where θ = [d2, c11, c12, c13, c21, c22, c23] ∈ [0,1]^7 is the mechanism
    parameter.  Station l caps pollutant concentration: Σ_i δ_il·e_i·x_i ≤ cap,
    with δ a non-negative (3, L) array whose rows each reach some station.
    """

    theta_vec: NDArray[np.float64]
    d1: float = 3.0
    delta: NDArray[np.float64] = field(
        default_factory=lambda: np.array([[0.9, 0.1], [0.6, 0.4], [0.2, 0.8]])
    )
    cap: float = 100.0

    M = 3
    k = 1

    def __post_init__(self):
        th = np.asarray(self.theta_vec, dtype=float).reshape(-1)
        if th.size != 7:
            raise ValueError("theta must have 7 components")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        # the design box is [0,1]^7, but the payoff is well defined beyond it
        # and perturbed evaluations during mechanism tuning may step outside
        if not np.isfinite(self.d1):
            raise ValueError(f"d1 must be finite, got {self.d1}")
        if not (np.isfinite(self.cap) and self.cap > 0):
            raise ValueError(f"cap must be finite and positive, got {self.cap}")
        dl = np.asarray(self.delta, dtype=float)
        if (
            dl.ndim != 2
            or dl.shape[0] != self.M
            or dl.shape[1] == 0
            or not np.all(np.isfinite(dl))
            or np.any(dl < 0)
            or np.any(dl.max(axis=1) <= 0)
        ):
            raise ValueError(
                "delta must be a finite, non-negative (3, L) array with a positive "
                f"entry in every row, got shape {dl.shape}"
            )
        object.__setattr__(self, "theta_vec", th)
        object.__setattr__(self, "delta", dl)

    @property
    def theta(self) -> NDArray[np.float64]:
        return self.theta_vec

    def payoff(self, x: NDArray[np.float64], i: int) -> float:
        x = np.asarray(x, dtype=float).reshape(self.M)
        if np.any(x < 0):
            raise ValueError("actions must be non-negative")
        d2 = self.theta_vec[0]
        c1 = self.theta_vec[1 + i]
        c2 = self.theta_vec[4 + i]
        return float(
            self.d1 * x[i] - d2 * np.sqrt(x.sum()) - c1 * np.sqrt(x[i]) - c2 * x[i]
        )

    def best_response(self, x, i: int, fs: AgentFeasibleSet) -> NDArray[np.float64]:
        """Exact maximiser of agent i's payoff over its budget interval [lo, hi].

        With s = Σ_{j≠i} x_j, a = d1 − c_{2i} and y = √x_i, the payoff is
        a·y² − d2·√(y² + s) − c_{1i}·y; squaring its stationarity condition
        gives the quartic (y² + s)(2a·y − c_{1i})² − d2²·y² = 0.  Every
        interior maximiser is the square of a real root, so the best of the
        two endpoints and the clipped squared real parts of all four roots is
        exact; spurious or complex roots only add feasible candidates.
        """
        if fs.dim != 1 or fs.A is not None:
            raise ValueError("the river game's best response needs an interval feasible set")
        lo, hi = float(fs.lower[0]), float(fs.upper[0])
        if not np.isfinite(hi):
            raise ValueError(f"agent {i} has an unbounded budget: upper bound {hi}")
        x = np.asarray(x, dtype=float).reshape(self.M)
        s = x.sum() - x[i]
        d2, c1 = self.theta_vec[0], self.theta_vec[1 + i]
        a = self.d1 - self.theta_vec[4 + i]
        quartic = [4 * a * a, -4 * a * c1, c1 * c1 + 4 * a * a * s - d2 * d2, -4 * a * c1 * s, c1 * c1 * s]
        cands = np.concatenate([[lo, hi], np.clip(np.roots(quartic).real ** 2, lo, hi)])

        def value(c):
            joint = x.copy()
            joint[i] = c
            return self.payoff(joint, i)

        return np.array([max(cands, key=value)])


def payoff(g: GameInterface, x, i: int) -> float:
    """Agent i's payoff at the joint action x."""
    return g.payoff(np.asarray(x, dtype=float), i)


def nikaido_isoda(g: GameInterface, x, y) -> float:
    """Ψ(x, y) = Σ_i [f^i(y_i, x_{−i}) − f^i(x)]; zero at y = x by construction."""
    x = np.asarray(x, dtype=float).reshape(g.M, -1)
    y = np.asarray(y, dtype=float).reshape(g.M, -1)
    total = 0.0
    for i in range(g.M):
        xi = x.copy()
        xi[i] = y[i]
        total += g.payoff(xi, i) - g.payoff(x, i)
    return float(total)


def best_deviation(
    g: GameInterface,
    x,
    constraints: tuple[AgentFeasibleSet, ...],
) -> NDArray[np.float64]:
    """Z(x): each agent's exact best response to x_{−i} over its own feasible set."""
    x = np.asarray(x, dtype=float).reshape(g.M, -1)
    z = x.copy()
    for i in range(g.M):
        z[i] = g.best_response(x, i, constraints[i])
    return z


class NashConvergenceError(RuntimeError):
    """A Nash computation that did not reach its residual tolerance."""


@dataclass(frozen=True)
class NashResult:
    x_star: NDArray[np.float64]
    ni_residual: float
    iterations: int
    converged: bool


def relaxation_nash(
    g: GameInterface,
    constraints: tuple[AgentFeasibleSet, ...],
    x0,
    schedule=None,
    tol_ne: float = TOL_NE,
    max_iters: int = MAX_OUTER,
) -> NashResult:
    """Relaxation method: x_{k+1} = (1−α_k)·x_k + α_k·Z(x_k), α_k = 1/(k+1).

    The per-agent subproblems in Z are independent, so the Nikaido-Isoda
    residual max_y Ψ(x, y) equals Ψ(x, Z(x)) and is a free by-product of each
    step.  Iterates stay feasible (convex combinations in convex sets).
    """
    if schedule is None:
        schedule = lambda k: 1.0 / (k + 1)  # noqa: E731
    x = np.asarray(x0, dtype=float).reshape(g.M, -1)
    for i, fs in enumerate(constraints):
        if not fs.contains(x[i]):
            raise ValueError(f"x0 infeasible for agent {i}")
    residual = np.inf
    for k in range(max_iters):
        z = best_deviation(g, x, constraints)
        residual = nikaido_isoda(g, x, z)
        if residual <= tol_ne:
            return NashResult(x, float(residual), k, True)
        x = (1.0 - schedule(k)) * x + schedule(k) * z
    z = best_deviation(g, x, constraints)
    residual = nikaido_isoda(g, x, z)
    return NashResult(x, float(residual), max_iters, residual <= tol_ne)


# --- dataset collection -------------------------------------------------------


def river_probes(
    game: RiverPollutionGame, T: int, seed: int = 0
) -> tuple[tuple[ConstraintFunction, ...], ...]:
    """Per-period, per-agent budget probes for the river game.

    Each period draws emission coefficients e ~ Uniform[0,1]^3 and charges each
    agent its worst-station load: g_t^i(x_i) = (max_l δ_il)·e_i·x_i − cap, a
    separable upper bound of the joint station constraints.
    """
    rng = np.random.default_rng(seed)
    worst = game.delta.max(axis=1)
    rows = []
    for _t in range(T):
        e = rng.uniform(0.0, 1.0, size=game.M)
        rows.append(
            tuple(
                ConstraintFunction(
                    Family.AFFINE, 1, alpha=(float(worst[i] * e[i]),), b=float(game.cap)
                )
                for i in range(game.M)
            )
        )
    return tuple(rows)


def collect_dataset(
    g: GameInterface,
    probes: tuple[tuple[ConstraintFunction, ...], ...],
    N: int = 1,
    jitter: float = 0.0,
    seed: int = 0,
    tol_ne: float = TOL_NE,
) -> RPDataset:
    """Play the game once per probe period and record the observed strategies.

    Each period builds per-agent feasible sets from its probes, computes the
    Nash equilibrium by the relaxation method, and emits N samples per agent:
    the equilibrium action plus optional uniform jitter projected back into the
    budget set (jitter=0 gives N identical samples, a pure strategy).  A
    period whose equilibrium does not converge raises NashConvergenceError.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    T = len(probes)
    ss = np.random.SeedSequence(seed)
    period_seeds = ss.spawn(T)
    strategies = []
    for t in range(T):
        if len(probes[t]) != g.M:
            raise ValueError(f"period {t} probes do not cover all {g.M} agents")
        sets = tuple(probe_feasible_set(p) for p in probes[t])
        x0 = np.stack(
            [
                fs.project(0.5 * (fs.lower + np.where(np.isfinite(fs.upper), fs.upper, fs.lower + 1.0)))
                for fs in sets
            ]
        )
        res = relaxation_nash(g, sets, x0, tol_ne=tol_ne)
        if not res.converged:
            raise NashConvergenceError(
                f"Nash computation failed at period {t}: residual "
                f"{res.ni_residual:.3e} after {res.iterations} iterations"
            )
        rng = np.random.default_rng(period_seeds[t])
        row = []
        for i in range(g.M):
            base = res.x_star[i]
            if jitter > 0:
                pts = base[None, :] + rng.uniform(-jitter, jitter, size=(N, base.size))
                pts = np.stack([sets[i].project(p) for p in pts])
            else:
                pts = np.repeat(base[None, :], N, axis=0)
            row.append(EmpiricalStrategy(pts))
        strategies.append(tuple(row))
    return RPDataset(tuple(probes), tuple(strategies))
