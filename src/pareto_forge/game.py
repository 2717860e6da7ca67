"""Games with exact best responses, Nash equilibria and dataset collection.

The black-box multi-agent system behind the workbench: a game exposes
per-agent payoffs and exact best responses on the agents' budget intervals,
both for a stack of P independent plays at once; Nash equilibria are computed
by the relaxation method driven by the Nikaido-Isoda function, every play of
the stack a lane of one loop; ``collect_dataset`` plays the game under a
sequence of budget probes, all periods in one stacked solve, and records the
observed strategies in the revealed-preference dataset format.  Every budget
is an interval: ``probe_bounds`` reads it from the scalar affine probe by
:func:`~pareto_forge.core.affine_budgets`, and other probes are rejected.

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

from .core import ConstraintFunction, EmpiricalStrategy, Family, RPDataset, affine_budgets

TOL_NE = 1e-5
MAX_OUTER = 500


# --- feasible sets ------------------------------------------------------------


@dataclass(frozen=True)
class AgentFeasibleSet:
    """One agent's budget interval [lower, upper], kept for the ``project`` patch of ``perfbench/spans.py``."""

    lower: NDArray[np.float64]
    upper: NDArray[np.float64]

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid box bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, x) -> NDArray[np.float64]:
        """The nearest point of the interval: x clipped to [lower, upper]."""
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


def probe_bounds(
    probes: tuple[tuple[ConstraintFunction, ...], ...], M: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Budget intervals [lo, hi] of a table of scalar affine probes, as two (T, M) arrays.

    Probe (t, i) reads, by :func:`~pareto_forge.core.affine_budgets`, as
    α·(x − S) − b ≤ 0 on x ≥ 0, so hi = (b + α·S)/α where α > 0 and +inf
    otherwise, floored at 0.  Stacked play needs interval budgets, so a probe
    of dimension above 1 is rejected.
    """
    for t, row in enumerate(probes):
        if len(row) != M:
            raise ValueError(f"period {t} probes do not cover all {M} agents")
        for i, p in enumerate(row):
            if p.dim != 1:
                raise ValueError(
                    f"play needs interval budgets: the period {t} probe of agent {i} "
                    f"has dimension {p.dim}"
                )
    A, S, b = affine_budgets(probes)
    alpha = A[..., 0]
    rhs = b + alpha * S[..., 0]
    hi = np.maximum(np.where(alpha > 0, rhs / np.where(alpha > 0, alpha, 1.0), np.inf), 0.0)
    return np.zeros_like(hi), hi


# --- game interface -----------------------------------------------------------


class GameInterface:
    """A game: M agents with scalar actions (k = 1), played as stacks of plays.

    Joint actions of P independent plays are (P, M) arrays, and agent i's
    budget in play p is the interval [lo[p, i], hi[p, i]].  Subclasses
    implement :meth:`deviation_payoffs` and :meth:`best_responses`, an exact
    maximiser of each agent's payoff over its interval with the other agents'
    actions held fixed.
    """

    M: int
    k: int

    def payoff(self, x: NDArray[np.float64], i: int) -> float:
        """Agent i's payoff at the joint action x of one play."""
        x = np.asarray(x, dtype=float).reshape(1, self.M)
        return float(self.deviation_payoffs(x, x)[0, i])

    def deviation_payoffs(self, X: NDArray[np.float64], Y: NDArray[np.float64]) -> NDArray[np.float64]:
        """f^i(y, X_{p,−i}) for every play p and agent i.

        X is (P, M); Y holds agent i's own actions y, either one per play and
        agent, (P, M), or C candidates each, (P, M, C).  The result has Y's shape.
        """
        raise NotImplementedError

    def best_responses(
        self, X: NDArray[np.float64], lo: NDArray[np.float64], hi: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        """Every agent's exact best response to X_{p,−i} over [lo, hi]; all (P, M)."""
        raise NotImplementedError

    @property
    def theta(self) -> NDArray[np.float64]:
        raise NotImplementedError


def _sum_in_order(terms):
    """terms[0] + terms[1] + ..., added left to right as ``x.sum()`` adds a short row."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


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

    def deviation_payoffs(self, X, Y) -> NDArray[np.float64]:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if np.any(X < 0) or np.any(Y < 0):
            raise ValueError("actions must be non-negative")
        own = Y if Y.ndim == 3 else Y[..., None]
        # agent i's joint action is X_p with x_i replaced by its own action
        agent = np.arange(self.M)[:, None]
        total = _sum_in_order([np.where(agent == j, own, X[:, None, j, None]) for j in range(self.M)])
        th = self.theta_vec
        d2, c1, c2 = th[0], th[1:4, None], th[4:7, None]
        value = self.d1 * own - d2 * np.sqrt(total) - c1 * np.sqrt(own) - c2 * own
        return value if Y.ndim == 3 else value[..., 0]

    def best_responses(self, X, lo, hi) -> NDArray[np.float64]:
        """Every agent's exact maximiser over its budget interval [lo, hi], in every play.

        With s = Σ_{j≠i} x_j, a = d1 − c_{2i} and y = √x_i, the payoff is
        a·y² − d2·√(y² + s) − c_{1i}·y; squaring its stationarity condition
        gives the quartic (y² + s)(2a·y − c_{1i})² − d2²·y² = 0.  Every
        interior maximiser is the square of a real root, so the best of the
        two endpoints and the clipped squared real parts of all four roots is
        exact; spurious or complex roots only add feasible candidates.

        The roots are ``np.roots``'s, found for all P·M quartics at once: zero
        leading and trailing coefficients are stripped, each stripped trailing
        one is a root at 0, and the rest go to one stacked companion-matrix
        ``eigvals`` per degree.  A leading coefficient whose companion row
        overflows is stripped too.  The first best candidate wins, as ``max`` picks.
        """
        X = np.asarray(X, dtype=float)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        unbounded = np.argwhere(~np.isfinite(hi))
        if unbounded.size:
            p, i = unbounded[0]
            raise ValueError(f"agent {i} has an unbounded budget: upper bound {hi[p, i]}")
        th = self.theta_vec
        d2, c1 = th[0], th[1:4]
        a = self.d1 - th[4:7]
        s = _sum_in_order(list(X.T))[:, None] - X
        quartic = np.stack(
            np.broadcast_arrays(
                4 * a * a, -4 * a * c1, c1 * c1 + 4 * a * a * s - d2 * d2, -4 * a * c1 * s, c1 * c1 * s
            ),
            axis=-1,
        ).reshape(-1, 5)
        nonzero = quartic != 0
        lead = nonzero.argmax(axis=1)
        degree = np.where(nonzero.any(axis=1), 4 - nonzero[:, ::-1].argmax(axis=1) - lead, 0)
        # a stripped trailing root or a missing one stays 0, which clips to lo: a
        # copy of the first candidate, so it never wins
        squares = np.zeros((len(quartic), 4))
        for n in range(4, 0, -1):
            rows = np.flatnonzero(degree == n)
            if rows.size:
                coef = np.take_along_axis(quartic[rows], lead[rows, None] + np.arange(n + 1), axis=1)
                with np.errstate(over="ignore"):
                    top = -coef[:, 1:] / coef[:, :1]
                # A row that overflows (a subnormal leading coefficient) carries a
                # root beyond the double range, whose clipped square is hi, already
                # a candidate: strip that coefficient and any zeros after it, and
                # solve the row with its lower degree, later in this loop.
                over = ~np.isfinite(top).all(axis=1)
                if over.any():
                    strip = rows[over]
                    after = (nonzero[strip] & (np.arange(5) > lead[strip, None])).argmax(axis=1)
                    degree[strip] -= after - lead[strip]
                    lead[strip] = after
                    rows, top = rows[~over], top[~over]
                companion = np.zeros((rows.size, n, n))
                companion[:, 1:, :-1] = np.eye(n - 1)
                companion[:, 0] = top
                # a root too large to square becomes inf, which clips to hi
                with np.errstate(over="ignore"):
                    squares[rows, :n] = np.linalg.eigvals(companion).real ** 2
        lo_c, hi_c = lo.reshape(-1, 1), hi.reshape(-1, 1)
        cands = np.concatenate([lo_c, hi_c, np.clip(squares, lo_c, hi_c)], axis=1).reshape(*X.shape, 6)
        best = self.deviation_payoffs(X, cands).argmax(axis=-1)
        return np.take_along_axis(cands, best[..., None], axis=-1)[..., 0]


def nikaido_isoda(g: GameInterface, x, y) -> NDArray[np.float64]:
    """Ψ(x, y) = Σ_i [f^i(y_i, x_{−i}) − f^i(x)] for each play; zero at y = x by construction.

    x and y are (P, M) stacks of joint actions; the result is (P,).
    """
    x = np.asarray(x, dtype=float).reshape(-1, g.M)
    y = np.asarray(y, dtype=float).reshape(-1, g.M)
    gain = g.deviation_payoffs(x, y) - g.deviation_payoffs(x, x)
    return _sum_in_order([np.zeros(len(x))] + list(gain.T))


def best_deviation(g: GameInterface, x, lo, hi) -> NDArray[np.float64]:
    """Z(x): every agent's exact best response to x_{−i} over its own interval, for each play."""
    return g.best_responses(x, lo, hi)


class NashConvergenceError(RuntimeError):
    """A Nash computation that did not reach its residual tolerance."""


@dataclass(frozen=True)
class NashResult:
    """Equilibria of P plays: x_star (P, M, k) and, per play, the final Nikaido-Isoda
    residual, the relaxation steps taken and whether the residual reached tol_ne."""

    x_star: NDArray[np.float64]
    residuals: NDArray[np.float64]
    steps: NDArray[np.int64]
    play_converged: NDArray[np.bool_]

    @property
    def ni_residual(self) -> float:
        """Largest residual over the plays (−inf for no play)."""
        return float(self.residuals.max(initial=-np.inf))

    @property
    def iterations(self) -> int:
        """Relaxation steps summed over the plays."""
        return int(self.steps.sum())

    @property
    def converged(self) -> bool:
        return bool(self.play_converged.all())


def relaxation_nash(
    g: GameInterface,
    lo,
    hi,
    x0,
    schedule=None,
    tol_ne: float = TOL_NE,
    max_iters: int = MAX_OUTER,
) -> NashResult:
    """Relaxation method: x_{k+1} = (1−α_k)·x_k + α_k·Z(x_k), α_k = 1/(k+1).

    Plays P independent games at once: lo, hi and x0 are (P, M) stacks (or
    (M,) for one play).  Each play is a lane: it takes step k with the others
    and leaves with its iterate once its residual is ≤ tol_ne, or after the
    final check at max_iters.  The per-agent subproblems in Z are
    independent, so the Nikaido-Isoda residual max_y Ψ(x, y) equals
    Ψ(x, Z(x)) and is a free by-product of each step.  Iterates stay feasible
    (convex combinations in convex sets).
    """
    if schedule is None:
        schedule = lambda k: 1.0 / (k + 1)  # noqa: E731
    x = np.array(x0, dtype=float).reshape(-1, g.M)
    lo = np.broadcast_to(np.asarray(lo, dtype=float).reshape(-1, g.M), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float).reshape(-1, g.M), x.shape)
    outside = np.argwhere((x < lo - 1e-9) | (x > hi + 1e-9))
    if outside.size:
        p, i = outside[0]
        raise ValueError(f"x0 infeasible for agent {i} in play {p}")
    P = len(x)
    x_star = np.empty_like(x)
    residuals = np.empty(P)
    steps = np.empty(P, dtype=np.int64)
    play_converged = np.empty(P, dtype=bool)
    lanes = np.arange(P)
    k = 0
    while lanes.size:
        z = best_deviation(g, x, lo[lanes], hi[lanes])
        r = nikaido_isoda(g, x, z)
        ok = r <= tol_ne
        leave = ok | (k == max_iters)
        if leave.any():
            done = lanes[leave]
            x_star[done], residuals[done], steps[done], play_converged[done] = x[leave], r[leave], k, ok[leave]
            stay = ~leave
            lanes, x, z = lanes[stay], x[stay], z[stay]
        x = (1.0 - schedule(k)) * x + schedule(k) * z
        k += 1
    return NashResult(x_star[..., None], residuals, steps, play_converged)


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
) -> RPDataset:
    """Play the game once per probe period and record the observed strategies.

    Each period's probes give the agents' budget intervals, and one stacked
    relaxation solve computes every period's Nash equilibrium.  Each period
    emits N samples per agent: the equilibrium action plus optional uniform
    jitter clipped back into the budget interval (jitter=0 gives N identical
    samples, a pure strategy).  If a period's equilibrium does not converge,
    NashConvergenceError names the first such period.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    T = len(probes)
    lo, hi = probe_bounds(probes, g.M)
    x0 = np.clip(0.5 * (lo + np.where(np.isfinite(hi), hi, lo + 1.0)), lo, hi)
    res = relaxation_nash(g, lo, hi, x0)
    if not res.converged:
        t = int(np.argmin(res.play_converged))
        raise NashConvergenceError(
            f"Nash computation failed at period {t}: residual "
            f"{res.residuals[t]:.3e} after {res.steps[t]} iterations"
        )
    base = res.x_star[:, :, None, :]
    shape = (T, g.M, N, base.shape[-1])
    if jitter > 0:
        # one generator per period, drawing agent after agent
        noise = np.empty(shape)
        for t, s in enumerate(np.random.SeedSequence(seed).spawn(T)):
            noise[t] = np.random.default_rng(s).uniform(-jitter, jitter, size=shape[1:])
        pts = np.clip(base + noise, lo[..., None, None], hi[..., None, None])
    else:
        pts = np.broadcast_to(base, shape)
    strategies = tuple(tuple(EmpiricalStrategy(pts[t, i]) for i in range(g.M)) for t in range(T))
    return RPDataset(tuple(probes), strategies)
