"""Revealed-preference engine.

Given a dataset of budget probes and observed (mixed) strategies, decide
whether play is consistent with maximization of a common social objective,
and when it is not, quantify the failure:

* ``mm_garp`` — combinatorial consistency test over the revealed-preference
  relation;
* ``pareto_gap`` — smallest relaxation r making the utility-number inequality
  system feasible, with a certificate from one LP per agent;
* ``garp_f`` / ``ccei_scalar`` — additive / multiplicative relaxations of the
  combinatorial test;
* ``hoeffding_confidence`` — finite-sample concentration bound on the
  empirical gap;
* ``reconstruct_utility`` — piecewise-linear concave utility built from a
  feasibility certificate;
* ``rank_optimality_check`` — expected k-rank test for ordinal outcome data.

Every test above rests on one Floyd-Warshall closure in the (max, min)
semiring.  Each relaxed system, at level r, fails exactly when some cycle of
edges with weight >= r has an edge with weight > r (Afriat 1967).  So its
critical level is the largest cycle bottleneck (over cycles, the smallest
edge weight), read off the closure's diagonal: exact, with no bisection and
no tolerance.

For weakly decreasing levels, social(o) = Σ_{k<D} (l_k − l_{k+1})·rnk_k(o)
+ M·l_D, a nonnegative combination of the k-rank counts.  So a strategy that
passes the rank test is socially optimal under every weakly decreasing level
vector; the converse needs optimality under all of them, not under one (the
top-k indicator levels isolate each rnk_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import lp
from .core import ConstraintFunction, ParetoCertificate, RPDataset, eval_constraint

ALPHA_DEFAULT = 1e-3
# Gap up to which the audit calls a dataset consistent; also the step above
# an unattained gap at which pareto_gap builds its certificate.
TOL_R = 1e-5


# --- cycle tests ------------------------------------------------------------


def _closure(W: NDArray) -> NDArray:
    """Floyd-Warshall closure of a weighted relation in the (max, min) semiring.

    H[t, s] is the largest bottleneck (smallest edge weight) over paths of one
    or more edges from t to s.  On a boolean relation np.maximum and
    np.minimum are "or" and "and", so the same loop is the transitive closure.
    """
    H = W.copy()
    for mid in range(H.shape[0]):
        np.maximum(H, np.minimum(H[:, mid : mid + 1], H[mid : mid + 1, :]), out=H)
    return H


def _critical_level(W: NDArray[np.float64]) -> float:
    """Largest cycle bottleneck of W: _garp(W, level) fails below it, passes above."""
    return float(np.diag(_closure(W)).max())


def _garp(W: NDArray[np.float64], level: float) -> bool:
    """GARP on the relation W >= level: no cycle of its edges has an edge W > level."""
    # a path s -> t in the relation and a strict edge t -> s close a bad cycle
    return not (_closure(W >= level).T & (W > level)).any()


def _slack(gbar_i: NDArray[np.float64]) -> NDArray[np.float64]:
    """w[k, j] = g_k(mu_k) - g_k(mu_j): how much cheaper play j is than play k on budget k."""
    return np.diag(gbar_i)[:, None] - gbar_i


# --- Pareto gap -------------------------------------------------------------

# The inequality system is homogeneous in (u, lam): any solution with lam > 0
# rescales to one with lam >= 1.  Solving with lam >= 1 (and u free) keeps the
# r-units effect of the LP residual tolerance bounded by the tolerance itself:
# a residual of eps on a row with lam_t >= 1 relaxes r by at most eps.


def _agent_system(gbar_i: NDArray[np.float64], r: float):
    """Inequality system for one agent: u_s - u_t - lam_t*(gbar[t,s] + r) <= 0.

    Variables are [u_1..u_T, lam_1..lam_T] with u free and lam >= 1.
    """
    T = gbar_i.shape[0]
    A = np.zeros((T * T, 2 * T))
    b = np.zeros(T * T)
    row = 0
    for t in range(T):
        for s in range(T):
            A[row, s] += 1.0
            A[row, t] -= 1.0
            A[row, T + t] = -(gbar_i[t, s] + r)
            row += 1
    lower = np.concatenate([np.full(T, -np.inf), np.ones(T)])
    upper = np.full(2 * T, np.inf)
    return A, b, lower, upper


def _agent_feasible(gbar_i, r):
    """One agent's system at level r: the raw LP point (u, lam), or None if infeasible."""
    ok, x = lp.feasible(*_agent_system(gbar_i, r))
    if not ok:
        return None
    T = gbar_i.shape[0]
    return x[:T], x[T:]


def _normalize_agent_cert(u, lam, alpha):
    """Rescale so max lam = 1 while keeping lam >= alpha (tidier certificates)."""
    c = 1.0 / lam.max()
    if lam.min() * c < alpha:
        c = alpha / lam.min()
    return u * c, lam * c


def afriat_feasible(
    d: RPDataset, r: float, alpha: float = ALPHA_DEFAULT
) -> tuple[bool, ParetoCertificate | None]:
    """Feasibility of the relaxed utility-number system at level r.

    The system never couples agents (no shared variables), so it is solved
    per agent and the certificates are stacked.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    T, M = d.T, d.M
    u = np.zeros((T, M))
    lam = np.zeros((T, M))
    for i in range(M):
        point = _agent_feasible(d.gbar[:, :, i], r)
        if point is None:
            return False, None
        u[:, i], lam[:, i] = _normalize_agent_cert(*point, alpha)
    return True, ParetoCertificate(u, lam, float(r), alpha)


@dataclass(frozen=True)
class GapResult:
    """A Pareto gap with its certificate.

    ``bisection_iters`` counts the LP solves made, one per agent (the name is
    kept for ``perfbench/spans.py``, which reads it).
    """

    gap: float
    certificate: ParetoCertificate
    per_agent_gaps: tuple[float, ...]
    bisection_iters: int


def pareto_gap(d: RPDataset, alpha: float = ALPHA_DEFAULT) -> GapResult:
    """Smallest relaxation r making the inequality system feasible (an infimum).

    Agent i's system is feasible at r exactly when GARP holds on the relation
    -gbar[:, :, i] >= r, so the agent's gap is the largest cycle bottleneck of
    -gbar[:, :, i], floored at 0; the gap is the max over agents.

    One LP per agent builds the certificate: at the agent's gap when the
    system is feasible there, else at gap + TOL_R (a bottleneck cycle with a
    heavier edge leaves the infimum unattained).  ``certificate.r`` is the
    largest level an LP ran at, so it exceeds ``gap``, by at most TOL_R, only
    when some agent's gap is unattained.  An LP that finds no certificate
    raises RuntimeError.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    T, M = d.T, d.M
    gaps, levels = [], []
    u = np.zeros((T, M))
    lam = np.zeros((T, M))
    for i in range(M):
        c = -d.gbar[:, :, i]
        gap = max(0.0, _critical_level(c))
        r = gap if _garp(c, gap) else gap + TOL_R
        point = _agent_feasible(d.gbar[:, :, i], r)
        if point is None:
            raise RuntimeError(f"LP found no certificate for agent {i} at r = {r!r}")
        u[:, i], lam[:, i] = _normalize_agent_cert(*point, alpha)
        gaps.append(gap)
        levels.append(r)
    cert = ParetoCertificate(u, lam, max(levels), alpha)
    return GapResult(max(gaps), cert, tuple(gaps), M)


def empirical_pareto_gap(d: RPDataset, alpha: float = ALPHA_DEFAULT) -> GapResult:
    """Gap on sample-mean budget values (the dataset already stores them).

    Identical computation to :func:`pareto_gap`; exposed separately so that
    callers distinguish the exact gap from its finite-sample estimate.
    """
    return pareto_gap(d, alpha)


# --- combinatorial tests ----------------------------------------------------


def mm_garp(d: RPDataset) -> bool:
    """Revealed-preference consistency, checked per agent.

    Relation: k R j iff gbar[k,j,i] <= gbar[k,k,i] (period j's play affordable
    under period k's budget).  Verdict: for every k, j with k H j (H the
    transitive closure), gbar[j,k,i] >= gbar[j,j,i].  This is garp_f at F = 0.
    """
    return garp_f(d, 0.0)


def garp_f(d: RPDataset, F: float) -> bool:
    """GARP with additive budget slack F: k R j iff gbar[k,j,i] + F <= gbar[k,k,i]."""
    if F < 0:
        raise ValueError("F must be >= 0")
    return all(_garp(_slack(d.gbar[:, :, i]), F) for i in range(d.M))


def garp_f_threshold(d: RPDataset) -> float:
    """Smallest F at which garp_f passes (an infimum).

    garp_f fails at F exactly when a cycle of slack edges >= F has an edge
    > F, so the threshold is the largest cycle bottleneck of the slacks over
    agents (never negative: each self-loop has slack 0).  garp_f passes at
    every F above it, and at the threshold itself unless a bottleneck cycle
    has a heavier edge.
    """
    return max(_critical_level(_slack(d.gbar[:, :, i])) for i in range(d.M))


def ccei_scalar(d: RPDataset, agent: int) -> float:
    """Largest common efficiency e in [0,1] passing GARP_e for one agent (a supremum).

    Uses satiated budgets g = gbar + 1 so that budget values are positive and
    the multiplicative deflation e is meaningful.  GARP_e relates t R s iff
    rho[t,s] = g[t,s] / g[t,t] <= e and fails exactly when a cycle of such
    edges has one with rho < e.  So the index is minus the largest cycle
    bottleneck of -rho, clipped to [0, 1].  GARP_e passes at every smaller e,
    and at the index itself unless a bottleneck cycle has a lighter edge.
    """
    g = d.gbar[:, :, agent] + 1.0
    own = np.diag(g)
    if np.any(own <= 0):
        raise ValueError(f"agent {agent}: satiated own-budget values g[t,t] must be positive")
    rho = g / own[:, None]
    return float(np.clip(-_critical_level(-rho), 0.0, 1.0))


# --- concentration bound ----------------------------------------------------


def hoeffding_confidence(
    eps: float, N: int, T: int, M: int, G: float, c: float = 0.0
) -> float:
    """Lower bound on P(empirical gap <= c + eps), per-sample range G.

    Implemented verbatim as the printed double product with per-factor
    exponent T (net exponent T^2 * M); the bound does not depend on c.
    """
    if eps < 0 or N < 1 or G <= 0:
        raise ValueError("require eps >= 0, N >= 1, G > 0")
    del c  # the bound is uniform in the offset
    inner = max(1.0 - 2.0 * np.exp(-2.0 * eps * eps * N / (G * G)), 0.0)
    return float(inner ** (T * T * M))


# --- utility reconstruction -------------------------------------------------


def reconstruct_utility(cert: ParetoCertificate, d: RPDataset, agent: int, tol: float = 1e-6):
    """Concave utility for one agent from a feasibility certificate.

    Returns gamma -> min_s (u_s + lam_s * g_s(gamma)): the lower envelope of
    the supporting affine-in-g pieces.  At certificate relaxation r = 0 (a
    consistent dataset) the observed strategies maximize this utility on
    their own budgets.
    """
    if not 0 <= agent < d.M:
        raise IndexError(f"agent index {agent} out of range")
    if not cert.validates(d, tol=max(tol, 1e-7)):
        raise ValueError("certificate does not validate against the dataset")
    u = cert.u[:, agent].copy()
    lam = cert.lam[:, agent].copy()
    g_fns: list[ConstraintFunction] = [d.constraints[t][agent] for t in range(d.T)]

    def utility(gamma) -> float:
        vals = [u[s] + lam[s] * eval_constraint(g_fns[s], gamma) for s in range(d.T)]
        return float(min(vals))

    return utility


# --- rank optimality --------------------------------------------------------


@dataclass(frozen=True)
class PreferenceProfile:
    """M strict rankings over D outcomes plus homogeneous utility levels.

    ``rankings[j][p]`` is the outcome at position p (0 = most preferred) of
    agent j's ranking; ``levels[p]`` is the common utility of a p-th-ranked
    outcome, weakly decreasing in p.
    """

    rankings: tuple[tuple[int, ...], ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        D = len(self.levels)
        for rk in self.rankings:
            if sorted(rk) != list(range(D)):
                raise ValueError(f"ranking {rk} is not a permutation of 0..{D-1}")
        if any(self.levels[p] < self.levels[p + 1] for p in range(D - 1)):
            raise ValueError("utility levels must be weakly decreasing")

    @property
    def D(self) -> int:
        return len(self.levels)

    @property
    def M(self) -> int:
        return len(self.rankings)

    def positions(self) -> NDArray[np.int_]:
        """pos[j, o] = 1-based position of outcome o in agent j's ranking."""
        pos = np.empty((self.M, self.D), dtype=int)
        for j, rk in enumerate(self.rankings):
            for p, o in enumerate(rk):
                pos[j, o] = p + 1
        return pos

    def rnk(self) -> NDArray[np.int_]:
        """rnk[k-1, o] = number of agents ranking outcome o within their top k."""
        pos = self.positions()
        ks = np.arange(1, self.D + 1)
        return (pos[None, :, :] <= ks[:, None, None]).sum(axis=1)

    def social_utilities(self) -> NDArray[np.float64]:
        """Sum over agents of the homogeneous utility of each outcome."""
        levels = np.asarray(self.levels, dtype=float)
        return levels[self.positions() - 1].sum(axis=0)


def rank_optimality_check(p: PreferenceProfile, strategy, tol: float = 1e-9) -> bool:
    """True iff the strategy attains the maximal expected k-rank for every k.

    Since social(o) = Σ_{k<D} (l_k − l_{k+1})·rnk_k(o) + M·l_D, passing
    implies social optimality under every weakly decreasing level vector, and
    optimality under all of them (in particular under each top-k indicator
    vector (1,…,1,0,…,0)) implies passing.  Optimality under one level vector
    does not: with rankings (0,1,2) and (2,1,0) at levels (5.69, 5.01, 4.34),
    outcome 0 is socially optimal (10.03 against 10.02 for outcome 1), yet its
    top-2 count is 1 against outcome 1's 2, so its point mass fails.
    """
    strategy = np.asarray(strategy, dtype=float)
    if strategy.shape != (p.D,) or np.any(strategy < -tol) or abs(strategy.sum() - 1.0) > 1e-9:
        raise ValueError("strategy must be a probability vector over the D outcomes")
    rnk = p.rnk()  # (D, D): k-index by outcome
    expected = rnk @ strategy
    maxrnk = rnk.max(axis=1)
    return bool(np.all(expected >= maxrnk - tol))
