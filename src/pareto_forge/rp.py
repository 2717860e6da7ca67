"""Revealed-preference engine.

Given a dataset of budget probes and observed (mixed) strategies, decide
whether play is consistent with maximization of a common social objective,
and when it is not, quantify the failure:

* ``mm_garp`` — combinatorial consistency test over the revealed-preference
  relation;
* ``pareto_gap`` — smallest relaxation r making the utility-number inequality
  system feasible, with a certificate built combinatorially per agent; on
  sample clouds it is the empirical gap, since ``gbar`` holds sample means;
* ``garp_f`` / ``ccei_scalar`` / ``ccei_all`` — additive / multiplicative
  relaxations of the combinatorial test;
* ``hoeffding_confidence`` — finite-sample concentration bound on the
  empirical gap;
* ``reconstruct_utility`` — piecewise-linear concave utility built from a
  feasibility certificate;
* ``rank_optimality_check`` — expected k-rank test for ordinal outcome data.

Every test above rests on one Floyd-Warshall closure in the (max, min)
semiring, run once over the (M, T, T) stack of all agents' matrices.  Each
relaxed system, at level r, fails exactly when some cycle of edges with
weight >= r has an edge with weight > r (Afriat 1967).  So its
critical level is the largest cycle bottleneck (over cycles, the smallest
edge weight), read off the closure's diagonal: exact, with no bisection and
no tolerance.  The closure only takes max and min, so H[t, s] >= r holds
exactly when some path from t to s has every edge >= r: one float closure
answers the test at every level.  ``pareto_gap`` reads the gap, whether it
is attained and every agent's certificate (Varian 1982) from one closure of
-gbar.  ``mm_garp``, ``garp_f``, ``garp_f_threshold`` and ``ccei_all`` read
one more, of the slack stack and the CCEI ratio stack closed together, which
a dataset keeps after its first use; so an audit makes two closures.

For weakly decreasing levels, social(o) = Σ_{k<D} (l_k − l_{k+1})·rnk_k(o)
+ M·l_D, a nonnegative combination of the k-rank counts.  So a strategy that
passes the rank test is socially optimal under every weakly decreasing level
vector; the converse needs optimality under all of them, not under one (the
top-k indicator levels isolate each rnk_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .core import ParetoCertificate, RPDataset, _orthant_point, budget_values

ALPHA_DEFAULT = 1e-3
# Gap up to which the audit calls a dataset consistent; also the step above
# an unattained gap at which pareto_gap builds its certificate.
TOL_R = 1e-5


# --- cycle tests ------------------------------------------------------------


def _closure(W: NDArray) -> NDArray:
    """Floyd-Warshall closure of a weighted relation in the (max, min) semiring.

    W is one (T, T) relation or an (M, T, T) stack of them, closed slice by
    slice in one loop.  H[..., t, s] is the largest bottleneck (smallest edge
    weight) over paths of one or more edges from t to s.  On a boolean
    relation np.maximum and np.minimum are "or" and "and", so the same loop
    is the transitive closure.
    """
    H = W.copy()
    for mid in range(H.shape[-1]):
        np.maximum(H, np.minimum(H[..., :, mid : mid + 1], H[..., mid : mid + 1, :]), out=H)
    return H


def _critical_levels(W: NDArray[np.float64], H: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """Largest cycle bottleneck of each slice of W: _garp fails below it, passes above.

    ``H`` is W's closure, when the caller has it already.
    """
    H = _closure(W) if H is None else H
    return np.diagonal(H, axis1=-2, axis2=-1).max(axis=-1)


def _garp(W: NDArray[np.float64], level, H: NDArray[np.float64] | None = None) -> NDArray[np.bool_]:
    """GARP per slice on the relation W >= level: no cycle of its edges has an edge W > level.

    ``level`` broadcasts against W (a scalar, or one level per slice shaped (M, 1, 1)),
    and ``H`` is W's closure, when the caller has it already.  A path t -> s of
    edges >= level exists exactly when H[t, s] >= level: the closure only picks
    entries of W, so the comparison is exact.
    """
    H = _closure(W) if H is None else H
    # a path s -> t in the relation and a strict edge t -> s close a bad cycle
    return ~(np.swapaxes(H >= level, -1, -2) & (W > level)).any(axis=(-2, -1))


def _agents(d: RPDataset) -> NDArray[np.float64]:
    """gbar as an (M, T, T) stack of per-agent matrices."""
    return d.gbar.transpose(2, 0, 1)


def _slack(g: NDArray[np.float64]) -> NDArray[np.float64]:
    """w[..., k, j] = g_k(mu_k) - g_k(mu_j): how much cheaper play j is than play k on budget k."""
    return np.diagonal(g, axis1=-2, axis2=-1)[..., :, None] - g


def _slack_and_ratio(d: RPDataset):
    """(S, H_S, defined, W, H_W): the slack stack of every agent and the ratio stack -rho of
    the agents whose CCEI is defined, each with its closure, both closed in one call.

    The first call stores the tuple on ``d``, as ``functools.cached_property`` stores a
    value, and later calls read it: ``d`` is frozen and its ``gbar`` read-only.
    """
    cached = d.__dict__.get("_slack_and_ratio")
    if cached is None:
        g = _agents(d)
        S = _slack(g)
        g = g + 1.0  # satiated budgets, see ccei_all
        defined = (np.diagonal(g, axis1=-2, axis2=-1) > 0).all(axis=-1)
        g = g[defined]
        W = -(g / np.diagonal(g, axis1=-2, axis2=-1)[..., :, None])
        H = _closure(np.concatenate([S, W]))
        for a in (S, W, H):
            a.setflags(write=False)
        cached = d.__dict__["_slack_and_ratio"] = (S, H[: d.M], defined, W, H[d.M :])
    return cached


# --- Pareto gap -------------------------------------------------------------


def _agent_certificate(c: NDArray[np.float64], reach: NDArray[np.bool_]):
    """One agent's point (u, lam >= 1) where c = gbar_i + r passes GARP (Varian 1982).

    The system reads u_s <= u_t + lam_t*c[t,s], and reach is the reflexive
    closure of the relation c <= 0.  Each component of that relation (only
    c = 0 edges inside it, by GARP) comes after every component reaching it
    and takes one level, the largest its predecessors allow; lam covers each
    drop, since c > 0 on edges back.  The loop runs on Python floats: each
    term rounds as numpy's would, and min and max are exact.
    """
    T = len(c)
    order = np.argsort(reach.sum(axis=0), kind="stable").tolist()
    c, reach = c.tolist(), reach.tolist()
    u, lam = [0.0] * T, [1.0] * T
    done = [False] * T
    prev: list[int] = []
    for m in order:
        if done[m]:
            continue
        comp = [s for s in range(T) if reach[m][s] and reach[s][m]]
        if prev:
            level = min(u[t] + lam[t] * c[t][s] for t in prev for s in comp)
            for s in comp:
                u[s] = level
                lam[s] = max(1.0, max((u[t] - level) / c[s][t] for t in prev))
        for s in comp:
            done[s] = True
        prev += comp
    return np.array(u), np.array(lam)


def _normalize_agent_cert(u, lam, alpha):
    """Rescale so max lam = 1 while keeping lam >= alpha (tidier certificates)."""
    c = 1.0 / lam.max()
    if lam.min() * c < alpha:
        c = alpha / lam.min()
    return u * c, lam * c


def _stacked_certificate(d: RPDataset, H: NDArray[np.float64], levels, alpha: float) -> ParetoCertificate:
    """Agent i's certificate at levels[i], stacked at the largest level; raises unless valid.

    H is the closure of -gbar as an (M, T, T) stack: agent i's relation
    gbar_i + r <= 0 reaches s from t exactly when H[i, t, s] >= r.
    """
    eye = np.eye(d.T, dtype=bool)
    points = [
        _normalize_agent_cert(*_agent_certificate(d.gbar[:, :, i] + r, (H[i] >= r) | eye), alpha)
        for i, r in enumerate(levels)
    ]
    cert = ParetoCertificate(*(np.column_stack(p) for p in zip(*points)), float(max(levels)), alpha)
    if not cert.validates(d):
        raise RuntimeError(f"certificate failed validation at r = {cert.r!r}")
    return cert


def afriat_feasible(
    d: RPDataset, r: float, alpha: float = ALPHA_DEFAULT
) -> tuple[bool, ParetoCertificate | None]:
    """Feasibility of the relaxed utility-number system at level r.

    The system never couples agents (no shared variables); agent i's part is
    feasible exactly when GARP holds on the relation -gbar[:, :, i] >= r.
    One closure of -gbar gives both the verdict and every agent's certificate.
    """
    if not r >= 0:
        raise ValueError("r must be >= 0")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    W = -_agents(d)
    H = _closure(W)
    if not _garp(W, r, H).all():
        return False, None
    return True, _stacked_certificate(d, H, [r] * d.M, alpha)


@dataclass(frozen=True)
class GapResult:
    """A Pareto gap with its certificate.

    ``bisection_iters`` counts the certificates built, one per agent (the
    name is kept for ``perfbench/spans.py``, which reads it).
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

    One closure H of the (M, T, T) stack -gbar gives it all: the gaps from
    its diagonal, whether each is attained (GARP read off H at the gap), and
    every agent's certificate.  The certificate is built at the agent's gap
    when GARP holds there, else at gap + TOL_R (a bottleneck cycle with a
    heavier edge leaves the infimum unattained).  ``certificate.r`` is the
    largest of these levels, so it exceeds ``gap``, by at most TOL_R, only
    when some agent's gap is unattained.  A certificate that fails
    validation raises RuntimeError.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    W = -_agents(d)
    H = _closure(W)
    # Python's max: np.maximum would keep the sign of a -0.0 critical level
    gaps = [max(0.0, float(v)) for v in _critical_levels(W, H)]
    attained = _garp(W, np.array(gaps)[:, None, None], H)
    levels = [gap if ok else gap + TOL_R for gap, ok in zip(gaps, attained)]
    return GapResult(max(gaps), _stacked_certificate(d, H, levels, alpha), tuple(gaps), d.M)


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
    if not F >= 0:
        raise ValueError("F must be >= 0")
    S, H, *_ = _slack_and_ratio(d)
    return bool(_garp(S, F, H).all())


def garp_f_threshold(d: RPDataset) -> float:
    """Smallest F at which garp_f passes (an infimum).

    garp_f fails at F exactly when a cycle of slack edges >= F has an edge
    > F, so the threshold is the largest cycle bottleneck of the slacks over
    agents (never negative: each self-loop has slack 0).  garp_f passes at
    every F above it, and at the threshold itself unless a bottleneck cycle
    has a heavier edge.
    """
    S, H, *_ = _slack_and_ratio(d)
    return max(map(float, _critical_levels(S, H)))


def ccei_all(d: RPDataset) -> list[float | None]:
    """Every agent's CCEI, None where it is undefined.

    An agent's CCEI is the largest common efficiency e in [0,1] passing GARP_e
    (a supremum).  It uses satiated budgets g = gbar + 1 so that budget values
    are positive and the multiplicative deflation e is meaningful, and it is
    undefined when a satiated own-budget value g[t,t] is <= 0.  GARP_e relates
    t R s iff rho[t,s] = g[t,s] / g[t,t] <= e and fails exactly when a cycle
    of such edges has one with rho < e.  So the index is minus the largest
    cycle bottleneck of -rho, clipped to [0, 1]: one closure for all defined
    agents.  GARP_e passes at every smaller e, and at the index itself unless
    a bottleneck cycle has a lighter edge.
    """
    _, _, defined, W, H = _slack_and_ratio(d)
    values = iter(np.clip(-_critical_levels(W, H), 0.0, 1.0).tolist())
    return [next(values) if ok else None for ok in defined.tolist()]


def ccei_scalar(d: RPDataset, agent: int) -> float:
    """One agent's entry of :func:`ccei_all`.

    An agent out of range is an IndexError, and an undefined index a ValueError.
    """
    if not 0 <= agent < d.M:
        raise IndexError(f"agent index {agent} out of range")
    value = ccei_all(d)[agent]
    if value is None:
        raise ValueError(f"agent {agent}: satiated own-budget values g[t,t] must be positive")
    return value


# --- concentration bound ----------------------------------------------------


def hoeffding_confidence(eps: float, N: int, T: int, M: int, G: float) -> float:
    """Lower bound on P(empirical gap <= c + eps), per-sample range G, for any offset c.

    Implemented verbatim as the printed double product with per-factor
    exponent T (net exponent T^2 * M).
    """
    if not (eps >= 0 and N >= 1 and G > 0):
        raise ValueError("require eps >= 0, N >= 1, G > 0")
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
    budgets = [a[:, agent : agent + 1] for a in d.budgets]  # (T, 1, ·)

    def utility(gamma) -> float:
        g = budget_values(budgets, _orthant_point(gamma, d.k)[None, :])[:, 0, 0]  # g_s(γ)
        return float((u + lam * g).min())

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
        # a ranking is a permutation, and argsort inverts it
        return np.argsort(np.array(self.rankings, dtype=int).reshape(self.M, self.D), axis=1) + 1

    def rnk(self) -> NDArray[np.int_]:
        """rnk[k-1, o] = number of agents ranking outcome o within their top k (read-only)."""
        return self._rnk

    @cached_property
    def _rnk(self) -> NDArray[np.int_]:
        ks = np.arange(1, self.D + 1)
        rnk = (self.positions()[None, :, :] <= ks[:, None, None]).sum(axis=1)
        rnk.setflags(write=False)
        return rnk

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
    if strategy.shape != (p.D,) or (strategy < -tol).any() or abs(strategy.sum() - 1.0) > 1e-9:
        raise ValueError("strategy must be a probability vector over the D outcomes")
    rnk = p.rnk()  # (D, D): k-index by outcome, built once per profile
    return bool((rnk @ strategy >= rnk.max(axis=1) - tol).all())
