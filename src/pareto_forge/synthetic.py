"""Synthetic dataset generators for tests, demos and experiments.

Two families:

* consistent datasets — each agent repeatedly maximizes a fixed concave
  increasing utility (Cobb-Douglas, closed-form demand) over random affine
  budgets, which is socially optimal play when utilities are separable;
* violating datasets — classic budget-reversal cycles embedded in one or
  more agents, which no common-utility account can rationalize.

Also houses the finite-sample instance used by the robust (DRO) experiment:
affine budgets with mixed-power utilities and per-strategy sample clouds.
"""

from __future__ import annotations

import numpy as np

from .core import ConstraintFunction, EmpiricalStrategy, Family, RPDataset


def _affine(alpha, b) -> ConstraintFunction:
    alpha = tuple(float(a) for a in np.atleast_1d(alpha))
    return ConstraintFunction(Family.AFFINE, len(alpha), alpha=alpha, b=float(b))


def cobb_douglas_demand(expo, alpha, b):
    """argmax of prod x_j^expo_j over <alpha, x> <= b: x_j = expo_j*b/(alpha_j*sum expo)."""
    expo = np.asarray(expo, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return expo * b / (alpha * expo.sum())


def consistent_dataset(T: int, M: int, k: int, seed: int = 0) -> RPDataset:
    """Socially optimal play: per-agent Cobb-Douglas maximization on random budgets.

    Budgets are exhausted exactly (closed-form demand), so the dataset is
    rationalizable with zero relaxation.
    """
    rng = np.random.default_rng(seed)
    cons, strats = [], []
    expos = [rng.uniform(0.5, 2.0, size=k) for _ in range(M)]
    for _t in range(T):
        row_c, row_s = [], []
        for i in range(M):
            alpha = rng.uniform(0.5, 2.0, size=k)
            b = rng.uniform(0.5, 2.0)
            x = cobb_douglas_demand(expos[i], alpha, b)
            row_c.append(_affine(alpha, b))
            row_s.append(EmpiricalStrategy(x[None, :]))
        cons.append(tuple(row_c))
        strats.append(tuple(row_s))
    return RPDataset(tuple(cons), tuple(strats))


def _reversal_pair(k: int, rng) -> tuple[list[ConstraintFunction], list[EmpiricalStrategy]]:
    """Two budget-exhausting observations forming a strict preference cycle."""
    scale = rng.uniform(0.5, 2.0)
    depth = rng.uniform(0.2, 0.8)  # cross-budget slack, drives the gap size
    a1 = np.full(k, 0.1)
    a2 = np.full(k, 0.1)
    a1[0], a1[1] = 2.0, 1.0
    a2[0], a2[1] = 1.0, 2.0
    x1 = np.zeros(k)
    x2 = np.zeros(k)
    x1[0] = scale * (1 - depth) / 2.0  # cheap under budget 2: costs scale*(1-depth)
    x2[1] = scale * (1 - depth) / 2.0
    b1 = float(a1 @ x1)
    b2 = float(a2 @ x2)
    return (
        [_affine(a1, b1), _affine(a2, b2)],
        [EmpiricalStrategy(x1[None, :]), EmpiricalStrategy(x2[None, :])],
    )


def violating_dataset(T: int, M: int, k: int, seed: int = 0) -> RPDataset:
    """Consistent backbone with a budget-reversal cycle injected into agent 0.

    Requires k >= 2: with a single good and exhausted budgets, any dataset is
    rationalizable by a common increasing utility, so no reversal exists.
    """
    if T < 2:
        raise ValueError("need T >= 2 to embed a violation")
    if k < 2:
        raise ValueError("budget reversals require k >= 2")
    base = consistent_dataset(T, M, k, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cons = [list(row) for row in base.constraints]
    strats = [list(row) for row in base.strategies]
    pair_c, pair_s = _reversal_pair(k, rng)
    cons[0][0], cons[1][0] = pair_c
    strats[0][0], strats[1][0] = pair_s
    return RPDataset(tuple(map(tuple, cons)), tuple(map(tuple, strats)))


# --- finite-sample robust-estimation instance --------------------------------


def _power_utility_argmax(p1: float, p2: float, alpha: np.ndarray) -> np.ndarray:
    """argmax of x1^p1 + x2^p2 over <alpha, x> <= 1, x >= 0 (p in {1, 1/4})."""
    a1, a2 = float(alpha[0]), float(alpha[1])
    cands = [np.array([1.0 / a1, 0.0]), np.array([0.0, 1.0 / a2])]
    if p1 == 1.0 and p2 < 1.0:
        # interior in x2: p2*x2^(p2-1)/a2 = 1/a1
        x2 = (a1 * p2 / a2) ** (1.0 / (1.0 - p2))
        if a2 * x2 < 1.0:
            cands.append(np.array([(1.0 - a2 * x2) / a1, x2]))
    elif p2 == 1.0 and p1 < 1.0:
        x1 = (a2 * p1 / a1) ** (1.0 / (1.0 - p1))
        if a1 * x1 < 1.0:
            cands.append(np.array([x1, (1.0 - a1 * x1) / a2]))
    vals = [c[0] ** p1 + c[1] ** p2 for c in cands]
    return cands[int(np.argmax(vals))]


def dro_instance(
    T: int = 5,
    M: int = 3,
    N: int = 5,
    jitter: float = 0.05,
    seed: int = 0,
) -> RPDataset:
    """Affine-budget instance with mixed-power utilities and sample clouds.

    Agent utilities cycle through x1+x2, x1+x2^(1/4), x1^(1/4)+x2; each
    strategy is the budget-constrained optimum plus a small uniform jitter,
    projected back into the budget, giving N distinct samples per strategy.
    """
    rng = np.random.default_rng(seed)
    powers = [(1.0, 1.0), (1.0, 0.25), (0.25, 1.0)]
    cons, strats = [], []
    for _t in range(T):
        row_c, row_s = [], []
        for i in range(M):
            alpha = rng.uniform(0.1, 1.1, size=2)
            p1, p2 = powers[i % 3]
            x = _power_utility_argmax(p1, p2, alpha)
            pts = np.clip(x[None, :] + rng.uniform(-jitter, jitter, size=(N, 2)), 0.0, None)
            load = pts @ alpha
            over = load > 1.0
            if over.any():
                pts[over] /= load[over][:, None]
            row_c.append(_affine(alpha, 1.0))
            row_s.append(EmpiricalStrategy(pts))
        cons.append(tuple(row_c))
        strats.append(tuple(row_s))
    return RPDataset(tuple(cons), tuple(strats))
