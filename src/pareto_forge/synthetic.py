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

import math

import numpy as np

from .core import RPDataset


def cobb_douglas_demand(expo, alpha, b):
    """argmax of prod x_j^expo_j over <alpha, x> <= b: x_j = expo_j*b/(alpha_j*sum expo).

    Broadcasts over leading axes, each row summing its own exponents, so one
    call on a whole (T, M, k) grid rounds as one call per row does.
    """
    expo = np.asarray(expo, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return expo * b / (alpha * expo.sum(axis=-1, keepdims=True))


def _consistent_grids(T: int, M: int, k: int, seed: int):
    """The grids alpha (T, M, k), b (T, M) and X (T, M, 1, k) of :func:`consistent_dataset`."""
    for name, n in (("T", T), ("M", M), ("k", k)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    # one draw, in the stream order of the consistent_dataset docstring
    u = np.random.default_rng(seed).uniform(0.5, 2.0, size=M * k + T * M * (k + 1))
    expos = u[: M * k].reshape(M, k)
    blocks = u[M * k :].reshape(T, M, k + 1)
    alpha, b = blocks[..., :k], blocks[..., k]
    return alpha, b, cobb_douglas_demand(expos, alpha, b[..., None])[:, :, None]


def _dataset(alpha, b, X) -> RPDataset:
    """The dataset of unshifted probes alpha (T, M, k), b (T, M) and plays X (T, M, N, k)."""
    T, M, N, k = X.shape
    zero = np.zeros((T, M))
    probes = {"A": np.ascontiguousarray(alpha), "b": b, "a_t": zero, "beta": np.zeros((T, M, k)), "has_beta": zero != 0}
    return RPDataset._from_arrays({**probes, "X": X, "n": np.full((T, M), N)})


def consistent_dataset(T: int, M: int, k: int, seed: int = 0) -> RPDataset:
    """Socially optimal play: per-agent Cobb-Douglas maximization on random budgets.

    Budgets are exhausted exactly (closed-form demand), so the dataset is
    rationalizable with zero relaxation.  T, M and k below 1 are rejected
    before any draw.

    The random stream is part of the contract: ``default_rng(seed)`` draws
    ``M*k + T*M*(k+1)`` uniforms on [0.5, 2), first the M agents' k
    exponents, then for each period t and each agent i in turn the budget's k
    prices and its income b.  Any change to this order changes every
    dataset built from a seed.
    """
    return _dataset(*_consistent_grids(T, M, k, seed))


def _reversal_pair(k: int, rng):
    """Two budget-exhausting observations forming a strict preference cycle: alpha, b and x."""
    scale = rng.uniform(0.5, 2.0)
    depth = rng.uniform(0.2, 0.8)  # cross-budget slack, drives the gap size
    alpha = np.full((2, k), 0.1)
    alpha[:, :2] = [[2.0, 1.0], [1.0, 2.0]]
    x = np.zeros((2, k))
    x[0, 0] = x[1, 1] = scale * (1 - depth) / 2.0  # each cheap under the other budget: costs scale*(1-depth)
    return alpha, np.array([alpha[0] @ x[0], alpha[1] @ x[1]]), x


def violating_dataset(T: int, M: int, k: int, seed: int = 0) -> RPDataset:
    """Consistent backbone with a budget-reversal cycle injected into agent 0.

    Requires k >= 2: with a single good and exhausted budgets, any dataset is
    rationalizable by a common increasing utility, so no reversal exists.
    """
    if T < 2:
        raise ValueError("need T >= 2 to embed a violation")
    if k < 2:
        raise ValueError("budget reversals require k >= 2")
    alpha, b, X = _consistent_grids(T, M, k, seed)
    alpha[:2, 0], b[:2, 0], X[:2, 0, 0] = _reversal_pair(k, np.random.default_rng(seed + 1))
    return _dataset(alpha, b, X)


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
    return cands[vals.index(max(vals))]  # the first maximiser, as np.argmax picks


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
    T, M and N below 1 are rejected before any draw.

    The random stream is part of the contract: ``default_rng(seed)`` draws
    ``T*M*(2 + 2*N)`` uniforms, for each period t and each agent i in turn
    the budget's 2 prices on [0.1, 1.1), then the N×2 jitter on
    [−jitter, jitter).
    """
    for name, n in (("T", T), ("M", M), ("N", N)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    jitter = float(jitter)
    if not (math.isfinite(jitter) and jitter >= 0):
        raise ValueError(f"jitter must be a finite number >= 0, got {jitter}")
    # one draw in stream order, scaled as Generator.uniform scales its draws
    u = np.random.default_rng(seed).random((T, M, 2 + 2 * N))
    alpha = 0.1 + (1.1 - 0.1) * u[..., :2]
    jit = -jitter + (jitter - -jitter) * u[..., 2:].reshape(T, M, N, 2)
    powers = [(1.0, 1.0), (1.0, 0.25), (0.25, 1.0)]
    x = np.array(
        [[_power_utility_argmax(*powers[i % 3], a) for i, a in enumerate(row)] for row in alpha]
    ).reshape(T, M, 2)
    pts = np.clip(x[:, :, None] + jit, 0.0, None)
    load = np.matmul(pts, alpha[..., None])[..., 0]  # (T, M, N), as each block's pts @ alpha
    over = load > 1.0
    pts[over] /= load[over][:, None]
    return _dataset(alpha, np.ones((T, M)), pts)
