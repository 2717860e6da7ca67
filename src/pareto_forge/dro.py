"""Wasserstein distributionally-robust social-optimality gap estimation.

With only finite samples of each observed strategy, the Pareto gap is computed
against the worst distribution in a Wasserstein-style ambiguity set around the
empirical samples.  The resulting semi-infinite program is solved by the
exchange (cutting) method:

* the **master problem** minimizes ε·v_{N+1} + (1/N)·Σ_k v_k over the utility
  numbers ψ = (u, λ) subject to the accumulated scenario cuts, each v_k in
  [0, 2V] with V = 2·U_BOUND/λ̂ + G;
* the **constraint-violation oracle** returns the most violated scenario of
  the current master solution; for affine probes it is exact, a closed-form
  candidate per face of each block's budget polytope, scored by its own
  block's term alone;
* the loop alternates the two until the maximum violation drops below δ.

Key structural fact used throughout: h(ψ, Φ) is a pointwise maximum of terms
that each touch a single scenario block γ_s^i, so worst-case searches only
ever need to deviate one block from the samples at a time.

Only affine probes are supported.  Each budget is read once, by
:func:`~pareto_forge.core.affine_budgets`, as g_t^i(γ) = A_t^i·(γ − S_t^i) − b_t^i
with S = a_t·β the probe's shift, and one batched product
(:func:`~pareto_forge.core.budget_values`) evaluates all of them; a dataset
with another probe family is rejected with a ``ValueError`` naming its first
such block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .core import RPDataset, affine_budgets, budget_values

# slack within which an oracle candidate counts as inside its budget set or ball
TOL_FACE = 1e-12
# master search: u box [-U_BOUND, U_BOUND]; per round, MULTISTARTS descents of
# SUBGRAD_ITERS steps at each of V_GRID points of the v_{N+1} grid
U_BOUND = 1.0
MULTISTARTS = 3
SUBGRAD_ITERS = 80
V_GRID = 9


@dataclass(frozen=True)
class PsiVector:
    """Utility numbers u and multipliers λ, both T×M, inside their boxes."""

    u: NDArray[np.float64]
    lam: NDArray[np.float64]

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if u.shape != lam.shape or u.ndim != 2:
            raise ValueError("u and lam must be T x M arrays of equal shape")
        if np.any(lam <= 0):
            raise ValueError("lam must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", lam)


@dataclass
class ScenarioSet:
    """Per-sample-index accumulated cuts: cuts[k] is a list of (T, M, k) scenarios.

    Nothing derived from the cuts is kept: each master solve evaluates all of
    them afresh, so cut lists and arrays may be replaced or changed in place
    between solves.
    """

    N: int
    cuts: list[list[NDArray[np.float64]]] = field(default_factory=list)

    def __post_init__(self):
        if not self.cuts:
            self.cuts = [[] for _ in range(self.N)]

    @property
    def total(self) -> int:
        return sum(len(c) for c in self.cuts)


@dataclass(frozen=True)
class DROConfig:
    """λ box, iteration budget and seed for the robust estimation loop."""

    lambda_hat: float = 1.0  # lower bound of the λ box
    lam_max: float = 10.0
    max_exchange_iters: int = 60
    seed: int = 0

    def __post_init__(self):
        if not self.lambda_hat > 0:
            raise ValueError(f"lambda_hat must be > 0, got {self.lambda_hat}")
        if not self.lam_max >= self.lambda_hat:
            raise ValueError(
                f"lam_max must be >= lambda_hat ({self.lambda_hat}), got {self.lam_max}"
            )


def _dataset_g_bound(d: RPDataset) -> float:
    """Range bound G: |g| is at most max_t,i |g_t^i(0)| + spread over budgets."""
    vals = [abs(float(c.b)) + abs(float(c.a_t)) + 1.0 for row in d.constraints for c in row]
    return max(max(vals), float(np.abs(d.gbar).max()) + 1.0)


def _samples(d: RPDataset) -> NDArray[np.float64]:
    """(T, M, N, k) sample tensor (requires a common N across blocks)."""
    Ns = {np.asarray(s.samples).shape[0] for row in d.strategies for s in row}
    if len(Ns) != 1:
        raise ValueError("dataset blocks disagree on sample count N")
    return np.stack(
        [np.stack([np.asarray(s.samples, dtype=float) for s in row]) for row in d.strategies]
    )


def _cross_values(budgets, pts) -> NDArray[np.float64]:
    """g[t, s, i, n] = g_t^i(pts[s, i, n]) for points pts (T, M, n, k) per block."""
    T, M, n, k = pts.shape
    g = budget_values(budgets, pts.transpose(1, 0, 2, 3).reshape(1, M, T * n, k))
    return g.reshape(T, M, T, n).transpose(0, 2, 1, 3)


def _block_terms(budgets, psi: PsiVector, pts) -> NDArray[np.float64]:
    """bt[s, i, n] = max_t [(u_s^i − u_t^i)/λ_t^i − g_t^i(pts[s, i, n])].

    pts is (T, M, n, k): n points of each block (s, i).
    """
    u, lam = psi.u, psi.lam
    c = (u[None, :, :] - u[:, None, :]) / lam[:, None, :]  # c[t, s, i]
    return (c[..., None] - _cross_values(budgets, pts)).max(axis=0)


def h_value(psi: PsiVector, phi, d: RPDataset) -> float:
    """Closed-form relaxed-system optimum for a fixed ψ and scenario Φ.

    h(ψ, Φ) = max(0, max_{t,s,i} [(u_s^i − u_t^i)/λ_t^i − g_t^i(γ_s^i)]):
    for fixed utility numbers the smallest feasible relaxation r needs no LP.
    """
    phi = np.asarray(phi, dtype=float)
    bt = _block_terms(affine_budgets(d.constraints), psi, phi[:, :, None])  # one-sample scenario
    return float(max(0.0, bt.max()))


def wasserstein_ball_check(phi, d: RPDataset, eps: float) -> bool:
    """Σ_{t,i} min_k ‖γ_t^i − γ̂_{t,k}^i‖₂ ≤ eps for the scenario phi."""
    phi = np.asarray(phi, dtype=float)
    samp = _samples(d)  # (T, M, N, k)
    dist = np.linalg.norm(samp - phi[:, :, None, :], axis=-1).min(axis=-1)
    return bool(dist.sum() <= eps + 1e-12)


# --- master problem -----------------------------------------------------------


def _cut_data(d: RPDataset, samples, scen: ScenarioSet):
    """Stacked cut tensors sorted by k: (G_all (J, T, T, M), dist (J,), k_index (J,)).

    G_all[j, t, s, i] = g_t^i(γ_s^i) under cut j; all cuts are evaluated in
    one call.  G_all is made C-contiguous, the layout the lane scores read.
    """
    phis = np.stack([phi for cuts in scen.cuts for phi in cuts])  # (J, T, M, k)
    kidx = np.repeat(np.arange(scen.N), [len(cuts) for cuts in scen.cuts])
    gaps = np.linalg.norm(phis - samples[:, :, kidx].transpose(2, 0, 1, 3), axis=-1)
    G = _cross_values(affine_budgets(d.constraints), phis.transpose(1, 2, 0, 3))  # (T, T, M, J)
    dists = gaps.reshape(len(phis), -1).sum(axis=1)
    return np.ascontiguousarray(G.transpose(3, 0, 1, 2)), dists, kidx


class _Segments:
    """Cut indices grouped by sample index, one padded row per k that has cuts.

    Cuts are sorted by k; cols[r, p] is the p-th cut of sample index ks[r].  A
    row shorter than the longest repeats its first cut, which changes neither
    the row's maximum nor its first maximising position.
    """

    def __init__(self, kidx):
        starts = np.flatnonzero(np.diff(kidx, prepend=-1))
        counts = np.diff(np.append(starts, kidx.size))
        pos = np.arange(counts.max())
        self.ks = kidx[starts]
        self.cols = starts[:, None] + np.where(pos < counts[:, None], pos, 0)
        self.rows = np.arange(starts.size)


def _lane_scores(u, lam, v_n1, cut_data, segs: _Segments):
    """Per-lane attained cut maxima and the (t, s, i) entry behind each.

    A cut scores h − v_{N+1}·dist with h = max(0, max_{t,s,i} term).  For each
    sample index with cuts, returns its largest cut score and, for its first
    maximising cut, the flat (t, s, i) index of the first maximising term.
    u and lam are (L, T, M), v_n1 is (L,); both results are (L, len(segs.ks)).
    """
    Gs, dists, _kidx = cut_data
    L, J = len(u), len(dists)
    c = (u[:, None] - u[:, :, None]) / lam[:, :, None]  # c[l, t, s, i]
    term = (c[:, None] - Gs).reshape(L * J, -1)
    arg = term.argmax(axis=1)
    h = np.maximum(term.ravel()[np.arange(L * J) * term.shape[1] + arg], 0.0)
    scores = h.reshape(L, J) - v_n1[:, None] * dists
    cut = segs.cols[segs.rows, scores[:, segs.cols].argmax(axis=2)]
    cut += J * np.arange(L)[:, None]
    return scores.ravel()[cut], arg[cut]


def _lane_objective(seg_max, v_n1, segs: _Segments, eps, N, two_v):
    """Objective and optimal v_k (clipped attained cut maxima) per lane."""
    v = np.zeros((len(v_n1), N))
    v[:, segs.ks] = np.clip(seg_max, 0.0, two_v)
    return eps * v_n1 + v.sum(axis=1) / N, v


def _lane_descent(u, lam, v_n1, cut_data, segs: _Segments, eps, N, two_v, box, incumbent):
    """Projected subgradient descent over ψ for fixed v_{N+1}, one lane per start.

    Each lane follows the iterates of a serial descent from its start: every
    v_k in (0, 2V) contributes the subgradient of its first maximising cut,
    and a lane stops for good once no v_k does.  A lane whose step leaves
    (u, λ) unchanged also stops for good: at its next step it has the same
    scores and subgradient and a smaller step size, and since fl(step·g) and
    fl(u − x) are monotone and the clip is to a fixed box, that step and
    every later one return the same point.  So only the lanes that still
    move are scored, and the descent ends when none does; the serial
    descents' remaining steps would change no iterate and no best point.

    A lane also stops once it can no longer be the round's winner.  Each of
    its objectives is fl(ε·v_{N+1}) + fl(Σ_k v_k / N) with every v_k ≥ 0, and
    rounding is monotone, so none is below its floor fl(ε·v_{N+1}).  It stops
    when its floor is strictly above the smallest best objective of any lane
    (the first minimiser wins a tie, so a tie keeps it) or at or above
    ``incumbent``, the objective a winner must beat (+inf for none).  In the
    serial descents its best is then neither the round's first minimiser nor
    below ``incumbent`` either, so only that lane's own returned best may
    differ from theirs.
    """
    u_lo, u_hi, l_lo, l_hi = box
    L, T, M = u.shape
    floor = eps * v_n1
    # flat (t, s, i) term index -> flat (s, i) and (t, i) indices into a lane's T·M
    t, s, i = np.unravel_index(np.arange(T * T * M), (T, T, M))
    of_st = np.stack([s * M + i, t * M + i], axis=1)
    sign = np.array([1.0, -1.0])
    seg_max, entry = _lane_scores(u, lam, v_n1, cut_data, segs)
    best_obj, _ = _lane_objective(seg_max, v_n1, segs, eps, N, two_v)
    best_u, best_lam = u.copy(), lam.copy()
    lanes = np.arange(L)  # the moving lanes; u and lam hold their iterates
    step0 = 0.2 * max(u_hi - u_lo, l_hi - l_lo)
    for it in range(SUBGRAD_ITERS):
        # the first maximising cut of each k scores seg_max
        live = (seg_max > 0.0) & (seg_max < two_v)
        f = floor[lanes]
        active = live.any(axis=1) & (f <= best_obj.min()) & (f < incumbent)
        if not active.all():
            lanes, u, lam, live, entry = (a[active] for a in (lanes, u, lam, live, entry))
            if not lanes.size:
                break
        # per-lane subgradient, accumulated in the serial (lane, k) order
        row, c = np.nonzero(live)
        e = entry[row, c]
        at = of_st[e] + row[:, None] * (T * M)  # (s, i) and (t, i) of each term
        at_s, at_t = at[:, 0], at[:, 1]
        lam_t = lam.ravel()[at_t]
        x = 1.0 / (lam_t * N)
        gu = np.bincount(at.ravel(), (x[:, None] * sign).ravel(), u.size)
        gl = np.bincount(at_t, -((u.ravel()[at_s] - u.ravel()[at_t]) / (lam_t**2 * N)), u.size)
        step = step0 / np.sqrt(it + 1.0)
        u_next = (u - step * gu.reshape(u.shape)).clip(u_lo, u_hi)
        lam_next = (lam - step * gl.reshape(u.shape)).clip(l_lo, l_hi)
        moved = (u_next != u).any(axis=(1, 2)) | (lam_next != lam).any(axis=(1, 2))
        lanes, u, lam = lanes[moved], u_next[moved], lam_next[moved]
        if not lanes.size:
            break
        seg_max, entry = _lane_scores(u, lam, v_n1[lanes], cut_data, segs)
        obj, _ = _lane_objective(seg_max, v_n1[lanes], segs, eps, N, two_v)
        better = obj < best_obj[lanes]
        won = lanes[better]
        best_obj[won] = obj[better]
        best_u[won] = u[better]
        best_lam[won] = lam[better]
    return best_u, best_lam, best_obj


def master_solve(
    scen: ScenarioSet,
    d: RPDataset,
    eps: float,
    cfg: DROConfig,
    rng=None,
) -> tuple[PsiVector, NDArray[np.float64], float]:
    """Approximate minimizer of the cut-constrained master program.

    Outer refining grid over v_{N+1} ∈ [0, V/ε]; inner projected-subgradient
    descent over ψ with multistart, all V_GRID × MULTISTARTS descents of a
    round run as one batch; v_k recovered as the attained cut maxima
    clipped to [0, 2V].  The second round passes the first round's best
    objective as the incumbent it must beat, so its descents stop once their
    floor ε·v_{N+1} reaches it (see :func:`_lane_descent`); the returned ψ, v
    and objective are those of the serial descents.
    """
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    T, M, N = d.T, d.M, scen.N
    # the printed V = 2·U_BOUND/λ̂, widened by the dataset's range bound G
    V = 2.0 * U_BOUND / cfg.lambda_hat + _dataset_g_bound(d)
    two_v = 2.0 * V
    box = (-U_BOUND, U_BOUND, cfg.lambda_hat, cfg.lam_max)
    center_l = 0.5 * (cfg.lambda_hat + cfg.lam_max)
    if scen.total == 0:
        psi = PsiVector(np.zeros((T, M)), np.full((T, M), center_l))
        return psi, np.zeros(N + 1), 0.0

    samples = _samples(d)
    cut_data = _cut_data(d, samples, scen)
    segs = _Segments(cut_data[2])
    vmax = V / eps if eps > 0 else two_v
    S = MULTISTARTS

    lo, hi = 0.0, vmax
    best = None
    for _round in range(2):
        grid = np.linspace(lo, hi, V_GRID)
        # lanes in (grid point, start) order; the centre first, then random starts
        u0 = np.zeros((V_GRID, S, T, M))
        lam0 = np.full((V_GRID, S, T, M), center_l)
        for g in range(V_GRID):
            for m in range(1, S):
                u0[g, m] = rng.uniform(box[0], box[1], size=(T, M))
                lam0[g, m] = rng.uniform(box[2], box[3], size=(T, M))
        u, lam, obj = _lane_descent(
            u0.reshape(-1, T, M), lam0.reshape(-1, T, M), np.repeat(grid, S),
            cut_data, segs, eps, N, two_v, box, np.inf if best is None else best[3],
        )
        j = int(obj.argmin())
        if best is None or obj[j] < best[3]:
            best = (grid[j // S], u[j], lam[j], obj[j])
        width = (hi - lo) / (V_GRID - 1)
        lo = max(0.0, best[0] - width)
        hi = min(vmax, best[0] + width)
    v_n1, u, lam, obj = best
    seg_max, _ = _lane_scores(u[None], lam[None], np.array([v_n1]), cut_data, segs)
    _, v = _lane_objective(seg_max, np.array([v_n1]), segs, eps, N, two_v)
    return PsiVector(u, lam), np.concatenate([v[0], [v_n1]]), float(obj)


# --- constraint-violation oracle ---------------------------------------------


def _face_points(budgets, anchors):
    """Face geometry of every block's budget set F = {γ ≥ 0 : α·γ ≤ rhs}.

    A face frees the coordinates in a mask (the others are 0) and may hold
    the budget row tight.  Its hull's direction space has the projector
    P = diag(mask) − [tight]·α_m α_mᵀ/‖α_m‖² (α_m = α masked), and the foot of
    x on the hull is P x + [tight]·rhs·α_m/‖α_m‖².  For anchors (T, M, N, k)
    returns, per block, anchor and face, the foot and its distance,
    (T, M, N, F, k) and (T, M, N, F), and per block, piece t and face the
    ascent direction q = −P α_t of c_t − g_t^i, (T, M, T, F, k), which is 0 on
    vertices.
    """
    A = budgets[0]
    T, M, k = A.shape
    rhs = -budget_values(budgets, np.zeros(k))[..., 0]  # g(γ) = α·γ − rhs
    free = (np.arange(2**k)[:, None] >> np.arange(k)) & 1  # (2^k, k); row 0 is the origin
    am = (free * A[:, :, None, :])[:, :, 1:]
    norm2 = (am * am).sum(axis=-1)
    P = np.tile(np.concatenate([free, free[1:]])[:, :, None] * np.eye(k), (T, M, 1, 1, 1))
    P[:, :, 2**k :] -= am[..., :, None] * am[..., None, :] / norm2[..., None, None]
    off = np.zeros(P.shape[:-1])
    off[:, :, 2**k :] = rhs[..., None, None] * am / norm2[..., None]
    dim = np.concatenate([free.sum(axis=1), free[1:].sum(axis=1) - 1])
    feet = np.einsum("smfij,smnj->smnfi", P, anchors) + off[:, :, None]
    gap = anchors[..., None, :] - feet
    dist = np.sqrt((gap * gap).sum(axis=-1))
    q = -np.einsum("smfij,tmj->smtfi", P, A) * (dim > 0)[:, None]
    return feet, dist, q


def _in_budget(budgets, cands):
    """Clip candidates (T, M, …, k) to γ ≥ 0 and flag those inside their block's budget set."""
    inside = (cands >= -TOL_FACE).all(axis=-1)
    cands = np.maximum(cands, 0.0)
    T, M, *_, k = cands.shape
    g = budget_values(budgets, cands.reshape(T, M, -1, k))
    return cands, inside & (g.reshape(inside.shape) <= TOL_FACE)


@dataclass
class DROState:
    psi_hat: PsiVector
    v_hat: NDArray[np.float64]
    cv: NDArray[np.float64]
    iteration: int
    certified: bool = False


def _cv_all(state: DROState, d: RPDataset, samples):
    """Most violated scenario per sample index, exact over every block's faces.

    For block (s, i) and sample k with anchor a, the score of γ is
    max(term(γ), rest_k, 0) − (v‖γ − a‖ + v_k), v = v_{N+1}, rest_k the other
    blocks' largest term.  Its rest_k and 0 pieces never beat the anchor (the
    zero-deviation scenario, base_h − v_k), so γ is scored by term(γ) alone.
    Each piece c_t − g_t^i(γ) − v‖γ − a‖ is concave, so it peaks in the
    relative interior of some face, at the face's only stationary point: the
    vertex itself, or a′ + q·d/√(v² − ‖q‖²) when ‖q‖ < v (foot a′ of a on the
    face hull, d = ‖a − a′‖, q the piece's ascent direction on the hull).
    All blocks' candidates are scored at once; per sample index the first
    best one in (s, i) order replaces the zero-deviation scenario if it
    scores strictly higher.
    """
    psi, v_hat = state.psi_hat, state.v_hat
    T, M, N, kdim = samples.shape
    v_n1 = float(v_hat[-1])
    budgets = affine_budgets(d.constraints, bounded=True)
    bt = _block_terms(budgets, psi, samples)
    base_h = np.maximum(bt.reshape(T * M, N).max(axis=0), 0.0)  # (N,)
    best_val = base_h - v_hat[:N]  # zero-deviation scenario
    feet, dist, q = _face_points(budgets, samples)
    qq = (q * q).sum(axis=-1)  # (T, M, T, F)
    room = v_n1 * v_n1 - qq
    root = np.sqrt(np.where(room > 0.0, room, 1.0))
    # per block (s, i), sample, piece t and face: (T, M, N, T, F) and (T, M, N, T, F, k)
    reach = np.where(qq[:, :, None] > 0.0, dist[:, :, :, None] / root[:, :, None], 0.0)
    cands = feet[:, :, :, None] + reach[..., None] * q[:, :, None]
    cands, ok = _in_budget(budgets, cands.reshape(T, M, N, -1, kdim))
    ok &= ((qq == 0.0) | (room > 0.0)).reshape(T, M, 1, -1)
    terms = _block_terms(budgets, psi, cands.reshape(T, M, -1, kdim)).reshape(ok.shape)
    gap = cands - samples[..., None, :]
    score = terms - (v_n1 * np.sqrt((gap * gap).sum(axis=-1)) + v_hat[:N, None])
    score[~ok] = -np.inf
    flat = score.transpose(2, 0, 1, 3).reshape(N, -1)
    j = flat.argmax(axis=1)
    best_phi = [samples[:, :, k, :].copy() for k in range(N)]
    for k in np.flatnonzero(flat[np.arange(N), j] > best_val):
        s, i, c = np.unravel_index(j[k], (T, M, ok.shape[-1]))
        best_val[k] = flat[k, j[k]]
        best_phi[k][s, i] = cands[s, i, k, c]
    return best_val, best_phi


# --- exchange loop and robust gap --------------------------------------------


def exchange_loop(
    d: RPDataset,
    eps: float,
    delta: float,
    cfg: DROConfig | None = None,
) -> tuple[PsiVector, DROState, list[dict]]:
    """Alternate master solves and violation searches until max_k CV_k < δ.

    The certified value is monotone in ε: the worst case over a larger ball
    is no smaller, so when the master reaches its minimum the final master
    objective at a smaller ε is at most the one at a larger ε plus δ.  The
    iteration count is not monotone in ε.  Once the ball covers the scenario
    support, the master picks v_{N+1} = 0 and the loop solves the
    support-wide min-max, which on ``dro_instance`` certifies at the second
    iteration (mean iterations 3.00, 4.38, 2.00 for ε = 0.001, 1, 10 over
    50 replications).
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    cfg = cfg or DROConfig()
    rng = np.random.default_rng(cfg.seed)
    samples = _samples(d)
    N = samples.shape[2]
    scen = ScenarioSet(N)
    trace: list[dict] = []
    state = None
    for it in range(1, cfg.max_exchange_iters + 1):
        psi, v_hat, obj = master_solve(scen, d, eps, cfg, rng=rng)
        state = DROState(psi, v_hat, np.zeros(N), it)
        cvs, phis = _cv_all(state, d, samples)
        state.cv = cvs
        trace.append(
            {
                "iter": it,
                "max_cv": float(cvs.max()),
                "master_objective": float(obj),
                "n_cuts_total": scen.total,
            }
        )
        if cvs.max() < delta:
            state.certified = True
            return psi, state, trace
        for k in range(N):
            if cvs[k] > 0:
                scen.cuts[k].append(phis[k])
    return state.psi_hat, state, trace


def robust_gap(psi_hat: PsiVector, d: RPDataset, eps: float) -> float:
    """Worst-case h over scenarios within total displacement eps of the samples.

    h decomposes over single-block terms, so the displacement budget is best
    spent on one block: for each block and sample, the exact maximum over
    the budget polytope within the eps-ball around the sample (or the sample
    itself).  Each linear piece peaks on some face, at the vertex, at the
    foot a′ of the sample on the face hull, or on the sphere at
    a′ + √(eps² − d²)·q/‖q‖.
    """
    samples = _samples(d)
    T, M, N, kdim = samples.shape
    budgets = affine_budgets(d.constraints, bounded=True)
    best = max(0.0, float(_block_terms(budgets, psi_hat, samples).max()))
    feet, dist, q = _face_points(budgets, samples)
    qn = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    q_hat = np.divide(q, qn, out=np.zeros_like(q), where=qn > 0.0)  # (T, M, T, F, k)
    radius = np.sqrt(np.maximum(eps * eps - dist * dist, 0.0))  # (T, M, N, F)
    # per block (s, i), sample, piece t and face: (T, M, N, T, F, k)
    cands = feet[:, :, :, None] + radius[:, :, :, None, :, None] * q_hat[:, :, None]
    cands, ok = _in_budget(budgets, cands.reshape(T, M, N, -1, kdim))
    gap = cands - samples[..., None, :]
    ok &= np.sqrt((gap * gap).sum(axis=-1)) <= eps + TOL_FACE
    if ok.any():
        terms = _block_terms(budgets, psi_hat, cands.reshape(T, M, -1, kdim)).reshape(ok.shape)
        best = max(best, float(terms[ok].max()))
    return float(best)
