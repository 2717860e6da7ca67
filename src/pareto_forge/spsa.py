"""Adaptive mechanism tuning by simultaneous-perturbation stochastic approximation.

The mechanism parameter θ lives in a box Θ; the loss is the (empirical)
social-optimality gap of the dataset generated by playing the game at θ.  Each
iteration perturbs θ along a random Rademacher direction Δ, forms the
two-point gradient estimate from the perturbed points projected onto Θ (as in
Sadegh 1997), takes a projected step, and injects annealed Gaussian noise so
the iterate can escape local minima:

    G_n(θ_n) = [L(Proj_Θ(θ_n + c_n·Δ)) − L(Proj_Θ(θ_n − c_n·Δ))] / (2·c_n·Δ),
    θ_{n+1} = Proj_Θ(θ_n − a_n·G_n(θ_n) + q_n·w_n),   w_n ~ N(0, I).

Gains decay as a_n = a/n, c_n = c/n^η, q_n = sqrt(q / (m·ln ln m)) with
m = n + 3 (the unshifted formula is undefined for n ≤ 3).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .core import _check_ints, _check_reals
from .game import NashConvergenceError
from .rp import TOL_R

STOP_TOL_DEFAULT = TOL_R
# loss attempts, each on fresh probe seeds, before a Nash failure aborts the run
RETRIES = 3


@dataclass(frozen=True)
class SPSAConfig:
    """Gains, box, evaluation budget and seed for one tuning run.

    Checked where the config is built, each error naming its field: a, c, q,
    eta and stop_tol are finite numbers with a > 0, c > 0, q >= 0 and eta in
    [1/6, 1/2]; T (>= 1), max_iters (>= 0) and seed (>= 0) are ints, bools
    excluded; theta_box rows are [lo, hi] of finite numbers with lo <= hi.
    """

    a: float
    c: float
    q: float
    eta: float
    theta_box: NDArray[np.float64]  # (p, 2) rows [lo, hi]
    T: int = 10
    max_iters: int = 100
    stop_tol: float = STOP_TOL_DEFAULT
    seed: int = 0

    def __post_init__(self):
        for name in ("a", "c", "q", "eta", "stop_tol"):
            _check_reals([getattr(self, name)], f"{name} must be a finite number, got a non-{{}} value")
        for name, value in (("a", self.a), ("c", self.c)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not self.q >= 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if not (1.0 / 6.0 <= self.eta <= 0.5):
            raise ValueError(f"eta must lie in [1/6, 1/2], got {self.eta}")
        _check_ints(self, (("T", 1), ("max_iters", 0), ("seed", 0)))
        box = np.asarray(self.theta_box, dtype=float).reshape(-1, 2)
        if not np.isfinite(box).all():
            raise ValueError(f"theta_box must hold finite numbers, got {box.tolist()}")
        if not np.all(box[:, 0] <= box[:, 1]):
            raise ValueError("theta_box rows must be [lo, hi] with lo <= hi")
        object.__setattr__(self, "theta_box", box)

    @property
    def p(self) -> int:
        return self.theta_box.shape[0]

    def project(self, theta: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-coordinate clamp: the norm-minimizing projection onto the box."""
        return np.clip(theta, self.theta_box[:, 0], self.theta_box[:, 1])


def gains(n: int, cfg: SPSAConfig) -> tuple[float, float, float]:
    """(a_n, c_n, q_n) at iteration n >= 1."""
    if n < 1:
        raise ValueError("iterations are 1-based")
    m = n + 3
    a_n = cfg.a / n
    c_n = cfg.c / n**cfg.eta
    q_n = float(np.sqrt(cfg.q / (m * np.log(np.log(m)))))
    return a_n, c_n, q_n


@dataclass(frozen=True)
class StepRecord:
    n: int
    theta: NDArray[np.float64]
    loss: float
    gradient_estimate: NDArray[np.float64] | None
    a_n: float
    c_n: float
    q_n: float


@dataclass
class SPSATrace:
    """Per-iteration records of one tuning run, streamable to CSV."""

    records: list[StepRecord] = field(default_factory=list)

    @property
    def losses(self) -> NDArray[np.float64]:
        return np.array([r.loss for r in self.records])

    @property
    def thetas(self) -> NDArray[np.float64]:
        return np.stack([r.theta for r in self.records])

    def write_csv(self, path) -> None:
        p = self.records[0].theta.size if self.records else 0
        header = ["n", "loss"] + [f"theta_{j + 1}" for j in range(p)] + ["a_n", "c_n", "q_n"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in self.records:
                w.writerow(
                    [r.n, repr(r.loss)]
                    + [repr(float(v)) for v in r.theta]
                    + [repr(r.a_n), repr(r.c_n), repr(r.q_n)]
                )


def spsa_step(theta_n, loss, n: int, cfg: SPSAConfig, seed) -> tuple[NDArray[np.float64], dict]:
    """One update: perturb, estimate the gradient, project the noisy step.

    The loss is evaluated at the perturbed points θ ± c_n·Δ clamped into the
    box; the estimate keeps the unprojected difference 2·c_n·Δ as its
    denominator, and the new iterate is clamped into the box too.
    """
    theta_n = np.asarray(theta_n, dtype=float)
    rng = np.random.default_rng(seed)
    a_n, c_n, q_n = gains(n, cfg)
    delta = rng.integers(0, 2, size=cfg.p) * 2.0 - 1.0  # Rademacher +-1
    w = rng.standard_normal(cfg.p)
    r1 = float(loss(cfg.project(theta_n + c_n * delta)))
    r2 = float(loss(cfg.project(theta_n - c_n * delta)))
    grad = (r1 - r2) / (2.0 * c_n * delta)
    theta_next = cfg.project(theta_n - a_n * grad + q_n * w)
    record = {
        "n": n,
        "delta": delta,
        "r_plus": r1,
        "r_minus": r2,
        "gradient_estimate": grad,
        "a_n": a_n,
        "c_n": c_n,
        "q_n": q_n,
    }
    return theta_next, record


def run_mechanism_design(loss, cfg: SPSAConfig, theta0=None) -> SPSATrace:
    """Tune θ until the observed-play loss falls below stop_tol.

    ``loss(theta, seed)`` plays the game at θ (probes drawn from ``seed``) and
    returns the empirical social-optimality gap.  A Nash computation that does
    not converge (NashConvergenceError) is retried with fresh probe seeds up
    to ``RETRIES`` times before aborting; any other error, such as a gap
    certificate that fails validation, propagates at once.  The run is
    bit-reproducible given (cfg, theta0); a given ``theta0`` must have shape
    (cfg.p,).
    """
    ss = np.random.SeedSequence(cfg.seed)
    init_rng = np.random.default_rng(ss.spawn(1)[0])
    if theta0 is None:
        box = cfg.theta_box
        theta = init_rng.uniform(box[:, 0], box[:, 1])
    else:
        theta = np.asarray(theta0, dtype=float)
        if theta.shape != (cfg.p,):
            raise ValueError(f"theta0 must have shape ({cfg.p},), got {theta.shape}")
        theta = cfg.project(theta)
    trace = SPSATrace()
    for n in range(1, cfg.max_iters + 1):
        seeds = ss.spawn(2)
        eval_seed, step_seed = seeds[0], seeds[1]

        def eval_loss(th, base_seed=eval_seed):
            last_err = None
            for s in base_seed.spawn(RETRIES):
                try:
                    return loss(th, s)
                except NashConvergenceError as err:
                    last_err = err
            raise RuntimeError(
                f"loss evaluation failed after {RETRIES} attempts at n={n}: {last_err}"
            )

        a_n, c_n, q_n = gains(n, cfg)
        loss_n = float(eval_loss(theta))
        if loss_n <= cfg.stop_tol:
            trace.records.append(StepRecord(n, theta.copy(), loss_n, None, a_n, c_n, q_n))
            break
        theta_next, rec = spsa_step(theta, eval_loss, n, cfg, step_seed)
        trace.records.append(
            StepRecord(n, theta.copy(), loss_n, rec["gradient_estimate"], a_n, c_n, q_n)
        )
        theta = theta_next
    return trace
