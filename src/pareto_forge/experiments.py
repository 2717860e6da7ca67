"""Canned experiments: river-game mechanism tuning, robust estimation, Monte-Carlo.

These wire the library modules together the way the command-line harness and
the acceptance suite use them:

* ``river_loss`` / ``run_river_spsa`` — tune the river-pollution mechanism
  parameter until observed Nash play is socially optimal;
* ``run_dro_replication`` — one exchange-method run on the finite-sample
  instance family;
* ``monte_carlo`` — replication wrapper with derived seeds, run in the
  calling process.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .dro import DROConfig, exchange_loop
from .game import THETA_NAMES, RiverPollutionGame, collect_dataset, river_probes
from .rp import pareto_gap
from .spsa import SPSAConfig, SPSATrace, run_mechanism_design
from .synthetic import dro_instance

RIVER_SPSA_DEFAULTS = dict(a=0.5, c=0.5, q=0.001, eta=0.25, T=10, max_iters=30)


def river_loss(theta, seed, T: int, N: int = 1, jitter: float = 0.0, **settings) -> float:
    """Empirical social-optimality gap of observed river-game play at θ.

    ``settings`` override ``RiverPollutionGame``'s d1, delta and cap defaults.
    """
    game = RiverPollutionGame(theta, **settings)
    rng = np.random.default_rng(seed)
    probe_seed, sample_seed = rng.integers(0, 2**31 - 1, size=2)
    probes = river_probes(game, T, seed=int(probe_seed))
    d = collect_dataset(game, probes, N=N, jitter=jitter, seed=int(sample_seed))
    return pareto_gap(d).gap


def river_spsa_config(seed: int = 0, **overrides) -> SPSAConfig:
    """Experiment settings: p=7, a=c=0.5, η=1/4, q=0.001, T=10, Θ=[0,1]^7.

    A ``theta_box`` override needs one row per component of θ, and the d2
    and c1 rows need lower bounds >= 0, so that Θ holds only playable θ.
    """
    params = dict(RIVER_SPSA_DEFAULTS)
    params.update(overrides)
    box = params.pop("theta_box", np.tile([0.0, 1.0], (7, 1)))
    cfg = SPSAConfig(theta_box=box, seed=seed, **params)
    if cfg.p != len(THETA_NAMES):
        raise ValueError(f"theta_box must have 7 rows ({', '.join(THETA_NAMES)}), got {cfg.p}")
    for row, lower in enumerate(cfg.theta_box[:4, 0].tolist()):
        if lower < 0:
            raise ValueError(f"theta_box row {row} ({THETA_NAMES[row]}) needs a lower bound >= 0, got {lower}")
    return cfg


def run_river_spsa(cfg: SPSAConfig, theta0=None, **play) -> SPSATrace:
    """One full mechanism-tuning run on the river game.

    ``play`` holds the ``river_loss`` settings (d1, delta, cap, N, jitter)
    to override; the probe horizon is the tuner's ``cfg.T``.  When
    ``theta0`` is omitted it is drawn uniformly from [0, 0.5]^p (the
    experiment's initialization), independent of the box upper bounds.
    """
    if theta0 is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        theta0 = rng.uniform(0.0, 0.5, size=cfg.p)
    loss = partial(river_loss, T=cfg.T, **play)
    return run_mechanism_design(loss, cfg, theta0=theta0)


def river_spsa_replication(rep_seed: int, theta0=None, game: dict | None = None, **spsa) -> dict:
    """One replication: returns iteration count and final loss.

    ``spsa`` overrides the ``river_spsa_config`` settings and ``game`` the
    ``run_river_spsa`` play settings.
    """
    trace = run_river_spsa(river_spsa_config(seed=rep_seed, **spsa), theta0=theta0, **(game or {}))
    return {
        "seed": rep_seed,
        "iterations": len(trace.records),
        "final_loss": float(trace.records[-1].loss),
    }


def run_dro_replication(
    rep_seed: int,
    eps: float,
    delta: float = 0.1,
    T: int = 5,
    M: int = 3,
    N: int = 5,
    jitter: float = 0.05,
    **options,
) -> dict:
    """One exchange-method run on the finite-sample instance family.

    ``options`` override the ``DROConfig`` fields other than its seed, which
    is the replication seed.
    """
    d = dro_instance(T=T, M=M, N=N, jitter=jitter, seed=rep_seed)
    _psi, state, trace = exchange_loop(d, eps=eps, delta=delta, cfg=DROConfig(**options, seed=rep_seed))
    return {
        "seed": rep_seed,
        "eps": eps,
        "iterations": state.iteration,
        "certified": bool(state.certified),
        "trace": trace,
    }


def monte_carlo(task, replications: int, base_seed: int = 0) -> list:
    """Run ``task(rep_seed)`` for derived seeds, in order, in this process."""
    return [task(base_seed + 1000003 * r) for r in range(replications)]
