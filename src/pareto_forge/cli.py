"""Command-line harness: dataset auditing, generation, tuning and robust runs.

Commands
--------
* ``audit``     — revealed-preference report for a dataset file
* ``generate``  — play the river game under probes and write a dataset
* ``spsa``      — one mechanism-tuning run (trace CSV + manifest JSON)
* ``dro``       — exchange-method runs per Wasserstein radius (trace CSV + JSON)
* ``mc``        — Monte-Carlo replication wrapper around spsa or dro

Exit codes: 0 success (audit: consistent), 1 semantic negative (audit:
inconsistent), 2 error (bad config, malformed input, runtime failure).
Configs are JSON validated against the bundled schema; unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from functools import cache, partial
from importlib import resources
from pathlib import Path

import numpy as np

from .core import load_dataset, save_dataset
from .experiments import (
    monte_carlo,
    river_spsa_config,
    river_spsa_replication,
    run_dro_replication,
    run_river_spsa,
)
from .game import RiverPollutionGame, collect_dataset, river_probes
# ccei_scalar is not called here; perfbench/spans.py patches this binding by name
from .rp import TOL_R, ccei_all, ccei_scalar, garp_f_threshold, mm_garp, pareto_gap  # noqa: F401
from .spsa import STOP_TOL_DEFAULT

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


class ConfigError(Exception):
    pass


def _non_finite_at(obj, where=()):
    """Key path of the first NaN or infinite number in a parsed JSON value, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else where
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _non_finite_at(value, (*where, str(key)))
        if found is not None:
            return found
    return None


@cache
def _config_validator():
    """Validator for the bundled schema, built on first use and kept for the process.

    The schema is checked against its metaschema here, once, instead of on every
    config as ``jsonschema.validate`` does; the errors it reports are the same.
    """
    from jsonschema.validators import validator_for

    schema = json.loads(resources.files("pareto_forge").joinpath("schemas/config.schema.json").read_text())
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    # json accepts NaN/Infinity literals and turns overflowing ones (1e400) into inf
    bad = _non_finite_at(cfg)
    if bad is not None:
        raise ConfigError(f"cannot read config {path}: non-finite number at {'/'.join(bad) or 'top level'}")
    from jsonschema.exceptions import best_match

    err = best_match(_config_validator().iter_errors(cfg))
    if err is not None:
        raise ConfigError(f"invalid config: {err.message} (at {'/'.join(map(str, err.path))})")
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _out_dir(name) -> Path:
    """The output directory ``name``, made with its parents unless it is one already."""
    out_dir = Path(name)
    if not out_dir.is_dir():  # mkdir(exist_ok=True) raises and catches on an existing one
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, name: str, cfg: dict, seed, extra=None) -> None:
    manifest = {"config": cfg, "config_hash": _config_hash(cfg), "seed": seed}
    if extra:
        manifest.update(extra)
    _write_json(out_dir / name, manifest)


def cmd_audit(args) -> int:
    tol = args.tol if args.tol is not None else TOL_R
    if not (math.isfinite(tol) and tol >= 0):
        print(f"audit error: --tol must be a finite number >= 0, got {tol}", file=sys.stderr)
        return EXIT_ERROR
    try:
        d = load_dataset(args.dataset)
    except Exception as err:  # malformed file: report and exit 2
        print(f"audit error: {err}", file=sys.stderr)
        return EXIT_ERROR
    res = pareto_gap(d)
    report = {
        "mm_garp": mm_garp(d),
        "pareto_gap": res.gap,
        "per_agent_gaps": list(res.per_agent_gaps),
        "garp_f_threshold": garp_f_threshold(d),
        "ccei": ccei_all(d),
        "certificate": {
            "u": res.certificate.u.tolist(),
            "lam": res.certificate.lam.tolist(),
            "r": res.certificate.r,
            "alpha": res.certificate.alpha,
        },
        "tol": tol,
        "consistent": res.gap <= tol,
    }
    _write_json(_out_dir(args.out_dir) / "audit_report.json", report)
    print(json.dumps({k: report[k] for k in ("mm_garp", "pareto_gap", "consistent")}))
    return EXIT_OK if report["consistent"] else EXIT_NEGATIVE


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    g = dict(cfg.get("game", {}))
    seed = g.pop("seed", 0)
    if args.seed is not None:
        seed = args.seed
    theta0 = g.pop("theta0", [0.5, 0.3, 0.4, 0.5, 0.2, 0.3, 0.4])
    T = g.pop("T", 10)
    sampling = {k: g.pop(k) for k in ("N", "jitter") if k in g}
    game = RiverPollutionGame(theta0, **g)
    d = collect_dataset(game, river_probes(game, T, seed=seed), seed=seed, **sampling)
    out_dir = _out_dir(args.out_dir)
    path = out_dir / "dataset.json"
    save_dataset(d, path)
    _write_manifest(out_dir, "generate_manifest.json", cfg, seed)
    print(f"wrote {path}")
    return EXIT_OK


def _river_play(cfg: dict) -> dict:
    """The ``game`` block keys that tuning reads; T, seed and theta0 are ``generate``'s."""
    return {k: v for k, v in cfg.get("game", {}).items() if k not in ("T", "seed", "theta0")}


def cmd_spsa(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    s = dict(cfg.get("spsa", {}))
    seed = s.pop("seed", 0)
    if args.seed is not None:
        seed = args.seed
    theta0 = s.pop("theta0", None)
    if args.max_iters is not None:
        s["max_iters"] = args.max_iters
    run_cfg = river_spsa_config(seed=seed, **s)
    out_dir = _out_dir(args.out_dir)
    if run_cfg.max_iters == 0:
        trace = None
    else:
        trace = run_river_spsa(run_cfg, theta0=theta0, **_river_play(cfg))
        trace.write_csv(out_dir / "spsa_trace.csv")
    extra = {
        "iterations": len(trace.records) if trace else 0,
        "final_loss": trace.records[-1].loss if trace and trace.records else None,
    }
    _write_manifest(out_dir, "spsa_manifest.json", cfg, seed, extra)
    return EXIT_OK


# radii of a ``dro`` block without ``eps``
DRO_RADII = (0.001, 1.0, 10.0)


def cmd_dro(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    s = dict(cfg.get("dro", {}))
    seed = s.pop("seed", 0)
    if args.seed is not None:
        seed = args.seed
    results = {}
    for eps in s.pop("eps", DRO_RADII):
        rep = run_dro_replication(seed, eps=eps, **s)
        out_dir = _out_dir(args.out_dir)  # not before a bad block is rejected
        tag = str(eps).replace(".", "p")
        with open(out_dir / f"dro_trace_eps_{tag}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "max_cv", "master_objective", "n_cuts_total"])
            for row in rep["trace"]:
                w.writerow([row["iter"], repr(row["max_cv"]), repr(row["master_objective"]), row["n_cuts_total"]])
        results[str(eps)] = {"iterations": rep["iterations"], "certified": rep["certified"]}
    _write_manifest(out_dir, "dro_manifest.json", cfg, seed, {"results": results})
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = _load_config(args.config)
    mc = cfg.get("monte_carlo", {})
    command = mc.get("command", "spsa")
    if "seed" in cfg.get(command, {}):
        raise ConfigError(
            f"mc does not read {command}.seed: replication seeds derive from monte_carlo.base_seed"
        )
    reps = mc.get("replications", 10)
    base_seed = args.seed if args.seed is not None else mc.get("base_seed", 0)
    # each branch makes the out-dir once its replications return, so a block rejected
    # at play time leaves none
    if command == "spsa":
        # tuner settings come from the spsa block and game settings from the game
        # block, as in the spsa command
        task = partial(river_spsa_replication, game=_river_play(cfg), **cfg.get("spsa", {}))
        results = monte_carlo(task, reps, base_seed=base_seed)
        out_dir = _out_dir(args.out_dir)
        with open(out_dir / "mc_spsa.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["replication", "seed", "iterations", "final_loss"])
            for r_id, r in enumerate(results):
                w.writerow([r_id, r["seed"], r["iterations"], repr(r["final_loss"])])
        summary = {
            "mean_iterations": float(np.mean([r["iterations"] for r in results])),
            "success_rate": float(np.mean([r["final_loss"] <= STOP_TOL_DEFAULT for r in results])),
        }
    else:
        s = dict(cfg.get("dro", {}))
        rows = []
        summary = {}
        for eps in s.pop("eps", DRO_RADII):
            task = partial(run_dro_replication, eps=eps, **s)
            results = monte_carlo(task, reps, base_seed=base_seed)
            for r_id, r in enumerate(results):
                rows.append([r_id, eps, r["seed"], r["iterations"], r["certified"]])
            summary[str(eps)] = {
                "mean_iterations": float(np.mean([r["iterations"] for r in results])),
                "certified_rate": float(np.mean([r["certified"] for r in results])),
            }
        out_dir = _out_dir(args.out_dir)
        with open(out_dir / "mc_dro.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["replication", "eps", "seed", "iterations", "certified"])
            w.writerows(rows)
    _write_manifest(out_dir, "mc_manifest.json", cfg, base_seed, {"summary": summary})
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pareto-forge`` parser, built once per process; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="pareto-forge",
        description="Revealed-preference auditing and adaptive mechanism design workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="revealed-preference report for a dataset file")
    p_audit.add_argument("dataset")
    p_audit.add_argument("--tol", type=float, default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("generate", help="generate a dataset by playing the river game")
    p_gen.set_defaults(func=cmd_generate)

    p_spsa = sub.add_parser("spsa", help="run mechanism tuning on the river game")
    p_spsa.add_argument("--max-iters", type=int, default=None)
    p_spsa.set_defaults(func=cmd_spsa)

    p_dro = sub.add_parser("dro", help="run the robust estimation exchange loop")
    p_dro.set_defaults(func=cmd_dro)

    p_mc = sub.add_parser("mc", help="Monte-Carlo replication wrapper")
    p_mc.set_defaults(func=cmd_mc)

    for p in (p_gen, p_spsa, p_dro, p_mc):
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
    for p in (p_audit, p_gen, p_spsa, p_dro, p_mc):
        p.add_argument("--out-dir", default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in {"generate", "mc"} and not args.config:
        print(f"{args.command} requires --config", file=sys.stderr)
        return EXIT_ERROR
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print(f"{args.command} error: --seed must be an integer >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:  # runtime failure: exit 2, never a traceback
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
