"""Workload inputs and output checks.

Each workload turns the benchmark seed into a pool of input files (datasets or
configs) and a list of operations. An operation is one in-process
``pareto_forge.cli.main(argv)`` call; ``check`` decides from its exit code and
the files it wrote whether the operation succeeded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The input mix repeats this cycle, so any prefix of the operation list has
# the same mix up to one partial cycle.
AUDIT_CYCLE = (8, 8, 8, 14)  # dataset T; M = 3 agents, k = 3 goods
AUDIT_M, AUDIT_K = 3, 3
DRO_CYCLE = (0.001, 0.001, 0.001, 1.0, 10.0)  # one Wasserstein radius per operation
DRO_SETTINGS = {"T": 5, "M": 3, "N": 5, "jitter": 0.05, "delta": 0.1}
RIVER_SETTINGS = {"spsa": {"T": 10, "max_iters": 30}, "game": {"N": 1, "jitter": 0.0}}

# pool sizes in whole cycles, each above the operations of a run_seconds run at
# this commit; a run that needs more wraps around and says so
POOL = {"audit": 300, "river": 400, "dro": 100}
# operations of the traced pass: a fixed count, so per-layer counts repeat exactly
TRACE_OPS = {"audit": 24, "river": 40, "dro": 5}
GAP_AGREEMENT = 2e-4  # |garp_f_threshold - gap| bound of the acceptance suite


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    path: Path  # dataset (audit) or config file
    seed: int
    eps: float | None = None


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 2, size=n)]


def make_ops(pf, workload: str, seed: int, in_dir: Path, out_dir: Path) -> list[Op]:
    """Generate and write the workload's inputs; return its operations."""
    n = POOL[workload]
    seeds = _seeds(seed, n)
    out = str(out_dir)
    ops = []
    for j, s in enumerate(seeds):
        if workload == "audit":
            T = AUDIT_CYCLE[j % len(AUDIT_CYCLE)]
            path = in_dir / f"audit_{j:04d}_T{T}.json"
            pf.core.save_dataset(pf.synthetic.violating_dataset(T, AUDIT_M, AUDIT_K, seed=s), path)
            ops.append(Op(("audit", str(path), "--out-dir", out), path, s))
            continue
        if workload == "river":
            cfg = {"spsa": {**RIVER_SETTINGS["spsa"], "seed": s}, "game": RIVER_SETTINGS["game"]}
            eps = None
        else:
            eps = DRO_CYCLE[j % len(DRO_CYCLE)]
            cfg = {"dro": {**DRO_SETTINGS, "eps": [eps], "seed": s}}
        path = in_dir / f"{workload}_{j:04d}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        command = "spsa" if workload == "river" else "dro"
        ops.append(Op((command, "--config", str(path), "--out-dir", out), path, s, eps))
    return ops


OUTPUT_FILE = {"audit": "audit_report.json", "river": "spsa_manifest.json", "dro": "dro_manifest.json"}


def check(pf, workload: str, op: Op, rc: int, out_dir: Path) -> str | None:
    """None when the operation's output is correct, else the reason it is not."""
    expected_rc = 1 if workload == "audit" else 0  # every audit dataset violates
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    doc = json.loads((out_dir / OUTPUT_FILE[workload]).read_text())
    if workload == "audit":
        if doc["mm_garp"]:
            return "mm_garp passed a violating dataset"
        c = doc["certificate"]
        cert = pf.core.ParetoCertificate(
            np.asarray(c["u"]), np.asarray(c["lam"]), c["r"], c["alpha"]
        )
        if not cert.validates(pf.core.load_dataset(op.path)):
            return "certificate does not validate against the reloaded dataset"
        if abs(doc["garp_f_threshold"] - doc["pareto_gap"]) > GAP_AGREEMENT:
            return f"garp_f_threshold {doc['garp_f_threshold']} vs gap {doc['pareto_gap']}"
        return None
    if doc["seed"] != op.seed:
        return f"manifest seed {doc['seed']} is not the operation's seed {op.seed}"
    if workload == "river":
        if doc["final_loss"] is None or doc["final_loss"] > pf.spsa.STOP_TOL_DEFAULT:
            return f"final_loss {doc['final_loss']} above stop_tol"
        return None
    result = doc["results"].get(str(op.eps))
    if result is None or not result["certified"]:
        return f"radius {op.eps} not certified"
    return None
