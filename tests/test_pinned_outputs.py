"""Pinned outputs of the ``pareto-forge`` commands on a fixed input corpus.

Every command of :data:`CORPUS` runs through ``cli.main`` in process.  Its exit
code, the sha256 of each file it writes and the values that matter (gaps, final
losses, iteration counts, certified flags, each radius's last master objective)
are compared with ``tests/data/pinned_outputs.json``.  Floats are stored as hex
strings, so a failing run names the value that moved, not only a hash.

Bytes depend on the numerical libraries, so the file records the stamp it was
pinned under.  Under that stamp, the record must match exactly.  Under any other
stamp, exit codes and verdicts (bools) must match exactly and every number
within ``REL_TOL`` (``ABS_TOL`` near zero).

To re-pin after a change that moves outputs on purpose, run
``PYTHONPATH=src python tests/test_pinned_outputs.py`` and state the change.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from pareto_forge.cli import main
from pareto_forge.core import save_dataset
from pareto_forge.synthetic import consistent_dataset, violating_dataset

PINNED = Path(__file__).parent / "data" / "pinned_outputs.json"
REL_TOL = 1e-4
ABS_TOL = 1e-9

# the settings of the audit, river and dro benchmark workloads
RIVER = {"spsa": {"T": 10, "max_iters": 30}, "game": {"N": 1, "jitter": 0.0}}
DRO = {"T": 5, "M": 3, "N": 5, "jitter": 0.05, "delta": 0.1}

# name -> (command, input): a dataset for audit, else a config
CORPUS = {
    **{
        f"audit_T{T}_seed{seed}": ("audit", violating_dataset(T, 3, 3, seed=seed))
        for T, seed in ((8, 0), (8, 1), (8, 2), (14, 3), (2, 4))
    },
    "audit_consistent_T1": ("audit", consistent_dataset(1, 1, 3, seed=0)),
    **{
        f"spsa_river_seed{seed}": ("spsa", {**RIVER, "spsa": {**RIVER["spsa"], "seed": seed}})
        for seed in (0, 1, 2)
    },
    **{
        f"dro_eps{eps}_seed{seed}": ("dro", {"dro": {**DRO, "eps": [eps], "seed": seed}})
        # one ulp in a descent step moves the outputs of seeds 9 and 1, not of every seed
        for eps, seed in ((0.001, 0), (0.001, 9), (1.0, 1), (10.0, 3))
    },
    "dro_T1_M1_N1": ("dro", {"dro": {"T": 1, "M": 1, "N": 1, "eps": [0.001, 1.0]}}),
    "generate_ci": ("generate", {"game": {"T": 4, "seed": 2}}),
    "mc_spsa_ci": ("mc", {"monte_carlo": {"command": "spsa", "replications": 2}, "spsa": {"T": 5, "max_iters": 3}}),
    "mc_dro_ci": (
        "mc",
        {"monte_carlo": {"command": "dro", "replications": 2}, "dro": {"T": 3, "M": 2, "N": 2, "eps": [0.001, 1.0]}},
    ),
}


def stamp() -> dict:
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _hex(x: float) -> str:
    return float(x).hex()


def _values(command: str, out: Path) -> dict:
    """The values that matter of one run: bools are verdicts, ints counts, str hex floats."""
    if command == "audit":
        r = json.loads((out / "audit_report.json").read_text())
        return {
            "gap": _hex(r["pareto_gap"]),
            "garp_f_threshold": _hex(r["garp_f_threshold"]),
            "mm_garp": r["mm_garp"],
            "consistent": r["consistent"],
        }
    if command == "spsa":
        m = json.loads((out / "spsa_manifest.json").read_text())
        return {"final_loss": _hex(m["final_loss"]), "iterations": m["iterations"]}
    if command == "dro":
        values = {}
        for eps, res in json.loads((out / "dro_manifest.json").read_text())["results"].items():
            with open(out / f"dro_trace_eps_{eps.replace('.', 'p')}.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            values[f"eps_{eps}/master_objective"] = _hex(float(last["master_objective"]))
            values[f"eps_{eps}/iterations"] = res["iterations"]
            values[f"eps_{eps}/certified"] = res["certified"]
        return values
    if command == "mc":
        values = {}
        for name in ("mc_spsa.csv", "mc_dro.csv"):
            if (out / name).exists():
                with open(out / name, newline="") as fh:
                    for row in csv.DictReader(fh):
                        key = f"rep_{row['replication']}" + (f"/eps_{row['eps']}" if "eps" in row else "")
                        values[f"{key}/iterations"] = int(row["iterations"])
                        if "final_loss" in row:
                            values[f"{key}/final_loss"] = _hex(float(row["final_loss"]))
                        else:
                            values[f"{key}/certified"] = row["certified"] == "True"
        return values
    return {}


def run_corpus(tmp: Path) -> dict:
    """Each corpus command's exit code, output sha256 values and values that matter."""
    records = {}
    for name, (command, source) in CORPUS.items():
        path, out = tmp / f"{name}.json", tmp / name
        if command == "audit":
            save_dataset(source, path)
            argv = ["audit", str(path)]
        else:
            path.write_text(json.dumps(source, sort_keys=True))
            argv = [command, "--config", str(path)]
        code = main([*argv, "--out-dir", str(out)])
        files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
        records[name] = {"exit": code, "files": files, "values": _values(command, out)}
    return records


def _close(pinned, got) -> bool:
    if type(pinned) is bool or type(got) is bool:
        return pinned is got
    if isinstance(pinned, str):
        pinned, got = float.fromhex(pinned), float.fromhex(got)
    return math.isclose(pinned, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("pinned"))


@pytest.fixture(scope="module")
def pin():
    return json.loads(PINNED.read_text())


def test_the_corpus_is_the_pinned_one(pin):
    assert sorted(pin["records"]) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_the_pin(pin, runs, name):
    pinned, got = pin["records"][name], runs[name]
    assert got["exit"] == pinned["exit"]
    assert sorted(got["values"]) == sorted(pinned["values"])
    moved = {
        key: (pinned["values"][key], value)
        for key, value in got["values"].items()
        if not _close(pinned["values"][key], value)
    }
    assert not moved, f"values moved beyond the tolerance: {moved}"
    if pin["stamp"] == stamp():
        moved = {key: (pinned["values"][key], v) for key, v in got["values"].items() if v != pinned["values"][key]}
        assert not moved, f"values moved under the pinned stamp: {moved}"
        assert got["files"] == pinned["files"]
    else:
        assert sorted(got["files"]) == sorted(pinned["files"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"stamp": stamp(), "records": run_corpus(Path(tmp))}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
