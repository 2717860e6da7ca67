"""The command-line workflow end to end.

Drives the installed `pareto-forge` commands programmatically: generate a
dataset by playing the river game, audit it, run a short tuning trace, and a
small Monte-Carlo sweep.  Everything lands in a temporary directory and every
artifact carries a manifest with the config hash and seed.

Run:  python3 demos/05_cli_workflow.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from pareto_forge.cli import main as cli


def run(argv):
    print(f"$ pareto-forge {' '.join(argv)}")
    code = cli(argv)
    print(f"  -> exit {code}\n")
    return code


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "config.json"
        config.write_text(
            json.dumps(
                {
                    "game": {"T": 4, "seed": 7},
                    "spsa": {"max_iters": 3},
                    "monte_carlo": {"command": "spsa", "replications": 3},
                },
                indent=2,
            )
        )

        run(["generate", "--config", str(config), "--out-dir", str(out / "gen")])
        run(["audit", str(out / "gen" / "dataset.json"), "--out-dir", str(out / "audit")])
        # mc seeds its replications from monte_carlo.base_seed and rejects spsa.seed
        run(["spsa", "--config", str(config), "--seed", "7", "--out-dir", str(out / "spsa")])
        run(["mc", "--config", str(config), "--out-dir", str(out / "mc")])

        report = json.loads((out / "audit" / "audit_report.json").read_text())
        print("audit report highlights:")
        print(f"  combinatorial consistency: {report['mm_garp']}")
        print(f"  gap: {report['pareto_gap']:.2e}  (consistent: {report['consistent']})")
        manifest = json.loads((out / "mc" / "mc_manifest.json").read_text())
        print(f"monte-carlo summary: {manifest['summary']}")


if __name__ == "__main__":
    main()
