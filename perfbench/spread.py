"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dro --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one after another, untraced, for BENCHMARK.json's
``run_seconds``) and prints, for each end-to-end metric of BENCHMARK.json, its
median and the distance between its first and third quartile as a share of the
median, next to the metric's bound. Exits 1 when a run fails or any spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        within = spread <= m["bound"]
        ok &= within
        print(f"{m['name']:12s} median {med:.5g} {m['unit']:4s} spread {spread:.3f} "
              f"bound {m['bound']} {'ok' if within else 'TOO WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
