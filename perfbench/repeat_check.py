"""Check that two traced runs at one seed give identical per-layer counts.

    python3 perfbench/repeat_check.py --workload audit --seed 1

Runs ``run.py --trace 1`` twice with the same arguments and compares every
per-layer metric that is not a time: calls, LP rows and errors, bisection,
Nash and exchange iterations, cuts and the certificate ratios. Prints each
mismatch and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

# run.py requires --seconds, but the traced pass runs a fixed operation count
TRACE_SECONDS = "1"


def traced_metrics(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", TRACE_SECONDS, "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    first = traced_metrics(args.workload, args.seed)
    second = traced_metrics(args.workload, args.seed)
    mismatched = [n for n in spans.EXACT_METRICS if first[n]["value"] != second[n]["value"]]
    for name in mismatched:
        print(f"{name}: {first[name]['value']} then {second[name]['value']}")
    print(f"{args.workload} seed {args.seed}: {len(spans.EXACT_METRICS) - len(mismatched)} of "
          f"{len(spans.EXACT_METRICS)} counts repeat exactly")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
