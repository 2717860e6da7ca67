"""pareto-forge benchmark: one closed-loop client running CLI operations in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 36 --trace 0

``--trace 0`` runs operations back to back for ``--seconds`` seconds and
prints the end-to-end metrics. ``--trace 1`` runs a fixed number of operations
twice each, untraced and traced, and prints the per-layer metrics from the
traced calls. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Latencies are
CPU seconds scaled by a calibration kernel (see README.md). Inputs, program
outputs, spans and a stamped copy of the result go to ``.perfbench/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
CALIBRATION_REPS = 300
CALIBRATION_UNIT_S = 1e-3  # calibrated timings are CPU seconds on a machine where the kernel takes 1 ms
_CAL_VECTOR = np.linspace(0.0, 1.0, 64)
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it
# Printed but left out of the result line: fail_ratio is 0 on a clean run (the
# line carries failed/attempted), and op_tail_s spread up to 0.25 between runs.
PRINTED_ONLY = ("fail_ratio", "op_tail_s")
IMPORT_PROBE = "import time; t = time.process_time(); import pareto_forge.cli; print(time.process_time() - t)"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.POOL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import pareto_forge from this checkout's src/ and nowhere else."""
    if not (SRC / "pareto_forge" / "__init__.py").is_file():
        sys.exit(f"benchmark error: no package source at {SRC / 'pareto_forge'}")
    sys.path.insert(0, str(SRC))
    import pareto_forge

    for name in ("cli", "core", "lp", "rp", "game", "spsa", "dro", "experiments", "synthetic"):
        importlib.import_module(f"pareto_forge.{name}")
    # lp imports scipy.optimize (about 40 MB) on its first HiGHS fallback, which
    # some seeds hit and some do not. Importing it here keeps peak RSS from
    # depending on that, so peak_rss_mb cannot see when scipy.optimize loads.
    importlib.import_module("scipy.optimize")
    if Path(pareto_forge.__file__).resolve().parent != SRC / "pareto_forge":
        sys.exit(f"benchmark error: imported pareto_forge from {pareto_forge.__file__}")
    return pareto_forge


def import_seconds() -> float:
    """CPU seconds to import the CLI module in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.strip())


def set_up(pf, workload: str, seed: int, work: Path):
    """Return (calibrated set-up seconds, ops).

    Set-up is the median import time plus the median time to generate and
    write the inputs, each over SETUP_REPEATS tries; the last inputs are kept.
    """
    imports, generations, ops = [], [], None
    for rep in range(SETUP_REPEATS):
        imports.append(calibrated(import_seconds(), kernel_s()))
        in_dir = work / f"inputs{rep}"
        in_dir.mkdir()
        kernel = kernel_s()
        t0 = cpu_s()
        ops = workloads.make_ops(pf, workload, seed, in_dir, work / "out")
        generations.append(calibrated(cpu_s() - t0, kernel))
        if rep:
            shutil.rmtree(work / f"inputs{rep - 1}")
    return statistics.median(imports) + statistics.median(generations), ops


class Runner:
    """Runs operations one after another and checks each one's output."""

    def __init__(self, pf, workload: str, out_dir: Path):
        self.pf, self.workload, self.out_dir = pf, workload, out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.output = out_dir / workloads.OUTPUT_FILE[workload]

    def run(self, op, recorder=None, op_id: int = -1) -> tuple[float, float]:
        """Run one operation, traced when a recorder is given; return (wall, CPU) seconds."""
        self.output.unlink(missing_ok=True)
        sink = io.StringIO()
        rc, err = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if recorder is not None:
                recorder.op_id = op_id
            t0, c0 = time.perf_counter(), cpu_s()
            try:
                rc = self.pf.cli.main(list(op.argv))
            except Exception as exc:  # an operation that raises has failed
                err = f"raised {type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - t0, cpu_s() - c0
                if recorder is not None:
                    recorder.op_id = -1
        self.attempted += 1
        if err is None:
            try:
                err = workloads.check(self.pf, self.workload, op, rc, self.out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
                err = f"output check raised {type(exc).__name__}: {exc}"
            if err and rc == 2:
                err += f" ({sink.getvalue().strip()[-200:]})"
        if err:
            self.failures.append(f"{op.path.name}: {err}")
        return elapsed


def cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_s() -> float:
    """CPU seconds one fixed Python-and-numpy kernel takes at the machine's current speed."""
    t0 = time.process_time()
    total = 0.0
    for i in range(CALIBRATION_REPS):
        total += float(np.maximum(_CAL_VECTOR * 0.5, _CAL_VECTOR - 0.25).sum()) + i * i % 7
    return time.process_time() - t0


def kernel_s() -> float:
    return statistics.median(calibration_s() for _ in range(9))


def calibrated(seconds: float, kernel: float) -> float:
    """Seconds scaled to a machine on which the calibration kernel takes CALIBRATION_UNIT_S."""
    return seconds * CALIBRATION_UNIT_S / kernel


def latency(durations) -> tuple[dict, str]:
    ranked = sorted(durations)
    n = len(ranked)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    metrics = {
        "op_p50_s": (statistics.median(ranked), "s"),
        "op_tail_s": (ranked[tail_index], "s"),
        "ops_per_s": (n / sum(ranked), "1/s"),
    }
    return metrics, f"p{100.0 * (tail_index + 1) / n:.1f} of {n} operations, {n - tail_index - 1} beyond it"


def end_to_end(runner: Runner, ops, seconds: float) -> tuple[dict, dict]:
    """Timed closed loop with latencies in calibrated seconds.

    The host's speed drifts by up to 1.8x in phases of seconds, and it takes
    the CPU away for up to 0.2 s at a time. So an operation's latency is its
    CPU time, scaled by the median time of a calibration kernel run before each
    of the five operations around it. Wall times and plain CPU times are
    reported next to it.
    """
    wall, cpu, kernel = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kernel.append(calibration_s())
        w, c = runner.run(ops[len(wall) % len(ops)])
        wall.append(w)
        cpu.append(c)
    scaled = [calibrated(c, statistics.median(kernel[max(i - 2, 0) : i + 3])) for i, c in enumerate(cpu)]
    metrics, tail_note = latency(scaled)
    metrics["fail_ratio"] = (len(runner.failures) / runner.attempted, "ratio")
    wall_metrics, wall_tail_note = latency(wall)
    cpu_metrics, _ = latency(cpu)
    notes = {
        "op_tail_s": tail_note,
        "fail_ratio": f"{len(runner.failures)} of {runner.attempted}",
        "calibration kernel": f"median {statistics.median(kernel) * 1e3:.4f} ms",
    }
    for name, (value, unit) in wall_metrics.items():
        notes[f"wall {name}"] = f"{value:.6g} {unit}"
    notes["wall op_tail_s"] += f"  ({wall_tail_note})"
    for name, (value, unit) in cpu_metrics.items():
        notes[f"cpu {name}"] = f"{value:.6g} {unit}"
    return metrics, notes


def traced(pf, runner: Runner, ops, work: Path) -> tuple[dict, dict]:
    """Each of the first TRACE_OPS operations runs untraced, then traced."""
    recorder = spans.SpanRecorder(pf)
    plain = traced_s = 0.0
    count = workloads.TRACE_OPS[runner.workload]
    for op_id in range(count):
        op = ops[op_id % len(ops)]
        plain += runner.run(op)[1]
        recorder.install()
        try:
            traced_s += runner.run(op, recorder, op_id)[1]
        finally:
            recorder.uninstall()
        recorder.end_op()
    recorder.save(work / "spans.npz")
    values = recorder.layer_metrics()
    values["trace.overhead_ratio"] = traced_s / plain  # CPU time; = untraced ops/s over traced ops/s
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    metrics = {name: (values[name], units[name]) for name, _, _ in spans.LAYER_METRICS}
    notes = {f"{name} base": base for name, base in recorder.ratio_bases().items()}
    notes["traced operations"] = count
    return metrics, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def stamp(args, attempted: int) -> dict:
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": attempted,
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    pf = import_package()
    rss_import = rss_mb()
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)

    setup_s, ops = set_up(pf, args.workload, args.seed, work)
    rss_setup = rss_mb()
    runner = Runner(pf, args.workload, work / "out")
    if args.trace:
        metrics, notes = traced(pf, runner, ops, work)
    else:
        metrics, notes = end_to_end(runner, ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (rss_mb(), "MB")
        # peak RSS up to each point, so the program's growth during operations shows
        notes["peak_rss_mb"] = f"{rss_import:.1f} MB after import, {rss_setup:.1f} MB after set-up"
    wrapped = runner.attempted > len(ops)
    notes["input pool"] = f"{len(ops)} inputs, {'wrapped around' if wrapped else 'not wrapped'}"

    info = stamp(args, runner.attempted)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:34s} {note}")
    for failure in runner.failures:
        print(f"failed: {failure}")
    print("stamp: " + json.dumps(info, sort_keys=True))

    reported = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "stamp": info, "notes": notes, "failures": runner.failures}, indent=2, sort_keys=True)
    )
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
