"""Span recorder for the traced benchmark pass.

The recorder replaces the public entry points of each package module (and the
names other modules bound to them with ``from ... import``) by wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in memory until the pass ends; ``save`` writes them out and
``layer_metrics`` folds them into the per-layer numbers. Nothing is patched
outside ``install``/``uninstall``, so untraced runs execute the program as is.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name). Every binding of one function shares a
# span name, so a call is recorded once whichever binding it goes through.
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("core", "load_dataset", "core.load_dataset"),
    ("cli", "load_dataset", "core.load_dataset"),
    ("core", "RPDataset.__post_init__", "core.RPDataset"),
    ("lp", "feasible", "lp.feasible"),
    ("rp", "pareto_gap", "rp.pareto_gap"),
    ("cli", "pareto_gap", "rp.pareto_gap"),
    ("rp", "mm_garp", "rp.mm_garp"),
    ("cli", "mm_garp", "rp.mm_garp"),
    ("rp", "garp_f_threshold", "rp.garp_f_threshold"),
    ("cli", "garp_f_threshold", "rp.garp_f_threshold"),
    ("rp", "ccei_scalar", "rp.ccei_scalar"),
    ("cli", "ccei_scalar", "rp.ccei_scalar"),
    ("rp", "_closure", "rp.closure"),
    ("game", "collect_dataset", "game.collect_dataset"),
    ("cli", "collect_dataset", "game.collect_dataset"),
    ("experiments", "collect_dataset", "game.collect_dataset"),
    ("game", "relaxation_nash", "game.relaxation_nash"),
    ("game", "best_deviation", "game.best_deviation"),
    ("game", "AgentFeasibleSet.project", "game.project"),
    ("spsa", "run_mechanism_design", "spsa.run_mechanism_design"),
    ("experiments", "run_mechanism_design", "spsa.run_mechanism_design"),
    ("spsa", "spsa_step", "spsa.step"),
    ("experiments", "river_loss", "spsa.loss"),
    ("dro", "exchange_loop", "dro.exchange_loop"),
    ("experiments", "exchange_loop", "dro.exchange_loop"),
    ("dro", "master_solve", "dro.master_solve"),
    ("dro", "_cv_all", "dro.cv_all"),
)

# (metric name, unit, better); the order is the order of the printed report.
LAYER_METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("core.load_dataset.s", "s", "lower"),
    ("core.RPDataset.calls", "count", "lower"),
    ("core.RPDataset.s", "s", "lower"),
    ("lp.feasible.calls", "count", "lower"),
    ("lp.feasible.s", "s", "lower"),
    ("lp.feasible.rows", "count", "lower"),
    ("lp.feasible.errors", "count", "lower"),
    ("lp.simplex.numerical", "count", "lower"),
    ("rp.pareto_gap.calls", "count", "lower"),
    ("rp.pareto_gap.self_s", "s", "lower"),
    ("rp.pareto_gap.bisection_iters", "count", "lower"),
    ("rp.mm_garp.s", "s", "lower"),
    ("rp.garp_f_threshold.s", "s", "lower"),
    ("rp.ccei_scalar.s", "s", "lower"),
    ("rp.closure.calls", "count", "lower"),
    ("rp.closure.s", "s", "lower"),
    ("rp.certificate.valid_ratio", "ratio", "higher"),
    ("game.collect_dataset.s", "s", "lower"),
    ("game.relaxation_nash.calls", "count", "lower"),
    ("game.relaxation_nash.s", "s", "lower"),
    ("game.nash.iterations", "count", "lower"),
    ("game.nash.residual_max", "value", "lower"),
    ("game.best_deviation.calls", "count", "lower"),
    ("game.best_deviation.s", "s", "lower"),
    ("game.project.calls", "count", "lower"),
    ("game.project.s", "s", "lower"),
    ("spsa.iterations", "count", "lower"),
    ("spsa.step.calls", "count", "lower"),
    ("spsa.loss.calls", "count", "lower"),
    ("spsa.loss.s", "s", "lower"),
    ("dro.exchange_loop.s", "s", "lower"),
    ("dro.iterations.eps_0p001", "count", "lower"),
    ("dro.iterations.eps_1", "count", "lower"),
    ("dro.iterations.eps_10", "count", "lower"),
    ("dro.certified_ratio", "ratio", "higher"),
    ("dro.master_solve.calls", "count", "lower"),
    ("dro.master_solve.s", "s", "lower"),
    ("dro.cv_all.calls", "count", "lower"),
    ("dro.cv_all.s", "s", "lower"),
    ("dro.cuts.total", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Metrics that must repeat exactly for a given seed and operation count.
EXACT_METRICS = tuple(
    name
    for name, unit, _ in LAYER_METRICS
    if unit != "s" and name != "trace.overhead_ratio"
)

_EPS_TAGS = {0.001: "eps_0p001", 1.0: "eps_1", 10.0: "eps_10"}


def _resolve(module, path):
    *owners, attr = path.split(".")
    obj = module
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class SpanRecorder:
    """Records spans and layer counters while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent index, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._pending_certs: list = []
        self._saved: list = []

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "lp.feasible": self._after_feasible,
            "rp.pareto_gap": self._after_gap,
            "game.relaxation_nash": self._after_nash,
            "spsa.run_mechanism_design": self._after_tuning,
            "dro.exchange_loop": self._after_exchange,
        }
        wrappers: dict[int, object] = {}
        for mod_name, path, span_name in ENTRY_POINTS:
            module = getattr(self.package, mod_name)
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, span_name, hooks.get(span_name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])
        # NUMERICAL verdicts of the dense simplex, each one a silent fallback
        simplex = self.package.lp.SimplexSolver
        solve = simplex.solve
        numerical = self.package.lp.Status.NUMERICAL
        counts = self.counts

        def counted_solve(solver, lp_problem):
            res = solve(solver, lp_problem)
            if res.status is numerical:
                counts["lp.simplex.numerical"] += 1
            return res

        self._saved.append((simplex, "solve", solve))
        simplex.solve = counted_solve

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span_name, after):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op_id < 0:  # benchmark's own calls between operations
                return fn(*args, **kwargs)
            row = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[2] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, None, failed=True)
                raise
            row[2] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, result, failed=False)
            return result

        return wrapper

    # --- counters read from arguments and results -------------------------

    def _after_feasible(self, args, kwargs, result, failed):
        A = args[0] if args else kwargs["A"]
        self.counts["lp.feasible.rows"] += np.shape(A)[0]
        if failed:
            self.counts["lp.feasible.errors"] += 1

    def _after_gap(self, args, kwargs, result, failed):
        if result is None:
            return
        self.counts["rp.pareto_gap.bisection_iters"] += result.bisection_iters
        # validated after the operation, so the check's cost lands in no span
        self._pending_certs.append((args[0] if args else kwargs["d"], result.certificate))

    def _after_nash(self, args, kwargs, result, failed):
        if result is None:
            return
        self.counts["game.nash.iterations"] += result.iterations
        key = "game.nash.residual_max"
        self.counts[key] = max(self.counts[key], float(result.ni_residual))

    def _after_tuning(self, args, kwargs, result, failed):
        if result is not None:
            self.counts["spsa.iterations"] += len(result.records)

    def _after_exchange(self, args, kwargs, result, failed):
        if result is None:
            return
        _psi, state, trace = result
        eps = float(kwargs["eps"] if "eps" in kwargs else args[1])
        self.counts["dro.iterations." + _EPS_TAGS[eps]] += state.iteration
        self.counts["dro.runs"] += 1
        self.counts["dro.certified"] += bool(state.certified)
        self.counts["dro.cuts.total"] += trace[-1]["n_cuts_total"] if trace else 0

    def end_op(self) -> None:
        """Validate the certificates the operation produced (outside any span)."""
        for d, cert in self._pending_certs:
            self.counts["rp.certificates"] += 1
            self.counts["rp.certificates_valid"] += bool(cert.validates(d))
        self._pending_certs.clear()

    # --- reduction --------------------------------------------------------

    def _times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.spans)
        dur = np.array([row[2] - row[1] for row in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for row, d in zip(self.spans, dur):
            if row[3] >= 0:
                child[row[3]] += d
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for idx, row in enumerate(self.spans):
            name = self.names[row[0]]
            calls[name] += 1
            self_s[name] += dur[idx] - child[idx]
            # inclusive time counts a name once when it nests inside itself
            parent = row[3]
            while parent >= 0 and self.spans[parent][0] != row[0]:
                parent = self.spans[parent][3]
            if parent < 0:
                incl[name] += dur[idx]
        return calls, incl, self_s

    def layer_metrics(self) -> dict[str, float]:
        calls, incl, self_s = self._times()
        c = self.counts
        out: dict[str, float] = {}
        for name, _unit, _better in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = float(calls.get(base, 0))
            elif kind == "s":
                out[name] = float(incl.get(base, 0.0))
            elif kind == "self_s":
                out[name] = float(self_s.get(base, 0.0))
            else:
                out[name] = float(c.get(name, 0.0))
        out["rp.certificate.valid_ratio"] = _ratio(c["rp.certificates_valid"], c["rp.certificates"])
        out["dro.certified_ratio"] = _ratio(c["dro.certified"], c["dro.runs"])
        return out

    def ratio_bases(self) -> dict[str, float]:
        return {
            "rp.certificate.valid_ratio": self.counts["rp.certificates"],
            "dro.certified_ratio": self.counts["dro.runs"],
        }

    def save(self, path) -> None:
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=rows[:, 0].astype(np.int32),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
            op_id=rows[:, 4].astype(np.int32),
        )


def _ratio(num: float, den: float) -> float:
    """num/den, reported as 0 when nothing was attempted (the base is printed)."""
    return float(num / den) if den else 0.0
