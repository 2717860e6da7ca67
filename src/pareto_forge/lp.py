"""Reference LP solver: HiGHS's dual simplex with verified verdicts.

Solves min c'x s.t. A x <= b with per-variable bounds through
``scipy.optimize.linprog(method="highs-ds")``.  A point HiGHS calls optimal is
checked against the original rows and bounds before it is reported OPTIMAL;
one that fails the check is reported NUMERICAL, and :func:`feasible` raises on
it.

No command solves an LP: ``rp`` builds its gap certificates from the
revealed-preference closure.  The tests cross-check those verdicts against
this solver, and the benchmark harness imports and instruments it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

TOL_LP = 1e-7


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  A x <= b,  lower <= x <= upper (entries may be +-inf)."""

    c: NDArray[np.float64]
    A: NDArray[np.float64]
    b: NDArray[np.float64]
    lower: NDArray[np.float64]
    upper: NDArray[np.float64]

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float).reshape(-1, c.size) if np.size(self.A) else np.zeros((0, c.size))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if A.shape != (b.size, c.size) or lo.shape != c.shape or hi.shape != c.shape:
            raise ValueError("inconsistent LP dimensions")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        for name, arr in (("c", c), ("A", A), ("b", b), ("lower", lo), ("upper", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LPResult:
    status: Status
    x: NDArray[np.float64] | None = None
    objective: float | None = None


# linprog status codes: 0 optimal, 2 infeasible, 3 unbounded; the rest
# (iteration limit, numerical trouble) are numerical failures
_STATUS = {2: Status.INFEASIBLE, 3: Status.UNBOUNDED}


class SimplexSolver:
    """HiGHS dual simplex (``scipy.optimize.linprog``, method ``highs-ds``)."""

    def solve(self, lp: LinearProgram) -> LPResult:
        # imported here: scipy.optimize takes about three times as long to
        # import as the whole package
        from scipy.optimize import linprog

        res = linprog(
            lp.c,
            A_ub=lp.A if lp.A.size else None,
            b_ub=lp.b if lp.b.size else None,
            bounds=np.column_stack([lp.lower, lp.upper]),
            method="highs-ds",
        )
        if res.status != 0:
            return LPResult(_STATUS.get(res.status, Status.NUMERICAL))
        x = np.asarray(res.x, dtype=float)
        if not _verified_feasible(lp, x):
            return LPResult(Status.NUMERICAL)
        return LPResult(Status.OPTIMAL, x, float(lp.c @ x))


def _verified_feasible(lp: LinearProgram, x) -> bool:
    """Check a candidate point against the original constraints and bounds.

    Applied before a result may be reported OPTIMAL: never a wrong OPTIMAL.
    """
    resid_ok = lp.A.size == 0 or (lp.A @ x - lp.b).max() <= 10 * TOL_LP
    bound_ok = np.all(x >= lp.lower - 10 * TOL_LP) and np.all(x <= lp.upper + 10 * TOL_LP)
    return bool(resid_ok and bound_ok)


_SOLVER = SimplexSolver()


def solve(lp: LinearProgram) -> LPResult:
    return _SOLVER.solve(lp)


def feasible(A, b, lower, upper) -> tuple[bool, NDArray[np.float64] | None]:
    """Feasibility of A x <= b within bounds; returns (verdict, witness).

    Any other verdict (NUMERICAL) raises RuntimeError naming it.
    """
    lower = np.asarray(lower, dtype=float)
    res = solve(LinearProgram(np.zeros(lower.size), A, b, lower, upper))
    if res.status is Status.OPTIMAL:
        return True, res.x
    if res.status is Status.INFEASIBLE:
        return False, None
    raise RuntimeError(f"LP backend failure: {res.status.value}")
