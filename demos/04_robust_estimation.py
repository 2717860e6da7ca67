"""Distributionally robust gap estimation with finite samples.

When strategies are only observed through sample clouds, the gap is estimated
against the worst distribution within a Wasserstein-style ball around the
samples.  The semi-infinite program is solved by the exchange method; this
demo traces the loop for several ball radii and evaluates the robust gap of
the returned utility numbers.

Run:  python3 demos/04_robust_estimation.py
"""

from __future__ import annotations

from pareto_forge.dro import DROConfig, exchange_loop, robust_gap
from pareto_forge.synthetic import dro_instance


def main():
    d = dro_instance(T=5, M=3, N=5, jitter=0.05, seed=0)
    print(f"instance: T={d.T}, M={d.M}, k={d.k}, N=5 samples per strategy\n")
    cfg = DROConfig(seed=0)  # λ box [1, 10]
    delta = 0.1

    for eps in (0.001, 1.0, 10.0):
        psi, state, trace = exchange_loop(d, eps=eps, delta=delta, cfg=cfg)
        print(f"radius eps = {eps}:")
        for row in trace:
            print(
                f"  iter {row['iter']}: max violation {row['max_cv']:.4f}, "
                f"master objective {row['master_objective']:.4f}, "
                f"{row['n_cuts_total']} cuts"
            )
        print(f"  certified: {state.certified}")
        print(f"  robust gap at eps=0.05 for the returned psi: "
              f"{robust_gap(psi, d, eps=0.05):.4f}\n")

    print("the master objective trades the per-sample worst cases against the")
    print("transport penalty; once no scenario violates the cuts by more than")
    print("delta, the incumbent utility numbers are certified.")


if __name__ == "__main__":
    main()
