#!/usr/bin/env python3
"""Deficiency of exponential schedules on several processors.

For n problems on m processors, the round-robin exponential schedule with
the optimized base keeps the deficiency below 4 everywhere, and below 3.74
whenever n > m.  The empirical supremum of a materialized prefix (exact
makespan oracle per interruption window) always sits under the closed-form
bound, and the bound surface over (m, rho) peaks at m=2, rho=1.
"""

from contractsched import (
    ExponentialSpec,
    deficiency,
    deficiency_optimal_base,
    deficiency_upper_bound,
    exponential_schedule,
    figure2_deficiency_surface,
)


def main() -> None:
    print("n  m  base      empirical   bound")
    for n, m in [(1, 1), (2, 1), (4, 1), (3, 2), (5, 2), (4, 3), (6, 3)]:
        base = deficiency_optimal_base(n, m)
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=base))
        emp = deficiency(sched).value
        bound = deficiency_upper_bound(n, m, base).value
        print(f"{n}  {m}  {base:.6f}  {emp:.6f}   {bound:.6f}")
    print()

    surface = figure2_deficiency_surface()
    peak_m, peak_rho, peak = max(surface, key=lambda row: row[2])
    print(f"bound surface over m, rho in 1..64:")
    print(f"  max {peak:.9f} at m={peak_m}, rho={peak_rho}")
    print(f"  everything stays below 3.74 (n > m regime): max = {peak:.6f}")
    print(f"  large m, larger n: corner value {surface[-1][2]:.6f} (approaches 2)")


if __name__ == "__main__":
    main()
