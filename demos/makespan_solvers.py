#!/usr/bin/env python3
"""Compare the makespan solvers: list greedy, LPT, and exact branch and bound.

Greedy in increasing size order is what the deficiency analysis leans on:
on geometric instances its makespan has an exact closed form, and it never
exceeds (2 - 1/m) times the optimum.  LPT is the usual better heuristic but
still misses: {3,3,2,2,2} on two processors is the classic instance where
LPT builds 7 while the optimum pairs the threes for 6.
"""

from contractsched import (
    MakespanInstance,
    deficiency_upper_bound,
    exact_makespan,
    greedy_geometric_makespan,
    greedy_in_order,
    lpt_makespan,
)


def main() -> None:
    instance = MakespanInstance((3.0, 3.0, 2.0, 2.0, 2.0), 2)
    print("sizes {3,3,2,2,2} on m=2:")
    print(f"  greedy (given order): {greedy_in_order(instance).makespan}")
    print(f"  LPT:                  {lpt_makespan(instance).makespan}")
    exact = exact_makespan(instance)
    print(f"  exact:                {exact.makespan}  (loads {exact.loads})")
    print()

    b, n, m, k = 2.0, 5, 2, 0
    sizes = tuple(b ** (k + i) for i in range(n))
    greedy = greedy_in_order(MakespanInstance(sizes, m))
    print(f"geometric sizes {sizes} on m={m}:")
    print(f"  greedy makespan:     {greedy.makespan}")
    print(f"  closed form:         {greedy_geometric_makespan(b, n, m, k)}")
    print(f"  placement (job -> processor): {greedy.processor_of}  (i mod m pattern)")
    opt = exact_makespan(MakespanInstance(sizes, m)).makespan
    kappa = deficiency_upper_bound(n, m, b).params["kappa"]
    print(f"  exact:               {opt}")
    print(f"  sandwich: {kappa:.4f} * greedy = {kappa * greedy.makespan:.4f} <= exact <= greedy")


if __name__ == "__main__":
    main()
