#!/usr/bin/env python3
"""Step through the deficiency-safe schedule rewrites on one processor.

`normalize` redirects contracts so a least-served problem always runs next;
`reduce_consecutive_pairs` shortens runs of three or more same-problem
contracts (two problems).  Every step records the exact deficiency before
and after, and it never goes up.  There is one honest exception worth
seeing: a run whose every shortening would increase the deficiency is kept
and reported instead.
"""

from contractsched import (
    Contract,
    Schedule,
    deficiency_value_m1,
    normalize,
    reduce_consecutive_pairs,
)


def show_trace(label, trace):
    print(label)
    print(f"  input : {[(c.problem, c.length) for c in trace.input.contracts]}")
    for step in trace.steps:
        extra = f" problems={step.problems}" if step.problems else ""
        print(
            f"  step  : {step.kind} at index {step.index} (t={step.time:g}){extra}"
            f"  deficiency {step.deficiency_before:.6f} -> {step.deficiency_after:.6f}"
        )
    for outcome in trace.run_outcomes:
        print(f"  run   : start {outcome.start_index}, length {outcome.length}: {outcome.action}")
    print(f"  output: {[(c.problem, c.length) for c in trace.output.contracts]}")
    print()


def sched(rows):
    return Schedule(2, 1, tuple(Contract(p, 0, length) for p, length in rows))


def main() -> None:
    # two contracts in a row for problem 0 while problem 1 starves
    show_trace("normalize a misassigned schedule:", normalize(sched([(0, 1.0), (0, 2.0), (1, 4.0)])))

    # a run of four: two removals shorten it to a pair
    run4 = sched([(0, 1.0), (1, 10.0), (0, 2.0), (0, 3.0), (0, 4.0), (0, 5.0)])
    show_trace("shorten a run of four:", reduce_consecutive_pairs(run4))

    # the honest exception: both candidate removals would raise the deficiency
    stuck = sched([(0, 0.1984), (1, 7.906), (0, 1.3881), (0, 6.3709), (0, 7.8351)])
    print("a run that must be kept:")
    base = deficiency_value_m1(stuck)
    contracts = list(stuck.contracts)
    for idx in (2, 3):
        candidate = contracts[:idx] + contracts[idx + 1 :]
        after = deficiency_value_m1(Schedule(2, 1, tuple(candidate)))
        print(f"  removing index {idx} would move deficiency {base:.6f} -> {after:.6f}")
    show_trace("so the transform reports it instead:", reduce_consecutive_pairs(stuck))


if __name__ == "__main__":
    main()
