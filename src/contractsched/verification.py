"""Named verification checks: the acceptance criteria and property suites.

Each check is a pure function of the seed returning a CheckResult, with its
trial counts and tolerances written in its body; the CLI `verify` command and
the acceptance test module both run ``ALL_CHECKS``, so there is one source of
truth for what "correct" means.  Randomized suites draw from a seeded
generator and are reproducible byte for byte.

The independent oracles the checks compare against live here too: the
scaling bisection (``scaling_oracle``, ``deficiency_bruteforce_oracle``),
which never evaluates t / OPT, and the exhaustive makespan enumeration.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from functools import partial
from typing import Callable, Sequence

from . import bounds, generators, metrics, transforms
from .core import Schedule, _length, _Record, _split, critical_times, simulate, snapshots_before
from .generators import ExponentialSpec, acceleration_optimal_base, deficiency_optimal_base, exponential_schedule
from .makespan import MakespanInstance, exact_makespan, greedy_in_order

# (b, n, m, k): the geometric instances b**k, ..., b**(n+k-1) on m processors
GEOMETRIC_GRID = tuple(itertools.product((1.1, 1.5, 2.0, 3.0), range(1, 9), range(1, 5), range(0, 4)))

# Relative width at which ``scaling_oracle`` stops bisecting, and the largest
# schedules ``deficiency_bruteforce_oracle`` accepts.
ORACLE_REL_TOL = 1e-13
ORACLE_MAX_PROBLEMS = 10
ORACLE_MAX_PROCESSORS = 3


class CheckResult(_Record):
    """The outcome of one check: str id and description, bool passed, str details, float seconds."""

    __slots__ = _fields = ("check_id", "description", "passed", "details", "seconds")


# every check in definition order; ``_check`` appends each one
ALL_CHECKS: list[Callable[[int], CheckResult]] = []


def _check(check_id: str, description: str, limit_seconds: float | None = None):
    def wrap(fn: Callable[[int], tuple[bool, str]]):
        def run(seed: int) -> CheckResult:
            start = time.perf_counter()
            passed, details = fn(seed)
            elapsed = time.perf_counter() - start
            if limit_seconds is not None and elapsed > limit_seconds:
                passed = False
                details += f"; exceeded runtime limit of {limit_seconds:g}s ({elapsed:.2f}s)"
            return CheckResult(check_id, description, passed, details, elapsed)

        run.check_id = check_id
        run.description = description
        ALL_CHECKS.append(run)
        return run

    return wrap


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def random_schedule(rng: random.Random, n: int, m: int, k: int, permutation_prefix: bool = False) -> Schedule:
    """A random schedule of k contracts; optionally serving every problem once first."""
    problems: list[int] = []
    if permutation_prefix:
        head = list(range(n))
        rng.shuffle(head)
        problems.extend(head)
    while len(problems) < k:
        problems.append(rng.randrange(n))
    return Schedule(n, m, [(p, rng.randrange(m), rng.uniform(0.1, 10.0)) for p in problems[:k]])


def _enumerated_makespan(sizes: tuple[float, ...], m: int) -> float:
    """OPT by exhaustive enumeration: the least max load over every map of the jobs to m processors.

    The maps are walked depth first with job 0 pinned to processor 0; a
    relabelling of the processors permutes the loads and leaves their
    maximum alone, so the m^(n-1) maps left cover every makespan.  Each
    job's size is added to its processor's load in job-index order and the
    old load restored on return, so every leaf's loads are the float sums
    of a plain loop over all m^n maps.  No bound cuts a branch and nothing
    is shared with ``makespan``, so this stays an independent reference.
    """
    n = len(sizes)
    loads = [0.0] * m
    loads[0] = sizes[0]

    def walk(job: int) -> float:
        if job == n:
            return max(loads)
        size = sizes[job]
        best = math.inf
        for p in range(m):
            load = loads[p]
            loads[p] = load + size
            best = min(best, walk(job + 1))
            loads[p] = load
        return best

    return walk(1)


def scaling_oracle(values: Sequence[float], m: int, t: float) -> float:
    """Largest d such that the d-scaled value set packs into m processors by time t.

    Bisection on d with exact-makespan feasibility.  Because the makespan
    scales linearly, this equals t / OPT(values); the two routes are kept
    separate so each can check the other.  ``MakespanInstance`` checks the
    values by the job-size rule and m by the count rule once, before it.
    """
    t = _length(t, "interruption time")
    values = MakespanInstance(values, m).sizes
    lo = t / sum(values)  # always feasible: OPT(lo * values) <= lo * sum(values) = t
    hi = (t / max(values)) * (1.0 + 1e-6)  # infeasible: the largest scaled job alone exceeds t

    def feasible(d: float) -> bool:
        span = exact_makespan(MakespanInstance([d * v for v in values], m)).makespan
        return span <= t * (1.0 + 1e-12)

    if feasible(hi):  # numerical slack only; hi is infeasible in exact arithmetic
        return hi
    for _ in range(200):
        if hi - lo <= ORACLE_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def deficiency_bruteforce_oracle(schedule: Schedule, t: float) -> float:
    """Deficiency at time t via the scaling characterization, as an independent check.

    The best offline schedule scales the snapshot uniformly by the largest
    feasible factor d, so def(X, t) = d; computed by bisection rather than by
    the t/OPT formula.  Guarded to small instances.
    """
    if schedule.n_problems > ORACLE_MAX_PROBLEMS or schedule.m_processors > ORACLE_MAX_PROCESSORS:
        raise ValueError(
            f"oracle guard: needs n <= {ORACLE_MAX_PROBLEMS} and m <= {ORACLE_MAX_PROCESSORS}, "
            f"got n={schedule.n_problems}, m={schedule.m_processors}"
        )
    (longest,) = snapshots_before(schedule, [t])
    snap = tuple(sorted(longest))
    if snap[0] <= 0.0:
        return math.inf
    return scaling_oracle(snap, schedule.m_processors, t)


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


@_check("C01", "doubling schedule (n=m=1, b=2): deficiency and acceleration ratio reach 4", limit_seconds=1.0)
def check_doubling_schedule(seed: int) -> tuple[bool, str]:
    sched = exponential_schedule(ExponentialSpec(n=1, m=1, base=2.0, k_max=40))
    d = metrics.deficiency(sched).value
    a = metrics.acceleration_ratio(sched).value
    tol = 1e-3
    ok = _close(d, 4.0, tol) and _close(a, 4.0, tol)
    return ok, f"deficiency={d:.9f}, acceleration={a:.9f}, target 4 +/- {tol:g}"


@_check("C02", "best exponential base on one processor matches (n+1)^((n+1)/n)/n for n=1..6", limit_seconds=10.0)
def check_best_exponential_m1(seed: int) -> tuple[bool, str]:
    tol = 1e-4
    worst = 0.0
    value_n2 = None
    for n in range(1, 7):
        base = deficiency_optimal_base(n, 1)
        sched = exponential_schedule(ExponentialSpec(n=n, m=1, base=base, k_max=60))
        emp = metrics.deficiency(sched).value
        closed = bounds.best_exponential_deficiency_single_processor(n).value
        worst = max(worst, abs(emp - closed))
        if n == 2:
            value_n2 = emp
    ok = worst <= tol and _close(value_n2, 2.598, 1e-3)
    return ok, f"max |empirical-closed| = {worst:.2e} (tol {tol:g}); n=2 value {value_n2:.6f} vs 2.598"


@_check("C03", "greedy list scheduling equals its closed form on geometric instances")
def check_greedy_closed_form(seed: int) -> tuple[bool, str]:
    rtol = 1e-9
    worst = 0.0
    for b, n, m, k in GEOMETRIC_GRID:
        sizes = tuple(b ** (k + i) for i in range(n))
        got = greedy_in_order(MakespanInstance(sizes, m)).makespan
        want = bounds.greedy_geometric_makespan(b, n, m, k)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    return worst <= rtol, f"{len(GEOMETRIC_GRID)} grid points, worst relative error {worst:.2e} (tol {rtol:g})"


@_check("C04", "simulated finish times equal the geometric closed form")
def check_finish_time_closed_form(seed: int) -> tuple[bool, str]:
    rtol = 1e-9
    worst = 0.0
    for b, n, m, k in GEOMETRIC_GRID:
        k_max = max(n + m, n + k + 1)
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=b, k_max=k_max))
        got = simulate(sched)[n + k]
        # contract i runs on processor i mod m, where greedy puts job i, so contract n+k ends at the makespan
        want = bounds.greedy_geometric_makespan(b, n + k + 1, m)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    return worst <= rtol, f"{len(GEOMETRIC_GRID)} grid points, worst relative error {worst:.2e} (tol {rtol:g})"


@_check("C05", "optimized deficiency bound surface: max 2.803779 at (m=2, rho=1); ceilings 3.74 / 4", limit_seconds=5.0)
def check_bound_surface(seed: int) -> tuple[bool, str]:
    surface = bounds.figure2_deficiency_surface()
    best = max(surface, key=lambda row: row[2])
    target = 0.375 * 5.0**1.25  # 3/8 * 5^(5/4)
    ok = _close(best[2], target, 1e-6) and best[0] == 2 and best[1] == 1
    over_ngtm = max(v for _, _, v in surface)
    ok = ok and over_ngtm <= 3.74
    # n <= m: rho = 0, every n in [1, m] collapses to the same value
    over_nlem = max(bounds.deficiency_upper_bound_at_beta(1, m).value for m in range(1, 65))
    ok = ok and over_nlem <= 4.0 + 1e-12
    return ok, (
        f"surface max {best[2]:.9f} at (m={best[0]}, rho={best[1]}) vs {target:.9f}; "
        f"n>m max {over_ngtm:.4f} <= 3.74; n<=m max {over_nlem:.4f} <= 4"
    )


@_check("C06", "lower-bound values and their numeric minimizers")
def check_lower_bounds(seed: int) -> tuple[bool, str]:
    notes = []
    ok = True

    report = bounds.two_problem_lower_bound()
    a_star, value = bounds.optimize_geometric_functional("two-problem")
    ok &= _close(report.value, 2.1165, 1e-3)
    ok &= _close(a_star, 2.0 ** (2.0 / 3.0), 1e-6)
    ok &= _rel_close(value, report.value, 1e-9)
    notes.append(f"two-problem value {report.value:.6f}, minimizer {a_star:.9f} vs 2^(2/3)")

    for n in range(1, 31):
        ok &= bounds.roundrobin_lower_bound(n).value == bounds.best_exponential_deficiency_single_processor(n).value

    cyclic11 = bounds.cyclic_acceleration_lower_bound(1, 1)
    ok &= _close(cyclic11.value, 4.0, 1e-12)
    worst = 0.0
    for n in range(1, 7):
        for m in range(1, 7):
            a_star, value = bounds.optimize_geometric_functional("cyclic-acceleration", n=n, m=m)
            closed_a = acceleration_optimal_base(n, m)
            worst = max(worst, abs(a_star - closed_a))
            ok &= _rel_close(value, bounds.cyclic_acceleration_lower_bound(n, m).value, 1e-9)
    ok &= worst <= 1e-6
    notes.append(f"cyclic minimizer worst |a*-closed| = {worst:.2e}")
    return ok, "; ".join(notes)


@_check("C07", "oracle equivalence: deficiency vs scaling bisection; exact makespan vs enumeration", limit_seconds=60.0)
def check_oracles(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    worst_def = 0.0
    windows = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        sched = random_schedule(rng, n, m, rng.randint(max(3, n), 12))
        report = metrics.deficiency(sched)
        for sample in report.samples:
            oracle = deficiency_bruteforce_oracle(sched, sample.time)
            worst_def = max(worst_def, abs(sample.ratio - oracle) / max(sample.ratio, 1e-300))
            windows += 1

    worst_ms = 0.0
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 3)
        sizes = tuple(rng.uniform(0.1, 10.0) for _ in range(n))
        got = exact_makespan(MakespanInstance(sizes, m)).makespan
        want = _enumerated_makespan(sizes, m)
        worst_ms = max(worst_ms, abs(got - want) / max(abs(want), 1e-300))

    tol = 1e-9
    ok = worst_def <= tol and worst_ms <= 1e-12
    return ok, (
        f"deficiency vs bisection: {windows} windows, worst rel err {worst_def:.2e} (tol {tol:g}); "
        f"exact vs enumeration worst rel err {worst_ms:.2e}"
    )


@_check("C08", "Graham sandwich: exact <= greedy <= (2-1/m) exact, exact >= kappa * closed form")
def check_graham_sandwich(seed: int) -> tuple[bool, str]:
    slack = 1e-9
    for b, n, m, k in GEOMETRIC_GRID:
        sizes = tuple(b ** (k + i) for i in range(n))
        instance = MakespanInstance(sizes, m)
        exact = exact_makespan(instance).makespan
        greedy = greedy_in_order(instance).makespan
        kappa = 1.0 / bounds._lambda_factor(m, b)
        closed = bounds.greedy_geometric_makespan(b, n, m, k)
        if not (exact <= greedy * (1 + slack)):
            return False, f"exact > greedy at b={b}, n={n}, m={m}, k={k}"
        if not (greedy <= (2.0 - 1.0 / m) * exact * (1 + slack)):
            return False, f"greedy above (2-1/m)*exact at b={b}, n={n}, m={m}, k={k}"
        if not (exact >= kappa * closed * (1 - slack)):
            return False, f"exact below kappa*closed-form at b={b}, n={n}, m={m}, k={k}"
    return True, f"{len(GEOMETRIC_GRID)} geometric instances sandwiched"


@_check("C09", "transforms never increase the exact deficiency; normalize is idempotent", limit_seconds=120.0)
def check_transform_safety(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 1)

    step_violations = 0
    overall_violations = 0
    truncated_out = 0
    idempotency_failures = 0
    trials = 500
    for _ in range(trials):
        n = rng.randint(2, 4)
        sched = random_schedule(rng, n, 1, rng.randint(n + 2, 10), permutation_prefix=True)
        trace = transforms.normalize(sched)
        for step in trace.steps:
            if step.deficiency_after > step.deficiency_before:
                step_violations += 1
        before = transforms.deficiency_value_m1(trace.input)
        after = transforms.deficiency_value_m1(trace.output)
        if math.isinf(after):
            # every measurable window sat on a dominated tail that was removed;
            # the shorter prefix has no served window left to compare
            truncated_out += 1
        elif after > before:
            overall_violations += 1
        if not transforms.normalize(trace.output).identity:
            idempotency_failures += 1

    reduce_violations = 0
    blocked_runs = 0
    for _ in range(trials):
        sched = random_schedule(rng, 2, 1, rng.randint(4, 10), permutation_prefix=True)
        normalized = transforms.normalize(sched).output
        trace = transforms.reduce_consecutive_pairs(normalized)
        for step in trace.steps:
            if step.deficiency_after > step.deficiency_before:
                reduce_violations += 1
        before = transforms.deficiency_value_m1(normalized)
        after = transforms.deficiency_value_m1(trace.output)
        if after > before:
            reduce_violations += 1
        blocked_runs += sum(1 for o in trace.run_outcomes if o.action != "removed")

    ok = (
        step_violations == 0
        and overall_violations == 0
        and idempotency_failures == 0
        and reduce_violations == 0
    )
    return ok, (
        f"{trials} normalize trials: {step_violations} step / {overall_violations} overall increases "
        f"({truncated_out} fully truncated), {idempotency_failures} idempotency failures; "
        f"{trials} reduce trials: {reduce_violations} increases, {blocked_runs} blocked runs"
    )


@_check("C10", "figure-data sweeps emit CSVs whose extremes match their anchors")
def check_figures(seed: int) -> tuple[bool, str]:
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    def sweep_rows(figure: int, path: Path) -> list[list[str]]:
        assert cli_main(["sweep", "--figure", str(figure), "--csv", str(path)]) == 0
        lines = path.read_text().splitlines()
        if not (lines[0].startswith("#") and "," in lines[1]):
            raise AssertionError("CSV must carry a parameter comment line and a header row")
        return [line.split(",") for line in lines[2:]]

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        values = [float(r[1]) for r in sweep_rows(1, tmp_path / "fig1.csv")]
        ok = _close(values[0], 4.0, 1e-9)
        ok &= all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing in n/m
        ok &= all(v > math.e for v in values)
        ok &= values[-1] < math.e + 0.03  # approaching e from above

        fig2 = sweep_rows(2, tmp_path / "fig2.csv")
        ok &= len(fig2) == 64 * 64
        best = max(fig2, key=lambda r: float(r[2]))
        ok &= best[0] == "2" and best[1] == "1"

        fig3 = sweep_rows(3, tmp_path / "fig3.csv")
        ok &= len(fig3) == 20
        for row in fig3:
            n = int(row[0])
            ok &= _rel_close(float(row[1]), (n + 1) / n, 1e-9)
            ok &= _rel_close(float(row[2]), (n + 1) ** ((n + 1) / n) / n, 1e-9)
            ok &= float(row[2]) >= float(row[1])
    return ok, (
        f"fig1: 4.0 -> {values[-1]:.4f} (e={math.e:.4f}), strictly decreasing; "
        f"fig2: 64x64 grid peaking at (m=2, rho=1); fig3: 20 rows matching both curves"
    )


# ---------------------------------------------------------------------------
# Property suites beyond the acceptance list
# ---------------------------------------------------------------------------


@_check("P01", "snapshots are monotone in t and exact at finish-time boundaries")
def check_snapshot_properties(seed: int) -> tuple[bool, str]:
    from .core import snapshot, snapshot_before

    rng = random.Random(seed + 2)
    for _ in range(50):
        sched = random_schedule(rng, rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 10))
        times = critical_times(sched)
        prev = None
        for t in times:
            snap = snapshot(sched, t)
            if prev is not None and any(a < b for a, b in zip(snap, prev)):
                return False, f"snapshot not monotone at t={t}"
            prev = snap
        gaps = [b - a for a, b in zip(times, times[1:])]
        eps = (min(gaps) / 2.0) if gaps else times[0] / 2.0
        for t in times:
            left = snapshot_before(sched, t)
            shifted = snapshot(sched, t - eps) if t - eps > 0 else None
            if shifted is not None and left != shifted:
                return False, f"snapshot_before({t}) differs from snapshot({t - eps})"
    return True, "monotonicity and boundary exactness on 50 random schedules"


@_check("P02", "round-robin structure of exponential schedules")
def check_roundrobin_structure(seed: int) -> tuple[bool, str]:
    for n, m, b in itertools.product((1, 2, 3, 5), (1, 2, 3), (1.3, 2.0)):
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=b))
        for i, (problem, processor) in enumerate(zip(sched.problems, sched.processors)):
            if problem != i % n or processor != i % m:
                return False, f"round-robin violated at contract {i} (n={n}, m={m})"
        ratios = [later / length for length, later in zip(sched.lengths, sched.lengths[1:])]
        if any(abs(r - b) > 1e-9 * b for r in ratios):
            return False, f"consecutive length ratio drifts from b={b}"
    return True, "problem/processor round-robin and exact length ratios"


@_check("P03", "measure consistency: windows, single-problem case, m=1 formula")
def check_measure_consistency(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 3)
    for _ in range(50):
        n = rng.randint(1, 3)
        sched = random_schedule(rng, n, 1, rng.randint(n + 1, 9), permutation_prefix=True)
        report = metrics.deficiency(sched)
        m1 = transforms.deficiency_value_m1(sched)
        if report.value != m1:
            return False, f"OPT route {report.value} vs sum route {m1}"
        # sampling inside a gap never exceeds the value at the right endpoint
        times = critical_times(sched)
        for t0, t1 in zip(times, times[1:]):
            mid = rng.uniform(t0 * 1.0001, t1 * 0.9999)
            left = metrics.deficiency(sched, window=[mid]).value
            right = metrics.deficiency(sched, window=[t1]).value
            if left > right + 1e-9 and not math.isinf(right):
                return False, f"interior time {mid} beats critical time {t1}"

    for _ in range(20):
        sched = random_schedule(rng, 1, 1, rng.randint(2, 8))
        acc = metrics.acceleration_ratio(sched).value
        perf = metrics.performance_ratio(sched).value
        dfc = metrics.deficiency(sched).value
        if not (_rel_close(acc, perf, 1e-12) and _rel_close(acc, dfc, 1e-12)):
            return False, "n=m=1 measures disagree"
    return True, "m=1 routes agree; interior windows dominated; n=m=1 measures coincide"


@_check("P04", "empirical deficiency respects the closed-form bound; beta is the minimizer")
def check_bound_dominates(seed: int) -> tuple[bool, str]:
    for n, m, b in itertools.product(range(1, 9), range(1, 4), (1.2, 1.5, 2.0)):
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=b))
        emp = metrics.deficiency(sched).value
        bound = bounds.deficiency_upper_bound(n, m, b).value
        if emp > bound + 1e-6:
            return False, f"empirical {emp} above bound {bound} at n={n}, m={m}, b={b}"

    for n, m in itertools.product(range(1, 17), range(1, 17)):
        beta = deficiency_optimal_base(n, m)
        y = generators._deficiency_exponent(n, m)[1]
        f = partial(bounds._geometric, p=y + 1, q=y)
        if not (f(beta) <= f(beta - 1e-3) + 1e-12 and f(beta) <= f(beta + 1e-3) + 1e-12):
            return False, f"beta misses the minimum at n={n}, m={m}"

    worst = max(
        bounds.deficiency_upper_bound(n, m, acceleration_optimal_base(n, m)).value
        for n in range(1, 17)
        for m in range(1, 17)
        if n >= m
    )
    if abs(worst - 4.24) > 0.01:
        return False, f"acceleration-optimal schedule worst-case bound {worst:.4f} not near 4.24"

    for n in range(1, 17):
        upper = bounds.deficiency_upper_bound_at_beta(n, 1).value
        if upper < bounds.roundrobin_lower_bound(n).value * (1 - 1e-12):
            return False, f"upper bound below round-robin lower bound at n={n}"
        if upper < bounds.deficiency_lower_bound_general(n).value * (1 - 1e-12):
            return False, f"upper bound below general lower bound at n={n}"
    return True, f"bounds dominate empirical values; beta minimizes; acc-optimal worst case {worst:.4f}"


@_check("P05", "functional suprema: truncated direct sums approach the closed forms")
def check_functional_sups(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for n in (1, 2, 3):
        a = deficiency_optimal_base(n, 1)
        closed = bounds.geometric_functional("round-robin", n=n)(a)
        direct = bounds.truncated_functional_sup("round-robin", a, k_max=200, n=n)
        worst = max(worst, abs(direct - closed))
    for n, m in ((1, 1), (2, 1), (2, 2)):
        a = acceleration_optimal_base(n, m)
        closed = bounds.geometric_functional("cyclic-acceleration", n=n, m=m)(a)
        direct = bounds.truncated_functional_sup("cyclic-acceleration", a, k_max=200, n=n, m=m)
        worst = max(worst, abs(direct - closed))
    a = 2.0 ** (2.0 / 3.0)
    closed = bounds.geometric_functional("two-problem")(a)
    direct = bounds.truncated_functional_sup("two-problem", a, k_max=200)
    worst = max(worst, abs(direct - closed))
    return worst <= 1e-8, f"worst |direct sup - closed form| = {worst:.2e}"


def run_checks(seed: int = 0, ids: list[str] | None = None) -> list[CheckResult]:
    """Run the checks named in ``ids`` (default: all) and return their results in definition order.

    Each check is a pure function of the seed, so contiguous ranges of equal
    count (``core._split``: one for a single check, on one usable CPU or
    beside a second thread) run side by side: the first here, every other
    in a forked child that runs this process's ``ALL_CHECKS`` and sends each
    result's fields back.  A range whose child raised, died or outlived the
    bounded wait runs here again, so a raising check raises here with its
    own type and message.  Each check's
    ``seconds`` is its own wall time in the process that ran it.
    """
    indices = [i for i, c in enumerate(ALL_CHECKS) if ids is None or c.check_id in ids]
    if ids is not None:
        unknown = sorted(set(ids) - {ALL_CHECKS[i].check_id for i in indices})
        if unknown or not ids:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}" if unknown else "no check ids given")
    parts = _split(partial(_run_checks, indices, seed), len(indices), 1)
    return [CheckResult(*values) for part in parts for values in part]


def _run_checks(indices: list[int], seed: int, lo: int, hi: int) -> tuple[tuple, ...]:
    return tuple(ALL_CHECKS[i](seed)._values() for i in indices[lo:hi])
