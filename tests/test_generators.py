import math
import tracemalloc

import pytest

from contractsched import (
    ExponentialSpec,
    acceleration_optimal_base,
    deficiency_optimal_base,
    exponential_schedule,
    generators,
)


def test_doubling_lengths():
    s = exponential_schedule(ExponentialSpec(n=1, m=1, base=2.0, k_max=4))
    assert [c.length for c in s.contracts] == [1.0, 2.0, 4.0, 8.0]


def test_an_overflowing_base_is_refused_before_any_contract_is_built():
    # the current map would build about 710,000 contracts before 1.001**i overflows
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^base 1\.001 with k=1000000 contracts overflows: 1\.001\*\*999999 "):
            exponential_schedule(ExponentialSpec(n=2, m=1, base=1.001, k_max=1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_prefix_beyond_memory_is_refused_before_any_contract_is_built():
    # n = 10**17 at its deficiency-optimal base: 1.0000000000000004**(8 * 10**17) does not overflow, and at the
    # parent the rows were built one at a time until memory ran out
    n = 10**17
    spec = ExponentialSpec(n=n, m=1, base=deficiency_optimal_base(n, 1))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            exponential_schedule(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_round_robin_assignment():
    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5, k_max=5))
    assert [(c.problem, c.processor) for c in s.contracts] == [(0, 0), (1, 1), (2, 0), (0, 1), (1, 0)]


def test_sqrt3_lengths():
    b = math.sqrt(3.0)
    s = exponential_schedule(ExponentialSpec(n=2, m=1, base=b, k_max=4))
    expected = [1.0, b, 3.0, 3.0 * b]
    for got, want in zip((c.length for c in s.contracts), expected):
        assert got == pytest.approx(want, rel=1e-9)


def test_consecutive_ratio_is_exactly_base():
    for b in (1.1, 1.7320508075688772, 2.0):
        s = exponential_schedule(ExponentialSpec(n=2, m=2, base=b, k_max=20))
        for c0, c1 in zip(s.contracts, s.contracts[1:]):
            assert c1.length / c0.length == pytest.approx(b, rel=1e-12)


def test_default_contract_count():
    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5))
    assert len(s.contracts) == 8 * (3 + 2)


def test_generator_metadata():
    s = exponential_schedule(ExponentialSpec(n=2, m=1, base=1.5, k_max=6))
    assert s.generator == {"family": "exponential", "base": 1.5}


def test_rejects_degenerate_base():
    with pytest.raises(ValueError):
        ExponentialSpec(n=2, m=1, base=1.0)
    with pytest.raises(ValueError):
        ExponentialSpec(n=2, m=1, base=0.5)


def test_rejects_short_prefix():
    with pytest.raises(ValueError):
        ExponentialSpec(n=3, m=2, base=2.0, k_max=4)


def test_deficiency_optimal_base_values():
    assert deficiency_optimal_base(1, 1) == pytest.approx(2.0, rel=1e-12)
    assert deficiency_optimal_base(2, 1) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert deficiency_optimal_base(3, 2) == pytest.approx(5.0**0.25, rel=1e-12)


def test_deficiency_optimal_base_m1_reduction():
    for n in range(1, 51):
        assert deficiency_optimal_base(n, 1) == pytest.approx((n + 1) ** (1.0 / n), rel=1e-12)


def test_deficiency_optimal_base_minimizes_bound_factor():
    # the returned base must beat nearby bases on b^(n+m) / (b^(n+m-1) - b^gamma),
    # including n, m combinations where gamma = (n-1) mod m is nonzero
    for n, m in [(2, 1), (3, 2), (5, 3), (7, 4), (4, 3), (9, 5)]:
        gamma = (n - 1) % m

        def f(b):
            return b ** (n + m) / (b ** (n + m - 1) - b**gamma)

        beta = deficiency_optimal_base(n, m)
        assert f(beta) <= f(beta - 1e-3) + 1e-12
        assert f(beta) <= f(beta + 1e-3) + 1e-12


def test_acceleration_optimal_base_values():
    assert acceleration_optimal_base(1, 1) == pytest.approx(2.0, rel=1e-12)
    assert acceleration_optimal_base(2, 1) == pytest.approx(1.5, rel=1e-12)
    assert acceleration_optimal_base(2, 2) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_base_arguments_validated():
    with pytest.raises(ValueError):
        deficiency_optimal_base(0, 1)
    with pytest.raises(ValueError):
        acceleration_optimal_base(1, 0)
