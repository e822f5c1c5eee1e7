"""Acceptance gate: every criterion runs at its stated tolerance.

One test per criterion; each prints a single pass/fail line.  The checks
live in contractsched.verification so the CLI `verify` command and this
module agree on what is being asserted.

Each check's details string is also pinned by its SHA-256 at seed 0, and
at seeds 1 and 7: the details print the measured values, so a refactor that
moves any of them in a printed digit changes a digest.
"""

import hashlib
import json
import os
import threading
import time
from types import SimpleNamespace

import pytest

from contractsched import _parts, cli, verification
from contractsched.verification import ALL_CHECKS

from forks import assert_no_child_left, record_forks

ACCEPTANCE_CHECKS = [c for c in ALL_CHECKS if c.check_id.startswith("C")]
PROPERTY_CHECKS = [c for c in ALL_CHECKS if c.check_id.startswith("P")]

DETAILS_DIGESTS = {
    "C01": "a1c0f9585ff57b73f637e775aad5346741ade675d199e5844a26bdf3e9c526ab",
    "C02": "b3765fb70e9eace3f6f3f8391b6e8b8badd806b89fe10330bdec58a74e93d4b5",
    "C03": "d2a822aeb7919b48518e051b9726160a38c61800f4c908ff5d5d5ca0965e17cb",
    "C04": "927bed9c4737839e3851526521f5228b02e895f0e4bfb1be939adff61dfa612a",
    "C05": "be71f144dd1b70a5327758f09cf84f877abf85db8d64ba45e547218860964357",
    "C06": "1de3e745f59ec362af64221fa01a0c3d3c47202c91e3a90c7e0f2fe072d06496",
    "C07": "b8521abe7930c739ac088c986e15d5d1229673b175ef1ef401c1ad8454ecf09b",
    "C08": "b721fd22524e47d1a3327208509bfe1b24afd98d79513b9859e6b71c3ce4c63a",
    "C09": "c0ee33291ef7428051238011bf6cef6f9758fa1291011b75574cfbaaa8819586",
    "C10": "c271ab3e6155473faac4c29d6f9ec0200bcb5199b59311f8d95b035b4e23966a",
    "P01": "6565ed53d7f6b8b72dbcba6cb4d0c10846d30d1f1f0cabc2b93bcd6858541c8f",
    "P02": "0079e87421074f1a477bde5a0e776fe1b35c053e5b7499020cc139045f4c58ef",
    "P03": "ceb2694f9cec4fee65cab22496c2cb9df1acb23556cfe2c6cd45d7409be97e28",
    "P04": "00f9144144d1eff02899259eaf92d7bc3e74c7842b176aecd6979b2ff02ccfb1",
    "P05": "f11159166b221971ddb432ae5418be95cc573300cccb0aa2ea970106f1a25850",
}

# the details that differ from seed 0 at seeds 1 and 7; every other check prints the same details at
# every seed, so its seed-0 digest above is pinned there too
SEEDED_DIGESTS = {
    1: {
        "C07": "17f3da2d2d3e1d11ed4b8947ee6fdb2d21e151eb77bfb1c21a65bac1beb5202d",
        "C09": "b1785ce213efe80e194f730dbae2fd2caa5d9691dd44568a5fa8ce731a5f725e",
    },
    7: {
        "C07": "c2a000a3658140d50d11eb2a89e02888da4a250ded4c7c3f9d5c35175d47c700",
        "C09": "7e794294bb83933a9a31afdbf0ac206a5c89c1baf9fcaefeeb71537f911b9d0f",
    },
}


def _run_and_assert(check, seed=0):
    result = check(seed)
    print(f"{result.check_id} {'PASS' if result.passed else 'FAIL'} ({result.seconds:.2f}s): {result.details}")
    assert result.passed, f"{result.check_id} {result.description}: {result.details}"
    digest = hashlib.sha256(result.details.encode()).hexdigest()
    want = SEEDED_DIGESTS.get(seed, {}).get(result.check_id, DETAILS_DIGESTS[result.check_id])
    assert digest == want, f"{result.check_id} details changed at seed {seed}: {result.details}"


@pytest.mark.parametrize("check", ACCEPTANCE_CHECKS, ids=[c.check_id for c in ACCEPTANCE_CHECKS])
def test_acceptance_criterion(check):
    _run_and_assert(check)


@pytest.mark.parametrize("check", PROPERTY_CHECKS, ids=[c.check_id for c in PROPERTY_CHECKS])
def test_property_suite(check):
    _run_and_assert(check)


@pytest.mark.parametrize("seed", sorted(SEEDED_DIGESTS))
@pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.check_id for c in ALL_CHECKS])
def test_details_at_more_seeds(check, seed):
    _run_and_assert(check, seed)


def test_a_check_past_its_runtime_limit_fails(monkeypatch):
    # a fake clock that reads 5 s across C01, whose limit is 1 s
    clock = iter((0.0, 5.0))
    monkeypatch.setattr(verification, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = next(c for c in ALL_CHECKS if c.check_id == "C01")(0)
    assert not result.passed and result.seconds == 5.0
    assert result.details.endswith("; exceeded runtime limit of 1s (5.00s)")


def digests(results):
    return [hashlib.sha256(r.details.encode()).hexdigest() for r in results]


def test_run_checks_returns_every_check_in_definition_order():
    # the checks run in contiguous ranges, the first here; the results come back in ALL_CHECKS order with the
    # pinned details
    results = verification.run_checks(0)
    assert [r.check_id for r in results] == [c.check_id for c in ALL_CHECKS] == list(DETAILS_DIGESTS)
    assert digests(results) == list(DETAILS_DIGESTS.values())
    assert all(r.passed for r in results)
    assert_no_child_left()


def test_run_checks_leaves_no_worker_when_a_check_raises(monkeypatch):
    # _check appends to the module's ALL_CHECKS, which is a copy for this test only; a forked child sees the copy
    monkeypatch.setattr(verification, "ALL_CHECKS", list(verification.ALL_CHECKS))

    @verification._check("X01", "a check that raises")
    def raises(seed):
        raise ValueError(f"raised at seed {seed}")

    with pytest.raises(ValueError, match="^raised at seed 4$"):
        verification.run_checks(4, ids=["C01", "X01", "C05"])
    assert_no_child_left()


def test_run_checks_splits_into_contiguous_ranges_of_equal_count(monkeypatch):
    forked = record_forks(monkeypatch, cpus=2)
    results = verification.run_checks(0)
    assert forked == [(7, 15)]  # C01-C07 here, C08-P05 in the child
    assert digests(results) == list(DETAILS_DIGESTS.values())
    assert_no_child_left()


def test_a_check_that_hangs_in_a_child_runs_here_instead(monkeypatch):
    monkeypatch.setattr(verification, "ALL_CHECKS", list(verification.ALL_CHECKS))
    forked = record_forks(monkeypatch, cpus=2)
    monkeypatch.setattr(_parts, "_WAIT_FACTOR", 1)
    monkeypatch.setattr(_parts, "_WAIT_S", 0.2)
    parent = os.getpid()

    @verification._check("X01", "a check that hangs in a child")
    def hangs(seed):
        if os.getpid() != parent:
            time.sleep(60)
        return True, f"ran in the caller at seed {seed}"

    start = time.monotonic()
    results = verification.run_checks(3, ids=["C01", "C03", "X01"])
    assert time.monotonic() - start < 30
    assert forked == [(1, 3)]
    assert [r.check_id for r in results] == ["C01", "C03", "X01"]
    assert all(r.passed for r in results)
    assert results[2].details == "ran in the caller at seed 3"
    assert digests(results[:2]) == [DETAILS_DIGESTS["C01"], DETAILS_DIGESTS["C03"]]
    assert_no_child_left()


def test_with_no_child_forked_every_range_runs_here(monkeypatch):
    record_forks(monkeypatch, cpus=2)
    monkeypatch.setattr(_parts, "_fork", lambda run, lo, hi: None)
    results = verification.run_checks(0)
    assert [r.check_id for r in results] == list(DETAILS_DIGESTS)
    assert digests(results) == list(DETAILS_DIGESTS.values())
    assert_no_child_left()


def test_a_second_thread_keeps_every_check_here(monkeypatch, tmp_path, capsys):
    forked = record_forks(monkeypatch, cpus=2)
    path = tmp_path / "report.json"
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        results = verification.run_checks(0)
        code = cli.main(["verify", "--json", str(path)])
    finally:
        release.set()
        waiter.join(timeout=10)
    capsys.readouterr()
    assert not waiter.is_alive() and forked == [] and code == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["processes"] == 1
    assert digests(results) == list(DETAILS_DIGESTS.values())
    assert [hashlib.sha256(r["details"].encode()).hexdigest() for r in doc["results"]] == list(DETAILS_DIGESTS.values())
    assert_no_child_left()
