"""Seeded inputs and command lists of the benchmark workloads.

Every workload is one pass: a fixed list of ``contract-sched`` commands that a
single closed-loop client runs one after another.  The benchmark repeats the
pass for the length of a run.

Each workload draws from a fixed catalogue, so every seed does the same
amount of work and reference values recorded once cover every seed.  The seed
changes what the program sees without changing the answer:

* the order of the catalogue entries in the pass;
* for generated schedule files, a power-of-two scale of every length, which
  leaves every ratio bit-for-bit unchanged, and for multiprocessor schedules a
  relabelling of problems and processors, which leaves every sorted snapshot
  unchanged;
* the seed of ``verify`` and the base of the long exponential prefix.

This module only writes schedule JSON files; it does not import the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("exp-beta-def", "random-growing-def", "long-prefix-cli", "verify-transforms")

# (n, m) of the beta-exponential ladder.  n=20/m=5 is left out: one evaluation
# takes over 40 s.  Smaller rungs are left out too: their evaluations cost little
# more than starting the interpreter, which would hide the OPT oracle.
EXP_LADDER = ((16, 4), (16, 6), (18, 6))

# Catalogue indices of the random growing schedules.
GROWING_CATALOGUE = tuple(range(6))

# (n, m, k) of the long exponential prefix and its bases, close enough to 1
# that base**k stays finite.
LONG_PREFIX = (4, 2, 100_000)
LONG_BASES = (1.003, 1.004, 1.005, 1.006)

# Catalogue indices of the single-processor schedules; odd ones have two
# problems and also run the consecutive-pair reduction.
SINGLE_CATALOGUE = tuple(range(6))

# Wall time of one pass at the commit that introduced the benchmark (2-vCPU
# Intel Xeon, Python 3.11).  A run makes round(seconds / this) passes on every
# commit, so two commits are compared on the same amount of work.
NOMINAL_PASS_S = {
    "exp-beta-def": 6.7,
    "random-growing-def": 5.5,
    "long-prefix-cli": 6.9,
    "verify-transforms": 6.0,
}


@dataclass(frozen=True)
class Command:
    """One ``contract-sched`` invocation and what its output must satisfy.

    ``argv`` holds the CLI arguments with paths relative to the work directory.
    ``check`` names the check kind and the reference entry; see bench_checks.
    """

    argv: tuple[str, ...]
    check: dict


def growing_schedule(index: int) -> dict:
    """Random multiprocessor schedule whose lengths grow by a factor U(1, f).

    Problems and processors are drawn uniformly per contract, so OPT
    instances rarely repeat, even up to scale.
    """
    rng = random.Random(f"random-growing-def/{index}")
    n = rng.randint(12, 14)
    m = rng.choice((3, 4))
    f = rng.uniform(1.05, 1.15)
    k = rng.randint(180, 260)
    contracts = []
    length = 1.0
    for _ in range(k):
        contracts.append({"problem": rng.randrange(n), "processor": rng.randrange(m), "length": length})
        length *= rng.uniform(1.0, f)
    return {"n": n, "m": m, "contracts": contracts}


def single_processor_schedule(index: int) -> dict:
    """Random one-processor schedule with lengths that grow on average.

    Even indices: 3 or 4 problems, every length at least the previous one, so
    normalization is all suffix swaps.  Odd indices: 2 problems and a random
    walk in length, so dominated contracts and same-problem runs appear for
    the removal steps and the consecutive-pair reduction.
    """
    rng = random.Random(f"verify-transforms/{index}")
    if index % 2 == 0:
        n, low, high = rng.choice((3, 4)), 1.0, rng.uniform(1.3, 2.0)
    else:
        n, low, high = 2, 0.7, 1.6
    k = rng.randint(130, 190)
    contracts = []
    length = 1.0
    for _ in range(k):
        contracts.append({"problem": rng.randrange(n), "processor": 0, "length": length})
        length *= rng.uniform(low, high)
    return {"n": n, "m": 1, "contracts": contracts}


def present(doc: dict, rng: random.Random, relabel: bool) -> dict:
    """The same schedule under a seeded power-of-two scale and, optionally, relabelling.

    Scaling by a power of two is exact in binary floating point, so every
    finish time and ratio keeps its bits.  Relabelling problems and processors
    keeps every sorted snapshot; it is not applied to single-processor
    schedules, whose normalization breaks ties by problem index.
    """
    n, m = doc["n"], doc["m"]
    scale = 2.0 ** rng.randrange(0, 31)
    problems = list(range(n))
    processors = list(range(m))
    if relabel:
        rng.shuffle(problems)
        rng.shuffle(processors)
    contracts = [
        {"problem": problems[c["problem"]], "processor": processors[c["processor"]], "length": c["length"] * scale}
        for c in doc["contracts"]
    ]
    return {"n": n, "m": m, "contracts": contracts}


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _exp_beta_def(rng: random.Random, out: Path) -> list[Command]:
    ladder = list(EXP_LADDER)
    rng.shuffle(ladder)
    commands = []
    for n, m in ladder:
        key = f"{n}x{m}"
        path = f"exp_{key}.json"
        commands.append(Command(("gen", "--n", str(n), "--m", str(m), "--base", "auto-def", "--out", path),
                                {"kind": "gen", "ref": key, "out": path}))
        for solver in ("exact", "lpt"):
            commands.append(Command(("eval", "--schedule", path, "--measure", "def", "--solver", solver),
                                    {"kind": "eval", "ref": key, "measure": "def", "solver": solver}))
    return commands


def _random_growing_def(rng: random.Random, out: Path) -> list[Command]:
    order = list(GROWING_CATALOGUE)
    rng.shuffle(order)
    commands = []
    for index in order:
        path = f"growing_{index}.json"
        _write(out / path, present(growing_schedule(index), rng, relabel=True))
        commands.append(Command(("eval", "--schedule", path, "--measure", "def", "--solver", "exact"),
                                {"kind": "eval", "ref": str(index), "measure": "def", "solver": "exact"}))
    return commands


def long_prefix_key(n: int, m: int, base: float, k: int) -> str:
    return f"{n}x{m}@{base!r}k{k}"


def _long_prefix_cli(rng: random.Random, out: Path) -> list[Command]:
    n, m, k = LONG_PREFIX
    base = rng.choice(LONG_BASES)
    key = long_prefix_key(n, m, base, k)
    path = "prefix.json"
    commands = [Command(("gen", "--n", str(n), "--m", str(m), "--base", repr(base), "--k", str(k), "--out", path),
                        {"kind": "gen", "ref": key, "out": path})]
    for measure, solver in (("acc", "exact"), ("perf", "exact"), ("def", "lpt")):
        commands.append(Command(("eval", "--schedule", path, "--measure", measure, "--solver", solver),
                                {"kind": "eval", "ref": key, "measure": measure, "solver": solver}))
    return commands


def _verify_transforms(rng: random.Random, out: Path) -> list[Command]:
    order = list(SINGLE_CATALOGUE)
    rng.shuffle(order)
    commands = [Command(("verify", "--seed", str(rng.randrange(2**31)), "--json", "verify.json"),
                        {"kind": "verify", "json": "verify.json"})]
    for index in order:
        path = f"single_{index}.json"
        doc = single_processor_schedule(index)
        _write(out / path, present(doc, rng, relabel=False))
        argv = ["normalize", "--schedule", path, "--out", f"norm_{index}.json", "--trace", f"trace_{index}.json"]
        reduce = doc["n"] == 2
        if reduce:
            argv.append("--reduce-pairs")
        commands.append(Command(tuple(argv), {"kind": "normalize", "ref": str(index), "out": f"norm_{index}.json",
                                              "trace": f"trace_{index}.json", "reduce": reduce}))
    return commands


PASS_MAKERS = {
    "exp-beta-def": _exp_beta_def,
    "random-growing-def": _random_growing_def,
    "long-prefix-cli": _long_prefix_cli,
    "verify-transforms": _verify_transforms,
}


def make_inputs(workload: str, seed: int, out: Path) -> list[Command]:
    """Write the workload's input files for ``seed`` into ``out`` and return its pass."""
    rng = random.Random(f"{workload}/{seed}")
    return PASS_MAKERS[workload](rng, Path(out))
