"""Spans around the program's layer boundaries, and the per-layer figures made from them.

A span is ``[name, start, end, parent]``: the name is ``<layer>.<function>``
with the layer taken from the package module, times come from
``time.perf_counter`` (CLOCK_MONOTONIC, comparable across processes), and
``parent`` is the index of the enclosing span or -1.  Spans are kept in
memory and written once, when the traced command ends.
"""

from __future__ import annotations

import functools
import statistics
import time

VERIFY_CHECKS = tuple(f"C{i:02d}" for i in range(1, 11)) + tuple(f"P{i:02d}" for i in range(1, 6))

# Per-layer metrics of a traced run, with their units and direction.
LAYER_METRICS = (
    ("makespan.exact_calls", "count", "lower"),
    ("makespan.exact_s", "s", "lower"),
    ("makespan.exact_max_ms", "ms", "lower"),
    ("makespan.lpt_calls", "count", "lower"),
    ("makespan.lpt_s", "s", "lower"),
    ("makespan.exact_repeat_share", "ratio", "higher"),
    ("makespan.shape_repeat_share", "ratio", "higher"),
    ("makespan.wall_share", "ratio", "lower"),
    ("core.simulate_calls", "count", "lower"),
    ("core.simulate_s", "s", "lower"),
    ("core.critical_times_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("metrics.windows", "count", "higher"),
    ("core.load_schedule_s", "s", "lower"),
    ("core.save_schedule_s", "s", "lower"),
    ("core.json_bytes", "bytes", "lower"),
    ("generators.exponential_schedule_s", "s", "lower"),
    ("transforms.normalize_s", "s", "lower"),
    ("transforms.reduce_s", "s", "lower"),
    ("transforms.steps", "count", "lower"),
    ("transforms.deficiency_m1_calls", "count", "lower"),
    ("transforms.deficiency_m1_s", "s", "lower"),
    ("bounds.s", "s", "lower"),
    *((f"verification.{check}_s", "s", "lower") for check in VERIFY_CHECKS),
    ("cli.process_start_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(args)`` and ``after(args, result)`` update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [(end - start) - _covered(kids) for (_, start, end, _), kids in zip(spans, children)]


def outermost(spans: list) -> list[bool]:
    """True for a span with no ancestor of its own layer, so layer totals count no time twice."""
    outer: list[bool] = []
    ancestors: list[frozenset] = []
    for name, _, _, parent in spans:
        layer = name.split(".", 1)[0]
        above = frozenset() if parent < 0 else ancestors[parent] | {spans[parent][0].split(".", 1)[0]}
        ancestors.append(above)
        outer.append(layer not in above)
    return outer


def summarize_pass(records: list[dict], untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``records`` holds one entry per command: its ``spans``, ``counters``,
    ``t_spawn`` (parent clock before spawning) and ``t_main`` (child clock
    before ``cli.main``), and the ``verify`` report when the command was
    ``verify --json``.
    """
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    exact_distinct = shape_distinct = 0
    starts = []
    for rec in records:
        spans = rec["spans"]
        outer = outermost(spans)
        selfs = self_times(spans)
        for span, is_outer, own in zip(spans, outer, selfs):
            name, start, end = span[0], span[1], span[2]
            duration = end - start
            if name == "makespan.exact":
                out["makespan.exact_calls"] += 1
                out["makespan.exact_s"] += duration
                out["makespan.exact_max_ms"] = max(out["makespan.exact_max_ms"], duration * 1e3)
            elif name == "makespan.lpt":
                out["makespan.lpt_calls"] += 1
                out["makespan.lpt_s"] += duration
            elif name == "core.simulate":
                out["core.simulate_calls"] += 1
                out["core.simulate_s"] += duration
            elif name == "core.critical_times":
                out["core.critical_times_s"] += duration
            elif name.startswith("metrics."):
                out["metrics.self_s"] += own
            elif name == "core.load_schedule":
                out["core.load_schedule_s"] += duration
            elif name == "core.save_schedule":
                out["core.save_schedule_s"] += duration
            elif name == "generators.exponential_schedule":
                out["generators.exponential_schedule_s"] += duration
            elif name == "transforms.normalize":
                out["transforms.normalize_s"] += duration
            elif name == "transforms.reduce":
                out["transforms.reduce_s"] += duration
            elif name == "transforms.deficiency_m1":
                out["transforms.deficiency_m1_calls"] += 1
                out["transforms.deficiency_m1_s"] += duration
            if name.startswith("bounds.") and is_outer:
                out["bounds.s"] += duration
        counters = rec["counters"]
        exact_distinct += counters.get("exact_distinct", 0)
        shape_distinct += counters.get("shape_distinct", 0)
        out["metrics.windows"] += counters.get("windows", 0)
        out["core.json_bytes"] += counters.get("json_bytes", 0)
        out["transforms.steps"] += counters.get("transform_steps", 0)
        for result in (rec.get("verify") or {}).get("results", []):
            key = f"verification.{result['id']}_s"
            if key in out:
                out[key] += result["seconds"]
        starts.append(rec["t_main"] - rec["t_spawn"])
    exact_calls = out["makespan.exact_calls"]
    if exact_calls:
        out["makespan.exact_repeat_share"] = 1.0 - exact_distinct / exact_calls
        out["makespan.shape_repeat_share"] = 1.0 - shape_distinct / exact_calls
    out["makespan.wall_share"] = out["makespan.exact_s"] / traced_wall
    out["cli.process_start_s"] = statistics.median(starts)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
