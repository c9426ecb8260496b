"""Metric names, the percentile rule and the per-layer summary of a trace."""

from __future__ import annotations

import math
import re
import statistics

from tracer import CORES, self_times, totals

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# setup_s and wall_s are seconds at the reference speed of speed.py. Instance
# latency percentiles and failed_frac are printed with these but carry no
# bound; see README.md.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

ORACLE_IDS = ("P1", "P2", "P3", "P4", "T-even", "T-char", "T-tree", "T-toppend",
              "T-maxel", "T-disc", "T-real", "T-treq", "T-acyc", "T-reg", "T-nsc",
              "T-discgl")
SELF_LAYERS = ("graphs", "topology", "intsets", "search", "oracle", "labelings")

# Counts the mathematics fixes and the gate already holds. A traced run prints
# them; they are not metrics, as no direction of change is an improvement.
COUNTS = ("graphs.classes", "topology.families", "search.top_iasl.solutions")

PER_LAYER = {
    "graphs.enumerate_s": "s",
    "graphs.canonical_key_s": "s",
    "topology.enumerate_cold_s": "s",
    "topology.enumerate_warm_ms": "ms",
    "intsets.classify_ms": "ms",
    "search.screen_ms": "ms",
    "search.screen.reject_frac": "ratio",
    **{f"{core}.{m}": u for core in CORES
       for m, u in (("nodes", "count"), ("busy_s", "s"), ("nodes_per_s", "1/s"))},
    "search.top_iasgl.yield": "ratio",
    "oracle.solutions_s": "s",
    "oracle.checks_s": "s",
    **{f"oracle.check.{tid}_s": "s" for tid in ORACLE_IDS},
    "cli.overhead_s": "s",
    "labelings.verify_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(q: float, n: int) -> int:
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def tail_resolved(q: float, n: int) -> bool:
    """A percentile is resolved when at least ten samples lie beyond it;
    otherwise it is reported as a near-maximum, with its sample count."""
    return beyond(q, n) >= 10


def tail_latency(passes, q: float = 0.99) -> tuple[float, bool]:
    """The q-percentile of instance latency over a run's passes.

    When at least ten pooled samples lie beyond it, this is the nearest-rank
    percentile of the pooled samples (resolved). Otherwise it is the median
    over passes of each pass's slowest instance: a near-maximum that one slow
    pass cannot set on its own. Passes without samples are left out.
    """
    passes = [p for p in passes if p]  # a pass that raised has no samples
    pooled = [t for p in passes for t in p]
    if not pooled:
        raise ValueError("no samples")
    if tail_resolved(q, len(pooled)):
        return percentile(pooled, q), True
    return statistics.median(max(p) for p in passes), False


def _per_call_ms(spans, name: str, total: dict) -> float:
    calls = sum(1 for s in spans if s[1] == name)
    return 1000 * total.get(name, 0.0) / calls if calls else 0.0


def _core_busy(spans) -> dict[str, float]:
    """Seconds inside each backtracking core, less the calls it makes into
    other layers (topology enumeration, classify). A core running under
    another core is booked to the outer one."""
    names = {sid: name for sid, name, *_ in spans}
    outside: dict[int, float] = {}
    for _sid, name, start, end, parent in spans:
        if name not in CORES:
            outside[parent] = outside.get(parent, 0.0) + end - start
    busy: dict[str, float] = {}
    for sid, name, start, end, parent in spans:
        if name in CORES and names.get(parent) not in CORES:
            busy[name] = busy.get(name, 0.0) + end - start - outside.get(sid, 0.0)
    return busy


def layer_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except ``trace.overhead_frac``,
    and the counts of ``COUNTS``."""
    spans, counts = tracer.spans, tracer.counts
    total = totals(spans)
    own = self_times(spans)
    core_busy = _core_busy(spans)
    out = {
        "graphs.enumerate_s": total.get("graphs.enumerate", 0.0),
        "graphs.classes": counts["graphs.enumerate.items"],
        "graphs.canonical_key_s": total.get("graphs.canonical_key", 0.0),
        "topology.enumerate_cold_s": total.get("topology.enumerate_cold", 0.0),
        "topology.families": counts["topology.families"],
        "topology.enumerate_warm_ms": _per_call_ms(spans, "topology.enumerate_warm", total),
        "intsets.classify_ms": _per_call_ms(spans, "intsets.classify", total),
        "search.screen_ms": _per_call_ms(spans, "search.screen", total),
    }
    screens = sum(1 for s in spans if s[1] == "search.screen")
    out["search.screen.reject_frac"] = (counts["search.screen.rejected"] / screens
                                        if screens else 0.0)
    for core in CORES:
        nodes = counts[core + ".nodes"]
        busy = core_busy.get(core, 0.0)
        out[core + ".nodes"] = nodes
        out[core + ".busy_s"] = busy
        out[core + ".nodes_per_s"] = nodes / busy if busy else 0.0
    out["search.top_iasl.solutions"] = counts["search.top_iasl.solutions"]
    graceful = counts["search.top_iasgl.inner_solutions"]
    out["search.top_iasgl.yield"] = (counts["search.top_iasgl.solutions"] / graceful
                                     if graceful else 0.0)
    out["oracle.solutions_s"] = total.get("oracle.solutions", 0.0)
    checks = {tid: total.get("oracle.check." + tid, 0.0) for tid in ORACLE_IDS}
    out["oracle.checks_s"] = sum(checks.values())
    out.update({f"oracle.check.{tid}_s": t for tid, t in checks.items()})
    out["cli.overhead_s"] = own.get("cli.main", 0.0)
    out["labelings.verify_ms"] = _per_call_ms(spans, "labelings.verify", total)
    for layer in SELF_LAYERS:
        out[layer + ".self_s"] = sum(t for name, t in own.items()
                                     if name.split(".", 1)[0] == layer)
    out["trace.spans"] = len(spans)
    return out
