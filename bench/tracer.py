"""Spans around the calls between coopbeam's modules, and the per-layer
metrics derived from them.

The tracer wraps, from outside the package, the public names that ``cli``
and ``harness`` call, the ``parallel_count`` that ``outage`` and
``baseline`` use, and the per-block callable handed to it.  Spans stay in
memory as ``[id, parent, name, start, end, attrs]`` lists and are written out
when the sweep ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import defaultdict
from time import perf_counter

# span name -> layer whose self time it carries
LAYER_OF = {
    "cli.main": "cli",
    "harness.run": "harness",
    "outage.mc": "outage",
    "outage.bound": "outage",
    "baseline.mc": "baseline",
    "powerplan.split": "powerplan",
    "powerplan.cluster_size": "powerplan",
    "powerplan.broadcast_feasible": "powerplan",
    "channel.exponential_correlation": "channel",
    "blocks.parallel_count": "blocks",
}
KERNELS = ("frobenius", "vector_corr", "mimo")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _call(self, name, fn, args, kwargs, attrs=None, sid=None):
        parent = getattr(self._local, "span", 0)
        sid = sid or next(self._ids)
        self._local.span = sid
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._local.span = parent
            self.spans.append([sid, parent, name, start, end, attrs])

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; attrs(*args, **kwargs) gives its attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs,
                              attrs(*args, **kwargs) if attrs else None)
        return traced

    def _wrap_parallel_count(self, fn):
        @functools.wraps(fn)
        def parallel_count(count_block, trials, *args, **kwargs):
            sid = next(self._ids)
            caller = threading.get_ident()

            def timed_block(b, n):
                start = perf_counter()
                count = count_block(b, n)
                self.spans.append([next(self._ids), sid, "block", start,
                                   perf_counter(),
                                   {"n": n, "off_caller":
                                    threading.get_ident() != caller}])
                return count

            workers = args[0] if args else kwargs.get("workers", 1)
            return self._call("blocks.parallel_count", fn,
                              (timed_block, trials, *args), kwargs,
                              {"workers": workers}, sid=sid)
        return parallel_count

    def install(self, cli) -> None:
        """Wrap the layer boundaries reachable from coopbeam.cli."""
        from coopbeam import baseline, harness, outage
        for key, runner in cli._RUNNERS.items():
            cli._RUNNERS[key] = self.wrap("harness.run", runner)
        harness.monte_carlo_outage = self.wrap(
            "outage.mc", harness.monte_carlo_outage,
            lambda cfg, *a, **k: {
                "trials": cfg.trials,
                "kind": cfg.gain_mode
                + ("" if cfg.correlation is None else "_corr")})
        harness.mimo_outage = self.wrap(
            "baseline.mc", harness.mimo_outage,
            lambda cfg, *a, **k: {"trials": cfg.trials, "kind": "mimo"})
        harness.analytical_outage = self.wrap("outage.bound",
                                              harness.analytical_outage)
        for name in ("split", "cluster_size", "broadcast_feasible"):
            setattr(harness, name,
                    self.wrap(f"powerplan.{name}", getattr(harness, name)))
        harness.exponential_correlation = self.wrap(
            "channel.exponential_correlation",
            harness.exponential_correlation)
        for module in (outage, baseline):
            module.parallel_count = self._wrap_parallel_count(
                module.parallel_count)


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def percentile(values, q) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, wall_s: float, block_size: int) -> dict:
    """Per-layer metrics of one traced sweep, as {name: (value, unit)}.

    wall_s is the sweep's wall time taken outside every span; the layer self
    times should add up to it, and ``trace.self_gap_s`` is what they miss.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def dur(s):
        return s[4] - s[3]

    def covered(s):
        return _covered([(c[3], c[4]) for c in children[s[0]]], s[3], s[4])

    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        if s[2] == "block":
            continue
        self_s[s[2]] += dur(s) - covered(s)
        calls[s[2]] += 1
    kernel_s = sum(covered(s) for s in spans
                   if s[2] == "blocks.parallel_count")
    layer_self = defaultdict(float)
    for name, t in self_s.items():
        layer_self[LAYER_OF[name]] += t

    def total(name):
        return sum(dur(s) for s in spans if s[2] == name)

    def trials(name):
        return sum(s[5]["trials"] for s in spans if s[2] == name)

    blocks = [s for s in spans if s[2] == "block"]
    per_kernel = defaultdict(list)
    for s in blocks:
        per_kernel[by_id[by_id[s[1]][1]][5]["kind"]].append(dur(s) * 1e3)
    busy = sum(dur(s) for s in blocks)
    capacity = 0.0
    for s in spans:
        if s[2] == "blocks.parallel_count":
            pooled = any(c[5]["off_caller"] for c in children[s[0]])
            capacity += (s[5]["workers"] if pooled else 1) * dur(s)

    mc_s, mimo_s, bound_s = (total("outage.mc"), total("baseline.mc"),
                             total("outage.bound"))
    out = {}
    for kernel in KERNELS:
        ms = per_kernel.get(kernel, [])
        out[f"blocks.{kernel}.block_ms_p50"] = (percentile(ms, 0.5), "ms")
        out[f"blocks.{kernel}.block_ms_p90"] = (percentile(ms, 0.9), "ms")
    out.update({
        "blocks.count": (len(blocks), "count"),
        "blocks.partial_frac": (
            sum(s[5]["n"] < block_size for s in blocks) / max(len(blocks), 1),
            "ratio"),
        "blocks.busy_s": (busy, "s"),
        "blocks.wait_s": (capacity - busy, "s"),
        "blocks.parallel_eff": (busy / capacity if capacity else 0.0,
                                "ratio"),
        "blocks.self_s": (layer_self["blocks"], "s"),
        "blocks.kernel_s": (kernel_s, "s"),
        "outage.mc_calls": (calls["outage.mc"], "count"),
        "outage.mc_s": (mc_s, "s"),
        "outage.trials_per_s": (trials("outage.mc") / mc_s if mc_s else 0.0,
                                "trials/s"),
        "outage.bound_calls": (calls["outage.bound"], "count"),
        "outage.bound_s": (bound_s, "s"),
        "outage.self_s": (layer_self["outage"], "s"),
        "baseline.mc_calls": (calls["baseline.mc"], "count"),
        "baseline.mc_s": (mimo_s, "s"),
        "baseline.trials_per_s": (
            trials("baseline.mc") / mimo_s if mimo_s else 0.0, "trials/s"),
        "baseline.self_s": (layer_self["baseline"], "s"),
        "harness.points": (calls["outage.mc"] + calls["baseline.mc"],
                           "count"),
        "harness.self_s": (layer_self["harness"], "s"),
        "powerplan.calls": (sum(calls[n] for n in LAYER_OF
                                if n.startswith("powerplan.")), "count"),
        "powerplan.s": (layer_self["powerplan"], "s"),
        "channel.calls": (calls["channel.exponential_correlation"], "count"),
        "channel.s": (layer_self["channel"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.self_gap_s": (wall_s - sum(layer_self.values()) - kernel_s,
                             "s"),
    })
    return out
