"""Reduction of bcwan_perfbench reports into the benchmark's metrics.

Pure functions over parsed report files, kept apart from run.py so that the
arithmetic (percentiles, span nesting, self time, phase waits) is unit-tested
in test_analysis.py.
"""

import math
from collections import defaultdict

# Exchange phases: (name, mark that opens it, mark that closes it). The marks
# are recorded by the process that sees the step: driver (x.req, x.epk,
# x.done), recipient (x.deliver, x.esk) and gateway (x.redeem).
PHASES = (
    ("epk", "x.req", "x.epk"),
    ("data", "x.epk", "x.deliver"),
    ("offer", "x.deliver", "x.redeem"),
    ("reveal", "x.redeem", "x.esk"),
    ("decrypt", "x.esk", "x.done"),
)

# Timed calls reported per layer: (span name, metric name, ns per unit).
LAYER_SPANS = (
    ("crypto.keygen", "crypto.keygen_ms", 1e6),
    ("bcwan.seal", "bcwan.seal_ms", 1e6),
    ("bcwan.verify_envelope", "bcwan.verify_envelope_ms", 1e6),
    ("bcwan.open_envelope", "bcwan.open_envelope_ms", 1e6),
    ("bcwan.make_offer", "bcwan.make_offer_ms", 1e6),
    ("bcwan.try_redeem", "bcwan.try_redeem_ms", 1e6),
    ("bcwan.observe", "bcwan.observe_ms", 1e6),
    ("bcwan.directory_lookup", "bcwan.directory_lookup_us", 1e3),
    ("lora.frame", "lora.frame_us", 1e3),
    ("chain.submit_tx", "chain.submit_tx_ms", 1e6),
    ("chain.handle_tx", "chain.handle_tx_ms", 1e6),
    ("chain.handle_block", "chain.handle_block_ms", 1e6),
    ("chain.mine", "chain.mine_ms", 1e6),
    ("chain.submit_block", "chain.submit_block_ms", 1e6),
    ("sim.slice", "sim.slice_ms", 1e6),
)


def percentile(values, p):
    """p-th percentile (0..100), linear between closest ranks.

    An empty sample has no percentile: ValueError, never a made-up 0.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def median_of_percentiles(groups, p):
    """Median across groups of each group's p-th percentile.

    A host stall that slows a minority of the groups moves this less than it
    moves the percentile of the pooled samples.
    """
    return median([percentile(g, p) for g in groups])


def parse_report(text):
    """Parse one process report into counters, samples, spans, facts, gates."""
    rep = {"counters": {}, "samples": defaultdict(list), "spans": [],
           "facts": {}, "gates": []}
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "c":
            rep["counters"][f[1]] = float(f[2])
        elif f[0] == "v":
            rep["samples"][f[1]].append(float(f[2]))
        elif f[0] == "s":
            rep["spans"].append({"name": f[1], "xid": int(f[2]),
                                 "t0": int(f[3]), "t1": int(f[4]),
                                 "cpu": int(f[5])})
        elif f[0] == "f":
            rep["facts"][f[1]] = f[2]
        elif f[0] == "g":
            rep["gates"].append({"gate": f[1], "ok": f[2] == "1",
                                 "detail": f[3] if len(f) > 3 else ""})
    return rep


def nest(spans):
    """Annotate spans of ONE process with `self` (ns) and `top` (bool).

    A span's parent is the innermost span whose interval contains it; self
    time is the duration minus the time covered by direct children. Marks
    (zero-length spans) neither nest nor cover anything.
    """
    timed = sorted((s for s in spans if s["t1"] > s["t0"]),
                   key=lambda s: (s["t0"], -s["t1"]))
    stack = []
    for s in timed:
        while stack and stack[-1]["t1"] <= s["t0"]:
            stack.pop()
        s["self"] = s["t1"] - s["t0"]
        s["top"] = True
        if stack and s["t1"] <= stack[-1]["t1"]:
            parent = stack[-1]
            parent["self"] -= s["t1"] - s["t0"]
            s["top"] = False
        stack.append(s)
    return timed


def phase_breakdown(spans_by_proc):
    """Per-exchange phase durations and waits from stitched spans.

    Returns {phase: {"ms": [...], "wait_ms": [...]}} over every exchange that
    has all six marks. Wait = phase duration minus the self time of the
    exchange's own spans (any process) that start inside the phase; a span
    running past the phase's end counts at most up to that end.
    """
    marks = defaultdict(dict)
    work = defaultdict(list)
    for spans in spans_by_proc.values():
        for s in spans:
            if s["t1"] == s["t0"] and s["name"].startswith("x."):
                marks[s["xid"]][s["name"]] = s["t0"]
        for s in nest(spans):
            if s["xid"]:
                work[s["xid"]].append(s)
    out = {name: {"ms": [], "wait_ms": []} for name, _, _ in PHASES}
    for xid, m in marks.items():
        if not all(a in m and b in m for _, a, b in PHASES):
            continue
        for name, a, b in PHASES:
            start, end = m[a], m[b]
            busy = sum(min(s["self"], end - s["t0"]) for s in work[xid]
                       if start <= s["t0"] < end)
            out[name]["ms"].append((end - start) / 1e6)
            out[name]["wait_ms"].append((end - start - busy) / 1e6)
    return out


def unattributed_cpu_ms(cpu_ms, spans):
    """Process CPU (ms) not spent inside any top-level timed call."""
    covered = sum(s["cpu"] for s in nest(spans) if s["top"])
    return cpu_ms - covered / 1e6
