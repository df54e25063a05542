#!/usr/bin/env python3
"""BcWAN benchmark: one command builds, runs one workload, checks, reports.

    python3 perfbench/run.py --workload exchange_flood --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (which compiles the repo's src/) into .bench_build/, runs
bcwan_perfbench for the workload, and prints as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (README.md lists both and what each should move). A
traced run also leaves a stitched span file, spans.jsonl, in its run
directory. Exits non-zero without a result line if the program cannot be
built or run, and refuses to run while a backend pin is set. A run is
correct only if every gate held, every process that should have reported
did, and every end-to-end metric has samples to be computed from.
"""

import argparse
import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "bcwan_perfbench")
sys.dont_write_bytecode = True  # keep perfbench/ free of build output
sys.path.insert(0, HERE)
import analysis  # noqa: E402

WORKLOADS = ("exchange_flood", "catchup", "city")
EXCHANGE_ROLES = ("miner", "gateway", "recipient")
RUN_LIMIT_S = 170  # the whole command must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "cpu_ms_per_unit": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {}
for _span, _metric, _scale in analysis.LAYER_SPANS:
    PER_LAYER[_metric] = "ms" if _metric.endswith("_ms") else "us"
    PER_LAYER[_span + "_count"] = "count"
PER_LAYER.update({
    "bcwan.redeem_hit_ratio": "ratio",
    "bcwan.observe_hit_ratio": "ratio",
    "chain.tx_rejects": "count",
    "chain.tx_msgs_per_accept": "ratio",
    "chain.txs_per_block": "count",
    "catchup.sync_ms": "ms",
    "store.recover_ms": "ms",
    "store.replayed_blocks": "count",
    "store.deltas_applied": "count",
    "store.log_bytes": "bytes",
    "p2p.frames_per_unit": "count",
    "p2p.bytes_per_unit": "bytes",
    "p2p.frames_dropped": "count",
    "p2p.frames_rejected": "count",
    "p2p.reconnects": "count",
    "p2p.sync_requests": "count",
    "p2p.sync_blocks_served": "count",
    "sim.events": "count",
    "sim.exchanges": "count",
    "sim.events_per_s": "1/s",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_cpu_ms_per_unit": "ms",
})
for _role in EXCHANGE_ROLES + ("fresh", "driver"):
    PER_LAYER[_role + ".cpu_ms"] = "ms"
    PER_LAYER[_role + ".unattributed_cpu_ms"] = "ms"
for _name, _, _ in analysis.PHASES:
    PER_LAYER["phase.%s_ms" % _name] = "ms"
    PER_LAYER["phase.%s_wait_ms" % _name] = "ms"
PER_LAYER["phase.total_ms"] = "ms"

PIN = re.compile(r"^BCWAN_(\w*_BACKEND|SIM_\w*|SMOKE)$")
FAILURE_COUNTERS = ("bcwan.verify_failures", "bcwan.decrypt_failures",
                    "bcwan.offer_failures", "bcwan.lookup_misses",
                    "app.bad_msgs")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of the driver."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "bcwan_perfbench"],
                   stdout=sys.stderr, check=True)


def execute(args, run_dir, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("bcwan_perfbench overran its time limit; killing it")
        return -1
    finally:
        # The daemons share the driver's process group: none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def load_reports(run_dir):
    reports = {}
    # Daemons write theirs beside their stores, one level down.
    for path in sorted(glob.glob(os.path.join(run_dir, "**", "*.report"),
                                 recursive=True)):
        name = os.path.basename(path)[:-len(".report")]
        with open(path) as f:
            reports[name] = analysis.parse_report(f.read())
    return reports


def expected_reports(workload, reports):
    """Processes that must have reported: a daemon that died before writing
    its report would otherwise count as zero failures."""
    if workload == "city":
        return ["driver"]
    if workload == "catchup":
        cycles = int(reports["driver"]["counters"].get("attempted", 0))
        return ["driver", "source"] + ["fresh-%d" % i for i in range(cycles)]
    return ["driver"] + list(EXCHANGE_ROLES)


def layer_median(values):
    """Median busy time of a layer; 0 (with count 0) where a workload
    bypasses the layer."""
    return analysis.median(values) if values else 0.0


def daemon_sum(reports, counter):
    return sum(r["counters"].get(counter, 0.0)
               for name, r in reports.items() if name != "driver")


def ratio(num, den):
    return num / den if den else 0.0


def units_of_work(workload, c):
    """Work completed in the measured window and the CPU that did it."""
    if workload == "catchup":
        cpu = c["fresh.cpu_ms"]
    elif workload == "city":
        cpu = c["driver.cpu_window_ms"]
    else:
        cpu = sum(c[r + ".cpu_window_ms"] for r in EXCHANGE_ROLES)
    return c["completed"], cpu


def end_to_end(workload, reports):
    d = reports["driver"]
    c, v = d["counters"], d["samples"]
    units, cpu = units_of_work(workload, c)
    if not units or not c["window_s"]:
        raise ValueError("no unit of work completed in the window")
    out = {
        "setup_s": analysis.median(v["setup_s"]),
        "cpu_ms_per_unit": ratio(cpu, units),
        "peak_rss_mb": c["peak_rss_mb"],
    }
    if workload == "catchup":
        # Per catch-up cycle, then the median over cycles: the host's speed
        # drifts over seconds, and a slow stretch that covers a minority of
        # the cycles should not decide the run.
        cycles = [r["samples"]["block_ms"] for name, r in reports.items()
                  if name.startswith("fresh-")]
        out["latency_p50_ms"] = analysis.median_of_percentiles(cycles, 50)
        out["latency_p90_ms"] = analysis.median_of_percentiles(cycles, 90)
        out["throughput_per_s"] = c["source.blocks"] / (
            analysis.median(v["catchup_ms"]) / 1e3)
    else:
        latency = d["samples"]["latency_ms"]
        out["latency_p50_ms"] = analysis.median(latency)
        out["latency_p90_ms"] = analysis.percentile(latency, 90)
        out["throughput_per_s"] = units / c["window_s"]
    return out


def per_layer(workload, reports):
    d = reports["driver"]
    c, v = d["counters"], d["samples"]
    out = {name: 0.0 for name in PER_LAYER}
    all_spans = [s for r in reports.values() for s in r["spans"]]
    for span, metric, scale in analysis.LAYER_SPANS:
        durations = [(s["t1"] - s["t0"]) / scale
                     for s in all_spans if s["name"] == span]
        out[metric] = layer_median(durations)
        out[span + "_count"] = float(len(durations))
    out["bcwan.redeem_hit_ratio"] = ratio(
        daemon_sum(reports, "bcwan.redeem_hits"),
        daemon_sum(reports, "bcwan.redeem_calls"))
    out["bcwan.observe_hit_ratio"] = ratio(
        daemon_sum(reports, "bcwan.observe_hits"),
        daemon_sum(reports, "bcwan.observe_calls"))
    out["chain.tx_rejects"] = daemon_sum(reports, "chain.tx_rejects")
    out["chain.tx_msgs_per_accept"] = ratio(
        daemon_sum(reports, "chain.tx_msgs"),
        daemon_sum(reports, "chain.tx_accepts"))
    for counter in ("p2p.frames_dropped", "p2p.frames_rejected",
                    "p2p.reconnects", "p2p.sync_requests",
                    "p2p.sync_blocks_served"):
        out[counter] = sum(r["counters"].get(counter, 0.0)
                           for r in reports.values())
    frames = sum(r["counters"].get("p2p.frames_out", 0.0)
                 for r in reports.values())
    sent = sum(r["counters"].get("p2p.bytes_out", 0.0)
               for r in reports.values())
    units, cpu = units_of_work(workload, c)

    if workload == "city":
        out["sim.events"] = c["sim.events"]
        out["sim.exchanges"] = c["completed"]
        out["sim.events_per_s"] = c["sim.events"] / c["window_s"]
        out["driver.cpu_ms"] = ratio(cpu, units)
        out["driver.unattributed_cpu_ms"] = ratio(
            analysis.unattributed_cpu_ms(cpu, d["spans"]), units)
        return out

    if workload == "catchup":
        blocks = c["completed"]
        out["chain.txs_per_block"] = ratio(c["source.txs"], c["source.blocks"])
        out["catchup.sync_ms"] = layer_median(v["catchup_ms"])
        for name in ("store.recover_ms", "store.replayed_blocks",
                     "store.deltas_applied", "store.log_bytes"):
            out[name] = layer_median(v[name])
        out["p2p.frames_per_unit"] = ratio(frames, blocks)
        out["p2p.bytes_per_unit"] = ratio(sent, blocks)
        fresh_spans = [s for name, r in reports.items()
                       if name.startswith("fresh-") for s in r["spans"]]
        out["fresh.cpu_ms"] = ratio(cpu, blocks)
        out["fresh.unattributed_cpu_ms"] = ratio(
            analysis.unattributed_cpu_ms(cpu, fresh_spans), blocks)
        return out

    # Exchange workloads.
    out["chain.txs_per_block"] = ratio(
        reports["miner"]["counters"]["chain.block_txs"],
        reports["miner"]["counters"]["chain.blocks"])
    out["store.log_bytes"] = daemon_sum(reports, "store.log_bytes")
    decrypted = c["decrypted"]
    out["p2p.frames_per_unit"] = ratio(frames, decrypted)
    out["p2p.bytes_per_unit"] = ratio(sent, decrypted)
    traced = c["completed_traced"]
    for role in EXCHANGE_ROLES:
        out[role + ".cpu_ms"] = ratio(c[role + ".cpu_window_ms"], units)
        out[role + ".unattributed_cpu_ms"] = ratio(
            analysis.unattributed_cpu_ms(c[role + ".cpu_traced_ms"],
                                         reports[role]["spans"]), traced)
    phases = analysis.phase_breakdown(
        {name: r["spans"] for name, r in reports.items()})
    for name, _, _ in analysis.PHASES:
        out["phase.%s_ms" % name] = layer_median(phases[name]["ms"])
        out["phase.%s_wait_ms" % name] = layer_median(
            phases[name]["wait_ms"])
    totals = [sum(parts) for parts in
              zip(*(phases[name]["ms"] for name, _, _ in analysis.PHASES))]
    out["phase.total_ms"] = layer_median(totals)
    out["trace.overhead_p50_ms"] = (analysis.median(v["latency_ms_traced"]) -
                                    analysis.median(v["latency_ms"]))
    cpu_traced = sum(c[r + ".cpu_traced_ms"] for r in EXCHANGE_ROLES)
    cpu_untraced = sum(c[r + ".cpu_untraced_ms"] for r in EXCHANGE_ROLES)
    out["trace.overhead_cpu_ms_per_unit"] = (
        ratio(cpu_traced, traced) -
        ratio(cpu_untraced, c["completed_untraced"]))
    return out


def log_span_table(reports):
    """Per process and span name: count, p50 busy, p50 self, total self."""
    log("%-10s %-24s %7s %10s %10s %11s" % (
        "process", "span", "count", "p50_ms", "self_p50", "self_sum_ms"))
    for proc, r in sorted(reports.items()):
        by_name = {}
        for s in analysis.nest(r["spans"]):
            by_name.setdefault(s["name"], []).append(s)
        for name, spans in sorted(by_name.items()):
            busy = [(s["t1"] - s["t0"]) / 1e6 for s in spans]
            own = [s["self"] / 1e6 for s in spans]
            log("%-10s %-24s %7d %10.4f %10.4f %11.2f" % (
                proc, name, len(spans), analysis.median(busy),
                analysis.median(own), sum(own)))


def write_stitched_spans(reports, path):
    """All processes' spans in one file, grouped by exchange id."""
    rows = []
    for proc, r in reports.items():
        analysis.nest(r["spans"])
        for s in r["spans"]:
            rows.append({"xid": s["xid"], "proc": proc, "name": s["name"],
                         "start_ns": s["t0"], "end_ns": s["t1"],
                         "self_ns": s.get("self", 0), "cpu_ns": s["cpu"]})
    rows.sort(key=lambda row: (row["xid"], row["start_ns"]))
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return len(rows)


def cpu_flags():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def fingerprint(reports):
    flags = cpu_flags()
    facts = reports["driver"]["facts"] if "driver" in reports else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "sha_ni": "sha_ni" in flags,
        "avx2": "avx2" in flags,
        "build_type": facts.get("build_type", "?"),
        "compiler": facts.get("compiler", "?"),
        "assertions": facts.get("assertions", "?"),
        "sha256_backend": facts.get("sha256_backend", "?"),
        "ecdsa_backend": facts.get("ecdsa_backend", "?"),
        "rsa_backend": facts.get("rsa_backend", "?"),
        "event_loop_backend": facts.get("event_loop_backend", "?"),
    }


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")

    pins = sorted(k for k in os.environ if PIN.match(k))
    if pins:
        log("refusing to run: %s set; every number must measure the default "
            "production path" % ", ".join(pins))
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    run_dir = os.path.join(BUILD, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    subprocess.run(["rm", "-rf", run_dir], check=True)
    os.makedirs(run_dir)
    code = execute(args, run_dir, start + RUN_LIMIT_S)
    reports = load_reports(run_dir)
    if code not in (0, 1) or "driver" not in reports:
        log("bcwan_perfbench failed (exit %d); no result" % code)
        return 2

    gates = [g for r in reports.values() for g in r["gates"]]
    missing = [name for name in expected_reports(args.workload, reports)
               if name not in reports]
    gates.append({"gate": "reports", "ok": not missing,
                  "detail": "missing: " + " ".join(missing) if missing
                  else "every process reported"})
    failures = {k: daemon_sum(reports, k) for k in FAILURE_COUNTERS}
    correct = (code == 0 and all(g["ok"] for g in gates) and
               not any(failures.values()))
    for g in gates:
        log("gate %-20s %s  %s" % (g["gate"], "ok" if g["ok"] else "FAIL",
                                   g["detail"]))
    counters = reports["driver"]["counters"]
    attempted = int(counters.get("attempted", 0))
    failed = int(counters.get("failed", 0))
    fp = fingerprint(reports)

    metrics = {}
    if correct:
        try:
            values = (per_layer(args.workload, reports) if args.trace
                      else end_to_end(args.workload, reports))
        except ValueError as e:  # an end-to-end metric without samples
            log("no result: %s" % e)
            correct = False
    if correct:
        if args.trace:
            units = PER_LAYER
            log_span_table(reports)
            spans = write_stitched_spans(
                reports, os.path.join(run_dir, "spans.jsonl"))
            log("stitched %d spans into %s" % (
                spans, os.path.join(run_dir, "spans.jsonl")))
        else:
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        for name in units:
            log("  %-36s %14.6g %s" % (name, values[name], units[name]))
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "fingerprint": fp, "gates": gates,
                   "failure_counters": failures, "metrics": metrics}, f,
                  indent=1)
    print(json.dumps({"fingerprint": fp, "failed_share":
                      ratio(failed, attempted)}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
