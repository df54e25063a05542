#!/usr/bin/env python3
"""Bench result gate for CI.

Validates every BENCH_*.json / TELEMETRY_*.json in a results directory
against a per-experiment schema, then compares each experiment's headline
metric against the committed baseline of the same name. A run whose
headline regresses more than the allowed fraction (default 30%) fails the
job — catching "the persistence refactor made replay 10x slower" before it
merges, without demanding bit-identical timings from shared CI runners.
Smoke runs are compared with the smoke baselines in smoke_baselines/, full
runs with the full baselines at the repo root; comparing a result with a
baseline whose `smoke` flag differs is a usage error.

Usage:
  check_bench_json.py --results build/bench --baseline smoke_baselines
  check_bench_json.py --results build/bench --baseline .   # full runs

Exit codes: 0 ok, 1 regression, 2 schema violation, 3 usage/io error.
"""

import argparse
import json
import sys
from pathlib import Path

# Required keys per experiment id. Every listed key must exist and be of the
# given type (int accepts float-typed JSON numbers and vice versa).
NUM = (int, float)
SCHEMAS = {
    "STORE-REPLAY": {
        "smoke": bool,
        "blocks": NUM,
        "repetitions": NUM,
        "log_mib": NUM,
        "snapshot_bytes": NUM,
        "append_fsync_ms": NUM,
        "append_nofsync_ms": NUM,
        "snapshot_ms": NUM,
        "replay_ms": NUM,
        "replay_blocks_per_s": NUM,
        "replay_mib_per_s": NUM,
        "incremental_snapshot_bytes": NUM,
        "incremental_snapshot_bytes_small_state": NUM,
        "base_snapshot_bytes_small_state": NUM,
        "base_snapshot_bytes_large_state": NUM,
        "compaction_ms": NUM,
        "snapshot_cost_independent": bool,
        "snapshot_resume_ms": NUM,
        "resume_speedup_vs_replay": NUM,
        "peak_rss_bytes": NUM,
    },
    "VAL-TPUT": {
        "smoke": bool,
        "block_txs": NUM,
        "repetitions": NUM,
        "verdicts_match": bool,
        "cold_connect_ms": NUM,
        "cold_speedup_vs_serial": NUM,
        "rsa_reveal_txs": NUM,
        "rsa_plain_ms": NUM,
        "rsa_crt_ms": NUM,
        "rsa_crt_speedup": NUM,
        "configs": list,
        "peak_rss_bytes": NUM,
    },
    "HASH-TPUT": {
        "smoke": bool,
        "detected_backend": str,
        "equivalence_ok": bool,
        "axes": list,
        "stream_speedup_vs_scalar": NUM,
        "sighash_speedup_vs_naive": NUM,
        "peak_rss_bytes": NUM,
    },
    "ADV-MATRIX": {
        "smoke": bool,
        "exchanges_per_level": NUM,
        "attacks_launched": NUM,
        "attacks_defended": NUM,
        "defense_success_ratio": NUM,
        "economic_invariants_hold": bool,
        "levels": list,
        "peak_rss_bytes": NUM,
    },
    "ABL-RSA": {
        "smoke": bool,
        "host": dict,
        "keygen_pinned": bool,
        "sizes": list,
        "peak_rss_bytes": NUM,
    },
    "SCALE": {
        "smoke": bool,
        "cores": NUM,
        "gateways": NUM,
        "sensors": NUM,
        "recipients": NUM,
        "virtual_seconds": NUM,
        "exchanges_completed": NUM,
        "events_executed": NUM,
        "repetitions": NUM,
        "wall_seconds": NUM,
        "wall_seconds_iqr": NUM,
        "exchanges_per_sec_wall": NUM,
        "events_per_sec_wall": NUM,
        "latency_mean_s": NUM,
        "verify_failures": NUM,
        "verify_clean": bool,
        "trace_repeat_equal": bool,
        "chain_tips_repeat_equal": bool,
        "scale_target_met": bool,
        "peak_rss_bytes": NUM,
        "peak_rss_gib": NUM,
    },
}

# Lists of (metric, direction): direction "higher" means larger values are
# better. Only ratio-style or machine-stable metrics are gated; raw
# millisecond numbers shift with runner hardware and stay schema-only
# (ABL-RSA's keygen times, for one, have no headline here).
HEADLINES = {
    # incremental_snapshot_bytes gates "a delta grew back into a full base"
    # (lower is better); compaction_ms keeps the fold itself bounded.
    "STORE-REPLAY": [("replay_blocks_per_s", "higher"),
                     ("incremental_snapshot_bytes", "lower"),
                     ("compaction_ms", "lower")],
    "VAL-TPUT": [("best_config_speedup", "higher"),  # derived, see below
                 ("cold_speedup_vs_serial", "higher"),
                 ("rsa_crt_speedup", "higher")],
    "HASH-TPUT": [("sighash_speedup_vs_naive", "higher")],
    "ADV-MATRIX": [("defense_success_ratio", "higher")],
    "SCALE": [("exchanges_per_sec_wall", "higher"),
              ("peak_rss_gib", "lower")],
}

# Hard correctness bits: if present and false, fail regardless of timings.
# trace_repeat_equal / chain_tips_repeat_equal are the SCALE determinism
# gates (two same-seed city / Scenario runs must be bit-identical).
# snapshot_cost_independent asserts the tentpole property of incremental
# snapshots: a delta's size tracks the change window, not the UTXO set.
# keygen_pinned: the seed-1 RSA-512 key is the one Rsa.GeneratedKeysPinned
# pins, so the timed keygen searched the same candidates.
CORRECTNESS_FLAGS = ["equivalence_ok", "verdicts_match",
                     "economic_invariants_hold", "verify_clean",
                     "trace_repeat_equal", "chain_tips_repeat_equal",
                     "snapshot_cost_independent", "keygen_pinned"]


def fail(code, msg):
    print(f"check_bench_json: FAIL: {msg}")
    sys.exit(code)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(2, f"{path}: unreadable or invalid JSON ({e})")


def check_schema(path, doc):
    if "experiment" not in doc or not isinstance(doc["experiment"], str):
        fail(2, f"{path}: missing string 'experiment' field")
    schema = SCHEMAS.get(doc["experiment"])
    if schema is None:
        print(f"  {path.name}: experiment {doc['experiment']!r} "
              "has no registered schema (skipping field checks)")
        return
    for key, expected in schema.items():
        if key not in doc:
            fail(2, f"{path}: missing required key {key!r} "
                    f"for {doc['experiment']}")
        if not isinstance(doc[key], expected):
            fail(2, f"{path}: key {key!r} has type "
                    f"{type(doc[key]).__name__}, expected {expected}")
    for flag in CORRECTNESS_FLAGS:
        if flag in doc and doc[flag] is not True:
            fail(1, f"{path}: correctness flag {flag!r} is false")


def check_telemetry(path, doc):
    for section in ("counters", "gauges", "histograms"):
        if section not in doc or not isinstance(doc[section], dict):
            fail(2, f"{path}: telemetry JSON missing object {section!r}")
    for section in ("counters", "gauges"):
        for name, value in doc[section].items():
            if not isinstance(value, NUM):
                fail(2, f"{path}: {section}[{name!r}] is not numeric")
            if isinstance(value, NUM) and value < 0 and section == "counters":
                fail(2, f"{path}: counter {name!r} is negative")


def headline_value(doc, metric):
    if metric == "best_config_speedup":
        configs = doc.get("configs") or []
        values = [c.get("speedup_vs_serial") for c in configs
                  if isinstance(c.get("speedup_vs_serial"), NUM)]
        return max(values) if values else None
    value = doc.get(metric)
    return value if isinstance(value, NUM) else None


def check_regression(path, doc, baseline_dir, threshold):
    if doc["experiment"] not in HEADLINES:
        return
    base_path = baseline_dir / path.name
    if not base_path.exists():
        print(f"  {path.name}: no committed baseline, skipping "
              "regression check")
        return
    base = load(base_path)
    if base.get("smoke") != doc.get("smoke"):
        fail(3, f"{path}: smoke={doc.get('smoke')} result compared with "
                f"smoke={base.get('smoke')} baseline {base_path}; use the "
                "baseline set of the same run size")
    for metric, direction in HEADLINES[doc["experiment"]]:
        fresh_value = headline_value(doc, metric)
        base_value = headline_value(base, metric)
        if base_value is None:
            # A headline added after the baseline was committed: schema
            # checks already guarantee the fresh run has it; gate it once
            # the baseline is regenerated.
            print(f"  {path.name}: {metric} absent from baseline, skipping")
            continue
        if fresh_value is None or base_value == 0:
            fail(2, f"{path}: headline metric {metric!r} missing or zero")
        ratio = (fresh_value / base_value if direction == "higher"
                 else base_value / fresh_value)
        verdict = "ok" if ratio >= 1.0 - threshold else "REGRESSION"
        print(f"  {path.name}: {metric} fresh={fresh_value:.3f} "
              f"baseline={base_value:.3f} ratio={ratio:.2f} -> {verdict}")
        if verdict != "ok":
            fail(1, f"{path.name}: {metric} regressed beyond "
                    f"{threshold:.0%} (ratio {ratio:.2f})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", required=True,
                    help="directory with freshly produced *_*.json files")
    ap.add_argument("--baseline", default=".",
                    help="directory with committed baseline JSON")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="allowed fractional regression (default 0.30)")
    args = ap.parse_args()

    results = Path(args.results)
    baseline = Path(args.baseline)
    if not results.is_dir():
        fail(3, f"results directory {results} does not exist")

    bench_files = sorted(results.glob("BENCH_*.json"))
    telemetry_files = sorted(results.glob("TELEMETRY_*.json"))
    if not bench_files and not telemetry_files:
        fail(3, f"no BENCH_*.json or TELEMETRY_*.json under {results}")

    print(f"checking {len(bench_files)} bench + {len(telemetry_files)} "
          f"telemetry files under {results}")
    for path in bench_files:
        doc = load(path)
        check_schema(path, doc)
        check_regression(path, doc, baseline, args.threshold)
    for path in telemetry_files:
        check_telemetry(path, load(path))
    print("check_bench_json: all checks passed")


if __name__ == "__main__":
    main()
