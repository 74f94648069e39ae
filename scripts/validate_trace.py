#!/usr/bin/env python3
"""Validate Anaheim observability exports (the schema gate, stdlib only).

Usage:
    validate_trace.py --trace TRACE.json [--metrics METRICS.json]

Checks the Chrome trace-event document the benches emit via --trace:
  - parses as a JSON object with a "traceEvents" array
  - every event is an object with string "ph"/"name" and numeric
    "pid"/"tid", and its "args", when present, is an object
  - only "M" (metadata) and "X" (complete) phases appear
  - every "X" event has numeric ts/dur >= 0
  - at least one "X" event exists, and every "X" event's pid carries a
    process_name metadata record (so Perfetto shows named tracks)
  - the simulated run contributes both a GPU and a PIM lane
  - the "otherData" header carries string schema_version and git_sha
and, when given, the --metrics JSON dump:
  - is a JSON object carrying the self-describing header
    (schema_version, git_sha, build_type, threads) as strings
  - every entry is an object with a string name, a known kind and a
    numeric value
  - when a "timeseries" section is present (serving runs with a
    telemetry tick), every series has a name, a positive tick_ns, and
    points with numeric stats in start_ns order, non-negative counts,
    and p99 >= p50

ctest runs it on every bench smoke's trace/metrics pair and on the
broken documents under tests/obs/data/. Exits non-zero with a
"validate_trace: FAIL:" message on the first violation.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import NUMBER, load_doc

TOOL = "validate_trace: FAIL"


def fail(msg):
    print(f"{TOOL}: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(value):
    # bool is an int subclass; JSON true/false are not numbers.
    return isinstance(value, NUMBER) and not isinstance(value, bool)


def load(path):
    doc = load_doc(path, TOOL)
    if doc is None:
        sys.exit(1)
    return doc


def validate_trace(path, require_lanes=()):
    doc = load(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing 'traceEvents' array")

    named_pids = set()
    lanes = set()
    complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"{path}: event {i} is not an object")
        ph = event.get("ph")
        if not isinstance(ph, str):
            fail(f"{path}: event {i} missing string 'ph'")
        if not isinstance(event.get("name"), str):
            fail(f"{path}: event {i} missing string 'name'")
        for key in ("pid", "tid"):
            if not is_number(event.get(key)):
                fail(f"{path}: event {i} missing numeric '{key}'")
        args = event.get("args", {})
        if not isinstance(args, dict):
            fail(f"{path}: event {i} 'args' is not an object")
        if ph == "M":
            if event["name"] == "process_name":
                named_pids.add(event["pid"])
            continue
        if ph != "X":
            fail(f"{path}: event {i} has unexpected phase '{ph}'")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not is_number(value) or value < 0:
                fail(f"{path}: event {i} has bad '{key}': {value!r}")
        complete += 1
        lane = args.get("lane")
        if isinstance(lane, str):
            lanes.add(lane)

    if complete == 0:
        fail(f"{path}: no complete ('X') events")
    for i, event in enumerate(events):
        if event["ph"] != "M" and event["pid"] not in named_pids:
            fail(f"{path}: event {i} references unnamed pid "
                 f"{event['pid']}")
    for lane in ("GPU", "PIM") + tuple(require_lanes):
        if lane not in lanes:
            fail(f"{path}: no '{lane}' lane in the simulated timeline "
                 f"(saw: {sorted(lanes)})")
    header = doc.get("otherData")
    if not isinstance(header, dict):
        fail(f"{path}: missing 'otherData' header object")
    for key in ("schema_version", "git_sha"):
        if not isinstance(header.get(key), str):
            fail(f"{path}: otherData missing string '{key}'")
    print(f"validate_trace: OK: {path} ({complete} events, "
          f"{len(named_pids)} processes, lanes: {sorted(lanes)})")


def validate_metrics(path):
    doc = load(path)
    for key in ("schema_version", "git_sha", "build_type", "threads"):
        if not isinstance(doc.get(key), str):
            fail(f"{path}: missing string header field '{key}'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        fail(f"{path}: missing non-empty 'metrics' array")
    for i, entry in enumerate(metrics):
        if not isinstance(entry, dict):
            fail(f"{path}: metric {i} is not an object")
        if not isinstance(entry.get("name"), str):
            fail(f"{path}: metric {i} missing string 'name'")
        if entry.get("kind") not in ("counter", "gauge", "histogram"):
            fail(f"{path}: metric {i} has unknown kind "
                 f"{entry.get('kind')!r}")
        if not is_number(entry.get("value")):
            fail(f"{path}: metric {i} missing numeric 'value'")

    series = doc.get("timeseries", [])
    if not isinstance(series, list):
        fail(f"{path}: 'timeseries' is not an array")
    points = 0
    for i, entry in enumerate(series):
        if not isinstance(entry, dict):
            fail(f"{path}: series {i} is not an object")
        if not isinstance(entry.get("name"), str):
            fail(f"{path}: series {i} missing string 'name'")
        tick = entry.get("tick_ns")
        if not is_number(tick) or tick <= 0:
            fail(f"{path}: series {i} missing positive 'tick_ns'")
        if not isinstance(entry.get("points"), list):
            fail(f"{path}: series {i} missing 'points' array")
        last_start = float("-inf")
        for j, point in enumerate(entry["points"]):
            where = f"{path}: series {i} point {j}"
            if not isinstance(point, dict):
                fail(f"{where} is not an object")
            for key in ("start_ns", "count", "sum", "min", "max",
                        "p50", "p99", "rate_per_s"):
                if not is_number(point.get(key)):
                    fail(f"{where} missing numeric '{key}'")
            if point["start_ns"] <= last_start:
                fail(f"{where} not in start_ns order")
            last_start = point["start_ns"]
            if point["count"] < 0:
                fail(f"{where} has negative count")
            if point["count"] > 0 and point["p99"] < point["p50"]:
                fail(f"{where} has p99 below p50")
            points += 1

    suffix = (f", {len(series)} series / {points} window points"
              if series else "")
    print(f"validate_trace: OK: {path} ({len(metrics)} metrics{suffix})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", required=True,
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--metrics",
                        help="metrics JSON dump to validate (optional)")
    parser.add_argument("--require-lane", action="append", default=[],
                        help="additional lane that must appear in the "
                             "simulated timeline (e.g. Alert); may "
                             "repeat")
    args = parser.parse_args()
    validate_trace(args.trace, args.require_lane)
    if args.metrics:
        validate_metrics(args.metrics)


if __name__ == "__main__":
    main()
