#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Builds the harness the way run.py does, then checks that

  * one seed gives identical inputs (the harness's input digest) and
    identical deterministic counters on every workload, run twice;
  * another seed gives different inputs;
  * every workload and metric name, in BENCHMARK.json and in the harness's
    records, matches [A-Za-z0-9_.-]+;
  * the trace export of a traced run loads as trace-event JSON whose spans
    carry the documented names.

Exits with 1 when a check fails.
"""

import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPANS = {
    "fleet_stream": {"round", "offer", "tick", "tenant_step", "step",
                     "convert", "decide", "seal", "put"},
    "fleet_whatif": {"round", "offer", "tick", "probe", "tenant_step", "step",
                     "convert", "decide", "seal", "put", "clone", "repair"},
    "offline_batch": {"batch", "solo", "pwl_probe", "dense_build", "dp_cost",
                      "dp_schedule", "lcp_replay", "lowmem",
                      "tracker_advance"},
}
# Counters that must repeat exactly for a seed, per workload.
COUNTERS = {
    "fleet_stream": {"form_cache.conversions", "form_cache.hits",
                     "form_cache.size", "checkpoint.count", "cost_ratio"},
    "fleet_whatif": {"form_cache.conversions", "form_cache.hits",
                     "form_cache.size", "checkpoint.count", "cost_ratio",
                     "whatif.slots_repaired.mean", "whatif.early_exit_ratio"},
    "offline_batch": {"engine.dense_tables_built", "engine.pwl_backed",
                      "cost_ratio"},
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def names_of(record):
    for key in ("end_to_end", "named", "per_layer", "counters"):
        yield from record[key]


def main():
    spec = run.load_spec()
    for group in ("workloads", "end_to_end", "per_layer"):
        bad = [e["name"] for e in spec[group] if not NAME.match(e["name"])]
        check(not bad, f"BENCHMARK.json {group} names match the pattern {bad}")
    binary = run.build()
    for workload in SPANS:
        # --seconds 0 runs only the fixed prefix of each workload.
        first = run.run_harness(binary, workload, 5, 0, False)
        again = run.run_harness(binary, workload, 5, 0, False)
        other = run.run_harness(binary, workload, 6, 0, False)
        for record in (first, again, other):
            check(not record["failures"],
                  f"{workload}: output checks pass {record['failures']}")
        check(first["input_digest"] == again["input_digest"],
              f"{workload}: same seed, same inputs")
        check(first["input_digest"] != other["input_digest"],
              f"{workload}: different seed, different inputs")
        check(set(first["counters"]) == COUNTERS[workload],
              f"{workload}: counters are {sorted(COUNTERS[workload])}")
        check(first["counters"] == again["counters"],
              f"{workload}: same seed, same counters")

        traced = run.run_harness(binary, workload, 5, 1, True)
        bad = [n for n in names_of(traced) if not NAME.match(n)]
        check(not bad, f"{workload}: metric names match the pattern {bad}")
        declared = {m["name"] for m in spec["per_layer"]}
        check(set(traced["per_layer"]) <= declared,
              f"{workload}: per-layer metrics are declared in BENCHMARK.json")
        path = run.build_dir() / f"trace-{workload}.json"
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        well_formed = all(
            e["ph"] == "X" and isinstance(e["ts"], (int, float)) and
            isinstance(e["dur"], (int, float)) and e["dur"] >= 0
            for e in events)
        check(events and well_formed,
              f"{workload}: trace export is trace-event JSON "
              f"({len(events)} complete events)")
        seen = {e["name"] for e in events}
        check(seen == SPANS[workload],
              f"{workload}: span names {sorted(seen)}")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
