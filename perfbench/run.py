#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/ (and with it the library from the checkout's
sources) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the harness binary, prints each metric with its unit, appends the full
record with its provenance to records.jsonl in the build directory, and
prints as its last line the JSON object
{"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
end-to-end metrics of BENCHMARK.json; traced runs report its per-layer
metrics and write the Chrome trace of the run to trace-<workload>.json in
the build directory.  The exit code is 0 only when the harness ran and every
output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configures and rebuilds the harness; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("library sources not found next to perfbench/")
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "-j4", "--target", "perfbench_harness"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench_harness"


def run_harness(binary, workload, seed, seconds, trace):
    """Runs the harness once and returns its parsed record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(build_dir() / f"trace-{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the files the harness is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in HERE.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def select_metrics(record, spec, trace):
    """The metrics the result line carries, checked against BENCHMARK.json.

    Per-layer metrics a workload does not exercise (the fleet counters on
    offline_batch, say) are reported as 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record["per_layer"] if trace else record["end_to_end"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise BenchError(f"undeclared metrics {unknown}")
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise BenchError(f"end-to-end metric {m['name']} missing")
            got = {"value": 0.0, "unit": m["unit"]}
        value = got["value"]
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not finite")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {got['unit']}, "
                             f"declared {m['unit']}")
        if not trace and value <= 0:
            raise BenchError(f"end-to-end metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = args.trace == 1

    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        binary = build()
        record = run_harness(binary, args.workload, args.seed, args.seconds,
                            trace)
        metrics = select_metrics(record, spec, trace)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    record["provenance"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": record["build"]["compiler"],
        "flags": record["build"]["flags"].strip(),
        "build_type": record["build"]["build_type"],
        "seed": args.seed,
        "workload": args.workload,
    }
    with open(build_dir() / "records.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    shown = record["per_layer"] if trace else record["named"]
    for name, metric in shown.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")
    correct = not record["failures"]
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
