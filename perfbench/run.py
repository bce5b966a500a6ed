#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, and
print its metrics.

    python3 perfbench/run.py --workload starved|enforced|campaign \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (the soefair
library plus the benchmark binary) into .bench_build/perfbench, runs
the binary, checks every simulated result against perfbench/digests.json
and prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Everything it writes stays under .bench_build/; the
full record of a run (fingerprint, failures, spans, self times) goes
to .bench_build/perfbench-out/<workload>-s<seed>-t<trace>.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("starved", "enforced", "campaign")
# Extra processes that only set up, for a steadier setup_s median.
SETUP_SPAWNS = 15
BINARY_TIMEOUT_S = 170

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_binary(args, tmp, extra, timeout):
    """Run the binary; returns (parsed last stdout line, start time)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp] + extra
    start = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark binary exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def end_to_end(raw, setup_samples):
    reps = raw["reps"]
    first = reps[0]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "sim_ips": statistics.median(r["instrs"] / r["wall_s"]
                                     for r in reps),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "paper_err_pp": metrics.paper_error_pp(first["pairs"]),
        "fairness_attain_pct":
            metrics.fairness_attainment_pct(first["pairs"]),
    }


def per_layer(raw):
    traced = raw["traced"]
    out = metrics.layer_metrics(raw["layers"], traced)
    out["trace.overhead_pct"] = \
        100.0 * (traced["wall_s"] / raw["reps"][0]["wall_s"] - 1.0)
    return out


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", action="store_true",
                   help="write perfbench/digests.json from this run "
                        "(campaign only: it covers every cell)")
    args = p.parse_args()
    if args.record and args.workload != "campaign":
        p.error("--record needs --workload campaign")
    if not args.seconds > 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the simulator sources (src/) are not in this checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    digests_path = os.path.join(HERE, "digests.json")
    if not args.record:
        with open(digests_path) as f:
            digests = json.load(f)
    if not build():
        log("build failed")
        return 1

    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    deadline = time.monotonic() + BINARY_TIMEOUT_S
    try:
        setup_samples = []
        if args.trace == 0:
            for _ in range(SETUP_SPAWNS):
                out, start = run_binary(args, tmp, ["--setup-only"], 30)
                setup_samples.append((out["setup_stamp_ns"] - start) * 1e-9)
        raw, start = run_binary(args, tmp, [],
                                max(1.0, deadline - time.monotonic()))
        setup_samples.append((raw["setup_stamp_ns"] - start) * 1e-9)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as e:
        log(f"benchmark binary failed: {e}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.record:
        first = raw["reps"][0]
        digests = {"cells": {c: metrics.sha256(p) for c, p in
                             sorted(first["payloads"].items())},
                   "campaign_csv": metrics.csv_digest(first["csv"])}
        with open(digests_path, "w") as f:
            json.dump(digests, f, indent=1)
            f.write("\n")
        log(f"recorded {len(digests['cells'])} cell digests")

    attempted = failed = 0
    messages = []
    runs = raw["reps"] + ([raw["traced"]] if "traced" in raw else [])
    for rep in runs:
        n_failed, msgs = metrics.check_rep(rep, digests)
        attempted += rep["attempted"]
        failed += n_failed
        messages += msgs
    if "traced" in raw and raw["traced"]["payloads"] != \
            raw["reps"][0]["payloads"]:
        messages.append("traced payloads differ from the untraced run")
        failed += 1

    if args.trace == 0:
        values = end_to_end(raw, setup_samples)
        listed = spec["end_to_end"]
    else:
        # A per-layer metric whose layer the workload does not run
        # reads 0.
        listed = spec["per_layer"]
        values = {m["name"]: 0.0 for m in listed}
        values.update(per_layer(raw))
    result_metrics = {m["name"]: {"value": values[m["name"]],
                                  "unit": m["unit"]} for m in listed}
    correct = failed == 0 and not messages

    fingerprint = raw["fingerprint"]
    if not fingerprint["comparable"]:
        log("this build is not comparable (Debug, audit or sanitizer)")
    for msg in messages:
        log("FAIL", msg)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": messages,
        "metrics": result_metrics, "setup_samples_s": setup_samples,
        "reps_wall_s": [r["wall_s"] for r in raw["reps"]],
    }
    if "layers" in raw:
        record["self_s"] = metrics.self_times(raw["layers"]["spans"])
        record["spans"] = raw["layers"]["spans"]
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)

    print("fingerprint " + json.dumps(fingerprint))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
