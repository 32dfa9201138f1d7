#!/usr/bin/env python3
"""Run one workload of the MELODY repo benchmark and print its report.

    python3 perfbench/run.py --workload longterm --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
melody library, melody_serve and perfbench_driver from source into
.bench_build/perfbench (Release); later runs rebuild incrementally. Socket
workloads start melody_serve on an ephemeral loopback port, five times, and
keep the last: set-up time is the median time to a listening server, and
peak memory is the server's VmHWM. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics, which are the
end-to-end metrics of BENCHMARK.json with --trace 0 and the per-layer
metrics with --trace 1. A per-layer metric a workload does not measure
reads 0. README.md beside this file describes the workloads and metrics.
"""

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SOCKET_WORKLOADS = ("ingest",)
SERVER_STARTS = 5

# Per-layer metric -> (end-to-end metric it should move, workload that
# measures it).
LAYER_TARGETS = {
    "svc.wire.decode_us": ("ops_per_s, op_p50_ms", "ingest"),
    "svc.wire.encode_us": ("ops_per_s, op_p50_ms", "ingest"),
    "svc.service.apply_us": ("ops_per_s, op_p50_ms", "ingest"),
    "svc.router.admit_us": ("ops_per_s, op_p50_ms", "ingest"),
    "svc.shard.roundtrip_us": ("op_tail_ms", "ingest"),
    "svc.loop_us": ("ops_per_s", "ingest"),
    "svc.overload_rejects": ("ok_share", "ingest"),
    "svc.retries": ("ok_share", "ingest"),
    "sim.step_ms": ("ops_per_s, op_p50_ms", "longterm"),
    "sim.self_ms": ("ops_per_s, op_p50_ms", "longterm"),
    "auction.run_ms": ("ops_per_s, op_p50_ms", "longterm"),
    "auction.book_ms": ("(shadow book; no end-to-end metric)", "longterm"),
    "auction.bids_per_run": ("ops_per_s, op_p50_ms", "longterm"),
    "auction.book_deltas_per_run": ("(shadow book; no end-to-end metric)",
                                    "longterm"),
    "auction.assignments_per_run": ("ops_per_s, true_utility_per_run",
                                    "longterm"),
    "estimators.refit_run_ms": ("ops_per_s, op_tail_ms", "longterm"),
    "estimators.filter_run_ms": ("ops_per_s, op_p50_ms", "longterm"),
    "estimators.estimate_us": ("ops_per_s, op_p50_ms", "longterm"),
    "lds.em_fits": ("ops_per_s, op_tail_ms", "longterm"),
    "lds.em_iterations_mean": ("ops_per_s, op_tail_ms", "longterm"),
    "lds.em_capped_share": ("ops_per_s, op_tail_ms", "longterm"),
    "ckpt.export_ms": ("op_p50_ms (migration pause)", "migrate"),
    "ckpt.import_ms": ("op_p50_ms (migration pause)", "migrate"),
    "ckpt.envelope_mb": ("op_p50_ms (migration pause)", "migrate"),
    "trace.overhead_pct": ("(traced minus untraced run time)", "longterm"),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Build output goes to
    stderr so standard output keeps the report."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def driver(*args, timeout):
    out = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_driver"), *map(str, args)],
        check=True, stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True, timeout=timeout)
    return json.loads(out.stdout.strip().splitlines()[-1])


def start_server(server_args):
    """Start melody_serve; return (process, port, seconds to listening)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [os.path.join(BUILD_DIR, "melody_serve"), *server_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            deadline = t0 + 60
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(timeout=left):
                    raise RuntimeError("melody_serve did not start listening")
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("melody_serve exited during start-up")
                if "listening on port" in line:
                    port = int(line.split("listening on port")[1].split()[0])
                    return proc, port, time.perf_counter() - t0
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the server")


def run_workload(args):
    common = ["--workload", args.workload, "--seed", args.seed,
              "--seconds", args.seconds, "--trace", args.trace]
    timeout = 150
    if args.workload not in SOCKET_WORKLOADS:
        return driver(*common, timeout=timeout)
    server_args = driver("--server-args", args.workload, "--seed", args.seed,
                         timeout=60)
    setups = []
    proc = None
    try:
        for i in range(SERVER_STARTS):
            proc, port, seconds = start_server(server_args)
            setups.append(seconds)
            if i + 1 < SERVER_STARTS:
                stop_server(proc)
        result = driver(*common, "--port", port, timeout=timeout)
        result["e2e"]["setup_s"] = statistics.median(setups)
        result["e2e"]["peak_rss_mb"] = peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    try:
        build()
        result = run_workload(args)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as error:
        log(f"run.py: {error}")
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    source = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{'traced' if args.trace else 'untraced'}")
    for m in spec[section]:
        measured = m["name"] in source
        value = float(source.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"({m['better']} is better)"
        if args.trace:
            target, where = LAYER_TARGETS.get(m["name"], ("", ""))
            note = (f"-> {target} on {where}" if measured
                    else "(not measured on this workload)")
        print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<8} {note}")
    for name, value in sorted(result["aliases"].items()):
        print(f"  = {name}: {value:.6g}")
    if args.trace and "trace.overhead_pct" in source:
        print(f"  tracing overhead on longterm: "
              f"{source['trace.overhead_pct']:.2f}% of untraced run time")
    print(f"  checks: {'passed' if result['correct'] else 'FAILED'}; "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in result["problems"][:20]:
        print(f"    {problem}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
