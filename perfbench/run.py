#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the `msp-perfbench` package in
this directory (into $CARGO_TARGET_DIR, default `.bench_build`), then:

1. sets the workload up (several times where set-up is cheap) and reports
   the median as `setup_s`;
2. runs timed iterations, each in a fresh process, for `--seconds` (at
   least two; no iteration is started that would end past them), and
   reports the medians of the end-to-end metrics;
3. with `--trace 1`, runs the traced pass instead of reporting the
   end-to-end metrics, and reports the per-layer metrics.

Every iteration is checked (see README.md); the simulated statistics of all
iterations, and of the traced pass, must carry the same digest. Before the
result it prints every metric by name with its unit, and a `record` line
with the inputs the seed selected and the host facts of the run (CPU count
and model, steal ticks). The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Anything that goes wrong before a result exists (the build, a crash, a
timeout) exits non-zero without printing one.
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
SCRATCH = os.path.join(ROOT, ".bench_work")
# BENCHMARK.json lists exact-sweep and sampled-warm-store; the set-up of
# the warm store is a whole sampled-cold-store pass, which also runs on its
# own from the command line. Only the cheap set-ups are repeated.
WORKLOADS = ("exact-sweep", "sampled-cold-store", "sampled-warm-store")
SETUP_REPEATS = {"exact-sweep": 9, "sampled-cold-store": 9, "sampled-warm-store": 1}
MIN_ITERATIONS = 2
# A run must finish within 180 s; leave room for the traced pass.
DEADLINE_S = 170.0
TRACE_RESERVE_S = 60.0
STEP_TIMEOUT_S = 150.0


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of
    run: the end-to-end ones untraced, the per-layer ones traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        os.environ["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(target, "release", "msp-perfbench")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


class Runner:
    def __init__(self, binary, args, work):
        self.binary = binary
        self.work = work
        self.common = ["--workload", args.workload, "--seed", str(args.seed),
                       "--work", work, "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
        if args.draw_kernels:
            self.common.append("--draw-kernels")

    def step(self, mode):
        """Runs one step in a fresh process; returns its JSON object and
        the steal jiffies the host reported meanwhile."""
        steal0, total0 = cpu_ticks()
        proc = subprocess.run([self.binary, mode] + self.common, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=STEP_TIMEOUT_S, text=True)
        steal1, total1 = cpu_ticks()
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} step exited with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["steal_ticks"] = steal1 - steal0
        out["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
        return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--draw-kernels", action="store_true",
                        help="draw the kernels from the seed (held-out check)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.monotonic()
    binary = build()
    work = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    runner = Runner(binary, args, work)
    try:
        result, record = measure(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    record["total_s"] = time.monotonic() - started
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))


def measure(runner, args):
    begin = time.monotonic()
    setups = [runner.step("setup") for _ in range(SETUP_REPEATS[args.workload])]
    # Past the minimum, start another iteration only if it is expected to
    # end within the measuring time and (with the traced pass) the deadline:
    # a run measures for `--seconds`, not one iteration more.
    reserve = TRACE_RESERVE_S if args.trace else 0.0
    iterations = []
    loop_start = time.monotonic()
    while True:
        now = time.monotonic()
        expected = statistics.median(it["elapsed_s"] for it in iterations) if iterations else 0.0
        if len(iterations) >= MIN_ITERATIONS and (
                now - loop_start + expected > args.seconds
                or now - begin + expected + reserve > DEADLINE_S):
            break
        iterations.append(runner.step("iter"))
        iterations[-1]["elapsed_s"] = time.monotonic() - now
    traced = None
    if args.trace:
        traced = runner.step("trace")
        # Keep the span dump: the work directory is removed at the end.
        spans = os.path.join(SCRATCH, f"{args.workload}-seed{args.seed}.spans.jsonl")
        shutil.move(os.path.join(runner.work, "spans.jsonl"), spans)
        traced["spans_file"] = os.path.relpath(spans, ROOT)

    failures = []
    attempted = 0
    for it in iterations:
        attempted += it["attempted"]
        failures += it["failures"]
    digest = iterations[0]["digest"]
    for i, it in enumerate(iterations[1:], start=2):
        if it["digest"] != digest:
            failures.append(f"iteration {i} simulated different statistics")
    if traced is not None:
        attempted += traced["attempted"]
        failures += traced["failures"]
        if traced["digest"] != digest:
            failures.append("the traced pass simulated different statistics")

    median = lambda key: statistics.median(it[key] for it in iterations)
    if traced is None:
        values = {
            "wall_s": median("wall_s"),
            "sim_mips": statistics.median(
                it["reported_insts"] / it["wall_s"] / 1e6 for it in iterations),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "sim_cycles": iterations[0]["sim_cycles"],
        }
    else:
        values = dict(traced["metrics"])
        values["trace.overhead_s"] = values["trace.wall_s"] - median("wall_s")
    declared = declared_metrics(args.trace)
    missing = [n for n in declared if n != "passed_pct" and values.get(n) is None]
    failures += [f"{n} was not measured" for n in missing]
    failed = min(len(failures), attempted)
    if traced is None:
        values["passed_pct"] = 100.0 * (attempted - failed) / attempted
    metrics = {n: {"value": values[n], "unit": unit}
               for n, unit in declared.items() if n not in missing}

    steps = setups + iterations + ([traced] if traced else [])
    steal = sum(s["steal_ticks"] for s in steps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "kernels": iterations[0]["kernels"],
        "cluster_seed": iterations[0]["cluster_seed"],
        "host": dict(host_facts(), steal_ticks=steal,
                     steal_ticks_per_step=[s["steal_ticks"] for s in steps],
                     steal_pct_max=max(s["steal_pct"] for s in steps)),
        "setup_s": [s["setup_s"] for s in setups],
        "wall_s": [it["wall_s"] for it in iterations],
        "digest": digest,
        "cells": iterations[0]["cells"],
        "failures": failures,
    }
    if traced is not None:
        wall = values["trace.wall_s"]
        shares = {k[len("self_s."):]: v / wall for k, v in values.items() if k.startswith("self_s.")}
        shares["unattributed"] = values["lab.unattributed_s"] / wall
        record["layer_shares"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
        record["self_s_by_span"] = traced["self_by_span"]
        record["spans_file"] = traced["spans_file"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
