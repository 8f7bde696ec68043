#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_pipeline.json.

Usage:
    perf_gate.py BASELINE.json CURRENT.json [--tolerance 0.25]

Compares a freshly produced BENCH_pipeline.json (written by
`cargo bench -p msp-bench --bench pipeline`) against the checked-in
baseline and fails on:

  * a cold sequential-sweep throughput regression of more than
    `--tolerance` (default 25%) in `after.sequential_cold_simulated_mips`
    (the `sequential_cold_wall_s`-equivalent measure that is comparable
    across budgets), or
  * the sampled-simulation subsystem missing its recorded guarantees:
    `sampled.speedup_vs_sequential_cold` below SAMPLED_MIN_SPEEDUP or
    `sampled.max_ipc_rel_error_pct` above SAMPLED_MAX_ERROR_PCT. The error
    bound is deterministic (simulation is bit-reproducible for a given
    budget); the speedup bound is wall-clock and carries margin below the
    acceptance target recorded in the baseline. When more than one window
    per cell was measured, `sampled.max_ipc_rel_stderr_pct` must be present
    and numeric — a run that measured a spread but didn't record it fails
    closed instead of silently passing, or
  * the phase-aware plan (`sampled_phase_aware`) spending more detailed
    windows per cell than the periodic plan, or landing a worse worst-cell
    IPC error — SimPoint sampling must match or beat periodic accuracy
    from a detailed-simulation budget no larger than periodic's, or
  * the adaptive plan (`sampled_adaptive`) overshooting its requested
    confidence: `achieved_max_ipc_rel_stderr_pct` must land within
    ADAPTIVE_TARGET_SLACK of `target_rel_stderr_pct`, or
  * the persistent trace store breaking its never-re-execute invariant:
    `trace_store.warm_store_functional_captures` must be 0 (a warm store
    serves a fresh process entirely from disk), or
  * the experiment journal breaking its guarantees:
    `journal.journal_overhead_vs_warm_store_pct` above
    JOURNAL_MAX_OVERHEAD_PCT (the per-cell cell-file commit path must
    stay cheap relative to simulation), `journal.resumed_recomputed_cells`
    nonzero, or `journal.resumed_replayed_cells` short of the sweep's cell
    count (a resume over a complete journal must replay everything and
    recompute nothing).

The seed-comparison fields (`speedup_vs_seed`,
`speedup_vs_pre_trace_layer`) are only measured at the 200k budget the
seed baselines were recorded at; when `comparable_to_seed_baseline` is
false they are null and the gate explicitly skips them instead of
comparing placeholders.

Both files must have been produced at the same `instructions_per_sim`
budget, otherwise the comparison is meaningless and the gate exits 2.
"""

import argparse
import json
import sys

# The sampled acceptance criteria at the reference 2M-instruction budget:
# >= 5x wall-clock vs the exact cold sweep, per-cell IPC within 2%. The
# speedup gate keeps some margin for CI wall-clock noise; the error gate is
# exact because simulation is deterministic.
SAMPLED_MIN_SPEEDUP = 4.0
SAMPLED_MAX_ERROR_PCT = 2.0
# The journal acceptance criterion: one fsync'd, renamed cell file (plus a
# directory fsync) per cell must cost < 2% of the sweep it protects at the
# reference 2M-instruction budget (both sides of the ratio are warm-store
# sequential passes, so the comparison isolates the journal's write path).
JOURNAL_MAX_OVERHEAD_PCT = 2.0
# The adaptive plan must land its achieved worst-cell IPC relative standard
# error within 20% of the requested target (it may run out of windows on a
# small budget, but not by more than this).
ADAPTIVE_TARGET_SLACK = 1.2


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        sys.exit(f"perf-gate: cannot read {path}: {err}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="maximum allowed relative throughput regression (default 0.25)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    base_budget = baseline.get("instructions_per_sim")
    cur_budget = current.get("instructions_per_sim")
    if base_budget != cur_budget:
        print(
            f"perf-gate: budget mismatch: baseline ran {base_budget} "
            f"instructions per sim, current ran {cur_budget}; run the bench "
            f"with MSP_BENCH_INSTRUCTIONS={base_budget}",
            file=sys.stderr,
        )
        sys.exit(2)

    failures = []

    base_mips = baseline["after"]["sequential_cold_simulated_mips"]
    cur_mips = current["after"]["sequential_cold_simulated_mips"]
    floor = (1.0 - args.tolerance) * base_mips
    print(f"sequential cold throughput: baseline {base_mips:.3f} MIPS, "
          f"current {cur_mips:.3f} MIPS (floor {floor:.3f})")
    if cur_mips < floor:
        failures.append(
            f"cold sweep throughput regressed {100 * (1 - cur_mips / base_mips):.1f}% "
            f"(> {100 * args.tolerance:.0f}% tolerance)")

    sampled = current.get("sampled")
    if sampled is None:
        failures.append("current run records no 'sampled' section")
    else:
        speedup = sampled["speedup_vs_sequential_cold"]
        error = sampled["max_ipc_rel_error_pct"]
        print(f"sampled sweep: {speedup:.2f}x vs exact cold "
              f"(gate >= {SAMPLED_MIN_SPEEDUP}), max IPC error {error:.3f}% "
              f"(gate <= {SAMPLED_MAX_ERROR_PCT}%)")
        if speedup < SAMPLED_MIN_SPEEDUP:
            failures.append(
                f"sampled speedup {speedup:.2f}x below {SAMPLED_MIN_SPEEDUP}x")
        if error > SAMPLED_MAX_ERROR_PCT:
            failures.append(
                f"sampled IPC error {error:.3f}% above {SAMPLED_MAX_ERROR_PCT}%")
        # Fail closed on a missing confidence figure: with more than one
        # window per cell a spread exists, so a run that doesn't record it
        # (or records garbage) must not slip through as "no stderr, no gate".
        if sampled.get("max_intervals_per_cell", 0) > 1:
            stderr = sampled.get("max_ipc_rel_stderr_pct")
            if not isinstance(stderr, (int, float)):
                failures.append(
                    f"sampled run measured {sampled['max_intervals_per_cell']} "
                    f"windows per cell but records no numeric "
                    f"'max_ipc_rel_stderr_pct' (got {stderr!r}); a measured "
                    f"spread must be recorded, not silently dropped")
            else:
                print(f"sampled stderr: {stderr:.3f}% "
                      f"(recorded; informational for the periodic plan)")

    phase = current.get("sampled_phase_aware")
    if phase is None:
        failures.append("current run records no 'sampled_phase_aware' section")
    elif sampled is not None:
        p_err = phase["max_ipc_rel_error_pct"]
        p_windows = phase["max_intervals_per_cell"]
        s_err = sampled["max_ipc_rel_error_pct"]
        s_windows = sampled["max_intervals_per_cell"]
        print(f"phase-aware: max IPC error {p_err:.3f}% from {p_windows} "
              f"windows/cell (periodic: {s_err:.3f}% from {s_windows}; gate: "
              f"no worse on both)")
        if p_windows > s_windows:
            failures.append(
                f"phase-aware plan used {p_windows} windows per cell, more "
                f"than the periodic plan's {s_windows}; SimPoint sampling "
                f"must not cost more detailed simulation than periodic")
        if p_err > s_err:
            failures.append(
                f"phase-aware IPC error {p_err:.3f}% above the periodic "
                f"plan's {s_err:.3f}%; phase representatives must match or "
                f"beat periodic accuracy")

    adaptive = current.get("sampled_adaptive")
    if adaptive is None:
        failures.append("current run records no 'sampled_adaptive' section")
    else:
        target = adaptive["target_rel_stderr_pct"]
        achieved = adaptive["achieved_max_ipc_rel_stderr_pct"]
        bound = ADAPTIVE_TARGET_SLACK * target
        print(f"adaptive: achieved stderr {achieved:.3f}% vs target "
              f"{target:.3f}% (gate <= {bound:.3f}%)")
        if achieved > bound:
            failures.append(
                f"adaptive achieved stderr {achieved:.3f}% overshoots the "
                f"{target:.3f}% target by more than "
                f"{100 * (ADAPTIVE_TARGET_SLACK - 1):.0f}%")

    seed_fields = ("speedup_vs_seed", "speedup_vs_pre_trace_layer")
    if current.get("comparable_to_seed_baseline"):
        for field in seed_fields:
            value = current.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                failures.append(
                    f"'{field}' must be a positive number when "
                    f"comparable_to_seed_baseline is true, got {value!r}")
            else:
                print(f"{field}: {value:.2f}x (informational)")
    else:
        print(f"seed-baseline comparison skipped: comparable_to_seed_baseline "
              f"is false at budget {cur_budget} "
              f"({', '.join(seed_fields)} not gated)")

    trace_store = current.get("trace_store")
    if trace_store is None:
        failures.append("current run records no 'trace_store' section")
    else:
        captures = trace_store.get("warm_store_functional_captures")
        speedup = trace_store.get("warm_store_speedup_vs_cold_store", 0.0)
        print(f"trace store: warm rerun {speedup:.2f}x vs cold store, "
              f"{captures} functional captures (gate == 0)")
        if captures != 0:
            failures.append(
                f"warm trace store performed {captures} functional captures; "
                f"a warm store must serve a fresh process entirely from disk")

    journal = current.get("journal")
    if journal is None:
        failures.append("current run records no 'journal' section")
    else:
        overhead = journal.get("journal_overhead_vs_warm_store_pct", float("inf"))
        replayed = journal.get("resumed_replayed_cells")
        recomputed = journal.get("resumed_recomputed_cells")
        sims = current.get("sims")
        print(f"journal: {overhead:+.2f}% overhead vs warm store "
              f"(gate <= {JOURNAL_MAX_OVERHEAD_PCT}%), resume replayed "
              f"{replayed}/{sims} cells, recomputed {recomputed} (gate == 0)")
        if overhead > JOURNAL_MAX_OVERHEAD_PCT:
            failures.append(
                f"journal overhead {overhead:.2f}% above "
                f"{JOURNAL_MAX_OVERHEAD_PCT}% of the warm-store sweep")
        if recomputed != 0:
            failures.append(
                f"resume recomputed {recomputed} journaled cells; a complete "
                f"journal must replay every cell without re-simulation")
        if replayed != sims:
            failures.append(
                f"resume replayed {replayed} of {sims} cells; a complete "
                f"journal must cover the whole sweep")

    if failures:
        for failure in failures:
            print(f"perf-gate: FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print("perf-gate: ok")


if __name__ == "__main__":
    main()
