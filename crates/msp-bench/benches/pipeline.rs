//! Simulation-throughput benchmark: wall-clock and simulated MIPS for the
//! standard experiment sweep, recorded to `BENCH_pipeline.json` at the
//! workspace root so future performance work has a trajectory to compare
//! against.
//!
//! The measured sweep is the `table1` sweep: the four Table I machine
//! columns (Baseline, CPR, 16-SP, ideal MSP) on three reference kernels
//! (gzip, vpr, swim) with the gshare predictor, at the configured
//! `MSP_BENCH_INSTRUCTIONS` budget, executed as a `Lab` experiment. Four
//! measurements are taken:
//!
//! 1. a **cold sequential** pass (single-threaded `Lab`, empty trace
//!    cache: includes the one functional execution per kernel, like the
//!    seed implementation's runs did),
//! 2. the **trace capture** cost alone (how much of a cold sweep is
//!    functional execution — the work the shared-trace layer de-duplicates
//!    from 12 executions down to 3),
//! 3. a **warm sequential** pass (the steady-state cost of re-running the
//!    experiment in the same session), and
//! 4. a **thread-scaling** series at 1/2/4/default workers over the warm
//!    cache, recorded so parallel-speedup claims can be checked against the
//!    host's actual hardware parallelism (a single-core container shows a
//!    flat curve — that, not load imbalance, explained the historical 1.03x
//!    "parallel speedup"), and
//! 5. three **sampled** cold passes of the same sweep, one per
//!    `SamplingPlan` (fresh `Lab` each): `periodic` at the default interval
//!    (wall-clock speedup over the cold exact pass plus the worst per-cell
//!    IPC error — the two numbers the sampled-simulation subsystem is
//!    accountable for), `phases` (SimPoint-style clustering, which must
//!    match or beat the periodic error from no more detailed windows) and
//!    `adaptive` (which must land its achieved IPC relative standard error
//!    within 20% of the requested target). `scripts/perf_gate.py` gates
//!    all of these in CI at the 2M-instruction reference budget, and
//! 6. a **persistent-store** pair over a scratch `trace_dir`: a cold-store
//!    pass (captures and writes through to disk) and a warm-store pass
//!    from a **fresh `Lab`** — the cold-process stand-in — which must
//!    resolve every trace from disk with **zero** functional executions.
//!    The pair records what the store buys a new process and what the
//!    write-through costs (`scripts/perf_gate.py` gates the zero-captures
//!    invariant), and
//! 7. an **experiment-journal** pair over the same warm trace store: a
//!    journaled pass (fresh `Lab`, fresh journal — every cell committed
//!    as an fsync'd, renamed cell file) whose wall-clock against the warm-store pass
//!    isolates the journal's write overhead, and a resumed pass (another
//!    fresh `Lab` over the populated journal) that must replay every cell
//!    and recompute none (`scripts/perf_gate.py` gates the ≤2% overhead
//!    and the zero-recompute invariant).
//!
//! The seed-comparison fields (`speedup_vs_seed`,
//! `speedup_vs_pre_trace_layer`) are only meaningful at the 200k budget
//! the seed baselines were recorded at; at any other budget they are
//! emitted as `null` (with `comparable_to_seed_baseline: false`), never as
//! a fake number.
//!
//! Run with:
//!
//! ```text
//! MSP_BENCH_INSTRUCTIONS=2000000 cargo bench -p msp-bench --bench pipeline
//! ```

use msp_bench::{reports, Experiment, Lab, LabConfig, SamplingPlan};
use msp_branch::PredictorKind;
use msp_workloads::{by_name, Variant, Workload};
use std::time::Instant;

/// Seed-implementation baseline for the same sweep at 200,000 instructions,
/// measured once on the original O(n)-scan simulator (before the indexed
/// window refactor) on the reference machine. Only comparable when the
/// current run also uses a 200,000-instruction budget.
const SEED_TABLE1_SWEEP_WALL_S: f64 = 30.947;
/// Seed baseline for the 24-simulation stats_dump matrix (both predictors).
const SEED_STATS_MATRIX_WALL_S: f64 = 47.979;
/// The sweep wall-clock recorded by the previous PR (private per-simulator
/// oracles, pre-trace-layer), the direct comparison target of this one.
const PRE_TRACE_SEQUENTIAL_WALL_S: f64 = 1.783;

struct SweepMeasurement {
    wall_s: f64,
    committed: u64,
    cycles: u64,
    sims: usize,
}

fn table1_spec(workloads: &[Workload]) -> Experiment {
    Experiment::new("table1-sweep")
        .workloads(workloads.iter().cloned())
        .machines(reports::reference_machines())
        .predictor(PredictorKind::Gshare)
}

fn measure_sweep(lab: &Lab, spec: &Experiment) -> (SweepMeasurement, msp_bench::ResultSet) {
    let start = Instant::now();
    let results = lab.run(spec);
    let wall_s = start.elapsed().as_secs_f64();
    assert!(
        results
            .cells()
            .iter()
            .all(|c| !c.result.truncated_by_watchdog),
        "a wedged simulation must not be reported as a benchmark result"
    );
    let measurement = SweepMeasurement {
        wall_s,
        committed: results
            .cells()
            .iter()
            .map(|c| c.result.stats.committed)
            .sum(),
        cycles: results.cells().iter().map(|c| c.result.stats.cycles).sum(),
        sims: results.cells().len(),
    };
    (measurement, results)
}

fn main() {
    let mut config = LabConfig::from_env().unwrap_or_else(|err| {
        eprintln!("pipeline bench: {err}");
        std::process::exit(1);
    });
    let budget = config.instructions;
    // Large budgets need room for each kernel's plain AND checkpointed
    // trace (one packed record per instruction each, plus checkpoints) or
    // the warm/sampled passes thrash the LRU cache with re-captures and the
    // numbers measure eviction, not simulation.
    let trace_bytes_needed =
        3 * (budget as usize + 4_096) * msp_isa::PACKED_RECORD_BYTES * 2 * 6 / 5;
    config.trace_cache_bytes = config.trace_cache_bytes.max(trace_bytes_needed);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workloads: Vec<Workload> = ["gzip", "vpr", "swim"]
        .iter()
        .map(|name| by_name(name, Variant::Original).expect("reference kernel exists"))
        .collect();
    let spec = table1_spec(&workloads);

    // 0. Sampled cold pass: a fresh single-threaded Lab captures its own
    //    checkpointed traces and runs the sweep with the default sampling
    //    plan. An unmeasured iteration runs first so the measured one sees
    //    a warm *process* (page tables, allocator, lazily-built workload
    //    state) but a cold *Lab* — the same footing the exact cold pass
    //    below gets, which runs after this pass has warmed the process.
    //    Accuracy is judged against the exact cells of the cold pass.
    let sampling = SamplingPlan::periodic(config.sample_plan.interval());
    let (periodic_detail, periodic_warmup) = (sampling.detail_len(), sampling.warmup_len());
    let sampled_spec = spec.clone().sampling(sampling);
    let process_warmup = Lab::new(LabConfig {
        threads: 1,
        ..config.clone()
    });
    let _ = process_warmup.run(&sampled_spec);
    drop(process_warmup);
    let sampled_lab = Lab::new(LabConfig {
        threads: 1,
        ..config.clone()
    });
    let sampled_start = Instant::now();
    let sampled_results = sampled_lab.run(&sampled_spec);
    let sampled_wall_s = sampled_start.elapsed().as_secs_f64();
    drop(sampled_lab);

    // 0b. Phase-aware cold pass: same footing as the periodic pass (fresh
    //     single-threaded Lab, warm process), but the detailed windows are
    //     the SimPoint representatives — one population-weighted window per
    //     clustered basic-block-vector phase instead of one per interval.
    let phase_plan = SamplingPlan::phase_aware(config.sample_plan.interval());
    let phase_spec = spec.clone().sampling(phase_plan);
    let phase_lab = Lab::new(LabConfig {
        threads: 1,
        ..config.clone()
    });
    let phase_start = Instant::now();
    let phase_results = phase_lab.run(&phase_spec);
    let phase_wall_s = phase_start.elapsed().as_secs_f64();
    drop(phase_lab);

    // 0c. Adaptive cold pass: a 2x finer interval than the periodic plan
    //     (doubling the window pool so the stopping rule has room to work)
    //     but the periodic plan's window *shape* — shrinking the windows
    //     with the interval would trade warm-up quality for pool depth and
    //     inflate the very spread the plan is chasing. Default 2%
    //     relative-standard-error target; the gate checks the achieved
    //     spread lands within 20% of the request.
    let adaptive_target = msp_bench::DEFAULT_SAMPLE_TARGET_STDERR;
    let adaptive_plan = SamplingPlan::adaptive(adaptive_target)
        .with_interval((config.sample_plan.interval() / 2).max(1))
        .with_window(periodic_detail, periodic_warmup);
    let adaptive_spec = spec.clone().sampling(adaptive_plan);
    let adaptive_lab = Lab::new(LabConfig {
        threads: 1,
        ..config.clone()
    });
    let adaptive_start = Instant::now();
    let adaptive_results = adaptive_lab.run(&adaptive_spec);
    let adaptive_wall_s = adaptive_start.elapsed().as_secs_f64();
    drop(adaptive_lab);

    // 1. Cold sequential pass: the lab's trace cache is empty, so this
    //    includes one functional execution per kernel (the seed-comparable
    //    number).
    let mut lab = Lab::new(LabConfig {
        threads: 1,
        ..config.clone()
    });
    let (cold, exact_results) = measure_sweep(&lab, &spec);

    // 2. Isolated capture cost: functionally execute each kernel once more,
    //    bypassing the cache. This is the per-session price the trace layer
    //    pays 3 times (once per kernel) where the pre-trace sweep paid it
    //    12 times (once per simulation).
    let capture_start = Instant::now();
    for w in &workloads {
        let trace = msp_isa::Trace::capture(w.program(), budget);
        assert!(!trace.is_empty(), "reference kernels produce instructions");
    }
    let capture_s = capture_start.elapsed().as_secs_f64();

    // 3. Warm sequential pass: the steady-state cost of re-running the
    //    experiment in the same session.
    let (warm, _) = measure_sweep(&lab, &spec);

    // 4. Thread scaling over the warm cache: 1, 2, 4 and the host default.
    let mut scaling_threads = vec![1usize, 2, 4];
    if !scaling_threads.contains(&host_threads) {
        scaling_threads.push(host_threads);
    }
    let mut scaling: Vec<(usize, SweepMeasurement)> = Vec::new();
    for &threads in &scaling_threads {
        lab.set_threads(threads);
        let (m, _) = measure_sweep(&lab, &spec);
        scaling.push((threads, m));
    }

    // 6. Persistent-store pair over a scratch directory. Cold-store: a
    //    fresh Lab over an empty store captures every kernel and writes
    //    the compressed trace files through. Warm-store: another fresh Lab
    //    — nothing shared in memory, the cold-process stand-in — re-runs
    //    the sweep and must satisfy every trace request from disk.
    let store_dir =
        std::env::temp_dir().join(format!("msp-bench-pipeline-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_config = LabConfig {
        threads: 1,
        trace_dir: Some(store_dir.clone()),
        ..config.clone()
    };
    let cold_store_lab = Lab::new(store_config.clone());
    let (cold_store, _) = measure_sweep(&cold_store_lab, &spec);
    let store = cold_store_lab.trace_store().expect("store configured");
    let store_files = store.entries().map(|e| e.len()).unwrap_or(0);
    let store_bytes = store.total_bytes().unwrap_or(0);
    drop(cold_store_lab);
    let warm_store_lab = Lab::new(store_config);
    let (warm_store, warm_store_results) = measure_sweep(&warm_store_lab, &spec);
    let warm_store_captures = warm_store_lab.capture_count();
    assert_eq!(
        warm_store_captures, 0,
        "a warm store must serve a fresh Lab without functional re-execution"
    );
    assert_eq!(
        warm_store_results
            .cells()
            .iter()
            .map(|c| c.result.stats.committed)
            .sum::<u64>(),
        cold.committed,
        "store-resolved traces must reproduce the exact sweep"
    );
    drop(warm_store_lab);
    let warm_store_speedup = cold_store.wall_s / warm_store.wall_s;

    // 7. Experiment-journal pair over the same warm trace store, so the
    //    journaled pass differs from the warm-store pass by exactly the
    //    journal's write path (fingerprint + fsync'd cell file + rename +
    //    directory fsync per cell). The resumed pass is the crash-recovery payoff:
    //    a fresh Lab over the populated journal replays every cell and
    //    performs zero simulations and zero functional executions.
    let journal_dir =
        std::env::temp_dir().join(format!("msp-bench-pipeline-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journal_config = LabConfig {
        threads: 1,
        trace_dir: Some(store_dir.clone()),
        journal_dir: Some(journal_dir.clone()),
        ..config.clone()
    };
    let journaled_lab = Lab::new(journal_config.clone());
    let (journaled, _) = measure_sweep(&journaled_lab, &spec);
    assert_eq!(
        journaled_lab.journal_recorded_count(),
        journaled.sims as u64,
        "a fresh journal must record every cell of the sweep"
    );
    drop(journaled_lab);
    let resumed_lab = Lab::new(journal_config);
    let (resumed, resumed_results) = measure_sweep(&resumed_lab, &spec);
    let resumed_replayed = resumed_lab.journal_replayed_count();
    let resumed_recomputed = resumed_lab.journal_recorded_count();
    assert_eq!(
        resumed_replayed, resumed.sims as u64,
        "a populated journal must replay every cell of the sweep"
    );
    assert_eq!(
        resumed_recomputed, 0,
        "a fully-journaled resume must not recompute any cell"
    );
    assert_eq!(
        resumed_lab.capture_count(),
        0,
        "a fully-journaled resume must not functionally execute anything"
    );
    assert_eq!(
        resumed_results
            .cells()
            .iter()
            .map(|c| c.result.stats.committed)
            .sum::<u64>(),
        cold.committed,
        "replayed cells must reproduce the exact sweep"
    );
    drop(resumed_lab);
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    let journal_overhead_pct = 100.0 * (journaled.wall_s - warm_store.wall_s) / warm_store.wall_s;
    let resumed_speedup = journaled.wall_s / resumed.wall_s;

    // 5. Judge the sampled estimates (passes 0/0b/0c) per cell against the
    //    exact cells of pass 1.
    struct SampledJudgement {
        max_ipc_rel_error: f64,
        max_rel_stderr: f64,
        max_intervals: usize,
    }
    let judge = |results: &msp_bench::ResultSet, label: &str| -> SampledJudgement {
        assert!(
            results
                .cells()
                .iter()
                .all(|c| !c.result.truncated_by_watchdog),
            "a wedged {label} sampled window must not be reported as a benchmark result"
        );
        let mut j = SampledJudgement {
            max_ipc_rel_error: 0.0,
            max_rel_stderr: 0.0,
            max_intervals: 0,
        };
        for (exact_cell, sampled_cell) in exact_results.cells().iter().zip(results.cells()) {
            let sampled = sampled_cell
                .sampled
                .as_ref()
                .expect("sampled cells carry estimates");
            let rel = (sampled.mean_ipc - exact_cell.ipc()).abs() / exact_cell.ipc().max(1e-12);
            j.max_ipc_rel_error = j.max_ipc_rel_error.max(rel);
            // An undefined spread (fewer than two windows) cannot happen at
            // the reference budget; treat it as zero for the record.
            j.max_rel_stderr = j.max_rel_stderr.max(sampled.ipc_rel_stderr.unwrap_or(0.0));
            j.max_intervals = j.max_intervals.max(sampled.intervals);
        }
        j
    };
    let periodic_judged = judge(&sampled_results, "periodic");
    let phase_judged = judge(&phase_results, "phase-aware");
    let adaptive_judged = judge(&adaptive_results, "adaptive");
    let max_ipc_rel_error = periodic_judged.max_ipc_rel_error;
    let max_rel_stderr = periodic_judged.max_rel_stderr;
    let sampled_intervals = periodic_judged.max_intervals;
    let sampled_speedup = cold.wall_s / sampled_wall_s;
    let phase_speedup = cold.wall_s / phase_wall_s;
    let adaptive_speedup = cold.wall_s / adaptive_wall_s;
    // The "parallel" datapoint is the warm pass at the host's default
    // worker count, compared against the warm sequential pass — warm vs
    // warm, so the ratio measures parallelism and nothing else (on a
    // single-hardware-thread host it is honestly ~1.0).
    let (parallel_threads, par) = scaling
        .iter()
        .rev()
        .find(|(n, _)| *n == host_threads)
        .map(|(n, m)| (*n, m))
        .expect("the scaling series always contains the host default");

    let cold_mips = cold.committed as f64 / cold.wall_s / 1e6;
    let warm_mips = warm.committed as f64 / warm.wall_s / 1e6;
    let par_mips = par.committed as f64 / par.wall_s / 1e6;
    let parallel_speedup = warm.wall_s / par.wall_s;
    let comparable = budget == 200_000;
    // Seed comparisons at any other budget are not measurements; emit JSON
    // null so nothing downstream mistakes a placeholder for a speedup.
    let seed_speedup_json = if comparable {
        format!("{:.2}", SEED_TABLE1_SWEEP_WALL_S / cold.wall_s)
    } else {
        "null".to_string()
    };
    let vs_pre_json = if comparable {
        format!("{:.2}", PRE_TRACE_SEQUENTIAL_WALL_S / cold.wall_s)
    } else {
        "null".to_string()
    };

    println!(
        "table1_sweep/sequential-cold{:24} time: [{:.3} s]  {:>8.3} simulated MIPS ({} sims)",
        "", cold.wall_s, cold_mips, cold.sims
    );
    println!(
        "table1_sweep/sequential-warm{:24} time: [{:.3} s]  {:>8.3} simulated MIPS ({} sims)",
        "", warm.wall_s, warm_mips, warm.sims
    );
    for (n, m) in &scaling {
        println!(
            "table1_sweep/threads={n:<28} time: [{:.3} s]  {:>8.3} simulated MIPS",
            m.wall_s,
            m.committed as f64 / m.wall_s / 1e6
        );
    }
    println!(
        "table1_sweep/sampled-cold ({})        time: [{:.3} s]  {:.2}x vs exact cold, max IPC err {:.2}%",
        sampling.describe(),
        sampled_wall_s,
        sampled_speedup,
        100.0 * max_ipc_rel_error
    );
    println!(
        "table1_sweep/sampled-phases ({})      time: [{:.3} s]  {:.2}x vs exact cold, max IPC err {:.2}%, {} windows/cell (periodic: {})",
        phase_plan.describe(),
        phase_wall_s,
        phase_speedup,
        100.0 * phase_judged.max_ipc_rel_error,
        phase_judged.max_intervals,
        sampled_intervals
    );
    println!(
        "table1_sweep/sampled-adaptive ({})    time: [{:.3} s]  {:.2}x vs exact cold, max IPC err {:.2}%, achieved stderr {:.2}% (target {:.2}%)",
        adaptive_plan.describe(),
        adaptive_wall_s,
        adaptive_speedup,
        100.0 * adaptive_judged.max_ipc_rel_error,
        100.0 * adaptive_judged.max_rel_stderr,
        100.0 * adaptive_target
    );
    println!(
        "table1_sweep/cold-store{:29} time: [{:.3} s]  captures + write-through ({store_files} files, {store_bytes} bytes)",
        "", cold_store.wall_s
    );
    println!(
        "table1_sweep/warm-store{:29} time: [{:.3} s]  {warm_store_speedup:.2}x vs cold store, {warm_store_captures} functional captures",
        "", warm_store.wall_s
    );
    println!(
        "table1_sweep/journaled{:30} time: [{:.3} s]  {journal_overhead_pct:+.2}% vs warm store (cell files)",
        "", journaled.wall_s
    );
    println!(
        "table1_sweep/resumed{:32} time: [{:.3} s]  {resumed_speedup:.2}x vs journaled, {resumed_replayed} replayed / {resumed_recomputed} recomputed",
        "", resumed.wall_s
    );
    println!("host hardware threads: {host_threads}");
    if comparable {
        println!(
            "table1_sweep speedup vs seed implementation: {:.1}x \
             (seed {SEED_TABLE1_SWEEP_WALL_S:.3} s sequential), \
             vs pre-trace-layer: {:.2}x (was {PRE_TRACE_SEQUENTIAL_WALL_S:.3} s)",
            SEED_TABLE1_SWEEP_WALL_S / cold.wall_s,
            PRE_TRACE_SEQUENTIAL_WALL_S / cold.wall_s
        );
    } else {
        println!("(seed-baseline comparison skipped: budget {budget} != 200000)");
    }

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(n, m)| {
            format!(
                r#"    {{ "threads": {n}, "wall_s": {:.3}, "simulated_mips": {:.3} }}"#,
                m.wall_s,
                m.committed as f64 / m.wall_s / 1e6
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "table1_sweep",
  "description": "4 Table I machines x 3 reference kernels (gzip, vpr, swim), gshare, one Lab session with shared functional traces",
  "instructions_per_sim": {budget},
  "sims": {sims},
  "parallel_threads": {parallel_threads},
  "host_hardware_threads": {host_threads},
  "seed_baseline": {{
    "table1_sweep_sequential_wall_s": {SEED_TABLE1_SWEEP_WALL_S},
    "stats_matrix_24sims_wall_s": {SEED_STATS_MATRIX_WALL_S},
    "pre_trace_layer_sequential_wall_s": {PRE_TRACE_SEQUENTIAL_WALL_S},
    "note": "seed = original O(n)-scan simulator; pre_trace_layer = PR 1's indexed-window simulator with private per-simulator oracles; both at 200000 instructions per sim"
  }},
  "after": {{
    "sequential_cold_wall_s": {cold_wall:.3},
    "sequential_cold_simulated_mips": {cold_mips:.3},
    "sequential_warm_wall_s": {warm_wall:.3},
    "sequential_warm_simulated_mips": {warm_mips:.3},
    "trace_capture_once_per_kernel_s": {capture_s:.4},
    "parallel_wall_s": {par_wall:.3},
    "parallel_simulated_mips": {par_mips:.3},
    "parallel_speedup": {parallel_speedup:.2},
    "committed_instructions": {committed},
    "simulated_cycles": {cycles}
  }},
  "thread_scaling": [
{scaling_rows}
  ],
  "sampled": {{
    "interval": {s_interval},
    "detail_len": {s_detail},
    "warmup_len": {s_warmup},
    "max_intervals_per_cell": {s_intervals},
    "wall_s": {s_wall:.3},
    "speedup_vs_sequential_cold": {s_speedup:.2},
    "max_ipc_rel_error_pct": {s_err:.3},
    "max_ipc_rel_stderr_pct": {s_stderr:.3},
    "note": "cold sampled Lab (captures its own checkpointed traces) vs the cold exact pass; per-cell sampled mean IPC vs exact IPC over the same table1 sweep"
  }},
  "sampled_phase_aware": {{
    "interval": {p_interval},
    "detail_len": {p_detail},
    "warmup_len": {p_warmup},
    "max_intervals_per_cell": {p_intervals},
    "periodic_max_intervals_per_cell": {s_intervals},
    "wall_s": {p_wall:.3},
    "speedup_vs_sequential_cold": {p_speedup:.2},
    "max_ipc_rel_error_pct": {p_err:.3},
    "periodic_max_ipc_rel_error_pct": {s_err:.3},
    "note": "SimPoint-style plan: per-interval basic-block vectors clustered (k-means + BIC), one population-weighted representative window per phase; must match or beat the periodic max IPC error from no more detailed windows per cell"
  }},
  "sampled_adaptive": {{
    "interval": {a_interval},
    "detail_len": {a_detail},
    "warmup_len": {a_warmup},
    "target_rel_stderr_pct": {a_target:.3},
    "achieved_max_ipc_rel_stderr_pct": {a_stderr:.3},
    "max_intervals_per_cell": {a_intervals},
    "wall_s": {a_wall:.3},
    "speedup_vs_sequential_cold": {a_speedup:.2},
    "max_ipc_rel_error_pct": {a_err:.3},
    "note": "adaptive plan: windows added in bit-reversal order until the per-cell IPC relative standard error reaches the target (or the window pool is exhausted); the achieved spread must land within 20% of the target"
  }},
  "trace_store": {{
    "cold_store_wall_s": {cs_wall:.3},
    "warm_store_wall_s": {ws_wall:.3},
    "warm_store_speedup_vs_cold_store": {ws_speedup:.2},
    "warm_store_functional_captures": {ws_captures},
    "store_files": {store_files},
    "store_bytes": {store_bytes},
    "note": "cold = fresh Lab over an empty persistent store (captures + compressed write-through); warm = another fresh Lab over the populated store (cold-process stand-in: every trace resolved from disk, zero functional executions); same sequential table1 sweep"
  }},
  "journal": {{
    "journaled_wall_s": {j_wall:.3},
    "journal_overhead_vs_warm_store_pct": {j_overhead:.2},
    "resumed_wall_s": {r_wall:.3},
    "resumed_speedup_vs_journaled": {r_speedup:.2},
    "resumed_replayed_cells": {r_replayed},
    "resumed_recomputed_cells": {r_recomputed},
    "note": "journaled = fresh Lab + fresh journal over the warm trace store (overhead isolates the per-cell cell-file commit path); resumed = another fresh Lab over the populated journal, which must replay every cell with zero simulations and zero functional executions"
  }},
  "speedup_vs_seed": {seed_speedup_json},
  "speedup_vs_pre_trace_layer": {vs_pre_json},
  "comparable_to_seed_baseline": {comparable},
  "parallel_speedup_diagnosis": "Lab::run distributes cells dynamically and result-order-stably; the historical 1.03x parallel speedup was host parallelism, not imbalance - see host_hardware_threads and the flat thread_scaling curve on 1-core containers"
}}
"#,
        sims = warm.sims,
        s_interval = sampling.interval(),
        s_detail = sampling.detail_len(),
        s_warmup = sampling.warmup_len(),
        s_intervals = sampled_intervals,
        s_wall = sampled_wall_s,
        s_speedup = sampled_speedup,
        s_err = 100.0 * max_ipc_rel_error,
        s_stderr = 100.0 * max_rel_stderr,
        p_interval = phase_plan.interval(),
        p_detail = phase_plan.detail_len(),
        p_warmup = phase_plan.warmup_len(),
        p_intervals = phase_judged.max_intervals,
        p_wall = phase_wall_s,
        p_speedup = phase_speedup,
        p_err = 100.0 * phase_judged.max_ipc_rel_error,
        a_interval = adaptive_plan.interval(),
        a_detail = adaptive_plan.detail_len(),
        a_warmup = adaptive_plan.warmup_len(),
        a_target = 100.0 * adaptive_target,
        a_stderr = 100.0 * adaptive_judged.max_rel_stderr,
        a_intervals = adaptive_judged.max_intervals,
        a_wall = adaptive_wall_s,
        a_speedup = adaptive_speedup,
        a_err = 100.0 * adaptive_judged.max_ipc_rel_error,
        cold_wall = cold.wall_s,
        warm_wall = warm.wall_s,
        par_wall = par.wall_s,
        committed = warm.committed,
        cycles = warm.cycles,
        scaling_rows = scaling_json.join(",\n"),
        cs_wall = cold_store.wall_s,
        ws_wall = warm_store.wall_s,
        ws_speedup = warm_store_speedup,
        ws_captures = warm_store_captures,
        j_wall = journaled.wall_s,
        j_overhead = journal_overhead_pct,
        r_wall = resumed.wall_s,
        r_speedup = resumed_speedup,
        r_replayed = resumed_replayed,
        r_recomputed = resumed_recomputed,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
