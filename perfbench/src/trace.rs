//! The traced pass: the workload's timed work repeated through the same
//! public calls, each wrapped in a span, followed by the unit-cost probes.
//! It produces every per-layer metric, the self time of each layer and the
//! part of the wall time no span covers.
//!
//! What can be wrapped from outside is timed: trace captures, store and
//! journal opens, every `Lab::run`, and on `exact-sweep` every cell (the
//! sweep runs cell by cell on the same workers). Layers inside a sampled
//! `Lab::run` — verification, decode, warm trajectory, clustering, windows,
//! journal commits — are estimated spans: a probe's unit cost times the
//! count the workload performed, labelled `estimate` in the span dump.

use crate::grid::{self, Inputs, Verdict, EXACT_BUDGET, INTERVAL, SAMPLED_BUDGET};
use crate::out::Obj;
use crate::probes::{self, UnitCosts};
use crate::spans::{self, Tracer};
use crate::{Args, Workload};
use msp_bench::{parallel_map, Cell, Experiment, Lab, ResultSet};
use msp_branch::PredictorKind;
use msp_isa::{BbvSignature, TraceReader};
use std::collections::BTreeMap;
use std::path::Path;

/// What the traced pass of a workload leaves behind for the metrics.
struct Traced {
    /// Every result set of the timed work, in the untraced order.
    results: Vec<ResultSet>,
    /// Result sets whose cells were simulated (not replayed) here.
    computed: Vec<usize>,
    /// The Lab that did the work, for its counters.
    lab: Lab,
    /// `Lab::run` spans whose insides are estimated, with the result set
    /// each produced.
    opaque: Vec<(usize, usize)>,
    /// Store-capture spans and how many records each captured.
    captures: Vec<(usize, u64)>,
    /// Phase-clustering inputs: the tail interval signatures per kernel.
    bbvs: Vec<Vec<BbvSignature>>,
    verdict: Verdict,
}

pub fn traced_run(args: &Args) -> Obj {
    let tracer = Tracer::new();
    let inputs = &args.inputs;
    let traced = match args.workload {
        Workload::ExactSweep => exact_sweep(&tracer, inputs),
        Workload::SampledColdStore => cold_store(&tracer, inputs, &args.work),
        Workload::SampledWarmStore => warm_store(&tracer, inputs, &args.work),
    };
    let all_cells: Vec<Cell> = traced
        .results
        .iter()
        .flat_map(|r| r.cells().iter().cloned())
        .collect();
    let costs = probes::measure(inputs, &args.work, &traced.bbvs, &all_cells);
    estimate_insides(&tracer, &traced, &costs);
    let spans = tracer.into_spans();
    std::fs::write(args.work.join("spans.jsonl"), spans::render_jsonl(&spans))
        .expect("spans can be written");

    let mut m = Metrics::default();
    layer_metrics(&mut m, &spans);
    pipeline_metrics(&mut m, &traced, &spans, &costs);
    count_metrics(&mut m, &traced);
    unit_metrics(&mut m, args.workload, &spans, &costs);
    // The sampler's accuracy on this workload's kernels, at the exact
    // budget (exact-sweep judges against the exact cells it just ran).
    let exact_ipcs: Vec<f64> = match args.workload {
        Workload::ExactSweep => all_cells.iter().map(Cell::ipc).collect(),
        _ => Lab::new(grid::lab_config(EXACT_BUDGET, None, None))
            .run(&inputs.exact())
            .cells()
            .iter()
            .map(Cell::ipc)
            .collect(),
    };
    let judged = judge_plans(inputs, &exact_ipcs);
    for (name, value) in judged.metrics {
        m.set(&name, value);
    }

    let mut verdict = traced.verdict;
    verdict.attempted += judged.verdict.attempted;
    verdict.failures.extend(judged.verdict.failures);
    let mut lines = Vec::new();
    for r in &traced.results {
        lines.extend(grid::cell_digests(r));
    }
    // Self time per span name, for the record: where inside a layer the
    // time went.
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, t) in spans.iter().zip(spans::self_times(&spans)) {
        *by_name.entry(span.name.as_str()).or_default() += t;
    }
    let mut self_by_span = Obj::new();
    for (name, t) in by_name {
        self_by_span.num(name, t);
    }
    let mut obj = Obj::new();
    obj.obj("metrics", &m.render())
        .obj("self_by_span", &self_by_span)
        .str("digest", &grid::digest_of(&lines))
        .int("attempted", verdict.attempted)
        .strs("failures", &verdict.failures);
    obj
}

// ------------------------------------------------------------ traced work

fn exact_sweep(tracer: &Tracer, inputs: &Inputs) -> Traced {
    let threads = grid::workers();
    let config = msp_bench::LabConfig {
        // Room for every kernel's trace, so the cells find them cached.
        trace_cache_bytes: 4 << 30,
        ..grid::lab_config(EXACT_BUDGET, None, None)
    };
    let (lab, results) = tracer.span("timed", None, 1.0, |root| {
        let lab = Lab::new(config);
        for w in &inputs.kernels {
            tracer.span("isa.capture", Some(root), 1.0, |_| {
                lab.trace(w, EXACT_BUDGET)
            });
        }
        let grid: Vec<(usize, usize)> = (0..inputs.kernels.len())
            .flat_map(|w| (0..4).map(move |m| (w, m)))
            .collect();
        let results = tracer.span("sweep.fork", Some(root), 1.0, |fork| {
            parallel_map(threads, &grid, |&(w, m)| {
                let machine = grid::machines()[m];
                let spec = Experiment::new("exact-sweep")
                    .workload(inputs.kernels[w].clone())
                    .machine(machine)
                    .predictor(PredictorKind::Gshare)
                    .instructions(EXACT_BUDGET);
                let name = format!("pipeline.run.{}", grid::machine_key(machine));
                tracer.span(&name, Some(fork), 1.0 / threads as f64, |_| lab.run(&spec))
            })
        });
        (lab, results)
    });
    // One single-cell result set per cell, in the sweep's cell order.
    let mut verdict = Verdict::default();
    for r in &results {
        verdict.exact(r);
    }
    if lab.capture_count() != inputs.kernels.len() as u64 {
        verdict.fail(format!(
            "traced sweep captured {} traces",
            lab.capture_count()
        ));
    }
    let bbvs = inputs
        .kernels
        .iter()
        .map(|w| {
            msp_isa::Trace::capture_with_checkpoints(w.program(), EXACT_BUDGET, INTERVAL).bbvs()
                [1..]
                .to_vec()
        })
        .collect();
    Traced {
        computed: (0..results.len()).collect(),
        results,
        lab,
        opaque: Vec::new(),
        captures: Vec::new(),
        bbvs,
        verdict,
    }
}

fn cold_store(tracer: &Tracer, inputs: &Inputs, work: &Path) -> Traced {
    let (store, journal) = (crate::store_dir(work), crate::journal_dir(work));
    crate::reset_dir(&store);
    crate::reset_dir(&journal);
    let mut captures = Vec::new();
    let (lab, results, run_span) = tracer.span("timed", None, 1.0, |root| {
        let config = grid::lab_config(SAMPLED_BUDGET, Some(&store), Some(&journal));
        let lab = tracer.span("journal.open", Some(root), 1.0, |_| Lab::new(config));
        for w in &inputs.kernels {
            let id = tracer.span("store.capture", Some(root), 1.0, |id| {
                lab.prefetch_trace(w, SAMPLED_BUDGET, INTERVAL);
                id
            });
            captures.push(id);
        }
        let spec = inputs.phases(SAMPLED_BUDGET);
        let (results, id) = tracer.span("lab.run", Some(root), 1.0, |id| (lab.run(&spec), id));
        (lab, results, id)
    });
    let mut verdict = Verdict::default();
    verdict.sampled(&results);
    let bbvs = stored_bbvs(&lab, inputs);
    let records = stored_records(&lab);
    Traced {
        results: vec![results],
        computed: vec![0],
        lab,
        opaque: vec![(run_span, 0)],
        captures: captures.into_iter().map(|id| (id, records)).collect(),
        bbvs,
        verdict,
    }
}

fn warm_store(tracer: &Tracer, inputs: &Inputs, work: &Path) -> Traced {
    let journal = crate::fresh_journal_copy(work);
    let store = crate::store_dir(work);
    let (lab, phases, periodic, spans) = tracer.span("timed", None, 1.0, |root| {
        let config = grid::lab_config(SAMPLED_BUDGET, Some(&store), Some(&journal));
        let lab = tracer.span("journal.open", Some(root), 1.0, |_| Lab::new(config));
        tracer.span("store.open", Some(root), 1.0, |_| {
            for w in &inputs.kernels {
                let program = w.program();
                for entry in stored_entries(&lab) {
                    if entry.fingerprint == msp_isa::program_fingerprint(program) {
                        TraceReader::open(&entry.path, program).expect("stored trace verifies");
                    }
                }
            }
        });
        let (phases, a) = tracer.span("lab.run.phases", Some(root), 1.0, |id| {
            (lab.run(&inputs.phases(SAMPLED_BUDGET)), id)
        });
        let (periodic, b) = tracer.span("lab.run.periodic", Some(root), 1.0, |id| {
            (lab.run(&inputs.periodic(SAMPLED_BUDGET)), id)
        });
        (lab, phases, periodic, [a, b])
    });
    let mut verdict = Verdict::default();
    verdict.sampled(&phases);
    verdict.sampled(&periodic);
    if lab.capture_count() > 0 || lab.journal_replayed_count() != phases.cells().len() as u64 {
        verdict.fail(format!(
            "traced warm store: {} captures, {} replays",
            lab.capture_count(),
            lab.journal_replayed_count()
        ));
    }
    let bbvs = stored_bbvs(&lab, inputs);
    Traced {
        results: vec![phases, periodic],
        computed: vec![1],
        lab,
        opaque: vec![(spans[0], 0), (spans[1], 1)],
        captures: Vec::new(),
        bbvs,
        verdict,
    }
}

/// The store's trace files (none without a store).
fn stored_entries(lab: &Lab) -> Vec<msp_bench::StoreEntry> {
    lab.trace_store()
        .map(|s| s.entries().expect("the store lists"))
        .unwrap_or_default()
}

/// Records per stored trace (every kernel's file has the same budget).
fn stored_records(lab: &Lab) -> u64 {
    stored_entries(lab).first().map_or(0, |e| e.budget)
}

/// The tail interval signatures of each kernel's stored trace — what the
/// phase-aware plan clusters.
fn stored_bbvs(lab: &Lab, inputs: &Inputs) -> Vec<Vec<BbvSignature>> {
    let entries = stored_entries(lab);
    inputs
        .kernels
        .iter()
        .filter_map(|w| {
            let fp = msp_isa::program_fingerprint(w.program());
            let entry = entries.iter().find(|e| e.fingerprint == fp)?;
            let reader = TraceReader::open(&entry.path, w.program()).ok()?;
            let bbvs = reader.read_bbvs().ok()??;
            Some(bbvs[1..].to_vec())
        })
        .collect()
}

// -------------------------------------------------------------- estimates

/// Windows and head windows per machine simulated by a sampled result set
/// (the head is the first window of every cell).
fn windows_per_machine(results: &ResultSet) -> [(u64, u64); 4] {
    let mut per = [(0u64, 0u64); 4];
    for cell in results.cells() {
        let m = machine_index(cell);
        if let Some(s) = &cell.sampled {
            per[m].0 += s.intervals.saturating_sub(1) as u64;
            per[m].1 += 1;
        }
    }
    per
}

fn machine_index(cell: &Cell) -> usize {
    grid::machines()
        .iter()
        .position(|m| *m == cell.machine)
        .expect("a Table I machine")
}

/// Seconds of detailed simulation a sampled result set costs, per the
/// window probe.
fn window_seconds(results: &ResultSet, costs: &UnitCosts) -> f64 {
    windows_per_machine(results)
        .iter()
        .zip(&costs.machines)
        .map(|(&(windows, heads), c)| windows as f64 * c.window_s + heads as f64 * c.head_s)
        .sum()
}

/// Adds the estimated spans inside capture spans and opaque `Lab::run`
/// spans.
fn estimate_insides(tracer: &Tracer, traced: &Traced, costs: &UnitCosts) {
    let threads = grid::workers() as f64;
    let ns = |records: u64, per: f64| records as f64 * per * 1e-9;
    for &(id, records) in &traced.captures {
        tracer.estimate(
            "isa.capture",
            id,
            ns(records, costs.capture_ns_per_inst),
            1.0,
        );
        tracer.estimate(
            "isa.encode",
            id,
            ns(records, costs.encode_ns_per_record),
            1.0,
        );
        tracer.estimate(
            "isa.verify",
            id,
            ns(records, costs.verify_ns_per_record),
            1.0,
        );
    }
    let kernels = traced.bbvs.len() as u64;
    let records = stored_records(&traced.lab);
    for &(id, r) in &traced.opaque {
        let results = &traced.results[r];
        if !traced.computed.contains(&r) {
            // A pure replay: one journal load per cell.
            let n = results.cells().len() as f64;
            tracer.estimate(
                "journal.load",
                id,
                n * costs.journal_load_ms_per_cell * 1e-3,
                1.0,
            );
            continue;
        }
        // Trace resolution verifies each kernel's file on the main thread;
        // one warming pass per kernel streams (decodes) and absorbs the
        // whole trace on the workers; clustering runs on the main thread;
        // windows run on the workers; commits on the main thread.
        tracer.estimate(
            "isa.verify",
            id,
            ns(kernels * records, costs.verify_ns_per_record),
            1.0,
        );
        tracer.estimate(
            "isa.decode",
            id,
            ns(kernels * records, costs.decode_ns_per_record),
            1.0 / threads,
        );
        tracer.estimate(
            "pipeline.warm",
            id,
            ns(kernels * records, costs.warm_ns_per_inst),
            1.0 / threads,
        );
        if matches!(
            results.sampling(),
            Some(msp_bench::SamplingPlan::PhaseAware { .. })
        ) {
            tracer.estimate(
                "sampling.cluster",
                id,
                kernels as f64 * costs.cluster_ms * 1e-3,
                1.0,
            );
        }
        tracer.estimate(
            "pipeline.window",
            id,
            window_seconds(results, costs),
            1.0 / threads,
        );
        let n = results.cells().len() as f64;
        tracer.estimate(
            "journal.commit",
            id,
            n * costs.journal_commit_ms_per_cell * 1e-3,
            1.0,
        );
    }
}

// ---------------------------------------------------------------- metrics

#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn render(&self) -> Obj {
        let mut obj = Obj::new();
        for (name, value) in &self.0 {
            obj.num(name, *value);
        }
        obj
    }
}

/// Self time per layer, the unattributed remainder and the traced wall.
fn layer_metrics(m: &mut Metrics, spans: &[spans::Span]) {
    let own = spans::self_times(spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for layer in [
        "isa",
        "pipeline",
        "store",
        "journal",
        "sampling",
        "sweep",
        "unattributed",
    ] {
        by_layer.insert(layer, 0.0);
    }
    for (span, t) in spans.iter().zip(own) {
        *by_layer.entry(spans::layer_of(&span.name)).or_default() += t;
    }
    for (layer, t) in by_layer {
        match layer {
            "unattributed" => m.set("lab.unattributed_s", t),
            _ => m.set(&format!("self_s.{layer}"), t),
        }
    }
    m.set("trace.wall_s", spans[0].duration());
}

fn pipeline_metrics(m: &mut Metrics, traced: &Traced, spans: &[spans::Span], costs: &UnitCosts) {
    let mut cycles = [0u64; 4];
    for r in &traced.results {
        for cell in r.cells() {
            cycles[machine_index(cell)] += cell.result.stats.cycles;
        }
    }
    let machines = grid::machines();
    let mut cell_max = 0.0f64;
    for (i, machine) in machines.into_iter().enumerate() {
        let key = grid::machine_key(machine);
        let name = format!("pipeline.run.{key}");
        let cell_spans: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(spans::Span::duration)
            .collect();
        let (run_s, ns_per_cycle) = if cell_spans.is_empty() {
            // Sampled: the window probe's cost times the windows simulated.
            let mut run_s = 0.0;
            for &r in &traced.computed {
                let (windows, heads) = windows_per_machine(&traced.results[r])[i];
                let cost = &costs.machines[i];
                let seconds = windows as f64 * cost.window_s + heads as f64 * cost.head_s;
                run_s += seconds;
                cell_max = cell_max.max(seconds / heads.max(1) as f64);
            }
            (run_s, costs.machines[i].ns_per_cycle)
        } else {
            cell_max = cell_spans.iter().copied().fold(cell_max, f64::max);
            let run_s: f64 = cell_spans.iter().sum();
            (run_s, 1e9 * run_s / cycles[i] as f64)
        };
        m.set(&format!("pipeline.run_s.{key}"), run_s);
        m.set(&format!("pipeline.ns_per_cycle.{key}"), ns_per_cycle);
        m.set(&format!("pipeline.cycles.{key}"), cycles[i] as f64);
    }
    m.set("pipeline.cell_s.max", cell_max);
    m.set("pipeline.warm.ns_per_inst", costs.warm_ns_per_inst);
    m.set("pipeline.window.ms", costs.window_ms());
}

/// The `SimStats` counts of the workload's timed work, summed over its
/// cells (sampled cells count their measured windows), and the store,
/// journal and sampling counters.
fn count_metrics(m: &mut Metrics, traced: &Traced) {
    let mut sum: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut windows, mut detail) = (0u64, 0u64);
    for (r, results) in traced.results.iter().enumerate() {
        for cell in results.cells() {
            let s = &cell.result.stats;
            let a = &s.activity;
            for (name, v) in [
                ("pipeline.recoveries", s.recoveries),
                ("pipeline.wrong_path_insts", s.executed.wrong_path),
                ("state.sct_lookups", a.sct_lookups),
                ("state.lcs_propagations", a.lcs_propagations),
                ("state.reliq_wakeups", a.reliq_wakeups),
                (
                    "state.rf_accesses",
                    a.rf_reads_total() + a.rf_writes_total(),
                ),
                ("state.cpr_checkpoint_allocs", a.checkpoint_allocs),
                ("mem.dcache_accesses", a.dcache_accesses),
                ("mem.dcache_misses", s.dcache_misses),
                ("mem.lsq_searches", a.lq_searches + a.sq_searches),
                ("branch.predictor_lookups", a.predictor_lookups),
                ("branch.mispredictions", s.mispredictions),
            ] {
                *sum.entry(name).or_default() += v;
            }
            if let (Some(sampled), true) = (&cell.sampled, traced.computed.contains(&r)) {
                windows += sampled.intervals as u64;
                detail += sampled.measured_instructions;
            }
        }
    }
    for (name, v) in sum {
        m.set(name, v as f64);
    }
    let lab = &traced.lab;
    let store_bytes = lab
        .trace_store()
        .map_or(0, |s| s.total_bytes().expect("the store lists"));
    m.set("store.bytes", store_bytes as f64);
    m.set("store.captures", lab.capture_count() as f64);
    m.set("store.disk_hits", lab.disk_hit_count() as f64);
    m.set(
        "journal.replayed_cells",
        lab.journal_replayed_count() as f64,
    );
    m.set(
        "journal.recorded_cells",
        lab.journal_recorded_count() as f64,
    );
    m.set("sampling.windows", windows as f64);
    m.set("sampling.detail_insts", detail as f64);
}

fn unit_metrics(m: &mut Metrics, workload: Workload, spans: &[spans::Span], u: &UnitCosts) {
    let span_sum = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| !s.estimate && names.contains(&s.name.as_str()))
            .map(spans::Span::duration)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    };
    m.set("isa.capture.ns_per_inst", u.capture_ns_per_inst);
    m.set("isa.encode.ns_per_record", u.encode_ns_per_record);
    m.set("isa.file.bytes_per_record", u.bytes_per_record);
    m.set("isa.verify.ns_per_record", u.verify_ns_per_record);
    m.set("isa.decode.ns_per_record", u.decode_ns_per_record);
    m.set("isa.checkpoint.us_per_restore", u.checkpoint_us_per_restore);
    m.set(
        "store.capture_s",
        span_sum(&["isa.capture", "store.capture"]),
    );
    m.set(
        "store.open_s",
        match workload {
            Workload::SampledWarmStore => span_sum(&["store.open"]),
            _ => u.store_open_s,
        },
    );
    m.set("sampling.cluster.ms", u.cluster_ms);
    m.set("journal.commit.ms_per_cell", u.journal_commit_ms_per_cell);
    m.set("journal.open.ms", u.journal_open_ms);
    m.set("journal.load.ms_per_cell", u.journal_load_ms_per_cell);
    m.set("state.manager.ns_per_rename", u.manager_ns_per_rename);
    m.set("state.lcs.ns_per_clock", u.lcs_ns_per_clock);
    m.set("state.sct.ns_per_op", u.sct_ns_per_op);
    m.set("state.reliq.ns_per_op", u.reliq_ns_per_op);
    m.set("mem.cache.ns_per_access", u.cache_ns_per_access);
    m.set("branch.gshare.ns_per_lookup", u.gshare_ns_per_lookup);
    m.set("branch.tage.ns_per_lookup", u.tage_ns_per_lookup);
}

// ------------------------------------------------------------ sampled plans

struct Judged {
    metrics: Vec<(String, f64)>,
    verdict: Verdict,
}

/// Runs the periodic, phase-aware and adaptive plans at [`EXACT_BUDGET`]
/// (a fresh Lab each, as a user's sampled sweep would) and reports each
/// plan's worst per-cell IPC error against `exact`, plus the adaptive
/// plan's worst error over its claimed standard error.
fn judge_plans(inputs: &Inputs, exact: &[f64]) -> Judged {
    let mut verdict = Verdict::default();
    let mut metrics = Vec::new();
    let plans = [
        ("periodic", inputs.periodic(EXACT_BUDGET)),
        ("phases", inputs.phases(EXACT_BUDGET)),
        ("adaptive", inputs.adaptive(EXACT_BUDGET)),
    ];
    for (name, spec) in plans {
        let lab = Lab::new(grid::lab_config(EXACT_BUDGET, None, None));
        let results = lab.run(&spec);
        verdict.sampled(&results);
        let (mut worst, mut worst_ratio) = (0.0f64, 0.0f64);
        for (cell, &exact_ipc) in results.cells().iter().zip(exact) {
            let Some(s) = &cell.sampled else { continue };
            let err = (s.mean_ipc - exact_ipc).abs() / exact_ipc;
            worst = worst.max(err);
            if let Some(stderr) = s.ipc_rel_stderr.filter(|e| *e > 0.0) {
                worst_ratio = worst_ratio.max(err / stderr);
            }
        }
        metrics.push((format!("ipc_err_{name}_pct"), 100.0 * worst));
        if name == "adaptive" {
            metrics.push(("adaptive_err_over_stderr".to_string(), worst_ratio));
        }
    }
    Judged { metrics, verdict }
}
