//! Unit-cost probes: each times one public call of one layer on the
//! workload's own kernels and reports a cost per operation.
//!
//! The traced pass multiplies these by the counts its workload performed
//! to estimate the layers that run inside `Lab::run`, where no call can be
//! wrapped from outside. The state, memory and branch probes are the
//! operations of the criterion micro-benches in
//! `crates/msp-bench/benches/{state_structures,predictors,memory}.rs`,
//! with the predictors and the cache fed the kernels' own branch and
//! address streams.

use crate::grid::{self, Inputs, INTERVAL};
use msp_bench::{cluster_phases, Cell, ExperimentJournal, TraceStore, DEFAULT_MAX_PHASES};
use msp_branch::{DirectionPredictor, GsharePredictor, TageConfig, TagePredictor};
use msp_isa::{
    execute_step, write_trace_to_path, ArchReg, ArchState, BbvSignature, Trace, TraceReader,
};
use msp_mem::{MemoryConfig, MemoryHierarchy};
use msp_pipeline::{MachineKind, SimConfig, SimStats, Simulator, WarmState};
use msp_state::{LcsUnit, MspConfig, MspStateManager, RelIq, RenameRequest, Sct, StateId};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Committed instructions of each kernel's probe trace.
const PROBE_BUDGET: u64 = 2_000_000;
/// Interval starts measured per machine and kernel by the window probe.
const PROBE_WINDOWS: usize = 6;

/// Per-machine detailed-simulation costs from the window probe.
#[derive(Default, Clone, Copy)]
pub struct MachineCost {
    /// Seconds per sampled window (warm-up plus measured detail).
    pub window_s: f64,
    /// Seconds of the exact head window every sampled cell starts with.
    pub head_s: f64,
    /// Host nanoseconds per simulated cycle over the probed windows.
    pub ns_per_cycle: f64,
}

/// Every unit cost the traced pass reports or multiplies.
#[derive(Default)]
pub struct UnitCosts {
    pub capture_ns_per_inst: f64,
    pub encode_ns_per_record: f64,
    pub bytes_per_record: f64,
    pub verify_ns_per_record: f64,
    pub decode_ns_per_record: f64,
    pub checkpoint_us_per_restore: f64,
    pub store_open_s: f64,
    pub warm_ns_per_inst: f64,
    pub machines: [MachineCost; 4],
    pub cluster_ms: f64,
    pub journal_commit_ms_per_cell: f64,
    pub journal_open_ms: f64,
    pub journal_load_ms_per_cell: f64,
    pub manager_ns_per_rename: f64,
    pub lcs_ns_per_clock: f64,
    pub sct_ns_per_op: f64,
    pub reliq_ns_per_op: f64,
    pub cache_ns_per_access: f64,
    pub gshare_ns_per_lookup: f64,
    pub tage_ns_per_lookup: f64,
}

impl UnitCosts {
    /// Mean sampled-window cost over the four machines, in milliseconds.
    pub fn window_ms(&self) -> f64 {
        1e3 * self.machines.iter().map(|m| m.window_s).sum::<f64>() / 4.0
    }
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Nanoseconds per operation of `batch` (which performs `ops` operations):
/// the median of five timed rounds of enough batches to fill 20 ms each.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let (_, once) = secs(&mut batch);
    let reps = ((0.02 / once.max(1e-9)) as u64).clamp(1, 1_000_000);
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let (_, t) = secs(|| (0..reps).for_each(|_| batch()));
            1e9 * t / (reps * ops) as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[2]
}

/// Runs every probe on the workload's kernels. `bbvs` are the interval
/// signatures the workload's phase-aware plan clusters, `cells` a result
/// set's cells to journal.
pub fn measure(
    inputs: &Inputs,
    work: &Path,
    bbvs: &[Vec<BbvSignature>],
    cells: &[Cell],
) -> UnitCosts {
    let mut u = UnitCosts::default();
    let dir = work.join("probe-store");
    crate::reset_dir(&dir);
    let store = TraceStore::open(&dir, u64::MAX).expect("probe store opens");
    let (mut records, mut capture_s, mut encode_s, mut bytes) = (0u64, 0.0, 0.0, 0u64);
    let (mut verify_s, mut decode_s, mut restore_s, mut restores) = (0.0, 0.0, 0.0, 0u64);
    let (mut traces, mut readers) = (Vec::new(), Vec::new());
    for w in &inputs.kernels {
        let program = w.program();
        // Functional execution alone: the work every capture path shares.
        let (_, t) = secs(|| {
            let mut state = ArchState::new(program);
            for _ in 0..PROBE_BUDGET {
                black_box(execute_step(&mut state, program).expect("kernels run past the budget"));
            }
        });
        capture_s += t;
        let trace = Trace::capture_with_checkpoints(program, PROBE_BUDGET, INTERVAL);
        records += trace.len();
        let path = store.path_for(program, PROBE_BUDGET, INTERVAL);
        let (written, t) = secs(|| write_trace_to_path(&path, program, &trace));
        written.expect("probe trace can be written");
        encode_s += t;
        bytes += std::fs::metadata(&path).expect("probe trace exists").len();
        let (reader, t) = secs(|| TraceReader::open(&path, program).expect("probe trace verifies"));
        verify_s += t;
        let reader = Arc::new(reader);
        let mut cursor = reader.cursor().expect("probe trace opens");
        let (_, t) = secs(|| {
            let mut i = 0;
            while let Some(rec) = cursor.get(program, i) {
                black_box(rec);
                i += 1;
            }
        });
        decode_s += t;
        let (n, t) = secs(|| {
            (0..trace.checkpoint_count() as u64)
                .filter(|k| black_box(cursor.checkpoint_at(k * INTERVAL)).is_some())
                .count() as u64
        });
        restore_s += t;
        restores += n;
        traces.push(Arc::new(trace));
        readers.push(reader);
    }
    let per_record = |s: f64| 1e9 * s / records as f64;
    u.capture_ns_per_inst = per_record(capture_s);
    u.encode_ns_per_record = per_record(encode_s);
    u.verify_ns_per_record = per_record(verify_s);
    u.decode_ns_per_record = per_record(decode_s);
    u.bytes_per_record = bytes as f64 / records as f64;
    u.checkpoint_us_per_restore = 1e6 * restore_s / restores.max(1) as f64;
    u.store_open_s = secs(|| {
        let store = TraceStore::open(&dir, u64::MAX).expect("probe store reopens");
        for w in &inputs.kernels {
            black_box(
                store
                    .open_reader(w.program(), PROBE_BUDGET, INTERVAL)
                    .expect("stored"),
            );
        }
    })
    .1;
    windows(inputs, &traces, &readers, &mut u);
    clustering(inputs, bbvs, &mut u);
    journal(work, cells, &mut u);
    structures(&traces, &mut u);
    crate::reset_dir(&dir);
    u
}

/// The warm-trajectory and window probes, shaped like the library's
/// sampled path: one functional warming pass per kernel that snapshots at
/// every interval start, then per machine the exact head window and a
/// sampled window at each probed start, each resumed from a cursor over
/// the stored probe trace (so a window pays its checkpoint restore and
/// block decode, as on a store).
fn windows(
    inputs: &Inputs,
    traces: &[Arc<Trace>],
    readers: &[Arc<TraceReader>],
    u: &mut UnitCosts,
) {
    let plan = msp_bench::SamplingPlan::periodic(INTERVAL);
    let (detail, warmup) = (plan.detail_len(), plan.warmup_len());
    let head = (INTERVAL / 3).max(detail);
    let (mut warm_s, mut warm_insts) = (0.0, 0u64);
    let mut sums = [(0.0f64, 0.0f64, 0.0f64, 0u64); 4];
    for ((w, trace), reader) in inputs.kernels.iter().zip(traces).zip(readers) {
        let program = w.program();
        let source = || reader.cursor().expect("probe trace opens");
        let base = SimConfig::machine(MachineKind::Baseline, msp_branch::PredictorKind::Gshare);
        let (snapshots, t) = secs(|| {
            let mut warm = WarmState::for_config(program, &base);
            let mut snapshots = Vec::new();
            for (i, rec) in trace.records().iter().enumerate() {
                let i = i as u64;
                if i > 0 && i.is_multiple_of(INTERVAL) {
                    snapshots.push((i, warm.clone()));
                }
                warm.absorb(rec);
            }
            snapshots
        });
        warm_s += t;
        warm_insts += trace.len();
        for (m, machine) in grid::machines().into_iter().enumerate() {
            let config = SimConfig::machine(machine, msp_branch::PredictorKind::Gshare);
            let (r, t) =
                secs(|| Simulator::resume_from(program, config.clone(), source(), 0, 0).run(head));
            sums[m].1 += t;
            sums[m].2 += r.stats.cycles as f64;
            for (start, snapshot) in snapshots.iter().take(PROBE_WINDOWS) {
                let (cycles, t) = secs(|| {
                    let mut sim = Simulator::resume_warmed(
                        program,
                        config.clone(),
                        source(),
                        *start,
                        snapshot.clone(),
                    );
                    sim.run(warmup);
                    let prefix: SimStats = sim.stats().clone();
                    sim.run(prefix.committed + detail).stats.cycles
                });
                sums[m].0 += t;
                sums[m].2 += cycles as f64;
                sums[m].3 += 1;
            }
        }
    }
    u.warm_ns_per_inst = 1e9 * warm_s / warm_insts as f64;
    let kernels = inputs.kernels.len() as f64;
    for (cost, (window_s, head_s, cycles, windows)) in u.machines.iter_mut().zip(sums) {
        *cost = MachineCost {
            window_s: window_s / windows.max(1) as f64,
            head_s: head_s / kernels,
            ns_per_cycle: 1e9 * (window_s + head_s) / cycles,
        };
    }
}

/// `cluster_phases` on the workload's own interval signatures.
fn clustering(inputs: &Inputs, bbvs: &[Vec<BbvSignature>], u: &mut UnitCosts) {
    let calls = bbvs.len().max(1) as u64;
    u.cluster_ms = 1e-6
        * ns_per_op(calls, || {
            for set in bbvs {
                black_box(cluster_phases(set, DEFAULT_MAX_PHASES, inputs.cluster_seed));
            }
        });
}

/// Journal commit, open and load on the workload's own cells, in a
/// scratch journal.
fn journal(work: &Path, cells: &[Cell], u: &mut UnitCosts) {
    let dir = work.join("probe-journal");
    crate::reset_dir(&dir);
    let n = cells.len().max(1) as f64;
    let fingerprints: Vec<u64> = (0..cells.len() as u64)
        .map(|i| grid::fnv(&i.to_le_bytes()))
        .collect();
    let journal = ExperimentJournal::open(&dir);
    let (_, t) = secs(|| {
        for (fp, cell) in fingerprints.iter().zip(cells) {
            journal.record_cell(*fp, cell);
        }
    });
    u.journal_commit_ms_per_cell = 1e3 * t / n;
    drop(journal);
    let (journal, t) = secs(|| ExperimentJournal::open(&dir));
    u.journal_open_ms = 1e3 * t;
    let (_, t) = secs(|| {
        for fp in &fingerprints {
            black_box(journal.load_cell(*fp).expect("journaled cell loads"));
        }
    });
    u.journal_load_ms_per_cell = 1e3 * t / n;
    drop(journal);
    crate::reset_dir(&dir);
}

/// The state-structure, predictor and cache operations.
fn structures(traces: &[Arc<Trace>], u: &mut UnitCosts) {
    u.sct_ns_per_op = ns_per_op(200, || {
        let mut sct = Sct::new(0, 16);
        let mut state = 1u64;
        for _ in 0..200 {
            if let Ok(slot) = sct.allocate(StateId::new(state)) {
                sct.mark_ready(slot);
                state += 1;
            } else {
                sct.release_committed(StateId::new(state));
            }
        }
        black_box(sct.live_entries());
    });
    let contributions: Vec<Option<StateId>> =
        (0..64).map(|i| Some(StateId::new(1000 + i))).collect();
    let mut lcs = LcsUnit::new(1);
    u.lcs_ns_per_clock = ns_per_op(1, || {
        black_box(lcs.clock(contributions.iter().copied(), StateId::ZERO));
    });
    let mut reliq = RelIq::new(16, 128);
    u.reliq_ns_per_op = ns_per_op(128 + 16 + 128, || {
        for slot in 0..128 {
            reliq.set_use(slot % 16, slot);
        }
        let mut any = false;
        for row in 0..16 {
            any |= reliq.any_use(row);
        }
        for slot in 0..128 {
            reliq.clear_use(slot % 16, slot);
        }
        black_box(any);
    });
    u.manager_ns_per_rename = ns_per_op(500, || {
        let mut msp = MspStateManager::new(MspConfig::n_sp(16));
        for i in 0..500usize {
            let dest = ArchReg::int(1 + (i % 24));
            let src = ArchReg::int(1 + ((i + 7) % 24));
            if let Ok(out) = msp.rename_group(&[RenameRequest::new(Some(dest), &[src])]) {
                if let Some(d) = out.renamed[0].dest {
                    msp.mark_ready(d.phys);
                }
            }
            msp.clock_commit();
        }
        black_box(msp.stats().states_committed);
    });
    // The kernels' own conditional-branch and data-address streams (the
    // first 64k of each, so one round stays short).
    let mut branches = Vec::new();
    let mut addresses = Vec::new();
    for trace in traces {
        for rec in trace.records().iter().take(1 << 20) {
            if rec.inst.is_conditional_branch() && branches.len() < traces.len() << 16 {
                branches.push((rec.pc, rec.taken));
            }
            if let Some(addr) = rec
                .mem_addr
                .filter(|_| addresses.len() < traces.len() << 16)
            {
                addresses.push(addr);
            }
        }
    }
    let predictor_ns = |p: &mut dyn DirectionPredictor| {
        ns_per_op(branches.len() as u64, || {
            let mut correct = 0u32;
            for &(pc, taken) in &branches {
                correct += u32::from(p.predict(pc) == taken);
                p.update(pc, taken);
            }
            black_box(correct);
        })
    };
    u.gshare_ns_per_lookup = predictor_ns(&mut GsharePredictor::new(16));
    u.tage_ns_per_lookup = predictor_ns(&mut TagePredictor::new(TageConfig::paper()));
    let mut memory = MemoryHierarchy::new(MemoryConfig::paper());
    u.cache_ns_per_access = ns_per_op(addresses.len() as u64, || {
        let mut cycles = 0u64;
        for &addr in &addresses {
            cycles += memory.load_latency(addr);
        }
        black_box(cycles);
    });
}
