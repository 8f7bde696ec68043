//! The benchmark's inputs and its correctness checks: which kernels a seed
//! selects, the Table I grid experiments each workload runs, and the
//! per-cell checks that feed `passed_pct`.

use msp_bench::{
    reports, Cell, Experiment, LabConfig, ResultSet, SamplingPlan, DEFAULT_CLUSTER_SEED,
    DEFAULT_SAMPLE_INTERVAL, DEFAULT_SAMPLE_TARGET_STDERR,
};
use msp_branch::PredictorKind;
use msp_pipeline::MachineKind;
use msp_workloads::{by_name, spec_fp_like, spec_int_like, Variant, Workload};
use std::path::Path;

/// Committed instructions per cell of the exact sweep (the ROADMAP
/// reference sweep).
pub const EXACT_BUDGET: u64 = 2_000_000;
/// Committed instructions per cell of the sampled workloads.
pub const SAMPLED_BUDGET: u64 = 20_000_000;
/// The sampling interval of every plan (also the checkpoint spacing).
pub const INTERVAL: u64 = DEFAULT_SAMPLE_INTERVAL;
/// The reference kernels of seed 0.
pub const REFERENCE_KERNELS: [&str; 3] = ["gzip", "vpr", "swim"];

/// The inputs a seed selects.
pub struct Inputs {
    pub kernels: Vec<Workload>,
    /// The k-means++ seed of every phase-aware plan.
    pub cluster_seed: u64,
}

impl Inputs {
    /// Seed 0 is the reference set (gzip, vpr, swim) with the library's
    /// default clustering seed. Any other seed keeps the reference kernels
    /// and derives the clustering seed from the seed; with `draw_kernels`
    /// it also draws two of the 12 SPECint kernels and one of the 6 SPECfp
    /// kernels (the held-out check; see README.md for why the command's
    /// default keeps the reference kernels).
    pub fn from_seed(seed: u64, draw_kernels: bool) -> Inputs {
        let reference = || -> Vec<Workload> {
            REFERENCE_KERNELS
                .iter()
                .map(|name| by_name(name, Variant::Original).expect("reference kernel exists"))
                .collect()
        };
        if seed == 0 {
            return Inputs {
                kernels: reference(),
                cluster_seed: DEFAULT_CLUSTER_SEED,
            };
        }
        let mut rng = SplitMix(seed);
        let cluster_seed = rng.next();
        let kernels = if draw_kernels {
            let mut int = spec_int_like(Variant::Original);
            let first = int.remove((rng.next() % int.len() as u64) as usize);
            let second = int.remove((rng.next() % int.len() as u64) as usize);
            let mut fp = spec_fp_like(Variant::Original);
            let third = fp.remove((rng.next() % fp.len() as u64) as usize);
            vec![first, second, third]
        } else {
            reference()
        };
        Inputs {
            kernels,
            cluster_seed,
        }
    }

    pub fn kernel_names(&self) -> Vec<String> {
        self.kernels.iter().map(|w| w.name().to_string()).collect()
    }

    fn grid(&self, name: &str, budget: u64) -> Experiment {
        Experiment::new(name)
            .workloads(self.kernels.iter().cloned())
            .machines(machines())
            .predictor(PredictorKind::Gshare)
            .instructions(budget)
    }

    /// The exact Table I sweep at [`EXACT_BUDGET`].
    pub fn exact(&self) -> Experiment {
        self.grid("exact-sweep", EXACT_BUDGET)
    }

    /// The phase-aware (SimPoint) grid at `budget`.
    pub fn phases(&self, budget: u64) -> Experiment {
        self.grid("phases", budget)
            .sampling(SamplingPlan::phase_aware(INTERVAL).with_seed(self.cluster_seed))
    }

    /// The periodic (SMARTS) grid at `budget`.
    pub fn periodic(&self, budget: u64) -> Experiment {
        self.grid("periodic", budget)
            .sampling(SamplingPlan::periodic(INTERVAL))
    }

    /// The adaptive grid at `budget`: the periodic window shape on a twice
    /// finer interval, stopping at the library's default 2% target — the
    /// configuration the pipeline bench judges.
    pub fn adaptive(&self, budget: u64) -> Experiment {
        let periodic = SamplingPlan::periodic(INTERVAL);
        self.grid("adaptive", budget).sampling(
            SamplingPlan::adaptive(DEFAULT_SAMPLE_TARGET_STDERR)
                .with_interval(INTERVAL / 2)
                .with_window(periodic.detail_len(), periodic.warmup_len()),
        )
    }
}

/// The four Table I machines.
pub fn machines() -> [MachineKind; 4] {
    reports::reference_machines()
}

/// The short metric label of a Table I machine.
pub fn machine_key(machine: MachineKind) -> &'static str {
    match machine {
        MachineKind::Baseline => "baseline",
        MachineKind::IdealMsp => "ideal",
        m if m == MachineKind::cpr() => "cpr",
        _ => "16sp",
    }
}

/// Worker threads: two, or fewer on a host with fewer CPUs.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The Lab configuration of every workload: its budget, the worker count
/// and, for the sampled workloads, the store and journal directories.
pub fn lab_config(budget: u64, store: Option<&Path>, journal: Option<&Path>) -> LabConfig {
    LabConfig {
        instructions: budget,
        threads: workers(),
        trace_dir: store.map(Path::to_path_buf),
        journal_dir: journal.map(Path::to_path_buf),
        ..LabConfig::default()
    }
}

/// SplitMix64: a tiny, fixed, well-mixed generator so a seed selects the
/// same inputs on every platform and release.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ------------------------------------------------------------------ checks

/// The outcome of checking a set of cells.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    /// Checks every cell of an exact result set: not truncated by the
    /// watchdog, and at least the budget committed (the kernels run far
    /// past every budget here, so committing less means the run stopped
    /// early).
    pub fn exact(&mut self, results: &ResultSet) {
        for cell in results.cells() {
            self.attempted += 1;
            let stats = &cell.result.stats;
            if cell.result.truncated_by_watchdog {
                self.fail(format!("{}: truncated by the watchdog", label(cell)));
            } else if stats.committed < results.instructions() {
                self.fail(format!(
                    "{}: committed {} of {} instructions",
                    label(cell),
                    stats.committed,
                    results.instructions()
                ));
            }
        }
    }

    /// Checks every cell of a sampled result set: not truncated, and
    /// carrying a finite, positive estimate from at least one window.
    pub fn sampled(&mut self, results: &ResultSet) {
        for cell in results.cells() {
            self.attempted += 1;
            match &cell.sampled {
                _ if cell.result.truncated_by_watchdog => self.fail(format!(
                    "{}: a window was truncated by the watchdog",
                    label(cell)
                )),
                None => self.fail(format!("{}: sampled cell has no estimate", label(cell))),
                Some(s) if s.intervals == 0 || !(s.mean_ipc.is_finite() && s.mean_ipc > 0.0) => {
                    self.fail(format!("{}: empty or non-finite estimate", label(cell)))
                }
                Some(_) => {}
            }
        }
    }
}

pub fn label(cell: &Cell) -> String {
    format!("{}/{}", cell.workload, machine_key(cell.machine))
}

// ------------------------------------------------------------------ digest

/// FNV-1a over a string: the per-cell and per-workload digests of the
/// simulated statistics, so two commits' simulated behaviour can be
/// compared by one number and, cell by cell, by `cell_digests`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of one cell: its canonical statistics, its activity
/// counters and (for sampled cells) the estimate's bits.
pub fn cell_digest(cell: &Cell) -> u64 {
    let stats = &cell.result.stats;
    let mut text = format!(
        "{}|{}|{}|{:?}",
        label(cell),
        stats.canonical_string(),
        cell.result.truncated_by_watchdog,
        stats.activity
    );
    if let Some(s) = &cell.sampled {
        text.push_str(&format!(
            "|{}|{}|{}|{:x}",
            s.intervals,
            s.measured_instructions,
            s.measured_cycles,
            s.mean_ipc.to_bits()
        ));
    }
    fnv(text.as_bytes())
}

/// `workload/machine=digest` for every cell, in cell order.
pub fn cell_digests(results: &ResultSet) -> Vec<String> {
    results
        .cells()
        .iter()
        .map(|c| format!("{}={:016x}", label(c), cell_digest(c)))
        .collect()
}

/// The digest of a whole workload's simulated behaviour: the FNV of its
/// cell digests, in order.
pub fn digest_of(lines: &[String]) -> String {
    format!("{:016x}", fnv(lines.join("\n").as_bytes()))
}
