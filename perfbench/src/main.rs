//! `msp-perfbench`: the measuring process of the repository benchmark.
//!
//! `run.py` drives it; every invocation runs one step in a fresh process
//! and prints one JSON object on stdout:
//!
//! ```text
//! msp-perfbench <setup|iter|trace> --workload <name> --seed <n>
//!               --work <dir> --clk-tck <hz> [--draw-kernels]
//! ```
//!
//! * `setup` — prepares `<dir>` for the workload and times it (`setup_s`);
//! * `iter` — one timed iteration of the workload in this fresh process:
//!   wall, CPU, peak RSS, simulated cycles, the correctness checks and the
//!   digest of the simulated statistics;
//! * `trace` — the traced pass, the unit-cost probes and the sampled plans
//!   judged against exact simulation, which produce the per-layer metrics
//!   (see `trace.rs`).
//!
//! Workloads: `exact-sweep`, `sampled-cold-store`, `sampled-warm-store`
//! (README.md says why each exists).

mod grid;
mod host;
mod out;
mod probes;
mod spans;
mod trace;

use grid::{Inputs, Verdict, EXACT_BUDGET, SAMPLED_BUDGET};
use msp_bench::{Lab, LabConfig, ResultSet};
use out::Obj;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ExactSweep,
    SampledColdStore,
    SampledWarmStore,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "exact-sweep" => Some(Workload::ExactSweep),
            "sampled-cold-store" => Some(Workload::SampledColdStore),
            "sampled-warm-store" => Some(Workload::SampledWarmStore),
            _ => None,
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub mode: String,
    pub workload: Workload,
    pub inputs: Inputs,
    pub work: PathBuf,
    pub clk_tck: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode")?;
    let (mut workload, mut seed, mut work, mut clk_tck, mut draw) =
        (None, None, None, 100.0, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?)
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--work" => work = Some(PathBuf::from(value()?)),
            "--clk-tck" => {
                clk_tck = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--clk-tck: {e}"))?
            }
            "--draw-kernels" => draw = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        inputs: Inputs::from_seed(seed.ok_or("missing --seed")?, draw),
        work: work.ok_or("missing --work")?,
        clk_tck,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("msp-perfbench: {e}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.work).expect("work directory can be created");
    let result = match args.mode.as_str() {
        "setup" => setup(&args),
        "iter" => iterate(&args),
        "trace" => trace::traced_run(&args),
        other => {
            eprintln!("msp-perfbench: unknown mode {other}");
            std::process::exit(2);
        }
    };
    println!("{}", result.render());
}

// ------------------------------------------------------------- work layout

pub fn store_dir(work: &Path) -> PathBuf {
    work.join("store")
}

/// The journal the warm-store set-up populates; iterations copy it.
pub fn setup_journal_dir(work: &Path) -> PathBuf {
    work.join("journal-setup")
}

/// The journal an iteration writes into.
pub fn journal_dir(work: &Path) -> PathBuf {
    work.join("journal")
}

fn setup_cells_path(work: &Path) -> PathBuf {
    work.join("setup-cells.txt")
}

pub fn reset_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("scratch directory can be removed");
    }
}

/// A fresh copy of the set-up journal for one warm-store pass, so every
/// pass replays the same 12 cells and records the same 12 new ones.
pub fn fresh_journal_copy(work: &Path) -> PathBuf {
    let dst = journal_dir(work);
    reset_dir(&dst);
    std::fs::create_dir_all(&dst).expect("journal copy can be created");
    for entry in std::fs::read_dir(setup_journal_dir(work)).expect("set-up journal exists") {
        let entry = entry.expect("journal entry is readable");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("journal file copies");
    }
    dst
}

// ------------------------------------------------------------------- setup

fn setup(args: &Args) -> Obj {
    let start = Instant::now();
    let mut obj = Obj::new();
    match args.workload {
        Workload::ExactSweep | Workload::SampledColdStore => {
            // Build the kernels and smoke-test the grid at a tiny budget,
            // so a broken build fails here, before anything is timed.
            let lab = Lab::new(LabConfig {
                threads: grid::workers(),
                ..LabConfig::default()
            });
            let smoke = lab.run(&args.inputs.exact().instructions(20_000));
            let mut verdict = Verdict::default();
            verdict.exact(&smoke);
            assert!(
                verdict.failures.is_empty(),
                "smoke grid failed: {:?}",
                verdict.failures
            );
            reset_dir(&store_dir(&args.work));
            reset_dir(&journal_dir(&args.work));
        }
        Workload::SampledWarmStore => {
            // Populate the trace store and the journal with the phase-aware
            // grid, as a cold-store pass does, and remember its cells so
            // replays can be compared against them.
            reset_dir(&store_dir(&args.work));
            reset_dir(&setup_journal_dir(&args.work));
            let lab = Lab::new(grid::lab_config(
                SAMPLED_BUDGET,
                Some(&store_dir(&args.work)),
                Some(&setup_journal_dir(&args.work)),
            ));
            let results = lab.run(&args.inputs.phases(SAMPLED_BUDGET));
            let mut verdict = Verdict::default();
            verdict.sampled(&results);
            assert!(
                verdict.failures.is_empty(),
                "set-up grid failed: {:?}",
                verdict.failures
            );
            let lines = grid::cell_digests(&results);
            std::fs::write(setup_cells_path(&args.work), lines.join("\n"))
                .expect("set-up cells can be written");
            obj.str("digest", &grid::digest_of(&lines));
        }
    }
    obj.num("setup_s", start.elapsed().as_secs_f64());
    obj
}

// --------------------------------------------------------------- iteration

/// What a timed pass measured, before rendering.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    results: Vec<ResultSet>,
    verdict: Verdict,
    captures: u64,
}

fn timed<R>(clk_tck: f64, f: impl FnOnce() -> R) -> (R, f64, f64, f64) {
    let cpu0 = host::cpu_seconds(clk_tck);
    let start = Instant::now();
    let r = f();
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds(clk_tck) - cpu0;
    (r, wall, cpu, host::peak_rss_mb())
}

fn iterate(args: &Args) -> Obj {
    let work = &args.work;
    let inputs = &args.inputs;
    let pass = match args.workload {
        Workload::ExactSweep => {
            let ((results, captures), wall_s, cpu_s, peak_rss_mb) = timed(args.clk_tck, || {
                let lab = Lab::new(grid::lab_config(EXACT_BUDGET, None, None));
                let results = lab.run(&inputs.exact());
                (results, lab.capture_count())
            });
            let mut verdict = Verdict::default();
            verdict.exact(&results);
            Pass {
                wall_s,
                cpu_s,
                peak_rss_mb,
                results: vec![results],
                verdict,
                captures,
            }
        }
        Workload::SampledColdStore => {
            reset_dir(&store_dir(work));
            reset_dir(&journal_dir(work));
            let ((results, captures, recorded), wall_s, cpu_s, peak_rss_mb) =
                timed(args.clk_tck, || {
                    let lab = Lab::new(grid::lab_config(
                        SAMPLED_BUDGET,
                        Some(&store_dir(work)),
                        Some(&journal_dir(work)),
                    ));
                    let results = lab.run(&inputs.phases(SAMPLED_BUDGET));
                    (results, lab.capture_count(), lab.journal_recorded_count())
                });
            let mut verdict = Verdict::default();
            verdict.sampled(&results);
            if recorded != results.cells().len() as u64 {
                verdict.fail(format!(
                    "journal recorded {recorded} of {} cells",
                    results.cells().len()
                ));
            }
            Pass {
                wall_s,
                cpu_s,
                peak_rss_mb,
                results: vec![results],
                verdict,
                captures,
            }
        }
        Workload::SampledWarmStore => {
            let journal = fresh_journal_copy(work);
            let ((phases, periodic, captures, replayed), wall_s, cpu_s, peak_rss_mb) =
                timed(args.clk_tck, || {
                    let lab = Lab::new(grid::lab_config(
                        SAMPLED_BUDGET,
                        Some(&store_dir(work)),
                        Some(&journal),
                    ));
                    let phases = lab.run(&inputs.phases(SAMPLED_BUDGET));
                    let periodic = lab.run(&inputs.periodic(SAMPLED_BUDGET));
                    (
                        phases,
                        periodic,
                        lab.capture_count(),
                        lab.journal_replayed_count(),
                    )
                });
            let mut verdict = Verdict::default();
            verdict.sampled(&phases);
            verdict.sampled(&periodic);
            warm_store_checks(&mut verdict, work, &phases, replayed, captures);
            Pass {
                wall_s,
                cpu_s,
                peak_rss_mb,
                results: vec![phases, periodic],
                verdict,
                captures,
            }
        }
    };
    let mut obj = render_pass(&pass);
    obj.strs("kernels", &inputs.kernel_names())
        .int("cluster_seed", inputs.cluster_seed);
    obj
}

/// The warm-store-only checks: every phase-aware cell is a replay whose
/// statistics equal the cell computed in set-up, and nothing is captured.
fn warm_store_checks(
    verdict: &mut Verdict,
    work: &Path,
    phases: &ResultSet,
    replayed: u64,
    captures: u64,
) {
    let expected = std::fs::read_to_string(setup_cells_path(work)).expect("set-up cells exist");
    for (got, want) in grid::cell_digests(phases).iter().zip(expected.lines()) {
        if got != want {
            verdict.fail(format!("replayed cell {got} differs from set-up {want}"));
        }
    }
    if replayed != phases.cells().len() as u64 {
        verdict.fail(format!(
            "replayed {replayed} of {} cells",
            phases.cells().len()
        ));
    }
    for i in 0..captures {
        verdict.fail(format!("capture {} on a warm store", i + 1));
    }
}

/// Instructions whose statistics a result set reports: every committed
/// instruction of an exact cell, the whole budget of a sampled cell (its
/// estimate stands for the budget).
fn reported_instructions(results: &ResultSet) -> u64 {
    results
        .cells()
        .iter()
        .map(|c| match c.sampled {
            Some(_) => results.instructions(),
            None => c.result.stats.committed,
        })
        .sum()
}

fn render_pass(pass: &Pass) -> Obj {
    let mut lines = Vec::new();
    let (mut reported, mut cycles) = (0, 0);
    for results in &pass.results {
        lines.extend(grid::cell_digests(results));
        reported += reported_instructions(results);
        cycles += results
            .cells()
            .iter()
            .map(|c| c.result.stats.cycles)
            .sum::<u64>();
    }
    let mut obj = Obj::new();
    obj.num("wall_s", pass.wall_s)
        .num("cpu_s", pass.cpu_s)
        .num("peak_rss_mb", pass.peak_rss_mb)
        .int("reported_insts", reported)
        .int("sim_cycles", cycles)
        .int("captures", pass.captures)
        .int("attempted", pass.verdict.attempted)
        .strs("failures", &pass.verdict.failures)
        .str("digest", &grid::digest_of(&lines))
        .strs("cells", &lines);
    obj
}
