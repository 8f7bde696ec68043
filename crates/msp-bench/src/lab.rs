//! The [`Lab`] session: owns everything the harness used to keep in
//! process-global state — the shared trace cache, the worker-thread count
//! and the instruction budget — and executes declarative
//! [`Experiment`](crate::Experiment) specs into
//! [`ResultSet`](crate::ResultSet)s.
//!
//! # Configuration
//!
//! A [`LabConfig`] is plain data with a [`Default`]. The environment is read
//! only by [`LabConfig::from_env`] (and [`LabConfig::sample_plan_from_env`],
//! its `--sample` slice), and **strictly**: an
//! unparseable (or zero) `MSP_BENCH_INSTRUCTIONS`, `MSP_BENCH_THREADS`,
//! `MSP_BENCH_TRACE_CACHE_BYTES` or `MSP_BENCH_SAMPLE_INTERVAL` is a
//! [`LabConfigError`], never a silent fall-back to the default. The three
//! `MSP_BENCH_SAMPLE_*` knobs together build one [`SamplingPlan`].
//!
//! # The two-tier trace cache
//!
//! Every simulation a `Lab` runs goes through its trace cache: the
//! committed-path [`Trace`] of a `(workload, instruction budget)` pair is
//! captured by one functional execution and then shared read-only by every
//! machine configuration, predictor, override hook and worker thread
//! simulating that workload. There is **no** uncached execution path: the
//! reference private-oracle comparison lives in the determinism tests,
//! which construct `Simulator`s directly.
//!
//! The cache has two tiers:
//!
//! 1. **Memory** — an LRU of materialised `Arc<Trace>`s, bounded by
//!    [`LabConfig::trace_cache_bytes`]. The most recently inserted trace is
//!    always retained (it is in use by the sweep that requested it);
//!    eviction only sheds older, idle traces.
//! 2. **Disk** (optional) — a persistent [`TraceStore`] directory of
//!    compressed trace files shared across processes, enabled by
//!    [`LabConfig::trace_dir`] (`MSP_BENCH_TRACE_DIR`). A memory miss
//!    probes the store before capturing; a capture is written through to
//!    it. A warm store means a **cold process performs zero functional
//!    executions**.
//!
//! Budgets whose materialised trace would overflow the memory tier are not
//! materialised at all when a store is present: the trace is captured
//! *streaming* straight to disk ([`msp_isa::capture_trace_to_path`]) and
//! simulated through a bounded-memory [`TraceSource`] cursor — bit-identical
//! to the materialised path (pinned by the msp-pipeline streaming tests),
//! so RAM bounds simulation budgets no more. Either way a re-resolved trace
//! is identical: functional execution and the trace encoding are both
//! deterministic.

use crate::energy::{energy_model_for, SampledEnergy, REFERENCE_NODE};
use crate::experiment::{Axes, Cell, Experiment, ResultSet};
use crate::journal::{cell_fingerprint, ExperimentJournal};
use crate::sampling::{adaptive_window_order, cluster_phases};
use crate::store::TraceStore;
use crate::{parallel_map, SampledStats, SamplingPlan};
use msp_branch::PredictorKind;
use msp_isa::{BbvSignature, ExecutedInst, Trace, TraceReader};
use msp_pipeline::{
    MemoryConfig, SimConfig, SimResult, SimStats, Simulator, TraceSource, WarmState,
};
use msp_workloads::{Variant, Workload};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of committed instructions per simulation.
pub const DEFAULT_INSTRUCTIONS: u64 = 20_000;

/// Default sampling interval for `--sample` runs (one detailed window per
/// this many committed instructions; see [`SamplingPlan::periodic`]).
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 250_000;

/// Default adaptive-stopping target for `--sample-plan adaptive` runs when
/// no explicit `--sample-target-stderr` is given: stop once the estimate's
/// relative standard error reaches 2%.
pub const DEFAULT_SAMPLE_TARGET_STDERR: f64 = 0.02;

/// Default trace-cache byte budget: room for dozens of 200k-instruction
/// traces (~5 MiB each) or a few 2M ones (~46 MiB each).
pub const DEFAULT_TRACE_CACHE_BYTES: usize = 256 * 1024 * 1024;

/// Extra records a cached trace materialises beyond the requested budget.
///
/// A simulator's front end fetches ahead of commit by at most the in-flight
/// window (issue queue + fetch buffer, a few hundred instructions), so this
/// margin keeps the overfetch inside the shared prefix; anything beyond it
/// falls back to the oracle's (bit-identical) lazy extension.
const TRACE_MARGIN: u64 = 4_096;

/// Configuration of a [`Lab`] session: plain data, no hidden environment
/// reads. Construct with [`Default`] (or struct update syntax) for
/// programmatic use, or with [`LabConfig::from_env`] for the documented
/// `MSP_BENCH_*` environment knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct LabConfig {
    /// Committed-instruction budget per simulation (default
    /// [`DEFAULT_INSTRUCTIONS`]). An [`Experiment`] can override it per
    /// spec.
    pub instructions: u64,
    /// Worker threads for sweep execution (default: one per available
    /// hardware thread). Results are identical and identically ordered for
    /// every thread count.
    pub threads: usize,
    /// Byte budget for retained traces (default
    /// [`DEFAULT_TRACE_CACHE_BYTES`]); least-recently-used traces are
    /// evicted above it.
    pub trace_cache_bytes: usize,
    /// Sampling plan used when a caller asks for sampled execution without
    /// an explicit one (the `msp-lab --sample` flag; default
    /// [`SamplingPlan::periodic`] at [`DEFAULT_SAMPLE_INTERVAL`]).
    /// Experiments attach their own plan with [`Experiment::sampling`].
    pub sample_plan: SamplingPlan,
    /// Directory of the persistent on-disk trace store (default `None` =
    /// memory tier only). Shared across processes; see [`TraceStore`].
    pub trace_dir: Option<PathBuf>,
    /// Byte budget of the on-disk store (default
    /// [`DEFAULT_TRACE_STORE_BYTES`](crate::store::DEFAULT_TRACE_STORE_BYTES));
    /// least-recently-used files are garbage-collected above it. Ignored
    /// without [`LabConfig::trace_dir`].
    pub trace_store_bytes: u64,
    /// Directory of the crash-resumable experiment journal (default `None`
    /// = no journalling). With it set, every finished cell of a
    /// [`Lab::run`] is durably recorded, and a re-run **replays** journaled
    /// cells bit-identically instead of re-simulating them — see
    /// [`ExperimentJournal`] and the `msp-lab --resume` / `batch` modes.
    pub journal_dir: Option<PathBuf>,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            instructions: DEFAULT_INSTRUCTIONS,
            threads: default_threads(),
            trace_cache_bytes: DEFAULT_TRACE_CACHE_BYTES,
            sample_plan: SamplingPlan::periodic(DEFAULT_SAMPLE_INTERVAL),
            trace_dir: None,
            trace_store_bytes: crate::store::DEFAULT_TRACE_STORE_BYTES,
            journal_dir: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A rejected `MSP_BENCH_*` environment value.
///
/// [`LabConfig::from_env`] is strict: a set-but-invalid variable is this
/// error, never a silent fall-back to the default (a typo like
/// `MSP_BENCH_INSTRUCTIONS=20_000` used to quietly run 20k-instruction
/// sweeps labelled as something else).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabConfigError {
    /// The offending environment variable.
    pub var: &'static str,
    /// The value it held.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for LabConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {} (unset the variable to use the default)",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for LabConfigError {}

impl LabConfig {
    /// Reads the documented environment knobs, strictly:
    ///
    /// * `MSP_BENCH_INSTRUCTIONS` — committed-instruction budget per
    ///   simulation; a positive integer.
    /// * `MSP_BENCH_THREADS` — sweep worker threads; a positive integer.
    /// * `MSP_BENCH_TRACE_CACHE_BYTES` — trace-cache byte budget; a
    ///   non-negative integer (`0` disables retention beyond the trace in
    ///   use).
    /// * `MSP_BENCH_SAMPLE_INTERVAL` — sampling interval of
    ///   [`LabConfig::sample_plan`]; a positive integer.
    /// * `MSP_BENCH_SAMPLE_PLAN` — the kind of [`LabConfig::sample_plan`];
    ///   one of `periodic`, `phases`, `adaptive`.
    /// * `MSP_BENCH_SAMPLE_TARGET_STDERR` — stopping target of an adaptive
    ///   [`LabConfig::sample_plan`]; a number strictly between 0 and 1
    ///   (checked whatever the plan kind).
    /// * `MSP_BENCH_TRACE_DIR` — directory of the persistent trace store;
    ///   a non-empty path (created if missing).
    /// * `MSP_BENCH_TRACE_STORE_BYTES` — byte budget of the on-disk store;
    ///   a non-negative integer (`0` retains only the newest file).
    /// * `MSP_BENCH_JOURNAL_DIR` — directory of the crash-resumable
    ///   experiment journal; a non-empty path (created if missing).
    ///
    /// Unset variables use the [`Default`] values; set-but-invalid ones are
    /// a [`LabConfigError`].
    pub fn from_env() -> Result<LabConfig, LabConfigError> {
        Self::from_vars(
            read("MSP_BENCH_INSTRUCTIONS")?.as_deref(),
            read("MSP_BENCH_THREADS")?.as_deref(),
            read("MSP_BENCH_TRACE_CACHE_BYTES")?.as_deref(),
            read("MSP_BENCH_SAMPLE_INTERVAL")?.as_deref(),
            read("MSP_BENCH_SAMPLE_PLAN")?.as_deref(),
            read("MSP_BENCH_SAMPLE_TARGET_STDERR")?.as_deref(),
            read("MSP_BENCH_TRACE_DIR")?.as_deref(),
            read("MSP_BENCH_TRACE_STORE_BYTES")?.as_deref(),
            read("MSP_BENCH_JOURNAL_DIR")?.as_deref(),
        )
    }

    /// The [`LabConfig::sample_plan`] of the environment, with the
    /// `MSP_BENCH_SAMPLE_PLAN` and `MSP_BENCH_SAMPLE_TARGET_STDERR` values
    /// replaced by `plan` and `target_stderr` where given — how the
    /// `msp-lab --sample-plan` / `--sample-target-stderr` flags override
    /// their environment defaults (an environment target applies to a
    /// flag-chosen adaptive plan too). Parsed by the same strict rules.
    pub fn sample_plan_from_env(
        plan: Option<&str>,
        target_stderr: Option<&str>,
    ) -> Result<SamplingPlan, LabConfigError> {
        let env_plan = read("MSP_BENCH_SAMPLE_PLAN")?;
        let env_target = read("MSP_BENCH_SAMPLE_TARGET_STDERR")?;
        parse_sample_plan(
            read("MSP_BENCH_SAMPLE_INTERVAL")?.as_deref(),
            plan.or(env_plan.as_deref()),
            target_stderr.or(env_target.as_deref()),
        )
    }

    /// [`LabConfig::from_env`] with the variable values passed explicitly
    /// (`None` = unset), so the parsing rules are testable without mutating
    /// the process environment.
    #[allow(clippy::too_many_arguments)]
    pub fn from_vars(
        instructions: Option<&str>,
        threads: Option<&str>,
        trace_cache_bytes: Option<&str>,
        sample_interval: Option<&str>,
        sample_plan: Option<&str>,
        sample_target_stderr: Option<&str>,
        trace_dir: Option<&str>,
        trace_store_bytes: Option<&str>,
        journal_dir: Option<&str>,
    ) -> Result<LabConfig, LabConfigError> {
        let defaults = LabConfig::default();
        fn parse_dir(
            var: &'static str,
            value: Option<&str>,
        ) -> Result<Option<PathBuf>, LabConfigError> {
            match value {
                None => Ok(None),
                Some(value) if value.trim().is_empty() => Err(LabConfigError {
                    var,
                    value: value.to_string(),
                    reason: "must be a non-empty directory path",
                }),
                Some(value) => Ok(Some(PathBuf::from(value))),
            }
        }
        let trace_dir = parse_dir("MSP_BENCH_TRACE_DIR", trace_dir)?;
        let journal_dir = parse_dir("MSP_BENCH_JOURNAL_DIR", journal_dir)?;
        let sample_plan = parse_sample_plan(sample_interval, sample_plan, sample_target_stderr)?;
        Ok(LabConfig {
            instructions: parse_var(
                "MSP_BENCH_INSTRUCTIONS",
                instructions,
                defaults.instructions,
                true,
            )?,
            threads: parse_var("MSP_BENCH_THREADS", threads, defaults.threads as u64, true)?
                as usize,
            trace_cache_bytes: parse_var(
                "MSP_BENCH_TRACE_CACHE_BYTES",
                trace_cache_bytes,
                defaults.trace_cache_bytes as u64,
                false,
            )? as usize,
            sample_plan,
            trace_dir,
            trace_store_bytes: parse_var(
                "MSP_BENCH_TRACE_STORE_BYTES",
                trace_store_bytes,
                defaults.trace_store_bytes,
                false,
            )?,
            journal_dir,
        })
    }

    /// The [`SamplingPlan`] a flag-driven `--sample` run uses:
    /// [`LabConfig::sample_plan`].
    pub fn sampling_plan(&self) -> SamplingPlan {
        self.sample_plan
    }
}

/// Reads one environment variable. `env::var_os` + explicit UTF-8
/// conversion: a non-UTF-8 value must surface as an error like any other
/// garbage, not be treated as unset (which `env::var(..).ok()` would
/// silently do).
fn read(var: &'static str) -> Result<Option<String>, LabConfigError> {
    match std::env::var_os(var) {
        None => Ok(None),
        Some(value) => match value.into_string() {
            Ok(value) => Ok(Some(value)),
            Err(raw) => Err(LabConfigError {
                var,
                value: raw.to_string_lossy().into_owned(),
                reason: "not valid UTF-8",
            }),
        },
    }
}

/// Builds the sampling plan of the three `MSP_BENCH_SAMPLE_*` values
/// (`None` = unset): the plan kind at the interval, with the target as the
/// adaptive stopping rule.
fn parse_sample_plan(
    interval: Option<&str>,
    plan: Option<&str>,
    target_stderr: Option<&str>,
) -> Result<SamplingPlan, LabConfigError> {
    let interval = parse_var(
        "MSP_BENCH_SAMPLE_INTERVAL",
        interval,
        DEFAULT_SAMPLE_INTERVAL,
        true,
    )?;
    let target = match target_stderr {
        None => DEFAULT_SAMPLE_TARGET_STDERR,
        Some(value) => value
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t > 0.0 && *t < 1.0)
            .ok_or(LabConfigError {
                var: "MSP_BENCH_SAMPLE_TARGET_STDERR",
                value: value.to_string(),
                reason: "must be a number strictly between 0 and 1",
            })?,
    };
    match plan.map(str::trim) {
        None | Some("periodic") => Ok(SamplingPlan::periodic(interval)),
        Some("phases") => Ok(SamplingPlan::phase_aware(interval)),
        Some("adaptive") => Ok(SamplingPlan::adaptive(target).with_interval(interval)),
        Some(other) => Err(LabConfigError {
            var: "MSP_BENCH_SAMPLE_PLAN",
            value: other.to_string(),
            reason: "must be one of: periodic, phases, adaptive",
        }),
    }
}

fn parse_var(
    var: &'static str,
    value: Option<&str>,
    default: u64,
    require_nonzero: bool,
) -> Result<u64, LabConfigError> {
    let Some(value) = value else {
        return Ok(default);
    };
    let parsed = value.trim().parse::<u64>().map_err(|_| LabConfigError {
        var,
        value: value.to_string(),
        reason: "not an unsigned integer",
    })?;
    if require_nonzero && parsed == 0 {
        return Err(LabConfigError {
            var,
            value: value.to_string(),
            reason: "must be positive",
        });
    }
    Ok(parsed)
}

// ------------------------------------------------------------- trace cache

/// Cache key: workload identity plus a structural fingerprint of the
/// program (so a hand-built `Workload` reusing a SPEC name can never alias
/// a cached kernel), plus the instruction budget and the checkpoint
/// interval (`0` = captured without checkpoints).
///
/// The fingerprint is [`msp_isa::program_fingerprint`] — stable across
/// processes, platforms and Rust releases — so the same value keys both the
/// in-memory tier and the on-disk store's file names.
type TraceKey = (String, Variant, u64, u64, u64);

/// Structural fingerprint of a workload's program (see [`TraceKey`]). Cheap
/// (programs are a few hundred static instructions) and computed once per
/// cache probe, not per record.
fn program_fingerprint(workload: &Workload) -> u64 {
    msp_isa::program_fingerprint(workload.program())
}

struct CacheEntry {
    key: TraceKey,
    trace: Arc<Trace>,
    bytes: usize,
    last_used: u64,
}

/// LRU-by-bytes trace store. The entry count is small (one per distinct
/// `(workload, budget)` pair a session touches), so lookups are a linear
/// scan and eviction is a scan for the minimum `last_used`.
#[derive(Default)]
struct TraceCache {
    entries: Vec<CacheEntry>,
    clock: u64,
    bytes: usize,
    captures: u64,
    evictions: u64,
    mem_hits: u64,
    disk_hits: u64,
}

impl TraceCache {
    fn get(&mut self, key: &TraceKey) -> Option<Arc<Trace>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.iter_mut().find(|e| &e.key == key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.trace)
        })
    }

    fn insert(&mut self, key: TraceKey, trace: Arc<Trace>, budget: usize) -> Arc<Trace> {
        // A racing capture may have inserted the same key while this one
        // ran unlocked; traces are deterministic, so keep the incumbent.
        if let Some(existing) = self.get(&key) {
            return existing;
        }
        self.clock += 1;
        let bytes = trace.footprint_bytes();
        self.bytes += bytes;
        self.entries.push(CacheEntry {
            key,
            trace: Arc::clone(&trace),
            bytes,
            last_used: self.clock,
        });
        // Shed least-recently-used entries until the budget holds. The
        // just-inserted entry (maximal `last_used`) is always retained:
        // the sweep that requested it is about to use it, and keeping it
        // caps the cache at one trace even under a zero budget.
        while self.bytes > budget && self.entries.len() > 1 {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache has at least two entries");
            let evicted = self.entries.swap_remove(lru);
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        trace
    }
}

/// A resolved shared trace: either a materialised in-memory [`Trace`] or a
/// verified on-disk file streamed on demand. Each simulation opens its own
/// [`TraceSource`] view (an `Arc` clone or a fresh cursor), so one resolved
/// trace serves every cell and worker thread of a sweep.
#[derive(Debug, Clone)]
enum SharedTrace {
    Memory(Arc<Trace>),
    Disk(Arc<TraceReader>),
}

impl SharedTrace {
    fn open_source(&self) -> TraceSource {
        match self {
            SharedTrace::Memory(trace) => TraceSource::from(Arc::clone(trace)),
            SharedTrace::Disk(reader) => TraceSource::from(
                reader
                    .cursor()
                    .expect("cursors read through the reader's open handle"),
            ),
        }
    }

    fn has_checkpoint_at(&self, index: u64) -> bool {
        match self {
            SharedTrace::Memory(trace) => trace.checkpoint_at(index).is_some(),
            SharedTrace::Disk(reader) => reader.has_checkpoint_at(index),
        }
    }

    /// The per-interval basic-block vectors of this (checkpointed) trace,
    /// for phase clustering: carried by a materialised trace, decoded from
    /// the stored chunk of a disk trace. The file verified at open, so a
    /// decode failure means it was modified in place while in use — a
    /// panic, like a cursor's.
    fn bbvs(&self) -> Vec<BbvSignature> {
        match self {
            SharedTrace::Memory(trace) => trace.bbvs().to_vec(),
            SharedTrace::Disk(reader) => reader
                .read_bbvs()
                .unwrap_or_else(|e| {
                    panic!("trace file {} unreadable: {e}", reader.path().display())
                })
                .unwrap_or_default(),
        }
    }
}

// --------------------------------------------------------------------- Lab

/// An experiment session: the owner of the trace cache and of the execution
/// policy (threads, default instruction budget) that used to be process-
/// global. Construct one per program (or per test), share it by reference —
/// all methods take `&self`; the cache is internally synchronised.
pub struct Lab {
    config: LabConfig,
    cache: Mutex<TraceCache>,
    store: Option<TraceStore>,
    journal: Option<ExperimentJournal>,
    /// Disk trouble in the store/streaming paths warns once per session,
    /// not once per cell (a 96-cell sweep on a full disk would otherwise
    /// print 96 identical warnings).
    store_warned: AtomicBool,
}

impl fmt::Debug for Lab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lab")
            .field("config", &self.config)
            .field("cached_traces", &self.cached_trace_count())
            .finish()
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new(LabConfig::default())
    }
}

impl Lab {
    /// Creates a session with the given configuration.
    ///
    /// Disk-backed layers degrade gracefully: a [`LabConfig::trace_dir`]
    /// that cannot be created or entered warns on stderr and the session
    /// continues memory-only (every workload re-executes, nothing
    /// persists); likewise an unopenable [`LabConfig::journal_dir`]
    /// continues without crash resumption. I/O trouble never takes down a
    /// sweep.
    pub fn new(config: LabConfig) -> Lab {
        let store = config.trace_dir.as_ref().and_then(|dir| {
            match TraceStore::open(dir, config.trace_store_bytes) {
                Ok(store) => Some(store),
                Err(e) => {
                    eprintln!(
                        "msp-bench: cannot open trace store at {}: {e}; \
                         continuing without trace persistence",
                        dir.display()
                    );
                    None
                }
            }
        });
        let journal = config
            .journal_dir
            .as_ref()
            .map(|dir| ExperimentJournal::open(dir.clone()));
        Lab {
            config,
            cache: Mutex::new(TraceCache::default()),
            store,
            journal,
            store_warned: AtomicBool::new(false),
        }
    }

    /// Creates a session configured from the environment
    /// ([`LabConfig::from_env`] — strict parsing).
    pub fn from_env() -> Result<Lab, LabConfigError> {
        Ok(Lab::new(LabConfig::from_env()?))
    }

    /// The session configuration.
    pub fn config(&self) -> &LabConfig {
        &self.config
    }

    /// Changes the worker-thread count for subsequent [`Lab::run`]s (the
    /// throughput benchmark measures one warm cache at several widths).
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "a Lab needs at least one worker thread");
        self.config.threads = threads;
    }

    /// The shared functional trace of `(workload, instructions)`:
    /// resolved disk-first (memory LRU, then the persistent store, then one
    /// [`Trace::capture`] with a small overfetch margin, written through to
    /// the store), retained under the LRU byte budget, and served as a
    /// cheap `Arc` clone while retained. Always materialised — the
    /// streaming tier is internal to [`Lab::run`].
    ///
    /// Concurrent first requests for the same key may both capture; the
    /// traces are identical (functional execution is deterministic) so the
    /// first insert wins and the duplicate is dropped.
    pub fn trace(&self, workload: &Workload, instructions: u64) -> Arc<Trace> {
        self.trace_inner(workload, instructions, 0)
    }

    /// [`Lab::trace`] with architectural checkpoints recorded every
    /// `checkpoint_interval` committed instructions (the substrate of
    /// sampled execution; see [`Trace::checkpoint_at`]). Cached separately
    /// from the plain trace of the same `(workload, instructions)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_interval` is zero.
    pub fn trace_with_checkpoints(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
    ) -> Arc<Trace> {
        assert!(
            checkpoint_interval > 0,
            "checkpoint interval must be positive (use Lab::trace for a plain trace)"
        );
        self.trace_inner(workload, instructions, checkpoint_interval)
    }

    fn trace_inner(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
    ) -> Arc<Trace> {
        match self.resolve_trace(workload, instructions, checkpoint_interval, false) {
            SharedTrace::Memory(trace) => trace,
            SharedTrace::Disk(_) => unreachable!("materialised resolution never returns Disk"),
        }
    }

    /// Resolves the shared trace of a `(workload, budget, interval)` key
    /// through the cache tiers, in order: memory LRU (cheap `Arc` clone),
    /// on-disk store (decode, or stream), functional capture (written
    /// through to the store). With `allow_streaming`, a trace whose
    /// materialised footprint would overflow the memory tier stays on disk
    /// and is simulated through a bounded-memory cursor; it is captured
    /// straight to disk if absent, so such budgets never materialise at
    /// all.
    fn resolve_trace(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
        allow_streaming: bool,
    ) -> SharedTrace {
        let key = (
            workload.name().to_string(),
            workload.variant(),
            program_fingerprint(workload),
            instructions,
            checkpoint_interval,
        );
        {
            let mut cache = self.lock_cache();
            if let Some(trace) = cache.get(&key) {
                cache.mem_hits += 1;
                return SharedTrace::Memory(trace);
            }
        }
        let program = workload.program();
        let budget = instructions.saturating_add(TRACE_MARGIN);
        // The estimate is deliberately the *decoded* record size, about four
        // times the packed record a `Trace` holds: checkpoint heaps are
        // unknown before capture (mcf's are 4 MiB each), and the headroom
        // stands in for them.
        let estimated_bytes = budget.saturating_mul(std::mem::size_of::<ExecutedInst>() as u64);
        let stream = allow_streaming
            && self.store.is_some()
            && estimated_bytes > self.config.trace_cache_bytes as u64;
        // All store and capture work happens outside the lock: a capture
        // takes milliseconds to minutes and must not serialise other
        // workloads' hits.
        if let Some(store) = &self.store {
            if let Some(reader) = store.open_reader(program, budget, checkpoint_interval) {
                self.lock_cache().disk_hits += 1;
                if stream {
                    return SharedTrace::Disk(reader);
                }
                match reader.read_trace(program) {
                    Ok(trace) => {
                        return SharedTrace::Memory(self.lock_cache().insert(
                            key,
                            Arc::new(trace),
                            self.config.trace_cache_bytes,
                        ));
                    }
                    Err(e) => {
                        // The file verified at open, so this is I/O trouble
                        // mid-read; fall through and re-capture.
                        eprintln!(
                            "msp-bench: failed to decode stored trace {}: {e}",
                            reader.path().display()
                        );
                    }
                }
            }
            if stream {
                // Streaming capture straight to disk. Disk trouble here is
                // not fatal: warn once and fall through to a materialised
                // in-memory capture — slower and bigger, but the run
                // finishes.
                let streamed = store
                    .capture(program, budget, checkpoint_interval)
                    .map_err(|e| format!("cannot capture streaming trace: {e}"))
                    .and_then(|path| {
                        TraceReader::open(&path, program).map_err(|e| {
                            format!("just-captured trace {} unreadable: {e}", path.display())
                        })
                    });
                match streamed {
                    Ok(reader) => {
                        self.lock_cache().captures += 1;
                        return SharedTrace::Disk(Arc::new(reader));
                    }
                    Err(e) => self.warn_store_once(&format!(
                        "trace store at {} failed ({e}); continuing memory-only",
                        store.dir().display()
                    )),
                }
            }
        }
        let trace = Arc::new(if checkpoint_interval == 0 {
            Trace::capture(program, budget)
        } else {
            Trace::capture_with_checkpoints(program, budget, checkpoint_interval)
        });
        if let Some(store) = &self.store {
            // Write-through, best-effort: a full disk loses persistence,
            // not the run.
            if let Err(e) = store.save(program, budget, &trace) {
                eprintln!(
                    "msp-bench: failed to persist trace into {}: {e}",
                    store.dir().display()
                );
            }
        }
        let mut cache = self.lock_cache();
        cache.captures += 1;
        SharedTrace::Memory(cache.insert(key, trace, self.config.trace_cache_bytes))
    }

    /// Ensures the trace of `(workload, instructions)` — checkpointed every
    /// `checkpoint_interval` instructions if non-zero — is resolvable
    /// without a functional execution: memory hit, disk hit, or a capture
    /// written through to the store. Unlike [`Lab::trace`] this never
    /// materialises a trace the memory tier could not hold (such budgets
    /// are captured streaming to disk), so it is the `msp-lab trace
    /// capture` pre-warming path for arbitrarily large budgets. Returns
    /// `true` if a functional capture was performed.
    pub fn prefetch_trace(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
    ) -> bool {
        let before = self.capture_count();
        self.resolve_trace(workload, instructions, checkpoint_interval, true);
        self.capture_count() > before
    }

    /// Drops every retained trace (outstanding `Arc`s stay valid; the next
    /// request re-captures).
    pub fn purge_traces(&self) {
        let mut cache = self.lock_cache();
        cache.entries.clear();
        cache.bytes = 0;
    }

    /// Number of traces currently retained.
    pub fn cached_trace_count(&self) -> usize {
        self.lock_cache().entries.len()
    }

    /// Total footprint of the retained traces, in bytes.
    pub fn cached_trace_bytes(&self) -> usize {
        self.lock_cache().bytes
    }

    /// Number of functional executions this session has performed
    /// (diagnostics: a warm re-run of the same experiment adds none, and
    /// with a warm persistent store even a fresh process adds none).
    pub fn capture_count(&self) -> u64 {
        self.lock_cache().captures
    }

    /// Number of traces evicted by the byte budget (diagnostics).
    pub fn eviction_count(&self) -> u64 {
        self.lock_cache().evictions
    }

    /// Number of trace requests served by the in-memory tier (diagnostics).
    pub fn mem_hit_count(&self) -> u64 {
        self.lock_cache().mem_hits
    }

    /// Number of trace requests served by the on-disk store — as a decode
    /// or as a streaming cursor — instead of a functional re-execution
    /// (diagnostics).
    pub fn disk_hit_count(&self) -> u64 {
        self.lock_cache().disk_hits
    }

    /// The persistent on-disk store, if [`LabConfig::trace_dir`] is set
    /// and its directory opened.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// The crash-resumable experiment journal, if
    /// [`LabConfig::journal_dir`] is set.
    pub fn journal(&self) -> Option<&ExperimentJournal> {
        self.journal.as_ref()
    }

    /// Cells this session rehydrated from the journal instead of
    /// simulating (diagnostics; `0` without a journal).
    pub fn journal_replayed_count(&self) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, ExperimentJournal::replayed_count)
    }

    /// Cells this session durably recorded into the journal (diagnostics;
    /// `0` without a journal).
    pub fn journal_recorded_count(&self) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, ExperimentJournal::recorded_count)
    }

    fn warn_store_once(&self, message: &str) {
        if !self.store_warned.swap(true, Ordering::Relaxed) {
            eprintln!("msp-bench: {message}");
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, TraceCache> {
        self.cache.lock().expect("trace cache poisoned")
    }

    /// Executes an [`Experiment`]: every `workload × machine × predictor ×
    /// override` cell is simulated (in parallel, up to
    /// [`LabConfig::threads`] workers) against the workload's shared cached
    /// trace, and the results are collected into a [`ResultSet`] in
    /// deterministic cell order.
    ///
    /// A spec carrying a [`SamplingPlan`] runs **sampled**: each cell's
    /// detail windows become independent work units fanned across the
    /// worker threads (`Simulator::resume_from` per window), and the
    /// cell's [`SampledStats`] estimate is aggregated from them. The plan
    /// decides where the windows go: one per interval
    /// ([`SamplingPlan::Periodic`]), one per clustered program phase
    /// ([`SamplingPlan::PhaseAware`]), or incrementally until a target
    /// confidence ([`SamplingPlan::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if the experiment has no workloads or no machines (an empty
    /// axis is a spec bug, not an empty result), or if its sampling plan is
    /// inconsistent ([`SamplingPlan::assert_valid`]).
    pub fn run(&self, experiment: &Experiment) -> ResultSet {
        let axes = experiment.axes();
        let instructions = experiment
            .instructions_override()
            .unwrap_or(self.config.instructions);
        match experiment.sampling_plan() {
            None => self.run_exact(experiment, &axes, instructions),
            Some(plan) => self.run_sampled(experiment, &axes, instructions, plan),
        }
    }

    /// The journal fingerprint of one cell: the workload's program
    /// fingerprint plus its identity, the hook *name*, the effective
    /// configuration, the budget and the sampling plan (see
    /// [`cell_fingerprint`]).
    fn flat_fingerprint(
        &self,
        axes: &Axes<'_>,
        flat: usize,
        config: &SimConfig,
        instructions: u64,
        sampling: Option<SamplingPlan>,
    ) -> u64 {
        let (w, _, _, h) = axes.coordinates(flat);
        let workload = &axes.workloads[w];
        cell_fingerprint(
            program_fingerprint(workload),
            workload.name(),
            workload.variant(),
            axes.hooks[h].name(),
            config,
            instructions,
            sampling,
        )
    }

    /// Rehydrates every journaled cell of a sweep: the partially-filled
    /// cell vector (flat order) plus the flat indices still to compute.
    /// Without a journal everything is pending.
    fn replay_journaled(
        &self,
        axes: &Axes<'_>,
        configs: &[SimConfig],
        instructions: u64,
        sampling: Option<SamplingPlan>,
    ) -> (Vec<Option<Cell>>, Vec<usize>) {
        let mut cells: Vec<Option<Cell>> = vec![None; axes.len()];
        if let Some(journal) = &self.journal {
            for (flat, slot) in cells.iter_mut().enumerate() {
                let fp = self.flat_fingerprint(axes, flat, &configs[flat], instructions, sampling);
                *slot = journal.load_cell(fp);
            }
        }
        let pending = (0..axes.len()).filter(|&f| cells[f].is_none()).collect();
        (cells, pending)
    }

    /// Durably records one finished cell (no-op without a journal).
    fn record_cell(
        &self,
        axes: &Axes<'_>,
        flat: usize,
        config: &SimConfig,
        instructions: u64,
        sampling: Option<SamplingPlan>,
        cell: &Cell,
    ) {
        if let Some(journal) = &self.journal {
            let fp = self.flat_fingerprint(axes, flat, config, instructions, sampling);
            journal.record_cell(fp, cell);
        }
    }

    /// Resolves shared traces for exactly the workloads that still have a
    /// cell to compute — so a fully-journaled resume performs **zero**
    /// functional executions, not just zero timing simulations.
    fn resolve_pending_traces(
        &self,
        axes: &Axes<'_>,
        pending: &[usize],
        instructions: u64,
        checkpoint_interval: u64,
    ) -> Vec<Option<SharedTrace>> {
        let mut traces: Vec<Option<SharedTrace>> = vec![None; axes.workloads.len()];
        for &flat in pending {
            let (w, ..) = axes.coordinates(flat);
            if traces[w].is_none() {
                traces[w] = Some(self.resolve_trace(
                    &axes.workloads[w],
                    instructions,
                    checkpoint_interval,
                    true,
                ));
            }
        }
        traces
    }

    fn run_exact(&self, experiment: &Experiment, axes: &Axes<'_>, instructions: u64) -> ResultSet {
        // Per-cell effective configurations (hooks applied), built up front
        // so journal fingerprints cover exactly what each cell will run.
        let configs: Vec<SimConfig> = (0..axes.len())
            .map(|flat| {
                let (_, m, p, h) = axes.coordinates(flat);
                let mut config = SimConfig::machine(axes.machines[m], axes.predictors[p]);
                axes.hooks[h].apply(&mut config);
                config
            })
            .collect();
        let (mut cells, pending) = self.replay_journaled(axes, &configs, instructions, None);
        let traces = self.resolve_pending_traces(axes, &pending, instructions, 0);
        // One flat work list over the unjournaled cells: threads stay busy
        // across row boundaries, and the flat index encodes the cell
        // coordinates (workload-major, then machine, predictor, override).
        // Each finished cell is journaled by the worker that computed it,
        // so a crash mid-sweep preserves every completed simulation.
        let computed = parallel_map(self.config.threads, &pending, |&flat| {
            let (w, m, p, h) = axes.coordinates(flat);
            let trace = traces[w].as_ref().expect("pending workload resolved");
            let result = Simulator::with_trace(
                axes.workloads[w].program(),
                configs[flat].clone(),
                trace.open_source(),
            )
            .run(instructions);
            let cell = Cell {
                workload: axes.workloads[w].name().to_string(),
                variant: axes.workloads[w].variant(),
                machine: axes.machines[m],
                predictor: axes.predictors[p],
                hook: axes.hooks[h].name().map(str::to_string),
                result,
                sampled: None,
                sampled_energy: None,
            };
            self.record_cell(axes, flat, &configs[flat], instructions, None, &cell);
            cell
        });
        for (&flat, cell) in pending.iter().zip(computed) {
            cells[flat] = Some(cell);
        }
        let cells = cells
            .into_iter()
            .map(|cell| cell.expect("every cell replayed or computed"))
            .collect();
        ResultSet::new(
            experiment.name().to_string(),
            instructions,
            None,
            axes,
            cells,
        )
    }

    /// The sampled execution path: one work unit per `(cell, window)`
    /// pair, fanned across the worker threads, so even a single-cell
    /// experiment parallelises. Units resume from the trace's architectural
    /// checkpoints, seeded with snapshots of a **cumulative warm
    /// trajectory**, measure in detail, and fold into per-cell
    /// [`SampledStats`].
    ///
    /// Window placement and warming (see DESIGN.md for the why):
    ///
    /// * interval 0 is measured **exactly** — detail over the whole first
    ///   interval from a cold machine, which is bit-identical to the exact
    ///   run's prefix and captures the one-time cold-start transient that
    ///   sampled windows would otherwise misrepresent;
    /// * a window starting at `k·interval`, `k ≥ 1`, resumes at the
    ///   checkpoint there, seeded with a [`WarmState`] snapshot taken at
    ///   that point by one functional warming pass over the whole trace —
    ///   so every window's caches and predictors carry the history of the
    ///   *entire* prefix (a bounded warm window systematically under-trains
    ///   slow-converging predictors and large working sets). One trajectory
    ///   serves every cell whose warm structures are configured identically
    ///   (same predictor, same memory geometry) — in the reference table1
    ///   sweep, all four machines share one. The first `warmup_len`
    ///   committed instructions of the window run in detail but are
    ///   excluded from measurement: they re-establish the pipeline
    ///   occupancy (in-flight window, queues) that no snapshot carries,
    ///   which deep bulk-commit machines need a few hundred cycles to ramp.
    ///
    /// The [`SamplingPlan`] decides **which** interval starts get a window
    /// and how each window is weighted (its represented span):
    ///
    /// * [`SamplingPlan::Periodic`] — every eligible interval start, each
    ///   spanning its own interval;
    /// * [`SamplingPlan::PhaseAware`] — the tail intervals' basic-block
    ///   vectors are clustered once per workload ([`cluster_phases`]) and
    ///   only each phase's most central interval is simulated, spanning
    ///   `members × interval` — the SimPoint population weighting, folded
    ///   through the same span-weighted estimator;
    /// * [`SamplingPlan::Adaptive`] — periodic windows are added one at a
    ///   time in bit-reversed (low-discrepancy) order, re-estimating after
    ///   each, until `ipc_rel_stderr` reaches the target or `max_windows`
    ///   is hit; the measured windows split the whole tail span evenly.
    fn run_sampled(
        &self,
        experiment: &Experiment,
        axes: &Axes<'_>,
        instructions: u64,
        plan: SamplingPlan,
    ) -> ResultSet {
        plan.assert_valid();
        let interval = plan.interval();
        let detail_len = plan.detail_len();
        let warmup_len = plan.warmup_len();
        let checkpoint_interval = interval;
        // Per-cell effective configuration (hooks applied), built up front
        // so cells can share warm trajectories and journal fingerprints
        // cover exactly what each cell will run.
        let configs: Vec<SimConfig> = (0..axes.len())
            .map(|flat| {
                let (_, m, p, h) = axes.coordinates(flat);
                let mut config = SimConfig::machine(axes.machines[m], axes.predictors[p]);
                axes.hooks[h].apply(&mut config);
                config
            })
            .collect();
        // Journaled cells replay outright: no trace, no warming pass, no
        // work units. Everything below operates on the pending cells only.
        let (mut replayed, pending) =
            self.replay_journaled(axes, &configs, instructions, Some(plan));
        let traces = self.resolve_pending_traces(axes, &pending, instructions, checkpoint_interval);
        // Group the cells by warm-structure configuration: (workload,
        // predictor, memory geometry). Cells in one group see identical
        // warm trajectories, so the functional warming pass runs once per
        // group, not once per cell.
        let mut groups: Vec<(usize, PredictorKind, MemoryConfig, Vec<usize>)> = Vec::new();
        for &flat in &pending {
            let config = &configs[flat];
            let (w, ..) = axes.coordinates(flat);
            let key = (w, config.predictor, config.memory);
            match groups
                .iter_mut()
                .find(|(gw, gp, gm, _)| (*gw, *gp, *gm) == key)
            {
                Some((.., members)) => members.push(flat),
                None => groups.push((key.0, key.1, key.2, vec![flat])),
            }
        }
        // One warming pass per group (fanned across workers): absorb the
        // trace from the head, snapshotting at every interval start ≥ 1.
        // Snapshot s of a group seeds the window at `(s + 1) · interval`.
        let group_snapshots: Vec<Vec<WarmState>> =
            parallel_map(self.config.threads, &groups, |(w, _, _, members)| {
                // Each warming pass streams through its own source view, so
                // a disk-resident trace costs one cursor window per group,
                // not a materialisation.
                let program = axes.workloads[*w].program();
                let mut source = traces[*w]
                    .as_ref()
                    .expect("grouped workload resolved")
                    .open_source();
                let mut warm = WarmState::for_config(program, &configs[members[0]]);
                let mut snapshots = Vec::new();
                let mut index = 0;
                let mut start = interval;
                while start < instructions {
                    while index < start {
                        let Some(rec) = source.get(program, index) else {
                            return snapshots;
                        };
                        warm.absorb(rec);
                        index += 1;
                    }
                    snapshots.push(warm.clone());
                    start += interval;
                }
                snapshots
            });
        let group_of_flat: Vec<usize> = (0..axes.len())
            .map(|flat| {
                groups
                    .iter()
                    .position(|(.., members)| members.contains(&flat))
                    // Replayed cells have no group; nothing indexes theirs.
                    .unwrap_or(usize::MAX)
            })
            .collect();
        // The head stratum: measured exactly from a cold machine. A third
        // of an interval bounds the cold-start transient at a fraction of a
        // full interval's detailed cost; a full-detail plan (detail ==
        // interval) keeps complete coverage.
        let head_len = (interval / 3).max(detail_len).min(instructions);
        // Eligible window starts of a cell: interval starts backed by a
        // trace checkpoint and (past the head) by a warm snapshot. A
        // missing checkpoint or snapshot means the program ended before
        // that start; nothing to measure from there on.
        let eligible_starts = |flat: usize| -> Vec<u64> {
            let (w, ..) = axes.coordinates(flat);
            let trace = traces[w].as_ref().expect("pending workload resolved");
            let mut starts = Vec::new();
            let mut start = 0;
            while start < instructions {
                if !trace.has_checkpoint_at(start) {
                    break;
                }
                if start > 0
                    && group_snapshots[group_of_flat[flat]].len() < (start / interval) as usize
                {
                    break;
                }
                starts.push(start);
                start += interval;
            }
            starts
        };
        // `(warmup, detail)` of the window at a start, clipped to the
        // budget.
        let window_shape = |start: u64| -> (u64, u64) {
            if start == 0 {
                (0, head_len)
            } else {
                let warmup = warmup_len.min(instructions - start);
                (warmup, detail_len.min(instructions - start - warmup))
            }
        };
        // One detailed window: resume, fill, measure. Shared verbatim by
        // all three plans — they only differ in which windows run.
        let simulate = |flat: usize, start: u64, warmup: u64, detail: u64| -> SimResult {
            let (w, ..) = axes.coordinates(flat);
            let config = configs[flat].clone();
            let program = axes.workloads[w].program();
            let trace = traces[w].as_ref().expect("pending workload resolved");
            if start == 0 {
                // The head window: exact detail from a cold machine.
                return Simulator::resume_from(program, config, trace.open_source(), 0, 0)
                    .run(detail);
            }
            let snapshot = &group_snapshots[group_of_flat[flat]][(start / interval) as usize - 1];
            let mut sim = Simulator::resume_warmed(
                program,
                config,
                trace.open_source(),
                start,
                snapshot.clone(),
            );
            if warmup == 0 {
                return sim.run(detail);
            }
            // Detailed pipeline fill, excluded from the measured window.
            // Bulk-commit machines can overshoot the fill request by a
            // whole commit group, so the measured window is anchored at
            // wherever the fill actually stopped.
            sim.run(warmup);
            let prefix = sim.stats().clone();
            let mut result = sim.run(prefix.committed + detail);
            result.stats = result.stats.subtracting(&prefix);
            result
        };
        // Per pending cell: the measured `(stats, represented span)` pairs
        // (head first) and the watchdog flag.
        let per_cell: Vec<(Vec<(SimStats, u64)>, bool)> = match plan {
            SamplingPlan::Adaptive {
                target_rel_stderr,
                max_windows,
                ..
            } => {
                // Each cell is one sequential stop-when-confident loop;
                // the cells themselves fan across the workers.
                parallel_map(self.config.threads, &pending, |&flat| {
                    let tail: Vec<u64> = eligible_starts(flat)
                        .into_iter()
                        .filter(|&s| s > 0)
                        .collect();
                    let tail_span = tail.len() as u64 * interval;
                    let mut truncated = false;
                    let mut head: Vec<(SimStats, u64)> = Vec::new();
                    if head_len > 0 {
                        let r = simulate(flat, 0, 0, head_len);
                        truncated |= r.truncated_by_watchdog;
                        head.push((r.stats, head_len));
                    }
                    let assemble = |windows: &[SimStats]| -> Vec<(SimStats, u64)> {
                        let mut per = head.clone();
                        if !windows.is_empty() {
                            let spans = spread_spans(tail_span, windows.len());
                            per.extend(windows.iter().cloned().zip(spans));
                        }
                        per
                    };
                    let mut windows: Vec<SimStats> = Vec::new();
                    for &oi in &adaptive_window_order(tail.len()) {
                        if windows.len() >= max_windows {
                            break;
                        }
                        let start = tail[oi];
                        let (warmup, detail) = window_shape(start);
                        if detail == 0 {
                            continue;
                        }
                        let r = simulate(flat, start, warmup, detail);
                        truncated |= r.truncated_by_watchdog;
                        windows.push(r.stats);
                        let est = SampledStats::from_intervals(&assemble(&windows));
                        if est.ipc_rel_stderr.is_some_and(|e| e <= target_rel_stderr) {
                            break;
                        }
                    }
                    (assemble(&windows), truncated)
                })
            }
            SamplingPlan::Periodic { .. } | SamplingPlan::PhaseAware { .. } => {
                // The flat unit list, cell-major then start-ascending — the
                // per-cell walk below consumes it back in the same order.
                struct Unit {
                    flat: usize,
                    start: u64,
                    warmup: u64,
                    detail: u64,
                    span: u64,
                }
                let mut units: Vec<Unit> = Vec::new();
                // Phase-aware window placement is a per-workload decision
                // (every cell of a workload shares the trace, hence the
                // BBVs and the clustering); computed once and reused.
                let mut phase_windows: Vec<Option<Vec<(u64, u64)>>> =
                    vec![None; axes.workloads.len()];
                for &flat in &pending {
                    let (w, ..) = axes.coordinates(flat);
                    let starts = eligible_starts(flat);
                    let placed: Vec<(u64, u64)> = match plan {
                        SamplingPlan::Periodic { .. } => starts
                            .iter()
                            .map(|&s| (s, if s == 0 { head_len } else { interval }))
                            .collect(),
                        SamplingPlan::PhaseAware {
                            max_phases, seed, ..
                        } => {
                            if phase_windows[w].is_none() {
                                let trace = traces[w].as_ref().expect("pending workload resolved");
                                let bbvs = trace.bbvs();
                                // Tail intervals with a recorded BBV (the
                                // program ran into them); interval k covers
                                // [k·interval, (k+1)·interval).
                                let tail: Vec<u64> = starts
                                    .iter()
                                    .copied()
                                    .filter(|&s| s > 0 && ((s / interval) as usize) < bbvs.len())
                                    .collect();
                                let tail_bbvs: Vec<BbvSignature> = tail
                                    .iter()
                                    .map(|&s| bbvs[(s / interval) as usize].clone())
                                    .collect();
                                let phases = cluster_phases(&tail_bbvs, max_phases, seed);
                                let mut windows: Vec<(u64, u64)> = phases
                                    .representatives
                                    .iter()
                                    .enumerate()
                                    .map(|(p, &rep)| {
                                        let members =
                                            phases.assignment.iter().filter(|&&a| a == p).count()
                                                as u64;
                                        (tail[rep], members * interval)
                                    })
                                    .collect();
                                windows.sort_unstable();
                                phase_windows[w] = Some(windows);
                            }
                            let mut placed = Vec::new();
                            if head_len > 0 {
                                placed.push((0, head_len));
                            }
                            placed.extend(phase_windows[w].as_ref().unwrap());
                            placed
                        }
                        SamplingPlan::Adaptive { .. } => unreachable!("handled above"),
                    };
                    for (start, span) in placed {
                        let (warmup, detail) = window_shape(start);
                        if detail > 0 {
                            units.push(Unit {
                                flat,
                                start,
                                warmup,
                                detail,
                                span,
                            });
                        }
                    }
                }
                let results = parallel_map(self.config.threads, &units, |unit| {
                    simulate(unit.flat, unit.start, unit.warmup, unit.detail)
                });
                let mut per_cell = Vec::with_capacity(pending.len());
                let mut cursor = 0;
                for &flat in &pending {
                    let mut per_interval: Vec<(SimStats, u64)> = Vec::new();
                    let mut truncated = false;
                    while cursor < units.len() && units[cursor].flat == flat {
                        let result = &results[cursor];
                        truncated |= result.truncated_by_watchdog;
                        per_interval.push((result.stats.clone(), units[cursor].span));
                        cursor += 1;
                    }
                    per_cell.push((per_interval, truncated));
                }
                per_cell
            }
        };
        let mut cells = Vec::with_capacity(axes.len());
        let mut computed = pending.iter().zip(per_cell);
        for flat in 0..axes.len() {
            if let Some(cell) = replayed[flat].take() {
                // Rehydrated from the journal; the computed list never
                // contained this cell.
                cells.push(cell);
                continue;
            }
            let (&pflat, (per_interval, truncated)) =
                computed.next().expect("every pending cell computed");
            debug_assert_eq!(pflat, flat);
            let (w, m, p, h) = axes.coordinates(flat);
            let mut aggregate = SimStats::default();
            for (stats, _) in &per_interval {
                aggregate.accumulate(stats);
            }
            let energy_model = energy_model_for(axes.machines[m], REFERENCE_NODE);
            let cell = Cell {
                workload: axes.workloads[w].name().to_string(),
                variant: axes.workloads[w].variant(),
                machine: axes.machines[m],
                predictor: axes.predictors[p],
                hook: axes.hooks[h].name().map(str::to_string),
                result: SimResult {
                    machine: axes.machines[m].label(),
                    predictor: axes.predictors[p].label().to_string(),
                    truncated_by_watchdog: truncated,
                    stats: aggregate,
                },
                sampled: Some(SampledStats::from_intervals(&per_interval)),
                sampled_energy: Some(SampledEnergy::from_intervals(&per_interval, &energy_model)),
            };
            self.record_cell(axes, flat, &configs[flat], instructions, Some(plan), &cell);
            cells.push(cell);
        }
        ResultSet::new(
            experiment.name().to_string(),
            instructions,
            Some(plan),
            axes,
            cells,
        )
    }
}

/// Splits `total` span units over `m` windows as evenly as integer spans
/// allow (the first `total % m` windows carry the remainder) — how an
/// adaptive estimate distributes the tail span over however many windows
/// it ended up measuring.
fn spread_spans(total: u64, m: usize) -> Vec<u64> {
    let base = total / m as u64;
    let rem = (total % m as u64) as usize;
    (0..m).map(|i| base + u64::from(i < rem)).collect()
}
