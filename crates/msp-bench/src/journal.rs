//! The crash-resumable experiment journal.
//!
//! An [`ExperimentJournal`] makes `Lab::run` durable: every finished
//! [`Cell`] is persisted as one content-addressed result file, keyed by a
//! [`cell_fingerprint`] covering everything that determines the cell's
//! statistics — workload identity, effective machine configuration,
//! instruction budget, sampling plan and the journal format version. A
//! sweep interrupted at *any* point (SIGKILL, OOM, CI timeout) resumes by
//! replaying journaled cells bit-identically and recomputing only the
//! rest.
//!
//! # On-disk layout
//!
//! The journal directory (`MSP_BENCH_JOURNAL_DIR`) holds one file per
//! finished cell:
//!
//! ```text
//! {fingerprint:016x}.mspcell
//!                          magic "MSPCELLF", version u32, fingerprint u64,
//!                          encoded Cell, trailing FNV-1a checksum over
//!                          every preceding byte. All little-endian.
//! ```
//!
//! Any other file is ignored, including the write-ahead log that older
//! builds kept beside the cell files.
//!
//! # Commit discipline
//!
//! A cell commits through the crate's one commit protocol (`BlobDir`): the
//! result file is written to a temp file and fsync'd, renamed into place —
//! **the rename is the commit point** — and the directory is fsync'd. A
//! cell is one idempotent, self-verifying blob, so nothing else is needed:
//! [`ExperimentJournal::load_cell`] reads `{fingerprint:016x}.mspcell`
//! directly, a missing file is a cell still to compute, and a file that
//! fails verification is deleted and recomputed. A crash before the rename
//! leaves a `.tmp-*` file swept on the next open; a crash after it leaves a
//! committed cell. Every crash point is therefore idempotent: replay or
//! recompute, nothing in between — proved by the deterministic kill-point
//! harness below (`MSP_BENCH_KILL_POINT`) and the kill-matrix integration
//! test.
//!
//! # Degradation policy
//!
//! Journal I/O never fails a sweep. An unopenable directory, a write
//! error, a full disk: one warning on stderr, then the journal stops
//! recording (the sweep still runs, nothing more persists). A corrupt
//! result file is deleted and its cell recomputed, exactly like a corrupt
//! trace-store file.

use crate::blob::BlobDir;
use crate::energy::SampledEnergy;
use crate::experiment::Cell;
use crate::{SampledStats, SamplingPlan};
use msp_branch::PredictorKind;
use msp_isa::wire::{fnv1a, put_varint, Reader, FNV_OFFSET};
use msp_isa::NUM_LOGICAL_REGS;
use msp_pipeline::{
    CacheConfig, FrontendConfig, LatencyConfig, MachineKind, MemoryConfig, ResourceConfig,
    SimConfig, SimResult, SimStats,
};
use msp_workloads::Variant;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Version written into (and required of) every cell file and the
/// [`cell_fingerprint`] preimage — so a format change invalidates every
/// old cell instead of misdecoding it.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// File extension of content-addressed cell result files.
pub const CELL_FILE_EXT: &str = "mspcell";

const CELL_MAGIC: &[u8; 8] = b"MSPCELLF";
const FINGERPRINT_MAGIC: &[u8; 8] = b"MSPJRNFP";

// ------------------------------------------------------- fault injection

/// Environment knob of the deterministic kill-point harness:
/// `MSP_BENCH_KILL_POINT=<site>[:<n>]` delivers a real SIGKILL to this
/// process at the `n`-th (default first) execution of the named crash site.
/// The sites are [`KILL_POINTS`]. Test-only in spirit, but compiled in
/// unconditionally: the env var is read once and the disarmed fast path is
/// one atomic-free `OnceLock` read.
pub const KILL_POINT_ENV: &str = "MSP_BENCH_KILL_POINT";

/// Crash site: the cell result temp file is written and fsync'd, but not
/// yet renamed into place (leaves a `.tmp` orphan; the cell is not
/// committed).
pub const KILL_CELL_TEMP_WRITTEN: &str = "cell-temp-written";
/// Crash site: the cell result file is renamed into place and the
/// directory fsync'd (the cell is committed).
pub const KILL_CELL_RENAMED: &str = "cell-renamed";

/// Every injectable crash site, in commit order.
pub const KILL_POINTS: [&str; 2] = [KILL_CELL_TEMP_WRITTEN, KILL_CELL_RENAMED];

static KILL_SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
static KILL_HITS: AtomicU64 = AtomicU64::new(0);

/// Dies if this call is the configured occurrence of `site`.
fn maybe_kill(site: &str) {
    let spec = KILL_SPEC.get_or_init(|| {
        let raw = std::env::var(KILL_POINT_ENV).ok()?;
        let (site, nth) = match raw.split_once(':') {
            Some((site, n)) => (site.to_string(), n.trim().parse().unwrap_or(1)),
            None => (raw, 1),
        };
        Some((site, nth.max(1)))
    });
    if let Some((armed, nth)) = spec {
        if armed == site && KILL_HITS.fetch_add(1, Ordering::Relaxed) + 1 == *nth {
            die();
        }
    }
}

/// Dies by a genuine SIGKILL (no atexit handlers, no unwinding, no Drop —
/// exactly what an OOM kill or `kill -9` delivers), via the external `kill`
/// utility since this crate forbids unsafe code. The exit fallback only
/// runs if the signal somehow failed to land.
fn die() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::exit(137);
}

// ------------------------------------------------------- cell fingerprint

/// The stable identity of one experiment cell: an FNV-1a hash over a
/// versioned encoding of everything that determines the cell's statistics —
/// the program fingerprint, workload name and variant, the override hook's
/// *name*, the **effective** [`SimConfig`] (after the hook applied, every
/// field), the committed-instruction budget and the sampling plan. Two runs
/// produce bit-identical [`Cell`]s iff their fingerprints match, so a
/// journaled fingerprint licenses replay without re-simulation.
///
/// The hook name participates alongside the effective config because the
/// rehydrated `Cell` must round-trip the hook *label*, and because two
/// differently-named hooks with identical effects are still distinct
/// experiment columns.
pub fn cell_fingerprint(
    program_fingerprint: u64,
    workload: &str,
    variant: Variant,
    hook: Option<&str>,
    config: &SimConfig,
    instructions: u64,
    sampling: Option<SamplingPlan>,
) -> u64 {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(FINGERPRINT_MAGIC);
    buf.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    put_u64(&mut buf, program_fingerprint);
    put_string(&mut buf, workload);
    put_variant(&mut buf, variant);
    put_opt(&mut buf, hook, put_string);
    put_varint(&mut buf, instructions);
    // Rest-pattern-free destructures on purpose: adding a field to any
    // plan variant without fingerprinting it is a compile error here, not
    // a silent replay of stale cells. Tag 1 (periodic) keeps the exact
    // encoding of the old three-field `SamplingSpec`, so periodic journals
    // written before the plan redesign still replay.
    match sampling {
        None => buf.push(0),
        Some(SamplingPlan::Periodic {
            interval,
            detail_len,
            warmup_len,
        }) => {
            buf.push(1);
            put_varint(&mut buf, interval);
            put_varint(&mut buf, detail_len);
            put_varint(&mut buf, warmup_len);
        }
        Some(SamplingPlan::PhaseAware {
            interval,
            detail_len,
            warmup_len,
            max_phases,
            seed,
        }) => {
            buf.push(2);
            put_varint(&mut buf, interval);
            put_varint(&mut buf, detail_len);
            put_varint(&mut buf, warmup_len);
            put_varint(&mut buf, max_phases as u64);
            put_varint(&mut buf, seed);
        }
        Some(SamplingPlan::Adaptive {
            interval,
            detail_len,
            warmup_len,
            target_rel_stderr,
            max_windows,
        }) => {
            buf.push(3);
            put_varint(&mut buf, interval);
            put_varint(&mut buf, detail_len);
            put_varint(&mut buf, warmup_len);
            put_u64(&mut buf, target_rel_stderr.to_bits());
            put_varint(&mut buf, max_windows as u64);
        }
    }
    put_sim_config(&mut buf, config);
    fnv1a(FNV_OFFSET, &buf)
}

// ------------------------------------------------------------ the journal

/// A crash-resumable journal of finished experiment cells (see the module
/// docs for the format, commit discipline and degradation policy). All
/// methods take `&self` and the state is atomic, so one journal serves
/// every worker thread of a sweep.
#[derive(Debug)]
pub struct ExperimentJournal {
    dir: PathBuf,
    /// `None` when the directory could not be opened.
    blobs: Option<BlobDir>,
    replayed: AtomicU64,
    recorded: AtomicU64,
    degraded: AtomicBool,
}

impl ExperimentJournal {
    /// Opens (creating if necessary) the journal directory and sweeps stale
    /// temp files. Never fails: an unopenable directory warns on stderr and
    /// the journal records nothing (the sweep still runs, nothing
    /// persists).
    pub fn open(dir: impl Into<PathBuf>) -> ExperimentJournal {
        let dir = dir.into();
        let blobs = BlobDir::open(&dir)
            .map_err(|e| {
                eprintln!(
                    "msp-bench: cannot open experiment journal at {}: {e}; \
                     continuing without crash resumption",
                    dir.display()
                );
            })
            .ok();
        ExperimentJournal {
            degraded: AtomicBool::new(blobs.is_none()),
            dir,
            blobs,
            replayed: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The result-file path of a cell fingerprint.
    pub fn cell_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.{CELL_FILE_EXT}"))
    }

    /// Cells rehydrated from the journal by this session (each one a
    /// simulation *not* re-run).
    pub fn replayed_count(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Cells durably recorded by this session.
    pub fn recorded_count(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Whether the journal has stopped recording after an I/O failure.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Rehydrates a journaled cell, bit-identical to the run that recorded
    /// it. `None` means the cell must be computed: its result file is
    /// missing, or fails verification — in which case it is deleted and
    /// the recomputation re-journals it.
    pub fn load_cell(&self, fingerprint: u64) -> Option<Cell> {
        let cell = self
            .blobs
            .as_ref()?
            .read_verified(&self.cell_path(fingerprint), |path| {
                fs::read(path)
                    .map_err(|e| e.to_string())
                    .and_then(|bytes| decode_cell_file(fingerprint, &bytes))
            })?;
        self.replayed.fetch_add(1, Ordering::Relaxed);
        Some(cell)
    }

    /// Durably records a finished cell (the `BlobDir` commit; the rename
    /// is the commit point). A fingerprint whose file already exists is a
    /// no-op, so recording is idempotent across crash/resume. I/O failure
    /// warns once and stops recording — it never fails the sweep.
    pub fn record_cell(&self, fingerprint: u64, cell: &Cell) {
        let Some(blobs) = &self.blobs else {
            return;
        };
        let path = self.cell_path(fingerprint);
        if self.is_degraded() || path.exists() {
            return;
        }
        let bytes = encode_cell_file(fingerprint, cell);
        match blobs.commit(
            &path,
            |temp| fs::write(temp, &bytes),
            || maybe_kill(KILL_CELL_TEMP_WRITTEN),
        ) {
            Ok(()) => {
                self.recorded.fetch_add(1, Ordering::Relaxed);
                maybe_kill(KILL_CELL_RENAMED);
            }
            Err(e) => {
                if !self.degraded.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "msp-bench: experiment journal at {} failed ({e}); \
                         continuing without crash resumption",
                        self.dir.display()
                    );
                }
            }
        }
    }
}

// -------------------------------------------------------- cell file codec

/// Encodes a cell result file: magic, version, fingerprint, payload,
/// trailing FNV-1a checksum over every preceding byte.
fn encode_cell_file(fingerprint: u64, cell: &Cell) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    buf.extend_from_slice(CELL_MAGIC);
    buf.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    put_u64(&mut buf, fingerprint);
    put_cell(&mut buf, cell);
    let checksum = fnv1a(FNV_OFFSET, &buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Decodes (and fully verifies) a cell result file written by
/// [`encode_cell_file`] for the same fingerprint.
fn decode_cell_file(fingerprint: u64, bytes: &[u8]) -> Result<Cell, String> {
    if bytes.len() < CELL_MAGIC.len() + 4 + 8 + 8 {
        return Err(format!("file too short ({} bytes)", bytes.len()));
    }
    let (body, checksum) = bytes.split_at(bytes.len() - 8);
    let mut r = Reader::new(body);
    if r.take(CELL_MAGIC.len())? != CELL_MAGIC {
        return Err("bad magic".to_string());
    }
    let version = r.u32()?;
    if version != JOURNAL_FORMAT_VERSION {
        return Err(format!(
            "format version {version} (expected {JOURNAL_FORMAT_VERSION})"
        ));
    }
    if fnv1a(FNV_OFFSET, body) != Reader::new(checksum).u64()? {
        return Err("checksum mismatch".to_string());
    }
    let file_fp = r.u64()?;
    if file_fp != fingerprint {
        return Err(format!(
            "fingerprint mismatch (file {file_fp:016x}, expected {fingerprint:016x})"
        ));
    }
    let cell = get_cell(&mut r)?;
    r.expect_end()?;
    Ok(cell)
}

// Primitive writers. Fingerprints, checksums and f64 bit patterns are raw
// 8-byte little-endian; counters and sizes are varints (see msp_isa::wire).

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_varint(buf, v as u64);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_usize(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

/// An option tag (0 absent, 1 present), then the value written by `put`.
fn put_opt<T>(buf: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    buf.push(u8::from(value.is_some()));
    if let Some(value) = value {
        put(buf, value);
    }
}

fn put_variant(buf: &mut Vec<u8>, variant: Variant) {
    buf.push(match variant {
        Variant::Original => 0,
        Variant::Modified => 1,
    });
}

fn put_machine(buf: &mut Vec<u8>, machine: MachineKind) {
    match machine {
        MachineKind::Baseline => buf.push(0),
        MachineKind::Cpr { regs_per_class } => {
            buf.push(1);
            put_usize(buf, regs_per_class);
        }
        MachineKind::Msp { regs_per_bank } => {
            buf.push(2);
            put_usize(buf, regs_per_bank);
        }
        MachineKind::IdealMsp => buf.push(3),
    }
}

fn put_predictor(buf: &mut Vec<u8>, predictor: PredictorKind) {
    buf.push(match predictor {
        PredictorKind::Bimodal => 0,
        PredictorKind::Gshare => 1,
        PredictorKind::Tage => 2,
    });
}

/// Every field of the effective configuration, destructured without rest
/// patterns (like `SimStats::counters`): adding a field anywhere in the
/// config tree is a compile error here until it joins the fingerprint — a
/// silently-excluded knob would alias distinct cells.
fn put_sim_config(buf: &mut Vec<u8>, config: &SimConfig) {
    let SimConfig {
        machine,
        predictor,
        frontend,
        resources,
        latency,
        memory,
        lcs_delay,
        max_same_reg_renames,
        arbitration,
    } = config;
    put_machine(buf, *machine);
    put_predictor(buf, *predictor);
    let FrontendConfig {
        fetch_width,
        rename_width,
        issue_width,
        retire_width,
        frontend_depth,
    } = frontend;
    put_usize(buf, *fetch_width);
    put_usize(buf, *rename_width);
    put_usize(buf, *issue_width);
    put_usize(buf, *retire_width);
    put_varint(buf, *frontend_depth);
    let ResourceConfig {
        iq_size,
        rob_size,
        lq_size,
        sq_l1_size,
        sq_l2_size,
        sq_l2_scan_latency,
        regs_per_class,
        checkpoints,
        max_insts_per_checkpoint,
        int_units,
        fp_units,
        ldst_units,
    } = resources;
    put_usize(buf, *iq_size);
    put_usize(buf, *rob_size);
    put_usize(buf, *lq_size);
    put_usize(buf, *sq_l1_size);
    put_usize(buf, *sq_l2_size);
    put_varint(buf, *sq_l2_scan_latency);
    put_usize(buf, *regs_per_class);
    put_usize(buf, *checkpoints);
    put_varint(buf, *max_insts_per_checkpoint);
    put_usize(buf, *int_units);
    put_usize(buf, *fp_units);
    put_usize(buf, *ldst_units);
    let LatencyConfig {
        int_alu,
        int_mul,
        fp_alu,
        fp_mul,
        fp_div,
        branch,
        agen,
    } = latency;
    put_varint(buf, *int_alu);
    put_varint(buf, *int_mul);
    put_varint(buf, *fp_alu);
    put_varint(buf, *fp_mul);
    put_varint(buf, *fp_div);
    put_varint(buf, *branch);
    put_varint(buf, *agen);
    let MemoryConfig {
        il1,
        dl1,
        l2,
        memory_latency,
    } = memory;
    for cache in [il1, dl1, l2] {
        let CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            hit_latency,
        } = cache;
        put_usize(buf, *size_bytes);
        put_usize(buf, *ways);
        put_usize(buf, *line_bytes);
        put_varint(buf, *hit_latency);
    }
    put_varint(buf, *memory_latency);
    put_opt(buf, *lcs_delay, put_usize);
    put_usize(buf, *max_same_reg_renames);
    put_bool(buf, *arbitration);
}

/// Writes the counters in the order of `SimStats::counters`, each as a
/// varint, except that `bank_full` is stored sparsely: the number of
/// registers with a nonzero count, then (flat index, count) pairs in
/// flat-index order.
fn put_sim_stats(buf: &mut Vec<u8>, stats: &SimStats) {
    let counters = stats.counters();
    let banks = SimStats::BANK_FULL_COUNTERS;
    for counter in &counters[..banks.start] {
        put_varint(buf, *counter);
    }
    let stalled: Vec<(usize, u64)> = counters[banks.clone()]
        .iter()
        .enumerate()
        .filter(|(_, count)| **count > 0)
        .map(|(flat, count)| (flat, *count))
        .collect();
    put_usize(buf, stalled.len());
    for (flat, count) in stalled {
        put_usize(buf, flat);
        put_varint(buf, count);
    }
    for counter in &counters[banks.end..] {
        put_varint(buf, *counter);
    }
}

fn put_cell(buf: &mut Vec<u8>, cell: &Cell) {
    let Cell {
        workload,
        variant,
        machine,
        predictor,
        hook,
        result,
        sampled,
        sampled_energy,
    } = cell;
    put_string(buf, workload);
    put_variant(buf, *variant);
    put_machine(buf, *machine);
    put_predictor(buf, *predictor);
    put_opt(buf, hook.as_deref(), put_string);
    let SimResult {
        machine: machine_label,
        predictor: predictor_label,
        truncated_by_watchdog,
        stats,
    } = result;
    put_string(buf, machine_label);
    put_string(buf, predictor_label);
    put_bool(buf, *truncated_by_watchdog);
    put_sim_stats(buf, stats);
    put_opt(buf, sampled.as_ref(), |buf, sampled| {
        let SampledStats {
            intervals,
            measured_instructions,
            measured_cycles,
            mean_ipc,
            ipc_rel_stderr,
        } = sampled;
        put_usize(buf, *intervals);
        put_varint(buf, *measured_instructions);
        put_varint(buf, *measured_cycles);
        put_f64(buf, *mean_ipc);
        put_opt(buf, *ipc_rel_stderr, put_f64);
    });
    put_opt(buf, sampled_energy.as_ref(), |buf, energy| {
        let SampledEnergy {
            intervals,
            measured_pj,
            mean_epi_pj,
            mean_rf_epi_pj,
        } = energy;
        put_usize(buf, *intervals);
        put_f64(buf, *measured_pj);
        put_f64(buf, *mean_epi_pj);
        put_f64(buf, *mean_rf_epi_pj);
    });
}

// Readers of the payload's composite fields, on the shared bounds-checked
// `msp_isa::wire::Reader`.

fn get_f64(r: &mut Reader<'_>) -> Result<f64, String> {
    Ok(f64::from_bits(r.u64()?))
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, String> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(format!("bad bool tag {t}")),
    }
}

fn get_usize(r: &mut Reader<'_>) -> Result<usize, String> {
    usize::try_from(r.varint()?).map_err(|_| "size overflows usize".to_string())
}

fn get_string(r: &mut Reader<'_>) -> Result<String, String> {
    let len = get_usize(r)?;
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| "string is not UTF-8".to_string())
}

/// An option tag, then the value read by `get` if the tag says present.
fn get_opt<T>(
    r: &mut Reader<'_>,
    get: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        t => Err(format!("bad option tag {t}")),
    }
}

fn get_variant(r: &mut Reader<'_>) -> Result<Variant, String> {
    match r.u8()? {
        0 => Ok(Variant::Original),
        1 => Ok(Variant::Modified),
        t => Err(format!("bad variant tag {t}")),
    }
}

fn get_machine(r: &mut Reader<'_>) -> Result<MachineKind, String> {
    match r.u8()? {
        0 => Ok(MachineKind::Baseline),
        1 => Ok(MachineKind::Cpr {
            regs_per_class: get_usize(r)?,
        }),
        2 => Ok(MachineKind::Msp {
            regs_per_bank: get_usize(r)?,
        }),
        3 => Ok(MachineKind::IdealMsp),
        t => Err(format!("bad machine tag {t}")),
    }
}

fn get_predictor(r: &mut Reader<'_>) -> Result<PredictorKind, String> {
    match r.u8()? {
        0 => Ok(PredictorKind::Bimodal),
        1 => Ok(PredictorKind::Gshare),
        2 => Ok(PredictorKind::Tage),
        t => Err(format!("bad predictor tag {t}")),
    }
}

/// The inverse of [`put_sim_stats`].
fn get_sim_stats(r: &mut Reader<'_>) -> Result<SimStats, String> {
    let mut counters = [0; SimStats::COUNTERS];
    let banks = SimStats::BANK_FULL_COUNTERS;
    for counter in &mut counters[..banks.start] {
        *counter = r.varint()?;
    }
    let stalled = get_usize(r)?;
    if stalled > NUM_LOGICAL_REGS {
        return Err(format!("bank_full has {stalled} entries"));
    }
    for _ in 0..stalled {
        let flat = get_usize(r)?;
        if flat >= NUM_LOGICAL_REGS {
            return Err(format!("bank_full register index {flat} out of range"));
        }
        counters[banks.start + flat] = r.varint()?;
    }
    for counter in &mut counters[banks.end..] {
        *counter = r.varint()?;
    }
    Ok(SimStats::from_counters(&counters))
}

fn get_cell(r: &mut Reader<'_>) -> Result<Cell, String> {
    let workload = get_string(r)?;
    let variant = get_variant(r)?;
    let machine = get_machine(r)?;
    let predictor = get_predictor(r)?;
    let hook = get_opt(r, get_string)?;
    let machine_label = get_string(r)?;
    let predictor_label = get_string(r)?;
    let truncated_by_watchdog = get_bool(r)?;
    let stats = get_sim_stats(r)?;
    let sampled = get_opt(r, |r| {
        Ok(SampledStats {
            intervals: get_usize(r)?,
            measured_instructions: r.varint()?,
            measured_cycles: r.varint()?,
            mean_ipc: get_f64(r)?,
            ipc_rel_stderr: get_opt(r, get_f64)?,
        })
    })?;
    let sampled_energy = get_opt(r, |r| {
        Ok(SampledEnergy {
            intervals: get_usize(r)?,
            measured_pj: get_f64(r)?,
            mean_epi_pj: get_f64(r)?,
            mean_rf_epi_pj: get_f64(r)?,
        })
    })?;
    Ok(Cell {
        workload,
        variant,
        machine,
        predictor,
        hook,
        result: SimResult {
            machine: machine_label,
            predictor: predictor_label,
            truncated_by_watchdog,
            stats,
        },
        sampled,
        sampled_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_isa::ArchReg;
    use msp_pipeline::{ActivityCounters, ExecutedBreakdown, StallBreakdown};
    use std::collections::HashMap;

    fn temp_dir(tag: &str) -> PathBuf {
        crate::blob::test_dir(&format!("journal-{tag}"))
    }

    fn sample_config() -> SimConfig {
        SimConfig::machine(MachineKind::msp(16), PredictorKind::Gshare)
    }

    fn sample_cell() -> Cell {
        let mut stats = SimStats {
            cycles: 12_345,
            committed: 20_000,
            branches: 777,
            mispredictions: 42,
            ..SimStats::default()
        };
        stats.executed.correct_path = 20_000;
        stats.executed.wrong_path = 311;
        stats.stalls.iq_full = 17;
        stats.stalls.bank_full.insert(ArchReg::int(7), 99);
        stats.stalls.bank_full.insert(ArchReg::fp(3), 5);
        stats.activity.rf_reads[7] = 1_234;
        stats.activity.rf_writes[63] = 9;
        stats.activity.sct_lookups = 40_001;
        Cell {
            workload: "gzip".to_string(),
            variant: Variant::Original,
            machine: MachineKind::msp(16),
            predictor: PredictorKind::Gshare,
            hook: Some("lcs=2".to_string()),
            result: SimResult {
                machine: "16-SP".to_string(),
                predictor: "gshare".to_string(),
                truncated_by_watchdog: false,
                stats,
            },
            sampled: Some(SampledStats {
                intervals: 8,
                measured_instructions: 4_000,
                measured_cycles: 2_500,
                mean_ipc: 0.1 + 0.2, // a bit pattern decimal rendering loses
                ipc_rel_stderr: Some(0.012_345_678_9),
            }),
            sampled_energy: Some(SampledEnergy {
                intervals: 8,
                measured_pj: 1.0e7 / 3.0,
                mean_epi_pj: 123.456_789,
                mean_rf_epi_pj: 23.9,
            }),
        }
    }

    fn assert_cells_bit_identical(a: &Cell, b: &Cell) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.predictor, b.predictor);
        assert_eq!(a.hook, b.hook);
        assert_eq!(a.result.machine, b.result.machine);
        assert_eq!(a.result.predictor, b.result.predictor);
        assert_eq!(
            a.result.truncated_by_watchdog,
            b.result.truncated_by_watchdog
        );
        assert_eq!(a.result.stats, b.result.stats);
        assert_eq!(a.sampled, b.sampled);
        match (&a.sampled, &b.sampled) {
            (Some(x), Some(y)) => {
                // PartialEq on f64 passes for equal values; pin *bit*
                // identity explicitly (the resumability contract).
                assert_eq!(x.mean_ipc.to_bits(), y.mean_ipc.to_bits());
                assert_eq!(
                    x.ipc_rel_stderr.map(f64::to_bits),
                    y.ipc_rel_stderr.map(f64::to_bits)
                );
            }
            (None, None) => {}
            _ => panic!("sampled presence diverged"),
        }
        assert_eq!(a.sampled_energy, b.sampled_energy);
    }

    #[test]
    fn cell_file_roundtrip_is_bit_identical() {
        let cell = sample_cell();
        let fp = 0xfeed_face_cafe_beef;
        let bytes = encode_cell_file(fp, &cell);
        let decoded = decode_cell_file(fp, &bytes).expect("roundtrip");
        assert_cells_bit_identical(&cell, &decoded);
    }

    /// A cell whose statistics set every counter to a distinct nonzero
    /// value. The literals are full (no `..Default::default()`), so a new
    /// counter does not compile until it gets a value here too.
    fn every_counter_cell() -> Cell {
        let banks = |pairs: &[(usize, u64)]| {
            let mut counts = [0; NUM_LOGICAL_REGS];
            for &(bank, count) in pairs {
                counts[bank] = count;
            }
            counts
        };
        let stats = SimStats {
            cycles: 900_001,
            committed: 700_002,
            executed: ExecutedBreakdown {
                correct_path: 700_003,
                correct_path_reexecuted: 4_004,
                wrong_path: 50_005,
            },
            branches: 60_006,
            mispredictions: 3_007,
            recoveries: 3_008,
            imprecise_recoveries: 109,
            checkpoints_allocated: 1_010,
            stalls: StallBreakdown {
                iq_full: 11,
                rob_full: 12,
                lq_full: 13,
                sq_full: 14,
                regs_full: 15,
                checkpoints_full: 16,
                bank_full: HashMap::from([(ArchReg::int(5), 17_017), (ArchReg::fp(3), 18)]),
                same_reg_limit: 19,
                frontend_empty: 20,
            },
            port_conflicts: 21,
            store_forwards: 22,
            dcache_misses: 23,
            watchdog_breaks: 24,
            activity: Box::new(ActivityCounters {
                rf_reads: banks(&[(0, 25), (7, 260_026), (40, 27)]),
                rf_writes: banks(&[(1, 28), (5, 29), (63, 30_030)]),
                rename_lookups: 31,
                sct_lookups: 32,
                lcs_propagations: 33,
                checkpoint_allocs: 34,
                checkpoint_releases: 35,
                reliq_wakeups: 36,
                lq_searches: 37,
                sq_searches: 38,
                icache_accesses: 39,
                dcache_accesses: 40,
                l2_accesses: 41,
                predictor_lookups: 42,
                btb_lookups: 43,
                ras_ops: 44,
            }),
        };
        Cell {
            result: SimResult {
                stats,
                ..sample_cell().result
            },
            ..sample_cell()
        }
    }

    /// `encode_cell_file(0x5eed_cafe_0000_0014, &every_counter_cell())`,
    /// recorded before the stats codec was derived from `SimStats`' counter
    /// walk. Cell files already on disk hold these bytes, so they must not
    /// move; a new counter moves them, and then needs a
    /// `JOURNAL_FORMAT_VERSION` bump and a fresh recording.
    const EVERY_COUNTER_CELL_BYTES: &str = concat!(
        "4d535043454c4c460100000014000000fecaed5e04677a69700002100101056c",
        "63733d320531362d53500667736861726500a1f736e2dc2ae3dc2aa41fd58603",
        "e6d403bf17c0176df2070b0c0d0e0f100205f984012312131415161718190000",
        "00000000baef0f00000000000000000000000000000000000000000000000000",
        "000000000000001b000000000000000000000000000000000000000000000000",
        "1c0000001d000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000000000000000000000000000000000000000ceea",
        "011f202122232425262728292a2b2c0108a01fc413343333333333d33f01e6b5",
        "faf8b048893f0108abaaaaaa6a6e49410b0bee073cdd5e406666666666e63740",
        "13e80ee4590fd301",
    );

    #[test]
    fn cell_codec_keeps_every_counter_in_its_recorded_place() {
        let cell = every_counter_cell();
        let fp = 0x5eed_cafe_0000_0014;
        let bytes = encode_cell_file(fp, &cell);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, EVERY_COUNTER_CELL_BYTES);
        let decoded = decode_cell_file(fp, &bytes).expect("decodes");
        assert_cells_bit_identical(&cell, &decoded);
        // The window identities hold for every counter, including
        // `bank_full` registers present on one side only.
        let a = cell.result.stats;
        let b = sample_cell().result.stats;
        let mut sum = a.clone();
        sum.accumulate(&b);
        assert_eq!(sum.subtracting(&b), a);
        assert_eq!(sum.subtracting(&a), b);
    }

    #[test]
    fn corrupt_cell_file_is_rejected_at_every_byte() {
        let cell = sample_cell();
        let fp = 0x0123_4567_89ab_cdef;
        let bytes = encode_cell_file(fp, &cell);
        // Any single flipped byte anywhere must be rejected (FNV-1a's
        // substitution guarantee), sampled across the file.
        for pos in (0..bytes.len()).step_by(7) {
            let mut copy = bytes.clone();
            copy[pos] ^= 0x40;
            assert!(
                decode_cell_file(fp, &copy).is_err(),
                "flipped byte {pos} went undetected"
            );
        }
        // A wrong expected fingerprint is rejected even with a valid file.
        assert!(decode_cell_file(fp + 1, &bytes).is_err());
    }

    #[test]
    fn fingerprint_covers_every_axis() {
        let config = sample_config();
        let base = cell_fingerprint(1, "gzip", Variant::Original, None, &config, 20_000, None);
        let spec = SamplingPlan::Periodic {
            interval: 1_000,
            detail_len: 100,
            warmup_len: 50,
        };
        let mut hooked = config.clone();
        hooked.latency.int_mul = 5;
        let others = [
            cell_fingerprint(2, "gzip", Variant::Original, None, &config, 20_000, None),
            cell_fingerprint(1, "vpr", Variant::Original, None, &config, 20_000, None),
            cell_fingerprint(1, "gzip", Variant::Modified, None, &config, 20_000, None),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                Some("h"),
                &config,
                20_000,
                None,
            ),
            cell_fingerprint(1, "gzip", Variant::Original, None, &config, 30_000, None),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(spec),
            ),
            // The plan *variant* and every plan-specific field are axes of
            // their own: a phase-aware or adaptive run must never replay a
            // periodic cell with the same window shape (or vice versa).
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan::PhaseAware {
                    interval: 1_000,
                    detail_len: 100,
                    warmup_len: 50,
                    max_phases: 8,
                    seed: 1,
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan::PhaseAware {
                    interval: 1_000,
                    detail_len: 100,
                    warmup_len: 50,
                    max_phases: 8,
                    seed: 2,
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan::PhaseAware {
                    interval: 1_000,
                    detail_len: 100,
                    warmup_len: 50,
                    max_phases: 4,
                    seed: 1,
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan::Adaptive {
                    interval: 1_000,
                    detail_len: 100,
                    warmup_len: 50,
                    target_rel_stderr: 0.01,
                    max_windows: 64,
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan::Adaptive {
                    interval: 1_000,
                    detail_len: 100,
                    warmup_len: 50,
                    target_rel_stderr: 0.02,
                    max_windows: 64,
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan::Adaptive {
                    interval: 1_000,
                    detail_len: 100,
                    warmup_len: 50,
                    target_rel_stderr: 0.01,
                    max_windows: 32,
                }),
            ),
            cell_fingerprint(1, "gzip", Variant::Original, None, &hooked, 20_000, None),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &SimConfig::machine(MachineKind::Baseline, PredictorKind::Gshare),
                20_000,
                None,
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &SimConfig::machine(MachineKind::msp(16), PredictorKind::Tage),
                20_000,
                None,
            ),
        ];
        for (i, other) in others.iter().enumerate() {
            assert_ne!(base, *other, "axis {i} did not change the fingerprint");
        }
        // Pairwise too: plan-specific fields (seed, max_phases, target,
        // max_windows) must separate plans that agree on everything else.
        for i in 0..others.len() {
            for j in i + 1..others.len() {
                assert_ne!(others[i], others[j], "axes {i} and {j} collided");
            }
        }
        // And it is stable: same inputs, same fingerprint.
        assert_eq!(
            base,
            cell_fingerprint(1, "gzip", Variant::Original, None, &config, 20_000, None)
        );
    }

    #[test]
    fn journal_records_survive_reopen_and_replay_bit_identically() {
        let dir = temp_dir("reopen");
        let cell = sample_cell();
        let fp = cell_fingerprint(
            7,
            "gzip",
            Variant::Original,
            Some("lcs=2"),
            &sample_config(),
            20_000,
            None,
        );
        {
            let journal = ExperimentJournal::open(&dir);
            assert!(!journal.is_degraded());
            assert!(journal.load_cell(fp).is_none());
            journal.record_cell(fp, &cell);
            assert_eq!(journal.recorded_count(), 1);
            // Recording the same fingerprint again is a no-op.
            journal.record_cell(fp, &cell);
            assert_eq!(journal.recorded_count(), 1);
        }
        let journal = ExperimentJournal::open(&dir);
        let replayed = journal.load_cell(fp).expect("journaled cell replays");
        assert_cells_bit_identical(&cell, &replayed);
        assert_eq!(journal.replayed_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unopenable_journal_degrades_without_failing() {
        // A regular *file* where the directory should be: create_dir_all
        // fails even for root (permission bits would not).
        let dir = temp_dir("degraded");
        fs::write(&dir, b"not a directory").unwrap();
        let journal = ExperimentJournal::open(&dir);
        assert!(journal.is_degraded());
        let cell = sample_cell();
        journal.record_cell(0x77, &cell);
        assert_eq!(journal.recorded_count(), 0, "nothing durably recorded");
        assert!(journal.load_cell(0x77).is_none());
        fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn missing_cell_file_forgets_the_fingerprint_for_recompute() {
        let dir = temp_dir("missing-cell");
        let cell = sample_cell();
        let journal = ExperimentJournal::open(&dir);
        journal.record_cell(0xabc, &cell);
        fs::remove_file(journal.cell_path(0xabc)).unwrap();
        let reopened = ExperimentJournal::open(&dir);
        assert!(reopened.load_cell(0xabc).is_none(), "file is gone");
        reopened.record_cell(0xabc, &cell);
        assert_eq!(reopened.recorded_count(), 1, "the cell re-records");
        assert!(reopened.load_cell(0xabc).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
