//! Materialised functional traces: execute a workload once, simulate it
//! everywhere.
//!
//! A [`Trace`] is the committed-path [`ExecutedInst`] stream of a
//! `(program, max_instructions)` pair, materialised once by the functional
//! executor and then shared **read-only** across any number of timing
//! simulators, predictors and sweep threads (typically as an
//! `Arc<Trace>`). Records are held as 24-byte [`PackedInst`]s (PC text
//! index, taken bit, address/target word, value word) next to a copy of the
//! program text; reading one is a bounds-checked slice access plus a
//! rebuild of the derived fields, returning the full `ExecutedInst` by
//! value. No functional re-execution and no per-consumer copies are
//! involved.
//!
//! Because a timing simulator may fetch slightly past the materialised end
//! (its front end runs ahead of commit), a trace also snapshots the
//! [`ArchState`] *after its last record*. A consumer that needs more records
//! clones that end state once and continues functional execution privately —
//! the lazy-extension invariant: **extending past a trace's end from its end
//! state yields exactly the records a longer capture would have produced**,
//! because functional execution is deterministic.
//!
//! ```
//! use msp_isa::{ArchReg, Instruction, Program, Trace};
//!
//! let r = ArchReg::int;
//! let program = Program::new(vec![
//!     Instruction::li(r(1), 3),
//!     Instruction::addi(r(1), r(1), -1),
//!     Instruction::bne(r(1), ArchReg::ZERO, msp_isa::TEXT_BASE + 4),
//!     Instruction::halt(),
//! ]);
//! let trace = Trace::capture(&program, 1_000);
//! assert_eq!(trace.len(), 8); // li + 3*(addi+bne) + halt
//! assert!(trace.is_complete());
//! assert_eq!(trace.get(0).unwrap().pc, program.entry());
//! ```

use crate::exec::{execute_step, ExecError, ExecutedInst};
use crate::inst::Instruction;
use crate::program::Program;
use crate::record::{PackedInst, PACKED_RECORD_BYTES};
use crate::state::ArchState;
use std::collections::BTreeMap;
use std::fmt;

/// The basic-block vector (BBV) of one trace interval: how many committed
/// instructions the interval spent in each basic block, keyed by the block's
/// start PC.
///
/// A *basic block* here is the dynamic notion SimPoint uses: a run of
/// committed instructions that starts at the target of a control transfer
/// (or at the program entry) and ends at the next control-flow instruction
/// ([`ExecutedInst::is_control`]). Every committed instruction is attributed
/// to the start PC of the block it executes in, so an interval's weights
/// always sum to the number of instructions the interval covers. Pairs are
/// sorted by start PC, which makes signatures directly comparable and their
/// serialisation canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BbvSignature {
    /// `(block start PC, committed instructions)` pairs, sorted by PC.
    weights: Vec<(u64, u64)>,
}

impl BbvSignature {
    /// Reassembles a signature from already-sorted `(pc, count)` pairs
    /// (the trace-file decoder).
    pub(crate) fn from_sorted_weights(weights: Vec<(u64, u64)>) -> BbvSignature {
        debug_assert!(weights.windows(2).all(|w| w[0].0 < w[1].0));
        BbvSignature { weights }
    }

    /// The `(block start PC, committed instructions)` pairs, sorted by PC.
    pub fn weights(&self) -> &[(u64, u64)] {
        &self.weights
    }

    /// Total committed instructions the signature covers (the sum of all
    /// block weights — the interval length, except for a partial tail
    /// interval).
    pub fn total(&self) -> u64 {
        self.weights.iter().map(|&(_, n)| n).sum()
    }

    /// Whether the signature covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// Streaming accumulator of per-interval [`BbvSignature`]s over a
/// committed-path record stream.
///
/// Feed it every committed record in dynamic order via
/// [`BbvAccumulator::observe`]; a finished signature is emitted every
/// `interval` records, and [`BbvAccumulator::finish`] flushes the partial
/// tail. The accumulator is the *single* definition of BBV profiling in the
/// workspace — [`TraceBuilder`] and the streaming trace-file capture feed it
/// from one shared capture step, so a signature never depends on which path
/// produced it.
#[derive(Debug, Clone)]
pub struct BbvAccumulator {
    interval: u64,
    /// Start PC of the basic block the next record belongs to; `None` until
    /// the first record is seen.
    block_start: Option<u64>,
    counts: BTreeMap<u64, u64>,
    in_interval: u64,
    bbvs: Vec<BbvSignature>,
}

impl BbvAccumulator {
    /// Creates an accumulator emitting one signature per `interval` records.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> BbvAccumulator {
        assert!(interval > 0, "BBV interval must be positive");
        BbvAccumulator {
            interval,
            block_start: None,
            counts: BTreeMap::new(),
            in_interval: 0,
            bbvs: Vec::new(),
        }
    }

    /// Attributes one committed record to its basic block.
    pub fn observe(&mut self, rec: &ExecutedInst) {
        let start = *self.block_start.get_or_insert(rec.pc);
        *self.counts.entry(start).or_insert(0) += 1;
        // A control transfer ends the current block; the next committed
        // record starts a new one at wherever control went.
        if rec.is_control() {
            self.block_start = Some(rec.next_pc);
        }
        self.in_interval += 1;
        if self.in_interval == self.interval {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let weights: Vec<(u64, u64)> = std::mem::take(&mut self.counts).into_iter().collect();
        self.bbvs.push(BbvSignature { weights });
        self.in_interval = 0;
    }

    /// Flushes the partial tail interval (if any) and returns every
    /// signature, one per interval in stream order.
    pub fn finish(mut self) -> Vec<BbvSignature> {
        if self.in_interval > 0 {
            self.flush();
        }
        self.bbvs
    }
}

/// An immutable, fully materialised committed-path execution trace.
///
/// See the module-level documentation in `trace.rs` for the sharing
/// model. A trace
/// captured with [`Trace::capture_with_checkpoints`] additionally carries
/// periodic **architectural checkpoints**: [`ArchState`] snapshots taken
/// every `checkpoint_interval` committed instructions, each positioned
/// *before* the record at its index. They are what lets a sampled timing
/// simulation resume detailed measurement mid-trace
/// (`Simulator::resume_from` in `msp-pipeline`) without replaying the
/// prefix in detail.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The program's text segment, which every record is unpacked against.
    text: Box<[Instruction]>,
    records: Vec<PackedInst>,
    end_state: ArchState,
    complete: bool,
    /// Committed instructions between checkpoints (`0` = no checkpoints).
    checkpoint_interval: u64,
    /// `checkpoints[i]` is the architectural state positioned immediately
    /// before the record at dynamic index `i * checkpoint_interval`.
    checkpoints: Vec<ArchState>,
    /// `bbvs[i]` is the basic-block vector of records
    /// `[i * checkpoint_interval, (i + 1) * checkpoint_interval)` (the last
    /// may be partial). Empty when captured without checkpoints.
    bbvs: Vec<BbvSignature>,
}

impl Trace {
    /// Materialises the trace of `program`, stopping after `max_instructions`
    /// dynamic instructions or at program completion (halt / PC leaving the
    /// text segment), whichever comes first.
    pub fn capture(program: &Program, max_instructions: u64) -> Trace {
        let mut builder = TraceBuilder::new(program);
        builder.extend_to(max_instructions);
        builder.finish()
    }

    /// [`Trace::capture`] plus an architectural checkpoint every
    /// `checkpoint_interval` committed instructions (including one at index
    /// 0, the initial state).
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_interval` is zero.
    pub fn capture_with_checkpoints(
        program: &Program,
        max_instructions: u64,
        checkpoint_interval: u64,
    ) -> Trace {
        let mut builder = TraceBuilder::new(program).checkpoint_every(checkpoint_interval);
        builder.extend_to(max_instructions);
        builder.finish()
    }

    /// An empty trace positioned at `program`'s initial state: zero records,
    /// not complete. Consumers extend it lazily from the start — this is how
    /// a private (non-shared) oracle is expressed in trace terms.
    pub fn empty(program: &Program) -> Trace {
        Trace {
            text: program.text().into(),
            records: Vec::new(),
            end_state: ArchState::new(program),
            complete: false,
            checkpoint_interval: 0,
            checkpoints: Vec::new(),
            bbvs: Vec::new(),
        }
    }

    /// The materialised records, in dynamic program order.
    pub fn records(&self) -> Records<'_> {
        Records {
            text: &self.text,
            packed: &self.records,
        }
    }

    /// The record at dynamic index `index`, if materialised.
    #[inline]
    pub fn get(&self, index: u64) -> Option<ExecutedInst> {
        self.records
            .get(index as usize)
            .map(|p| p.unpack_with(&self.text))
    }

    /// Number of materialised records.
    #[inline]
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the program finished (halted or left the text segment) within
    /// the materialised records. A complete trace can never be extended:
    /// indices at or past [`Trace::len`] hold no instruction.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The functional state immediately after the last materialised record —
    /// the starting point for lazy extension past the trace's end.
    pub fn end_state(&self) -> &ArchState {
        &self.end_state
    }

    /// Committed instructions between recorded architectural checkpoints,
    /// or `0` if the trace was captured without checkpoints.
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }

    /// Number of architectural checkpoints recorded.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// The architectural checkpoint positioned immediately **before** the
    /// record at dynamic index `index`: the register file, data memory and
    /// PC exactly as committed execution left them after `index`
    /// instructions. `None` unless `index` is a multiple of the checkpoint
    /// interval that execution actually reached (a program that finishes
    /// early records no checkpoints past its end).
    ///
    /// The defining invariant — pinned by the `msp-isa` tests and
    /// `debug_assert`ed by `Simulator::resume_from` — is that functional
    /// execution from `checkpoint_at(k)` reproduces the records from index
    /// `k` on bit-identically.
    pub fn checkpoint_at(&self, index: u64) -> Option<&ArchState> {
        if self.checkpoint_interval == 0 || !index.is_multiple_of(self.checkpoint_interval) {
            return None;
        }
        self.checkpoints
            .get((index / self.checkpoint_interval) as usize)
    }

    /// Per-interval basic-block vectors: `bbvs()[i]` covers records
    /// `[i * interval, (i + 1) * interval)` where `interval` is
    /// [`Trace::checkpoint_interval`] (the last signature may cover a partial
    /// interval). Empty for traces captured without checkpoints — BBV
    /// profiling rides along with checkpointing, since both exist to serve
    /// sampled simulation.
    pub fn bbvs(&self) -> &[BbvSignature] {
        &self.bbvs
    }

    /// Reassembles a trace of `program` from its raw components (the
    /// trace-file decoder). The caller vouches for the invariants a capture
    /// would have established: records form a committed-path chain,
    /// `end_state` sits immediately after the last record, and
    /// `checkpoints[i]` is the state before record `i * checkpoint_interval`.
    pub(crate) fn from_parts(
        program: &Program,
        records: Vec<PackedInst>,
        end_state: ArchState,
        complete: bool,
        checkpoint_interval: u64,
        checkpoints: Vec<ArchState>,
        bbvs: Vec<BbvSignature>,
    ) -> Trace {
        Trace {
            text: program.text().into(),
            records,
            end_state,
            complete,
            checkpoint_interval,
            checkpoints,
            bbvs,
        }
    }

    /// All recorded checkpoints in index order (trace-file serialisation).
    pub(crate) fn checkpoints(&self) -> &[ArchState] {
        &self.checkpoints
    }

    /// Approximate resident size of the trace in bytes: the packed record
    /// storage and the program text plus the **full heap** of the end-state
    /// snapshot and of every
    /// checkpoint — each `ArchState`'s inline storage (register file, PC)
    /// *and* its data memory's page payloads plus page-table heap
    /// ([`crate::Memory::footprint_bytes`]). Byte-bounded consumers (the
    /// Lab's LRU trace cache) budget against this number, so undercounting
    /// a checkpoint's heap would let checkpoint-heavy traces exceed the
    /// configured bound.
    pub fn footprint_bytes(&self) -> usize {
        self.records.capacity() * PACKED_RECORD_BYTES
            + std::mem::size_of_val::<[Instruction]>(&self.text)
            + std::mem::size_of::<Self>()
            + self.end_state.memory().footprint_bytes()
            + self.checkpoints.capacity() * std::mem::size_of::<ArchState>()
            + self
                .checkpoints
                .iter()
                .map(|c| c.memory().footprint_bytes())
                .sum::<usize>()
            + self.bbvs.capacity() * std::mem::size_of::<BbvSignature>()
            + self
                .bbvs
                .iter()
                .map(|b| b.weights.capacity() * std::mem::size_of::<(u64, u64)>())
                .sum::<usize>()
    }
}

/// A borrowed view of a [`Trace`]'s records, in dynamic program order.
///
/// The trace stores its records packed, so the view yields each full
/// [`ExecutedInst`] **by value**, rebuilt from the program text.
#[derive(Clone, Copy)]
pub struct Records<'t> {
    text: &'t [Instruction],
    packed: &'t [PackedInst],
}

impl<'t> Records<'t> {
    /// Iterates over the records by value.
    pub fn iter(&self) -> RecordIter<'t> {
        RecordIter {
            text: self.text,
            packed: self.packed.iter(),
        }
    }
}

impl<'t> IntoIterator for Records<'t> {
    type Item = ExecutedInst;
    type IntoIter = RecordIter<'t>;

    fn into_iter(self) -> RecordIter<'t> {
        self.iter()
    }
}

impl PartialEq for Records<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Records`] view, yielding each [`ExecutedInst`] by
/// value.
#[derive(Debug, Clone)]
pub struct RecordIter<'t> {
    text: &'t [Instruction],
    packed: std::slice::Iter<'t, PackedInst>,
}

impl Iterator for RecordIter<'_> {
    type Item = ExecutedInst;

    #[inline]
    fn next(&mut self) -> Option<ExecutedInst> {
        self.packed.next().map(|p| p.unpack_with(self.text))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.packed.size_hint()
    }
}

/// The functional pass behind every trace capture, shared by
/// [`TraceBuilder`] and the streaming `capture_trace_to_path`: a private
/// [`ArchState`] stepped by [`execute_step`], the checkpoint cadence and BBV
/// profiling (enabled exactly when checkpointing is, sharing its interval).
/// It stops like the timing simulator's oracle: a `halt` record is produced
/// and ends the capture, and a PC leaving the text segment ends it without a
/// record.
#[derive(Debug, Clone)]
pub(crate) struct Capture<'p> {
    program: &'p Program,
    state: ArchState,
    complete: bool,
    records: u64,
    checkpoint_interval: u64,
    /// Record index of the next checkpoint (`u64::MAX` when not
    /// checkpointing).
    next_checkpoint: u64,
    /// Present iff checkpointing is configured: BBV profiling shares the
    /// checkpoint interval, so every checkpointed trace can feed phase
    /// clustering without a second functional pass.
    bbv: Option<BbvAccumulator>,
}

impl<'p> Capture<'p> {
    /// A capture positioned at `program`'s initial state, checkpointing
    /// every `checkpoint_interval` records (`0` = never).
    pub(crate) fn new(program: &'p Program, checkpoint_interval: u64) -> Self {
        Capture {
            program,
            state: ArchState::new(program),
            complete: false,
            records: 0,
            checkpoint_interval,
            next_checkpoint: if checkpoint_interval > 0 { 0 } else { u64::MAX },
            bbv: (checkpoint_interval > 0).then(|| BbvAccumulator::new(checkpoint_interval)),
        }
    }

    /// Executes the next instruction and returns its record, handing the
    /// checkpoint due before it, if one is, to `keep_checkpoint`; `None`
    /// once the program has finished.
    pub(crate) fn step(&mut self, keep_checkpoint: impl FnOnce(ArchState)) -> Option<ExecutedInst> {
        if self.complete {
            return None;
        }
        // A checkpoint is the state *before* the record at its index, so it
        // is snapshotted ahead of the step and kept only if the step
        // actually produced that record.
        let snapshot = (self.records == self.next_checkpoint).then(|| self.state.clone());
        match execute_step(&mut self.state, self.program) {
            Ok(rec) => {
                self.records += 1;
                if let Some(state) = snapshot {
                    self.next_checkpoint += self.checkpoint_interval;
                    keep_checkpoint(state);
                }
                if let Some(bbv) = self.bbv.as_mut() {
                    bbv.observe(&rec);
                }
                self.complete = rec.halted;
                Some(rec)
            }
            Err(ExecError::Halted) | Err(ExecError::OutOfRange(_)) => {
                self.complete = true;
                None
            }
        }
    }

    /// Ends the capture: the state after the last record, whether the
    /// program finished, and the BBV signatures (empty without
    /// checkpointing).
    pub(crate) fn finish(self) -> (ArchState, bool, Vec<BbvSignature>) {
        let bbvs = self.bbv.map_or_else(Vec::new, BbvAccumulator::finish);
        (self.state, self.complete, bbvs)
    }
}

/// Incremental constructor of a [`Trace`] on top of [`execute_step`].
///
/// The builder appends one packed record per functional step of its
/// capture, with exactly the stopping semantics of the timing simulator's
/// oracle: a `halt` record is materialised (and ends the trace), and a PC
/// leaving the text segment ends the trace without a record.
#[derive(Debug, Clone)]
pub struct TraceBuilder<'p> {
    capture: Capture<'p>,
    records: Vec<PackedInst>,
    checkpoints: Vec<ArchState>,
}

impl<'p> TraceBuilder<'p> {
    /// Creates a builder positioned at `program`'s initial state.
    pub fn new(program: &'p Program) -> Self {
        TraceBuilder {
            capture: Capture::new(program, 0),
            records: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Records an architectural checkpoint every `interval` committed
    /// instructions from here on, and profiles BBVs over the same interval.
    /// Must be configured before the first step so checkpoint 0 (the
    /// initial state) is captured.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or records have already been
    /// materialised.
    pub fn checkpoint_every(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        assert!(
            self.records.is_empty(),
            "checkpointing must be configured before the first step"
        );
        self.capture = Capture::new(self.capture.program, interval);
        self
    }

    /// Number of records materialised so far.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether no records have been materialised yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the program finished within the materialised records.
    pub fn is_complete(&self) -> bool {
        self.capture.complete
    }

    /// Executes one more dynamic instruction and appends its record. Returns
    /// `false` (and does nothing) once the program has finished.
    pub fn step(&mut self) -> bool {
        let Some(rec) = self.capture.step(|state| self.checkpoints.push(state)) else {
            return false;
        };
        self.records.push(PackedInst::pack(&rec));
        true
    }

    /// Materialises records until the trace holds `n` of them or the program
    /// finishes.
    pub fn extend_to(&mut self, n: u64) {
        // The reservation is a hint: clamp it so an effectively-unbounded
        // budget (`u64::MAX` = "run to completion") doesn't try to reserve
        // the address space up front.
        const MAX_RESERVE: u64 = 1 << 22;
        self.records
            .reserve(n.saturating_sub(self.len()).min(MAX_RESERVE) as usize);
        while self.len() < n && self.step() {}
    }

    /// Finalises the builder into an immutable [`Trace`].
    pub fn finish(self) -> Trace {
        let text = self.capture.program.text().into();
        let checkpoint_interval = self.capture.checkpoint_interval;
        let (end_state, complete, bbvs) = self.capture.finish();
        let mut records = self.records;
        records.shrink_to_fit();
        Trace {
            text,
            records,
            end_state,
            complete,
            checkpoint_interval,
            checkpoints: self.checkpoints,
            bbvs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction;
    use crate::reg::ArchReg;
    use crate::TEXT_BASE;
    use proptest::prelude::*;

    fn counted_loop(n: i64) -> Program {
        let r = ArchReg::int;
        Program::new(vec![
            Instruction::li(r(1), n),
            Instruction::addi(r(1), r(1), -1),
            Instruction::bne(r(1), ArchReg::ZERO, TEXT_BASE + 4),
            Instruction::halt(),
        ])
    }

    #[test]
    fn capture_stops_at_halt() {
        let p = counted_loop(3);
        let trace = Trace::capture(&p, 1_000);
        assert_eq!(trace.len(), 8);
        assert!(trace.is_complete());
        assert!(!trace.is_empty());
        assert!(trace.get(7).unwrap().halted);
        assert!(trace.get(8).is_none());
        assert!(trace.end_state().is_halted());
    }

    #[test]
    fn capture_stops_at_budget() {
        let p = counted_loop(1_000_000);
        let trace = Trace::capture(&p, 100);
        assert_eq!(trace.len(), 100);
        assert!(!trace.is_complete());
        // The end state is positioned exactly after record 99: extending
        // from it reproduces what a longer capture yields.
        let longer = Trace::capture(&p, 150);
        let mut tail_state = trace.end_state().clone();
        for i in 100..150 {
            let rec = execute_step(&mut tail_state, &p).unwrap();
            assert_eq!(rec, longer.get(i).unwrap(), "lazy-extension invariant");
        }
    }

    #[test]
    fn empty_trace_is_extension_ready() {
        let p = counted_loop(2);
        let trace = Trace::empty(&p);
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
        assert!(!trace.is_complete());
        assert_eq!(trace.end_state().pc(), p.entry());
        assert_eq!(trace.end_state().retired(), 0);
    }

    #[test]
    fn builder_step_by_step_matches_capture() {
        let p = counted_loop(5);
        let mut builder = TraceBuilder::new(&p);
        assert!(builder.is_empty());
        while builder.step() {}
        assert!(builder.is_complete());
        assert!(!builder.step(), "stepping a complete builder is a no-op");
        let n = builder.len();
        let trace = builder.finish();
        let reference = Trace::capture(&p, 1_000);
        assert_eq!(n, reference.len());
        assert_eq!(trace.records(), reference.records());
    }

    #[test]
    fn out_of_range_pc_ends_trace_without_record() {
        let p = Program::new(vec![
            Instruction::li(ArchReg::int(1), 1),
            Instruction::jump(0x9999_0000),
        ]);
        let trace = Trace::capture(&p, 100);
        assert_eq!(trace.len(), 2, "li + jump execute, then the PC escapes");
        assert!(trace.is_complete());
    }

    #[test]
    fn checkpoints_are_recorded_at_exact_intervals() {
        let p = counted_loop(1_000);
        let trace = Trace::capture_with_checkpoints(&p, 250, 100);
        assert_eq!(trace.checkpoint_interval(), 100);
        // Indices 0, 100 and 200 are reached; 300 is past the capture.
        assert_eq!(trace.checkpoint_count(), 3);
        for k in [0u64, 100, 200] {
            let state = trace.checkpoint_at(k).expect("checkpoint recorded");
            assert_eq!(state.retired(), k, "checkpoint {k} position");
        }
        assert!(trace.checkpoint_at(300).is_none());
        assert!(trace.checkpoint_at(50).is_none(), "not a multiple");
        // A plain capture records none.
        let plain = Trace::capture(&p, 250);
        assert_eq!(plain.checkpoint_interval(), 0);
        assert_eq!(plain.checkpoint_count(), 0);
        assert!(plain.checkpoint_at(0).is_none());
    }

    #[test]
    fn checkpoints_stop_at_program_end() {
        let p = counted_loop(3); // 8 dynamic instructions.
        let trace = Trace::capture_with_checkpoints(&p, 1_000, 4);
        assert!(trace.is_complete());
        // Checkpoints at 0 and 4; index 8 is the end of the program, so no
        // record follows it and no checkpoint is taken there.
        assert_eq!(trace.checkpoint_count(), 2);
        assert!(trace.checkpoint_at(8).is_none());
    }

    #[test]
    fn checkpoint_state_is_bit_identical_to_executing_from_scratch() {
        let p = counted_loop(500);
        let trace = Trace::capture_with_checkpoints(&p, 400, 128);
        let mut state = ArchState::new(&p);
        for k in 0..400u64 {
            if let Some(checkpoint) = trace.checkpoint_at(k) {
                assert_eq!(
                    checkpoint, &state,
                    "checkpoint {k} must equal exact functional execution from 0"
                );
            }
            execute_step(&mut state, &p).unwrap();
        }
    }

    #[test]
    fn checkpointed_capture_has_identical_records() {
        let p = counted_loop(200);
        let plain = Trace::capture(&p, 300);
        let checkpointed = Trace::capture_with_checkpoints(&p, 300, 64);
        assert_eq!(plain.records(), checkpointed.records());
        assert_eq!(plain.is_complete(), checkpointed.is_complete());
        assert!(
            checkpointed.footprint_bytes() > plain.footprint_bytes(),
            "checkpoints are accounted in the footprint"
        );
    }

    #[test]
    fn bbvs_cover_every_interval_and_every_instruction() {
        let p = counted_loop(1_000);
        let trace = Trace::capture_with_checkpoints(&p, 250, 100);
        // 250 records at interval 100: two full intervals plus a partial
        // tail of 50.
        assert_eq!(trace.bbvs().len(), 3);
        assert_eq!(trace.bbvs()[0].total(), 100);
        assert_eq!(trace.bbvs()[1].total(), 100);
        assert_eq!(trace.bbvs()[2].total(), 50);
        let covered: u64 = trace.bbvs().iter().map(BbvSignature::total).sum();
        assert_eq!(covered, trace.len(), "every record is attributed once");
        // Weights are sorted by block start PC.
        for bbv in trace.bbvs() {
            assert!(bbv.weights().windows(2).all(|w| w[0].0 < w[1].0));
            assert!(!bbv.is_empty());
        }
        // A plain capture records none.
        assert!(Trace::capture(&p, 250).bbvs().is_empty());
    }

    #[test]
    fn bbv_blocks_start_at_control_transfer_targets() {
        // counted_loop body: li; (addi; bne)*; halt. Dynamic blocks are
        // [li, addi, bne] from entry, then [addi, bne] per taken iteration,
        // then [halt] after the final not-taken branch.
        let p = counted_loop(3);
        let trace = Trace::capture_with_checkpoints(&p, 1_000, 1_000);
        assert_eq!(trace.bbvs().len(), 1);
        let weights = trace.bbvs()[0].weights();
        let entry = p.entry();
        assert_eq!(
            weights,
            &[(entry, 3), (entry + 4, 4), (entry + 12, 1)],
            "blocks keyed by their start PCs with per-block instruction counts"
        );
    }

    #[test]
    fn standalone_accumulator_matches_builder_profile() {
        let p = counted_loop(500);
        let trace = Trace::capture_with_checkpoints(&p, 333, 64);
        let mut acc = BbvAccumulator::new(64);
        for rec in trace.records() {
            acc.observe(&rec);
        }
        assert_eq!(
            acc.finish(),
            trace.bbvs(),
            "streaming a trace's records reproduces its builder-time BBVs"
        );
    }

    #[test]
    fn footprint_accounts_for_records() {
        let p = counted_loop(64);
        let trace = Trace::capture(&p, 1_000);
        // Records are held packed: the footprint charges exactly the packed
        // size per record on top of the fixed parts (the trace itself, the
        // program text and the end state's memory), no more, no less.
        let records = trace.len() as usize * PACKED_RECORD_BYTES;
        let fixed = std::mem::size_of::<Trace>()
            + std::mem::size_of_val::<[Instruction]>(&trace.text)
            + trace.end_state().memory().footprint_bytes();
        assert!(trace.footprint_bytes() >= records);
        assert!(trace.footprint_bytes() <= records + fixed);
    }

    #[test]
    fn footprint_accounts_checkpoint_heap() {
        // Regression: the footprint used to count a checkpoint as
        // `size_of::<ArchState>()` plus page payloads, missing the memory
        // page-table heap — so a checkpoint-heavy trace under-reported its
        // resident size and the Lab's LRU byte bound could be exceeded.
        let mut p = counted_loop(2_000);
        p.add_data(0x8000, 7); // at least one resident data page
        let plain = Trace::capture(&p, 1_000);
        let checkpointed = Trace::capture_with_checkpoints(&p, 1_000, 100);
        assert!(checkpointed.checkpoint_count() >= 10);
        let per_checkpoint_floor = std::mem::size_of::<ArchState>()
            + checkpointed
                .checkpoint_at(100)
                .unwrap()
                .memory()
                .footprint_bytes();
        assert!(
            checkpointed.footprint_bytes()
                >= plain.footprint_bytes()
                    + (checkpointed.checkpoint_count() - 1) * per_checkpoint_floor,
            "each checkpoint must be accounted with its full memory heap \
             ({} vs {} + {} x {})",
            checkpointed.footprint_bytes(),
            plain.footprint_bytes(),
            checkpointed.checkpoint_count() - 1,
            per_checkpoint_floor,
        );
        // The memory heap accounting itself exceeds the bare page payloads.
        let state = checkpointed.checkpoint_at(100).unwrap();
        assert!(state.memory().footprint_bytes() > state.memory().resident_bytes());
    }

    /// Builds a small but branchy synthetic kernel from raw proptest entropy:
    /// a counted outer loop wrapping `ops`-selected arithmetic/memory
    /// instructions plus a data-dependent inner branch. Every generated
    /// program terminates (the outer counter is finite) and stays inside the
    /// text segment.
    fn random_kernel(ops: &[(u8, u8, u8)], iterations: u8) -> Program {
        let r = ArchReg::int;
        let mut insts = vec![
            Instruction::li(r(1), i64::from(iterations.max(1))),
            Instruction::li(r(2), 0x8000),
        ];
        for &(op, reg, imm) in ops {
            let imm = i64::from(imm);
            let dst = r(3 + usize::from(reg % 6));
            let src = r(3 + usize::from((reg / 7) % 6));
            insts.push(match op % 6 {
                0 => Instruction::addi(dst, src, imm % 64),
                1 => Instruction::add(dst, src, r(2)),
                2 => Instruction::mul(dst, src, src),
                3 => Instruction::load(dst, r(2), (imm % 8) * 8),
                4 => Instruction::store(src, r(2), (imm % 8) * 8),
                _ => Instruction::xor(dst, src, r(1)),
            });
        }
        insts.push(Instruction::addi(r(1), r(1), -1));
        let loop_top = TEXT_BASE + 8;
        insts.push(Instruction::bne(r(1), ArchReg::ZERO, loop_top));
        insts.push(Instruction::halt());
        Program::new(insts)
    }

    proptest! {
        /// Trace replay is exactly step-by-step `execute_step` on random
        /// kernels: same records, same count, same end state.
        #[test]
        fn replay_matches_execute_step(
            ops in proptest::collection::vec((0u8..8, 0u8..64, 0u8..64), 1..24),
            iterations in 1u8..40,
            budget in 1u64..600,
        ) {
            let program = random_kernel(&ops, iterations);
            let trace = Trace::capture(&program, budget);

            let mut state = ArchState::new(&program);
            let mut reference = Vec::new();
            while (reference.len() as u64) < budget {
                match execute_step(&mut state, &program) {
                    Ok(rec) => {
                        let halted = rec.halted;
                        reference.push(rec);
                        if halted {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            prop_assert_eq!(trace.len(), reference.len() as u64);
            for (i, rec) in reference.iter().enumerate() {
                prop_assert_eq!(&trace.get(i as u64).unwrap(), rec);
            }
            // The end state resumes where the reference stopped.
            prop_assert_eq!(trace.end_state().pc(), state.pc());
            prop_assert_eq!(trace.end_state().retired(), state.retired());
        }

        /// Resuming functional execution from any recorded checkpoint
        /// reproduces the trace's suffix records bit-identically — the
        /// invariant `Simulator::resume_from` is built on.
        #[test]
        fn checkpoint_resume_reproduces_suffix(
            ops in proptest::collection::vec((0u8..8, 0u8..64, 0u8..64), 1..16),
            iterations in 1u8..40,
            budget in 16u64..400,
            interval in 8u64..64,
        ) {
            let program = random_kernel(&ops, iterations);
            let trace = Trace::capture_with_checkpoints(&program, budget, interval);
            let mut index = 0u64;
            while let Some(checkpoint) = trace.checkpoint_at(index) {
                let mut state = checkpoint.clone();
                for i in index..trace.len() {
                    let rec = execute_step(&mut state, &program).unwrap();
                    prop_assert_eq!(rec, trace.get(i).unwrap());
                }
                index += interval;
            }
        }
    }
}
