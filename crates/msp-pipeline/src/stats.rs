//! Simulation statistics: everything needed to regenerate the paper's
//! figures (IPC, executed-instruction breakdown, stall attribution).

use msp_isa::{ArchReg, NUM_LOGICAL_REGS};
use std::collections::HashMap;
use std::ops::Range;

/// Per-event activity counts of one simulation: how often each energy-
/// relevant structure was exercised, in the Wattch/CACTI activity-factor
/// tradition. The counters are incremented on the existing pipeline hot
/// paths with no allocation, compose under [`SimStats::accumulate`] /
/// [`SimStats::subtracting`] (so checkpoint-resumed and sampled windows
/// fold exactly), and drive the `msp-power` energy model through the
/// `msp-bench` energy layer.
///
/// Counts are **not** part of [`SimStats::canonical_string`] — the
/// historical golden files pin that rendering byte-for-byte — but they are
/// part of `SimStats`' structural equality, so every determinism fence
/// covers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Register-file reads per bank. For MSP machines the bank is the
    /// physical bank of the renamed source (what the 1R port arbiter sees);
    /// for Baseline/CPR it is the logical register's flat index (the model
    /// treats the fully-ported file's banks as interleaved by register).
    /// Distinct operands of one instruction that resolve to the same bank
    /// count once, matching the port-arbitration rule.
    pub rf_reads: [u64; NUM_LOGICAL_REGS],
    /// Register-file writes per bank, counted at writeback (after the
    /// write-port grant for arbitrated MSP machines).
    pub rf_writes: [u64; NUM_LOGICAL_REGS],
    /// Rename-map lookups: one per dispatched instruction, every machine.
    pub rename_lookups: u64,
    /// MSP State Control Table accesses: one per resolved source plus the
    /// allocation/anchor access of each rename (`RenamedInstInline::
    /// sct_lookups`). Zero on non-MSP machines.
    pub sct_lookups: u64,
    /// MSP LCS-unit propagations: one per commit-stage clock. Zero on
    /// non-MSP machines.
    pub lcs_propagations: u64,
    /// CPR checkpoints allocated (mirrors
    /// [`SimStats::checkpoints_allocated`] so the activity block is
    /// self-contained for the energy fold).
    pub checkpoint_allocs: u64,
    /// CPR checkpoints released, by bulk commit or recovery rollback.
    pub checkpoint_releases: u64,
    /// Issue-queue/RelIQ wakeup broadcasts delivered to sleeping consumers.
    pub reliq_wakeups: u64,
    /// Load-queue associative operations (insert at dispatch, remove at
    /// completion).
    pub lq_searches: u64,
    /// Store-queue associative operations: forwarding probes by issued
    /// loads plus store insertions at dispatch.
    pub sq_searches: u64,
    /// I-cache accesses (one per fetch block, as the fetch stage charges).
    pub icache_accesses: u64,
    /// D-cache accesses: issued loads that did not forward from the store
    /// queue, plus committed-store drains.
    pub dcache_accesses: u64,
    /// Unified L2 accesses (I- or D-side L1 miss).
    pub l2_accesses: u64,
    /// Direction-predictor table accesses (predictions and updates).
    pub predictor_lookups: u64,
    /// BTB accesses (indirect-target lookups and updates).
    pub btb_lookups: u64,
    /// Return-address-stack pushes and pops.
    pub ras_ops: u64,
}

impl Default for ActivityCounters {
    /// All zeros, built through [`SimStats::from_counters`] so the counter
    /// list stays in one place.
    fn default() -> Self {
        *SimStats::from_counters(&[0; SimStats::COUNTERS]).activity
    }
}

impl ActivityCounters {
    /// Total register-file reads across all banks.
    pub fn rf_reads_total(&self) -> u64 {
        self.rf_reads.iter().sum()
    }

    /// Total register-file writes across all banks.
    pub fn rf_writes_total(&self) -> u64 {
        self.rf_writes.iter().sum()
    }
}

/// Breakdown of executed (issued-to-a-functional-unit) instructions, the
/// three bars of Fig. 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutedBreakdown {
    /// Correct-path instructions executed for the first time.
    pub correct_path: u64,
    /// Correct-path instructions re-executed after an imprecise (checkpoint)
    /// recovery squashed them even though they had executed correctly.
    pub correct_path_reexecuted: u64,
    /// Wrong-path instructions executed beyond mispredicted branches.
    pub wrong_path: u64,
}

impl ExecutedBreakdown {
    /// Total executed instructions.
    pub fn total(&self) -> u64 {
        self.correct_path + self.correct_path_reexecuted + self.wrong_path
    }
}

/// Dispatch-stall cycles attributed to their causes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Issue-queue full.
    pub iq_full: u64,
    /// Re-order buffer full (baseline only).
    pub rob_full: u64,
    /// Load queue full.
    pub lq_full: u64,
    /// Store queue full.
    pub sq_full: u64,
    /// Out of physical registers (baseline/CPR global file).
    pub regs_full: u64,
    /// Out of CPR checkpoints.
    pub checkpoints_full: u64,
    /// MSP: a logical register's bank was full, per logical register —
    /// the stall bars of Figs. 6–8.
    pub bank_full: HashMap<ArchReg, u64>,
    /// MSP: rename-group truncated by the same-register-per-cycle limit.
    pub same_reg_limit: u64,
    /// Front end had nothing to deliver (empty after a redirect or I-cache
    /// miss).
    pub frontend_empty: u64,
}

impl StallBreakdown {
    /// Total MSP bank-full stall cycles across all logical registers.
    pub fn bank_full_total(&self) -> u64 {
        self.bank_full.values().sum()
    }

    /// The `n` logical registers with the most bank-full stall cycles,
    /// largest first (the paper plots the top three for 16-SP).
    pub fn top_bank_stalls(&self, n: usize) -> Vec<(ArchReg, u64)> {
        let mut v: Vec<(ArchReg, u64)> = self
            .bank_full
            .iter()
            .map(|(r, c)| (*r, *c))
            .filter(|(_, c)| *c > 0)
            .collect();
        v.sort_by_key(|(r, c)| (std::cmp::Reverse(*c), r.flat_index()));
        v.truncate(n);
        v
    }

    /// Total stall cycles across all causes.
    pub fn total(&self) -> u64 {
        self.iq_full
            + self.rob_full
            + self.lq_full
            + self.sq_full
            + self.regs_full
            + self.checkpoints_full
            + self.bank_full_total()
            + self.same_reg_limit
            + self.frontend_empty
    }
}

// Scalar counters of `SimStats::counters` before `bank_full`, between it
// and the per-bank activity arrays, and after those arrays.
const HEAD_SCALARS: usize = 16;
const MIDDLE_SCALARS: usize = 6;
const TAIL_SCALARS: usize = 14;

/// Complete statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Correct-path instructions committed (the numerator of IPC).
    pub committed: u64,
    /// Executed-instruction breakdown (Fig. 9).
    pub executed: ExecutedBreakdown,
    /// Conditional branches resolved on the correct path.
    pub branches: u64,
    /// Mispredicted conditional branches (direction or indirect target).
    pub mispredictions: u64,
    /// Recoveries performed (equals mispredictions unless coalesced).
    pub recoveries: u64,
    /// CPR only: recoveries that had to roll back to a checkpoint older than
    /// the faulting branch (imprecise recoveries).
    pub imprecise_recoveries: u64,
    /// CPR only: checkpoints allocated.
    pub checkpoints_allocated: u64,
    /// Dispatch-stall attribution.
    pub stalls: StallBreakdown,
    /// Register-file read-port conflicts (MSP arbitration).
    pub port_conflicts: u64,
    /// Loads that forwarded from the store queue.
    pub store_forwards: u64,
    /// D-cache misses observed by loads.
    pub dcache_misses: u64,
    /// Times the no-forward-progress watchdog fired and truncated the run
    /// (20,000 consecutive cycles without a commit). Always zero for a
    /// healthy configuration; a nonzero value marks the statistics as
    /// untrustworthy — the machine wedged and the run was cut short.
    pub watchdog_breaks: u64,
    /// Per-event activity counts driving the energy model (not rendered by
    /// [`SimStats::canonical_string`]; compared structurally). Boxed so the
    /// kilobyte of per-bank arrays lives off the `Simulator`'s hot cache
    /// lines; the box is reused for the whole run, so increments stay
    /// allocation-free.
    pub activity: Box<ActivityCounters>,
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate over resolved correct-path branches.
    pub fn misprediction_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Executed instructions per committed instruction (>= 1; the overhead
    /// the MSP reduces in Fig. 9).
    pub fn execution_overhead(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.executed.total() as f64 / self.committed as f64
        }
    }

    /// Number of counters in the flat sequence of [`SimStats::counters`].
    pub const COUNTERS: usize =
        HEAD_SCALARS + NUM_LOGICAL_REGS + MIDDLE_SCALARS + 2 * NUM_LOGICAL_REGS + TAIL_SCALARS;

    /// Where `stalls.bank_full` sits in [`SimStats::counters`]: one count
    /// per logical register, in flat-index order.
    pub const BANK_FULL_COUNTERS: Range<usize> = HEAD_SCALARS..HEAD_SCALARS + NUM_LOGICAL_REGS;

    /// Every counter as one flat sequence, in declaration order: the
    /// scalars, `bank_full` expanded by flat register index (see
    /// [`SimStats::BANK_FULL_COUNTERS`]), then the activity block with its
    /// per-bank `rf_reads` and `rf_writes` arrays. The fold, the window
    /// subtraction and the journal codec take their counters from this walk
    /// and its inverse [`SimStats::from_counters`] and list none
    /// themselves. The destructure has no rest pattern and the inverse is a
    /// full struct literal, so a new counter is a compile error here until
    /// it is placed in the sequence.
    pub fn counters(&self) -> [u64; SimStats::COUNTERS] {
        let SimStats {
            cycles,
            committed,
            executed:
                ExecutedBreakdown {
                    correct_path,
                    correct_path_reexecuted,
                    wrong_path,
                },
            branches,
            mispredictions,
            recoveries,
            imprecise_recoveries,
            checkpoints_allocated,
            stalls:
                StallBreakdown {
                    iq_full,
                    rob_full,
                    lq_full,
                    sq_full,
                    regs_full,
                    checkpoints_full,
                    bank_full,
                    same_reg_limit,
                    frontend_empty,
                },
            port_conflicts,
            store_forwards,
            dcache_misses,
            watchdog_breaks,
            activity,
        } = self;
        let ActivityCounters {
            rf_reads,
            rf_writes,
            rename_lookups,
            sct_lookups,
            lcs_propagations,
            checkpoint_allocs,
            checkpoint_releases,
            reliq_wakeups,
            lq_searches,
            sq_searches,
            icache_accesses,
            dcache_accesses,
            l2_accesses,
            predictor_lookups,
            btb_lookups,
            ras_ops,
        } = activity.as_ref();
        let head: [u64; HEAD_SCALARS] = [
            *cycles,
            *committed,
            *correct_path,
            *correct_path_reexecuted,
            *wrong_path,
            *branches,
            *mispredictions,
            *recoveries,
            *imprecise_recoveries,
            *checkpoints_allocated,
            *iq_full,
            *rob_full,
            *lq_full,
            *sq_full,
            *regs_full,
            *checkpoints_full,
        ];
        let mut bank_full_by_reg = [0; NUM_LOGICAL_REGS];
        for (reg, count) in bank_full {
            bank_full_by_reg[reg.flat_index()] = *count;
        }
        let middle: [u64; MIDDLE_SCALARS] = [
            *same_reg_limit,
            *frontend_empty,
            *port_conflicts,
            *store_forwards,
            *dcache_misses,
            *watchdog_breaks,
        ];
        let tail: [u64; TAIL_SCALARS] = [
            *rename_lookups,
            *sct_lookups,
            *lcs_propagations,
            *checkpoint_allocs,
            *checkpoint_releases,
            *reliq_wakeups,
            *lq_searches,
            *sq_searches,
            *icache_accesses,
            *dcache_accesses,
            *l2_accesses,
            *predictor_lookups,
            *btb_lookups,
            *ras_ops,
        ];
        let parts: [&[u64]; 6] = [
            &head,
            &bank_full_by_reg,
            &middle,
            rf_reads,
            rf_writes,
            &tail,
        ];
        let mut out = [0; SimStats::COUNTERS];
        for (slot, value) in out.iter_mut().zip(parts.into_iter().flatten()) {
            *slot = *value;
        }
        out
    }

    /// The inverse of [`SimStats::counters`]. `bank_full` keeps only the
    /// registers with a nonzero count, as the simulator records them.
    pub fn from_counters(counters: &[u64; SimStats::COUNTERS]) -> SimStats {
        let mut values = counters.iter().copied();
        let mut next = || {
            values
                .next()
                .expect("the inverse reads exactly SimStats::COUNTERS counters")
        };
        // Struct-literal fields are evaluated in the order written, which
        // is the order of the walk above.
        SimStats {
            cycles: next(),
            committed: next(),
            executed: ExecutedBreakdown {
                correct_path: next(),
                correct_path_reexecuted: next(),
                wrong_path: next(),
            },
            branches: next(),
            mispredictions: next(),
            recoveries: next(),
            imprecise_recoveries: next(),
            checkpoints_allocated: next(),
            stalls: StallBreakdown {
                iq_full: next(),
                rob_full: next(),
                lq_full: next(),
                sq_full: next(),
                regs_full: next(),
                checkpoints_full: next(),
                bank_full: (0..NUM_LOGICAL_REGS)
                    .filter_map(|flat| {
                        let count = next();
                        (count > 0).then(|| (ArchReg::from_flat_index(flat), count))
                    })
                    .collect(),
                same_reg_limit: next(),
                frontend_empty: next(),
            },
            port_conflicts: next(),
            store_forwards: next(),
            dcache_misses: next(),
            watchdog_breaks: next(),
            activity: Box::new(ActivityCounters {
                rf_reads: std::array::from_fn(|_| next()),
                rf_writes: std::array::from_fn(|_| next()),
                rename_lookups: next(),
                sct_lookups: next(),
                lcs_propagations: next(),
                checkpoint_allocs: next(),
                checkpoint_releases: next(),
                reliq_wakeups: next(),
                lq_searches: next(),
                sq_searches: next(),
                icache_accesses: next(),
                dcache_accesses: next(),
                l2_accesses: next(),
                predictor_lookups: next(),
                btb_lookups: next(),
                ras_ops: next(),
            }),
        }
    }

    /// Applies `op` to each pair of counters of `self` and `other`.
    fn zip_counters(&self, other: &SimStats, op: impl Fn(u64, u64) -> u64) -> SimStats {
        let mut counters = self.counters();
        for (mine, theirs) in counters.iter_mut().zip(other.counters()) {
            *mine = op(*mine, theirs);
        }
        SimStats::from_counters(&counters)
    }

    /// Adds every counter of `other` into `self` (the `bank_full` maps are
    /// merged per register). Used by the sampled-simulation aggregator to
    /// fold per-interval statistics into one whole-run summary.
    pub fn accumulate(&mut self, other: &SimStats) {
        *self = self.zip_counters(other, |mine, theirs| mine + theirs);
    }

    /// The counter-wise difference `self − prefix`, for measuring a window
    /// of a longer run: clone the statistics where the window starts, keep
    /// simulating, and subtract. All counters are monotone during forward
    /// simulation, so saturating subtraction is exact when `prefix` really
    /// is an earlier snapshot of the same run.
    pub fn subtracting(&self, prefix: &SimStats) -> SimStats {
        self.zip_counters(prefix, u64::saturating_sub)
    }

    /// A canonical, order-stable text rendering of every historical counter
    /// (the `bank_full` map is emitted in flat-index order). The
    /// [`ActivityCounters`] block is deliberately **excluded** so the
    /// checked-in golden files stay byte-identical across counter
    /// additions; activity is covered by `SimStats`' structural equality,
    /// which every determinism fence asserts alongside this string.
    pub fn canonical_string(&self) -> String {
        let mut bank_full: Vec<(&ArchReg, &u64)> = self
            .stalls
            .bank_full
            .iter()
            .filter(|(_, c)| **c > 0)
            .collect();
        bank_full.sort_by_key(|(r, _)| r.flat_index());
        let bank_full: Vec<String> = bank_full
            .iter()
            .map(|(r, c)| format!("{}:{c}", r.flat_index()))
            .collect();
        // The watchdog marker is appended only when it fired: healthy runs
        // keep the historical rendering (and golden files) byte-identical,
        // while a wedged run can never diff clean against a healthy one.
        let watchdog = if self.watchdog_breaks > 0 {
            format!(" WATCHDOG_TRUNCATED={}", self.watchdog_breaks)
        } else {
            String::new()
        };
        format!(
            "cycles={} committed={} exec_correct={} exec_reexec={} exec_wrong={} \
             branches={} mispred={} recoveries={} imprecise={} checkpoints={} \
             iq={} rob={} lq={} sq={} regs={} chk={} same_reg={} fe={} \
             bank_full=[{}] ports={} fwd={} dmiss={}{}",
            self.cycles,
            self.committed,
            self.executed.correct_path,
            self.executed.correct_path_reexecuted,
            self.executed.wrong_path,
            self.branches,
            self.mispredictions,
            self.recoveries,
            self.imprecise_recoveries,
            self.checkpoints_allocated,
            self.stalls.iq_full,
            self.stalls.rob_full,
            self.stalls.lq_full,
            self.stalls.sq_full,
            self.stalls.regs_full,
            self.stalls.checkpoints_full,
            self.stalls.same_reg_limit,
            self.stalls.frontend_empty,
            bank_full.join(","),
            self.port_conflicts,
            self.store_forwards,
            self.dcache_misses,
            watchdog,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executed_breakdown_totals() {
        let e = ExecutedBreakdown {
            correct_path: 100,
            correct_path_reexecuted: 20,
            wrong_path: 30,
        };
        assert_eq!(e.total(), 150);
    }

    #[test]
    fn stall_breakdown_ranking() {
        let mut s = StallBreakdown::default();
        s.bank_full.insert(ArchReg::int(3), 50);
        s.bank_full.insert(ArchReg::int(7), 200);
        s.bank_full.insert(ArchReg::fp(1), 10);
        s.bank_full.insert(ArchReg::int(9), 0);
        assert_eq!(s.bank_full_total(), 260);
        let top = s.top_bank_stalls(2);
        assert_eq!(top, vec![(ArchReg::int(7), 200), (ArchReg::int(3), 50)]);
        s.iq_full = 40;
        assert_eq!(s.total(), 300);
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let mut a = SimStats {
            cycles: 10,
            committed: 20,
            branches: 3,
            ..SimStats::default()
        };
        a.stalls.bank_full.insert(ArchReg::int(3), 5);
        let mut b = SimStats {
            cycles: 1,
            committed: 2,
            mispredictions: 4,
            ..SimStats::default()
        };
        b.stalls.bank_full.insert(ArchReg::int(3), 7);
        b.stalls.bank_full.insert(ArchReg::fp(1), 1);
        a.accumulate(&b);
        assert_eq!(a.cycles, 11);
        assert_eq!(a.committed, 22);
        assert_eq!(a.branches, 3);
        assert_eq!(a.mispredictions, 4);
        assert_eq!(a.stalls.bank_full[&ArchReg::int(3)], 12);
        assert_eq!(a.stalls.bank_full[&ArchReg::fp(1)], 1);
    }

    #[test]
    fn activity_counters_accumulate_and_subtract_exactly() {
        let mut prefix = SimStats::default();
        prefix.activity.rf_reads[3] = 10;
        prefix.activity.rf_writes[63] = 4;
        prefix.activity.rename_lookups = 7;
        prefix.activity.sct_lookups = 21;
        prefix.activity.icache_accesses = 5;
        let mut window = SimStats::default();
        window.activity.rf_reads[3] = 2;
        window.activity.rf_reads[40] = 9;
        window.activity.lcs_propagations = 11;
        window.activity.reliq_wakeups = 3;
        window.activity.l2_accesses = 1;
        let mut full = prefix.clone();
        full.accumulate(&window);
        let activity = &full.activity;
        assert_eq!(activity.rf_reads[3], 12);
        assert_eq!(activity.rf_reads[40], 9);
        assert_eq!(activity.rf_reads_total(), 21);
        assert_eq!(activity.rf_writes_total(), 4);
        assert_eq!(activity.sct_lookups, 21);
        assert_eq!(activity.lcs_propagations, 11);
        // subtracting recovers the window exactly (the sampled-window
        // identity every resumed measurement relies on).
        assert_eq!(full.subtracting(&prefix), window);
        assert_eq!(full.subtracting(&window), prefix);
    }

    #[test]
    fn counter_walk_and_its_inverse_agree() {
        // Distinct nonzero values in every slot, `bank_full` included: a
        // counter read back from the wrong position cannot go unnoticed.
        let counters: [u64; SimStats::COUNTERS] = std::array::from_fn(|i| i as u64 + 1);
        let stats = SimStats::from_counters(&counters);
        assert_eq!(stats.counters(), counters);
        assert_eq!(stats.stalls.bank_full.len(), NUM_LOGICAL_REGS);
        assert_eq!(stats.cycles, 1);
        assert_eq!(stats.activity.ras_ops, SimStats::COUNTERS as u64);
        let first_bank = SimStats::BANK_FULL_COUNTERS.start as u64 + 1;
        assert_eq!(
            stats.stalls.bank_full[&ArchReg::from_flat_index(0)],
            first_bank
        );
        assert_eq!(ActivityCounters::default(), *SimStats::default().activity);
        assert!(SimStats::default().counters().iter().all(|c| *c == 0));
    }

    #[test]
    fn activity_rides_along_in_simstats_fold() {
        let mut a = SimStats {
            cycles: 5,
            ..SimStats::default()
        };
        a.activity.dcache_accesses = 8;
        a.activity.rf_writes[1] = 2;
        let mut b = SimStats {
            cycles: 7,
            ..SimStats::default()
        };
        b.activity.dcache_accesses = 3;
        b.activity.rf_writes[1] = 5;
        let mut sum = a.clone();
        sum.accumulate(&b);
        assert_eq!(sum.activity.dcache_accesses, 11);
        assert_eq!(sum.activity.rf_writes[1], 7);
        assert_eq!(sum.subtracting(&a).activity, b.activity);
        // The canonical rendering stays the historical one: activity is
        // excluded so the checked-in goldens cannot shift.
        assert_eq!(
            a.canonical_string(),
            SimStats {
                cycles: 5,
                ..SimStats::default()
            }
            .canonical_string()
        );
    }

    #[test]
    fn derived_rates() {
        let stats = SimStats {
            cycles: 1000,
            committed: 1500,
            branches: 200,
            mispredictions: 20,
            executed: ExecutedBreakdown {
                correct_path: 1500,
                correct_path_reexecuted: 150,
                wrong_path: 300,
            },
            ..SimStats::default()
        };
        assert!((stats.ipc() - 1.5).abs() < 1e-9);
        assert!((stats.misprediction_rate() - 0.1).abs() < 1e-9);
        assert!((stats.execution_overhead() - 1.3).abs() < 1e-9);
        let empty = SimStats::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.misprediction_rate(), 0.0);
        assert_eq!(empty.execution_overhead(), 0.0);
    }
}
