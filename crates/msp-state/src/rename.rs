//! Per-cycle rename-group admission (Section 3.3).
//!
//! The MSP renames up to four destination registers per cycle, of which at
//! most two may target the *same* logical register: the paper's analysis
//! showed that two same-register renamings per cycle are sufficient, while
//! restricting to one costs about 5% IPC (reproduced by
//! `msp-lab ablate-rename`). [`RenameUnit`] decides how many instructions of
//! a decode group can be renamed this cycle under those constraints; the
//! SCT allocation itself is [`crate::MspStateManager::rename_one`], which
//! the timing simulator calls per instruction and
//! [`crate::MspStateManager::rename_group`] calls for each admitted one.

use msp_isa::ArchReg;

/// Configuration of the per-cycle renaming limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameUnitConfig {
    /// Maximum destination registers renamed per cycle (paper: 4).
    pub width: usize,
    /// Maximum renamings of the *same* logical register per cycle (paper: 2).
    pub max_same_logical: usize,
}

impl Default for RenameUnitConfig {
    fn default() -> Self {
        RenameUnitConfig {
            width: 4,
            max_same_logical: 2,
        }
    }
}

/// Decides how many instructions of a group can be renamed in one cycle.
#[derive(Debug, Clone)]
pub struct RenameUnit {
    config: RenameUnitConfig,
    width_truncations: u64,
    same_reg_truncations: u64,
}

impl RenameUnit {
    /// Creates a rename unit with the given limits.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(config: RenameUnitConfig) -> Self {
        assert!(config.width > 0, "rename width must be at least 1");
        assert!(
            config.max_same_logical > 0,
            "at least one same-register renaming per cycle is required"
        );
        RenameUnit {
            config,
            width_truncations: 0,
            same_reg_truncations: 0,
        }
    }

    /// The configured limits.
    pub fn config(&self) -> RenameUnitConfig {
        self.config
    }

    /// Given the destination registers of a decode group (in program order,
    /// `None` for instructions that do not allocate a register), returns how
    /// many instructions from the front of the group can be renamed this
    /// cycle. Instructions without a destination never consume rename
    /// bandwidth.
    pub fn admissible_prefix(&mut self, dests: &[Option<ArchReg>]) -> usize {
        let mut dest_count = 0;
        let mut per_reg: Vec<(ArchReg, usize)> = Vec::with_capacity(self.config.width);
        for (i, dest) in dests.iter().enumerate() {
            let Some(reg) = dest else { continue };
            if dest_count == self.config.width {
                self.width_truncations += 1;
                return i;
            }
            let entry = per_reg.iter_mut().find(|(r, _)| r == reg);
            match entry {
                Some((_, count)) => {
                    if *count == self.config.max_same_logical {
                        self.same_reg_truncations += 1;
                        return i;
                    }
                    *count += 1;
                }
                None => per_reg.push((*reg, 1)),
            }
            dest_count += 1;
        }
        dests.len()
    }

    /// How many groups were truncated by the total-width limit.
    pub fn width_truncations(&self) -> u64 {
        self.width_truncations
    }

    /// How many groups were truncated by the same-logical-register limit
    /// (the stall of Section 3.3: "A stall is generated if there are more
    /// than two instructions renaming the register").
    pub fn same_reg_truncations(&self) -> u64 {
        self.same_reg_truncations
    }
}

impl Default for RenameUnit {
    fn default() -> Self {
        RenameUnit::new(RenameUnitConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> Option<ArchReg> {
        Some(ArchReg::int(i))
    }

    #[test]
    fn full_group_admitted_when_within_limits() {
        let mut unit = RenameUnit::default();
        assert_eq!(unit.admissible_prefix(&[r(1), r(2), r(3), r(4)]), 4);
        assert_eq!(unit.admissible_prefix(&[r(1), None, r(1), None]), 4);
        assert_eq!(unit.width_truncations(), 0);
        assert_eq!(unit.same_reg_truncations(), 0);
    }

    #[test]
    fn width_limit_truncates() {
        let mut unit = RenameUnit::new(RenameUnitConfig {
            width: 2,
            max_same_logical: 2,
        });
        assert_eq!(unit.admissible_prefix(&[r(1), r(2), r(3)]), 2);
        assert_eq!(unit.width_truncations(), 1);
    }

    #[test]
    fn same_register_limit_truncates() {
        let mut unit = RenameUnit::default();
        // Three renamings of r7 in one group: only the first two go through.
        assert_eq!(unit.admissible_prefix(&[r(7), r(7), r(7), r(2)]), 2);
        assert_eq!(unit.same_reg_truncations(), 1);
    }

    #[test]
    fn single_same_register_configuration() {
        let mut unit = RenameUnit::new(RenameUnitConfig {
            width: 4,
            max_same_logical: 1,
        });
        assert_eq!(unit.admissible_prefix(&[r(7), r(7)]), 1);
        assert_eq!(unit.same_reg_truncations(), 1);
    }

    #[test]
    fn non_allocating_instructions_are_free() {
        let mut unit = RenameUnit::new(RenameUnitConfig {
            width: 2,
            max_same_logical: 2,
        });
        // Branches/stores (None) do not consume rename bandwidth.
        assert_eq!(unit.admissible_prefix(&[None, r(1), None, r(2), None]), 5);
    }

    #[test]
    fn empty_group_is_admitted() {
        let mut unit = RenameUnit::default();
        assert_eq!(unit.admissible_prefix(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_width_rejected() {
        let _ = RenameUnit::new(RenameUnitConfig {
            width: 0,
            max_same_logical: 1,
        });
    }
}
