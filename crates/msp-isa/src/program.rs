//! Static programs: an instruction memory plus initial data.

use crate::inst::Instruction;
use std::fmt;

/// Base address of the instruction (text) segment.
///
/// Instructions are 4 bytes wide; the instruction at index `i` lives at
/// `TEXT_BASE + 4 * i`.
pub const TEXT_BASE: u64 = 0x1000;

/// A static program: the text segment plus initial data contents.
///
/// Fetching from an address outside the text segment returns a halt
/// instruction; the timing simulator relies on this when running down
/// mispredicted (wrong) paths.
///
/// ```
/// use msp_isa::{Instruction, Program, ArchReg, TEXT_BASE};
/// let prog = Program::new(vec![
///     Instruction::li(ArchReg::int(1), 5),
///     Instruction::halt(),
/// ]);
/// assert_eq!(prog.len(), 2);
/// assert_eq!(prog.entry(), TEXT_BASE);
/// assert!(prog.fetch(TEXT_BASE).is_some());
/// assert!(prog.fetch(TEXT_BASE + 4 * 100).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    text: Vec<Instruction>,
    data: Vec<(u64, u64)>,
    name: String,
}

impl Program {
    /// Creates a program from its instruction sequence, starting execution at
    /// [`TEXT_BASE`].
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty.
    pub fn new(text: Vec<Instruction>) -> Self {
        assert!(!text.is_empty(), "a program needs at least one instruction");
        Program {
            text,
            data: Vec::new(),
            name: "anonymous".to_string(),
        }
    }

    /// Creates a program with a human-readable name (used in reports).
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty.
    pub fn with_name(name: impl Into<String>, text: Vec<Instruction>) -> Self {
        let mut p = Program::new(text);
        p.name = name.into();
        p
    }

    /// Adds an initial 8-byte data value at `addr`, applied when an
    /// [`crate::ArchState`] is created for this program.
    pub fn add_data(&mut self, addr: u64, value: u64) {
        self.data.push((addr, value));
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the program has no instructions (never true for constructed
    /// programs).
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Entry-point address.
    pub fn entry(&self) -> u64 {
        TEXT_BASE
    }

    /// Address of the last valid instruction.
    pub fn last_address(&self) -> u64 {
        TEXT_BASE + 4 * (self.text.len() as u64 - 1)
    }

    /// The address of the instruction at static index `index`.
    pub fn address_of(&self, index: usize) -> u64 {
        TEXT_BASE + 4 * index as u64
    }

    /// Whether `pc` falls inside the text segment on a 4-byte boundary.
    pub fn contains(&self, pc: u64) -> bool {
        pc >= TEXT_BASE && pc.is_multiple_of(4) && ((pc - TEXT_BASE) / 4) < self.text.len() as u64
    }

    /// The text segment: the instruction at index `i` lives at
    /// [`Program::address_of`]`(i)`.
    pub(crate) fn text(&self) -> &[Instruction] {
        &self.text
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the text
    /// segment (including misaligned addresses).
    pub fn fetch(&self, pc: u64) -> Option<Instruction> {
        if !self.contains(pc) {
            return None;
        }
        Some(self.text[((pc - TEXT_BASE) / 4) as usize])
    }

    /// Fetches the instruction at `pc`, substituting a `halt` when `pc` is
    /// outside the text segment. Wrong-path fetch uses this so speculative
    /// execution off the end of the program is harmless.
    pub fn fetch_or_halt(&self, pc: u64) -> Instruction {
        self.fetch(pc).unwrap_or_else(Instruction::halt)
    }

    /// Iterates over `(address, instruction)` pairs of the text segment.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Instruction)> + '_ {
        self.text
            .iter()
            .enumerate()
            .map(|(i, inst)| (TEXT_BASE + 4 * i as u64, *inst))
    }

    /// Initial data values as `(address, value)` pairs.
    pub fn initial_data(&self) -> &[(u64, u64)] {
        &self.data
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({} instructions)",
            self.name,
            self.text.len()
        )?;
        for (addr, inst) in self.iter() {
            writeln!(f, "  {addr:#06x}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    fn sample() -> Program {
        Program::with_name(
            "sample",
            vec![
                Instruction::li(ArchReg::int(1), 5),
                Instruction::add(ArchReg::int(2), ArchReg::int(1), ArchReg::int(1)),
                Instruction::halt(),
            ],
        )
    }

    #[test]
    fn addressing() {
        let p = sample();
        assert_eq!(p.entry(), TEXT_BASE);
        assert_eq!(p.address_of(0), TEXT_BASE);
        assert_eq!(p.address_of(2), TEXT_BASE + 8);
        assert_eq!(p.last_address(), TEXT_BASE + 8);
        assert!(p.contains(TEXT_BASE + 4));
        assert!(!p.contains(TEXT_BASE + 12));
        assert!(!p.contains(TEXT_BASE + 2));
        assert!(!p.contains(0));
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = sample();
        assert!(p.fetch(TEXT_BASE).is_some());
        assert!(p.fetch(TEXT_BASE + 400).is_none());
        assert!(p.fetch_or_halt(TEXT_BASE + 400).is_halt());
        assert!(!p.fetch_or_halt(TEXT_BASE).is_halt());
    }

    #[test]
    fn iter_covers_all_instructions() {
        let p = sample();
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, TEXT_BASE);
        assert_eq!(pairs[2].0, TEXT_BASE + 8);
    }

    #[test]
    fn initial_data_recorded() {
        let mut p = sample();
        p.add_data(0x8000, 99);
        assert_eq!(p.initial_data(), &[(0x8000, 99)]);
    }

    #[test]
    fn display_lists_every_instruction() {
        let p = sample();
        let text = p.to_string();
        assert!(text.contains("sample"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_program_panics() {
        let _ = Program::new(Vec::new());
    }
}
