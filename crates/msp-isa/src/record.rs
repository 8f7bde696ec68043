//! What an [`ExecutedInst`] stores and what it derives, and the 24-byte
//! in-memory record built on that split.
//!
//! Most of an executed record follows from its PC and instruction: the
//! next PC of everything but a conditional branch or an indirect jump, the
//! `taken` flag of everything but a conditional branch, `halted`, and a
//! call's link value. What remains is a [`Payload`] of at most one outcome
//! bit and two words. [`PayloadShape::of`] is the single place that decides
//! which payload fields an instruction's record carries, and
//! [`ExecutedInst::from_payload`] (with [`next_pc`]) the single place that
//! derives the rest; both the `.msptrace` record codec and [`PackedInst`]
//! are built on them, so the on-disk and in-memory forms can never disagree
//! about a field.

use crate::exec::ExecutedInst;
use crate::inst::{Instruction, Opcode};
use crate::program::{Program, TEXT_BASE};
use crate::reg::RegClass;

/// The part of an [`ExecutedInst`] that its PC and instruction do not
/// determine. Fields the instruction's [`PayloadShape`] does not carry are
/// zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Payload {
    /// A conditional branch's outcome.
    pub(crate) taken: bool,
    /// The effective address of a load or store, or the target of an
    /// indirect jump or return.
    pub(crate) a: u64,
    /// The value written: a (non-call) destination value or a store value.
    pub(crate) b: u64,
}

/// Which [`Payload`] fields the record of an instruction carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PayloadShape {
    /// `taken` (conditional branches).
    pub(crate) taken: bool,
    /// `a` is an indirect target (indirect jumps and returns).
    pub(crate) target: bool,
    /// `a` is an effective address (loads and stores).
    pub(crate) addr: bool,
    /// `b` is carried, holding a bit pattern of this register class (a
    /// destination value, except for a call's derived link value, or a
    /// store value).
    pub(crate) value: Option<RegClass>,
}

impl PayloadShape {
    /// The payload fields the record of `inst` carries.
    #[inline]
    pub(crate) fn of(inst: &Instruction) -> PayloadShape {
        let value = if inst.is_store() {
            Some(inst.src2().map_or(RegClass::Int, |r| r.class()))
        } else if inst.is_call() {
            None
        } else {
            inst.dest().map(|r| r.class())
        };
        PayloadShape {
            taken: inst.is_conditional_branch(),
            target: inst.is_indirect(),
            addr: inst.is_mem(),
            value,
        }
    }
}

impl ExecutedInst {
    /// The stored part of this record (see [`PayloadShape::of`]).
    pub(crate) fn payload(&self) -> Payload {
        let shape = PayloadShape::of(&self.inst);
        let a = if shape.target {
            self.next_pc
        } else if shape.addr {
            self.mem_addr.unwrap_or(0)
        } else {
            0
        };
        let b = match shape.value {
            Some(_) => self.dest_value.or(self.store_value).unwrap_or(0),
            None => 0,
        };
        Payload {
            taken: shape.taken && self.taken,
            a,
            b,
        }
    }

    /// Rebuilds the full record of `inst` at `pc` from its stored
    /// [`Payload`], deriving everything else.
    #[inline]
    pub(crate) fn from_payload(pc: u64, inst: Instruction, p: Payload) -> ExecutedInst {
        let fallthrough = pc.wrapping_add(4);
        let dest_value = match inst.dest() {
            None => None,
            Some(_) if inst.is_call() => Some(fallthrough),
            Some(_) => Some(p.b),
        };
        ExecutedInst {
            pc,
            inst,
            next_pc: next_pc(pc, &inst, p),
            taken: match inst.opcode() {
                Opcode::Branch(_) => p.taken,
                Opcode::Jump | Opcode::Call | Opcode::JumpIndirect | Opcode::Ret => true,
                _ => false,
            },
            mem_addr: inst.is_mem().then_some(p.a),
            dest_value,
            store_value: inst.is_store().then_some(p.b),
            halted: inst.is_halt(),
        }
    }
}

/// The correct-path successor of `inst` at `pc` given its stored payload —
/// [`ExecutedInst::next_pc`] without rebuilding the rest of the record.
#[inline]
pub(crate) fn next_pc(pc: u64, inst: &Instruction, p: Payload) -> u64 {
    let target = || {
        inst.target()
            .expect("direct control transfers carry a target")
    };
    match inst.opcode() {
        Opcode::Branch(_) if p.taken => target(),
        Opcode::Jump | Opcode::Call => target(),
        Opcode::JumpIndirect | Opcode::Ret => p.a,
        // Halted programs spin in place.
        Opcode::Halt => pc,
        _ => pc.wrapping_add(4),
    }
}

/// An [`ExecutedInst`] packed into [`PACKED_RECORD_BYTES`] bytes: the text
/// index of its PC and its [`Payload`]. The instruction and every derived
/// field are rebuilt from the program text on each read.
///
/// This is the only in-memory record form a [`crate::Trace`] (and the
/// timing simulator's private oracle tail) holds; the decoded
/// `ExecutedInst` is four times larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedInst {
    a: u64,
    b: u64,
    index: u32,
    taken: bool,
}

/// Bytes one [`PackedInst`] occupies in memory.
pub const PACKED_RECORD_BYTES: usize = std::mem::size_of::<PackedInst>();

const _: () = assert!(PACKED_RECORD_BYTES <= 24);

impl PackedInst {
    /// Packs a record produced by functional execution (its PC lies in the
    /// text segment).
    #[inline]
    pub fn pack(rec: &ExecutedInst) -> PackedInst {
        PackedInst::new(rec.pc, rec.payload())
    }

    /// Packs the payload `p` of the record at `pc`.
    #[inline]
    pub(crate) fn new(pc: u64, p: Payload) -> PackedInst {
        debug_assert!(pc >= TEXT_BASE && pc.is_multiple_of(4), "pc {pc:#x}");
        let index = u32::try_from((pc - TEXT_BASE) / 4).expect("text index fits in 32 bits");
        PackedInst {
            a: p.a,
            b: p.b,
            index,
            taken: p.taken,
        }
    }

    /// Rebuilds the full record against `program`, the program it was
    /// executed from.
    #[inline]
    pub fn unpack(&self, program: &Program) -> ExecutedInst {
        self.unpack_with(program.text())
    }

    /// [`PackedInst::unpack`] against the program's text segment.
    #[inline]
    pub(crate) fn unpack_with(&self, text: &[Instruction]) -> ExecutedInst {
        let payload = Payload {
            taken: self.taken,
            a: self.a,
            b: self.b,
        };
        ExecutedInst::from_payload(
            TEXT_BASE + 4 * u64::from(self.index),
            text[self.index as usize],
            payload,
        )
    }
}
