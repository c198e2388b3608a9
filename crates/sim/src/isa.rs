//! The simulator's instruction set.
//!
//! A small, regular 32-bit RISC-like ISA standing in for the paper's
//! 32-bit x86 platform. Sixteen general-purpose registers (`r0`–`r15`,
//! with `r15` used as the stack pointer by convention), little-endian
//! byte-addressable memory, and a program counter that indexes
//! instructions (not bytes). The three S-LATCH ISA extensions of paper
//! Table 5 — `strf`, `stnt`, `ltnt` — are first-class instructions.
//!
//! Design notes relevant to DIFT:
//!
//! * `Ret` pops its target *from memory* through the stack pointer, so a
//!   buffer overflow that smashes the saved return address produces a
//!   tainted control-flow target — the canonical attack DIFT detects.
//! * `Jr` (indirect jump through a register) is the register-operand
//!   analogue.

use std::fmt;

/// A register index, `0..NUM_REGS`.
pub type Reg = u8;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = latch_core::trf::NUM_REGS;

/// The stack-pointer register by software convention.
pub const SP: Reg = 15;

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes (halfword).
    B2,
    /// 4 bytes (word).
    B4,
}

impl MemSize {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
        }
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSize::B1 => f.write_str("b"),
            MemSize::B2 => f.write_str("h"),
            MemSize::B4 => f.write_str("w"),
        }
    }
}

/// Two-source ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Wrapping multiplication.
    Mul,
    /// Logical shift left (by `rs2 & 31`).
    Shl,
    /// Logical shift right (by `rs2 & 31`).
    Shr,
}

impl AluOp {
    /// Evaluates the operation.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Shl => a.wrapping_shl(b & 31),
            AluOp::Shr => a.wrapping_shr(b & 31),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Mul => "mul",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Branch comparison conditions (unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned greater-or-equal.
    Ge,
}

impl BranchCond {
    /// Evaluates the condition.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }
}

/// Syscall numbers (arguments in `r1..r4`, result in `r0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// Terminate the program (`r1` = exit code).
    Exit,
    /// Open a file: `r1` = path address, `r2` = path length → fd.
    Open,
    /// Read from an fd: `r1` = fd, `r2` = buffer, `r3` = length → bytes read.
    Read,
    /// Write to an fd: `r1` = fd, `r2` = buffer, `r3` = length → bytes written.
    Write,
    /// Close an fd: `r1` = fd.
    Close,
    /// Create a listening socket → fd.
    Socket,
    /// Accept a connection: `r1` = listening fd → connection fd (or
    /// `u32::MAX` when no connection is pending).
    Accept,
    /// Receive from a connection: `r1` = fd, `r2` = buffer, `r3` = length
    /// → bytes received.
    Recv,
    /// Send on a connection: `r1` = fd, `r2` = buffer, `r3` = length →
    /// bytes sent.
    Send,
    /// Deterministic pseudo-random number → `r0`.
    Rand,
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd = imm`.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u32,
    },
    /// `rd = rs`.
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `rd = op(rs, imm)`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate second operand.
        imm: u32,
    },
    /// `rd = mem[rs + off]` (zero-extended).
    Load {
        /// Destination register.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Signed byte offset.
        off: i32,
        /// Access width.
        size: MemSize,
    },
    /// `mem[base + off] = rs` (low bytes).
    Store {
        /// Source register.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Signed byte offset.
        off: i32,
        /// Access width.
        size: MemSize,
    },
    /// Unconditional jump to instruction index `target`.
    Jmp {
        /// Target instruction index.
        target: u32,
    },
    /// Indirect jump to the instruction index in `rs`.
    Jr {
        /// Register holding the target.
        rs: Reg,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Target instruction index when the condition holds.
        target: u32,
    },
    /// Call: pushes the return instruction index on the stack
    /// (`sp -= 4; mem[sp] = pc + 1`) and jumps to `target`.
    Call {
        /// Target instruction index.
        target: u32,
    },
    /// Return: pops the target instruction index from the stack
    /// (`t = mem[sp]; sp += 4; pc = t`). The popped bytes are a
    /// memory-resident control-flow target for DIFT validation.
    Ret,
    /// System call (see [`Syscall`]).
    Sys {
        /// Which call.
        call: Syscall,
    },
    /// `strf rs` — set the hardware TRF from the packed value whose low
    /// 32 bits are in `rs` and high 32 bits in `rs+1`.
    Strf {
        /// First register of the packed pair.
        rs: Reg,
    },
    /// `stnt addr_reg, len_reg, val_reg` — set the taint status of the
    /// byte range starting at `r[addr]` of length `r[len]`, status from
    /// the low bit of `r[val]`.
    Stnt {
        /// Register holding the start address.
        addr: Reg,
        /// Register holding the length.
        len: Reg,
        /// Register whose low bit is the new taint status.
        val: Reg,
    },
    /// `ltnt rd` — load the address of the most recent LATCH exception.
    Ltnt {
        /// Destination register.
        rd: Reg,
    },
    /// Stop execution.
    Halt,
    /// No operation.
    Nop,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Li { rd, imm } => write!(f, "li r{rd}, {imm:#x}"),
            Instr::Mov { rd, rs } => write!(f, "mov r{rd}, r{rs}"),
            Instr::Alu { op, rd, rs1, rs2 } => write!(f, "{op} r{rd}, r{rs1}, r{rs2}"),
            Instr::AluImm { op, rd, rs, imm } => write!(f, "{op}i r{rd}, r{rs}, {imm:#x}"),
            Instr::Load { rd, base, off, size } => {
                write!(f, "load.{size} r{rd}, [r{base}{off:+}]")
            }
            Instr::Store { rs, base, off, size } => {
                write!(f, "store.{size} r{rs}, [r{base}{off:+}]")
            }
            Instr::Jmp { target } => write!(f, "jmp {target}"),
            Instr::Jr { rs } => write!(f, "jr r{rs}"),
            Instr::Branch { cond, rs1, rs2, target } => {
                let c = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                };
                write!(f, "{c} r{rs1}, r{rs2}, {target}")
            }
            Instr::Call { target } => write!(f, "call {target}"),
            Instr::Ret => f.write_str("ret"),
            Instr::Sys { call } => write!(f, "syscall {call:?}"),
            Instr::Strf { rs } => write!(f, "strf r{rs}"),
            Instr::Stnt { addr, len, val } => write!(f, "stnt r{addr}, r{len}, r{val}"),
            Instr::Ltnt { rd } => write!(f, "ltnt r{rd}"),
            Instr::Halt => f.write_str("halt"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(0, 1), u32::MAX);
        assert_eq!(AluOp::Mul.eval(3, 5), 15);
        assert_eq!(AluOp::Shl.eval(1, 33), 2, "shift amount is masked");
        assert_eq!(AluOp::Shr.eval(8, 2), 2);
        assert_eq!(AluOp::Xor.eval(0xFF, 0x0F), 0xF0);
    }

    #[test]
    fn branch_semantics() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(3, 4));
        assert!(BranchCond::Ge.eval(4, 4));
        assert!(!BranchCond::Lt.eval(u32::MAX, 0), "comparisons are unsigned");
    }

    #[test]
    fn mem_size_bytes() {
        assert_eq!(MemSize::B1.bytes(), 1);
        assert_eq!(MemSize::B2.bytes(), 2);
        assert_eq!(MemSize::B4.bytes(), 4);
    }

    #[test]
    fn display_roundtrips_mnemonics() {
        assert_eq!(Instr::Li { rd: 1, imm: 16 }.to_string(), "li r1, 0x10");
        assert_eq!(
            Instr::Load { rd: 2, base: 3, off: -4, size: MemSize::B4 }.to_string(),
            "load.w r2, [r3-4]"
        );
        assert_eq!(Instr::Ret.to_string(), "ret");
    }
}
