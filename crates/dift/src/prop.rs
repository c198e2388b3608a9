//! Classical Dynamic Taint Analysis propagation rules.
//!
//! These are the rules libdft applies (paper §3.1: "all of our
//! evaluations apply the classical Dynamic Taint Analysis rules used by
//! libdft"): data dependencies propagate, with instrumentation checking
//! the input operands of each instruction and tagging the result.
//!
//! * **Register moves** copy tags byte-wise.
//! * **ALU operations** tag the result with the union of the source
//!   operand tags (carries and partial products mix bytes, so the uniform
//!   union is the sound byte-level abstraction).
//! * **Immediates** clear the destination, as does the `xor r, r`
//!   zeroing idiom — the result is constant regardless of input.
//! * **Loads/stores** copy tags between shadow memory and the register
//!   tag file, byte-wise.
//!
//! Pointer (address) taint is *not* propagated to loaded values and
//! control-flow (implicit) taint is not tracked, matching libdft's
//! defaults and the paper's scope (§2: indirect tracking through control
//! flows "poses significant challenges … and is an open problem").

use crate::regfile::RegTagFile;
use crate::shadow::ShadowMemory;
use crate::tag::TaintTag;
use latch_core::trf::REG_BYTES;
use latch_core::{Addr, PreciseView};

/// One taint-relevant micro-operation, extracted from a retired
/// instruction by the simulator front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropRule {
    /// `dst = f(src1, src2)` for an ALU operation: result tags are the
    /// uniform union of both sources' tags.
    BinaryAlu {
        /// Destination register.
        dst: usize,
        /// First source register.
        src1: usize,
        /// Second source register.
        src2: usize,
    },
    /// `dst = f(src)` for a one-operand ALU operation (shift by
    /// immediate, negate, sign-extend…).
    UnaryAlu {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
    },
    /// Register-to-register move: byte-wise tag copy.
    Mov {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
    },
    /// The destination becomes a constant (immediate load, `xor r, r`,
    /// `sub r, r`): tags are cleared.
    ClearDst {
        /// Destination register.
        dst: usize,
    },
    /// Memory load of `len ≤ 4` bytes: shadow tags are copied into the
    /// low `len` bytes of `dst`; the zero-extended upper bytes are
    /// cleared. Bytes past the top of the address space are outside the
    /// tracked taint plane and read as clean, matching the clamped
    /// bulk-range operations and the coarse structures.
    Load {
        /// Destination register.
        dst: usize,
        /// Effective address.
        addr: Addr,
        /// Access size in bytes (1, 2 or 4).
        len: u32,
    },
    /// Memory store of `len ≤ 4` bytes: the low `len` byte tags of `src`
    /// are written to shadow memory. Bytes past the top of the address
    /// space fall outside the tracked taint plane and are dropped.
    Store {
        /// Source register.
        src: usize,
        /// Effective address.
        addr: Addr,
        /// Access size in bytes (1, 2 or 4).
        len: u32,
    },
    /// A store of a constant: shadow tags for the range are cleared.
    StoreImm {
        /// Effective address.
        addr: Addr,
        /// Access size in bytes.
        len: u32,
    },
}

/// What a propagation step did, for the layers above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropOutcome {
    /// Whether the instruction *touched tainted data*: any source or
    /// destination operand (register or memory) carried taint before or
    /// after the operation. This is the event the paper's temporal
    /// locality analysis counts (§3.2).
    pub touched_taint: bool,
    /// Present when the operation changed memory taint state:
    /// `(addr, len, tainted_after)`. S-LATCH turns this into an `stnt`;
    /// H-LATCH feeds it to the commit-stage coarse update.
    pub mem_write: Option<(Addr, u32, bool)>,
}

/// Applies one propagation rule to the register tag file and shadow
/// memory, returning what happened.
pub fn apply(rule: PropRule, regs: &mut RegTagFile, shadow: &mut ShadowMemory) -> PropOutcome {
    match rule {
        PropRule::BinaryAlu { dst, src1, src2 } => {
            let tag = regs.union(src1) | regs.union(src2);
            let touched = tag.is_tainted() || regs.is_tainted(dst);
            regs.set_uniform(dst, tag);
            PropOutcome {
                touched_taint: touched,
                mem_write: None,
            }
        }
        PropRule::UnaryAlu { dst, src } => {
            let tag = regs.union(src);
            let touched = tag.is_tainted() || regs.is_tainted(dst);
            regs.set_uniform(dst, tag);
            PropOutcome {
                touched_taint: touched,
                mem_write: None,
            }
        }
        PropRule::Mov { dst, src } => {
            let tags = regs.get(src);
            let touched = regs.is_tainted(src) || regs.is_tainted(dst);
            regs.set(dst, tags);
            PropOutcome {
                touched_taint: touched,
                mem_write: None,
            }
        }
        PropRule::ClearDst { dst } => {
            let touched = regs.is_tainted(dst);
            regs.clear(dst);
            PropOutcome {
                touched_taint: touched,
                mem_write: None,
            }
        }
        PropRule::Load { dst, addr, len } => {
            let len = len.min(REG_BYTES);
            let mut tags = [TaintTag::CLEAN; REG_BYTES as usize];
            let mut any = false;
            for i in 0..len {
                // The taint plane is clamped at the top of the address
                // space (like the bulk-range ops and the coarse
                // structures): bytes past it read as clean.
                let Some(a) = addr.checked_add(i) else { break };
                let t = shadow.get(a);
                any |= t.is_tainted();
                tags[i as usize] = t;
            }
            let touched = any || regs.is_tainted(dst);
            regs.set(dst, tags);
            PropOutcome {
                touched_taint: touched,
                mem_write: None,
            }
        }
        PropRule::Store { src, addr, len } => {
            let len = len.min(REG_BYTES);
            let tags = regs.get(src);
            let mut any_after = false;
            let mut any_before = false;
            for i in 0..len {
                // Clamp at the top of the address space: tags for bytes
                // past it are dropped, never wrapped to address zero
                // (which the clamped coarse structures could not cover).
                let Some(a) = addr.checked_add(i) else { break };
                any_before |= shadow.get(a).is_tainted();
                let t = tags[i as usize];
                any_after |= t.is_tainted();
                shadow.set(a, t);
            }
            let changed = any_before || any_after;
            PropOutcome {
                touched_taint: changed,
                mem_write: changed.then_some((addr, len, any_after)),
            }
        }
        PropRule::StoreImm { addr, len } => {
            let any_before = shadow.any_tainted(addr, len);
            if any_before {
                shadow.clear_range(addr, len);
            }
            PropOutcome {
                touched_taint: any_before,
                mem_write: any_before.then_some((addr, len, false)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RegTagFile, ShadowMemory) {
        (RegTagFile::new(), ShadowMemory::new())
    }

    #[test]
    fn binary_alu_unions_sources() {
        let (mut regs, mut shadow) = setup();
        regs.set_uniform(1, TaintTag::NETWORK);
        regs.set_uniform(2, TaintTag::FILE);
        let out = apply(PropRule::BinaryAlu { dst: 0, src1: 1, src2: 2 }, &mut regs, &mut shadow);
        assert!(out.touched_taint);
        assert_eq!(regs.union(0), TaintTag::NETWORK | TaintTag::FILE);
    }

    #[test]
    fn clean_alu_does_not_touch_taint() {
        let (mut regs, mut shadow) = setup();
        let out = apply(PropRule::BinaryAlu { dst: 0, src1: 1, src2: 2 }, &mut regs, &mut shadow);
        assert!(!out.touched_taint);
        assert!(!regs.any_tainted());
    }

    #[test]
    fn overwriting_tainted_dst_counts_as_touching() {
        let (mut regs, mut shadow) = setup();
        regs.set_uniform(0, TaintTag::FILE);
        let out = apply(PropRule::ClearDst { dst: 0 }, &mut regs, &mut shadow);
        assert!(out.touched_taint, "untainting is a taint-state change");
        assert!(!regs.is_tainted(0));
    }

    #[test]
    fn mov_copies_bytewise() {
        let (mut regs, mut shadow) = setup();
        let mut tags = [TaintTag::CLEAN; 4];
        tags[1] = TaintTag::SECRET;
        regs.set(5, tags);
        apply(PropRule::Mov { dst: 6, src: 5 }, &mut regs, &mut shadow);
        assert_eq!(regs.get(6)[1], TaintTag::SECRET);
        assert_eq!(regs.get(6)[0], TaintTag::CLEAN);
    }

    #[test]
    fn load_copies_shadow_tags_and_zero_extends() {
        let (mut regs, mut shadow) = setup();
        shadow.set(0x100, TaintTag::NETWORK);
        regs.set_uniform(3, TaintTag::FILE); // stale taint in dst
        let out = apply(PropRule::Load { dst: 3, addr: 0x100, len: 2 }, &mut regs, &mut shadow);
        assert!(out.touched_taint);
        assert_eq!(regs.get(3)[0], TaintTag::NETWORK);
        assert_eq!(regs.get(3)[1], TaintTag::CLEAN);
        assert_eq!(regs.get(3)[2], TaintTag::CLEAN, "upper bytes zero-extended");
    }

    #[test]
    fn store_writes_tags_and_reports_mem_write() {
        let (mut regs, mut shadow) = setup();
        regs.set_uniform(2, TaintTag::USER_INPUT);
        let out = apply(PropRule::Store { src: 2, addr: 0x200, len: 4 }, &mut regs, &mut shadow);
        assert!(out.touched_taint);
        assert_eq!(out.mem_write, Some((0x200, 4, true)));
        assert_eq!(shadow.get(0x203), TaintTag::USER_INPUT);
    }

    #[test]
    fn clean_store_over_clean_memory_is_silent() {
        let (mut regs, mut shadow) = setup();
        let out = apply(PropRule::Store { src: 2, addr: 0x200, len: 4 }, &mut regs, &mut shadow);
        assert!(!out.touched_taint);
        assert_eq!(out.mem_write, None);
    }

    #[test]
    fn clean_store_over_tainted_memory_untaints() {
        let (mut regs, mut shadow) = setup();
        shadow.set_range(0x200, 4, TaintTag::FILE);
        let out = apply(PropRule::Store { src: 2, addr: 0x200, len: 4 }, &mut regs, &mut shadow);
        assert!(out.touched_taint);
        assert_eq!(out.mem_write, Some((0x200, 4, false)));
        assert!(!shadow.any_tainted(0x200, 4));
    }

    #[test]
    fn store_imm_clears_and_reports() {
        let (mut regs, mut shadow) = setup();
        shadow.set_range(0x300, 2, TaintTag::NETWORK);
        let out = apply(PropRule::StoreImm { addr: 0x300, len: 4 }, &mut regs, &mut shadow);
        assert!(out.touched_taint);
        assert_eq!(out.mem_write, Some((0x300, 4, false)));
        // Over clean memory it is a no-op.
        let out = apply(PropRule::StoreImm { addr: 0x400, len: 4 }, &mut regs, &mut shadow);
        assert!(!out.touched_taint);
        assert_eq!(out.mem_write, None);
    }

    #[test]
    fn substitution_table_launders_taint() {
        // The bzip2/SSL effect the paper highlights (§3.3.2): loading
        // precomputed table entries indexed by tainted data yields
        // *untainted* results under data-dependency-only DTA.
        let (mut regs, mut shadow) = setup();
        // Tainted index in r1.
        regs.set_uniform(1, TaintTag::FILE);
        // Clean table at 0x1000; load through the tainted index.
        let out = apply(PropRule::Load { dst: 2, addr: 0x1000, len: 4 }, &mut regs, &mut shadow);
        assert!(!regs.is_tainted(2), "address taint does not propagate");
        assert!(!out.touched_taint);
    }

    #[test]
    fn store_at_top_of_address_space_clamps_instead_of_wrapping() {
        // A word store at 0xFFFF_FFFE covers two tracked bytes; the two
        // that would wrap to addresses 0 and 1 leave the taint plane.
        // Wrapping them (the old behaviour) plants precise taint at page
        // zero that the clamped coarse structures can never cover — a
        // guaranteed coarse false negative.
        let (mut regs, mut shadow) = setup();
        regs.set_uniform(1, TaintTag::NETWORK);
        let out = apply(
            PropRule::Store { src: 1, addr: 0xFFFF_FFFE, len: 4 },
            &mut regs,
            &mut shadow,
        );
        assert!(out.touched_taint);
        assert!(shadow.get(0xFFFF_FFFE).is_tainted());
        assert!(shadow.get(0xFFFF_FFFF).is_tainted());
        assert!(!shadow.get(0).is_tainted(), "no wrap to address zero");
        assert!(!shadow.get(1).is_tainted());
    }

    #[test]
    fn load_at_top_of_address_space_reads_clamped_bytes_clean() {
        let (mut regs, mut shadow) = setup();
        shadow.set(0, TaintTag::FILE); // would be read if loads wrapped
        shadow.set(0xFFFF_FFFF, TaintTag::NETWORK);
        let out = apply(
            PropRule::Load { dst: 3, addr: 0xFFFF_FFFE, len: 4 },
            &mut regs,
            &mut shadow,
        );
        assert!(out.touched_taint);
        let tags = regs.get(3);
        assert_eq!(tags[0], TaintTag::CLEAN);
        assert_eq!(tags[1], TaintTag::NETWORK);
        assert_eq!(tags[2], TaintTag::CLEAN, "byte at address 0 not read");
        assert_eq!(tags[3], TaintTag::CLEAN);
    }
}
