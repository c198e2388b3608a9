//! Taint sources, sinks, and validation rules.
//!
//! Paper §1–2: a typical security application taints data from untrusted
//! sources (files, network sockets, user input), and validation checks
//! that the *use* of tainted data is consistent with pre-defined security
//! rules — above all that tainted data never becomes a control-flow
//! target, which catches buffer overflows and the control-flow hijacks
//! (ROP/JOP) built on them. A complementary rule class guards *sinks*:
//! bytes tagged [`TaintTag::SECRET`] must not leave through an output
//! channel (leak prevention).

use crate::tag::TaintTag;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_core::Addr;
use std::error::Error;
use std::fmt;

/// Classes of taint source the initialization rules recognize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Bytes read from a file.
    File,
    /// Bytes received over a network socket.
    Socket,
    /// Bytes from interactive user input.
    UserInput,
}

/// Output channels guarded by sink rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkKind {
    /// Data written to a network socket.
    Socket,
    /// Data written to a file.
    File,
}

/// The kind of security rule that was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A control transfer (indirect jump, call, or return) targeted an
    /// address computed from tainted data.
    TaintedControlFlow,
    /// Secret-tagged data reached an output sink.
    SecretLeak,
    /// A syscall consumed a tainted argument it must not (e.g. a tainted
    /// format string or path).
    TaintedSyscallArg,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::TaintedControlFlow => f.write_str("tainted control-flow target"),
            ViolationKind::SecretLeak => f.write_str("secret data reached an output sink"),
            ViolationKind::TaintedSyscallArg => f.write_str("tainted syscall argument"),
        }
    }
}

/// A security exception raised by DIFT validation (paper §1: "generates
/// security exceptions in response to violations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityViolation {
    /// The rule that fired.
    pub kind: ViolationKind,
    /// Program counter of the violating instruction.
    pub pc: Addr,
    /// The offending data address, when one exists.
    pub addr: Option<Addr>,
    /// The taint tag that triggered the rule.
    pub tag: TaintTag,
}

impl fmt::Display for SecurityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {:#010x} (tag {})", self.kind, self.pc, self.tag)?;
        if let Some(addr) = self.addr {
            write!(f, ", data at {addr:#010x}")?;
        }
        Ok(())
    }
}

impl Error for SecurityViolation {}

impl SecurityViolation {
    /// Appends this violation to a snapshot blob (kind as a stable u8
    /// discriminant, then pc, optional data address, and tag).
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(match self.kind {
            ViolationKind::TaintedControlFlow => 0,
            ViolationKind::SecretLeak => 1,
            ViolationKind::TaintedSyscallArg => 2,
        });
        w.u32(self.pc);
        w.opt_u32(self.addr);
        w.u8(self.tag.0);
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncation or an unknown kind byte.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let kind = match r.u8()? {
            0 => ViolationKind::TaintedControlFlow,
            1 => ViolationKind::SecretLeak,
            2 => ViolationKind::TaintedSyscallArg,
            _ => return Err(SnapError::Corrupt("violation kind")),
        };
        Ok(Self {
            kind,
            pc: r.u32()?,
            addr: r.opt_u32()?,
            tag: TaintTag(r.u8()?),
        })
    }
}

/// The configured DIFT policy: which sources taint, which rules check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintPolicy {
    taint_files: bool,
    taint_sockets: bool,
    taint_user_input: bool,
    check_control_flow: bool,
    check_secret_leak: bool,
}

impl Default for TaintPolicy {
    /// The paper's general evaluation policy (§3.1): a conservative
    /// policy tainting both network and file sources, with control-flow
    /// validation on.
    fn default() -> Self {
        Self {
            taint_files: true,
            taint_sockets: true,
            taint_user_input: true,
            check_control_flow: true,
            check_secret_leak: false,
        }
    }
}

impl TaintPolicy {
    /// The conservative default policy (see [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables tainting of file reads.
    pub fn taint_files(mut self, on: bool) -> Self {
        self.taint_files = on;
        self
    }

    /// Enables or disables tainting of socket receives.
    pub fn taint_sockets(mut self, on: bool) -> Self {
        self.taint_sockets = on;
        self
    }

    /// Enables or disables tainting of user input.
    pub fn taint_user_input(mut self, on: bool) -> Self {
        self.taint_user_input = on;
        self
    }

    /// Enables or disables control-flow target validation.
    pub fn check_control_flow(mut self, on: bool) -> Self {
        self.check_control_flow = on;
        self
    }

    /// Enables or disables secret-leak sink checking.
    pub fn check_secret_leak(mut self, on: bool) -> Self {
        self.check_secret_leak = on;
        self
    }

    /// Snapshot encoder: the five policy switches, one byte each.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        w.bool(self.taint_files);
        w.bool(self.taint_sockets);
        w.bool(self.taint_user_input);
        w.bool(self.check_control_flow);
        w.bool(self.check_secret_leak);
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            taint_files: r.bool()?,
            taint_sockets: r.bool()?,
            taint_user_input: r.bool()?,
            check_control_flow: r.bool()?,
            check_secret_leak: r.bool()?,
        })
    }

    /// The tag assigned to bytes arriving from `source`, or `None` when
    /// the policy does not taint that source (e.g. a trusted connection
    /// under the paper's Apache-25/50/75 policies, §3.1).
    pub fn tag_for_source(&self, source: SourceKind) -> Option<TaintTag> {
        match source {
            SourceKind::File if self.taint_files => Some(TaintTag::FILE),
            SourceKind::Socket if self.taint_sockets => Some(TaintTag::NETWORK),
            SourceKind::UserInput if self.taint_user_input => Some(TaintTag::USER_INPUT),
            _ => None,
        }
    }

    /// Validates an indirect control transfer whose target was computed
    /// from data tagged `tag`.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityViolation`] with
    /// [`ViolationKind::TaintedControlFlow`] when the tag is tainted and
    /// control-flow checking is enabled.
    pub fn validate_branch_target(
        &self,
        pc: Addr,
        target: Addr,
        tag: TaintTag,
    ) -> Result<(), SecurityViolation> {
        if self.check_control_flow && tag.is_tainted() {
            return Err(SecurityViolation {
                kind: ViolationKind::TaintedControlFlow,
                pc,
                addr: Some(target),
                tag,
            });
        }
        Ok(())
    }

    /// Validates data tagged `tag` flowing to `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityViolation`] with [`ViolationKind::SecretLeak`]
    /// when secret-tagged data reaches any sink and leak checking is
    /// enabled.
    pub fn validate_sink(
        &self,
        pc: Addr,
        _sink: SinkKind,
        addr: Addr,
        tag: TaintTag,
    ) -> Result<(), SecurityViolation> {
        if self.check_secret_leak && tag.contains(TaintTag::SECRET) {
            return Err(SecurityViolation {
                kind: ViolationKind::SecretLeak,
                pc,
                addr: Some(addr),
                tag,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_taints_files_and_sockets() {
        let p = TaintPolicy::new();
        assert_eq!(p.tag_for_source(SourceKind::File), Some(TaintTag::FILE));
        assert_eq!(p.tag_for_source(SourceKind::Socket), Some(TaintTag::NETWORK));
        assert_eq!(
            p.tag_for_source(SourceKind::UserInput),
            Some(TaintTag::USER_INPUT)
        );
    }

    #[test]
    fn sources_can_be_disabled() {
        let p = TaintPolicy::new().taint_files(false);
        assert_eq!(p.tag_for_source(SourceKind::File), None);
        assert!(p.tag_for_source(SourceKind::Socket).is_some());
    }

    #[test]
    fn tainted_branch_target_raises() {
        let p = TaintPolicy::new();
        let err = p
            .validate_branch_target(0x400, 0xDEAD, TaintTag::NETWORK)
            .unwrap_err();
        assert_eq!(err.kind, ViolationKind::TaintedControlFlow);
        assert_eq!(err.addr, Some(0xDEAD));
        assert!(p.validate_branch_target(0x400, 0xDEAD, TaintTag::CLEAN).is_ok());
    }

    #[test]
    fn control_flow_check_can_be_disabled() {
        let p = TaintPolicy::new().check_control_flow(false);
        assert!(p
            .validate_branch_target(0, 0, TaintTag::NETWORK)
            .is_ok());
    }

    #[test]
    fn secret_leak_detection() {
        let p = TaintPolicy::new().check_secret_leak(true);
        let err = p
            .validate_sink(0x10, SinkKind::Socket, 0x2000, TaintTag::SECRET)
            .unwrap_err();
        assert_eq!(err.kind, ViolationKind::SecretLeak);
        // Non-secret taint flows out freely under this rule.
        assert!(p
            .validate_sink(0x10, SinkKind::Socket, 0x2000, TaintTag::NETWORK)
            .is_ok());
        // Disabled by default.
        assert!(TaintPolicy::new()
            .validate_sink(0x10, SinkKind::Socket, 0x2000, TaintTag::SECRET)
            .is_ok());
    }

    #[test]
    fn violation_display_mentions_kind_and_pc() {
        let v = SecurityViolation {
            kind: ViolationKind::TaintedControlFlow,
            pc: 0x1234,
            addr: None,
            tag: TaintTag::NETWORK,
        };
        let msg = v.to_string();
        assert!(msg.contains("control-flow"));
        assert!(msg.contains("0x00001234"));
    }
}
