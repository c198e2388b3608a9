//! Taint tags.
//!
//! A [`TaintTag`] records *where* a byte's data originated. Following the
//! typical initialization scheme described in the paper (§2), each byte
//! read from an untrusted source receives a tag indicating its origin;
//! derived data accumulates the union of its inputs' tags. A zero tag
//! means "untainted".

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// A one-byte taint tag: a bitmask of origin classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaintTag(pub u8);

impl TaintTag {
    /// Untainted.
    pub const CLEAN: TaintTag = TaintTag(0);
    /// Data that arrived over a network socket.
    pub const NETWORK: TaintTag = TaintTag(1 << 0);
    /// Data read from a file.
    pub const FILE: TaintTag = TaintTag(1 << 1);
    /// Data from interactive user input.
    pub const USER_INPUT: TaintTag = TaintTag(1 << 2);
    /// Sensitive data tracked to prevent exposure (leak policies).
    pub const SECRET: TaintTag = TaintTag(1 << 3);

    /// Whether this tag marks tainted data.
    #[inline]
    pub fn is_tainted(self) -> bool {
        self.0 != 0
    }

    /// Union of two tags (the propagation combinator).
    #[inline]
    pub fn union(self, other: TaintTag) -> TaintTag {
        TaintTag(self.0 | other.0)
    }

    /// Whether this tag includes every class in `class`.
    #[inline]
    pub fn contains(self, class: TaintTag) -> bool {
        self.0 & class.0 == class.0
    }
}

impl BitOr for TaintTag {
    type Output = TaintTag;
    fn bitor(self, rhs: TaintTag) -> TaintTag {
        self.union(rhs)
    }
}

impl BitOrAssign for TaintTag {
    fn bitor_assign(&mut self, rhs: TaintTag) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TaintTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_tainted() {
            return f.write_str("clean");
        }
        let mut first = true;
        let classes: [(TaintTag, &str); 4] = [
            (TaintTag::NETWORK, "net"),
            (TaintTag::FILE, "file"),
            (TaintTag::USER_INPUT, "user"),
            (TaintTag::SECRET, "secret"),
        ];
        for (class, name) in classes {
            if self.contains(class) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        let known = TaintTag::NETWORK.0 | TaintTag::FILE.0 | TaintTag::USER_INPUT.0 | TaintTag::SECRET.0;
        if self.0 & !known != 0 {
            if !first {
                f.write_str("|")?;
            }
            write!(f, "{:#04x}", self.0 & !known)?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for TaintTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for TaintTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_is_untainted() {
        assert!(!TaintTag::CLEAN.is_tainted());
        assert!(TaintTag::NETWORK.is_tainted());
    }

    #[test]
    fn union_accumulates_classes() {
        let t = TaintTag::NETWORK | TaintTag::FILE;
        assert!(t.contains(TaintTag::NETWORK));
        assert!(t.contains(TaintTag::FILE));
        assert!(!t.contains(TaintTag::SECRET));
    }

    #[test]
    fn display_names_classes() {
        assert_eq!(TaintTag::CLEAN.to_string(), "clean");
        assert_eq!(TaintTag::NETWORK.to_string(), "net");
        assert_eq!((TaintTag::NETWORK | TaintTag::SECRET).to_string(), "net|secret");
        assert_eq!(TaintTag(0xF0).to_string(), "0xf0");
    }

    #[test]
    fn or_assign() {
        let mut t = TaintTag::CLEAN;
        t |= TaintTag::FILE;
        assert_eq!(t, TaintTag::FILE);
    }

    #[test]
    fn hex_and_binary_formatting() {
        assert_eq!(format!("{:x}", TaintTag(0xAB)), "ab");
        assert_eq!(format!("{:b}", TaintTag(0b101)), "101");
    }
}
