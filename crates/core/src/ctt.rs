//! The Coarse Taint Table (CTT).
//!
//! The CTT is the in-memory backing store for LATCH's coarse taint state
//! (paper §4, Fig. 7 component D). It holds one bit per taint domain,
//! packed 32 bits to a word; a single 32-bit word therefore summarizes the
//! taint status of `32 * domain_bytes` of memory (1 KiB with 32-byte
//! domains, 2 KiB with the 64-byte domains used by S-LATCH).
//!
//! In hardware the CTT lives in ordinary memory addressed as
//! `ctt_base + word_index` (paper Fig. 8); here it is a sparse map from
//! word index to word, so untouched regions cost nothing.
//!
//! Because a flipped CTT bit in the dangerous direction (1→0) would
//! silently void the no-false-negative contract, every stored word
//! carries an even/odd parity bit maintained by the legitimate write
//! path. [`CoarseTaintTable::corrupt_slot`] models a soft error by
//! flipping a bit *without* updating parity, and
//! [`CoarseTaintTable::scrub`] detects the mismatch and conservatively
//! re-derives the word from the precise taint state. A legitimate
//! domain write toggles the parity by the one bit it changes rather
//! than recomputing it, so a flip elsewhere in the word stays visible
//! until a scrub repairs it.

use crate::domain::{CttWordId, DomainGeometry, DomainId};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::{Addr, PreciseView, CTT_WORD_BITS};
use std::collections::HashMap;

/// Whether a 32-bit word has an odd number of set bits.
#[inline]
fn odd_parity(bits: u32) -> bool {
    bits.count_ones() % 2 == 1
}

/// Outcome of a [`CoarseTaintTable::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CttScrubReport {
    /// Words whose parity was checked.
    pub words_checked: u64,
    /// Words whose parity mismatched and were re-derived.
    pub words_repaired: u64,
    /// Domain bits restored to tainted by the re-derivation (these are
    /// the repaired spurious clears — each one a prevented false
    /// negative).
    pub domains_retainted: u64,
    /// Domain bits dropped by the re-derivation (repaired spurious
    /// sets — pure precision recovery).
    pub domains_dropped: u64,
    /// The repaired words, so callers can refresh dependent state
    /// (resident CTC lines, page-level taint bits).
    pub repaired: Vec<CttWordId>,
}

/// Sparse, word-granular coarse taint table.
#[derive(Debug, Clone, Default)]
pub struct CoarseTaintTable {
    words: HashMap<u32, u32>,
    /// Odd-parity flag per stored word, maintained only by the
    /// legitimate write path; absent words have the parity of zero.
    parity: HashMap<u32, bool>,
}

impl CoarseTaintTable {
    /// Creates an empty table (all domains untainted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a CTT word. Absent words read as zero, i.e. fully untainted.
    #[inline]
    pub fn load_word(&self, word: CttWordId) -> u32 {
        self.words.get(&word.0).copied().unwrap_or(0)
    }

    /// Stores a CTT word with fresh parity, reclaiming storage for
    /// all-zero words.
    #[inline]
    pub fn store_word(&mut self, word: CttWordId, bits: u32) {
        self.put(word, bits, odd_parity(bits));
    }

    /// Stores `bits` under the parity flag `parity`. An all-zero word
    /// is reclaimed only when its parity agrees; one with stale parity
    /// stays resident, as [`corrupt_slot`](Self::corrupt_slot) leaves
    /// it, so a scrub can still detect it.
    fn put(&mut self, word: CttWordId, bits: u32, parity: bool) {
        if latch_obs::ENABLED {
            let before = self.load_word(word);
            if before != bits {
                latch_obs::counter_inc("core.ctt.word_flips");
                latch_obs::emit(
                    "core.ctt",
                    latch_obs::TraceEvent::CttWordFlip {
                        word: word.0,
                        before,
                        after: bits,
                    },
                );
            }
        }
        if bits == 0 && !parity {
            self.words.remove(&word.0);
            self.parity.remove(&word.0);
        } else {
            self.words.insert(word.0, bits);
            self.parity.insert(word.0, parity);
        }
    }

    /// Returns the coarse taint bit for a single domain.
    #[inline]
    pub fn domain_bit(&self, domain: DomainId) -> bool {
        let word = CttWordId(domain.0 / CTT_WORD_BITS);
        let bit = domain.0 % CTT_WORD_BITS;
        self.load_word(word) & (1 << bit) != 0
    }

    /// Sets or clears the coarse taint bit for a single domain. Returns the
    /// previous value of the bit. A change toggles the word's stored
    /// parity, so a flip elsewhere in the word stays detectable.
    pub fn set_domain_bit(&mut self, domain: DomainId, tainted: bool) -> bool {
        let word = CttWordId(domain.0 / CTT_WORD_BITS);
        let mask = 1u32 << (domain.0 % CTT_WORD_BITS);
        let old = self.load_word(word);
        let new = if tainted { old | mask } else { old & !mask };
        if new != old {
            let parity = self.parity.get(&word.0).copied().unwrap_or(false);
            self.put(word, new, !parity);
        }
        old & mask != 0
    }

    /// Returns `true` if any domain overlapping `[start, start + len)` has
    /// its coarse bit set, under the given geometry.
    pub fn range_tainted(&self, geom: &DomainGeometry, start: Addr, len: u32) -> bool {
        geom.domains_in(start, len).any(|d| self.domain_bit(d))
    }

    /// Number of CTT words currently holding at least one set bit.
    pub fn populated_words(&self) -> usize {
        self.words.len()
    }

    /// Total number of set domain bits.
    pub fn tainted_domains(&self) -> u64 {
        self.words.values().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Iterates over `(word_id, bits)` pairs for every populated word, in
    /// unspecified order.
    pub fn iter_words(&self) -> impl Iterator<Item = (CttWordId, u32)> + '_ {
        self.words.iter().map(|(&idx, &bits)| (CttWordId(idx), bits))
    }

    /// Removes every set bit (used when a monitored process exits).
    pub fn clear(&mut self) {
        self.words.clear();
        self.parity.clear();
    }

    /// Fault-injection surface: flips one stored bit *without*
    /// maintaining parity, modelling a soft error in the in-memory
    /// table. The victim word is chosen deterministically from `slot`:
    /// among the populated words (sorted, so independent of hash
    /// order), or — for a spurious set on an empty table — a synthetic
    /// word derived from `slot`. Returns the corrupted word, or `None`
    /// when the flip would be a no-op (e.g. clearing a bit that is
    /// already clear).
    ///
    /// Corrupted-to-zero words stay resident (with stale parity) so a
    /// subsequent [`scrub`](Self::scrub) can still detect them.
    pub fn corrupt_slot(&mut self, slot: u64, bit: u32, set: bool) -> Option<CttWordId> {
        let bit = bit % CTT_WORD_BITS;
        let mask = 1u32 << bit;
        let word = if self.words.is_empty() {
            if !set {
                return None;
            }
            (slot % (1 << 20)) as u32
        } else {
            let mut keys: Vec<u32> = self.words.keys().copied().collect();
            keys.sort_unstable();
            keys[(slot % keys.len() as u64) as usize]
        };
        let old = self.words.get(&word).copied().unwrap_or(0);
        let new = if set { old | mask } else { old & !mask };
        if new == old {
            return None;
        }
        // Raw write: bypasses store_word so parity goes stale and the
        // word stays resident even at zero.
        self.words.insert(word, new);
        Some(CttWordId(word))
    }

    /// Snapshot encoder: words and parity flags written sorted by key,
    /// independently of each other — a corrupted word can be resident
    /// with stale or absent parity, and a restore must preserve exactly
    /// that detectable-by-scrub state.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        let mut words: Vec<(u32, u32)> = self.words.iter().map(|(&k, &v)| (k, v)).collect();
        words.sort_unstable();
        w.u64(words.len() as u64);
        for (key, bits) in words {
            w.u32(key);
            w.u32(bits);
        }
        let mut parity: Vec<(u32, bool)> = self.parity.iter().map(|(&k, &v)| (k, v)).collect();
        parity.sort_unstable();
        w.u64(parity.len() as u64);
        for (key, p) in parity {
            w.u32(key);
            w.bool(p);
        }
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut table = Self::new();
        let n = r.len(8)?;
        for _ in 0..n {
            let key = r.u32()?;
            let bits = r.u32()?;
            table.words.insert(key, bits);
        }
        let n = r.len(5)?;
        for _ in 0..n {
            let key = r.u32()?;
            let p = r.bool()?;
            table.parity.insert(key, p);
        }
        Ok(table)
    }

    /// Whether any resident word's parity disagrees with its bits: the
    /// words the next [`scrub`](Self::scrub) would repair.
    pub(crate) fn parity_mismatch(&self) -> bool {
        self.words
            .iter()
            .any(|(key, &bits)| odd_parity(bits) != self.parity.get(key).copied().unwrap_or(false))
    }

    /// Parity-checks every resident word and conservatively re-derives
    /// mismatching words from the precise taint state: a domain bit is
    /// rebuilt as tainted exactly when `view` holds taint anywhere in
    /// the domain. This repairs spurious clears (restoring the
    /// no-false-negative contract) and drops spurious sets (restoring
    /// precision). Double flips within one word escape parity — the
    /// standard single-error-detection limit.
    ///
    /// Words are visited in sorted order, so the report is
    /// deterministic regardless of hash-map iteration order.
    pub fn scrub<V: PreciseView>(&mut self, geom: &DomainGeometry, view: &V) -> CttScrubReport {
        let mut report = CttScrubReport::default();
        let mut keys: Vec<u32> = self.words.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            report.words_checked += 1;
            let bits = self.words[&key];
            let expected = self.parity.get(&key).copied().unwrap_or(false);
            if odd_parity(bits) == expected {
                continue;
            }
            let mut rebuilt = 0u32;
            for bit in 0..CTT_WORD_BITS {
                let domain = DomainId(key * CTT_WORD_BITS + bit);
                let base = geom.domain_base(domain);
                if view.any_tainted(base, geom.domain_bytes()) {
                    rebuilt |= 1 << bit;
                }
            }
            report.domains_retainted += u64::from((rebuilt & !bits).count_ones());
            report.domains_dropped += u64::from((bits & !rebuilt).count_ones());
            report.words_repaired += 1;
            report.repaired.push(CttWordId(key));
            self.store_word(CttWordId(key), rebuilt);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_untainted() {
        let ctt = CoarseTaintTable::new();
        assert!(!ctt.domain_bit(DomainId(0)));
        assert!(!ctt.domain_bit(DomainId(u32::MAX)));
        assert_eq!(ctt.populated_words(), 0);
        assert_eq!(ctt.tainted_domains(), 0);
    }

    #[test]
    fn set_and_clear_roundtrip() {
        let mut ctt = CoarseTaintTable::new();
        assert!(!ctt.set_domain_bit(DomainId(5), true));
        assert!(ctt.domain_bit(DomainId(5)));
        assert!(!ctt.domain_bit(DomainId(4)));
        assert!(!ctt.domain_bit(DomainId(6)));
        assert!(ctt.set_domain_bit(DomainId(5), false));
        assert!(!ctt.domain_bit(DomainId(5)));
        // Zero words are reclaimed.
        assert_eq!(ctt.populated_words(), 0);
    }

    #[test]
    fn words_pack_32_domains() {
        let mut ctt = CoarseTaintTable::new();
        for d in 0..32 {
            ctt.set_domain_bit(DomainId(d), true);
        }
        assert_eq!(ctt.populated_words(), 1);
        assert_eq!(ctt.load_word(CttWordId(0)), u32::MAX);
        ctt.set_domain_bit(DomainId(32), true);
        assert_eq!(ctt.populated_words(), 2);
        assert_eq!(ctt.tainted_domains(), 33);
    }

    #[test]
    fn range_query_uses_geometry() {
        let geom = DomainGeometry::new(64).unwrap();
        let mut ctt = CoarseTaintTable::new();
        ctt.set_domain_bit(geom.domain_of(0x1000), true);
        assert!(ctt.range_tainted(&geom, 0x1000, 1));
        assert!(ctt.range_tainted(&geom, 0x0FFF, 2)); // straddles into it
        assert!(!ctt.range_tainted(&geom, 0x0F00, 64));
        assert!(!ctt.range_tainted(&geom, 0x1040, 4));
        assert!(!ctt.range_tainted(&geom, 0x1000, 0)); // empty range
    }

    #[test]
    fn clear_resets_everything() {
        let mut ctt = CoarseTaintTable::new();
        ctt.set_domain_bit(DomainId(1), true);
        ctt.set_domain_bit(DomainId(100), true);
        ctt.clear();
        assert_eq!(ctt.tainted_domains(), 0);
        assert!(!ctt.domain_bit(DomainId(1)));
    }

    #[test]
    fn iter_words_reports_bits() {
        let mut ctt = CoarseTaintTable::new();
        ctt.set_domain_bit(DomainId(33), true);
        let v: Vec<_> = ctt.iter_words().collect();
        assert_eq!(v, vec![(CttWordId(1), 1 << 1)]);
    }

    struct SpanView(Addr, u32);
    impl crate::PreciseView for SpanView {
        fn any_tainted(&self, start: Addr, len: u32) -> bool {
            let (s, e) = (u64::from(start), u64::from(start) + u64::from(len));
            let (a, b) = (u64::from(self.0), u64::from(self.0) + u64::from(self.1));
            a < e && s < b
        }
    }

    #[test]
    fn scrub_repairs_spurious_clear_from_precise_state() {
        let geom = DomainGeometry::new(64).unwrap();
        let mut ctt = CoarseTaintTable::new();
        let d = geom.domain_of(0x1000);
        ctt.set_domain_bit(d, true);
        // Soft error clears the dangerous direction.
        let word = ctt.corrupt_slot(0, d.0 % CTT_WORD_BITS, false).unwrap();
        assert!(!ctt.domain_bit(d), "corruption must land");
        let view = SpanView(0x1000, 4);
        let report = ctt.scrub(&geom, &view);
        assert_eq!(report.words_repaired, 1);
        assert_eq!(report.domains_retainted, 1);
        assert_eq!(report.repaired, vec![word]);
        assert!(ctt.domain_bit(d), "scrub must rebuild the bit as tainted");
        // A second scrub finds nothing.
        assert_eq!(ctt.scrub(&geom, &view).words_repaired, 0);
    }

    #[test]
    fn scrub_drops_spurious_set() {
        let geom = DomainGeometry::new(64).unwrap();
        let mut ctt = CoarseTaintTable::new();
        let d = geom.domain_of(0x1000);
        ctt.set_domain_bit(d, true);
        // Flip a *different* bit of the same word up.
        let other = (d.0 + 1) % CTT_WORD_BITS;
        ctt.corrupt_slot(0, other, true).unwrap();
        let view = SpanView(0x1000, 4);
        let report = ctt.scrub(&geom, &view);
        assert_eq!(report.words_repaired, 1);
        assert_eq!(report.domains_dropped, 1);
        assert!(ctt.domain_bit(d), "legit taint survives");
        assert_eq!(ctt.tainted_domains(), 1);
    }

    #[test]
    fn domain_writes_keep_a_flip_in_their_word_visible() {
        let geom = DomainGeometry::new(64).unwrap();
        let mut ctt = CoarseTaintTable::new();
        let d = geom.domain_of(0x1000);
        ctt.set_domain_bit(d, true);
        ctt.corrupt_slot(0, d.0 % CTT_WORD_BITS, false).unwrap();
        // Taint and untaint a neighbour in the same word: the word ends
        // at zero with stale parity, and stays resident for the scrub.
        let next = DomainId(d.0 + 1);
        ctt.set_domain_bit(next, true);
        assert!(ctt.parity_mismatch(), "after the set");
        ctt.set_domain_bit(next, false);
        assert!(ctt.parity_mismatch(), "after the clear");
        assert_eq!(ctt.populated_words(), 1);
        let report = ctt.scrub(&geom, &SpanView(0x1000, 4));
        assert_eq!(report.domains_retainted, 1);
        assert!(ctt.domain_bit(d), "scrub must rebuild the bit as tainted");
    }

    #[test]
    fn corrupt_on_empty_table_only_sets() {
        let geom = DomainGeometry::new(64).unwrap();
        let mut ctt = CoarseTaintTable::new();
        assert_eq!(ctt.corrupt_slot(7, 3, false), None);
        let word = ctt.corrupt_slot(7, 3, true).unwrap();
        assert_eq!(ctt.load_word(word) & (1 << 3), 1 << 3);
        // Scrub detects the phantom word and reclaims it.
        let report = ctt.scrub(&geom, &crate::EmptyView);
        assert_eq!(report.words_repaired, 1);
        assert_eq!(ctt.populated_words(), 0);
    }

    #[test]
    fn corrupt_to_zero_word_stays_detectable() {
        let geom = DomainGeometry::new(64).unwrap();
        let mut ctt = CoarseTaintTable::new();
        let d = geom.domain_of(0);
        ctt.set_domain_bit(d, true);
        ctt.corrupt_slot(0, 0, false).unwrap();
        // The word reads zero but is still resident for the scrubber.
        assert_eq!(ctt.tainted_domains(), 0);
        let view = SpanView(0, 4);
        let report = ctt.scrub(&geom, &view);
        assert_eq!(report.domains_retainted, 1);
        assert!(ctt.domain_bit(d));
    }
}
