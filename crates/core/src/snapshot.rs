//! A tiny hand-rolled binary snapshot codec.
//!
//! The serving layer (`latch-serve`) evicts idle sessions by freezing
//! their full microarchitectural state — coarse structures, precise
//! engine, statistics — into an opaque byte blob and thawing it later,
//! possibly on another node. Two properties matter more
//! than compactness:
//!
//! 1. **Determinism**: encoding the same logical state must yield the
//!    same bytes, so snapshot equality can stand in for state equality
//!    in tests. Hash maps are therefore always written sorted by key.
//! 2. **Fidelity**: a restore must be indistinguishable from never
//!    having been evicted — including LRU clocks, statistics counters,
//!    and pending eviction scans — so a replayed run produces
//!    byte-identical reports.
//!
//! All integers are little-endian fixed width. Every top-level blob
//! starts with a magic word and a format version and ends in a CRC-32
//! trailer; component encoders (in `ctt`, `ctc`, `tlb`, `trf`) write
//! raw fields only. A layer that nests another layer's blob (a session
//! holds its unit's and its engine's) writes it in place with
//! [`SnapWriter::sealed`], so one pass over one buffer encodes and
//! checksums the whole snapshot.

use std::error::Error;
use std::fmt;

/// Failure while decoding a snapshot blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The blob ended before the decoder was done.
    Truncated,
    /// The leading magic word did not match.
    BadMagic,
    /// The format version is not one this build understands.
    BadVersion(u32),
    /// A decoded value violated an invariant of the target structure.
    Corrupt(&'static str),
    /// Decoding finished with bytes left over.
    TrailingBytes,
    /// The CRC32 trailer does not match the blob contents.
    BadChecksum,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
            SnapError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch"),
        }
    }
}

impl Error for SnapError {}

/// The CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
/// slice-by-16 lookup tables, built at compile time. Table 0 is the
/// classic bytewise table; table `k` is the CRC of a byte followed by
/// `k` zero bytes, so one 16-byte block folds in with 16 independent
/// lookups instead of 16 dependent ones. A `static`, so debug builds
/// index the one copy instead of materializing the 16 KiB per use.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum used by snapshot trailers
/// and by the serving layer's journal frames and snapshot store.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a CRC-32 over more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for block in blocks.by_ref() {
        // The running CRC folds into the block's first four bytes; then
        // byte `j` of the block is `15 - j` bytes from the block's end.
        let mut b = [0u8; 16];
        b.copy_from_slice(block);
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        b[..4].copy_from_slice(&head.to_le_bytes());
        c = 0;
        for (j, &x) in b.iter().enumerate() {
            c ^= CRC32_TABLES[15 - j][usize::from(x)];
        }
    }
    for &b in blocks.remainder() {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The CRC-32 of every blob that ends in its own little-endian CRC-32
/// (the CRC's residue): `crc32(b ++ crc32(b).to_le_bytes())` is this
/// constant for any `b`.
const CRC32_RESIDUE: u32 = 0x2144_DF1C;

/// `a·b mod P` for two CRC-32 values read as polynomials over GF(2),
/// in the reflected bit order of `crc32` (bit 31 holds x^0).
const fn crc32_mul(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 {
            0xEDB8_8320 ^ (b >> 1)
        } else {
            b >> 1
        };
        m >>= 1;
    }
    p
}

/// `x^(2^k) mod P` for `k` in `0..32`, built at compile time by
/// repeated squaring from x^1. The order of x modulo P divides
/// 2^32 − 1, so `k` wraps modulo 32.
static CRC32_X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30;
    let mut k = 1;
    while k < 32 {
        table[k] = crc32_mul(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// The CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b.len()`
/// alone, as zlib's `crc32_combine`: neither byte string is read, so a
/// writer that caches the CRCs of a file's fixed-size blocks checksums
/// the whole file without reading the blocks that did not change.
#[must_use]
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    crc32_shift(crc_a, len_b) ^ crc_b
}

/// Multiplies `crc` by x^(8n) mod P: the CRC-32 is affine, so
/// `crc32(a ++ b) == crc32_shift(crc32(a), b.len()) ^ crc32(b)` for any
/// `a` and `b`. One product per set bit of `n`, whatever the bytes.
fn crc32_shift(mut crc: u32, mut n: usize) -> u32 {
    let mut k = 3; // x^(8n) = product of x^(2^(i+3)) over the set bits i of n
    while n != 0 {
        if n & 1 != 0 {
            crc = crc32_mul(CRC32_X2N[k % 32], crc);
        }
        n >>= 1;
        k += 1;
    }
    crc
}

/// Append-only encoder over a growable byte buffer.
///
/// A nested blob written with [`sealed`](Self::sealed) ends in its own
/// CRC-32, and the writer records where it lies. An enclosing
/// [`finish_crc`](Self::finish_crc) or `sealed` then folds it into its
/// own CRC from its length alone, because after a blob that ends in its
/// own CRC a CRC-32 depends only on the blob's length and what came
/// before it. Only blobs this writer sealed itself are skipped: bytes
/// appended with [`bytes`](Self::bytes) are checksummed in full, even
/// when they hold a blob with a trailer, since nothing proves that
/// trailer matches.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// `(start, len)` of each blob sealed at the current nesting level,
    /// in buffer order.
    sealed: Vec<(usize, usize)>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose buffer holds `bytes` before it
    /// grows.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            sealed: Vec::new(),
        }
    }

    /// Writes the standard `magic` + `version` header.
    pub fn header(&mut self, magic: u32, version: u32) {
        self.u32(magic);
        self.u32(version);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends an `Option<u32>` as presence byte + value.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u32(x);
            }
            None => self.bool(false),
        }
    }

    /// Consumes the writer, returning the encoded blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a nested blob in place: a u64 length prefix, whatever
    /// `encode` writes, and a CRC-32 trailer over that. The bytes are
    /// those of `u64(len) ++ blob`, where `blob` is what `encode`
    /// followed by [`finish_crc`](Self::finish_crc) produces in a
    /// writer of its own, but no second buffer is built, and the
    /// enclosing CRC skips the blob instead of reading it again.
    pub fn sealed(&mut self, encode: impl FnOnce(&mut Self)) {
        let prefix = self.buf.len();
        self.u64(0); // patched once the length is known
        let start = self.buf.len();
        let outer = self.sealed.len();
        encode(self);
        let crc = self.crc_from(start, outer);
        self.sealed.truncate(outer);
        self.u32(crc);
        let len = self.buf.len() - start;
        self.buf[prefix..start].copy_from_slice(&(len as u64).to_le_bytes());
        self.sealed.push((start, len));
    }

    /// CRC-32 of `buf[start..]`, folding in the sealed blobs from
    /// `sealed[first..]` (all of which lie in that range) by length.
    fn crc_from(&self, start: usize, first: usize) -> u32 {
        let mut crc = 0;
        let mut pos = start;
        for &(at, len) in &self.sealed[first..] {
            crc = crc32_update(crc, &self.buf[pos..at]);
            crc = crc32_shift(crc, len) ^ CRC32_RESIDUE;
            pos = at + len;
        }
        crc32_update(crc, &self.buf[pos..])
    }

    /// Consumes the writer, appending a CRC-32 trailer over everything
    /// written so far (header included). Readers strip and verify it
    /// with [`SnapReader::trim_crc`].
    pub fn finish_crc(mut self) -> Vec<u8> {
        let crc = self.crc_from(0, 0);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Cursor-based decoder over a snapshot blob.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a blob for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads and validates the standard header, returning the version.
    pub fn header(&mut self, magic: u32, max_version: u32) -> Result<u32, SnapError> {
        if self.u32()? != magic {
            return Err(SnapError::BadMagic);
        }
        let version = self.u32()?;
        if version == 0 || version > max_version {
            return Err(SnapError::BadVersion(version));
        }
        Ok(version)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool")),
        }
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads an `Option<u32>` written by [`SnapWriter::opt_u32`].
    pub fn opt_u32(&mut self) -> Result<Option<u32>, SnapError> {
        if self.bool()? {
            Ok(Some(self.u32()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a u64 length prefix, bounds-checked against the remaining
    /// bytes so a corrupt length cannot trigger a huge allocation.
    /// `min_item_bytes` is the smallest possible encoding of one item.
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        let min = min_item_bytes.max(1) as u64;
        if n > remaining / min {
            return Err(SnapError::Corrupt("length prefix"));
        }
        Ok(n as usize)
    }

    /// Verifies and strips a CRC-32 trailer appended by
    /// [`SnapWriter::finish_crc`]: the last four bytes of the blob must
    /// be the little-endian CRC-32 of everything before them. Call this
    /// right after reading (and version-checking) the header; the
    /// trailer is removed from the reader's view so `expect_end` still
    /// demands full consumption of the body.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when no trailer fits in the remaining
    /// bytes, [`SnapError::BadChecksum`] on a mismatch.
    pub fn trim_crc(&mut self) -> Result<(), SnapError> {
        let len = self.buf.len();
        if len < 4 || len - 4 < self.pos {
            return Err(SnapError::Truncated);
        }
        let body = &self.buf[..len - 4];
        let want = u32::from_le_bytes([
            self.buf[len - 4],
            self.buf[len - 3],
            self.buf[len - 2],
            self.buf[len - 1],
        ]);
        if crc32(body) != want {
            return Err(SnapError::BadChecksum);
        }
        self.buf = body;
        Ok(())
    }

    /// Verifies the whole blob was consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = SnapWriter::new();
        w.header(0xABCD_1234, 1);
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.opt_u32(Some(42));
        w.opt_u32(None);
        w.bytes(&[1, 2, 3]);
        let blob = w.finish();

        let mut r = SnapReader::new(&blob);
        assert_eq!(r.header(0xABCD_1234, 1).unwrap(), 1);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.opt_u32().unwrap(), Some(42));
        assert_eq!(r.opt_u32().unwrap(), None);
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(9);
        let blob = w.finish();
        let mut r = SnapReader::new(&blob[..5]);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut w = SnapWriter::new();
        w.header(1, 9);
        let blob = w.finish();
        let mut r = SnapReader::new(&blob);
        assert_eq!(r.header(2, 9), Err(SnapError::BadMagic));
        let mut r = SnapReader::new(&blob);
        assert_eq!(r.header(1, 3), Err(SnapError::BadVersion(9)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let blob = w.finish();
        let mut r = SnapReader::new(&blob);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let blob = w.finish();
        let mut r = SnapReader::new(&blob);
        assert_eq!(r.len(4), Err(SnapError::Corrupt("length prefix")));
    }

    #[test]
    fn non_boolean_byte_rejected() {
        let blob = [3u8];
        let mut r = SnapReader::new(&blob);
        assert_eq!(r.bool(), Err(SnapError::Corrupt("bool")));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bytewise CRC-32 straight from the reflected polynomial, with no
    /// tables: the reference `crc32` must match bit for bit.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        use rand::{rngs::SmallRng, RngCore, SeedableRng};
        let mut buf = vec![0u8; len];
        SmallRng::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        // Every block/tail split and every alignment of the 16-byte
        // blocks relative to the buffer.
        let buf = seeded_bytes(0x5EED, 16 + 257);
        for start in 0..16 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start}, len {len}");
            }
        }
        let big = seeded_bytes(0xB16, 1 << 20);
        assert_eq!(crc32(&big), crc32_reference(&big));
    }

    /// `body` sealed the slow way: u64 length prefix, the body, and a
    /// trailer from the bytewise reference.
    fn reference_sealed(body: &[u8]) -> Vec<u8> {
        let mut v = (body.len() as u64 + 4).to_le_bytes().to_vec();
        v.extend_from_slice(body);
        v.extend_from_slice(&crc32_reference(body).to_le_bytes());
        v
    }

    /// `bytes` plus a trailer from the bytewise reference.
    fn reference_finish(mut bytes: Vec<u8>) -> Vec<u8> {
        let crc = crc32_reference(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Writes `prefix ++ sealed(inner ++ sealed(body) ++ tail) ++
    /// suffix` — or one level less when `inner` is `None` — and checks
    /// the bytes against a bytewise full pass.
    fn check_sealed(prefix: &[u8], inner: Option<&[u8]>, body: &[u8], tail: &[u8], suffix: &[u8]) {
        let mut w = SnapWriter::new();
        w.bytes(prefix);
        let mut want = prefix.to_vec();
        match inner {
            Some(inner) => {
                w.sealed(|w| {
                    w.bytes(inner);
                    w.sealed(|w| w.bytes(body));
                    w.bytes(tail);
                });
                let mut outer = inner.to_vec();
                outer.extend_from_slice(&reference_sealed(body));
                outer.extend_from_slice(tail);
                want.extend_from_slice(&reference_sealed(&outer));
            }
            None => {
                w.sealed(|w| w.bytes(body));
                want.extend_from_slice(&reference_sealed(body));
            }
        }
        w.bytes(suffix);
        want.extend_from_slice(suffix);
        assert_eq!(w.finish_crc(), reference_finish(want));
    }

    #[test]
    fn crc32_shift_and_residue_match_concatenation() {
        let buf = seeded_bytes(0xC0DE, 257 + 1029);
        let big_a = seeded_bytes(0xC0DF, 4096 + 1029);
        for alen in 0..=257 {
            let a = &buf[..alen];
            for blen in [0, 1, 15, 16, 17, 1029 - alen] {
                let b = &buf[alen..alen + blen];
                let whole = &buf[..alen + blen];
                assert_eq!(
                    crc32_shift(crc32_reference(a), blen) ^ crc32_reference(b),
                    crc32_reference(whole),
                    "prefix {alen}, suffix {blen}"
                );
            }
        }
        for n in 0..=1025 {
            let sealed = &reference_sealed(&buf[..n])[8..];
            assert_eq!(
                crc32_reference(sealed),
                CRC32_RESIDUE,
                "sealed length {}",
                n + 4
            );
        }
        for (alen, blen) in [(0, 0), (0, 9), (9, 0), (100, 4096), (4096, 1029)] {
            let (a, b) = (&big_a[..alen], &big_a[alen..alen + blen]);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len()),
                crc32(&big_a[..alen + blen]),
                "combine {alen} + {blen}"
            );
        }
        // Shifts compose, including lengths whose top bits index the
        // x^(2^k) table past its end and wrap.
        let c = crc32_reference(&buf);
        for (a, b) in [
            (1, 2),
            (1029, 1 << 20),
            (1 << 29, 1 << 29),
            (3 << 29, 1 << 30),
        ] {
            assert_eq!(
                crc32_shift(crc32_shift(c, a), b),
                crc32_shift(c, a + b),
                "{a} + {b}"
            );
        }
    }

    #[test]
    fn sealed_blobs_fold_in_by_length_alone() {
        let data = seeded_bytes(0x5EA1, 2048);
        // Every prefix length 0..=257 and every sealed length 4..=1029
        // (bodies 0..=1025), paired along a diagonal so the reference
        // pass stays linear; every 41st pairing also nests one level
        // deeper.
        for i in 0..=1025 {
            let p = i % 258;
            let (prefix, body, suffix) = (&data[..p], &data[p..p + i], &data[..i % 19]);
            check_sealed(prefix, None, body, &[], suffix);
            if i % 41 == 0 {
                check_sealed(prefix, Some(&data[..i % 23]), body, &data[..i % 7], suffix);
            }
        }
        // A 1 MiB prefix, then a ~600 KiB blob holding a 300 KiB one.
        let big = seeded_bytes(0xB16, (1 << 20) + (600 << 10));
        let (prefix, rest) = big.split_at(1 << 20);
        let (body, outer) = rest.split_at(300 << 10);
        check_sealed(prefix, Some(&outer[..4096]), body, &outer[4096..], &[7; 5]);
    }

    proptest::proptest! {
        #[test]
        fn nested_sealed_layouts_match_a_full_pass(
            p in 0usize..300,
            i in 0usize..64,
            n in 0usize..1100,
            t in 0usize..64,
            s in 0usize..20,
            nest: bool,
        ) {
            let data = seeded_bytes(0x7E57, 2048);
            let inner = nest.then(|| &data[300..300 + i]);
            check_sealed(&data[..p], inner, &data[400..400 + n], &data[1500..1500 + t], &data[..s]);
        }
    }

    #[test]
    fn crc_trailer_roundtrip_and_detection() {
        let mut w = SnapWriter::new();
        w.header(0xFEED_F00D, 2);
        w.u64(77);
        let blob = w.finish_crc();

        let mut r = SnapReader::new(&blob);
        r.header(0xFEED_F00D, 2).unwrap();
        r.trim_crc().unwrap();
        assert_eq!(r.u64().unwrap(), 77);
        r.expect_end().unwrap();

        // Any single-bit flip anywhere in the blob is caught.
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            let mut r = SnapReader::new(&bad);
            // Header bytes may fail earlier with BadMagic/BadVersion;
            // whatever path, decoding never succeeds silently.
            let outcome = r
                .header(0xFEED_F00D, 2)
                .and_then(|_| r.trim_crc());
            assert!(outcome.is_err(), "flip at byte {i} went undetected");
        }

        // A partially-truncated blob misaligns the trailer: caught as a
        // checksum mismatch.
        let mut r = SnapReader::new(&blob[..blob.len() - 2]);
        r.header(0xFEED_F00D, 2).unwrap();
        assert_eq!(r.trim_crc(), Err(SnapError::BadChecksum));

        // Too short to even hold a trailer: Truncated.
        let mut r = SnapReader::new(&blob[..10]);
        r.header(0xFEED_F00D, 2).unwrap();
        assert_eq!(r.trim_crc(), Err(SnapError::Truncated));
    }
}
