//! The storage abstraction under the durability layer.
//!
//! Everything the journal and snapshot store do to disk goes through
//! the [`Storage`] trait: list, whole-file read, append, in-place put,
//! in-place patch, atomic replace, group fsync, remove. Two backends
//! implement it:
//!
//! * [`DirStorage`] — a real directory. Appends go straight to the
//!   file; a put overwrites the file in place; a patch writes each of
//!   its extents at its offset and then sets the file's length; atomic
//!   replaces write and sync a temp file, then rename it over the
//!   target; fsync syncs every file appended to, put or patched since
//!   its last sync, and the directory once if a rename, creation or
//!   removal happened since the last successful barrier.
//! * [`MemStorage`] — a deterministic in-memory model with an explicit
//!   crash semantics driven by the seeded disk-fault streams of
//!   [`latch_faults`]. It records every mutating operation in an op
//!   log; [`MemStorage::crash_image`] replays a prefix of that log and
//!   asks the fault plan which un-fsynced tails survive, tear, or
//!   vanish — so one run can be "killed" at every operation boundary
//!   and each resulting disk image is reproducible byte-for-byte.
//!
//! Read faults (bit rot, short reads) are applied by `MemStorage` on
//! the read path, keyed by a monotone operation counter, so recovery
//! code is exercised against silently corrupted media too.

use latch_faults::{mix, FaultInjector, FaultPlan};
use std::collections::BTreeMap;

/// The torn-write decision key of extent `k` of the patch at op `idx`
/// (`u64::MAX` for its length): apart from every op's own key and from
/// each other.
fn patch_key(idx: u64, k: u64) -> u64 {
    mix(idx, 0x9A7C_4E5D, k)
}

/// Minimal file-store interface the durability layer needs.
pub trait Storage {
    /// All file names present, sorted.
    fn list(&self) -> Vec<String>;
    /// Reads a whole file, or `None` if it does not exist. Fault
    /// backends may return corrupted or short contents — callers must
    /// treat the bytes as untrusted.
    fn read(&mut self, name: &str) -> Option<Vec<u8>>;
    /// Appends bytes to a file (creating it). Returns `false` when the
    /// backend could not perform the append.
    fn append(&mut self, name: &str, bytes: &[u8]) -> bool;
    /// Atomically replaces a file's contents (temp file + rename on
    /// real directories). Returns `false` on failure. After a crash
    /// the file holds either the old contents or the new ones, and the
    /// new ones are durable once a later [`fsync`](Self::fsync)
    /// succeeds.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool;
    /// Overwrites a file in place (creating it): no temp file, no
    /// rename. Returns `false` on failure. Until a later successful
    /// [`fsync`](Self::fsync) the file may hold its old bytes, the new
    /// ones, or a torn mix of the two, so callers put only bytes that
    /// carry their own check (a CRC-trailed frame, a journal header).
    /// The default replaces atomically, which meets the same contract.
    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.write_atomic(name, bytes)
    }
    /// Writes each `(offset, bytes)` extent in place, then sets the
    /// file's length to `len` (creating the file, zero-filling any
    /// gap). Returns `false` on failure. Until a later successful
    /// [`fsync`](Self::fsync) each extent has [`put`](Self::put)'s
    /// contract, independently of the others: it may have landed
    /// whole, in part or not at all, and so may the new length. The
    /// default reads the file, lays the extents over it and puts the
    /// result, which meets the same contract.
    fn patch(&mut self, name: &str, len: u64, extents: &[(u64, &[u8])]) -> bool {
        let mut file = self.read(name).unwrap_or_default();
        lay_extents(&mut file, len, extents);
        self.put(name, &file)
    }
    /// Durably flushes everything written, replaced or removed since
    /// the last successful sync. Returns `false` when the backend
    /// reports the sync failed — callers must assume nothing since the
    /// previous successful sync is durable, and a later call retries.
    fn fsync(&mut self) -> bool;
    /// Deletes a file if present.
    fn remove(&mut self, name: &str);
}

/// Lays `extents` over `file` and sets its length to `len`: what a
/// [`Storage::patch`] leaves once it has landed.
fn lay_extents(file: &mut Vec<u8>, len: u64, extents: &[(u64, &[u8])]) {
    for &(at, bytes) in extents {
        lay(file, at, bytes);
    }
    file.resize(len as usize, 0);
}

/// Writes `bytes` at `at` in `file`, growing it with zeros to reach.
fn lay(file: &mut Vec<u8>, at: u64, bytes: &[u8]) {
    let (lo, hi) = (at as usize, at as usize + bytes.len());
    if file.len() < hi {
        file.resize(hi, 0);
    }
    file[lo..hi].copy_from_slice(bytes);
}

// ---- real directory ------------------------------------------------------

/// [`Storage`] over a real directory.
///
/// A put overwrites the file through one handle and leaves its sync to
/// the next [`fsync`](Storage::fsync). A replace writes its temp file
/// and syncs it through the same handle before the rename, so whichever
/// inode the name points at after a crash holds whole contents. Making
/// a rename or creation durable is left to the next barrier, which
/// syncs the directory once however many names changed.
pub struct DirStorage {
    root: std::path::PathBuf,
    /// Files appended to or put since their last successful sync. A
    /// name leaves when it syncs, or when a replace or removal
    /// supersedes what was written.
    dirty: Vec<String>,
    /// Whether a rename, creation or removal since the last successful
    /// directory sync still needs one.
    dir_dirty: bool,
}

impl DirStorage {
    /// Opens (creating) a directory-backed store.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be
    /// created.
    pub fn open(root: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            dirty: Vec::new(),
            dir_dirty: false,
        })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }

    fn mark_dirty(&mut self, name: &str) {
        if !self.dirty.iter().any(|d| d == name) {
            self.dirty.push(name.to_string());
        }
    }

    /// Opens `name` with `opts`, creating it when missing. A created
    /// file is a new directory entry, which only a directory sync makes
    /// durable.
    fn open_with(
        &mut self,
        name: &str,
        mut opts: std::fs::OpenOptions,
    ) -> std::io::Result<std::fs::File> {
        let path = self.path(name);
        match opts.open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.dir_dirty = true;
                opts.create(true).open(&path)
            }
            opened => opened,
        }
    }
}

impl Storage for DirStorage {
    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| {
                    let e = e.ok()?;
                    let name = e.file_name().into_string().ok()?;
                    // Skip temp files from interrupted atomic writes.
                    (!name.ends_with(".tmp")).then_some(name)
                })
                .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(name)).ok()
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        use std::io::Write;
        let mut opts = std::fs::OpenOptions::new();
        opts.append(true);
        let ok = self
            .open_with(name, opts)
            .and_then(|mut f| f.write_all(bytes))
            .is_ok();
        if ok {
            self.mark_dirty(name);
        }
        ok
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        use std::io::Write;
        let mut opts = std::fs::OpenOptions::new();
        opts.write(true);
        // Written from offset 0, then cut to length: a longer old file
        // keeps no stale tail once the put lands.
        let ok = self
            .open_with(name, opts)
            .and_then(|mut f| {
                f.write_all(bytes)?;
                f.set_len(bytes.len() as u64)
            })
            .is_ok();
        if ok {
            self.mark_dirty(name);
        }
        ok
    }

    fn patch(&mut self, name: &str, len: u64, extents: &[(u64, &[u8])]) -> bool {
        use std::os::unix::fs::FileExt;
        let mut opts = std::fs::OpenOptions::new();
        opts.write(true);
        let ok = self
            .open_with(name, opts)
            .and_then(|f| {
                for &(at, bytes) in extents {
                    f.write_all_at(bytes, at)?;
                }
                f.set_len(len)
            })
            .is_ok();
        if ok {
            self.mark_dirty(name);
        }
        ok
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        use std::io::Write;
        let tmp = self.path(&format!("{name}.tmp"));
        // The temp file must hit the platter before the rename
        // publishes it, or a crash could expose a torn target.
        let ok = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
            .and_then(|()| std::fs::rename(&tmp, self.path(name)))
            .is_ok();
        if ok {
            self.dirty.retain(|d| d != name);
            self.dir_dirty = true;
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
        ok
    }

    fn fsync(&mut self) -> bool {
        // Whatever fails to sync stays dirty, so the next barrier
        // retries it instead of reporting it durable.
        let root = &self.root;
        self.dirty.retain(|name| {
            std::fs::File::open(root.join(name))
                .and_then(|f| f.sync_all())
                .is_err()
        });
        if self.dir_dirty {
            self.dir_dirty = std::fs::File::open(root)
                .and_then(|d| d.sync_all())
                .is_err();
        }
        self.dirty.is_empty() && !self.dir_dirty
    }

    fn remove(&mut self, name: &str) {
        self.dirty.retain(|d| d != name);
        if std::fs::remove_file(self.path(name)).is_ok() {
            self.dir_dirty = true;
        }
    }
}

// ---- deterministic in-memory model ---------------------------------------

/// One mutating operation in the [`MemStorage`] op log.
#[derive(Debug, Clone)]
enum Op {
    Append { name: String, bytes: Vec<u8> },
    Put { name: String, bytes: Vec<u8> },
    Patch {
        name: String,
        len: u64,
        extents: Vec<(u64, Vec<u8>)>,
    },
    Replace { name: String, bytes: Vec<u8> },
    Remove { name: String },
    Fsync { reported_ok: bool },
}

/// Deterministic in-memory [`Storage`] with seeded fault injection and
/// kill-anywhere crash images.
pub struct MemStorage {
    plan: FaultPlan,
    inj: FaultInjector,
    /// Durable contents the store started from: empty for a new store,
    /// the surviving disk for one a crash left behind.
    base: BTreeMap<String, Vec<u8>>,
    /// Logical (post-op) contents, what `read` sees before faults.
    files: BTreeMap<String, Vec<u8>>,
    /// Every mutating op since `base`, in execution order.
    ops: Vec<Op>,
    /// Monotone counter keying fault decisions; also counts reads so
    /// repeated recovery reads draw distinct decisions.
    op_counter: u64,
}

impl MemStorage {
    /// An empty store whose faults follow `plan`'s disk streams.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            inj: FaultInjector::new(plan),
            base: BTreeMap::new(),
            files: BTreeMap::new(),
            ops: Vec::new(),
            op_counter: 0,
        }
    }

    /// Number of mutating operations recorded so far — the space of
    /// valid crash points for [`crash_image`](Self::crash_image).
    #[must_use]
    pub fn ops_len(&self) -> usize {
        self.ops.len()
    }

    /// The disk as it would look if the process died right before op
    /// `crash_op` executed: ops `0..crash_op` happened on top of the
    /// disk this store started from, later ops never did. Appends, puts,
    /// patches and replaces not yet covered by a successful fsync
    /// survive fully or tear, as the plan's torn-write stream decides: a
    /// torn append keeps a seeded strict prefix of its bytes, a torn put
    /// lays a seeded strict prefix of its new bytes over the old
    /// contents, and a torn replace falls back to the old contents. A
    /// patch decides each extent on its own — it lands whole, tears to a
    /// seeded strict prefix laid over the old bytes, or (half of its
    /// tears) does not land at all — and then its new length, which
    /// lands or does not. The result is a
    /// fresh store sharing the same fault plan, starting from that
    /// disk (so it can crash again), with the op counter advanced past
    /// this store's history so post-crash decisions stay independent.
    #[must_use]
    pub fn crash_image(&self, crash_op: usize) -> MemStorage {
        let crash_op = crash_op.min(self.ops.len());
        let mut inj = FaultInjector::new(self.plan);
        let mut durable = self.base.clone();
        // Ops awaiting an fsync: (op_index, what).
        let mut pending: Vec<(u64, &Op)> = Vec::new();
        let apply = |durable: &mut BTreeMap<String, Vec<u8>>, op: &Op| match op {
            Op::Append { name, bytes } => {
                durable.entry(name.clone()).or_default().extend_from_slice(bytes);
            }
            Op::Put { name, bytes } | Op::Replace { name, bytes } => {
                durable.insert(name.clone(), bytes.clone());
            }
            Op::Patch { name, len, extents } => {
                let file = durable.entry(name.clone()).or_default();
                for (at, bytes) in extents {
                    lay(file, *at, bytes);
                }
                file.resize(*len as usize, 0);
            }
            Op::Remove { name } => {
                durable.remove(name);
            }
            Op::Fsync { .. } => {}
        };
        for (i, op) in self.ops.iter().take(crash_op).enumerate() {
            match op {
                Op::Fsync { reported_ok: true } => {
                    for (_, p) in pending.drain(..) {
                        apply(&mut durable, p);
                    }
                }
                // A failed fsync promotes nothing: its writes stay
                // volatile and may still tear at the crash.
                Op::Fsync { reported_ok: false } => {}
                _ => pending.push((i as u64, op)),
            }
        }
        // Un-synced tail: each op survives or tears per the seeded
        // torn-write stream, independently but reproducibly.
        for (idx, op) in pending {
            match op {
                Op::Append { name, bytes } => match inj.disk_torn_at(idx, bytes.len()) {
                    Some(keep) => durable
                        .entry(name.clone())
                        .or_default()
                        .extend_from_slice(&bytes[..keep]),
                    None => apply(&mut durable, op),
                },
                Op::Put { name, bytes } => match inj.disk_torn_at(idx, bytes.len()) {
                    // In place: the first `keep` new bytes landed over
                    // the old file, the rest of it (if longer) stands.
                    Some(keep) => {
                        let file = durable.entry(name.clone()).or_default();
                        let len = file.len().max(keep);
                        file.resize(len, 0);
                        file[..keep].copy_from_slice(&bytes[..keep]);
                    }
                    None => apply(&mut durable, op),
                },
                Op::Patch { name, len, extents } => {
                    let file = durable.entry(name.clone()).or_default();
                    for (k, (at, bytes)) in extents.iter().enumerate() {
                        let key = patch_key(idx, k as u64);
                        let keep = match inj.disk_torn_at(key, bytes.len()) {
                            None => bytes.len(),
                            Some(_) if mix(self.plan.seed, key, 0) & 1 == 0 => 0,
                            Some(keep) => keep,
                        };
                        lay(file, *at, &bytes[..keep]);
                    }
                    if inj.disk_torn_at(patch_key(idx, u64::MAX), 1).is_none() {
                        file.resize(*len as usize, 0);
                    }
                }
                Op::Replace { name: _, bytes } => {
                    // Rename is all-or-nothing: a torn decision means
                    // the rename never reached the directory entry.
                    if inj.disk_torn_at(idx, bytes.len().max(1)).is_none() {
                        apply(&mut durable, op);
                    }
                }
                _ => apply(&mut durable, op),
            }
        }
        MemStorage {
            plan: self.plan,
            inj: FaultInjector::new(self.plan),
            base: durable.clone(),
            files: durable,
            ops: Vec::new(),
            // Keep drawing fresh fault decisions after the crash.
            op_counter: self.op_counter,
        }
    }

    /// Injection counters accumulated by the live (non-crash-replay)
    /// fault stream.
    #[must_use]
    pub fn fault_stats(&self) -> latch_faults::FaultStats {
        self.inj.stats()
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op_counter;
        self.op_counter += 1;
        op
    }
}

impl Storage for MemStorage {
    fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        let mut bytes = self.files.get(name)?.clone();
        let op = self.next_op();
        if let Some(keep) = self.inj.disk_truncated_read_at(op, bytes.len()) {
            bytes.truncate(keep);
        }
        if let Some((offset, mask)) = self.inj.disk_bitrot_at(op, bytes.len()) {
            bytes[offset] ^= mask;
        }
        Some(bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.next_op();
        self.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        self.ops.push(Op::Append {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        });
        true
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.next_op();
        self.files.insert(name.to_string(), bytes.to_vec());
        self.ops.push(Op::Put {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        });
        true
    }

    fn patch(&mut self, name: &str, len: u64, extents: &[(u64, &[u8])]) -> bool {
        self.next_op();
        lay_extents(
            self.files.entry(name.to_string()).or_default(),
            len,
            extents,
        );
        self.ops.push(Op::Patch {
            name: name.to_string(),
            len,
            extents: extents.iter().map(|&(at, b)| (at, b.to_vec())).collect(),
        });
        true
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.next_op();
        self.files.insert(name.to_string(), bytes.to_vec());
        self.ops.push(Op::Replace {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        });
        true
    }

    fn fsync(&mut self) -> bool {
        let op = self.next_op();
        let ok = !self.inj.disk_fsync_fails(op);
        self.ops.push(Op::Fsync { reported_ok: ok });
        ok
    }

    fn remove(&mut self, name: &str) {
        self.next_op();
        self.files.remove(name);
        self.ops.push(Op::Remove {
            name: name.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_basic_file_ops() {
        let mut s = MemStorage::new(FaultPlan::benign());
        assert!(s.append("a", b"hello"));
        assert!(s.append("a", b" world"));
        assert!(s.write_atomic("b", b"xyz"));
        assert_eq!(s.read("a").unwrap(), b"hello world");
        assert_eq!(s.read("b").unwrap(), b"xyz");
        assert_eq!(s.list(), vec!["a".to_string(), "b".to_string()]);
        s.remove("a");
        assert!(s.read("a").is_none());
    }

    #[test]
    fn crash_image_drops_unfsynced_tail_benignly() {
        // Benign plan: un-synced writes survive intact (no tearing),
        // but ops after the crash point never happened.
        let mut s = MemStorage::new(FaultPlan::benign());
        s.append("f", b"one");
        s.fsync();
        s.append("f", b"two");
        // Crash before the second append: only "one" survives.
        let mut img = s.crash_image(2);
        assert_eq!(img.read("f").unwrap(), b"one");
        // Crash after everything: benign tails survive whole.
        let mut img = s.crash_image(s.ops_len());
        assert_eq!(img.read("f").unwrap(), b"onetwo");
    }

    #[test]
    fn crash_image_is_deterministic_under_faults() {
        let plan = latch_faults::FaultPlan::new(99).with_disk_faults(400, 0, 0, 200);
        let mut s = MemStorage::new(plan);
        for i in 0..20u8 {
            s.append("wal", &[i; 32]);
            if i % 4 == 1 {
                s.put("snap", &vec![i; 16 + usize::from(i)]);
            }
            if i % 4 == 2 {
                let (a, b) = ([i; 5], [i ^ 0xFF; 9]);
                s.patch("slots", 40 + u64::from(i), &[(3, &a[..]), (20, &b[..])]);
            }
            if i % 3 == 0 {
                s.fsync();
            }
        }
        for crash_op in 0..=s.ops_len() {
            for name in ["wal", "snap", "slots"] {
                let a = s.crash_image(crash_op).read(name);
                let b = s.crash_image(crash_op).read(name);
                assert_eq!(
                    a, b,
                    "crash image of {name} at op {crash_op} must be reproducible"
                );
            }
        }
    }

    /// An un-synced put lands whole, or as a prefix of its new bytes
    /// laid over the old file — across seeds, both happen, and the
    /// old file's tail shows through a short tear.
    #[test]
    fn an_unsynced_put_survives_whole_or_as_a_torn_prefix() {
        let old = b"old-old-old-old-old-old!".to_vec();
        let new = b"NEW-bytes".to_vec();
        let (mut whole, mut torn) = (0, 0);
        for seed in 0..64 {
            let plan = FaultPlan::new(seed).with_disk_faults(500, 0, 0, 0);
            let mut s = MemStorage::new(plan);
            s.put("f", &old);
            assert!(s.fsync());
            s.put("f", &new);
            assert_eq!(
                s.read("f").unwrap(),
                new,
                "the live file holds the new bytes"
            );
            let got = s.crash_image(s.ops_len()).read("f").unwrap();
            if got == new {
                whole += 1;
                continue;
            }
            torn += 1;
            let keep = (0..new.len())
                .rev()
                .find(|&k| got[..k] == new[..k])
                .expect("a tear keeps a prefix of the new bytes");
            assert_eq!(
                got.len(),
                old.len(),
                "seed {seed}: the longer old file keeps its length"
            );
            assert_eq!(got[keep..], old[keep..], "seed {seed}: the old tail stands");
        }
        assert!(whole > 0 && torn > 0, "whole {whole}, torn {torn}");
    }

    #[test]
    fn a_synced_put_survives_and_a_failed_fsync_leaves_it_volatile() {
        // Full-rate tearing: only a successful sync can save the put.
        let plan = FaultPlan::new(5).with_disk_faults(1000, 0, 0, 0);
        let mut s = MemStorage::new(plan);
        s.put("f", b"0123456789");
        assert!(s.fsync());
        assert_eq!(s.crash_image(s.ops_len()).read("f").unwrap(), b"0123456789");
        // Every sync fails: the put stays volatile and tears at the
        // crash, to a strict prefix of its bytes (no old file here).
        let plan = FaultPlan::new(5).with_disk_faults(1000, 0, 0, 1000);
        let mut s = MemStorage::new(plan);
        s.put("f", b"0123456789");
        assert!(!s.fsync(), "full-rate fsync failure must report");
        let got = s.crash_image(s.ops_len()).read("f").unwrap();
        assert!(got.len() < 10, "an unsynced put must tear, got {got:?}");
        assert_eq!(&b"0123456789"[..got.len()], &got[..]);
    }

    /// An un-synced patch decides each extent on its own: across seeds
    /// an extent lands whole, tears to a strict prefix laid over the old
    /// bytes, or leaves them standing, and the new length lands or not.
    /// Nothing outside the extents and the length change ever moves.
    #[test]
    fn an_unsynced_patch_survives_whole_torn_or_absent_per_extent() {
        let old = vec![b'o'; 64];
        let (a, b) = (vec![b'A'; 10], vec![b'B'; 12]);
        let extents = [(4, &a[..]), (40, &b[..])];
        let mut seen = [[0usize; 3]; 2];
        let mut lengths = [0usize; 2];
        for seed in 0..96 {
            let plan = FaultPlan::new(seed).with_disk_faults(600, 0, 0, 0);
            let mut s = MemStorage::new(plan);
            s.put("f", &old);
            assert!(s.fsync());
            assert!(s.patch("f", 56, &extents));
            let mut live = old[..56].to_vec();
            live[4..14].copy_from_slice(&a);
            live[40..52].copy_from_slice(&b);
            assert_eq!(s.read("f").unwrap(), live, "the live file holds the patch");
            let got = s.crash_image(s.ops_len()).read("f").unwrap();
            lengths[usize::from(got.len() == 56)] += 1;
            assert!(
                got.len() == 56 || got.len() == 64,
                "seed {seed}: {} bytes",
                got.len()
            );
            for (k, &(at, new)) in extents.iter().enumerate() {
                let at = at as usize;
                let span = &got[at..at + new.len()];
                let keep = span.iter().take_while(|&&c| c == new[0]).count();
                assert!(
                    span[keep..].iter().all(|&c| c == b'o'),
                    "seed {seed}: extent {k}"
                );
                seen[k][match keep {
                    0 => 2,
                    n if n == new.len() => 0,
                    _ => 1,
                }] += 1;
            }
            let outside = got
                .iter()
                .enumerate()
                .filter(|&(i, _)| !(4..14).contains(&i) && !(40..52).contains(&i));
            assert!(outside.into_iter().all(|(_, &c)| c == b'o'), "seed {seed}");
        }
        for (k, outcomes) in seen.iter().enumerate() {
            assert!(outcomes.iter().all(|&n| n > 0), "extent {k}: {outcomes:?}");
        }
        assert!(lengths.iter().all(|&n| n > 0), "{lengths:?}");
    }

    #[test]
    fn a_synced_patch_survives_and_a_failed_fsync_leaves_it_volatile() {
        let bytes = b"0123456789";
        let extents = [(2, &bytes[..4]), (8, &bytes[4..])];
        let want = b"\0\x000123\0\x00456789".to_vec();
        // Full-rate tearing: only a successful sync can save the patch.
        let plan = FaultPlan::new(5).with_disk_faults(1000, 0, 0, 0);
        let mut s = MemStorage::new(plan);
        assert!(s.patch("f", 14, &extents));
        assert!(s.fsync());
        assert_eq!(s.crash_image(s.ops_len()).read("f").unwrap(), want);
        // Every sync fails: the patch stays volatile, and at full-rate
        // tearing neither its last extent nor its length lands whole.
        let plan = FaultPlan::new(5).with_disk_faults(1000, 0, 0, 1000);
        let mut s = MemStorage::new(plan);
        assert!(s.patch("f", 14, &extents));
        assert!(!s.fsync(), "full-rate fsync failure must report");
        let got = s.crash_image(s.ops_len()).read("f").unwrap_or_default();
        assert_ne!(got, want, "an unsynced patch must tear");
        assert!(got.len() < 14, "the new length never landed: {got:?}");
    }

    /// The provided `patch`, for a backend that implements only the
    /// other methods: read the file, lay the extents over it, put it.
    #[test]
    fn the_default_patch_reads_lays_and_puts() {
        struct Plain(MemStorage);
        impl Storage for Plain {
            fn list(&self) -> Vec<String> {
                self.0.list()
            }
            fn read(&mut self, name: &str) -> Option<Vec<u8>> {
                self.0.read(name)
            }
            fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
                self.0.append(name, bytes)
            }
            fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
                self.0.write_atomic(name, bytes)
            }
            fn fsync(&mut self) -> bool {
                self.0.fsync()
            }
            fn remove(&mut self, name: &str) {
                self.0.remove(name);
            }
        }
        let mut plain = Plain(MemStorage::new(FaultPlan::benign()));
        let mut mem = MemStorage::new(FaultPlan::benign());
        for s in [&mut plain as &mut dyn Storage, &mut mem] {
            assert!(s.patch("f", 6, &[(2, b"ab")]));
            assert!(s.patch("f", 12, &[(0, b"x"), (9, b"yz")]));
            assert!(s.patch("f", 4, &[(1, b"q")]));
        }
        assert_eq!(plain.read("f"), mem.read("f"));
        assert_eq!(mem.read("f").unwrap(), b"xqab");
    }

    #[test]
    fn torn_appends_keep_strict_prefixes() {
        let plan = latch_faults::FaultPlan::new(7).with_disk_faults(1000, 0, 0, 0);
        let mut s = MemStorage::new(plan);
        s.append("f", b"0123456789");
        // Never fsynced: at full-rate tearing the tail must shrink.
        let mut img = s.crash_image(s.ops_len());
        let got = img.read("f").unwrap();
        assert!(got.len() < 10, "torn append must lose bytes, got {got:?}");
        assert_eq!(&b"0123456789"[..got.len()], &got[..], "prefix only");
    }

    #[test]
    fn failed_fsync_leaves_writes_volatile() {
        let plan = latch_faults::FaultPlan::new(3).with_disk_faults(1000, 0, 0, 1000);
        let mut s = MemStorage::new(plan);
        s.append("f", b"abcdef");
        assert!(!s.fsync(), "full-rate fsync failure must report");
        // The failed fsync promoted nothing: the append still tears.
        let mut img = s.crash_image(s.ops_len());
        assert!(img.read("f").unwrap().len() < 6);
    }

    #[test]
    fn dir_storage_roundtrip_and_atomic_replace() {
        let dir = std::env::temp_dir().join(format!("latch-serve-storetest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        assert!(s.append("wal-1", b"aa"));
        assert!(s.append("wal-1", b"bb"));
        assert!(s.write_atomic("snap-1", b"v1"));
        assert!(s.write_atomic("snap-1", b"v2"));
        assert!(s.fsync());
        assert_eq!(s.read("wal-1").unwrap(), b"aabb");
        assert_eq!(s.read("snap-1").unwrap(), b"v2");
        assert_eq!(
            s.list(),
            vec!["snap-1".to_string(), "wal-1".to_string()]
        );
        s.remove("wal-1");
        assert!(s.read("wal-1").is_none());
        assert!(s.fsync(), "the removal's directory sync");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_put_creates_and_shrinks_in_place() {
        let dir = std::env::temp_dir().join(format!("latch-serve-put-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        assert!(s.put("snap-1", b"a longer first frame"));
        assert!(s.fsync(), "the creation's directory sync");
        assert!(s.put("snap-1", b"short"));
        assert_eq!(s.read("snap-1").unwrap(), b"short", "no stale tail");
        assert!(s.put("snap-1", b"grown again"));
        assert!(s.fsync());
        assert_eq!(s.read("snap-1").unwrap(), b"grown again");
        // Appends after a put continue from its end.
        assert!(s.put("wal-1", b"hdr"));
        assert!(s.append("wal-1", b"+rec"));
        assert_eq!(s.read("wal-1").unwrap(), b"hdr+rec");
        // No temp file, listed or not.
        let raw: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(raw.iter().all(|n| !n.ends_with(".tmp")), "{raw:?}");
        assert_eq!(s.list(), vec!["snap-1".to_string(), "wal-1".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_patch_creates_extends_and_shrinks_in_place() {
        let dir = std::env::temp_dir().join(format!("latch-serve-patch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        assert!(s.patch("snap-1", 8, &[(2, b"ab")]));
        assert!(s.fsync(), "the creation's directory sync");
        assert_eq!(s.read("snap-1").unwrap(), b"\0\0ab\0\0\0\0");
        assert!(s.patch("snap-1", 12, &[(0, b"x"), (10, b"yz")]));
        assert_eq!(
            s.read("snap-1").unwrap(),
            b"x\0ab\0\0\0\0\0\0yz",
            "extended"
        );
        assert!(s.patch("snap-1", 5, &[(3, b"Q")]));
        assert!(s.fsync());
        assert_eq!(
            s.read("snap-1").unwrap(),
            b"x\0aQ\0",
            "shrunk, no stale tail"
        );
        let raw: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(raw, vec!["snap-1".to_string()], "no temp file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_keeps_a_failed_put_sync_dirty() {
        let dir = std::env::temp_dir().join(format!("latch-serve-putfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        assert!(s.put("snap-1", b"v0"));
        assert!(s.fsync());
        assert!(s.put("snap-1", b"v1"));
        // Deleted behind the store's back: the put can never be
        // synced, so every barrier must keep reporting failure.
        std::fs::remove_file(dir.join("snap-1")).unwrap();
        assert!(!s.fsync());
        assert!(!s.fsync(), "a failed put sync must stay dirty");
        s.remove("snap-1");
        assert!(s.fsync());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_keeps_a_failed_sync_dirty() {
        let dir = std::env::temp_dir().join(format!("latch-serve-syncfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        assert!(s.append("wal-1", b"aa"));
        // Deleted behind the store's back: the appended bytes can never
        // be synced, so every barrier must keep reporting failure.
        std::fs::remove_file(dir.join("wal-1")).unwrap();
        assert!(!s.fsync());
        assert!(
            !s.fsync(),
            "a failed sync must stay dirty for the next barrier"
        );
        // Removing the name through the store drops it from the dirty
        // set (the file is already gone, so nothing else changes).
        s.remove("wal-1");
        assert!(s.fsync());
        // A replace supersedes earlier appends to the same name, so the
        // barrier syncs only the directory and never reopens the file:
        // it succeeds even once the file has vanished behind the store.
        assert!(s.append("snap-1", b"v0"));
        assert!(s.write_atomic("snap-1", b"v1"));
        assert_eq!(s.read("snap-1").unwrap(), b"v1");
        std::fs::remove_file(dir.join("snap-1")).unwrap();
        assert!(s.fsync());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
