//! The storage abstraction under the durability layer.
//!
//! Everything the journal and snapshot store do to disk goes through
//! the [`Storage`] trait: list, whole-file read, append, atomic
//! replace, group fsync, remove. Two backends implement it:
//!
//! * [`DirStorage`] — a real directory. Appends go straight to the
//!   file; atomic replaces write and sync a temp file, then rename it
//!   over the target; fsync syncs every file appended to since its
//!   last sync, and the directory once if a rename, creation or
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

use latch_faults::{FaultInjector, FaultPlan};
use std::collections::BTreeMap;

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
    /// Durably flushes everything written, replaced or removed since
    /// the last successful sync. Returns `false` when the backend
    /// reports the sync failed — callers must assume nothing since the
    /// previous successful sync is durable, and a later call retries.
    fn fsync(&mut self) -> bool;
    /// Deletes a file if present.
    fn remove(&mut self, name: &str);
}

// ---- real directory ------------------------------------------------------

/// [`Storage`] over a real directory.
///
/// A replace writes its temp file and syncs it through the same handle
/// before the rename, so whichever inode the name points at after a
/// crash holds whole contents. Making the rename itself durable is left
/// to the next [`fsync`](Storage::fsync), which syncs the directory
/// once however many names changed, rather than syncing each renamed
/// file again.
pub struct DirStorage {
    root: std::path::PathBuf,
    /// Files appended to since their last successful sync. A name
    /// leaves when it syncs, or when a replace or removal supersedes
    /// what was appended.
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
        let path = self.path(name);
        let mut opts = std::fs::OpenOptions::new();
        opts.append(true);
        // A file the append creates is a new directory entry, which
        // only a directory sync makes durable.
        let file = match opts.open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.dir_dirty = true;
                opts.create(true).open(&path)
            }
            opened => opened,
        };
        let ok = file.and_then(|mut f| f.write_all(bytes)).is_ok();
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
    Replace { name: String, bytes: Vec<u8> },
    Remove { name: String },
    Fsync { reported_ok: bool },
}

/// Deterministic in-memory [`Storage`] with seeded fault injection and
/// kill-anywhere crash images.
pub struct MemStorage {
    plan: FaultPlan,
    inj: FaultInjector,
    /// Logical (post-op) contents, what `read` sees before faults.
    files: BTreeMap<String, Vec<u8>>,
    /// Every mutating op since birth, in execution order.
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
    /// `crash_op` executed: ops `0..crash_op` happened, later ops never
    /// did. Appends and replaces not yet covered by a successful fsync
    /// survive fully, torn (appends keep a seeded strict prefix;
    /// replaces fall back to the old contents), or as decided by the
    /// plan's torn-write stream. The result is a fresh store sharing
    /// the same fault plan, with the op counter advanced past this
    /// store's history so post-crash decisions stay independent.
    #[must_use]
    pub fn crash_image(&self, crash_op: usize) -> MemStorage {
        let crash_op = crash_op.min(self.ops.len());
        let mut inj = FaultInjector::new(self.plan);
        let mut durable: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        // Ops awaiting an fsync: (op_index, what).
        let mut pending: Vec<(u64, &Op)> = Vec::new();
        let apply = |durable: &mut BTreeMap<String, Vec<u8>>, op: &Op| match op {
            Op::Append { name, bytes } => {
                durable.entry(name.clone()).or_default().extend_from_slice(bytes);
            }
            Op::Replace { name, bytes } => {
                durable.insert(name.clone(), bytes.clone());
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
            if i % 3 == 0 {
                s.fsync();
            }
        }
        for crash_op in 0..=s.ops_len() {
            let a = s.crash_image(crash_op).read("wal");
            let b = s.crash_image(crash_op).read("wal");
            assert_eq!(a, b, "crash image at op {crash_op} must be reproducible");
        }
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
