//! Session replication primitives.
//!
//! A replica group is the first R distinct owners of a session on the
//! seeded ring. The owner journals every admitted batch to its own
//! WAL, and the router appends the same encoded WAL record to each
//! backup *before* acking the client. Each backup keeps a
//! [`ReplicaJournal`]: the owner state it was seeded from (a snapshot
//! blob plus WAL bytes), followed by the acked records appended since.
//! A journal is seeded whole (the router stages it as chunks and
//! commits it into the backup store) and then grows by appends. On
//! failover the freshest backup journal feeds the ordinary §13
//! recovery scan, so losing a machine *and its disk* loses nothing
//! that was ever acked.
//!
//! Appends speak byte offsets, not record indices: an append names the
//! exact `wal_off` its bytes belong at, so an oversized record can be
//! split at arbitrary byte boundaries and a torn tail (failover between
//! chunks) degrades to exactly what the recovery scan already tolerates
//! — a quarantined partial record and an exact-prefix restore. The
//! `journaled` event counter carried alongside is the events covered by
//! the buffer *up to the last record boundary*.
//!
//! This crate is deliberately dependency-light (only `latch-obs`): the
//! wire frames live in `latch-proto`, the WAL codec in `latch-serve`,
//! and the placement/push logic in `latch-router`. Here lives the pure
//! journal state machine and its typed error surface, which is what the
//! byte-prefix property is proved against.

use std::collections::BTreeMap;

use latch_obs::counter_inc;

/// Typed replication failures. `Gap` and `Unseeded` are the lag errors
/// the router reacts to by reseeding the backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaError {
    /// An append frame's `wal_off` did not match the backup's buffer
    /// length: the backup missed (or already has) some bytes.
    Gap { session: u64, expected: u64, got: u64 },
    /// A frame would move the journaled event counter backwards — an
    /// out-of-order or replayed push.
    Stale { session: u64, have: u64, got: u64 },
    /// An append frame arrived for a session this store has never been
    /// seeded for: without the seed the buffer would lack the WAL
    /// header and could never pass a recovery scan.
    Unseeded { session: u64 },
}

impl ReplicaError {
    /// Short stable identifier, used in counters and error frames.
    pub fn reason(&self) -> &'static str {
        match self {
            ReplicaError::Gap { .. } => "gap",
            ReplicaError::Stale { .. } => "stale",
            ReplicaError::Unseeded { .. } => "unseeded",
        }
    }
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Gap { session, expected, got } => write!(
                f,
                "replica gap on session {session:#x}: buffer at byte {expected}, frame at {got}"
            ),
            ReplicaError::Stale { session, have, got } => write!(
                f,
                "stale replica frame on session {session:#x}: journaled {have} events, frame covers {got}"
            ),
            ReplicaError::Unseeded { session } => {
                write!(f, "append to unseeded replica journal for session {session:#x}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// One session's backup state: a snapshot blob plus the WAL bytes that
/// follow it. `wal` always starts with a WAL header for the session:
/// it is the WAL of the owner state the journal was seeded from, then
/// the acked records appended since.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaJournal {
    pub session: u64,
    /// Sticky priority rank, carried so a diskless import preserves the
    /// session's class.
    pub rank: u8,
    /// Events covered by `blob` + `wal` up to the last complete record
    /// — the exact prefix a recovery scan of this journal restores.
    pub journaled: u64,
    /// LTSE snapshot blob the WAL bytes replay on top of (may be empty
    /// when the whole history lives in `wal`).
    pub blob: Vec<u8>,
    /// WAL header + record bytes, append-only between seeds.
    pub wal: Vec<u8>,
}

impl ReplicaJournal {
    /// Appends bytes at `wal_off`, which must equal the current buffer
    /// length (else [`ReplicaError::Gap`]); the new `journaled` must
    /// not regress (else [`ReplicaError::Stale`]).
    ///
    /// On error the journal is untouched, so a lagging backup keeps its
    /// last consistent prefix until the router reseeds it.
    pub fn append(
        &mut self,
        rank: u8,
        wal_off: u64,
        journaled: u64,
        wal: &[u8],
    ) -> Result<u64, ReplicaError> {
        if wal_off != self.wal.len() as u64 {
            counter_inc("replica.gaps");
            return Err(ReplicaError::Gap {
                session: self.session,
                expected: self.wal.len() as u64,
                got: wal_off,
            });
        }
        if journaled < self.journaled {
            counter_inc("replica.stale");
            return Err(ReplicaError::Stale {
                session: self.session,
                have: self.journaled,
                got: journaled,
            });
        }
        self.rank = rank;
        self.wal.extend_from_slice(wal);
        self.journaled = journaled;
        counter_inc("replica.frames");
        Ok(self.journaled)
    }
}

/// All backup journals held by one node, keyed by session. `BTreeMap`
/// so iteration (and thus any derived history) is deterministic.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    sessions: BTreeMap<u64, ReplicaJournal>,
}

impl ReplicaStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a whole journal (a seed or reseed: `blob`/`wal` are
    /// the full state so far and `journaled` the events covered),
    /// replacing any earlier one. Returns `journaled`.
    pub fn seed(
        &mut self,
        session: u64,
        rank: u8,
        journaled: u64,
        blob: Vec<u8>,
        wal: Vec<u8>,
    ) -> u64 {
        counter_inc("replica.seeds");
        let journal = ReplicaJournal {
            session,
            rank,
            journaled,
            blob,
            wal,
        };
        self.sessions.insert(session, journal);
        journaled
    }

    /// Appends to a seeded journal (see [`ReplicaJournal::append`]).
    /// Appends to a session this store has never been seeded for answer
    /// [`ReplicaError::Unseeded`] so the router reseeds.
    pub fn append(
        &mut self,
        session: u64,
        rank: u8,
        wal_off: u64,
        journaled: u64,
        wal: &[u8],
    ) -> Result<u64, ReplicaError> {
        match self.sessions.get_mut(&session) {
            Some(journal) => journal.append(rank, wal_off, journaled, wal),
            None => {
                counter_inc("replica.unseeded");
                Err(ReplicaError::Unseeded { session })
            }
        }
    }

    pub fn get(&self, session: u64) -> Option<&ReplicaJournal> {
        self.sessions.get(&session)
    }

    pub fn remove(&mut self, session: u64) -> Option<ReplicaJournal> {
        self.sessions.remove(&session)
    }

    pub fn sessions(&self) -> impl Iterator<Item = u64> + '_ {
        self.sessions.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_rejects_append() {
        let mut store = ReplicaStore::new();
        let err = store.append(7, 0, 0, 4, b"rec").unwrap_err();
        assert_eq!(err, ReplicaError::Unseeded { session: 7 });
        assert!(store.is_empty(), "failed first contact must not leave a placeholder");
    }

    #[test]
    fn seed_then_appends_build_prefix() {
        let mut store = ReplicaStore::new();
        store.seed(9, 1, 2, b"BLOB".to_vec(), b"HDR|r0|r1".to_vec());
        store.append(9, 1, 9, 3, b"|r2").unwrap();
        store.append(9, 1, 12, 5, b"|r3r4").unwrap();
        let j = store.get(9).unwrap();
        assert_eq!(j.journaled, 5);
        assert_eq!(j.blob, b"BLOB");
        assert_eq!(j.wal, b"HDR|r0|r1|r2|r3r4");
        assert_eq!(j.rank, 1);
    }

    #[test]
    fn mid_record_chunks_keep_journaled_at_boundary() {
        let mut store = ReplicaStore::new();
        store.seed(2, 0, 0, Vec::new(), b"HDR".to_vec());
        // One logical record split across two byte chunks: the first
        // half keeps the boundary count, the second half advances it.
        store.append(2, 0, 3, 0, b"|half-a").unwrap();
        store.append(2, 0, 10, 6, b"|half-b").unwrap();
        let j = store.get(2).unwrap();
        assert_eq!(j.journaled, 6);
        assert_eq!(j.wal, b"HDR|half-a|half-b");
    }

    #[test]
    fn gap_and_stale_leave_journal_untouched() {
        let mut store = ReplicaStore::new();
        store.seed(3, 0, 4, b"B".to_vec(), b"WAL4".to_vec());
        let before = store.get(3).unwrap().clone();
        assert_eq!(
            store.append(3, 0, 9, 8, b"x"),
            Err(ReplicaError::Gap { session: 3, expected: 4, got: 9 })
        );
        assert_eq!(
            store.append(3, 0, 4, 2, b"x"),
            Err(ReplicaError::Stale { session: 3, have: 4, got: 2 })
        );
        assert_eq!(store.get(3).unwrap(), &before);
    }

    #[test]
    fn seed_replaces_wholesale() {
        let mut store = ReplicaStore::new();
        store.seed(5, 0, 2, b"A".to_vec(), b"W1".to_vec());
        store.seed(5, 2, 9, b"B".to_vec(), b"W2".to_vec());
        let j = store.get(5).unwrap();
        assert_eq!((j.journaled, j.rank), (9, 2));
        assert_eq!((j.blob.as_slice(), j.wal.as_slice()), (&b"B"[..], &b"W2"[..]));
    }
}
