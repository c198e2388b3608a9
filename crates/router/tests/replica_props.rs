//! Replication-layer properties.
//!
//! Two contracts, checked without sockets:
//!
//! 1. **Byte-prefix invariant** — however pushes are chunked, dropped,
//!    torn, or reseeded, a backup's [`ReplicaStore`] journal is always
//!    a byte-prefix of the primary's logical WAL stream, its
//!    `journaled` count always matches the record boundary at its
//!    length, and a gap (a dropped frame) is *refused* — never
//!    silently absorbed into a diverged journal.
//! 2. **Replica-group placement** — `Ring::owners` is pure in
//!    `(seed, membership, session)`, and a join or leave changes each
//!    session's group *minimally*: the surviving members keep their
//!    order and new members only ever append at the tail.

use latch_replica::{ReplicaError, ReplicaStore};
use latch_router::Ring;
use latch_serve::{journal, Priority};
use latch_sim::event::{Event, EventSource};
use latch_workloads::all_profiles;
use proptest::prelude::*;

const SESSION: u64 = 42;
const RANK: u8 = 1;

fn pool(seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[0].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

/// The primary's logical (never-cut) stream: WAL bytes plus the
/// `(offset, journaled)` record boundaries — the same bookkeeping the
/// router keeps per session.
struct Primary {
    wal: Vec<u8>,
    marks: Vec<(usize, u64)>,
    journaled: u64,
}

impl Primary {
    fn new() -> Self {
        let header = journal::wal_header(SESSION, Priority::from_rank(RANK).unwrap_or_default());
        let len = header.len();
        Self {
            wal: header,
            marks: vec![(len, 0)],
            journaled: 0,
        }
    }

    fn append(&mut self, events: &[Event]) {
        let record = journal::encode_record(self.journaled, events).expect("encodable batch");
        self.wal.extend_from_slice(&record);
        self.journaled += events.len() as u64;
        self.marks.push((self.wal.len(), self.journaled));
    }

    /// Events covered at byte offset `off` — the journaled count valid
    /// at the last record boundary at-or-before it.
    fn journaled_at(&self, off: usize) -> u64 {
        match self.marks.partition_point(|&(o, _)| o <= off) {
            0 => 0,
            i => self.marks[i - 1].1,
        }
    }
}

/// The invariant: whatever happened on the wire, the backup holds a
/// byte-prefix of the primary stream with a boundary-consistent count.
fn assert_prefix(store: &ReplicaStore, primary: &Primary) {
    let Some(j) = store.get(SESSION) else {
        return;
    };
    assert!(
        j.wal.len() <= primary.wal.len(),
        "backup journal longer than the primary stream"
    );
    assert_eq!(
        j.wal[..],
        primary.wal[..j.wal.len()],
        "backup journal diverged from the primary stream"
    );
    assert_eq!(
        j.journaled,
        primary.journaled_at(j.wal.len()),
        "backup journaled count off its record boundary"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary batch sizes, chunk sizes, and per-frame drops: every
    /// accepted frame keeps the backup a byte-prefix of the primary,
    /// every frame after a drop is refused as a gap, and a reseed
    /// re-converges the backup to the full stream.
    #[test]
    fn backup_journal_is_always_a_byte_prefix(
        seed in 0u64..100_000,
        batches in proptest::collection::vec(1usize..24, 1..12),
        chunks in proptest::collection::vec((1usize..96, any::<bool>()), 1..64),
    ) {
        let events = pool(seed, batches.iter().map(|&b| b as u64).sum());
        let mut primary = Primary::new();
        let mut store = ReplicaStore::new();
        let mut schedule = chunks.iter().copied().cycle();
        let mut pos = 0usize;
        // Seed the backup with the bare header so appends have a base.
        store.seed(SESSION, RANK, 0, Vec::new(), primary.wal.clone());
        assert_prefix(&store, &primary);

        for &batch in &batches {
            primary.append(&events[pos..pos + batch]);
            pos += batch;
            // Push the new suffix in arbitrary chunks, dropping some
            // frames mid-flight.
            let mut dropped = false;
            let mut off = store.get(SESSION).map_or(0, |j| j.wal.len());
            while off < primary.wal.len() {
                let (chunk, drop) = schedule.next().expect("cyclic schedule");
                let end = primary.wal.len().min(off + chunk);
                let journaled = primary.journaled_at(end);
                if drop && !dropped {
                    // The frame is lost on the wire: the backup never
                    // sees it, and every later in-order frame must be
                    // refused as a gap, leaving the journal untouched.
                    dropped = true;
                } else if dropped {
                    let before = store.get(SESSION).map(|j| j.wal.len());
                    let err = store
                        .append(SESSION, RANK, off as u64, journaled, &primary.wal[off..end])
                        .expect_err("a post-drop frame must be refused");
                    assert!(matches!(err, ReplicaError::Gap { .. }), "got {err:?}");
                    assert_eq!(
                        store.get(SESSION).map(|j| j.wal.len()),
                        before,
                        "a refused frame mutated the journal"
                    );
                } else {
                    store
                        .append(SESSION, RANK, off as u64, journaled, &primary.wal[off..end])
                        .expect("in-order frame");
                }
                assert_prefix(&store, &primary);
                off = end;
            }
            if dropped {
                // The router's recovery: reseed from zero. Afterwards
                // the backup is exactly current again.
                store.seed(SESSION, RANK, primary.journaled, Vec::new(), primary.wal.clone());
            }
            assert_prefix(&store, &primary);
            let j = store.get(SESSION).expect("seeded journal");
            assert_eq!(j.wal.len(), primary.wal.len(), "backup not current after push");
            assert_eq!(j.journaled, primary.journaled);
        }
    }

    /// A torn push (frames stop partway through a chunk sequence)
    /// leaves the backup on a *conservative* record boundary: its
    /// journaled count never exceeds the events actually decodable
    /// from its bytes.
    #[test]
    fn torn_push_never_overcounts(
        seed in 0u64..100_000,
        batch in 4usize..32,
        cut in 1usize..64,
    ) {
        let events = pool(seed, batch as u64);
        let mut primary = Primary::new();
        let mut store = ReplicaStore::new();
        store.seed(SESSION, RANK, 0, Vec::new(), primary.wal.clone());
        primary.append(&events);
        // Push only a prefix of the new record, then stop (the torn
        // push): the chunk's journaled count is the boundary at its
        // end byte, which for a mid-record cut is the *previous*
        // boundary.
        let start = store.get(SESSION).expect("seeded").wal.len();
        let end = primary.wal.len().min(start + cut);
        let journaled = primary.journaled_at(end);
        store
            .append(SESSION, RANK, start as u64, journaled, &primary.wal[start..end])
            .expect("torn chunk");
        assert_prefix(&store, &primary);
        let j = store.get(SESSION).expect("journal");
        if end < primary.wal.len() {
            assert_eq!(j.journaled, 0, "mid-record cut must report the prior boundary");
        } else {
            assert_eq!(j.journaled, primary.journaled);
        }
    }

    /// `Ring::owners` is deterministic in (seed, membership, session)
    /// regardless of insertion order, and `owners(s, 1)` is `owner(s)`.
    #[test]
    fn replica_groups_are_deterministic(
        seed in 0u64..100_000,
        vnodes in 1u32..64,
        node_count in 1u32..8,
        r in 1usize..4,
    ) {
        let nodes: Vec<u32> = (0..node_count).map(|i| i * 7 + 1).collect();
        let mut a = Ring::new(seed, vnodes);
        for &n in &nodes {
            a.add_node(n);
        }
        let mut b = Ring::new(seed, vnodes);
        for &n in nodes.iter().rev() {
            b.add_node(n);
        }
        for s in 0..256u64 {
            let ga = a.owners(s, r);
            prop_assert_eq!(&ga, &b.owners(s, r));
            prop_assert_eq!(ga.len(), r.min(nodes.len()));
            prop_assert_eq!(ga[0], a.owner(s).expect("non-empty"));
            let distinct: std::collections::BTreeSet<u32> = ga.iter().copied().collect();
            prop_assert_eq!(distinct.len(), ga.len(), "group repeated a node");
        }
    }

    /// Minimal remap, lifted to groups: removing one node keeps every
    /// group's surviving members in order and only ever appends the
    /// next distinct nodes at the tail — and (read in reverse) a join
    /// only inserts the joiner, never reshuffling survivors.
    #[test]
    fn leave_remaps_groups_minimally(
        seed in 0u64..100_000,
        vnodes in 1u32..64,
        node_count in 2u32..8,
        r in 1usize..4,
        victim_idx in 0u32..8,
    ) {
        let nodes: Vec<u32> = (0..node_count).map(|i| i * 3 + 2).collect();
        let victim = nodes[(victim_idx % node_count) as usize];
        let mut before = Ring::new(seed, vnodes);
        for &n in &nodes {
            before.add_node(n);
        }
        let mut after = before.clone();
        after.remove_node(victim);
        for s in 0..256u64 {
            let g0 = before.owners(s, r);
            let g1 = after.owners(s, r);
            prop_assert_eq!(g1.len(), r.min(nodes.len() - 1));
            // Survivors keep their relative order as a prefix of the
            // new group; replacements appear only at the tail.
            let survivors: Vec<u32> = g0.iter().copied().filter(|&n| n != victim).collect();
            prop_assert!(
                g1.len() >= survivors.len() || survivors.starts_with(&g1),
                "group shrank below its survivors: {:?} -> {:?}",
                g0,
                g1
            );
            let keep = survivors.len().min(g1.len());
            prop_assert_eq!(
                &g1[..keep],
                &survivors[..keep],
                "a leave reshuffled surviving group members"
            );
        }
    }
}
