//! Crash-consistent durability for the service.
//!
//! [`DurableService`] wraps a [`Service`] and a [`Storage`] backend so
//! the whole multi-session scheduler survives being killed at any
//! instant:
//!
//! * **Write-ahead journal** — every admitted batch is written to the
//!   session's `wal-*` file *after* admission succeeds, as a
//!   CRC-framed record at the live log's end with an end frame after
//!   it, in one positional write (see [`crate::journal`]). Fsyncs are
//!   batched: one group commit per `group_commit_events` journaled
//!   events. The file never shrinks while the session serves: a cut
//!   rewinds the log in place, so after a session's first cycle its
//!   records overwrite blocks the file already has.
//! * **Checkpoints** — once a session has applied `snapshot_every`
//!   events past its last durable snapshot, the maintenance pass writes
//!   its checksummed frame (see [`crate::store`]) in place over the
//!   generation that does *not* hold the session's newest durable
//!   frame. For each session and generation the service keeps the slot
//!   layout, slot CRCs and page mark of the last frame it landed there
//!   ([`store::SlotFile`]), and patches that frame: only the shadow
//!   pages changed since, the tail and the trailer. It writes the frame
//!   whole when the generation holds no landed frame of the session's
//!   current pipeline (a fresh, restored, recovered or imported one),
//!   when its last write failed or missed its barrier, when a slotted
//!   page left residency, for a frozen session, and at every
//!   [`store::WHOLE_EVERY`]th checkpoint into the generation, so a
//!   clean slot that rotted after it landed spoils at most that many
//!   frames of its generation. One barrier covers
//!   every frame of the pass. Only after it succeeds does the session
//!   keep the new layout, flip its generation, advance its snapshot
//!   mark and cut its journal, by writing the 17-byte header and an end
//!   frame at offset 0; the next group commit makes the cut durable,
//!   and until then recovery skips the records the frame covers. The
//!   records past the new end frame are stale: each ends at or before
//!   the cut point, which a durable frame covers. A failed barrier
//!   lands nothing, so the same generation is written whole next time.
//!   Recovery and import seal a session by the same steps, but cut
//!   with a truncating put, since the journal they cut may hold records
//!   past its live log that no frame covers.
//! * **Recovery** — [`DurableService::recover`] scans the store,
//!   quarantines every corrupt or torn frame with a typed
//!   [`RecoveryError`] (never a panic), restores the newest valid
//!   snapshot per session, replays the journal suffix through the
//!   real pipeline, bumps the session epoch, and seals the result into
//!   the generation its source frame is not in. A clean v3 journal
//!   that nothing follows keeps taking appends in place; any other is
//!   cut. Recovered state is an *exact prefix* of the submitted
//!   stream: re-submitting the un-recovered suffix yields reports
//!   byte-identical to a run that never crashed.
//! * **Drain** — [`DurableService::finish`] trims each journal to its
//!   live log, so a drained directory holds no stale journal bytes.
//!
//! The durability contract deliberately acknowledges bounded loss:
//! events journaled but never covered by a successful fsync may
//! vanish with the page cache. What recovery guarantees is
//! *consistency* — the recovered pipeline equals the uninterrupted
//! pipeline after some prefix of its input, never a corrupted or
//! diverged state — and a *durable floor*: that prefix holds every
//! event a successful fsync covered, whatever the crash tore.

use crate::journal::{self, RecoveryError};
use crate::overload::Priority;
use crate::sched::SnapSource;
use crate::storage::Storage;
use crate::store;
use crate::{Rejected, ServeConfig, Service, ServiceOutcome};
use latch_faults::FaultPlan;
use latch_obs::TraceEvent;
use latch_sim::event::Event;
use latch_systems::session::SessionPipeline;
use std::collections::BTreeMap;

/// Durability tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Journaled events per group-commit fsync. `1` syncs every
    /// append; larger values trade bounded loss for fewer syncs.
    pub group_commit_events: u64,
    /// Applied events between durable snapshots of a session.
    pub snapshot_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            group_commit_events: 256,
            snapshot_every: 2_048,
        }
    }
}

impl DurableConfig {
    fn sanitized(mut self) -> Self {
        self.group_commit_events = self.group_commit_events.max(1);
        self.snapshot_every = self.snapshot_every.max(1);
        self
    }
}

/// Per-session durability bookkeeping.
struct DurState {
    /// Events journaled so far == the next record's `base_seq`.
    journaled: u64,
    /// `applied` covered by the newest durable snapshot.
    snapshotted: u64,
    /// Generation the next checkpoint overwrites: the one that does
    /// not hold the newest durable frame. Flips only once a barrier
    /// has made the frame put there durable.
    next_generation: u8,
    /// Set when the journal cannot take appends: an append failed and
    /// left a gap, or a recovery or import seal still waits for its
    /// journal cut. No further appends make sense until a
    /// durable snapshot covers everything admitted and the journal is
    /// cut clean — by a truncating put, since the file may hold an
    /// unknown tail past its live log.
    needs_resync: bool,
    /// Where the journal's live log ends and how long its file is.
    wal: journal::WalLog,
    /// Per generation, the layout of the last frame landed there from
    /// the session's live pipeline, which the next checkpoint into that
    /// generation patches; `None` writes it whole.
    slots: [Option<store::SlotFile>; 2],
}

impl DurState {
    fn new() -> Self {
        Self {
            journaled: 0,
            snapshotted: 0,
            next_generation: 0,
            needs_resync: false,
            wal: journal::WalLog::default(),
            slots: [None, None],
        }
    }
}

/// A frame written during a pass, waiting on the pass's barrier.
struct Checkpoint {
    session: u64,
    /// Events the frame covers.
    applied: u64,
    /// Whether the journal is cut once the frame is durable.
    cut: bool,
    priority: Priority,
    /// The layout the generation holds once the frame is durable, when
    /// a later checkpoint may patch it.
    slots: Option<store::SlotFile>,
}

/// One session's durable state, packaged for migration to another
/// node. The fields are exactly the on-disk artifacts the recovery
/// scan consumes — the newest valid snapshot-store blob and the raw
/// `wal-*` file bytes — so [`DurableService::import_session`] restores
/// them with the recovery codecs unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionExport {
    /// The session exported.
    pub session: u64,
    /// Its sticky admission class (snapshot frame first, journal
    /// header as fallback — the recovery precedence).
    pub priority: Priority,
    /// The newest valid LTSE pipeline snapshot, or empty when the
    /// session has no durable snapshot yet.
    pub blob: Vec<u8>,
    /// The write-ahead journal's header and live records, with no end
    /// frame and none of the stale bytes past it, or empty when the
    /// session has no journal or its header is unreadable. A backup
    /// seeded from it takes appends right after these bytes.
    pub wal: Vec<u8>,
}

/// Why an import was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportError {
    /// The target already hosts this session; importing would fork its
    /// history.
    Resident {
        /// The colliding session id.
        session: u64,
    },
    /// The shipped snapshot blob did not thaw.
    BadSnapshot,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Resident { session } => {
                write!(f, "session {session} is already resident")
            }
            ImportError::BadSnapshot => f.write_str("migrated snapshot blob did not thaw"),
        }
    }
}

impl std::error::Error for ImportError {}

/// One quarantined frame found during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFrame {
    /// File the frame lived in.
    pub file: String,
    /// Byte offset of the frame within the file.
    pub offset: u64,
    /// Why it was rejected.
    pub error: RecoveryError,
}

/// What recovery restored for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecovery {
    /// Events covered by the snapshot the session restarted from.
    pub snapshot_applied: u64,
    /// Journal events replayed on top of the snapshot.
    pub replayed: u64,
    /// Total events the recovered pipeline has applied
    /// (`snapshot_applied + replayed`) — the exact prefix length.
    pub recovered: u64,
    /// The session's epoch after recovery (bumped once per recovery).
    pub epoch: u64,
}

/// Everything a recovery pass observed.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Per-session recovery results, keyed by session id.
    pub sessions: BTreeMap<u64, SessionRecovery>,
    /// Every corrupt or torn frame, with its typed reason.
    pub quarantined: Vec<QuarantinedFrame>,
}

/// A [`Service`] whose sessions survive process death. See the module
/// docs for the design.
pub struct DurableService<S: Storage> {
    svc: Service,
    storage: S,
    dcfg: DurableConfig,
    sessions: BTreeMap<u64, DurState>,
    /// Journaled events not yet covered by a group-commit fsync.
    unsynced_events: u64,
    /// Journal files dirtied since the last group commit.
    dirty_files: u64,
    /// The service's scrub interval, kept for sessions imported
    /// without a snapshot (they start from a fresh pipeline).
    scrub_interval: u64,
    /// Sessions handed to another node by
    /// [`expel_session`](Self::expel_session): admission refuses them,
    /// maintenance skips them, and the drain outcome omits them —
    /// their history continues on the importer, and a second report
    /// here would double-count it at a cluster drain.
    expelled: std::collections::BTreeSet<u64>,
}

impl<S: Storage> DurableService<S> {
    /// A fresh durable service over an empty (or to-be-overwritten)
    /// store, in deterministic scheduling mode.
    ///
    /// `_plan` is ignored: the service injects no faults of its own
    /// (storage faults come from the `storage` backend's plan). It stays
    /// so existing callers compile.
    pub fn new(cfg: ServeConfig, dcfg: DurableConfig, _plan: FaultPlan, storage: S) -> Self {
        Self {
            svc: Service::deterministic(cfg),
            storage,
            dcfg: dcfg.sanitized(),
            sessions: BTreeMap::new(),
            unsynced_events: 0,
            dirty_files: 0,
            scrub_interval: cfg.scrub_interval,
            expelled: std::collections::BTreeSet::new(),
        }
    }

    /// Submits a batch at [`Priority::Normal`], journaling it if
    /// admitted. See [`submit_with_priority`](Self::submit_with_priority).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and journals nothing) when admission
    /// control refuses the batch.
    pub fn submit(&mut self, session: u64, events: &[Event]) -> Result<(), Rejected> {
        self.submit_with_priority(session, events, Priority::Normal)
    }

    /// Submits a batch at an explicit admission class, journaling it if
    /// admitted. The journal append happens *after* admission so a
    /// rejected submit leaves no orphan records; a crash between
    /// admission and the group commit can lose at most the un-synced
    /// suffix, which the client re-submits after recovery. The class is
    /// sticky (first admission wins) and is persisted in the journal
    /// header and every snapshot frame, so recovery restores it.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and journals nothing) when admission
    /// control refuses the batch — including [`Rejected::Shed`] under
    /// overload pressure.
    pub fn submit_with_priority(
        &mut self,
        session: u64,
        events: &[Event],
        priority: Priority,
    ) -> Result<(), Rejected> {
        // An expelled session's history continues on the node it moved
        // to; admitting here would fork it.
        if self.expelled.contains(&session) {
            return Err(Rejected::ShuttingDown);
        }
        // Encode the journal record *before* admission: a batch that
        // could never be made durable is refused with zero mutation —
        // no admission, no journal bytes, no counters.
        let frame = if events.is_empty() {
            None
        } else {
            let base_seq = self.sessions.get(&session).map_or(0, |s| s.journaled);
            match journal::encode_record(base_seq, events) {
                Ok(frame) => Some(frame),
                Err(journal::JournalError::RecordTooLarge { events, bytes }) => {
                    return Err(Rejected::BatchTooLarge { events, bytes });
                }
            }
        };
        self.svc.submit_with_priority(session, events, priority)?;
        let Some(frame) = frame else {
            return Ok(());
        };
        // The slot exists after a successful admission; its sticky
        // class (not this call's flag) is what must be persisted.
        let priority = self.svc.session_priority(session).unwrap_or(priority);
        let state = self.sessions.entry(session).or_insert_with(DurState::new);
        if !state.needs_resync {
            let log = &mut state.wal;
            match log.append(&mut self.storage, session, priority, &frame) {
                Some(bytes) => {
                    self.unsynced_events += events.len() as u64;
                    self.dirty_files += 1;
                    latch_obs::counter_inc("serve.journal.appends");
                    latch_obs::emit("serve", TraceEvent::JournalAppend { session, bytes });
                }
                None => {
                    // The WAL now has a gap; stop journaling until the
                    // next durable snapshot covers it (maintenance
                    // clears the flag once it has cut the journal).
                    state.needs_resync = true;
                    latch_obs::counter_inc("serve.journal.append_failures");
                }
            }
        }
        // Admission succeeded, so the events count as journal progress
        // even when the bytes were lost: `journaled` tracks base_seq
        // against the *admitted* stream, and `needs_resync` prevents
        // any append from landing after a gap.
        state.journaled += events.len() as u64;
        if self.unsynced_events >= self.dcfg.group_commit_events {
            self.group_commit();
        }
        Ok(())
    }

    /// Syncs everything written since the last successful sync, and
    /// reports whether all of it is now durable.
    fn group_commit(&mut self) -> bool {
        if self.dirty_files == 0 {
            self.unsynced_events = 0;
            return true;
        }
        let failed = !self.storage.fsync();
        if failed {
            latch_obs::counter_inc("serve.fsync.failures");
        }
        latch_obs::emit(
            "serve",
            TraceEvent::Fsync {
                files: self.dirty_files,
                failed,
            },
        );
        // Either way the batch window restarts: a failed sync's bytes
        // stay volatile and are retried by the next group commit
        // (fsync covers everything since the last *successful* sync).
        self.unsynced_events = 0;
        if !failed {
            self.dirty_files = 0;
        }
        !failed
    }

    /// Steps 2 and 3 of every checkpoint. One barrier covers every
    /// frame of `pass`, and every journal write before it. Only once
    /// it succeeds does each session keep the frame's layout for its
    /// generation, flip its generation, advance its snapshot mark and,
    /// where the frame covers everything journaled, cut its journal:
    /// rewound in place, or reset by a truncating put when it needs a
    /// resync. A rewind needs no barrier of its own: until the next
    /// group commit makes it durable, a crash may keep old records, and
    /// the durable frame covers them. Resets get one, because the bytes
    /// a reset cuts off may hold records past a lost one that no frame
    /// covers, and until the truncation is durable an append whose end
    /// frame tears could expose them. A failed barrier lands nothing,
    /// and the generations written in the pass keep no layout, so they
    /// are written whole next time.
    fn land(&mut self, pass: Vec<Checkpoint>) {
        if !self.group_commit() {
            return;
        }
        let mut resets = false;
        for ck in pass {
            let Some(state) = self.sessions.get_mut(&ck.session) else {
                continue;
            };
            state.snapshotted = ck.applied;
            state.slots[usize::from(state.next_generation)] = ck.slots;
            state.next_generation ^= 1;
            if !ck.cut {
                continue;
            }
            let cut = if state.needs_resync {
                resets = true;
                state.wal.reset(&mut self.storage, ck.session, ck.priority)
            } else {
                state.wal.rewind(&mut self.storage, ck.session, ck.priority)
            };
            if cut {
                state.needs_resync = false;
                self.dirty_files += 1;
            } else {
                // The stale journal still stands; keep refusing
                // appends until a later cut lands.
                state.needs_resync = true;
            }
        }
        if resets {
            self.group_commit();
        }
    }

    /// Drives the scheduler until idle, then runs durability
    /// maintenance: a checkpoint for every session that moved
    /// `snapshot_every` events past its last durable frame, one
    /// barrier for all of them (the group commit), and then the
    /// journal cuts those frames allow.
    pub fn pump(&mut self) {
        self.svc.pump();
        self.maintenance();
    }

    fn maintenance(&mut self) {
        let mut pass = Vec::new();
        for session in self.svc.session_ids() {
            // An expelled session's files are deleted; a snapshot here
            // would resurrect them (and stale state) on this node.
            if self.expelled.contains(&session) {
                continue;
            }
            let Some((applied, _epoch)) = self.svc.session_progress(session) else {
                continue;
            };
            let state = self.sessions.entry(session).or_insert_with(DurState::new);
            let due = applied.saturating_sub(state.snapshotted) >= self.dcfg.snapshot_every
                || (state.needs_resync && applied >= state.journaled);
            if !due {
                continue;
            }
            let Some(source) = self.svc.snapshot_source(session) else {
                continue;
            };
            let priority = self.svc.session_priority(session).unwrap_or_default();
            // The generation's layout is taken whatever happens: until
            // this write lands, the file may hold anything.
            let prev = state.slots[usize::from(state.next_generation)].take();
            // A live pipeline patches the frame it last landed in this
            // generation; a frozen one is thawed and written whole.
            let (applied, write, slots) = match source {
                SnapSource::Live(pipe) => {
                    let (write, slots) =
                        store::encode_checkpoint(session, priority, pipe, prev.as_ref());
                    (pipe.applied(), write, Some(slots))
                }
                SnapSource::Encoded(blob) => {
                    let pipe =
                        SessionPipeline::from_snapshot(blob).expect("frozen blob is self-produced");
                    let (write, _) = store::encode_checkpoint(session, priority, &pipe, None);
                    (pipe.applied(), write, None)
                }
            };
            let name = store::snap_name(session, state.next_generation);
            if !write.write_to(&mut self.storage, &name) {
                continue;
            }
            self.dirty_files += 1;
            latch_obs::counter_inc("serve.snapshot.writes");
            if !write.is_whole() {
                latch_obs::counter_inc("serve.snapshot.patches");
            }
            pass.push(Checkpoint {
                session,
                applied,
                cut: applied >= state.journaled,
                priority,
                slots,
            });
        }
        self.land(pass);
    }

    /// Graceful drain: final maintenance pass, each journal trimmed to
    /// its live log, group commit, then the wrapped service's outcome
    /// plus the storage backend. Sessions expelled by
    /// [`expel_session`](Self::expel_session) are omitted — their
    /// importer reports them.
    pub fn finish(mut self) -> (ServiceOutcome, S) {
        self.pump();
        for (&session, state) in &mut self.sessions {
            if state.wal.trim(&mut self.storage, session) {
                self.dirty_files += 1;
            }
        }
        self.group_commit();
        let expelled = std::mem::take(&mut self.expelled);
        let mut outcome = self.svc.finish();
        outcome.sessions.retain(|s, _| !expelled.contains(s));
        (outcome, self.storage)
    }

    /// Simulates being killed: every in-memory structure is dropped on
    /// the floor and only the storage backend survives. Pair with
    /// [`MemStorage::crash_image`](crate::storage::MemStorage::crash_image)
    /// to model torn tails at a chosen operation boundary.
    pub fn crash(self) -> S {
        self.storage
    }

    /// Read-only view of the wrapped service.
    #[must_use]
    pub fn service(&self) -> &Service {
        &self.svc
    }

    /// Rebuilds a service from what survived in `storage`.
    ///
    /// The scan never panics on hostile bytes: every torn, bit-rotted,
    /// truncated, or otherwise malformed frame is quarantined with a
    /// typed [`RecoveryError`] in the report (and a `FrameQuarantined`
    /// trace event), and recovery proceeds with the next-best state —
    /// the other snapshot generation, a shorter journal prefix, or a
    /// fresh session. `_plan` is ignored, as in [`new`](Self::new).
    pub fn recover(
        cfg: ServeConfig,
        dcfg: DurableConfig,
        _plan: FaultPlan,
        mut storage: S,
    ) -> (Self, RecoveryReport) {
        let files = storage.list();
        latch_obs::emit(
            "serve",
            TraceEvent::RecoveryStart {
                files: files.len() as u64,
            },
        );
        latch_obs::counter_inc("serve.recovery.runs");
        let mut report = RecoveryReport::default();
        // Collect every session mentioned by any file.
        let mut session_ids: Vec<u64> = files
            .iter()
            .filter_map(|name| {
                journal::parse_wal_name(name)
                    .or_else(|| store::parse_snap_name(name).map(|(s, _)| s))
            })
            .collect();
        session_ids.sort_unstable();
        session_ids.dedup();

        let mut svc = Service::deterministic(cfg);
        let mut sessions: BTreeMap<u64, DurState> = BTreeMap::new();
        let mut seal = Vec::new();
        for session in session_ids {
            let mut quarantine = |file: String, offset: u64, error: RecoveryError| {
                latch_obs::emit(
                    "serve",
                    TraceEvent::FrameQuarantined {
                        session,
                        offset,
                        reason: error.reason(),
                    },
                );
                latch_obs::counter_inc("serve.recovery.quarantined");
                report.quarantined.push(QuarantinedFrame {
                    file,
                    offset,
                    error,
                });
            };
            // Newest valid snapshot across both generations (by epoch,
            // then applied, as `SnapFrame::newer_than` orders them), each
            // frame thawed once; a frame that decodes but whose pipeline
            // does not thaw is quarantined exactly like a bad frame.
            let mut best: Option<(u8, (u64, u64), Priority, SessionPipeline)> = None;
            for generation in [0u8, 1u8] {
                let name = store::snap_name(session, generation);
                let Some(bytes) = storage.read(&name) else {
                    continue;
                };
                match store::decode_frame(session, &bytes) {
                    Ok(frame) => {
                        let (age, priority) = ((frame.epoch, frame.applied), frame.priority);
                        match frame.thaw() {
                            Ok(pipe) => {
                                if best.as_ref().is_none_or(|b| age > b.1) {
                                    best = Some((generation, age, priority, pipe));
                                }
                            }
                            Err(_) => quarantine(name, 0, RecoveryError::BadSnapshot),
                        }
                    }
                    Err(err) => quarantine(name, 0, err),
                }
            }
            let (source, snapshot_applied, frame_priority, mut pipe) = match best {
                Some((generation, (_, applied), priority, pipe)) => {
                    (Some(generation), applied, Some(priority), pipe)
                }
                None => (None, 0, None, SessionPipeline::new(cfg.scrub_interval)),
            };
            debug_assert_eq!(pipe.applied(), snapshot_applied);

            // Replay the journal suffix on top of the snapshot. The
            // scan stops at the first corruption or at the end frame;
            // records the snapshot already covers are skipped
            // (straddlers partially). `clean` stays set while the
            // journal is a v3 log that reads to its end frame or to the
            // file's end with no quarantine and no gap, and nothing
            // follows its live log: only a crash leaves records past
            // the end frame that continue the recovered prefix (a later
            // un-synced append landed and an earlier one did not), and
            // an end frame written over the live log after recovery
            // could tear and expose them.
            let mut replayed = 0u64;
            let mut wal_priority = None;
            let (mut has_wal, mut clean) = (false, true);
            let mut log = journal::WalLog::default();
            let wal = journal::wal_name(session);
            if let Some(bytes) = storage.read(&wal) {
                has_wal = true;
                let scan = journal::scan_wal(session, &bytes);
                wal_priority = scan.priority;
                if let Some((offset, err)) = scan.quarantined {
                    quarantine(wal.clone(), offset, err);
                    clean = false;
                }
                clean &= scan.version == journal::WAL_VERSION && scan.ends_the_file(bytes.len());
                log = journal::WalLog {
                    end: scan.end,
                    len: bytes.len() as u64,
                };
                for rec in scan.records {
                    let end = rec.base_seq + rec.events.len() as u64;
                    if end <= pipe.applied() {
                        continue; // fully covered by the snapshot
                    }
                    if rec.base_seq > pipe.applied() {
                        // A gap (lost record): nothing after it can be
                        // applied without breaking event order.
                        clean = false;
                        break;
                    }
                    let skip = (pipe.applied() - rec.base_seq) as usize;
                    for ev in &rec.events[skip..] {
                        pipe.apply(ev);
                        replayed += 1;
                    }
                }
            }

            // Seal the recovery: new epoch, and a fresh frame of the
            // recovered state put into the generation the source frame
            // is not in, so a torn seal costs only the seal. The sticky
            // admission class comes from the newest valid snapshot
            // frame, falling back to the journal header (written at
            // first admission) and only then to the default — a
            // Critical session must not silently become sheddable
            // across a crash.
            let priority = frame_priority.or(wal_priority).unwrap_or_default();
            pipe.bump_epoch();
            let epoch = pipe.epoch();
            let recovered = pipe.applied();
            // A clean journal with this class in its header keeps
            // taking appends from `recovered` on, in place at its live
            // log's end; any other is cut by a truncating put once the
            // seal is durable, and takes none until then — appending
            // after a torn tail or a gap would strand the new records
            // behind it.
            let cut = has_wal && !(clean && wal_priority == Some(priority));
            let generation = source.map_or(0, |g| 1 - g);
            // The recovered pipeline is frozen below, so the seal's
            // layout would vouch for no later pipeline: it is whole.
            let (frame, _) = store::encode_checkpoint(session, priority, &pipe, None);
            if frame.write_to(&mut storage, &store::snap_name(session, generation)) {
                seal.push(Checkpoint {
                    session,
                    applied: recovered,
                    cut,
                    priority,
                    slots: None,
                });
            }
            sessions.insert(
                session,
                DurState {
                    journaled: recovered,
                    snapshotted: snapshot_applied,
                    next_generation: generation,
                    needs_resync: cut,
                    wal: log,
                    slots: [None, None],
                },
            );
            svc.preload_session(session, pipe.to_snapshot(), recovered, epoch, priority);
            report.sessions.insert(
                session,
                SessionRecovery {
                    snapshot_applied,
                    replayed,
                    recovered,
                    epoch,
                },
            );
        }
        let mut durable = Self {
            svc,
            storage,
            dcfg: dcfg.sanitized(),
            sessions,
            unsynced_events: 0,
            dirty_files: seal.len() as u64,
            scrub_interval: cfg.scrub_interval,
            expelled: std::collections::BTreeSet::new(),
        };
        durable.land(seal);
        (durable, report)
    }

    /// The scrub interval every session pipeline here runs with —
    /// needed to thaw exports after this service is consumed.
    pub fn scrub_interval(&self) -> u64 {
        self.scrub_interval
    }

    /// Surveys every live (non-expelled) session at a quiescent point:
    /// `(session, applied, rank)` sorted by session id. Runs a full
    /// pump + group commit first so `applied` counts everything ever
    /// admitted — the state an adopting router rebuilds its routes
    /// from.
    pub fn survey_sessions(&mut self) -> Vec<(u64, u64, u8)> {
        self.pump();
        self.group_commit();
        let mut out = Vec::new();
        for session in self.svc.session_ids() {
            if self.expelled.contains(&session) {
                continue;
            }
            let Some((applied, _epoch)) = self.svc.session_progress(session) else {
                continue;
            };
            let rank = self
                .svc
                .session_priority(session)
                .unwrap_or_default()
                .rank();
            out.push((session, applied, rank));
        }
        out
    }

    /// Packages one session's durable state for migration. Runs a full
    /// pump + group commit first, so on a benign storage backend the
    /// export covers every admitted event (snapshot + journal suffix);
    /// under disk faults it covers the same exact prefix recovery
    /// would restore. `None` when the session left no files.
    pub fn export_session(&mut self, session: u64) -> Option<SessionExport> {
        self.pump();
        self.group_commit();
        export_session_from(&mut self.storage, session)
    }

    /// [`export_session`](Self::export_session) plus a one-way handoff:
    /// the session's durable files are deleted, later submits answer
    /// [`Rejected::ShuttingDown`], and the drain outcome omits it — the
    /// live-rebalance cut-point on the old owner. A resident session
    /// with no durable files yet (nothing ever admitted) exports empty
    /// state so the importer starts it fresh. `None` when this node
    /// never saw the session (nothing is marked).
    pub fn expel_session(&mut self, session: u64) -> Option<SessionExport> {
        let resident = self.svc.session_progress(session).is_some();
        let export = self.export_session(session);
        if export.is_none() && !resident {
            return None;
        }
        self.expelled.insert(session);
        self.sessions.remove(&session);
        self.storage.remove(&journal::wal_name(session));
        self.storage.remove(&store::snap_name(session, 0));
        self.storage.remove(&store::snap_name(session, 1));
        latch_obs::counter_inc("serve.repl.expels");
        Some(export.unwrap_or_else(|| SessionExport {
            session,
            priority: self.svc.session_priority(session).unwrap_or_default(),
            blob: Vec::new(),
            wal: Vec::new(),
        }))
    }

    /// Adopts a migrated session shipped by
    /// [`export_session`](Self::export_session) (possibly taken from a
    /// dead node's surviving storage via [`export_sessions`]): thaws
    /// the snapshot, replays the journal suffix through the recovery
    /// scan, bumps the epoch, seals a fresh durable snapshot + clean
    /// journal locally, and preloads the session into the scheduler.
    /// Returns the events the restored pipeline has applied — the
    /// exact prefix length the new owner now serves.
    ///
    /// # Errors
    ///
    /// [`ImportError::Resident`] when the session already lives here
    /// (importing would fork its history), [`ImportError::BadSnapshot`]
    /// when the blob does not thaw.
    pub fn import_session(
        &mut self,
        session: u64,
        priority: Priority,
        blob: &[u8],
        wal: &[u8],
    ) -> Result<u64, ImportError> {
        if self.svc.session_progress(session).is_some() {
            return Err(ImportError::Resident { session });
        }
        let mut pipe = thaw_export(session, self.scrub_interval, blob, wal)?;
        // Seal locally like recovery: new epoch (so this node's frames
        // dominate any stale copy), a fresh frame, and once it is
        // durable a clean journal. The source frame lives on another
        // node, so neither local generation holds it: the seal takes
        // generation 0, and appends wait for the cut.
        pipe.bump_epoch();
        let epoch = pipe.epoch();
        let applied = pipe.applied();
        let (frame, _) = store::encode_checkpoint(session, priority, &pipe, None);
        let mut pass = Vec::new();
        if frame.write_to(&mut self.storage, &store::snap_name(session, 0)) {
            self.dirty_files += 1;
            pass.push(Checkpoint {
                session,
                applied,
                cut: true,
                priority,
                slots: None,
            });
        }
        self.sessions.insert(
            session,
            DurState {
                journaled: applied,
                needs_resync: true,
                ..DurState::new()
            },
        );
        self.land(pass);
        self.svc
            .preload_session(session, pipe.to_snapshot(), applied, epoch, priority);
        latch_obs::counter_inc("serve.migrate.imports");
        Ok(applied)
    }
}

/// Restores a shipped [`SessionExport`] to a live pipeline: thaw the
/// LTSE blob (or start fresh when it is empty) and replay the WAL
/// suffix with the recovery scan's exact-prefix discipline — skip
/// records the snapshot covers, stop at the first gap or corruption.
///
/// # Errors
///
/// [`ImportError::BadSnapshot`] when the blob does not thaw.
pub fn thaw_export(
    session: u64,
    scrub_interval: u64,
    blob: &[u8],
    wal: &[u8],
) -> Result<SessionPipeline, ImportError> {
    let mut pipe = if blob.is_empty() {
        SessionPipeline::new(scrub_interval)
    } else {
        SessionPipeline::from_snapshot(blob).map_err(|_| ImportError::BadSnapshot)?
    };
    if !wal.is_empty() {
        let scan = journal::scan_wal(session, wal);
        for rec in scan.records {
            let end = rec.base_seq + rec.events.len() as u64;
            if end <= pipe.applied() {
                continue;
            }
            if rec.base_seq > pipe.applied() {
                break;
            }
            let skip = (pipe.applied() - rec.base_seq) as usize;
            for ev in &rec.events[skip..] {
                pipe.apply(ev);
            }
        }
    }
    Ok(pipe)
}

/// Reads one session's durable artifacts straight off a storage
/// backend — the path used when the owning process is dead and only
/// its disk survives. Picks the newest snapshot generation whose frame
/// decodes *and* whose pipeline thaws (the recovery criterion), and
/// ships its LTSE blob — a v3 frame's thawed pipeline re-encoded — with
/// the journal's header and live records alongside, up to the first
/// end frame or corruption. `None` when no file mentions the session.
pub fn export_session_from<S: Storage>(storage: &mut S, session: u64) -> Option<SessionExport> {
    // (epoch and applied, priority, LTSE blob) of the newest frame that
    // thaws; a frame no newer than it is not thawed at all.
    let mut best: Option<((u64, u64), Priority, Vec<u8>)> = None;
    for generation in [0u8, 1u8] {
        let Some(bytes) = storage.read(&store::snap_name(session, generation)) else {
            continue;
        };
        let Ok(frame) = store::decode_frame(session, &bytes) else {
            continue;
        };
        let (age, priority) = ((frame.epoch, frame.applied), frame.priority);
        if best.as_ref().is_some_and(|b| age <= b.0) {
            continue;
        }
        let blob = match frame.body {
            store::FrameBody::Blob(blob) => SessionPipeline::from_snapshot(&blob).map(|_| blob),
            store::FrameBody::Slotted { .. } => frame.thaw().map(|pipe| pipe.to_snapshot()),
        };
        if let Ok(blob) = blob {
            best = Some((age, priority, blob));
        }
    }
    let wal = storage.read(&journal::wal_name(session));
    if best.is_none() && wal.is_none() {
        return None;
    }
    // Stale bytes past the live log would sit between the shipped
    // records and a backup's later appends, and hide those from its
    // scan.
    let (wal, wal_priority) = match wal {
        Some(mut bytes) => {
            let scan = journal::scan_wal(session, &bytes);
            bytes.truncate(scan.end as usize);
            (bytes, scan.priority)
        }
        None => (Vec::new(), None),
    };
    let (blob, frame_priority) = match best {
        Some((_, priority, blob)) => (blob, Some(priority)),
        None => (Vec::new(), None),
    };
    Some(SessionExport {
        session,
        priority: frame_priority.or(wal_priority).unwrap_or_default(),
        blob,
        wal,
    })
}

/// [`export_session_from`] for every session any file mentions, sorted
/// by session id.
pub fn export_sessions<S: Storage>(storage: &mut S) -> Vec<SessionExport> {
    let mut ids: Vec<u64> = storage
        .list()
        .iter()
        .filter_map(|name| {
            journal::parse_wal_name(name).or_else(|| store::parse_snap_name(name).map(|(s, _)| s))
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .filter_map(|session| export_session_from(storage, session))
        .collect()
}
