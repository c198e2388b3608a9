//! The typed trace-event taxonomy.
//!
//! Every observable transition in the pipeline is one variant of
//! [`TraceEvent`]. Events are plain `Copy` structs of integers and
//! `&'static str` labels: recording one never formats or allocates, so
//! emission stays cheap when the `enabled` feature is on and compiles
//! away entirely when it is off.

/// One observable transition, recorded into a per-track ring buffer.
///
/// Events carry only the payload needed to reconstruct *when* and *why*
/// something happened; aggregate magnitudes live in the metrics
/// registry. Ordering is guaranteed **within a track** (one emitting
/// component), never across tracks — cross-thread interleaving is
/// timing-dependent and deliberately not represented in the
/// deterministic snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// S-LATCH switched checking tier (hardware ⇄ software).
    ModeTransition {
        /// Instructions retired in the mode being left.
        instrs_in_mode: u64,
        /// Mode being left.
        from: &'static str,
        /// Mode being entered.
        to: &'static str,
        /// What forced the switch (`"trap"`, `"timeout"`, `"forced"`).
        reason: &'static str,
    },
    /// The CTC missed and filled a CTT word.
    CtcMiss {
        /// The CTT word index that was fetched.
        word: u32,
    },
    /// The CTC evicted a resident line.
    CtcEvict {
        /// The CTT word index that was displaced.
        word: u32,
        /// Whether pending clear bits forced a shadow scan on eviction.
        clear_scan: bool,
    },
    /// A CTT word changed value (domain bits set or cleared).
    CttWordFlip {
        /// The CTT word index.
        word: u32,
        /// Word value before the store.
        before: u32,
        /// Word value after the store.
        after: u32,
    },
    /// A page's TLB taint bit was (re)derived.
    TlbTaintBit {
        /// The page number.
        page: u32,
        /// The new value of the page taint bit.
        set: bool,
    },
    /// The taint register file spilled/loaded a packed snapshot.
    TrfSpill {
        /// Number of live taint bits in the packed word.
        live_bits: u32,
    },
    /// A bounded FIFO reached a new occupancy high-water mark.
    FifoDepth {
        /// Which queue (e.g. `"platch.queue"`).
        queue: &'static str,
        /// The new high-water occupancy.
        occupancy: u32,
        /// The queue capacity.
        capacity: u32,
    },
    /// A parity scrub repaired corrupted coarse state.
    ScrubRepair {
        /// `"ctt"` or `"ctc"`.
        structure: &'static str,
        /// Entries repaired in this pass.
        repaired: u64,
    },
    /// The resilient P-LATCH driver degraded or recovered the pipeline.
    Degradation {
        /// Root cause label (mirrors `DegradeCause`).
        cause: &'static str,
        /// Recovery action label (mirrors `RecoveryAction`).
        action: &'static str,
        /// Sequence number processing resumed from.
        resumed_from_seq: u64,
    },
    /// The precise DIFT engine was engaged.
    EngineEnter {
        /// Which system engaged it (`"slatch"`, `"platch"`, …).
        system: &'static str,
        /// Instructions retired so far when it engaged.
        at_instr: u64,
    },
    /// The precise DIFT engine was disengaged.
    EngineExit {
        /// Which system disengaged it.
        system: &'static str,
        /// Instructions retired so far when it disengaged.
        at_instr: u64,
    },
    /// A named measurement phase began.
    PhaseBegin {
        /// Phase label.
        name: &'static str,
    },
    /// A named measurement phase ended.
    PhaseEnd {
        /// Phase label.
        name: &'static str,
    },
    /// The resilient consumer sealed an epoch checkpoint.
    Checkpoint {
        /// Highest contiguous sequence number applied.
        seq: u64,
    },
    /// The precise tier raised a security violation.
    Violation {
        /// Violation kind label.
        kind: &'static str,
    },
    /// The serving layer evicted an idle session to a snapshot blob.
    SessionEvict {
        /// The evicted session's id.
        session: u64,
        /// Size of the snapshot blob, in bytes.
        blob_bytes: u64,
    },
    /// The serving layer restored an evicted session from its blob.
    SessionRestore {
        /// The restored session's id.
        session: u64,
    },
    /// A record batch was appended to a session's write-ahead journal.
    JournalAppend {
        /// The session whose journal grew.
        session: u64,
        /// Bytes appended (frame header + payload).
        bytes: u64,
    },
    /// A group-commit fsync was issued over the dirty journal files.
    Fsync {
        /// Files covered by this group commit.
        files: u64,
        /// Whether the backing store reported the sync as failed.
        failed: bool,
    },
    /// Crash recovery began scanning the storage directory.
    RecoveryStart {
        /// Files found in the store.
        files: u64,
    },
    /// The serving layer cut a periodic SLO latency report.
    SloReport {
        /// Batches sampled in the window.
        samples: u32,
        /// Median per-batch latency in model cycles.
        p50_cycles: u64,
        /// 99th-percentile per-batch latency in model cycles.
        p99_cycles: u64,
        /// Whether the p99 breached the configured SLO.
        breach: bool,
    },
    /// An admission was shed under overload pressure.
    SubmissionShed {
        /// The session whose submission was rejected.
        session: u64,
        /// The session's priority rank (0 = critical).
        priority: u8,
        /// Pressure level that triggered the shed (1 or 2).
        pressure: u8,
    },
    /// Recovery quarantined a corrupt or torn frame.
    FrameQuarantined {
        /// The session whose file held the frame.
        session: u64,
        /// Byte offset of the frame within its file.
        offset: u64,
        /// Typed reason label (mirrors `RecoveryError`).
        reason: &'static str,
    },
    /// The network front door accepted a connection.
    ConnOpen {
        /// Server-local connection id (monotonic per listener).
        conn: u64,
    },
    /// A network connection closed (cleanly or after a wire error).
    ConnClose {
        /// Server-local connection id.
        conn: u64,
        /// Frames the connection delivered before closing.
        frames: u64,
    },
    /// The network front door rejected a frame or connection.
    WireReject {
        /// Server-local connection id.
        conn: u64,
        /// Typed reason label (mirrors `latch_proto::ProtoError` or
        /// the protocol state machine).
        reason: &'static str,
    },
    /// The cluster router placed a session on its hash-ring owner.
    RingPlace {
        /// The session routed.
        session: u64,
        /// The owning node's id.
        node: u32,
    },
    /// The cluster router declared a node dead.
    NodeDown {
        /// The dead node's id.
        node: u32,
        /// Consecutive heartbeat misses at the decision (0 when the
        /// death was detected by a failed forward instead).
        misses: u32,
    },
    /// A session's durable state moved to a new owning node.
    SessionMigrate {
        /// The session that moved.
        session: u64,
        /// The node it left.
        from_node: u32,
        /// The node that imported it.
        to_node: u32,
        /// Events the importer's pipeline restored.
        applied: u64,
    },
    /// A failover attempt failed partway; the router keeps the node's
    /// remaining sessions pinned and retries on a later heartbeat tick.
    FailoverStall {
        /// The node whose failover stalled.
        node: u32,
        /// Typed reason label (mirrors the router's error).
        reason: &'static str,
    },
    /// A failover restored fewer events than the router had already
    /// acknowledged — the dead owner lost durable state, so the
    /// session can no longer match its solo oracle and is poisoned.
    AckedLost {
        /// The session whose acked prefix was lost.
        session: u64,
        /// Events the router had acknowledged to clients.
        acked: u64,
        /// Events the importer actually restored.
        applied: u64,
    },
    /// A backup fell behind (or died) and was dropped from a session's
    /// replica group until the router can reseed it.
    ReplLag {
        /// The session whose backup lagged.
        session: u64,
        /// The lagging backup node.
        node: u32,
        /// Events the backup had acknowledged when it was dropped.
        have: u64,
        /// Events the backup should have covered.
        want: u64,
    },
    /// A diskless failover sourced a session from a backup's replica
    /// journal instead of the dead owner's storage.
    ReplRestore {
        /// The session restored.
        session: u64,
        /// The backup node whose journal fed the recovery scan.
        node: u32,
        /// Events the chosen journal covers.
        journaled: u64,
    },
    /// A planned rebalance moved one session to its new ring owner at
    /// a sequenced cut-point.
    Rebalance {
        /// The session that moved.
        session: u64,
        /// The node it left (still alive and serving).
        from_node: u32,
        /// The node that imported it.
        to_node: u32,
        /// Events applied at the cut-point.
        applied: u64,
    },
    /// A node refused a command from a router whose epoch is below the
    /// node's adopted high-water mark (zombie-primary fencing).
    StaleRouter {
        /// Server-local connection id of the stale router.
        conn: u64,
        /// The epoch the stale connection last claimed.
        epoch: u64,
        /// The node's current epoch high-water mark.
        max_epoch: u64,
    },
    /// A standby router took over the cluster: it bumped the epoch,
    /// adopted the surviving nodes, and rebuilt its routes from their
    /// surveys.
    Takeover {
        /// The epoch the cluster now runs at.
        epoch: u64,
        /// Nodes successfully adopted.
        adopted: u32,
        /// Nodes found dead during the sweep.
        dead: u32,
        /// Sessions whose routes were rebuilt from surveys.
        sessions: u64,
    },
    /// A backup's replica journal outgrew its bound (a floor, or twice
    /// the state it was seeded from), so the router reseeds it from the
    /// owner's current state instead of appending another record.
    ReplCompact {
        /// The session whose journal was compacted.
        session: u64,
        /// WAL bytes the backup held before the reseed.
        wal_bytes: u64,
        /// Events the reseeded journal covers.
        journaled: u64,
    },
}

impl TraceEvent {
    /// Short kind tag used in JSON and the text report.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ModeTransition { .. } => "mode_transition",
            TraceEvent::CtcMiss { .. } => "ctc_miss",
            TraceEvent::CtcEvict { .. } => "ctc_evict",
            TraceEvent::CttWordFlip { .. } => "ctt_word_flip",
            TraceEvent::TlbTaintBit { .. } => "tlb_taint_bit",
            TraceEvent::TrfSpill { .. } => "trf_spill",
            TraceEvent::FifoDepth { .. } => "fifo_depth",
            TraceEvent::ScrubRepair { .. } => "scrub_repair",
            TraceEvent::Degradation { .. } => "degradation",
            TraceEvent::EngineEnter { .. } => "engine_enter",
            TraceEvent::EngineExit { .. } => "engine_exit",
            TraceEvent::PhaseBegin { .. } => "phase_begin",
            TraceEvent::PhaseEnd { .. } => "phase_end",
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::Violation { .. } => "violation",
            TraceEvent::SessionEvict { .. } => "session_evict",
            TraceEvent::SessionRestore { .. } => "session_restore",
            TraceEvent::JournalAppend { .. } => "journal_append",
            TraceEvent::Fsync { .. } => "fsync",
            TraceEvent::RecoveryStart { .. } => "recovery_start",
            TraceEvent::SloReport { .. } => "slo_report",
            TraceEvent::SubmissionShed { .. } => "submission_shed",
            TraceEvent::FrameQuarantined { .. } => "frame_quarantined",
            TraceEvent::ConnOpen { .. } => "conn_open",
            TraceEvent::ConnClose { .. } => "conn_close",
            TraceEvent::WireReject { .. } => "wire_reject",
            TraceEvent::RingPlace { .. } => "ring_place",
            TraceEvent::NodeDown { .. } => "node_down",
            TraceEvent::SessionMigrate { .. } => "session_migrate",
            TraceEvent::FailoverStall { .. } => "failover_stall",
            TraceEvent::AckedLost { .. } => "acked_lost",
            TraceEvent::ReplLag { .. } => "repl_lag",
            TraceEvent::ReplRestore { .. } => "repl_restore",
            TraceEvent::Rebalance { .. } => "rebalance",
            TraceEvent::StaleRouter { .. } => "stale_router",
            TraceEvent::Takeover { .. } => "takeover",
            TraceEvent::ReplCompact { .. } => "repl_compact",
        }
    }

    /// Renders the event as one compact JSON object.
    ///
    /// Field order is fixed per variant, so the rendering is
    /// byte-stable for equal events.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(&mut s);
        s
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("{\"type\":\"");
        out.push_str(self.kind());
        out.push('"');
        match *self {
            TraceEvent::ModeTransition {
                instrs_in_mode,
                from,
                to,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"instrs_in_mode\":{instrs_in_mode},\"from\":\"{from}\",\"to\":\"{to}\",\"reason\":\"{reason}\""
                );
            }
            TraceEvent::CtcMiss { word } => {
                let _ = write!(out, ",\"word\":{word}");
            }
            TraceEvent::CtcEvict { word, clear_scan } => {
                let _ = write!(out, ",\"word\":{word},\"clear_scan\":{clear_scan}");
            }
            TraceEvent::CttWordFlip {
                word,
                before,
                after,
            } => {
                let _ = write!(out, ",\"word\":{word},\"before\":{before},\"after\":{after}");
            }
            TraceEvent::TlbTaintBit { page, set } => {
                let _ = write!(out, ",\"page\":{page},\"set\":{set}");
            }
            TraceEvent::TrfSpill { live_bits } => {
                let _ = write!(out, ",\"live_bits\":{live_bits}");
            }
            TraceEvent::FifoDepth {
                queue,
                occupancy,
                capacity,
            } => {
                let _ = write!(
                    out,
                    ",\"queue\":\"{queue}\",\"occupancy\":{occupancy},\"capacity\":{capacity}"
                );
            }
            TraceEvent::ScrubRepair {
                structure,
                repaired,
            } => {
                let _ = write!(out, ",\"structure\":\"{structure}\",\"repaired\":{repaired}");
            }
            TraceEvent::Degradation {
                cause,
                action,
                resumed_from_seq,
            } => {
                let _ = write!(
                    out,
                    ",\"cause\":\"{cause}\",\"action\":\"{action}\",\"resumed_from_seq\":{resumed_from_seq}"
                );
            }
            TraceEvent::EngineEnter { system, at_instr }
            | TraceEvent::EngineExit { system, at_instr } => {
                let _ = write!(out, ",\"system\":\"{system}\",\"at_instr\":{at_instr}");
            }
            TraceEvent::PhaseBegin { name } | TraceEvent::PhaseEnd { name } => {
                let _ = write!(out, ",\"name\":\"{name}\"");
            }
            TraceEvent::Checkpoint { seq } => {
                let _ = write!(out, ",\"seq\":{seq}");
            }
            TraceEvent::Violation { kind } => {
                let _ = write!(out, ",\"kind\":\"{kind}\"");
            }
            TraceEvent::SessionEvict {
                session,
                blob_bytes,
            } => {
                let _ = write!(out, ",\"session\":{session},\"blob_bytes\":{blob_bytes}");
            }
            TraceEvent::SessionRestore { session } => {
                let _ = write!(out, ",\"session\":{session}");
            }
            TraceEvent::JournalAppend { session, bytes } => {
                let _ = write!(out, ",\"session\":{session},\"bytes\":{bytes}");
            }
            TraceEvent::Fsync { files, failed } => {
                let _ = write!(out, ",\"files\":{files},\"failed\":{failed}");
            }
            TraceEvent::RecoveryStart { files } => {
                let _ = write!(out, ",\"files\":{files}");
            }
            TraceEvent::FrameQuarantined {
                session,
                offset,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"offset\":{offset},\"reason\":\"{reason}\""
                );
            }
            TraceEvent::SloReport {
                samples,
                p50_cycles,
                p99_cycles,
                breach,
            } => {
                let _ = write!(
                    out,
                    ",\"samples\":{samples},\"p50_cycles\":{p50_cycles},\"p99_cycles\":{p99_cycles},\"breach\":{breach}"
                );
            }
            TraceEvent::SubmissionShed {
                session,
                priority,
                pressure,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"priority\":{priority},\"pressure\":{pressure}"
                );
            }
            TraceEvent::ConnOpen { conn } => {
                let _ = write!(out, ",\"conn\":{conn}");
            }
            TraceEvent::ConnClose { conn, frames } => {
                let _ = write!(out, ",\"conn\":{conn},\"frames\":{frames}");
            }
            TraceEvent::WireReject { conn, reason } => {
                let _ = write!(out, ",\"conn\":{conn},\"reason\":\"{reason}\"");
            }
            TraceEvent::RingPlace { session, node } => {
                let _ = write!(out, ",\"session\":{session},\"node\":{node}");
            }
            TraceEvent::NodeDown { node, misses } => {
                let _ = write!(out, ",\"node\":{node},\"misses\":{misses}");
            }
            TraceEvent::SessionMigrate {
                session,
                from_node,
                to_node,
                applied,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"from_node\":{from_node},\"to_node\":{to_node},\"applied\":{applied}"
                );
            }
            TraceEvent::FailoverStall { node, reason } => {
                let _ = write!(out, ",\"node\":{node},\"reason\":\"{reason}\"");
            }
            TraceEvent::AckedLost {
                session,
                acked,
                applied,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"acked\":{acked},\"applied\":{applied}"
                );
            }
            TraceEvent::ReplLag {
                session,
                node,
                have,
                want,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"node\":{node},\"have\":{have},\"want\":{want}"
                );
            }
            TraceEvent::ReplRestore {
                session,
                node,
                journaled,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"node\":{node},\"journaled\":{journaled}"
                );
            }
            TraceEvent::Rebalance {
                session,
                from_node,
                to_node,
                applied,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"from_node\":{from_node},\"to_node\":{to_node},\"applied\":{applied}"
                );
            }
            TraceEvent::StaleRouter {
                conn,
                epoch,
                max_epoch,
            } => {
                let _ = write!(
                    out,
                    ",\"conn\":{conn},\"epoch\":{epoch},\"max_epoch\":{max_epoch}"
                );
            }
            TraceEvent::Takeover {
                epoch,
                adopted,
                dead,
                sessions,
            } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"adopted\":{adopted},\"dead\":{dead},\"sessions\":{sessions}"
                );
            }
            TraceEvent::ReplCompact {
                session,
                wal_bytes,
                journaled,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"wal_bytes\":{wal_bytes},\"journaled\":{journaled}"
                );
            }
        }
        out.push('}');
    }
}
