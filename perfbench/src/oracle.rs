//! The oracle gate: every drained report must equal, byte for byte, a
//! solo `SessionPipeline` replay of exactly the events the session was
//! acked for (its recovered prefix included). A missing, extra, doubled
//! or diverging report fails the run.
//!
//! In a traced run the same replay is the session layer's measurement:
//! one span per 256-event `apply` batch and one `to_snapshot` every
//! 2048 events, the serving layer's snapshot cadence.

use crate::trace::{Tracer, NO_BATCH};
use crate::workload::{Plan, SCRUB_INTERVAL};
use latch_systems::session::SessionPipeline;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// A traced check: the trace origin, and each load batch's log position
/// by `(session, index)` (batches recovered at start-up have none).
pub type Traced<'a> = (Instant, &'a HashMap<(u32, u32), u32>);

/// Batches between traced `to_snapshot` calls (2048 events).
const SNAPSHOT_BATCHES: u64 = 8;
/// Once snapshots have taken this long, later due ones are counted but
/// not taken: the per-event cost scales the mean over those taken.
const SNAPSHOT_BUDGET_NS: u64 = 4_000_000_000;

#[derive(Default, Clone, Copy)]
pub struct SoloStats {
    pub events: u64,
    pub selected: u64,
    pub batches: u64,
    pub unselected_batches: u64,
    pub snapshots: u64,
    pub snapshots_due: u64,
    pub snapshot_ns: u64,
    pub snapshot_bytes_max: u64,
}

impl SoloStats {
    fn merge(&mut self, o: &SoloStats) {
        self.events += o.events;
        self.selected += o.selected;
        self.batches += o.batches;
        self.unselected_batches += o.unselected_batches;
        self.snapshots += o.snapshots;
        self.snapshots_due += o.snapshots_due;
        self.snapshot_ns += o.snapshot_ns;
        self.snapshot_bytes_max = self.snapshot_bytes_max.max(o.snapshot_bytes_max);
    }
}

pub struct Verdict {
    pub result: Result<(), String>,
    pub stats: SoloStats,
    pub tracers: Vec<Tracer>,
}

/// Replays one session solo and compares its report.
fn replay(
    plan: &Plan,
    s: usize,
    batches: u64,
    want: Option<&Vec<u8>>,
    stats: &mut SoloStats,
    tracer: &mut Option<Tracer>,
    labels: Option<&HashMap<(u32, u32), u32>>,
) -> Result<(), String> {
    let id = plan.sessions[s].id;
    let mut pipe = SessionPipeline::new(SCRUB_INTERVAL);
    for b in 0..batches {
        let events = plan.batch(s, b);
        let label = labels
            .and_then(|l| l.get(&(s as u32, b as u32)).copied())
            .unwrap_or(NO_BATCH);
        let span = tracer.as_mut().map(|t| t.begin("session.apply", label));
        let mut selected = false;
        for ev in events {
            selected |= pipe.apply(ev);
        }
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.end(span);
        }
        stats.batches += 1;
        stats.events += events.len() as u64;
        if !selected {
            stats.unselected_batches += 1;
        }
        if let Some(t) = tracer.as_mut() {
            if (b + 1) % SNAPSHOT_BATCHES == 0 {
                stats.snapshots_due += 1;
                if stats.snapshot_ns < SNAPSHOT_BUDGET_NS {
                    let span = t.begin("session.snapshot", label);
                    let len = pipe.to_snapshot().len() as u64;
                    t.end(span);
                    let s = &t.spans[span as usize];
                    stats.snapshot_ns += s.end_ns - s.start_ns;
                    stats.snapshots += 1;
                    stats.snapshot_bytes_max = stats.snapshot_bytes_max.max(len);
                }
            }
        }
    }
    let report = pipe.report();
    stats.selected += report.selected;
    match want {
        Some(bytes) if *bytes == report.encode() => Ok(()),
        Some(_) => Err(format!(
            "session {id}: drained report differs from a solo replay of its {} acked events",
            batches * crate::workload::BATCH as u64
        )),
        None => Err(format!(
            "session {id}: acked {batches} batches but has no drained report"
        )),
    }
}

/// Checks `reports` against solo replays of `history[s]` batches per
/// session. A traced check runs on one thread so a sibling replay cannot
/// skew its timings; an untraced one runs on two.
pub fn check(
    plan: &Plan,
    history: &[u64],
    reports: &[(u64, Vec<u8>)],
    traced: Option<Traced<'_>>,
) -> Verdict {
    let mut by_id: BTreeMap<u64, &Vec<u8>> = BTreeMap::new();
    let mut problems = Vec::new();
    for (id, bytes) in reports {
        if by_id.insert(*id, bytes).is_some() {
            problems.push(format!("session {id}: reported twice"));
        }
    }
    for (id, _) in reports {
        let known = plan
            .sessions
            .iter()
            .position(|s| s.id == *id)
            .is_some_and(|s| history[s] > 0);
        if !known {
            problems.push(format!(
                "session {id}: report for a session that acked nothing"
            ));
        }
    }
    let mut stats = SoloStats::default();
    let mut tracers = Vec::new();
    std::thread::scope(|scope| {
        let threads = if traced.is_some() { 1 } else { 2 };
        let handles: Vec<_> = (0..threads)
            .map(|half| {
                let by_id = &by_id;
                scope.spawn(move || {
                    let mut st = SoloStats::default();
                    let mut tracer = traced.map(|(origin, _)| Tracer::new(origin));
                    let labels = traced.map(|(_, labels)| labels);
                    let mut errs = Vec::new();
                    for s in (half..plan.sessions.len()).step_by(threads) {
                        if history[s] == 0 {
                            continue;
                        }
                        let want = by_id.get(&plan.sessions[s].id).copied();
                        if let Err(e) =
                            replay(plan, s, history[s], want, &mut st, &mut tracer, labels)
                        {
                            errs.push(e);
                        }
                    }
                    (st, tracer, errs)
                })
            })
            .collect();
        for h in handles {
            let (st, tracer, errs) = h.join().expect("oracle thread");
            stats.merge(&st);
            tracers.extend(tracer);
            problems.extend(errs);
        }
    });
    problems.sort();
    let result = if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "oracle gate: {} problem(s); first: {}",
            problems.len(),
            problems[0]
        ))
    };
    Verdict {
        result,
        stats,
        tracers,
    }
}
