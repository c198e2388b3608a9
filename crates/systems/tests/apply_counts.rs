//! Host-independent work counters for `SessionPipeline::apply`: the
//! events retired, the propagation rules counted (`dift.instrs`) and
//! the TRF reloads (`core.trf.spills`) of fixed 16384-event seed-1
//! streams. Wall-clock medians move with the host; these counts move
//! only with the code. The tier gate lets an event whose rules are
//! clean-to-clean no-ops skip the precise tier and its TRF reload, so
//! spills count only the events that took the full path, while
//! `dift.instrs` counts every rule either way.
//!
//! The obs registry is process-wide, so every stream runs in one test
//! in a file of its own, each from a reset registry.

#![cfg(feature = "obs")]

use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::BenchmarkProfile;
use std::fmt::Write;

const EVENTS: u64 = 16_384;

/// Four taint-free SPEC profiles and taint-heavy astar, at the serving
/// layer's default scrub interval. Before the gate every event
/// reloaded the TRF: 16384 spills on each stream, with the same
/// `dift.instrs`.
const PINNED: &str = "\
profile      events  dift.instrs  core.trf.spills
bzip2         16384        16384               39
gobmk         16384        16384               39
cactusADM     16384        16384               71
h264ref       16384        16384               87
astar         16384        16406             3857
";

fn counter(snap: &latch_obs::Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn apply_work_counts_are_pinned() {
    let mut out = String::from("profile      events  dift.instrs  core.trf.spills\n");
    for name in ["bzip2", "gobmk", "cactusADM", "h264ref", "astar"] {
        let mut src = BenchmarkProfile::by_name(name).unwrap().stream(1, EVENTS);
        let mut events: Vec<Event> = Vec::new();
        while let Some(ev) = src.next_event() {
            events.push(ev);
        }
        latch_obs::reset();
        let mut pipe = SessionPipeline::new(512);
        for ev in &events {
            pipe.apply(ev);
        }
        let snap = latch_obs::snapshot();
        let instrs = counter(&snap, "dift.instrs");
        assert_eq!(
            instrs,
            pipe.report().dift.instrs,
            "{name}: obs and stats disagree"
        );
        let _ = writeln!(
            out,
            "{name:<10} {:>8} {instrs:>12} {:>16}",
            pipe.applied(),
            counter(&snap, "core.trf.spills"),
        );
    }
    println!("{out}");
    assert_eq!(out, PINNED, "apply work counts moved");
}
