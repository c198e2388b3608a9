//! Wall-clock cost of `SessionPipeline::apply`, per workload profile:
//! each timed batch is one pass of a fresh pipeline over the profile's
//! 131072-event seed-1 stream, at the serving layer's default scrub
//! interval. Divide a batch's time by the stream length for ns/event,
//! the wall-clock analogue of the paper's Figure 13: taint-free
//! streams let the coarse tier answer for most events, and the
//! taint-heavy ones (astar, sphinx) keep the precise tier busy.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;

const EVENTS: u64 = 131_072;

fn session_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_apply");
    g.throughput(Throughput::Elements(EVENTS));
    for profile in all_profiles() {
        let mut src = profile.stream(1, EVENTS);
        let mut events: Vec<Event> = Vec::with_capacity(EVENTS as usize);
        while let Some(ev) = src.next_event() {
            events.push(ev);
        }
        g.bench_function(profile.name, |b| {
            b.iter_batched(
                || SessionPipeline::new(512),
                |mut pipe| {
                    for ev in &events {
                        pipe.apply(ev);
                    }
                    pipe
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, session_apply);
criterion_main!(benches);
