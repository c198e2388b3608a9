//! Microbenchmarks of the snapshot path: the CRC-32 behind every
//! snapshot trailer, WAL record and wire frame, and a full
//! `SessionPipeline` snapshot round trip on a taint-heavy stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use latch_core::snapshot::crc32;
use latch_sim::event::EventSource;
use latch_systems::session::SessionPipeline;
use latch_workloads::BenchmarkProfile;

/// Events applied before the pipeline is snapshotted: enough astar
/// traffic for dozens of resident shadow pages.
const EVENTS: u64 = 50_000;

fn checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for (name, len) in [("crc32_4k", 4 << 10), ("crc32_1m", 1 << 20)] {
        let buf: Vec<u8> = (0..len)
            .map(|i: u32| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        g.throughput(Throughput::Bytes(u64::from(len)));
        g.bench_function(name, |b| b.iter(|| crc32(black_box(&buf))));
    }
    g.finish();
}

fn session_snapshot(c: &mut Criterion) {
    let mut src = BenchmarkProfile::by_name("astar")
        .unwrap()
        .stream(1, EVENTS);
    let mut pipe = SessionPipeline::new(512);
    while let Some(ev) = src.next_event() {
        pipe.apply(&ev);
    }
    let blob = pipe.to_snapshot();
    let mut g = c.benchmark_group("session_snapshot");
    g.throughput(Throughput::Bytes(blob.len() as u64));
    g.bench_function("to_snapshot_astar", |b| {
        b.iter(|| black_box(&pipe).to_snapshot())
    });
    g.bench_function("from_snapshot_astar", |b| {
        b.iter(|| SessionPipeline::from_snapshot(black_box(&blob)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, checksum, session_snapshot);
criterion_main!(benches);
