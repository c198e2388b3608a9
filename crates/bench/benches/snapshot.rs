//! Microbenchmarks of the snapshot path: the CRC-32 behind every
//! snapshot trailer, WAL record and wire frame, a full
//! `SessionPipeline` snapshot round trip on a taint-heavy stream, and
//! what durable maintenance does for each due session — encode the
//! LTSF frame, then write it and rotate the journal on a real
//! directory under one group commit.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use latch_core::snapshot::crc32;
use latch_serve::store::{encode_pipeline_frame, snap_name};
use latch_serve::{journal, DirStorage, Priority, Storage};
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

fn astar_pipeline() -> SessionPipeline {
    let mut src = BenchmarkProfile::by_name("astar")
        .unwrap()
        .stream(1, EVENTS);
    let mut pipe = SessionPipeline::new(512);
    while let Some(ev) = src.next_event() {
        pipe.apply(&ev);
    }
    pipe
}

fn session_snapshot(c: &mut Criterion) {
    let pipe = astar_pipeline();
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

fn maintenance(c: &mut Criterion) {
    let pipe = astar_pipeline();
    let frame = encode_pipeline_frame(1, Priority::Normal, &pipe);
    let mut g = c.benchmark_group("maintenance");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("encode_frame_astar", |b| {
        b.iter(|| encode_pipeline_frame(1, Priority::Normal, black_box(&pipe)))
    });
    // One due session on a real directory: the frame to the alternate
    // generation, the journal rotated to its header, one group commit.
    let dir = std::env::temp_dir().join(format!("latch-bench-maintenance-{}", std::process::id()));
    let mut storage = DirStorage::open(&dir).expect("temp dir");
    let mut generation = 0;
    g.bench_function("dir_storage_pass_astar", |b| {
        b.iter(|| {
            generation ^= 1;
            assert!(storage.write_atomic(&snap_name(1, generation), black_box(&frame)));
            assert!(journal::rotate(&mut storage, 1, Priority::Normal));
            assert!(storage.fsync());
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, checksum, session_snapshot, maintenance);
criterion_main!(benches);
