//! Microbenchmarks of the snapshot path: the CRC-32 behind every
//! snapshot trailer, WAL record and wire frame, a full
//! `SessionPipeline` snapshot round trip on a taint-heavy stream, and
//! what durable maintenance does for each due session — encode the
//! LTSF frame, then write it in place on a real directory, sync it,
//! and cut the journal — both for a whole frame and for the patch of a
//! generation's last frame that a steady-state checkpoint writes.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use latch_core::snapshot::crc32;
use latch_serve::journal::{wal_header, wal_name};
use latch_serve::store::{encode_checkpoint, snap_name, SlotFile};
use latch_serve::{DirStorage, Priority, Storage};
use latch_sim::event::EventSource;
use latch_systems::session::SessionPipeline;
use latch_workloads::BenchmarkProfile;
use std::cell::RefCell;

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
    // A checkpoint with no landed layout to patch: the whole frame.
    let (frame, _) = encode_checkpoint(1, Priority::Normal, &pipe, None);
    let mut g = c.benchmark_group("maintenance");
    g.throughput(Throughput::Bytes(frame.bytes_written() as u64));
    g.bench_function("encode_frame_astar", |b| {
        b.iter(|| encode_checkpoint(1, Priority::Normal, black_box(&pipe), None))
    });
    // One due session on a real directory, as a maintenance pass runs
    // it: the frame put in place over the older generation, the pass's
    // one barrier, then the journal cut to its header (which the next
    // group commit makes durable).
    let dir = std::env::temp_dir().join(format!("latch-bench-maintenance-{}", std::process::id()));
    let mut storage = DirStorage::open(&dir).expect("temp dir");
    let header = wal_header(1, Priority::Normal);
    let mut generation = 0;
    g.bench_function("dir_storage_pass_astar", |b| {
        b.iter(|| {
            generation ^= 1;
            assert!(black_box(&frame).write_to(&mut storage, &snap_name(1, generation)));
            assert!(storage.fsync());
            assert!(storage.put(&wal_name(1), &header));
        })
    });
    // The steady state: 2048 more astar events (untimed), then one
    // checkpoint of the due generation — the patch of the frame that
    // generation last landed (whole, the first time into each), the
    // barrier, and the journal cut — as maintenance alternates the two.
    let mut src = BenchmarkProfile::by_name("astar")
        .unwrap()
        .stream(1, 1 << 32);
    let mut live = SessionPipeline::new(512);
    for _ in 0..EVENTS {
        live.apply(&src.next_event().expect("a long stream"));
    }
    let live = RefCell::new(live);
    let mut slots: [Option<SlotFile>; 2] = [None, None];
    g.bench_function("dir_storage_patch_astar", |b| {
        b.iter_batched(
            || {
                let mut pipe = live.borrow_mut();
                for _ in 0..2048 {
                    pipe.apply(&src.next_event().expect("a long stream"));
                }
            },
            |()| {
                generation ^= 1;
                let due = &mut slots[usize::from(generation)];
                let (write, landed) =
                    encode_checkpoint(1, Priority::Normal, &live.borrow(), due.as_ref());
                assert!(write.write_to(&mut storage, &snap_name(1, generation)));
                assert!(storage.fsync());
                assert!(storage.put(&wal_name(1), &header));
                *due = Some(landed);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, checksum, session_snapshot, maintenance);
criterion_main!(benches);
