//! Microbenchmarks of the snapshot path: the CRC-32 behind every
//! snapshot trailer, WAL record and wire frame, a full
//! `SessionPipeline` snapshot round trip on a taint-heavy stream, what
//! durable maintenance does for each due session — encode the LTSF
//! frame from the live pipeline, then write it in place on a real
//! directory, sync it, and cut the journal that the 2048 events since
//! the last checkpoint filled — both for a whole frame and for the
//! patch of a generation's last frame that a steady-state checkpoint
//! writes, and one journal record with its group commit.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use latch_core::snapshot::crc32;
use latch_serve::journal::{encode_record, WalLog};
use latch_serve::store::{encode_checkpoint, snap_name, FrameWrite, SlotFile};
use latch_serve::{DirStorage, Priority, Storage};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::{BenchmarkProfile, SyntheticSource};
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

/// One astar session on a real directory, advanced as the durable
/// service advances it between checkpoints: each 256-event batch is
/// applied to the pipeline and journaled as one record, at the live
/// log's end with an end frame after it, and each record has its group
/// commit.
struct Live {
    storage: DirStorage,
    src: SyntheticSource,
    pipe: SessionPipeline,
    wal: WalLog,
    journaled: u64,
}

impl Live {
    /// The pipeline after `EVENTS` astar events, with nothing journaled
    /// yet into `storage`.
    fn new(storage: DirStorage) -> Self {
        let mut src = BenchmarkProfile::by_name("astar")
            .unwrap()
            .stream(1, 1 << 32);
        let mut pipe = SessionPipeline::new(512);
        for _ in 0..EVENTS {
            pipe.apply(&src.next_event().expect("a long stream"));
        }
        Self {
            storage,
            src,
            pipe,
            wal: WalLog::default(),
            journaled: EVENTS,
        }
    }

    /// The next 256-event batch, applied, and its encoded record.
    fn batch(&mut self) -> Vec<u8> {
        let events: Vec<Event> = (0..256)
            .map(|_| self.src.next_event().expect("a long stream"))
            .collect();
        for ev in &events {
            self.pipe.apply(ev);
        }
        let record = encode_record(self.journaled, &events).expect("a small batch");
        self.journaled += events.len() as u64;
        record
    }

    /// Writes `record` into the journal and syncs it.
    fn journal(&mut self, record: &[u8]) {
        let storage = &mut self.storage;
        assert!(self
            .wal
            .append(storage, 1, Priority::Normal, record)
            .is_some());
        assert!(storage.fsync());
    }

    /// The 2048 events between two checkpoints: eight batches, each
    /// journaled with its group commit.
    fn advance(&mut self) {
        for _ in 0..8 {
            let record = self.batch();
            self.journal(&record);
        }
    }

    /// A maintenance pass once the frame is encoded: the frame written
    /// into `generation`, the pass's barrier, then the journal cut,
    /// which the next group commit makes durable.
    fn checkpoint(&mut self, write: &FrameWrite, generation: u8) {
        assert!(write.write_to(&mut self.storage, &snap_name(1, generation)));
        assert!(self.storage.fsync());
        self.cut();
    }

    /// The journal cut of a checkpoint.
    fn cut(&mut self) {
        assert!(self.wal.rewind(&mut self.storage, 1, Priority::Normal));
    }
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
    // it, after 2048 more events applied and journaled (untimed): the
    // frame encoded from the live pipeline and written over the older
    // generation, whole or as the patch of the frame that generation
    // last landed (whole, the first time into each), the pass's one
    // barrier, then the journal cut.
    let dir = std::env::temp_dir().join(format!("latch-bench-maintenance-{}", std::process::id()));
    let live = RefCell::new(Live::new(DirStorage::open(&dir).expect("temp dir")));
    let mut generation = 0;
    g.bench_function("dir_storage_pass_astar", |b| {
        b.iter_batched(
            || live.borrow_mut().advance(),
            |()| {
                generation ^= 1;
                let mut live = live.borrow_mut();
                let (write, _) = encode_checkpoint(1, Priority::Normal, &live.pipe, None);
                live.checkpoint(&write, generation);
            },
            BatchSize::SmallInput,
        )
    });
    let mut slots: [Option<SlotFile>; 2] = [None, None];
    g.bench_function("dir_storage_patch_astar", |b| {
        b.iter_batched(
            || live.borrow_mut().advance(),
            |()| {
                generation ^= 1;
                let mut live = live.borrow_mut();
                let due = &mut slots[usize::from(generation)];
                let (write, landed) =
                    encode_checkpoint(1, Priority::Normal, &live.pipe, due.as_ref());
                live.checkpoint(&write, generation);
                *due = Some(landed);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
    // The steady state of the journal: one 256-event record (encoded
    // untimed) written at the log's end, and its group commit. Every
    // eighth record follows a checkpoint's cut, untimed, whose
    // durability that record's group commit pays, as the first ack
    // after a pass does.
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(256));
    let mut records = 0u64;
    g.bench_function("dir_storage_record_256", |b| {
        b.iter_batched(
            || {
                let mut live = live.borrow_mut();
                if records.is_multiple_of(8) {
                    live.cut();
                }
                records += 1;
                live.batch()
            },
            |record| live.borrow_mut().journal(&record),
            BatchSize::SmallInput,
        )
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, checksum, session_snapshot, maintenance);
criterion_main!(benches);
