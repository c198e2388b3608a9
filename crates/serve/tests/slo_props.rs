//! Property tests of the SLO sampler and the overload policy.
//!
//! Three contracts:
//!
//! 1. **Ring determinism** — the same seeded cost stream produces a
//!    byte-identical `SloReport` stream, every time.
//! 2. **Percentile correctness** — nearest-rank p50/p99 over the ring
//!    equals a naive model over the sorted tail window.
//! 3. **Shed purity** — under an arbitrary submit/pump interleaving,
//!    every admission decision (admit vs. shed, and at which pressure)
//!    is a pure function of the admitted history: replaying the same
//!    schedule yields the identical decision trace and SLO reports.

use latch_serve::{
    Priority, Rejected, ServeConfig, Service, Slo, SloReport, SloSampler,
};
use latch_sim::event::{Event, EventSource};
use latch_workloads::all_profiles;
use proptest::prelude::*;

/// SplitMix64 — deterministic cost-stream generator for the ring tests.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

/// One admission decision, as recorded for the purity trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Admitted,
    Shed { priority: u8, pressure: u8 },
    QueueFull,
    SessionBusy,
}

/// Drives one schedule against a fresh service and returns everything
/// the purity property compares.
fn run_schedule(
    schedule: &[(usize, usize, bool)],
    streams: &[Vec<Event>],
    slo: Slo,
) -> (Vec<Decision>, Vec<u8>) {
    let cfg = ServeConfig {
        queue_events: 256,
        batch_max: 32,
        max_resident: 2,
        slo,
        ..ServeConfig::default()
    };
    let mut svc = Service::deterministic(cfg);
    let mut cursor = vec![0usize; streams.len()];
    let mut trace = Vec::new();
    for &(s_raw, chunk, pump_after) in schedule {
        let s = s_raw % streams.len();
        let prio = match s % 3 {
            0 => Priority::Critical,
            1 => Priority::Normal,
            _ => Priority::Bulk,
        };
        let evs = &streams[s];
        let lo = cursor[s].min(evs.len());
        let hi = (lo + chunk.max(1)).min(evs.len());
        if lo < hi {
            trace.push(match svc.submit_with_priority(s as u64, &evs[lo..hi], prio) {
                Ok(()) => {
                    cursor[s] = hi;
                    Decision::Admitted
                }
                Err(Rejected::Shed { priority, pressure, .. }) => Decision::Shed {
                    priority: priority.rank(),
                    pressure,
                },
                Err(Rejected::QueueFull { .. }) => Decision::QueueFull,
                Err(Rejected::SessionBusy { .. }) => Decision::SessionBusy,
                Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                Err(Rejected::BatchTooLarge { .. }) => {
                    unreachable!("chunks are far below the journal cap")
                }
            });
        }
        if pump_after {
            svc.pump();
        }
    }
    let out = svc.finish();
    let reports: Vec<u8> = out.slo_reports.iter().flat_map(SloReport::encode).collect();
    (trace, reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 2: the ring's nearest-rank percentile equals a naive
    /// sorted model over the last `min(len, window)` samples.
    #[test]
    fn percentiles_match_naive_sorted_window(
        samples in proptest::collection::vec(0u64..10_000, 1..300),
        window in 1usize..80,
        p in 1u32..=100,
    ) {
        let mut s = SloSampler::new(window);
        for &c in &samples {
            s.push(c);
        }
        let tail_len = samples.len().min(window);
        let mut tail: Vec<u64> = samples[samples.len() - tail_len..].to_vec();
        tail.sort_unstable();
        let rank = (tail_len * p as usize).div_ceil(100).clamp(1, tail_len);
        prop_assert_eq!(s.percentile(p), tail[rank - 1]);
        prop_assert_eq!(s.len(), tail_len);
        prop_assert_eq!(s.total(), samples.len() as u64);
    }

    /// Contract 1: the same seed yields a byte-identical report stream.
    #[test]
    fn report_stream_is_byte_identical_across_reruns(
        seed in 0u64..1_000_000,
        window in 1usize..64,
        pushes in 1u64..600,
        report_every in 1u64..32,
        slo_cycles in 0u64..5_000,
    ) {
        let run = || {
            let mut s = SloSampler::new(window);
            let mut bytes = Vec::new();
            for i in 0..pushes {
                s.push(mix(seed ^ i) % 4_096);
                if (i + 1) % report_every == 0 {
                    bytes.extend(s.cut(i + 1, slo_cycles).encode());
                }
            }
            bytes
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "seeded report stream must be reproducible");
    }

    /// Contract 3: shed decisions and SLO reports are pure in the
    /// schedule — an identical interleaving replayed against a fresh
    /// service produces the identical trace.
    #[test]
    fn shed_decisions_are_pure_under_interleavings(
        seed in 0u64..100_000,
        sessions in 1usize..4,
        schedule in proptest::collection::vec(
            (0usize..4, 1usize..64, any::<bool>()),
            5..40,
        ),
        slo_cycles in prop_oneof![Just(1u64), Just(50u64), Just(0u64)],
        queue_pressure_pct in prop_oneof![Just(10u32), Just(50u32), Just(100u32)],
    ) {
        let streams: Vec<Vec<Event>> = (0..sessions)
            .map(|s| stream(s, seed + s as u64, 2_600))
            .collect();
        let slo = Slo {
            slo_cycles,
            window: 16,
            report_every: 2,
            queue_pressure_pct,
        };
        let a = run_schedule(&schedule, &streams, slo);
        let b = run_schedule(&schedule, &streams, slo);
        prop_assert_eq!(&a.0, &b.0, "admission decision traces diverged");
        prop_assert_eq!(&a.1, &b.1, "SLO report streams diverged");
    }
}
