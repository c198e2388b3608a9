//! Property tests of the serving layer's isolation and snapshot
//! contracts: no matter how K sessions' streams are interleaved,
//! chunked, evicted, or restored, each session's results equal a solo
//! run of its own stream.

use latch_serve::{Rejected, ServeConfig, Service};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::{all_profiles, BenchmarkProfile};
use proptest::prelude::*;

fn stream(profile: &BenchmarkProfile, seed: u64, n: u64) -> Vec<Event> {
    let mut src = profile.stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

fn solo(evs: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(scrub_interval);
    for ev in evs {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interleaved_sessions_match_solo_runs(
        seed in 0u64..10_000,
        sessions in 2usize..5,
        chunk in 16usize..200,
        max_resident in 1usize..4,
        order in proptest::collection::vec(0usize..4, 8..40),
    ) {
        let profiles = all_profiles();
        let streams: Vec<Vec<Event>> = (0..sessions)
            .map(|s| stream(&profiles[s % profiles.len()], seed + s as u64, 1_500))
            .collect();
        let cfg = ServeConfig {
            max_resident,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
        // Submit chunks in the arbitrary session order the strategy
        // picked, wrapping until every stream is fully submitted.
        let mut cursor = vec![0usize; sessions];
        let mut pick = 0usize;
        while cursor.iter().zip(&streams).any(|(&c, evs)| c < evs.len()) {
            let s = order[pick % order.len()] % sessions;
            pick += 1;
            let lo = cursor[s];
            let evs = &streams[s];
            if lo >= evs.len() {
                // This session is done; pump so progress is guaranteed
                // even when the order vector keeps picking it.
                svc.pump();
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            match svc.submit(s as u64, &evs[lo..hi]) {
                Ok(()) => cursor[s] = hi,
                Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => svc.pump(),
                Err(Rejected::ShuttingDown) => unreachable!("service is not draining"),
                Err(Rejected::Shed { .. }) => unreachable!("no SLO armed"),
                Err(Rejected::BatchTooLarge { .. }) => {
                    unreachable!("chunks are far below the journal cap")
                }
            }
        }
        let out = svc.finish();
        for (s, evs) in streams.iter().enumerate() {
            prop_assert_eq!(
                &out.sessions[&(s as u64)].encode(),
                &solo(evs, cfg.scrub_interval),
                "session {} diverged", s
            );
        }
    }

    #[test]
    fn snapshot_evict_restore_roundtrips_byte_identically(
        seed in 0u64..10_000,
        split in 100usize..1_400,
    ) {
        let profiles = all_profiles();
        let evs = stream(&profiles[(seed % profiles.len() as u64) as usize], seed, 1_500);
        let mut pipe = SessionPipeline::new(512);
        for ev in &evs[..split] {
            pipe.apply(ev);
        }
        let blob = pipe.to_snapshot();
        let mut thawed = SessionPipeline::from_snapshot(&blob).unwrap();
        prop_assert_eq!(thawed.to_snapshot(), blob, "freeze must be stable");
        for ev in &evs[split..] {
            pipe.apply(ev);
            thawed.apply(ev);
        }
        prop_assert_eq!(pipe.to_snapshot(), thawed.to_snapshot());
        prop_assert_eq!(pipe.report().encode(), thawed.report().encode());
    }
}
