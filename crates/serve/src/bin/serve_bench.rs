//! Overload bench for `latch-serve`.
//!
//! Drives S sessions × E events/session of mixed-priority traffic
//! through the scheduler with a capped queue and an armed SLO, and
//! reports what was admitted and shed. Every figure is an event count
//! or a **simulated cost-model cycle** count — wall-clock never appears
//! in the output, so the JSON is byte-reproducible on any machine and
//! pins the overload trajectory.
//!
//! ```text
//! serve_bench [--sessions S] [--events E] [--chunk C] [--out BENCH_serve.json]
//! ```

use latch_serve::{Priority, Rejected, ServeConfig, Service, ServiceOutcome, Slo};
use latch_sim::event::{Event, EventSource};
use latch_workloads::all_profiles;
use std::fmt::Write as _;

struct Args {
    sessions: usize,
    events: u64,
    chunk: usize,
    out: String,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            sessions: 24,
            events: 4_000,
            chunk: 256,
            out: "BENCH_serve.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--sessions" => args.sessions = value().parse().expect("--sessions"),
                "--events" => args.events = value().parse().expect("--events"),
                "--chunk" => args.chunk = value().parse().expect("--chunk"),
                "--out" => args.out = value(),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.sessions > 0 && args.events > 0);
        args
    }
}

fn session_streams(sessions: usize, events: u64) -> Vec<Vec<Event>> {
    let profiles = all_profiles();
    (0..sessions)
        .map(|s| {
            let mut src = profiles[s % profiles.len()].stream(1_000 + s as u64, events);
            let mut out = Vec::new();
            while let Some(ev) = src.next_event() {
                out.push(ev);
            }
            out
        })
        .collect()
}

/// One overload run: a capped queue, an armed SLO, and mixed-priority
/// traffic. Shed submissions drop their chunk (clients do not retry
/// shed work); capacity rejections pump and retry. Returns the outcome
/// plus the offered and admitted event totals.
fn run_overload(streams: &[Vec<Event>], chunk: usize) -> (ServiceOutcome, u64, u64) {
    let cfg = ServeConfig {
        queue_events: 4_096,
        batch_max: 64,
        max_resident: 8,
        slo: Slo {
            slo_cycles: 96,
            window: 64,
            report_every: 8,
            queue_pressure_pct: 50,
        },
        ..ServeConfig::default()
    };
    let mut svc = Service::deterministic(cfg);
    let rounds = streams
        .iter()
        .map(|evs| evs.len().div_ceil(chunk))
        .max()
        .unwrap_or(0);
    let mut offered = 0u64;
    let mut admitted = 0u64;
    for r in 0..rounds {
        for (s, evs) in streams.iter().enumerate() {
            let lo = r * chunk;
            if lo >= evs.len() {
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            let prio = match s % 3 {
                0 => Priority::Critical,
                1 => Priority::Normal,
                _ => Priority::Bulk,
            };
            offered += (hi - lo) as u64;
            loop {
                match svc.submit_with_priority(s as u64, &evs[lo..hi], prio) {
                    Ok(()) => {
                        admitted += (hi - lo) as u64;
                        break;
                    }
                    Err(Rejected::Shed { .. }) => break, // shed work is dropped
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                        svc.pump();
                    }
                    Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                    Err(Rejected::BatchTooLarge { .. }) => {
                        unreachable!("chunks are far below the journal cap")
                    }
                }
            }
        }
        svc.pump();
    }
    (svc.finish(), offered, admitted)
}

fn main() {
    let args = Args::parse();
    let streams = session_streams(args.sessions, args.events);
    let total_events: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"latch-serve\",");
    let _ = writeln!(json, "  \"sessions\": {},", args.sessions);
    let _ = writeln!(json, "  \"events_per_session\": {},", args.events);
    let _ = writeln!(json, "  \"total_events\": {total_events},");
    let _ = writeln!(json, "  \"submit_chunk\": {},", args.chunk);
    let _ = writeln!(json, "  \"unit\": \"simulated cost-model cycles\",");
    let (out, offered, admitted) = run_overload(&streams, args.chunk);
    let shed_rate = if offered == 0 {
        0.0
    } else {
        out.stats.shed_events as f64 / offered as f64
    };
    eprintln!("overload: offered={offered}, admitted={admitted}, shed_rate={shed_rate:.4}");
    let _ = writeln!(json, "  \"overload\": {{");
    let _ = writeln!(json, "    \"slo_cycles\": 96,");
    let _ = writeln!(json, "    \"offered_events\": {offered},");
    let _ = writeln!(json, "    \"admitted_events\": {admitted},");
    let _ = writeln!(json, "    \"shed_events\": {},", out.stats.shed_events);
    let _ = writeln!(json, "    \"shed_rate\": {shed_rate:.4}");
    json.push_str("  }\n}\n");

    std::fs::write(&args.out, &json).expect("write bench output");
    eprintln!("overload trajectory -> {}", args.out);
}
