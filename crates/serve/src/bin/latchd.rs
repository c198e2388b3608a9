//! `latchd` — the network front door for latch-serve.
//!
//! Binds a framed-protocol listener (TCP or Unix socket), recovers a
//! durable service from `--dir`, and serves until a client drains it:
//!
//! ```text
//! latchd --listen tcp:127.0.0.1:7410 --dir /var/lib/latchd
//! latchd --listen unix:/tmp/latchd.sock --dir ./state --window 4096
//! ```
//!
//! `--slo-cycles N` arms the overload policy at a p99 target of `N`
//! simulated cycles per batch: SLO telemetry for connections that ask
//! for it, and lowest-priority-first shedding under pressure (a
//! breached target, or a queue past `Slo::OFF`'s occupancy threshold).
//!
//! The process exits 0 once a client issues `Drain` and the `Drained`
//! reply has been written.

use latch_faults::FaultPlan;
use latch_proto::Endpoint;
use latch_serve::{
    DirStorage, DurableConfig, DurableService, ServeConfig, Slo, WireConfig, WireServer,
};
use std::time::Duration;

struct Args {
    listen: Endpoint,
    dir: std::path::PathBuf,
    window: u32,
    slo_cycles: Option<u64>,
}

impl Args {
    fn parse() -> Args {
        let mut listen = None;
        let mut dir = None;
        let mut window = 1u32 << 14;
        let mut slo_cycles = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--listen" => {
                    let spec = value();
                    listen = Some(Endpoint::parse(&spec).unwrap_or_else(|| {
                        panic!("--listen wants tcp:ADDR or unix:PATH, got {spec}")
                    }));
                }
                "--dir" => dir = Some(std::path::PathBuf::from(value())),
                "--window" => window = value().parse().expect("--window"),
                "--slo-cycles" => slo_cycles = Some(value().parse().expect("--slo-cycles")),
                other => panic!("unknown flag {other}"),
            }
        }
        Args {
            listen: listen.expect("--listen tcp:ADDR|unix:PATH is required"),
            dir: dir.expect("--dir PATH is required"),
            window,
            slo_cycles,
        }
    }
}

fn main() {
    let args = Args::parse();
    let storage = DirStorage::open(&args.dir).unwrap_or_else(|e| {
        panic!("open --dir {}: {e}", args.dir.display());
    });
    let mut cfg = ServeConfig::default();
    if let Some(cycles) = args.slo_cycles {
        cfg.slo = Slo {
            slo_cycles: cycles,
            ..Slo::OFF
        };
    }
    let (svc, recovery) =
        DurableService::recover(cfg, DurableConfig::default(), FaultPlan::benign(), storage);
    eprintln!(
        "latchd: recovered {} session(s), {} event(s) replayed from {}",
        recovery.sessions.len(),
        recovery
            .sessions
            .values()
            .map(|s| s.replayed)
            .sum::<u64>(),
        args.dir.display()
    );
    let wire = WireConfig {
        max_window_events: args.window,
    };
    let server = WireServer::start(&args.listen, svc, wire).unwrap_or_else(|e| {
        panic!("bind {}: {e}", args.listen);
    });
    eprintln!("latchd: listening on {}", server.endpoint());
    while !server.drained() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("latchd: drained, shutting down");
    server.shutdown();
}
