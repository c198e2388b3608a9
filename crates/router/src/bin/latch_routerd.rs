//! `latch-routerd` — the cluster front door.
//!
//! Binds a framed-protocol listener and routes sessions across N
//! downstream `latchd` nodes with a seeded consistent-hash ring:
//!
//! ```text
//! latch-routerd --listen tcp:127.0.0.1:7400 \
//!     --node 0=tcp:127.0.0.1:7410,/var/lib/latchd-0 \
//!     --node 1=tcp:127.0.0.1:7411,/var/lib/latchd-1
//! ```
//!
//! Each `--node ID=ENDPOINT[,DIR]` names a downstream node; `DIR` is
//! its storage directory, which the router opens to export sessions
//! when the node dies (the node process must really be dead — latchd
//! owns the directory while it runs). Without a `DIR`, a dead node's
//! sessions with durable state cannot move and only never-admitted
//! sessions are re-pinned.
//!
//! The process exits 0 once a client drains the cluster through it and
//! the `Drained` reply has been written.
//!
//! With `--standby --peer tcp:HOST:PORT` the process starts as a warm
//! standby instead: it refuses client commands (typed
//! `error_code::STANDBY`) while heartbeating the primary router at
//! `--peer`, and takes over — rebuilding routes from the surviving
//! nodes under a bumped epoch and reseeding each session's backups from
//! its owner — when the primary stops answering. Give the standby the same `--seed`,
//! `--vnodes`, and `--node` list as the primary so its ring agrees.

use latch_proto::Endpoint;
use latch_router::{Exporter, Router, RouterConfig, RouterServer, RouterServerConfig};
use latch_serve::{export_sessions, DirStorage};
use std::collections::BTreeMap;
use std::time::Duration;

struct NodeSpec {
    id: u32,
    endpoint: Endpoint,
    dir: Option<std::path::PathBuf>,
}

struct Args {
    listen: Endpoint,
    nodes: Vec<NodeSpec>,
    seed: u64,
    vnodes: u32,
    miss_budget: u32,
    window: u32,
    heartbeat_ms: u64,
    connect_timeout_ms: u64,
    replicas: u32,
    failover_retries: u32,
    standby: bool,
    peer: Option<Endpoint>,
    epoch: u64,
}

fn parse_node(spec: &str) -> NodeSpec {
    let (id, rest) = spec
        .split_once('=')
        .unwrap_or_else(|| panic!("--node wants ID=ENDPOINT[,DIR], got {spec}"));
    let id: u32 = id.parse().unwrap_or_else(|_| panic!("bad node id in {spec}"));
    let (endpoint, dir) = match rest.split_once(',') {
        Some((ep, dir)) => (ep, Some(std::path::PathBuf::from(dir))),
        None => (rest, None),
    };
    let endpoint = Endpoint::parse(endpoint)
        .unwrap_or_else(|| panic!("bad endpoint in --node {spec} (want tcp:ADDR or unix:PATH)"));
    NodeSpec { id, endpoint, dir }
}

impl Args {
    fn parse() -> Args {
        let mut listen = None;
        let mut nodes = Vec::new();
        let mut seed = 0x1a7c_4d01u64;
        let mut vnodes = 64u32;
        let mut miss_budget = 3u32;
        let mut window = 1u32 << 14;
        let mut heartbeat_ms = 25u64;
        let mut connect_timeout_ms = 500u64;
        let mut replicas = 0u32;
        let mut failover_retries = 4u32;
        let mut standby = false;
        let mut peer = None;
        let mut epoch = 1u64;
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
                "--node" => nodes.push(parse_node(&value())),
                "--seed" => seed = value().parse().expect("--seed"),
                "--vnodes" => vnodes = value().parse().expect("--vnodes"),
                "--miss-budget" => miss_budget = value().parse().expect("--miss-budget"),
                "--window" => window = value().parse().expect("--window"),
                "--heartbeat-ms" => heartbeat_ms = value().parse().expect("--heartbeat-ms"),
                "--connect-timeout-ms" => {
                    connect_timeout_ms = value().parse().expect("--connect-timeout-ms");
                }
                "--replicas" => replicas = value().parse().expect("--replicas"),
                "--failover-retries" => {
                    failover_retries = value().parse().expect("--failover-retries");
                }
                "--standby" => standby = true,
                "--peer" => {
                    let spec = value();
                    peer = Some(Endpoint::parse(&spec).unwrap_or_else(|| {
                        panic!("--peer wants tcp:ADDR or unix:PATH, got {spec}")
                    }));
                }
                "--epoch" => epoch = value().parse().expect("--epoch"),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(!nodes.is_empty(), "--node ID=ENDPOINT[,DIR] is required");
        Args {
            listen: listen.expect("--listen tcp:ADDR|unix:PATH is required"),
            nodes,
            seed,
            vnodes,
            miss_budget,
            window,
            heartbeat_ms,
            connect_timeout_ms,
            replicas,
            failover_retries,
            standby,
            peer,
            epoch,
        }
    }
}

fn main() {
    let args = Args::parse();
    let mut router = Router::new(RouterConfig {
        seed: args.seed,
        vnodes: args.vnodes,
        miss_budget: args.miss_budget,
        window_events: args.window,
        router_id: args.seed,
        connect_timeout: Duration::from_millis(args.connect_timeout_ms),
        replicas: args.replicas,
        epoch: args.epoch,
        ..RouterConfig::default()
    });
    let mut dirs: BTreeMap<u32, std::path::PathBuf> = BTreeMap::new();
    for node in &args.nodes {
        router.add_node(node.id, node.endpoint.clone());
        if let Some(dir) = &node.dir {
            dirs.insert(node.id, dir.clone());
        }
        eprintln!("latch-routerd: node {} at {}", node.id, node.endpoint);
    }
    let exporter: Exporter = Box::new(move |node| {
        let Some(dir) = dirs.get(&node) else {
            eprintln!("latch-routerd: node {node} died with no --node DIR; durable sessions stay");
            return Vec::new();
        };
        match DirStorage::open(dir) {
            Ok(mut storage) => {
                let exports = export_sessions(&mut storage);
                eprintln!(
                    "latch-routerd: node {node} died, exporting {} session(s) from {}",
                    exports.len(),
                    dir.display()
                );
                exports
            }
            Err(e) => {
                eprintln!("latch-routerd: open {} for dead node {node}: {e}", dir.display());
                Vec::new()
            }
        }
    });
    let cfg = RouterServerConfig {
        max_window_events: args.window,
        heartbeat: Duration::from_millis(args.heartbeat_ms),
        drain_failover_retries: args.failover_retries,
        standby_miss_budget: args.miss_budget,
    };
    let server = if args.standby {
        let peer = args.peer.expect("--standby needs --peer tcp:ADDR|unix:PATH");
        RouterServer::start_standby(&args.listen, router, exporter, cfg, peer)
    } else {
        RouterServer::start(&args.listen, router, exporter, cfg)
    }
    .unwrap_or_else(|e| {
        panic!("bind {}: {e}", args.listen);
    });
    eprintln!(
        "latch-routerd: listening on {}{}",
        server.endpoint(),
        if args.standby { " (standby)" } else { "" }
    );
    while !server.drained() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("latch-routerd: cluster drained, shutting down");
    server.shutdown();
}
