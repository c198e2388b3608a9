//! The real `latch-routerd` binary's exit path: a client that drains
//! the cluster through it must get its `Drained` reply before the
//! process exits 0.
//!
//! The router's main thread polls `RouterServer::drained()` and exits
//! as soon as it turns true. Each iteration starts three in-process
//! `latchd` nodes, loads 128 sessions through the router, and drains:
//! the router holds its lock across every node's drain while the main
//! thread waits on it. Every iteration must see a `Drained` reply that
//! covers every session, byte-identical to solo runs, and then a clean
//! exit.

use latch_client::Client;
use latch_faults::FaultPlan;
use latch_proto::Endpoint;
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, WireConfig, WireServer};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ITERATIONS: usize = 20;
const SESSIONS: u64 = 128;
const EVENTS: u64 = 96;

fn stream(session: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[session as usize % profiles.len()].stream(0xD7A2 + session, EVENTS);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

fn start_node() -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        ServeConfig::default(),
        DurableConfig::default(),
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

/// The spawned router, killed if the test fails before it exits on its
/// own.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `latch-routerd` over `nodes` on a kernel-assigned loopback
/// port. Returns it, the endpoint it reports once listening, and the
/// thread that keeps reading its stderr so it never blocks on a full
/// pipe.
fn spawn_routerd(nodes: &[WireServer<MemStorage>]) -> (Daemon, Endpoint, JoinHandle<()>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_latch-routerd"));
    // No heartbeat thread: nothing fails here, and without it the
    // router's shutdown is as quick as a node's, which leaves the
    // drain reply the least slack.
    cmd.args(["--listen", "tcp:127.0.0.1:0", "--heartbeat-ms", "0"]);
    for (id, node) in nodes.iter().enumerate() {
        cmd.arg("--node").arg(format!("{id}={}", node.endpoint()));
    }
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn latch-routerd");
    let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    let endpoint = loop {
        let line = lines
            .next()
            .expect("latch-routerd exited before listening")
            .expect("read latch-routerd stderr");
        if let Some(spec) = line.strip_prefix("latch-routerd: listening on ") {
            break Endpoint::parse(spec).expect("listening endpoint");
        }
    };
    let reader = std::thread::spawn(move || lines.for_each(drop));
    (Daemon(child), endpoint, reader)
}

fn wait_exit(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("wait for latch-routerd") {
            return status;
        }
        if Instant::now() > deadline {
            panic!("latch-routerd still running 10 s after its drain");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn routerd_replies_to_the_drain_before_it_exits() {
    let streams: Vec<Vec<Event>> = (0..SESSIONS).map(stream).collect();
    let solo: BTreeMap<u64, Vec<u8>> = (0..SESSIONS)
        .map(|s| {
            let mut pipe = SessionPipeline::new(ServeConfig::default().scrub_interval);
            for ev in &streams[s as usize] {
                pipe.apply(ev);
            }
            (s, pipe.report().encode())
        })
        .collect();
    for i in 0..ITERATIONS {
        let nodes: Vec<WireServer<MemStorage>> = (0..3).map(|_| start_node()).collect();
        let (mut daemon, endpoint, reader) = spawn_routerd(&nodes);
        let mut client = Client::connect(&endpoint, 1 << 14, false).expect("connect router");
        for (session, events) in streams.iter().enumerate() {
            client
                .submit(session as u64, 1, events)
                .unwrap_or_else(|e| panic!("iteration {i}: session {session} not admitted: {e:?}"));
        }
        let reports: BTreeMap<u64, Vec<u8>> = client
            .drain()
            .unwrap_or_else(|e| panic!("iteration {i}: no Drained reply: {e:?}"))
            .into_iter()
            .collect();
        assert!(
            reports == solo,
            "iteration {i}: drained reports differ from solo runs"
        );
        let status = wait_exit(&mut daemon.0);
        assert!(
            status.success(),
            "iteration {i}: latch-routerd exited with {status}"
        );
        reader.join().expect("stderr reader");
        for node in nodes {
            node.shutdown();
        }
    }
}
