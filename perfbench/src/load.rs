//! One load phase against real serving processes over loopback TCP.
//!
//! Set-up starts the fleet several times from the same initial state
//! directory and keeps the last start; `setup_s` is the median time from
//! spawning the processes to the first `HelloAck`. The kept start's
//! readiness probe is the first load connection itself, so a phase opens
//! exactly `conns` client connections.
//!
//! The load is a closed loop: one thread per connection, each sending
//! its next 256-event `Submit` only after the previous ack. A refused
//! batch is resent unchanged. The main thread samples the fleet's CPU at
//! every window boundary, and the phase drains over connection 0.

use crate::procs::{self, HostCpu, Pending, Server};
use crate::trace::Tracer;
use crate::workload::{Picker, Plan, Topology, WINDOW};
use latch_client::{Client, ClientError};
use latch_proto::{Endpoint, WireRejected};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Measured windows per load phase: one per second, at least ten. Rate
/// and CPU figures are medians over windows. One more window of the
/// same length runs first as warm-up and is not measured.
pub fn windows(seconds: f64) -> usize {
    (seconds.round() as usize).clamp(10, 120)
}

/// In a traced phase only odd windows trace, so the even ones measure
/// the same phase untraced and the gap between them is the tracing
/// overhead under the same host conditions. Window 0 is the warm-up.
pub fn is_traced_window(k: usize) -> bool {
    k % 2 == 1
}

/// In a traced window each connection pings after every this many acks.
const PING_EVERY: u64 = 8;
/// A batch refused this many times in a row fails its connection.
const MAX_RESENDS: u32 = 10_000;

pub struct Env {
    pub bin_dir: PathBuf,
    pub work: PathBuf,
}

/// The serving processes of one start; the front door is the last one.
pub struct Fleet {
    pub servers: Vec<Server>,
}

impl Fleet {
    fn front(&self) -> &Endpoint {
        &self.servers.last().expect("fleet is never empty").endpoint
    }

    pub fn cpu_ns(&self) -> u64 {
        self.servers.iter().map(Server::cpu_ns).sum()
    }

    pub fn hwm_kib(&self) -> u64 {
        self.servers.iter().map(Server::hwm_kib).sum()
    }
}

const READY_TIMEOUT: Duration = Duration::from_secs(60);

fn latchd(env: &Env, label: &str, dir: &Path) -> Result<Pending, String> {
    let mut cmd = Command::new(env.bin_dir.join("latchd"));
    cmd.arg("--listen")
        .arg("tcp:127.0.0.1:0")
        .arg("--dir")
        .arg(dir);
    Server::spawn(label, cmd)
}

/// Copies a flat state directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Starts the fleet on fresh state directories under `dir` (seeded from
/// `initial` when given) and completes one handshake through its front
/// door. Returns the fleet, that connection, and the elapsed seconds.
fn cold_start(
    env: &Env,
    plan: &Plan,
    dir: &Path,
    initial: Option<&Path>,
) -> Result<(Fleet, Client, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let node_dirs: Vec<PathBuf> = match plan.workload.topology {
        Topology::Latchd => vec![dir.join("latchd")],
        Topology::Cluster => (0..3).map(|n| dir.join(format!("node-{n}"))).collect(),
    };
    for d in &node_dirs {
        match initial {
            Some(src) => copy_dir(src, d)?,
            None => std::fs::create_dir_all(d).map_err(|e| e.to_string())?,
        }
    }
    // Nodes start in parallel; the router needs their ports, so it
    // starts once every node has reported its endpoint.
    let t0 = Instant::now();
    let pending: Vec<Pending> = node_dirs
        .iter()
        .enumerate()
        .map(|(n, d)| latchd(env, &format!("latchd-{n}"), d))
        .collect::<Result<_, _>>()?;
    let mut servers = Vec::new();
    for p in pending {
        servers.push(p.ready(READY_TIMEOUT)?);
    }
    if plan.workload.topology == Topology::Cluster {
        let mut cmd = Command::new(env.bin_dir.join("latch-routerd"));
        cmd.arg("--listen")
            .arg("tcp:127.0.0.1:0")
            .arg("--replicas")
            .arg("1");
        for (n, (srv, d)) in servers.iter().zip(&node_dirs).enumerate() {
            cmd.arg("--node")
                .arg(format!("{n}={},{}", srv.endpoint, d.display()));
        }
        servers.push(Server::spawn("latch-routerd", cmd)?.ready(READY_TIMEOUT)?);
    }
    let fleet = Fleet { servers };
    let client = Client::connect(fleet.front(), WINDOW, false)
        .map_err(|e| format!("hello to {}: {e}", fleet.front()))?;
    Ok((fleet, client, t0.elapsed().as_secs_f64()))
}

/// One acked batch, timed from its first send (refusals and resends
/// count against it) to its ack.
pub struct Sample {
    pub send_ns: u64,
    pub ack_ns: u64,
    pub events: u32,
}

/// One acked batch, as its connection saw the ack.
#[derive(Clone, Copy)]
pub struct Acked {
    pub ack_ns: u64,
    pub conn: u8,
    /// Position among its connection's acks.
    pub seq: u32,
    pub session: u32,
    /// Index of the batch in the session's history.
    pub index: u32,
}

pub struct ConnOut {
    pub client: Option<Client>,
    pub samples: Vec<Sample>,
    pub log: Vec<Acked>,
    /// Batches acked per session (indexed like `Plan::sessions`).
    pub acked: Vec<u64>,
    /// `Submit` frames sent, resends included.
    pub sent: u64,
    pub refused: u64,
    pub errors: Vec<String>,
    pub cpu_ns: u64,
    /// Spans of traced windows; `batch` is the connection's ack `seq`.
    pub tracer: Option<Tracer>,
}

/// Submits one batch, resending it unchanged while it is refused with
/// backpressure. Returns when it is acked or the connection failed.
fn deliver(
    client: &mut Client,
    out: &mut ConnOut,
    id: u64,
    events: &[latch_sim::event::Event],
) -> Result<(), String> {
    for _ in 0..=MAX_RESENDS {
        out.sent += 1;
        match client.submit(id, 1, events) {
            Ok(()) => return Ok(()),
            Err(ClientError::Rejected(
                WireRejected::SessionBusy { .. } | WireRejected::QueueFull { .. },
            )) => out.refused += 1,
            Err(e) => return Err(format!("session {id}: {e}")),
        }
    }
    Err(format!(
        "session {id}: refused {MAX_RESENDS} times in a row"
    ))
}

fn drive(
    plan: &Plan,
    conn: usize,
    mut client: Client,
    start: Instant,
    window_ns: u64,
    deadline: Instant,
    traced: Option<Instant>,
) -> ConnOut {
    let cpu0 = procs::thread_cpu_ns();
    let mut picker = Picker::new(plan, conn);
    let mut out = ConnOut {
        client: None,
        samples: Vec::new(),
        log: Vec::new(),
        acked: vec![0; plan.sessions.len()],
        sent: 0,
        refused: 0,
        errors: Vec::new(),
        cpu_ns: 0,
        tracer: traced.map(Tracer::new),
    };
    let mut pings = 0u64;
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let window = (t0.duration_since(start).as_nanos() as u64 / window_ns) as usize;
        let tracing = out.tracer.is_some() && is_traced_window(window);
        let s = picker.next();
        let index = plan.seeded_batches + out.acked[s];
        let events = plan.batch(s, index);
        if let Err(e) = deliver(&mut client, &mut out, plan.sessions[s].id, events) {
            out.errors.push(format!("conn {conn} {e}"));
            break;
        }
        let t1 = Instant::now();
        let seq = out.log.len() as u32;
        let ack_ns = t1.duration_since(start).as_nanos() as u64;
        out.samples.push(Sample {
            send_ns: t0.duration_since(start).as_nanos() as u64,
            ack_ns,
            events: events.len() as u32,
        });
        out.log.push(Acked {
            ack_ns,
            conn: conn as u8,
            seq,
            session: s as u32,
            index: index as u32,
        });
        out.acked[s] += 1;
        let Some(tr) = out.tracer.as_mut().filter(|_| tracing) else {
            continue;
        };
        tr.record("client.submit", t0, t1, seq);
        if u64::from(seq).is_multiple_of(PING_EVERY) {
            let t0 = Instant::now();
            let pong = client.ping(pings);
            let t1 = Instant::now();
            match pong {
                Ok(token) if token == pings => tr.record("wire.ping", t0, t1, seq),
                Ok(token) => {
                    out.errors
                        .push(format!("conn {conn}: ping {pings} echoed {token}"));
                    break;
                }
                Err(e) => {
                    out.errors.push(format!("conn {conn}: ping: {e}"));
                    break;
                }
            }
            pings += 1;
        }
    }
    out.cpu_ns = procs::thread_cpu_ns() - cpu0;
    out.client = Some(client);
    out
}

/// What one load phase measured. Per-window series have `windows + 1`
/// entries: window 0 is the warm-up.
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub conns: Vec<ConnOut>,
    /// Fleet CPU at each window boundary.
    pub cpu_marks: Vec<u64>,
    /// Measured windows.
    pub windows: usize,
    pub window_ns: u64,
    pub wall_s: f64,
    pub steal_pct: f64,
    /// Host steal from the first cold start to the end of the warm-up
    /// window: cold starts are too short to resolve in `/proc/stat` ticks.
    pub setup_steal_pct: f64,
    /// Host steal share of each window, in percent.
    pub steal_windows: Vec<f64>,
    pub rss_kib: u64,
    pub reports: Vec<(u64, Vec<u8>)>,
    pub errors: Vec<String>,
    pub state_fs: String,
}

impl Phase {
    /// Batches acked per session during the load.
    pub fn acked(&self) -> Vec<u64> {
        let n = self.conns.first().map_or(0, |c| c.acked.len());
        (0..n)
            .map(|s| self.conns.iter().map(|c| c.acked[s]).sum())
            .collect()
    }

    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.conns.iter().flat_map(|c| c.samples.iter())
    }

    /// Every acked batch, ordered by ack time. A batch's position here is
    /// the `batch` id its spans carry in every trace track.
    pub fn log(&self) -> Vec<Acked> {
        let mut log: Vec<Acked> = self
            .conns
            .iter()
            .flat_map(|c| c.log.iter().copied())
            .collect();
        log.sort_by_key(|a| a.ack_ns);
        log
    }
}

/// Runs one phase: cold starts, a warm-up window, closed-loop load for
/// `seconds`, drain.
pub fn run(
    env: &Env,
    plan: &Plan,
    tag: &str,
    initial: Option<&Path>,
    seconds: f64,
    traced: Option<Instant>,
) -> Result<Phase, String> {
    let root = env.work.join(tag);
    let setup_host = HostCpu::read();
    let starts = plan.workload.cold_starts.max(1);
    let mut setup_s = Vec::with_capacity(starts);
    let mut kept = None;
    for k in 0..starts {
        let dir = root.join(format!("start-{k}"));
        let (fleet, client, secs) = cold_start(env, plan, &dir, initial)?;
        setup_s.push(secs);
        if k + 1 == starts {
            kept = Some((fleet, client, dir));
        } else {
            drop(client);
            drop(fleet);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (fleet, first, dir) = kept.expect("at least one start");
    let state_fs = procs::fs_type(&dir);
    let mut clients = vec![first];
    for _ in 1..plan.workload.conns {
        clients.push(
            Client::connect(fleet.front(), WINDOW, false)
                .map_err(|e| format!("connect load connection: {e}"))?,
        );
    }

    let windows = windows(seconds);
    let window_ns = (seconds * 1e9 / windows as f64) as u64;
    let host0 = HostCpu::read();
    let mut host_marks = vec![host0];
    let mut cpu_marks = vec![fleet.cpu_ns()];
    let start = Instant::now();
    let deadline = start + Duration::from_nanos(window_ns * (windows + 1) as u64);
    let conns: Vec<ConnOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || drive(plan, conn, client, start, window_ns, deadline, traced))
            })
            .collect();
        for k in 1..=windows + 1 {
            let mark = start + Duration::from_nanos(window_ns * k as u64);
            let now = Instant::now();
            if mark > now {
                std::thread::sleep(mark - now);
            }
            cpu_marks.push(fleet.cpu_ns());
            host_marks.push(HostCpu::read());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal_pct = host_marks[windows + 1].steal_pct_since(&host_marks[1]);
    let setup_steal_pct = host_marks[1].steal_pct_since(&setup_host);
    let steal_windows = host_marks
        .windows(2)
        .map(|w| w[1].steal_pct_since(&w[0]))
        .collect();
    let rss_kib = fleet.hwm_kib();

    let mut conns = conns;
    let mut errors: Vec<String> = conns
        .iter()
        .flat_map(|c| c.errors.iter().cloned())
        .collect();
    let mut reports = Vec::new();
    let drained = match conns[0].client.as_mut().expect("client returned").drain() {
        Ok(r) => {
            reports = r;
            true
        }
        Err(e) => {
            errors.push(format!("drain: {e}"));
            false
        }
    };
    for c in &mut conns {
        c.client = None;
    }
    for server in fleet.servers {
        let label = server.label.clone();
        let (clean, stderr) = server.finish(Duration::from_secs(20));
        // After a failed drain, how each process ended is the evidence
        // of what went wrong, so it is kept either way.
        if !clean || !drained {
            let how = if clean {
                "exited with status 0"
            } else {
                "did not exit cleanly"
            };
            let tail = &stderr[stderr.len().saturating_sub(5)..];
            errors.push(format!(
                "{label} {how} after the drain; last stderr lines: {}",
                tail.join(" | ")
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(Phase {
        setup_s,
        conns,
        cpu_marks,
        windows,
        window_ns,
        wall_s,
        steal_pct,
        setup_steal_pct,
        steal_windows,
        rss_kib,
        reports,
        errors,
        state_fs,
    })
}
