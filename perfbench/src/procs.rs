//! Serving processes: spawn, readiness, CPU and memory sampling, stop.
//!
//! Readiness comes from the server's own `listening on ENDPOINT` stderr
//! line (which also carries the kernel-assigned port); the harness never
//! sleep-polls. Every spawned pid is registered so the watchdog can kill
//! it, and [`Server`] kills and reaps its child on drop.

use latch_proto::Endpoint;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pids of serving processes still running, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn statfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Kills every registered serving process (watchdog path).
pub fn kill_all() {
    for &pid in LIVE.lock().expect("live pids").iter() {
        // SAFETY: plain syscall on a pid this process spawned.
        unsafe {
            kill(pid as i32, SIGKILL);
        }
    }
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

fn ns_per_tick() -> u64 {
    // SAFETY: sysconf has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    1_000_000_000 / hz.max(1) as u64
}

/// The filesystem type of `path`, by `statfs` magic.
pub fn fs_type(path: &Path) -> String {
    let c = std::ffi::CString::new(path.as_os_str().as_encoded_bytes()).expect("path");
    // `struct statfs` is 120 bytes on 64-bit Linux with `f_type` first;
    // the buffer leaves room to spare.
    let mut buf = [0u64; 32];
    // SAFETY: `c` is NUL-terminated and `buf` outlives the call.
    if unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) } != 0 {
        return "unknown".to_string();
    }
    match buf[0] {
        0x0102_1994 => "tmpfs".to_string(),
        0xEF53 => "ext4".to_string(),
        0x5846_5342 => "xfs".to_string(),
        0x9123_683E => "btrfs".to_string(),
        0x794C_7630 => "overlayfs".to_string(),
        other => format!("0x{other:x}"),
    }
}

/// Host-wide CPU time split, from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct HostCpu {
    busy: u64,
    steal: u64,
}

impl HostCpu {
    pub fn read() -> HostCpu {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        HostCpu {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// steal / (user + system + steal) between two readings, in percent.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            return 0.0;
        }
        100.0 * steal as f64 / (busy + steal) as f64
    }
}

/// One spawned serving process.
pub struct Server {
    pub label: String,
    child: Option<Child>,
    pub endpoint: Endpoint,
    stderr: Option<JoinHandle<Vec<String>>>,
}

/// A spawned serving process that has not reported readiness yet.
pub struct Pending {
    server: Server,
    ready: mpsc::Receiver<String>,
}

impl Pending {
    /// Waits for the process's `listening on ENDPOINT` line.
    pub fn ready(mut self, timeout: Duration) -> Result<Server, String> {
        let label = self.server.label.clone();
        match self.ready.recv_timeout(timeout) {
            Ok(ep) => {
                self.server.endpoint = Endpoint::parse(&ep)
                    .ok_or_else(|| format!("{label}: bad endpoint {ep:?} in its stderr"))?;
                Ok(self.server)
            }
            Err(_) => {
                let lines = self.server.stop();
                Err(format!(
                    "{label} never reported `listening on`; stderr:\n{}",
                    lines.join("\n")
                ))
            }
        }
    }
}

impl Server {
    /// Spawns `cmd`; readiness is awaited through the returned handle.
    pub fn spawn(label: &str, mut cmd: Command) -> Result<Pending, String> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| format!("spawn {label}: {e}"))?;
        LIVE.lock().expect("live pids").push(child.id());
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining stderr after readiness so the child
        // never blocks on a full pipe; it returns every line at EOF.
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some((_, ep)) = line.split_once("listening on ") {
                    let ep = ep.split_whitespace().next().unwrap_or("").to_string();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(ep);
                    }
                }
                lines.push(line);
            }
            lines
        });
        Ok(Pending {
            server: Server {
                label: label.to_string(),
                child: Some(child),
                endpoint: Endpoint::Tcp(String::new()),
                stderr: Some(reader),
            },
            ready: rx,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// User + system CPU of the whole process so far, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        let text =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        (ticks(11) + ticks(12)) * ns_per_tick()
    }

    /// Peak resident set (`VmHWM`), in KiB.
    pub fn hwm_kib(&self) -> u64 {
        let text =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Waits up to `timeout` for the process to exit on its own (after a
    /// drain), then kills it. Returns its stderr lines.
    pub fn finish(mut self, timeout: Duration) -> (bool, Vec<String>) {
        let deadline = Instant::now() + timeout;
        let mut exited = false;
        if let Some(child) = self.child.as_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        exited = status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => break,
                }
            }
        }
        (exited, self.stop())
    }

    /// Kills (if still running) and reaps the process; returns stderr.
    pub fn stop(&mut self) -> Vec<String> {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            LIVE.lock().expect("live pids").retain(|&p| p != child.id());
        }
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
