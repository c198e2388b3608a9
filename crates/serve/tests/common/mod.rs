//! Spawning the real `latchd` binary, for the tests that drive it over
//! loopback.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The spawned daemon, killed if the test fails before it exits on its
/// own.
pub struct Daemon(pub Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `latchd` on a kernel-assigned loopback port with `--dir
/// dir` and the flags in `extra`. Returns it, the address it reports
/// on stderr once listening, and the thread that keeps reading its
/// stderr so it never blocks on a full pipe.
pub fn spawn_latchd(dir: &Path, extra: &[&str]) -> (Daemon, String, JoinHandle<()>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_latchd"))
        .args(["--listen", "tcp:127.0.0.1:0", "--dir"])
        .arg(dir)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn latchd");
    let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("latchd exited before listening")
            .expect("read latchd stderr");
        if let Some(addr) = line.strip_prefix("latchd: listening on tcp:") {
            break addr.to_string();
        }
    };
    let reader = std::thread::spawn(move || lines.for_each(drop));
    (Daemon(child), addr, reader)
}

/// Waits up to 10 s for `latchd` to exit after its drain.
pub fn wait_exit(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("wait for latchd") {
            return status;
        }
        if Instant::now() > deadline {
            panic!("latchd still running 10 s after its drain");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
