//! Smoke test for the `latch-stress` harness: every scenario runs to
//! its OK line at tiny sizes, and a bad invocation is refused.

use std::process::{Command, Output};

fn stress(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_latch-stress"))
        .args(args)
        .output()
        .expect("spawn latch-stress")
}

fn passes(args: &[&str], ok_line: &str) {
    let out = stress(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.lines().any(|line| line.starts_with(ok_line)),
        "{args:?} printed no {ok_line:?} line:\n{stdout}"
    );
}

const TINY: [&str; 4] = ["--sessions", "3", "--events", "300"];

#[test]
fn crash_passes() {
    passes(
        &[&["crash", "--iters", "2"][..], &TINY].concat(),
        "crash_stress OK: 2 iters",
    );
}

#[test]
fn overload_passes() {
    passes(
        &[&["overload", "--iters", "2"][..], &TINY].concat(),
        "overload_stress OK: 2 iters",
    );
}

#[test]
fn latchd_passes() {
    passes(&[&["latchd"][..], &TINY].concat(), "latchd_stress: ok");
}

#[test]
fn cluster_passes() {
    passes(&[&["cluster"][..], &TINY].concat(), "cluster_stress: ok");
}

#[test]
fn replica_passes() {
    passes(&[&["replica"][..], &TINY].concat(), "replica_stress: ok");
}

#[test]
fn router_ha_passes() {
    passes(
        &[&["router-ha"][..], &TINY].concat(),
        "router_ha_stress: ok",
    );
}

#[test]
fn bad_invocations_are_refused() {
    for args in [
        &[][..],
        &["no-such-scenario"],
        &["cluster", "--dir", "unused"],
        &["latchd", "--iters", "2"],
        &["crash", "--seed"],
        &["replica", "--events", "many"],
    ] {
        let out = stress(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} was not refused");
    }
}
