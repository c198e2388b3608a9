//! `latchd --slo-cycles`: the flag arms SLO telemetry and prioritized
//! shedding, and nothing else.
//!
//! With a 1-cycle target every SLO cut breaches. One raw-frame
//! connection that asked for telemetry submits Normal events until at
//! least 16 batches (the default report cadence) have completed, then
//! a Bulk batch. The breaching cuts must arrive as `SloPush` frames,
//! the Bulk batch must be shed, and the drain must still reply with
//! the Normal session's report, byte-identical to a solo run.

mod common;

use common::{spawn_latchd, wait_exit};
use latch_proto::{priority, read_msg, write_msg, Msg, WireRejected, WireSlo};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::net::TcpStream;

/// Events per `Submit`; also the granted window, so every submit
/// pumps the service before its reply.
const CHUNK: usize = 256;

/// Sends `msg` and returns the next reply that is not an `SloPush`,
/// collecting the pushes read on the way into `pushes`.
fn request(conn: &mut TcpStream, msg: &Msg, pushes: &mut Vec<WireSlo>) -> Msg {
    write_msg(conn, msg).expect("send");
    loop {
        match read_msg(conn).expect("read reply") {
            Some(Msg::SloPush(slo)) => pushes.push(slo),
            Some(reply) => return reply,
            None => panic!("latchd closed the connection"),
        }
    }
}

#[test]
fn slo_cycles_arms_shedding_and_telemetry() {
    let dir = std::env::temp_dir().join(format!("latchd-slo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut daemon, addr, reader) = spawn_latchd(&dir, &["--slo-cycles", "1"]);
    let mut conn = TcpStream::connect(addr.as_str()).expect("connect latchd");
    let mut pushes = Vec::new();
    let hello = Msg::Hello {
        version: latch_proto::PROTO_VERSION,
        window_events: CHUNK as u32,
        want_slo: true,
    };
    assert!(matches!(
        request(&mut conn, &hello, &mut pushes),
        Msg::HelloAck { .. }
    ));

    // 2048 events are 32 batches of the default 64: two cuts at the
    // default cadence of 16.
    let cfg = latch_serve::ServeConfig::default();
    let mut src = all_profiles()[0].stream(0x510, 2_048);
    let mut events: Vec<Event> = Vec::new();
    while let Some(ev) = src.next_event() {
        events.push(ev);
    }
    assert!(events.len() >= 16 * cfg.batch_max);
    for chunk in events.chunks(CHUNK) {
        let submit = Msg::Submit {
            session: 0,
            priority: priority::NORMAL,
            events: chunk.to_vec(),
        };
        match request(&mut conn, &submit, &mut pushes) {
            Msg::SubmitOk { .. } => {}
            other => panic!("a Normal batch was refused: {other:?}"),
        }
    }

    let bulk = Msg::Submit {
        session: 1,
        priority: priority::BULK,
        events: events[..CHUNK].to_vec(),
    };
    match request(&mut conn, &bulk, &mut pushes) {
        Msg::SubmitRejected {
            session: 1,
            rejected: WireRejected::Shed { .. },
        } => {}
        other => panic!("the Bulk batch was not shed: {other:?}"),
    }
    assert!(
        pushes.iter().any(|slo| slo.breach),
        "no breaching SloPush arrived: {pushes:?}"
    );

    let mut solo = SessionPipeline::new(cfg.scrub_interval);
    for ev in &events {
        solo.apply(ev);
    }
    match request(&mut conn, &Msg::Drain, &mut pushes) {
        Msg::Drained { reports } => {
            assert_eq!(reports, vec![(0, solo.report().encode())]);
        }
        other => panic!("expected Drained, got {other:?}"),
    }
    let status = wait_exit(&mut daemon.0);
    assert!(status.success(), "latchd exited with {status}");
    reader.join().expect("stderr reader");
    let _ = std::fs::remove_dir_all(&dir);
}
