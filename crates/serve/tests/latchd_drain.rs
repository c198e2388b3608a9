//! The real `latchd` binary's exit path: a client that drains the
//! daemon must get its `Drained` reply before the process exits 0.
//!
//! The daemon's main thread polls `WireServer::drained()` and exits as
//! soon as it turns true. Each iteration loads 128 sessions through one
//! raw-frame connection with a window wide enough that nothing runs
//! before the drain, so the drain holds the server lock while the main
//! thread waits on it. Every iteration must see a `Drained` reply that
//! covers every session, byte-identical to solo runs, and then a clean
//! exit.

mod common;

use common::{spawn_latchd, wait_exit};
use latch_proto::{read_msg, write_msg, Msg};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::BTreeMap;
use std::net::TcpStream;

const ITERATIONS: usize = 20;
const SESSIONS: u64 = 128;
const EVENTS: u64 = 96;

fn stream(session: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[session as usize % profiles.len()].stream(0xD7A1 + session, EVENTS);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

#[test]
fn latchd_replies_to_the_drain_before_it_exits() {
    let streams: Vec<Vec<Event>> = (0..SESSIONS).map(stream).collect();
    let solo: BTreeMap<u64, Vec<u8>> = (0..SESSIONS)
        .map(|s| {
            let mut pipe = SessionPipeline::new(latch_serve::ServeConfig::default().scrub_interval);
            for ev in &streams[s as usize] {
                pipe.apply(ev);
            }
            (s, pipe.report().encode())
        })
        .collect();
    for i in 0..ITERATIONS {
        let dir = std::env::temp_dir().join(format!("latchd-drain-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut daemon, addr, reader) = spawn_latchd(&dir, &[]);
        let mut conn = TcpStream::connect(addr.as_str()).expect("connect latchd");
        write_msg(
            &mut conn,
            &Msg::Hello {
                version: latch_proto::PROTO_VERSION,
                window_events: 1 << 14,
                want_slo: false,
            },
        )
        .expect("hello");
        assert!(matches!(
            read_msg(&mut conn).expect("hello ack"),
            Some(Msg::HelloAck { .. })
        ));
        for (session, events) in streams.iter().enumerate() {
            write_msg(
                &mut conn,
                &Msg::Submit {
                    session: session as u64,
                    priority: 1,
                    events: events.clone(),
                },
            )
            .expect("submit");
            match read_msg(&mut conn).expect("submit reply") {
                Some(Msg::SubmitOk { .. }) => {}
                other => panic!("iteration {i}: session {session} not admitted: {other:?}"),
            }
        }
        write_msg(&mut conn, &Msg::Drain).expect("drain");
        let reports: BTreeMap<u64, Vec<u8>> = match read_msg(&mut conn) {
            Ok(Some(Msg::Drained { reports })) => reports.into_iter().collect(),
            other => panic!("iteration {i}: expected Drained, got {other:?}"),
        };
        assert!(
            reports == solo,
            "iteration {i}: drained reports differ from solo runs"
        );
        let status = wait_exit(&mut daemon.0);
        assert!(
            status.success(),
            "iteration {i}: latchd exited with {status}"
        );
        reader.join().expect("stderr reader");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
