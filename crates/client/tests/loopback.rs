//! End-to-end loopback tests: a real [`WireServer`] on one side, a
//! real [`Client`] on the other, TCP and Unix transports, byte-level
//! equality against solo in-process runs — including under a seeded
//! overload plan that actually sheds — and hostile-bytes fail-closed
//! behaviour.

use latch_client::{Client, ClientError};
use latch_faults::FaultPlan;
use latch_proto::{Endpoint, WireRejected};
use latch_serve::{
    DurableConfig, DurableService, MemStorage, ServeConfig, Slo, WireConfig, WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::BTreeMap;
use std::io::Write;

fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

fn overloaded_config() -> ServeConfig {
    ServeConfig {
        queue_events: 512,
        batch_max: 32,
        max_resident: 2,
        slo: Slo {
            slo_cycles: 2,
            window: 32,
            report_every: 4,
            queue_pressure_pct: 50,
        },
        ..ServeConfig::default()
    }
}

fn start(cfg: ServeConfig, endpoint: &Endpoint) -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        cfg,
        DurableConfig::default(),
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    WireServer::start(endpoint, svc, WireConfig::default()).expect("bind loopback")
}

fn unix_endpoint(tag: &str) -> Endpoint {
    Endpoint::Unix(std::env::temp_dir().join(format!(
        "latch-client-{tag}-{}.sock",
        std::process::id()
    )))
}

fn solo_report(events: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut solo = SessionPipeline::new(scrub_interval);
    for ev in events {
        solo.apply(ev);
    }
    solo.report().encode()
}

/// Drives `sessions` full streams through one client connection in
/// round-robin chunks and returns per-session admitted events plus the
/// drained report bytes.
fn drive_and_drain(
    client: &mut Client,
    streams: &[Vec<Event>],
) -> (Vec<Vec<Event>>, BTreeMap<u64, Vec<u8>>) {
    const CHUNK: usize = 48;
    let mut admitted: Vec<Vec<Event>> = vec![Vec::new(); streams.len()];
    let mut pos = vec![0usize; streams.len()];
    let mut rounds = 0u64;
    while pos.iter().zip(streams).any(|(&p, s)| p < s.len()) {
        assert!(rounds < 1_000_000, "drive failed to make progress");
        for (i, events) in streams.iter().enumerate() {
            if pos[i] >= events.len() {
                continue;
            }
            let take = CHUNK.min(events.len() - pos[i]);
            let batch = &events[pos[i]..pos[i] + take];
            match client.submit(i as u64, (i % 3) as u8, batch) {
                Ok(()) => {
                    admitted[i].extend_from_slice(batch);
                    pos[i] += take;
                }
                Err(ClientError::Rejected(WireRejected::Shed { .. })) => {
                    assert_ne!(i % 3, 0, "critical traffic was shed");
                    pos[i] += take; // dropped on purpose
                }
                Err(ClientError::Rejected(
                    WireRejected::QueueFull { .. } | WireRejected::SessionBusy { .. },
                )) => {} // retry the same chunk next round
                Err(e) => panic!("session {i}: {e}"),
            }
        }
        rounds += 1;
    }
    let reports = client.drain().expect("drain").into_iter().collect();
    (admitted, reports)
}

fn assert_wire_matches_solo(endpoint: &Endpoint, cfg: ServeConfig) {
    let scrub = cfg.scrub_interval;
    let server = start(cfg, endpoint);
    let streams: Vec<Vec<Event>> = (0..3).map(|s| stream(s, 0xE2E + s as u64, 400)).collect();
    let mut client = Client::connect(server.endpoint(), 256, false).expect("connect");
    let (admitted, reports) = drive_and_drain(&mut client, &streams);
    for (i, events) in admitted.iter().enumerate() {
        match reports.get(&(i as u64)) {
            Some(bytes) => assert_eq!(
                *bytes,
                solo_report(events, scrub),
                "session {i}: wire report diverged from a solo run"
            ),
            None => assert!(events.is_empty(), "session {i}: admitted but unreported"),
        }
    }
    server.shutdown();
}

#[test]
fn tcp_loopback_reports_match_solo_runs() {
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    assert_wire_matches_solo(&endpoint, ServeConfig::default());
}

#[test]
fn unix_loopback_reports_match_solo_runs() {
    let endpoint = unix_endpoint("quiet");
    assert_wire_matches_solo(&endpoint, ServeConfig::default());
}

#[test]
fn overloaded_server_sheds_and_still_matches_solo_runs() {
    // An armed SLO: sheds fire for non-critical sessions, and every
    // session's report must still equal a solo run of exactly the
    // admitted (non-shed) stream.
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    assert_wire_matches_solo(&endpoint, overloaded_config());
}

#[test]
fn report_is_typed_before_drain_and_served_after() {
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    let cfg = ServeConfig::default();
    let scrub = cfg.scrub_interval;
    let server = start(cfg, &endpoint);
    let events = stream(0, 77, 200);
    let mut client = Client::connect(server.endpoint(), 256, false).expect("connect");
    client.submit(5, 0, &events).expect("submit");

    // Before drain: a typed NOT_DRAINED answer, not a hang or a close.
    let err = client.report(5).expect_err("report before drain");
    assert!(latch_client::is_not_drained(&err), "got {err}");

    let reports = client.drain().expect("drain");
    assert_eq!(reports.len(), 1);
    let (applied, bytes) = client.report(5).expect("report after drain");
    assert_eq!(applied, events.len() as u64);
    assert_eq!(bytes, solo_report(&events, scrub));
    assert_eq!(bytes, reports[0].1);

    // Unknown session: typed protocol error.
    let err = client.report(999).expect_err("unknown session");
    assert!(
        matches!(err, ClientError::Server { code } if code == latch_proto::error_code::PROTOCOL),
        "got {err}"
    );

    // Drain is idempotent.
    let again = client.drain().expect("second drain");
    assert_eq!(again, reports);

    // Submissions after drain are rejected shut, not dropped.
    let err = client.submit(5, 0, &events).expect_err("submit after drain");
    assert!(
        matches!(
            err,
            ClientError::Rejected(WireRejected::ShuttingDown)
        ),
        "got {err}"
    );
    server.shutdown();
}

#[test]
fn slo_pushes_stream_to_subscribed_connections() {
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    let server = start(overloaded_config(), &endpoint);
    let streams: Vec<Vec<Event>> = (0..2).map(|s| stream(s, 0x510 + s as u64, 600)).collect();
    let mut client = Client::connect(server.endpoint(), 128, true).expect("connect");
    let _ = drive_and_drain(&mut client, &streams);
    let pushes = client.take_slo_reports();
    assert!(
        !pushes.is_empty(),
        "an armed SLO under pressure must cut at least one report"
    );
    // Cuts arrive in batch order; the cursor never replays one.
    for pair in pushes.windows(2) {
        assert!(pair[0].at_batch < pair[1].at_batch, "duplicate or reordered SLO push");
    }
    server.shutdown();
}

/// A service that cuts more than twice the SLO reports it keeps: a
/// connection subscribed from the start is pushed every cut once, in
/// order; one that opens late, and one that opens after the drain, get
/// exactly the kept window, the newest cuts, with no gap or duplicate.
#[test]
fn slo_reports_stay_bounded_and_pushes_never_repeat_or_skip() {
    use latch_serve::SLO_REPORTS_KEPT;
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    let cfg = ServeConfig {
        batch_max: 1, // one batch, and one cut, per event
        slo: Slo {
            slo_cycles: u64::MAX,
            window: 8,
            report_every: 1,
            queue_pressure_pct: 100,
        },
        ..ServeConfig::default()
    };
    let server = start(cfg, &endpoint);
    let events = stream(8, 0x51C, 2 * SLO_REPORTS_KEPT as u64 + 640);
    let cuts = events.len() as u64;
    // The pushes a reply draws follow it, so the next call reads them:
    // a ping collects what the previous reply drew.
    let flush = |c: &mut Client| -> Vec<u64> {
        c.ping(0).expect("ping");
        c.take_slo_reports().iter().map(|r| r.at_batch).collect()
    };
    // A 128-event window pumps every 128 events, far fewer than the
    // kept window, so the early connection never falls behind.
    let mut early = Client::connect(server.endpoint(), 128, true).expect("connect");
    for chunk in events.chunks(64) {
        early.submit(0, 1, chunk).expect("never shed");
    }
    let mut pushed = flush(&mut early);
    // A connection that opens now gets the kept window, the newest
    // cuts so far, and then only what follows them.
    let mut late = Client::connect(server.endpoint(), 128, true).expect("connect");
    late.ping(1).expect("ping");
    let mut joined = flush(&mut late);
    assert_eq!(joined.len(), SLO_REPORTS_KEPT);
    assert_eq!(joined.last(), pushed.last());
    early.drain().expect("drain");
    pushed.extend(flush(&mut early));
    joined.extend(flush(&mut late));
    assert!(flush(&mut late).is_empty(), "a cut pushed twice");
    assert!(
        pushed == (1..=cuts).collect::<Vec<_>>(),
        "early: a gap or duplicate"
    );
    assert!(
        joined == pushed[pushed.len() - joined.len()..],
        "late: a gap or duplicate"
    );
    // After the drain, a new connection gets the last kept window.
    let mut after = Client::connect(server.endpoint(), 128, true).expect("connect");
    after.ping(2).expect("ping");
    let tail = flush(&mut after);
    assert!(
        tail == pushed[pushed.len() - SLO_REPORTS_KEPT..],
        "after drain"
    );
    server.shutdown();
}

#[test]
fn garbage_fed_connection_fails_closed_without_wedging_the_server() {
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    let cfg = ServeConfig::default();
    let scrub = cfg.scrub_interval;
    let server = start(cfg, &endpoint);
    // Port discipline: bind port 0, read the kernel's choice back.
    let addr = server.local_addr().expect("TCP listener has an address");

    // A connection that speaks pure garbage: the server must close it
    // (fail-closed) without taking the accept loop down.
    let mut garbage = std::net::TcpStream::connect(addr).expect("connect");
    garbage
        .write_all(&[0xFF; 64])
        .expect("garbage bytes accepted by the kernel");
    garbage.flush().unwrap();

    // A connection whose *frame* is valid but whose first message is
    // not a Hello: also failed closed, with a typed reply first.
    let proto_violation = Endpoint::Tcp(addr.to_string());
    let mut early = std::net::TcpStream::connect(addr).expect("connect");
    let drain_frame = latch_proto::Msg::Drain.encode().expect("encode");
    early.write_all(&drain_frame).expect("frame accepted");
    early.flush().unwrap();
    drop(proto_violation);

    // A torn frame: a header and half its payload, then EOF. The door
    // refuses it (a short frame) with one typed error frame and closes.
    use latch_proto::{read_msg, Msg, FRAME_HEADER_LEN, PROTO_VERSION};
    let mut torn = std::net::TcpStream::connect(addr).expect("connect");
    torn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let hello = Msg::Hello {
        version: PROTO_VERSION,
        window_events: 8,
        want_slo: false,
    };
    let whole = hello.encode().expect("encode");
    let half = FRAME_HEADER_LEN + (whole.len() - FRAME_HEADER_LEN) / 2;
    torn.write_all(&whole[..half]).expect("bytes accepted");
    torn.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert_eq!(
        read_msg(&mut torn).expect("the refusal frame"),
        Some(Msg::Error {
            code: latch_proto::error_code::MALFORMED
        })
    );
    assert_eq!(read_msg(&mut torn).expect("closed"), None);

    // The server still serves real clients end to end.
    let events = stream(1, 99, 150);
    let mut client = Client::connect(server.endpoint(), 256, false).expect("connect after garbage");
    client.submit(3, 1, &events).expect("submit");
    let reports = client.drain().expect("drain");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].1, solo_report(&events, scrub));

    drop(garbage);
    drop(early);
    server.shutdown();
}

/// A stopped node answers nothing: `kill()`, an undrained `shutdown()`
/// and a drop each close every client connection and join its handler
/// before they return. A batch sent on an open connection right after
/// the stop fails on the transport — never `SubmitOk`, and never a
/// typed refusal that a router would pass on instead of failing over —
/// and the service a kill hands back has admitted only the batch sent
/// before it.
#[test]
fn stopped_node_answers_nothing() {
    let cfg = ServeConfig::default();
    let events = stream(0, 0x5709, 64);
    for mode in ["kill", "shutdown", "drop"] {
        let server = start(cfg, &Endpoint::parse("tcp:127.0.0.1:0").unwrap());
        let mut client = Client::connect(server.endpoint(), 256, false).expect("connect");
        client.submit(0, 0, &events[..32]).expect("live node admits");
        let killed = match mode {
            "kill" => Some(server.kill().expect("never drained")),
            "shutdown" => {
                assert!(server.shutdown().is_none(), "never drained");
                None
            }
            _ => {
                drop(server);
                None
            }
        };
        match client.submit(0, 0, &events[32..]) {
            Err(ClientError::Io(_) | ClientError::Proto(_) | ClientError::UnexpectedReply(_)) => {}
            other => panic!("{mode}: a stopped node answered a submit: {other:?}"),
        }
        if let Some(svc) = killed {
            let (out, _storage) = svc.finish();
            assert_eq!(
                out.sessions[&0].encode(),
                solo_report(&events[..32], cfg.scrub_interval),
                "a batch sent after the kill reached the service"
            );
        }
    }
}

#[test]
fn version_mismatch_is_refused_at_the_door() {
    // A Hello carrying the wrong magic/version dies with a typed error
    // on the client side; encode a bad-version Hello by hand.
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
    let server = start(ServeConfig::default(), &endpoint);
    // Port discipline: bind port 0, read the kernel's choice back.
    let addr = server.local_addr().expect("TCP listener has an address");
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let hello = latch_proto::Msg::Hello {
        version: latch_proto::PROTO_VERSION + 1,
        window_events: 8,
        want_slo: false,
    };
    raw.write_all(&hello.encode().expect("encode")).unwrap();
    raw.flush().unwrap();
    // The server rejects the decode (BadVersion) and fails the
    // connection closed; a healthy client still connects.
    let mut client = Client::connect(server.endpoint(), 8, false).expect("connect");
    client.drain().expect("drain");
    drop(raw);
    server.shutdown();
}

/// A fake node that completes the handshake, reads one `ReplFetch`,
/// and answers it by running `answer` on the raw socket.
fn fake_fetch_node(
    answer: impl FnOnce(&mut std::net::TcpStream) + Send + 'static,
) -> (Endpoint, std::thread::JoinHandle<()>) {
    use latch_proto::{read_msg, write_msg, Msg, PROTO_VERSION};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake node");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("bound").to_string());
    let node = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let Ok(Some(Msg::Hello { window_events, .. })) = read_msg(&mut conn) else {
            panic!("expected a Hello");
        };
        let ack = Msg::HelloAck {
            version: PROTO_VERSION,
            window_events,
        };
        write_msg(&mut conn, &ack).expect("handshake");
        let Ok(Some(Msg::ReplFetch { .. })) = read_msg(&mut conn) else {
            panic!("expected a ReplFetch");
        };
        answer(&mut conn);
    });
    (endpoint, node)
}

/// Hostile answers to `ReplFetch` — chunks past the migration cap, a
/// chunk for another session, a `RESTART` chunk, chunks for a state
/// not found, EOF or a torn frame mid-answer — are typed `ClientError`s,
/// never a panic. The client refuses the chunk that would cross
/// `MAX_MIGRATION_BYTES` before keeping any of its bytes.
#[test]
fn hostile_fetch_answers_are_typed_errors() {
    use latch_proto::migrate_chunk::{LTSE_BLOB, RESTART, WAL_SUFFIX};
    use latch_proto::{Msg, MAX_MIGRATION_BYTES, MIGRATE_CHUNK_BYTES};
    const SESSION: u64 = 9;
    fn frame(msg: &Msg) -> Vec<u8> {
        msg.encode().expect("encode")
    }
    fn chunk(session: u64, kind: u8, len: usize) -> Vec<u8> {
        frame(&Msg::MigrateChunk {
            session,
            kind,
            bytes: vec![0xA5; len],
        })
    }
    fn state(found: bool) -> Vec<u8> {
        frame(&Msg::ReplState {
            session: SESSION,
            found,
            rank: 1,
            journaled: 4,
        })
    }
    let torn = {
        let whole = chunk(SESSION, LTSE_BLOB, 64);
        whole[..whole.len() / 2].to_vec()
    };
    // Each answer is a list of (bytes, times written).
    let cases = vec![
        (
            "chunks past the cap",
            vec![
                (
                    chunk(SESSION, WAL_SUFFIX, MIGRATE_CHUNK_BYTES),
                    MAX_MIGRATION_BYTES / MIGRATE_CHUNK_BYTES + 1,
                ),
                (state(true), 1),
            ],
        ),
        (
            "another session's chunk",
            vec![(chunk(SESSION + 1, WAL_SUFFIX, 16), 1), (state(true), 1)],
        ),
        (
            "a RESTART chunk",
            vec![(chunk(SESSION, RESTART, 0), 1), (state(true), 1)],
        ),
        (
            "chunks for a state not found",
            vec![(chunk(SESSION, WAL_SUFFIX, 16), 1), (state(false), 1)],
        ),
        ("EOF mid-answer", vec![(chunk(SESSION, LTSE_BLOB, 16), 1)]),
        ("a torn frame", vec![(torn, 1)]),
    ];
    for (what, answer) in cases {
        let (endpoint, node) = fake_fetch_node(move |conn| {
            // The client hangs up once it refuses; a failed write here
            // is that hang-up, not a test failure.
            for (bytes, times) in &answer {
                for _ in 0..*times {
                    if conn.write_all(bytes).is_err() {
                        return;
                    }
                }
            }
        });
        let mut client = Client::connect(&endpoint, 256, false).expect("connect fake node");
        let got = client.repl_fetch(SESSION, false);
        match (what, &got) {
            ("a torn frame", Err(ClientError::Proto(_)))
            | (_, Err(ClientError::UnexpectedReply(_))) => {}
            _ => panic!("{what}: expected a typed refusal, got {got:?}"),
        }
        drop(client);
        node.join().expect("fake node");
    }
}
