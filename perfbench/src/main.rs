//! Loopback load benchmark for `latchd` and `latch-routerd`.
//!
//! ```text
//! latch-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --bin-dir DIR --work-dir DIR
//! latch-perfbench --self-test --bin-dir DIR --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds the serving binaries and this program and
//! passes the two directories; see `perfbench/NOTES.md` for the
//! workloads and every metric's definition. The last stdout line is the
//! JSON result; earlier lines print each metric with its unit and the
//! run's diagnostics.

mod load;
mod oracle;
mod procs;
mod replay;
mod stats;
mod trace;
mod workload;

use load::{Env, Phase};
use stats::{median, percentile, result_line, Metric};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::{Trace, Tracer};
use workload::{Plan, WORKLOADS};

/// End-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("cpu_ns_per_event", "ns/event"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics of the traced run, in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.encode_ns_per_event", "ns/event"),
    ("client.cpu_ns_per_event", "ns/event"),
    ("proto.decode_ns_per_event", "ns/event"),
    ("proto.bytes_per_event", "B/event"),
    ("wire.ping_p50_us", "us"),
    ("wire.ping_p99_us", "us"),
    ("journal.encode_ns_per_event", "ns/event"),
    ("storage.fsyncs_per_kevent", "count/kevent"),
    ("storage.fsync_us", "us"),
    ("storage.wal_bytes_per_event", "B/event"),
    ("storage.snapshot_bytes_per_event", "B/event"),
    ("storage.write_atomic_us", "us"),
    ("durable.submit_ns_per_event", "ns/event"),
    ("durable.pump_ns_per_event", "ns/event"),
    ("durable.recover_ms", "ms"),
    ("sched.evictions_per_kevent", "count/kevent"),
    ("sched.restores_per_kevent", "count/kevent"),
    ("sched.dispatches_per_kevent", "count/kevent"),
    ("sched.queue_depth_hwm", "events"),
    ("session.apply_ns_per_event", "ns/event"),
    ("session.snapshot_ns_per_event", "ns/event"),
    ("session.snapshot_bytes_max", "B"),
    ("session.selected_pct", "%"),
    ("session.unselected_batch_pct", "%"),
    ("router.submit_us", "us"),
    ("router.refused_per_ksubmit", "count/ksubmit"),
    ("replica.journal_bytes_per_event", "B/event"),
    ("trace.overhead_pct", "%"),
];

/// Wall-clock cap on each in-process replay stage of a traced run.
const REPLAY_BUDGET: Duration = Duration::from_secs(8);
/// The router replay forwards and replicates every batch, so it gets a
/// shorter cap and measures a prefix of the log on the heavy workloads.
const ROUTER_BUDGET: Duration = Duration::from_secs(4);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work: PathBuf,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        work: PathBuf::new(),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value()?),
            "--work-dir" => args.work = PathBuf::from(value()?),
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.bin_dir.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err("--bin-dir and --work-dir are required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if !args.self_test && workload::by_name(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// End-to-end figures of one phase, plus the diagnostics behind them.
struct EndToEnd {
    metrics: Vec<Metric>,
    diag: Vec<(String, String)>,
}

/// The share of a window's demanded vCPU time the host granted: host
/// steal stretches every wall-clock duration by its inverse.
fn granted(steal_pct: f64) -> f64 {
    (1.0 - steal_pct / 100.0).max(0.05)
}

/// End-to-end figures over the measured windows that `keep` selects.
///
/// Rates and latencies are measured in granted time: wall time is scaled
/// by the share of vCPU time the host did not steal in its window, so a
/// steal burst on a shared host does not read as a change of the
/// program. The raw wall-clock figures are kept as diagnostics.
fn end_to_end(p: &Phase, keep: impl Fn(usize) -> bool, prefix: &str) -> EndToEnd {
    let measured = |k: usize| (1..=p.windows).contains(&k) && keep(k);
    let mut events = vec![0u64; p.windows + 1];
    let (mut lat, mut lat_wall) = (Vec::new(), Vec::new());
    for s in p.samples() {
        let k = (s.ack_ns / p.window_ns) as usize;
        if !measured(k) {
            continue;
        }
        let us = (s.ack_ns - s.send_ns) as f64 / 1e3;
        lat_wall.push(us);
        lat.push(us * granted(p.steal_windows[k]));
        events[k] += u64::from(s.events);
    }
    let window_s = p.window_ns as f64 / 1e9;
    let (mut eps, mut eps_wall, mut cpu, mut steal) = (vec![], vec![], vec![], vec![]);
    for k in (1..=p.windows).filter(|&k| measured(k)) {
        steal.push(p.steal_windows[k]);
        if events[k] == 0 {
            continue;
        }
        let rate = events[k] as f64 / window_s;
        eps_wall.push(rate);
        eps.push(rate / granted(p.steal_windows[k]));
        cpu.push((p.cpu_marks[k + 1] - p.cpu_marks[k]) as f64 / events[k] as f64);
    }
    let acks = lat.len();
    let metrics = vec![
        Metric::new("events_per_s", "events/s", median(&eps)),
        Metric::new("cpu_ns_per_event", "ns/event", median(&cpu)),
        Metric::new("ack_p50_us", "us", percentile(&mut lat, 0.50)),
        Metric::new("ack_p99_us", "us", percentile(&mut lat, 0.99)),
        Metric::new(
            "setup_s",
            "s",
            median(&p.setup_s) * granted(p.setup_steal_pct),
        ),
        Metric::new("rss_peak_mib", "MiB", p.rss_kib as f64 / 1024.0),
    ];
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let d = |k: &str| format!("{prefix}{k}");
    let diag = vec![
        (d("host_steal_pct"), format!("{:.2}", p.steal_pct)),
        (d("host_steal_pct_windows"), fmt(&steal)),
        (d("load_wall_s"), format!("{:.3}", p.wall_s)),
        (d("windows"), steal.len().to_string()),
        (d("state_fs"), p.state_fs.clone()),
        (d("acks"), acks.to_string()),
        (
            d("acks_beyond_p99"),
            (acks - (0.99 * acks as f64).ceil() as usize).to_string(),
        ),
        (d("setup_s_each"), fmt(&p.setup_s)),
        (d("setup_steal_pct"), format!("{:.2}", p.setup_steal_pct)),
        (d("wall.setup_s"), format!("{:.6}", median(&p.setup_s))),
        (d("wall.events_per_s"), format!("{:.1}", median(&eps_wall))),
        (
            d("wall.ack_p50_us"),
            format!("{:.2}", percentile(&mut lat_wall, 0.50)),
        ),
        (
            d("wall.ack_p99_us"),
            format!("{:.2}", percentile(&mut lat_wall, 0.99)),
        ),
        (d("events_per_s_windows"), fmt(&eps)),
        (d("wall.events_per_s_windows"), fmt(&eps_wall)),
        (d("cpu_ns_per_event_windows"), fmt(&cpu)),
    ];
    EndToEnd { metrics, diag }
}

/// What one invocation produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    diag: Vec<(String, String)>,
    plan: Plan,
    history: Vec<u64>,
    reports: Vec<(u64, Vec<u8>)>,
}

fn history(plan: &Plan, p: &Phase) -> Vec<u64> {
    p.acked().iter().map(|a| a + plan.seeded_batches).collect()
}

fn run(
    env: &Env,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
) -> Result<Outcome, String> {
    let wl = workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let plan = Plan::build(wl, seed, tiny);
    let work = env.work.join(wl.name);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let env = Env {
        bin_dir: env.bin_dir.clone(),
        work: work.clone(),
    };
    let initial = if plan.seeded_batches > 0 {
        let dir = work.join("seed");
        replay::seed_dir(&plan, &dir)?;
        Some(dir)
    } else {
        None
    };
    let origin = traced.then(Instant::now);
    let mut p = load::run(&env, &plan, "load", initial.as_deref(), seconds, origin)?;
    let mut problems: Vec<String> = p.errors.clone();
    let log = p.log();
    let labels = BatchLabels::new(&log);
    // In a traced run the oracle's replay is also the session layer's
    // measurement, so it runs once, traced.
    let verdict = oracle::check(
        &plan,
        &history(&plan, &p),
        &p.reports,
        origin.map(|o| (o, &labels.by_session)),
    );
    if let Err(e) = &verdict.result {
        problems.push(e.clone());
    }
    // An operation is one batch (or, in traced windows, one ping); a
    // refused submit is resent, so it fails the batch only if the
    // connection gives up on it.
    let failed: u64 = p.conns.iter().map(|c| c.errors.len() as u64).sum();
    let attempted = log.len() as u64 + failed;
    let (metrics, mut diag) = match origin {
        None => {
            let e2e = end_to_end(&p, |_| true, "");
            (e2e.metrics, e2e.diag)
        }
        Some(origin) => {
            let plain = end_to_end(&p, |k| !load::is_traced_window(k), "");
            let traced = end_to_end(&p, load::is_traced_window, "traced.");
            let mut diag = plain.diag;
            diag.extend(traced.diag);
            let mut overhead_pct = 0.0;
            for (u, t) in plain.metrics.iter().zip(&traced.metrics) {
                diag.push((format!("untraced.{}", u.name), format!("{:.4}", u.value)));
                diag.push((format!("traced.{}", t.name), format!("{:.4}", t.value)));
                if u.value > 0.0 {
                    let pct = 100.0 * (t.value - u.value) / u.value;
                    diag.push((
                        format!("trace_overhead_pct.{}", t.name),
                        format!("{pct:.2}"),
                    ));
                    if u.name == "events_per_s" {
                        overhead_pct = -pct;
                    }
                }
            }
            let traced_run = Traced {
                origin,
                log: &log,
                labels: &labels,
                solo: verdict,
                overhead_pct,
            };
            let metrics = per_layer(
                &env,
                &plan,
                &mut p,
                initial.as_deref(),
                traced_run,
                &mut problems,
                &mut diag,
            )?;
            (metrics, diag)
        }
    };
    let count = |f: fn(&load::ConnOut) -> u64| p.conns.iter().map(f).sum::<u64>().to_string();
    diag.push(("submits_sent".to_string(), count(|c| c.sent)));
    diag.push(("submits_refused".to_string(), count(|c| c.refused)));
    diag.push(("submits_errored".to_string(), failed.to_string()));
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    diag.push(("available_parallelism".to_string(), cpus.to_string()));
    for problem in &problems {
        eprintln!("latch-perfbench: {name} seed {seed}: {problem}");
        diag.push(("problem".to_string(), problem.clone()));
    }
    let _ = std::fs::remove_dir_all(&work);
    let hist = history(&plan, &p);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        diag,
        plan,
        history: hist,
        reports: p.reports,
    })
}

/// Each acked batch's position in the ack-ordered log, which is the
/// `batch` id its spans carry in every trace track.
struct BatchLabels {
    by_conn: HashMap<(u8, u32), u32>,
    by_session: HashMap<(u32, u32), u32>,
}

impl BatchLabels {
    fn new(log: &[load::Acked]) -> BatchLabels {
        let mut labels = BatchLabels {
            by_conn: HashMap::new(),
            by_session: HashMap::new(),
        };
        for (pos, a) in log.iter().enumerate() {
            labels.by_conn.insert((a.conn, a.seq), pos as u32);
            labels.by_session.insert((a.session, a.index), pos as u32);
        }
        labels
    }
}

/// What the traced load phase hands to the per-layer replays.
struct Traced<'a> {
    origin: Instant,
    log: &'a [load::Acked],
    labels: &'a BatchLabels,
    /// The oracle's traced solo replay: the session layer's spans.
    solo: oracle::Verdict,
    /// Events/s lost in traced windows, relative to untraced ones.
    overhead_pct: f64,
}

fn per_layer(
    env: &Env,
    plan: &Plan,
    p: &mut Phase,
    initial: Option<&Path>,
    t: Traced<'_>,
    problems: &mut Vec<String>,
    diag: &mut Vec<(String, String)>,
) -> Result<Vec<Metric>, String> {
    let Traced {
        origin,
        log,
        labels,
        solo,
        overhead_pct,
    } = t;
    let mut trace = Trace::default();
    let mut codec_tr = Tracer::new(origin);
    let codec = replay::codec(plan, log, &mut codec_tr, REPLAY_BUDGET)?;
    let durable_dir = env.work.join("replay-durable");
    match initial {
        Some(src) => load::copy_dir(src, &durable_dir)?,
        None => std::fs::create_dir_all(&durable_dir).map_err(|e| e.to_string())?,
    }
    let durable_tr = Rc::new(RefCell::new(Tracer::new(origin)));
    let durable = replay::durable(
        plan,
        log,
        &durable_dir,
        Rc::clone(&durable_tr),
        REPLAY_BUDGET,
    )?;
    if durable.complete {
        let drained: std::collections::BTreeMap<u64, Vec<u8>> = p.reports.iter().cloned().collect();
        if durable.reports != drained {
            problems.push("durable replay: reports differ from the served run's".to_string());
        }
    }
    let mut router_tr = Tracer::new(origin);
    let router = replay::router(
        plan,
        log,
        &env.work.join("replay-router"),
        &mut router_tr,
        ROUTER_BUDGET,
    )?;

    for (i, c) in p.conns.iter_mut().enumerate() {
        if let Some(mut tr) = c.tracer.take() {
            for span in &mut tr.spans {
                span.batch = labels.by_conn[&(i as u8, span.batch)];
            }
            trace.add(format!("load.conn{i}"), tr);
        }
    }
    for (i, t) in solo.tracers.into_iter().enumerate() {
        trace.add(format!("oracle.{i}"), t);
    }
    trace.add("codec", codec_tr);
    trace.add(
        "durable",
        Rc::try_unwrap(durable_tr)
            .map_err(|_| "durable tracer still shared")?
            .into_inner(),
    );
    trace.add("router", router_tr);

    let per = |ns: u64, events: u64| ns as f64 / events.max(1) as f64;
    let p_us = |name: &str, q: f64| {
        let mut d: Vec<f64> = trace
            .durations(name)
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect();
        percentile(&mut d, q)
    };
    let acked_events: u64 = p.samples().map(|s| u64::from(s.events)).sum();
    let client_cpu: u64 = p.conns.iter().map(|c| c.cpu_ns).sum();
    let st = durable.storage;
    let sched = durable.stats;
    let kev = |n: u64| 1000.0 * n as f64 / durable.events.max(1) as f64;
    let values: [f64; PER_LAYER.len()] = [
        per(trace.total_ns("client.encode"), codec.events),
        per(client_cpu, acked_events),
        per(trace.total_ns("proto.decode"), codec.events),
        codec.bytes as f64 / codec.events.max(1) as f64,
        p_us("wire.ping", 0.50),
        p_us("wire.ping", 0.99),
        per(trace.total_ns("journal.encode"), codec.events),
        kev(st.fsyncs),
        p_us("storage.fsync", 0.50),
        st.wal_bytes as f64 / durable.events.max(1) as f64,
        st.atomic_bytes as f64 / durable.events.max(1) as f64,
        p_us("storage.write_atomic", 0.50),
        per(trace.total_ns("durable.submit"), durable.events),
        per(trace.total_ns("durable.pump"), durable.events),
        trace.total_ns("durable.recover") as f64 / 1e6,
        kev(sched.evictions),
        kev(sched.restores),
        kev(sched.dispatches),
        sched.queue_depth_hwm as f64,
        per(trace.total_ns("session.apply"), solo.stats.events),
        solo.stats.snapshot_ns as f64 / solo.stats.snapshots.max(1) as f64
            * solo.stats.snapshots_due as f64
            / solo.stats.events.max(1) as f64,
        solo.stats.snapshot_bytes_max as f64,
        100.0 * solo.stats.selected as f64 / solo.stats.events.max(1) as f64,
        100.0 * solo.stats.unselected_batches as f64 / solo.stats.batches.max(1) as f64,
        p_us("router.submit", 0.50),
        1000.0 * router.refused as f64 / router.submits.max(1) as f64,
        router.replica_journal_bytes as f64 / router.events.max(1) as f64,
        overhead_pct,
    ];
    diag.push(("replay.codec_events".to_string(), codec.events.to_string()));
    diag.push((
        "replay.durable_events".to_string(),
        durable.events.to_string(),
    ));
    diag.push((
        "replay.durable_complete".to_string(),
        durable.complete.to_string(),
    ));
    diag.push((
        "replay.router_events".to_string(),
        router.events.to_string(),
    ));
    diag.push((
        "replay.solo_events".to_string(),
        solo.stats.events.to_string(),
    ));
    diag.push((
        "wire.pings".to_string(),
        trace.count("wire.ping").to_string(),
    ));
    diag.push(("storage.fsyncs".to_string(), st.fsyncs.to_string()));
    diag.push((
        "storage.write_atomics".to_string(),
        st.atomic_writes.to_string(),
    ));
    let path = env
        .work
        .parent()
        .unwrap_or(&env.work)
        .join(format!("trace-{}.tsv", plan.workload.name));
    trace
        .write_tsv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    diag.push(("trace_file".to_string(), path.display().to_string()));
    Ok(PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect())
}

fn print_outcome(o: &Outcome) {
    for (k, v) in &o.diag {
        println!("diag {k} = {v}");
    }
    for m in &o.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(o.correct, o.attempted, o.failed, &o.metrics)
    );
}

/// Metric names listed in `BENCHMARK.json`, when it is present.
fn benchmark_json_names(path: &Path) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut names = Vec::new();
    let mut rest = text.as_str();
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i + 6..];
        let open = rest.find('"')?;
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        names.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    Some(names)
}

fn self_test(env: &Env) -> Result<(), String> {
    let check_set = |o: &Outcome, want: &[(&str, &str)], what: &str| -> Result<(), String> {
        let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        if got != want {
            return Err(format!("{what}: metric set {got:?} is not {want:?}"));
        }
        if let Some(m) = o.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("{what}: {} is not finite", m.name));
        }
        Ok(())
    };
    for wl in WORKLOADS {
        let base = run(env, wl.name, 7, 1.0, false, true)?;
        if !base.correct {
            return Err(format!(
                "{}: tiny run failed its gate: {:?}",
                wl.name, base.diag
            ));
        }
        check_set(&base, END_TO_END, wl.name)?;
        if let Some(m) = base.metrics.iter().find(|m| m.value <= 0.0) {
            return Err(format!("{}: {} is not positive", wl.name, m.name));
        }
        let tr = run(env, wl.name, 7, 1.0, true, true)?;
        if !tr.correct {
            return Err(format!(
                "{}: tiny traced run failed its gate: {:?}",
                wl.name, tr.diag
            ));
        }
        check_set(&tr, PER_LAYER, &format!("{} traced", wl.name))?;
        for m in &tr.metrics {
            let timed = m.unit == "us" || m.unit == "ms" || m.name.contains("_ns_per_event");
            let sized = m.unit.starts_with('B') || m.name == "storage.fsyncs_per_kevent";
            let evicts = wl.name == "latchd-many" && m.name.starts_with("sched.evictions");
            if (timed || sized || evicts) && m.value <= 0.0 {
                return Err(format!(
                    "{} traced: {} = {} was not exercised",
                    wl.name, m.name, m.value
                ));
            }
        }
        // A corrupted report must trip the gate.
        let mut bad = base.reports.clone();
        let last = bad[0].1.len() - 1;
        bad[0].1[last] ^= 0x01;
        if oracle::check(&base.plan, &base.history, &bad, None)
            .result
            .is_ok()
        {
            return Err(format!(
                "{}: a corrupted report passed the oracle gate",
                wl.name
            ));
        }
        let mut dropped = base.reports.clone();
        dropped.pop();
        if oracle::check(&base.plan, &base.history, &dropped, None)
            .result
            .is_ok()
        {
            return Err(format!(
                "{}: a missing report passed the oracle gate",
                wl.name
            ));
        }
        println!(
            "self-test {}: ok ({} acked submits)",
            wl.name, base.attempted
        );
    }
    if let Some(names) = benchmark_json_names(Path::new("BENCHMARK.json")) {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            if !names.iter().any(|n| n == name) {
                return Err(format!("BENCHMARK.json does not list metric {name}"));
            }
        }
        for wl in WORKLOADS {
            if !names.iter().any(|n| n == wl.name) {
                return Err(format!("BENCHMARK.json does not list workload {}", wl.name));
            }
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("latch-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Whatever happens, no serving process outlives the run. The
    // watchdog stays detached: when it fires, it ends the process.
    let limit = Duration::from_secs(if args.self_test { 900 } else { 170 });
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        procs::kill_all();
        eprintln!("latch-perfbench: watchdog fired after {limit:?}");
        std::process::exit(3);
    });
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        work: args.work.clone(),
    };
    if args.self_test {
        match self_test(&env) {
            Ok(()) => println!("self-test: ok"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run(
        &env,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        false,
    ) {
        Ok(outcome) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            print_outcome(&outcome);
        }
        Err(e) => {
            procs::kill_all();
            eprintln!("latch-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
