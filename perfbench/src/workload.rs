//! The four workloads and the deterministic inputs each run drives.
//!
//! Every session's history is a cyclic walk over one pre-generated base
//! stream, starting at a seeded batch offset. Base streams are whole
//! 256-event batches long and offsets are batch-aligned, so every batch
//! a connection submits is one contiguous slice of a base stream and the
//! oracle can replay any session from `(stream, offset, batches)` alone.

use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;
use std::sync::Arc;

/// Events per `Submit`.
pub const BATCH: usize = 256;
/// In-flight window each load connection asks for in its `Hello`.
pub const WINDOW: u32 = 4096;
/// Scrub interval of the serving processes (`ServeConfig::default`),
/// which the oracle's solo pipelines must match.
pub const SCRUB_INTERVAL: u64 = 512;

/// Which serving processes a workload starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// One `latchd`.
    Latchd,
    /// `latch-routerd --replicas 1` over three `latchd` nodes.
    Cluster,
}

/// How a connection chooses the session of its next batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pick {
    /// Cycle through the connection's sessions in order.
    RoundRobin,
    /// Seeded Zipf-like draw: session volumes fall off as 1/rank.
    Zipf,
}

/// A named traffic shape.
pub struct Workload {
    pub name: &'static str,
    pub topology: Topology,
    pub conns: usize,
    pub sessions: usize,
    /// Profiles of the base streams; stream `i` uses
    /// `profiles[i % profiles.len()]`.
    pub profiles: &'static [&'static str],
    /// Number of distinct base streams.
    pub streams: usize,
    /// Base stream length in batches.
    pub stream_batches: usize,
    /// Batches per session journaled into the state directory before
    /// the serving process starts (recovered at start-up).
    pub seeded_batches: usize,
    pub pick: Pick,
    /// Cold starts per load phase; `setup_s` is their median.
    pub cold_starts: usize,
}

const CLEAN: &[&str] = &["bzip2", "gobmk", "cactusADM", "h264ref"];
const TAINTED: &[&str] = &["astar"];
/// Network profiles plus the low-taint SPEC ones.
const MIXED: &[&str] = &[
    "curl",
    "wget",
    "mySQL",
    "apache",
    "apache-25",
    "apache-50",
    "apache-75",
    "bzip2",
    "gobmk",
    "cactusADM",
    "h264ref",
    "hmmer",
    "sjeng",
    "omnetpp",
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "latchd-clean",
        topology: Topology::Latchd,
        conns: 1,
        sessions: 4,
        profiles: CLEAN,
        streams: 4,
        stream_batches: 512,
        seeded_batches: 0,
        pick: Pick::RoundRobin,
        cold_starts: 15,
    },
    Workload {
        name: "latchd-tainted",
        topology: Topology::Latchd,
        conns: 1,
        sessions: 4,
        profiles: TAINTED,
        streams: 4,
        stream_batches: 512,
        seeded_batches: 0,
        pick: Pick::RoundRobin,
        cold_starts: 15,
    },
    Workload {
        name: "latchd-many",
        topology: Topology::Latchd,
        conns: 2,
        sessions: 128,
        profiles: MIXED,
        streams: 14,
        stream_batches: 192,
        seeded_batches: 40,
        pick: Pick::Zipf,
        cold_starts: 5,
    },
    Workload {
        name: "cluster-r1",
        topology: Topology::Cluster,
        conns: 2,
        sessions: 16,
        profiles: MIXED,
        streams: 14,
        stream_batches: 192,
        seeded_batches: 0,
        pick: Pick::RoundRobin,
        cold_starts: 9,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One session of a run.
pub struct Session {
    pub id: u64,
    pub conn: usize,
    pub stream: usize,
    /// Batch offset of the session's first batch in its base stream.
    pub offset: usize,
}

/// Everything a run submits, fixed by the workload and the seed.
pub struct Plan {
    pub workload: &'static Workload,
    pub streams: Vec<Arc<Vec<Event>>>,
    pub sessions: Vec<Session>,
    pub seeded_batches: u64,
    pub seed: u64,
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn generate(profile: &str, seed: u64, events: usize) -> Vec<Event> {
    let profile = BenchmarkProfile::by_name(profile)
        .unwrap_or_else(|| panic!("unknown workload profile {profile}"));
    let mut src = profile.stream(seed, events as u64);
    let mut out = Vec::with_capacity(events);
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    assert_eq!(
        out.len(),
        events,
        "profile {} stream ran short",
        profile.name
    );
    out
}

impl Plan {
    /// Builds the run's inputs. `tiny` shrinks the streams and the seeded
    /// prefix for the self-test; the session and connection counts stay.
    pub fn build(workload: &'static Workload, seed: u64, tiny: bool) -> Plan {
        let stream_batches = if tiny { 16 } else { workload.stream_batches };
        let seeded_batches = if tiny {
            workload.seeded_batches.min(2)
        } else {
            workload.seeded_batches
        };
        let mut rng = Rng::new(seed ^ 0x005E_ED0F_BE4C);
        let stream_seeds: Vec<u64> = (0..workload.streams).map(|_| rng.next_u64()).collect();
        // Generation dominates set-up on astar, so split it over two
        // threads (the host has two CPUs and nothing else runs yet).
        let mut streams: Vec<Option<Arc<Vec<Event>>>> = vec![None; workload.streams];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|half| {
                    let seeds = &stream_seeds;
                    scope.spawn(move || {
                        (0..workload.streams)
                            .filter(|i| i % 2 == half)
                            .map(|i| {
                                let profile = workload.profiles[i % workload.profiles.len()];
                                (i, generate(profile, seeds[i], stream_batches * BATCH))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, events) in h.join().expect("stream generator") {
                    streams[i] = Some(Arc::new(events));
                }
            }
        });
        let streams: Vec<Arc<Vec<Event>>> =
            streams.into_iter().map(|s| s.expect("generated")).collect();
        let sessions = (0..workload.sessions)
            .map(|s| Session {
                id: s as u64 + 1,
                conn: s % workload.conns,
                stream: s % workload.streams,
                offset: rng.below(stream_batches),
            })
            .collect();
        Plan {
            workload,
            streams,
            sessions,
            seeded_batches: seeded_batches as u64,
            seed,
        }
    }

    /// The `index`-th batch of session `s`'s history.
    pub fn batch(&self, s: usize, index: u64) -> &[Event] {
        let session = &self.sessions[s];
        let stream = &self.streams[session.stream];
        let batches = stream.len() / BATCH;
        let b = (session.offset + (index % batches as u64) as usize) % batches;
        &stream[b * BATCH..(b + 1) * BATCH]
    }

    /// Indices of the sessions connection `conn` drives.
    pub fn sessions_of(&self, conn: usize) -> Vec<usize> {
        (0..self.sessions.len())
            .filter(|&s| self.sessions[s].conn == conn)
            .collect()
    }
}

/// Chooses each next session for one connection.
pub struct Picker {
    sessions: Vec<usize>,
    /// Cumulative weights for [`Pick::Zipf`]; empty for round-robin.
    cdf: Vec<f64>,
    cursor: usize,
    rng: Rng,
}

impl Picker {
    pub fn new(plan: &Plan, conn: usize) -> Picker {
        let sessions = plan.sessions_of(conn);
        let mut rng = Rng::new(plan.seed ^ 0x21FF ^ ((conn as u64) << 32));
        let mut cdf = Vec::new();
        if plan.workload.pick == Pick::Zipf {
            // A seeded permutation decides which session gets which
            // rank, so hot and cold sessions move with the seed.
            let mut ranks: Vec<usize> = (0..sessions.len()).collect();
            for i in (1..ranks.len()).rev() {
                ranks.swap(i, rng.below(i + 1));
            }
            let mut total = 0.0;
            for &rank in &ranks {
                total += 1.0 / (rank as f64 + 1.0);
                cdf.push(total);
            }
            for c in &mut cdf {
                *c /= total;
            }
        }
        Picker {
            sessions,
            cdf,
            cursor: 0,
            rng,
        }
    }

    pub fn next(&mut self) -> usize {
        if self.cdf.is_empty() {
            let s = self.sessions[self.cursor % self.sessions.len()];
            self.cursor += 1;
            return s;
        }
        let u = self.rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.sessions.len() - 1);
        self.sessions[i]
    }
}
