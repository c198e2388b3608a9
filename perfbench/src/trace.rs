//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, batch)` around one call into a
//! layer's public function. Each thread or replay stage owns a
//! [`Tracer`]; the run merges them into tracks and writes them out once,
//! after every measurement is taken.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `batch` of a span that concerns no single load batch.
pub const NO_BATCH: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub batch: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A span opened with
    /// [`NO_BATCH`] inside another takes its parent's batch.
    pub fn begin(&mut self, name: &'static str, batch: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let batch = match self.spans.get(parent as usize) {
            Some(p) if batch == NO_BATCH => p.batch,
            _ => batch,
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Records a closed span measured by the caller (load threads time
    /// their own submits so the recorder adds nothing inside the span).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, batch: u32) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            batch,
        });
    }
}

/// Every span of a run, grouped by the track that recorded it.
#[derive(Default)]
pub struct Trace {
    pub tracks: Vec<(String, Vec<Span>)>,
}

impl Trace {
    pub fn add(&mut self, track: impl Into<String>, tracer: Tracer) {
        self.tracks.push((track.into(), tracer.spans));
    }

    fn spans(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.tracks
            .iter()
            .flat_map(|(_, spans)| spans.iter())
            .filter(move |s| s.name == name)
    }

    /// Span durations for `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans(name).map(|s| s.end_ns - s.start_ns).collect()
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans(name).count()
    }

    /// Writes one tab-separated line per span.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "track\tid\tname\tstart_ns\tend_ns\tparent\tbatch")?;
        for (track, spans) in &self.tracks {
            for (id, s) in spans.iter().enumerate() {
                let opt = |v: u32| {
                    if v == u32::MAX {
                        "-".to_string()
                    } else {
                        v.to_string()
                    }
                };
                writeln!(
                    out,
                    "{track}\t{id}\t{}\t{}\t{}\t{}\t{}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    opt(s.parent),
                    opt(s.batch)
                )?;
            }
        }
        out.flush()
    }
}
