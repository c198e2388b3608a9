//! Minimal benchmarking harness with `criterion`'s API surface.
//!
//! Runs each benchmark closure for a short, fixed measurement window
//! and prints mean time per iteration (plus throughput when a group
//! declares one), then one JSON line with the median and quartiles of
//! the time per iteration over its timed batches, for recording. No
//! plots or baselines — enough to keep `harness = false` bench targets
//! compiling, runnable and recordable.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP_ITERS: u64 = 10;
const MEASURE_WINDOW: Duration = Duration::from_millis(200);

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim treats all
/// variants the same.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timing context passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
    /// Nanoseconds per iteration of each timed batch: 64 calls for
    /// [`iter`](Self::iter), one for [`iter_batched`](Self::iter_batched).
    batches: Vec<f64>,
}

impl Bencher {
    fn new() -> Self {
        Self {
            iters: 0,
            elapsed: Duration::ZERO,
            batches: Vec::new(),
        }
    }

    /// Times repeated calls of `routine`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        for _ in 0..WARMUP_ITERS {
            black_box(routine());
        }
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < MEASURE_WINDOW {
            let batch = Instant::now();
            for _ in 0..64 {
                black_box(routine());
            }
            self.batches.push(batch.elapsed().as_nanos() as f64 / 64.0);
            iters += 64;
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        for _ in 0..WARMUP_ITERS {
            black_box(routine(setup()));
        }
        let mut measured = Duration::ZERO;
        let mut iters = 0u64;
        let start = Instant::now();
        while start.elapsed() < MEASURE_WINDOW {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            let took = t.elapsed();
            measured += took;
            self.batches.push(took.as_nanos() as f64);
            iters += 1;
        }
        self.elapsed = measured;
        self.iters = iters;
    }
}

fn report(name: &str, b: &Bencher, throughput: Option<Throughput>) {
    if b.iters == 0 {
        println!("{name:<40} (no iterations)");
        return;
    }
    let per_iter = b.elapsed.as_nanos() as f64 / b.iters as f64;
    let extra = match throughput {
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 * b.iters as f64 / b.elapsed.as_secs_f64();
            format!("  {:.1} Melem/s", rate / 1e6)
        }
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 * b.iters as f64 / b.elapsed.as_secs_f64();
            format!("  {:.1} MiB/s", rate / (1024.0 * 1024.0))
        }
        None => String::new(),
    };
    println!("{name:<40} {per_iter:>12.1} ns/iter{extra}");
    println!("{}", summary_json(name, b, throughput));
}

/// The `q`-quantile of sorted `xs`, interpolated between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// One JSON object on one line: the bench's name (bench names need no
/// escaping), its batch and iteration counts, the median and quartiles
/// of its batches' time per iteration, and its throughput annotation.
fn summary_json(name: &str, b: &Bencher, throughput: Option<Throughput>) -> String {
    let mut xs = b.batches.clone();
    xs.sort_by(f64::total_cmp);
    let unit = match throughput {
        Some(Throughput::Elements(n)) => format!(",\"elements\":{n}"),
        Some(Throughput::Bytes(n)) => format!(",\"bytes\":{n}"),
        None => String::new(),
    };
    format!(
        "{{\"bench\":\"{name}\",\"batches\":{},\"iters\":{},\"median_ns\":{:.1},\"q1_ns\":{:.1},\"q3_ns\":{:.1}{unit}}}",
        xs.len(),
        b.iters,
        quantile(&xs, 0.5),
        quantile(&xs, 0.25),
        quantile(&xs, 0.75),
    )
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        report(name.as_ref(), &b, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup<'_> {
        println!("group: {}", name.as_ref());
        BenchmarkGroup {
            _parent: self,
            name: name.as_ref().to_string(),
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one named benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        let name = format!("{}/{}", self.name, name.as_ref());
        report(&name, &b, self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Bundles benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main()` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new();
        b.iter(|| black_box(1u64) + 1);
        assert!(b.iters > 0);
        assert!(b.elapsed > Duration::ZERO);
    }

    #[test]
    fn summary_is_one_json_line_of_quartiles() {
        let b = Bencher {
            iters: 5,
            elapsed: Duration::from_nanos(150),
            batches: vec![50.0, 10.0, 40.0, 20.0, 30.0],
        };
        assert_eq!(
            summary_json("g/a", &b, Some(Throughput::Elements(7))),
            "{\"bench\":\"g/a\",\"batches\":5,\"iters\":5,\"median_ns\":30.0,\
             \"q1_ns\":20.0,\"q3_ns\":40.0,\"elements\":7}"
        );
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        c.bench_function("plain", |b| b.iter(|| 2 + 2));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Elements(4));
        g.bench_function(format!("{}B", 64), |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }
}
