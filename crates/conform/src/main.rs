//! `latch-conform` — the differential conformance fuzzer CLI.
//!
//! Runs a deterministic seed range through the full differential check
//! (the oracle against all twelve driver legs, plus metamorphic
//! transforms) and prints a summary that is byte-identical across
//! reruns of the same arguments. Any failing seed is delta-debug
//! minimized and the reproducer written to the corpus directory:
//! `--corpus-dir`, else `tests/corpus` of the working directory — the
//! regression corpus — except under `--inject`, whose reproducers are
//! of a deliberately injected bug and go to a fresh temporary
//! directory, whose path the run prints first.
//!
//! ```text
//! latch-conform --seeds 64                 # CI tier-1 budget
//! latch-conform --seeds 4096               # extended sweep
//! latch-conform --seeds 8 --inject coarse-clear   # prove the harness bites
//! ```

use latch_conform::driver::{check, CheckOptions};
use latch_conform::generate::{generate, TestProgram};
use latch_conform::{corpus, minimize};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seeds: u64,
    start: u64,
    inject_coarse_clear: bool,
    metamorphic: bool,
    corpus_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: latch-conform [--seeds N] [--start N] [--inject coarse-clear] \
         [--no-metamorphic] [--corpus-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 64,
        start: 0,
        inject_coarse_clear: false,
        metamorphic: true,
        corpus_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seeds" => args.seeds = value().parse().unwrap_or_else(|_| usage()),
            "--start" => args.start = value().parse().unwrap_or_else(|_| usage()),
            "--inject" => match value().as_str() {
                "coarse-clear" => args.inject_coarse_clear = true,
                _ => usage(),
            },
            "--no-metamorphic" => args.metamorphic = false,
            "--corpus-dir" => args.corpus_dir = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    args
}

/// Creates a directory no one else uses, for one run's reproducers.
fn fresh_temp_dir() -> std::io::Result<PathBuf> {
    let base = std::env::temp_dir();
    let pid = std::process::id();
    let mut n = 0u32;
    loop {
        let dir = base.join(format!("latch-conform-{pid}-{n}"));
        match std::fs::create_dir(&dir) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && n < u32::MAX => n += 1,
            made => return made.map(|()| dir),
        }
    }
}

/// Minimizes a failing program under the same options (metamorphic legs
/// off: they are not needed to preserve the divergence and dominate the
/// probe cost).
fn shrink(prog: &TestProgram, opts: &CheckOptions) -> TestProgram {
    let probe_opts = CheckOptions { metamorphic: false, ..*opts };
    minimize::minimize(prog, |candidate| check(candidate, &probe_opts).is_err())
}

fn main() -> ExitCode {
    let args = parse_args();
    let corpus_dir = match (&args.corpus_dir, args.inject_coarse_clear) {
        (Some(dir), _) => dir.clone(),
        (None, false) => PathBuf::from("tests/corpus"),
        (None, true) => match fresh_temp_dir() {
            Ok(dir) => {
                println!("reproducers of the injected bug go to {}", dir.display());
                dir
            }
            Err(e) => {
                eprintln!("latch-conform: no temporary directory for reproducers: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let opts = CheckOptions {
        metamorphic: args.metamorphic,
        inject_coarse_clear: args.inject_coarse_clear,
        ..CheckOptions::default()
    };

    let mut ok = 0u64;
    let mut skipped = 0u64;
    let mut failed = 0u64;
    for seed in args.start..args.start.saturating_add(args.seeds) {
        let prog = generate(seed);
        match check(&prog, &opts) {
            Ok(v) => {
                if let Some(reason) = v.skipped {
                    skipped += 1;
                    println!("seed {seed:>6}: skip ({reason})");
                } else {
                    ok += 1;
                    println!(
                        "seed {seed:>6}: ok trace={} tainted={} violations={}",
                        v.trace_len, v.tainted_bytes, v.violations
                    );
                }
            }
            Err(div) => {
                failed += 1;
                println!("seed {seed:>6}: FAIL {div}");
                let min = shrink(&prog, &opts);
                let name = format!("seed-{seed}-minimized.txt");
                let path = corpus_dir.join(&name);
                let body = format!(
                    "# minimized reproducer for seed {seed}\n# divergence: {div}\n{}",
                    corpus::encode(&min)
                );
                match std::fs::create_dir_all(&corpus_dir)
                    .and_then(|()| std::fs::write(&path, body))
                {
                    Ok(()) => println!(
                        "seed {seed:>6}: minimized to {} instrs -> {}",
                        min.instrs.len(),
                        path.display()
                    ),
                    Err(e) => println!(
                        "seed {seed:>6}: minimized to {} instrs (corpus write failed: {e})",
                        min.instrs.len()
                    ),
                }
            }
        }
    }

    println!(
        "conformance: {} seeds from {}: {ok} ok, {skipped} skipped, {failed} failed",
        args.seeds, args.start
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
