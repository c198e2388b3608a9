//! Acceptance tests for the harness's teeth: a deliberately injected
//! coarse-bit-clear bug (dropping the first coarse taint update) must
//! be caught as a coarse-superset false negative and minimized to a
//! tiny reproducer, and the fuzzer must be deterministic per seed.

use latch_conform::driver::{check, CheckOptions, Divergence};
use latch_conform::generate::generate;
use latch_conform::{corpus, minimize};

fn inject_opts() -> CheckOptions {
    CheckOptions { inject_coarse_clear: true, metamorphic: false, ..CheckOptions::default() }
}

#[test]
fn injected_coarse_clear_is_caught() {
    for seed in 0..8u64 {
        let prog = generate(seed);
        let err = check(&prog, &inject_opts())
            .expect_err("the sabotaged mirror leg must fail the superset check");
        match *err {
            Divergence::CoarseSuperset { leg, .. } => assert_eq!(leg, "mirror"),
            other => panic!("seed {seed}: wrong divergence {other}"),
        }
    }
}

#[test]
fn injected_bug_minimizes_to_a_tiny_reproducer() {
    let prog = generate(0);
    let opts = inject_opts();
    let min = minimize::minimize(&prog, |candidate| check(candidate, &opts).is_err());
    assert!(
        min.instrs.len() <= 20,
        "reproducer still {} instructions:\n{}",
        min.instrs.len(),
        corpus::encode(&min)
    );
    // The minimized program must still trip the same divergence…
    let err = check(&min, &opts).expect_err("minimized repro still fails");
    assert!(matches!(*err, Divergence::CoarseSuperset { .. }));
    // …and must be clean without the injection (the bug is the bug).
    let healthy = CheckOptions { inject_coarse_clear: false, ..opts };
    let verdict = check(&min, &healthy).expect("healthy systems pass the repro");
    assert!(verdict.skipped.is_none());
}

#[test]
fn checks_are_deterministic_per_seed() {
    for seed in [0u64, 7, 23] {
        let prog = generate(seed);
        let a = check(&prog, &CheckOptions::default()).expect("green");
        let b = check(&prog, &CheckOptions::default()).expect("green");
        assert_eq!(a, b, "seed {seed}");
    }
}

/// `latch-conform --inject` without `--corpus-dir`, run from a working
/// directory that holds a regression corpus, writes its reproducers of
/// the injected bug to the fresh temporary directory it names, and
/// adds nothing to `tests/corpus`.
#[test]
fn an_inject_run_leaves_the_regression_corpus_alone() {
    let cwd = std::env::temp_dir().join(format!("latch-conform-cwd-{}", std::process::id()));
    let corpus_dir = cwd.join("tests/corpus");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&corpus_dir).unwrap();
    std::fs::write(corpus_dir.join("kept.txt"), "# a committed reproducer\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_latch-conform"))
        .args([
            "--seeds",
            "1",
            "--inject",
            "coarse-clear",
            "--no-metamorphic",
        ])
        .current_dir(&cwd)
        .output()
        .expect("run latch-conform");
    assert!(!out.status.success(), "the injected bug must fail the run");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<_> = std::fs::read_dir(&corpus_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(listed, ["kept.txt"], "the corpus gained files:\n{stdout}");
    let dir = stdout
        .lines()
        .find_map(|l| l.strip_prefix("reproducers of the injected bug go to "))
        .expect("the run names its directory");
    let written = std::path::Path::new(dir).join("seed-0-minimized.txt");
    assert!(written.is_file(), "no reproducer in {dir}:\n{stdout}");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(&cwd);
}
