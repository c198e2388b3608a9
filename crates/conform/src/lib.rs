//! Differential conformance testing for the LATCH reproduction.
//!
//! LATCH's central safety claim (paper §3) is that the coarse taint
//! state conservatively over-approximates byte-precise taint: false
//! positives are filtered, false negatives are impossible. This crate
//! turns that claim into a generative test:
//!
//! * [`generate`] builds seeded, deterministic random programs over the
//!   full `latch-sim` ISA — including the `strf`/`stnt`/`ltnt`
//!   extensions, taint-source/sink syscalls, and address patterns
//!   biased toward domain boundaries, page edges, TRF pressure and
//!   top-of-address-space arithmetic.
//! * [`oracle`] is a deliberately simple byte-granular reference
//!   interpreter — written for obviousness, not speed — that produces
//!   the golden taint map and violation set for a trace.
//! * [`driver`] runs each program through twelve legs: baseline DIFT,
//!   a mirror unit, S-LATCH, H-LATCH, P-LATCH (benign and drop-bearing
//!   fault plans), the `latch-serve` scheduler, durable recovery, the
//!   overload policy, the `latchd` wire front door, router failover
//!   with and without the dead node's disk, and standby-router
//!   takeover. It asserts precise-map equality with the oracle,
//!   coarse-superset invariants at every checkpoint, identical
//!   violation sets, solo-identical served sessions, byte-identical
//!   reruns, and metamorphic properties.
//! * [`fixture`] is the cluster set-up the serving legs share with the
//!   `latch-stress` scenarios: streams and solo reports, in-process
//!   `latchd` nodes, the router configuration, the round-robin router
//!   drive, and the seeded node failover and router takeover runs.
//! * [`minimize`] is a delta-debugging minimizer that shrinks a failing
//!   program to a minimal reproducer, and [`corpus`] is the stable text
//!   codec used to check reproducers into `tests/corpus/`.

pub mod corpus;
pub mod driver;
pub mod fixture;
pub mod generate;
pub mod minimize;
pub mod oracle;

pub use driver::{check, CheckOptions, Divergence, Verdict};
pub use generate::{generate, TestProgram};
