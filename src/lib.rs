//! # latch
//!
//! A from-scratch Rust reproduction of **LATCH: A Locality-Aware Taint
//! CHecker** (MICRO-52, 2019). This facade crate re-exports every
//! subsystem of the workspace under one roof:
//!
//! * [`core`] — the LATCH hardware module: taint domains, the Coarse
//!   Taint Table/Cache, TLB taint bits, the Taint Register File, and the
//!   S-LATCH mode controller.
//! * [`dift`] — the byte-precise DIFT substrate: shadow memory,
//!   propagation rules, taint sources/sinks, and security policies.
//! * [`sim`] — a 32-bit RISC-like CPU simulator with an assembler,
//!   paged memory, a syscall layer, and instrumentation hooks.
//! * [`workloads`] — benchmark profiles calibrated to the paper's
//!   published per-benchmark statistics, synthetic event-stream
//!   generators, and mini-programs that run on the VM.
//! * [`systems`] — the three evaluated systems (S-LATCH, P-LATCH,
//!   H-LATCH) plus all baselines and cost models.
//! * [`hwmodel`] — the structural FPGA complexity model.
//! * [`faults`] — deterministic fault injection (coarse-state bit
//!   flips, queue faults, consumer lag/death) for the robustness
//!   harness; see `DESIGN.md` § "Failure modes & degradation".
//! * [`obs`] — the zero-cost observability layer: metrics, typed trace
//!   events, phase timing, and deterministic JSON snapshots. Inert
//!   unless built with `--features obs`; see `DESIGN.md`
//!   § "Observability".
//! * [`serve`] — the multi-session serving layer: one FIFO ready
//!   queue multiplexing many `SessionPipeline`s with admission control,
//!   batch coalescing, and LRU session eviction; see `DESIGN.md`
//!   § "Serving layer".
//!
//! ## Quickstart
//!
//! ```
//! use latch::core::config::LatchConfig;
//! use latch::core::unit::LatchUnit;
//!
//! # fn main() -> Result<(), latch::core::error::ConfigError> {
//! let mut latch = LatchUnit::new(LatchConfig::s_latch().build()?);
//! latch.write_taint(0x1000, 16, true);
//! assert!(latch.check_read(0x1008, 4).coarse_tainted);
//! assert!(!latch.check_read(0x2000, 4).coarse_tainted);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios (attack detection, a
//! monitored web server, a taint-locality study) and `crates/bench` for
//! the binaries that regenerate every table and figure of the paper.

pub use latch_core as core;
pub use latch_dift as dift;
pub use latch_faults as faults;
pub use latch_hwmodel as hwmodel;
pub use latch_obs as obs;
pub use latch_serve as serve;
pub use latch_sim as sim;
pub use latch_systems as systems;
pub use latch_workloads as workloads;
